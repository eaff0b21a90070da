"""Abstract SEV platform: deploy, measure, provision, launch."""

import pytest

from vmquote import crypto
from vmquote.codec import Atom, Label, Tuple, encode
from vmquote.crypto import DecryptionFailure, Rng
from vmquote.guest import DESIGNATED_VM_CODE, GuestNotRunning, GuestRuntime
from vmquote.sev import (
    DeployPackage,
    MacVerificationFailed,
    Measurement,
    MeasurementPackage,
    NoMeasuredSession,
    SecretPackage,
    SessionBusy,
    SevPlatformCert,
    TransportKeys,
    amd_rot_certify,
    cert_payload,
    new_sev_platform,
    psp_receive_deploy,
    psp_receive_secret,
    seal_deploy,
    seal_secret,
)

VM_CODE = Atom(b"some vm image")
AMD_ROOT = crypto.sig_keygen(Rng(40))


def make_deploy(platform, rng, vmc=VM_CODE):
    """Build a well-formed deploy package the way a guest owner would."""
    go_sn = crypto.kx_keygen(rng)
    ss = crypto.shared_secret(platform.psp_sn.public, go_sn.private)
    kek = crypto.derive_wrap_key(Label("sev_kek"), ss)
    kik = crypto.derive_wrap_key(Label("sev_kik"), ss)
    tek = crypto.fresh_key(rng)
    tik = crypto.fresh_key(rng)
    blob_d = crypto.encrypt(
        Tuple([Label("transport_keys"), Atom(tek), Atom(tik)]), kek, rng
    )
    pkg = DeployPackage(
        go_sn_pb=go_sn.public,
        blob_d=blob_d,
        mac_d=crypto.mac(Atom(blob_d), kik),
        vmc=vmc,
    )
    return pkg, tek, tik


def make_secret(msr, tek, tik, rng, secret=Atom(b"\x5c" * 32)):
    blob_p = crypto.encrypt(secret, tek, rng)
    return SecretPackage(
        blob_p=blob_p, mac_p=crypto.mac(Tuple([msr.to_term(), Atom(blob_p)]), tik)
    )


@pytest.fixture
def plat():
    return new_sev_platform(Rng(41), AMD_ROOT)


class TestCertification:
    def test_cert_verifies_under_amd_root(self):
        rng = Rng(42)
        rot = crypto.sig_keygen(rng)
        p = new_sev_platform(rng, rot)
        cert = amd_rot_certify(rot, p.psp_sn.public)
        assert crypto.verify(cert_payload(cert.psp_sn_pb), cert.sig_ar, rot.public)
        assert cert.psp_sn_pb == p.psp_sn.public

    def test_cert_term_round_trip(self):
        rng = Rng(43)
        cert = new_sev_platform(rng, crypto.sig_keygen(rng)).cert
        assert SevPlatformCert.from_term(cert.to_term()) == cert


class TestDeploy:
    def test_happy_path_measures(self, plat):
        rng = Rng(44)
        pkg, tek, tik = make_deploy(plat, rng)
        mp = psp_receive_deploy(plat, pkg, rng)
        assert mp.msr.dig == crypto.digest(VM_CODE)
        assert mp.msr.plat_sev == plat.plat_sev
        assert crypto.verify_mac(mp.msr.to_term(), mp.mac_ti, tik)
        assert plat.session is not None
        assert not plat.session.running
        assert plat.session.keys.tek == tek

    def test_second_deploy_busy(self, plat):
        rng = Rng(45)
        pkg, _, _ = make_deploy(plat, rng)
        psp_receive_deploy(plat, pkg, rng)
        pkg2, _, _ = make_deploy(plat, rng)
        with pytest.raises(SessionBusy):
            psp_receive_deploy(plat, pkg2, rng)

    def test_flipped_blob_rejected_no_session(self, plat):
        rng = Rng(46)
        pkg, _, _ = make_deploy(plat, rng)
        bad = DeployPackage(
            go_sn_pb=pkg.go_sn_pb,
            blob_d=pkg.blob_d[:-1] + bytes([pkg.blob_d[-1] ^ 1]),
            mac_d=pkg.mac_d,
            vmc=pkg.vmc,
        )
        with pytest.raises(DecryptionFailure):
            psp_receive_deploy(plat, bad, rng)
        assert plat.session is None

    def test_flipped_mac_rejected_no_session(self, plat):
        rng = Rng(47)
        pkg, _, _ = make_deploy(plat, rng)
        bad = DeployPackage(
            go_sn_pb=pkg.go_sn_pb,
            blob_d=pkg.blob_d,
            mac_d=pkg.mac_d[:-1] + bytes([pkg.mac_d[-1] ^ 1]),
            vmc=pkg.vmc,
        )
        with pytest.raises(MacVerificationFailed):
            psp_receive_deploy(plat, bad, rng)
        assert plat.session is None

    def test_wrong_shape_plaintext_rejected(self, plat):
        rng = Rng(48)
        go_sn = crypto.kx_keygen(rng)
        ss = crypto.shared_secret(plat.psp_sn.public, go_sn.private)
        kek = crypto.derive_wrap_key(Label("sev_kek"), ss)
        kik = crypto.derive_wrap_key(Label("sev_kik"), ss)
        blob_d = crypto.encrypt(Atom(b"not a transport tuple"), kek, rng)
        pkg = DeployPackage(
            go_sn_pb=go_sn.public,
            blob_d=blob_d,
            mac_d=crypto.mac(Atom(blob_d), kik),
            vmc=VM_CODE,
        )
        with pytest.raises(DecryptionFailure):
            psp_receive_deploy(plat, pkg, rng)
        assert plat.session is None

    def test_measurement_nonce_fresh_per_deploy(self):
        rng = Rng(49)
        p1, p2 = new_sev_platform(Rng(50), AMD_ROOT), new_sev_platform(Rng(50), AMD_ROOT)
        pkg1, _, _ = make_deploy(p1, rng)
        m1 = psp_receive_deploy(p1, pkg1, rng)
        pkg2, _, _ = make_deploy(p2, rng)
        m2 = psp_receive_deploy(p2, pkg2, rng)
        assert m1.msr.nonce != m2.msr.nonce


class TestProvision:
    def _measured(self, plat, rng):
        pkg, tek, tik = make_deploy(plat, rng)
        mp = psp_receive_deploy(plat, pkg, rng)
        return mp.msr, tek, tik

    def test_happy_path_launches(self, plat):
        rng = Rng(51)
        msr, tek, tik = self._measured(plat, rng)
        session = psp_receive_secret(plat, make_secret(msr, tek, tik, rng))
        assert session.running
        assert session.provisioned_secret == Atom(b"\x5c" * 32)

    def test_no_session_raises(self, plat):
        rng = Rng(52)
        msr = Measurement(plat.plat_sev, plat.launch_sev, b"\x00" * 32, b"\x01" * 16)
        with pytest.raises(NoMeasuredSession):
            psp_receive_secret(plat, make_secret(msr, b"\x02" * 32, b"\x03" * 32, rng))

    def test_replay_after_launch_refused(self, plat):
        rng = Rng(53)
        msr, tek, tik = self._measured(plat, rng)
        pkg = make_secret(msr, tek, tik, rng)
        psp_receive_secret(plat, pkg)
        with pytest.raises(NoMeasuredSession):
            psp_receive_secret(plat, pkg)

    def test_bad_mac_terminates_session(self, plat):
        rng = Rng(54)
        msr, tek, tik = self._measured(plat, rng)
        good = make_secret(msr, tek, tik, rng)
        bad = SecretPackage(blob_p=good.blob_p, mac_p=b"\x00" * 32)
        with pytest.raises(MacVerificationFailed):
            psp_receive_secret(plat, bad)
        assert plat.session is None
        with pytest.raises(NoMeasuredSession):
            psp_receive_secret(plat, good)

    def test_mac_binds_measurement(self, plat):
        """A secret MACed for a different measurement is refused."""
        rng = Rng(55)
        msr, tek, tik = self._measured(plat, rng)
        other = Measurement(msr.plat_sev, msr.launch_sev, msr.dig, b"\xee" * 16)
        with pytest.raises(MacVerificationFailed):
            psp_receive_secret(plat, make_secret(other, tek, tik, rng))

    def test_undecryptable_blob_terminates_session(self, plat):
        rng = Rng(56)
        msr, tek, tik = self._measured(plat, rng)
        blob_p = crypto.encrypt(Atom(b"\x11" * 32), crypto.fresh_key(rng), rng)
        pkg = SecretPackage(
            blob_p=blob_p, mac_p=crypto.mac(Tuple([msr.to_term(), Atom(blob_p)]), tik)
        )
        with pytest.raises(DecryptionFailure):
            psp_receive_secret(plat, pkg)
        assert plat.session is None


class TestKeySchedule:
    """seal_deploy and seal_secret build, byte for byte, the hand-built packages."""

    def test_seal_deploy_matches_hand_built(self, plat):
        pkg, tek, tik = make_deploy(plat, Rng(66))
        rng = Rng(66)
        go_sn = crypto.kx_keygen(rng)
        ss = crypto.shared_secret(plat.psp_sn.public, go_sn.private)
        keys = TransportKeys(tek=crypto.fresh_key(rng), tik=crypto.fresh_key(rng))
        assert (keys.tek, keys.tik) == (tek, tik)
        sealed = seal_deploy(ss, go_sn.public, keys, VM_CODE, rng)
        assert encode(sealed.to_term()) == encode(pkg.to_term())

    def test_seal_secret_matches_hand_built(self, plat):
        rng = Rng(67)
        pkg, tek, tik = make_deploy(plat, rng)
        msr = psp_receive_deploy(plat, pkg, rng).msr
        secret = Atom(b"\x5c" * 32)
        hand = make_secret(msr, tek, tik, Rng(68), secret=secret)
        sealed = seal_secret(msr, secret, TransportKeys(tek=tek, tik=tik), Rng(68))
        assert encode(sealed.to_term()) == encode(hand.to_term())


class TestPackageTerms:
    def test_deploy_round_trip(self, plat):
        pkg, _, _ = make_deploy(plat, Rng(57))
        assert DeployPackage.from_term(pkg.to_term()) == pkg

    def test_measurement_round_trip(self, plat):
        rng = Rng(58)
        pkg, _, _ = make_deploy(plat, rng)
        mp = psp_receive_deploy(plat, pkg, rng)
        assert Measurement.from_term(mp.msr.to_term()) == mp.msr
        assert MeasurementPackage.from_term(mp.to_term()) == mp

    def test_secret_round_trip(self, plat):
        rng = Rng(59)
        pkg, tek, tik = make_deploy(plat, rng)
        mp = psp_receive_deploy(plat, pkg, rng)
        sp = make_secret(mp.msr, tek, tik, rng)
        assert SecretPackage.from_term(sp.to_term()) == sp


class TestGuestRuntime:
    def _running(self, rng, secret=Atom(b"\x5c" * 32), vmc=DESIGNATED_VM_CODE):
        plat = new_sev_platform(rng, AMD_ROOT)
        pkg, tek, tik = make_deploy(plat, rng, vmc=vmc)
        mp = psp_receive_deploy(plat, pkg, rng)
        return psp_receive_secret(plat, make_secret(mp.msr, tek, tik, rng, secret=secret))

    def test_runtime_for_measured_session_refused(self):
        rng = Rng(61)
        plat = new_sev_platform(rng, AMD_ROOT)
        pkg, _, _ = make_deploy(plat, rng)
        psp_receive_deploy(plat, pkg, rng)
        with pytest.raises(GuestNotRunning):
            GuestRuntime(plat.session)

    def test_non_atom_secret_refused(self):
        session = self._running(Rng(62), secret=Tuple([Atom(b"k")]))
        with pytest.raises(GuestNotRunning):
            GuestRuntime(session)

    def test_payload_counter_ticks(self):
        rt = GuestRuntime(self._running(Rng(63)))
        p1 = rt.next_report_payload()
        p2 = rt.next_report_payload()
        assert p1.items[1].value == (1).to_bytes(8, "big")
        assert p2.items[1].value == (2).to_bytes(8, "big")

    def test_report_tag_verifies_under_channel_key(self):
        secret = Atom(b"\x77" * 32)
        rt = GuestRuntime(self._running(Rng(64), secret=secret))
        request = rt.request_report(rt.next_report_payload())
        assert crypto.verify_mac(request.vmdata, request.tag, secret.value)

    def test_digest_exposed(self):
        session = self._running(Rng(65))
        GuestRuntime(session)
        assert session.msr.dig == crypto.digest(DESIGNATED_VM_CODE)
