"""Trusted owner enclave: the one-way INIT/DEPLOYED/PROVISIONED chain."""

import pytest

from vmquote import crypto, sgx
from vmquote.codec import Atom, Label, Tuple
from vmquote.crypto import Rng
from vmquote.guest import DESIGNATED_VM_CODE, GuestRuntime
from vmquote.owner import (
    PHASE_DEPLOYED,
    PHASE_INIT,
    PHASE_PROVISIONED,
    TrustedOwner,
    report_data_preimage,
)
from vmquote.sev import (
    DeployPackage,
    Measurement,
    amd_rot_certify,
    new_sev_platform,
    psp_receive_deploy,
    psp_receive_secret,
)

# Frozen with an independent hash computation before this module existed.
RPDATA_VECTOR = "54d65926bc45f43975f36d204a27ddfae4c941ccbe44eb19b918c4db11eb756d"


def test_report_data_preimage_vector():
    msr = Measurement(
        plat_sev=Atom(b"\xaa" * 8),
        launch_sev=Atom(b"\xbb" * 8),
        dig=b"\xcc" * 32,
        nonce=b"\xdd" * 16,
    )
    vmdata = Tuple([Label("burrito_report"), Atom((1).to_bytes(8, "big"))])
    preimage = report_data_preimage(bytes(range(1, 33)), msr, vmdata)
    assert crypto.digest(preimage).hex() == RPDATA_VECTOR


@pytest.fixture
def recorded():
    """What the owner recorded, as (label, payload) pairs."""
    return []


@pytest.fixture
def ctx(recorded):
    """One owner on a certified host, one certified SEV platform."""
    rng = Rng(71)
    amd = crypto.sig_keygen(rng)
    intel = crypto.sig_keygen(rng)
    host = sgx.new_sgx_platform(rng, intel)
    sgx.load_enclave(host, sgx.OWNER_ENCLAVE_MEASUREMENT)
    sev_plat = new_sev_platform(rng, amd)
    owner = TrustedOwner(
        amd.public, host, rng, lambda label, **payload: recorded.append((label, payload))
    )
    return rng, amd, intel, host, sev_plat, owner


def drive_to_provisioned(ctx, vmc=DESIGNATED_VM_CODE):
    rng, amd, intel, host, sev_plat, owner = ctx
    pkg = owner.deploy_vm(sev_plat.cert, vmc)
    mp = psp_receive_deploy(sev_plat, pkg, rng)
    prov = owner.provision_vm(mp.msr, mp.mac_ti)
    from vmquote.sev import SecretPackage

    session = psp_receive_secret(
        sev_plat, SecretPackage(blob_p=prov.blob_p, mac_p=prov.mac_p)
    )
    return mp, session


class TestDeploy:
    def test_happy_path_transitions(self, ctx, recorded):
        rng, amd, intel, host, sev_plat, owner = ctx
        assert owner.phase == PHASE_INIT
        dep = owner.deploy_vm(sev_plat.cert, DESIGNATED_VM_CODE)
        assert dep is not None
        assert owner.phase == PHASE_DEPLOYED
        assert recorded[-1][0] == "owner_deploy_vm"

    def test_forged_cert_refused(self, ctx, recorded):
        rng, amd, intel, host, sev_plat, owner = ctx
        rogue = crypto.sig_keygen(rng)
        fake = amd_rot_certify(rogue, sev_plat.psp_sn.public)
        assert owner.deploy_vm(fake, DESIGNATED_VM_CODE) is None
        assert owner.phase == PHASE_INIT
        assert recorded == []

    def test_second_deploy_refused(self, ctx):
        rng, amd, intel, host, sev_plat, owner = ctx
        assert owner.deploy_vm(sev_plat.cert, DESIGNATED_VM_CODE) is not None
        assert owner.deploy_vm(sev_plat.cert, DESIGNATED_VM_CODE) is None
        assert owner.phase == PHASE_DEPLOYED

    def test_deploy_package_opens_on_platform(self, ctx):
        rng, amd, intel, host, sev_plat, owner = ctx
        pkg = owner.deploy_vm(sev_plat.cert, DESIGNATED_VM_CODE)
        mp = psp_receive_deploy(sev_plat, pkg, rng)
        assert mp.msr.dig == crypto.digest(DESIGNATED_VM_CODE)


class TestProvision:
    def _deployed(self, ctx):
        rng, amd, intel, host, sev_plat, owner = ctx
        pkg = owner.deploy_vm(sev_plat.cert, DESIGNATED_VM_CODE)
        return psp_receive_deploy(sev_plat, pkg, rng)

    def test_happy_path_erases_transport_keys(self, ctx):
        owner = ctx[5]
        mp = self._deployed(ctx)
        prov = owner.provision_vm(mp.msr, mp.mac_ti)
        assert prov is not None
        assert owner.phase == PHASE_PROVISIONED
        assert owner._keys is None

    def test_provision_in_init_refused(self, ctx):
        rng, amd, intel, host, sev_plat, owner = ctx
        msr = Measurement(
            sev_plat.plat_sev, sev_plat.launch_sev, b"\x00" * 32, b"\x01" * 16
        )
        assert owner.provision_vm(msr, b"\x00" * 32) is None

    def test_bad_mac_refused(self, ctx):
        owner = ctx[5]
        mp = self._deployed(ctx)
        assert owner.provision_vm(mp.msr, b"\x00" * 32) is None
        assert owner.phase == PHASE_DEPLOYED

    def test_digest_mismatch_refused(self, ctx):
        """A correctly MACed measurement of the wrong code is refused."""
        rng, amd, intel, host, sev_plat, owner = ctx
        other_code = Atom(b"evil image")
        dep = owner.deploy_vm(sev_plat.cert, DESIGNATED_VM_CODE)
        pkg = DeployPackage(
            go_sn_pb=dep.go_sn_pb, blob_d=dep.blob_d, mac_d=dep.mac_d, vmc=other_code
        )
        mp = psp_receive_deploy(sev_plat, pkg, rng)
        assert owner.provision_vm(mp.msr, mp.mac_ti) is None
        assert owner.phase == PHASE_DEPLOYED

    def test_second_provision_refused(self, ctx):
        owner = ctx[5]
        mp = self._deployed(ctx)
        assert owner.provision_vm(mp.msr, mp.mac_ti) is not None
        assert owner.provision_vm(mp.msr, mp.mac_ti) is None


class TestReportGeneration:
    def test_happy_path(self, ctx):
        owner = ctx[5]
        mp, session = drive_to_provisioned(ctx)
        rt = GuestRuntime(session)
        request = rt.request_report(rt.next_report_payload())
        report = owner.generate_report_for_vm(request.vmdata, request.tag)
        assert report is not None
        assert report.enclave_msr == sgx.OWNER_ENCLAVE_MEASUREMENT
        expected = crypto.digest(report_data_preimage(owner._psp_id, mp.msr, request.vmdata))
        assert report.report_data == Atom(expected)

    def test_refused_before_provisioned(self, ctx):
        owner = ctx[5]
        assert owner.generate_report_for_vm(Atom(b"x"), b"\x00" * 32) is None

    def test_bad_tag_refused(self, ctx, recorded):
        owner = ctx[5]
        mp, session = drive_to_provisioned(ctx)
        rt = GuestRuntime(session)
        request = rt.request_report(rt.next_report_payload())
        assert owner.generate_report_for_vm(request.vmdata, b"\x00" * 32) is None
        refusals = [a for a in recorded if a[0] == "owner_generate_report"]
        assert refusals == []

    def test_repeatable(self, ctx):
        owner = ctx[5]
        mp, session = drive_to_provisioned(ctx)
        rt = GuestRuntime(session)
        request = rt.request_report(rt.next_report_payload())
        r1 = owner.generate_report_for_vm(request.vmdata, request.tag)
        r2 = owner.generate_report_for_vm(request.vmdata, request.tag)
        assert (r1.enclave_msr, r1.report_data) == (r2.enclave_msr, r2.report_data)

    def test_action_record_carries_bindings(self, ctx, recorded):
        host, owner = ctx[3], ctx[5]
        mp, session = drive_to_provisioned(ctx)
        rt = GuestRuntime(session)
        request = rt.request_report(rt.next_report_payload())
        owner.generate_report_for_vm(request.vmdata, request.tag)
        name, body = recorded[-1]
        assert name == "owner_generate_report"
        assert body["host_ppid"] == host.ppid
        assert body["msr_dig"] == mp.msr.dig
        assert body["msr_nonce"] == mp.msr.nonce
