"""Abstract SEV (pre-SNP) attestation: PSP, launch measurement, secrets.

An AMD root of trust certifies each platform security processor's key
negotiation key. Guest deployment runs the pre-SNP launch flow: the
deploying party sends its own negotiation element plus transport keys
wrapped under derived keys, the PSP measures the loaded guest code and
returns a MACed measurement, and a secret package released against that
measurement is decrypted into the guest before it starts running.

One guest session per platform at a time; a failed provisioning step
terminates the session.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import crypto
from .codec import (
    TAG_SEV_KEK,
    TAG_SEV_KIK,
    TAG_TRANSPORT_KEYS,
    Atom,
    Label,
    Message,
    Term,
    Tuple,
)
from .crypto import DecryptionFailure, KxKeyPair, Rng, SigKeyPair

NONCE_LEN = 16
PLAT_SEV_LEN = 8


class SessionBusy(RuntimeError):
    """Platform already has a guest session."""


class MacVerificationFailed(RuntimeError):
    """A package MAC did not verify; the session (if any) is gone."""


class NoMeasuredSession(RuntimeError):
    """Secret package arrived with no session awaiting provisioning."""


@dataclass(frozen=True)
class SevPlatformCert(Message):
    """Root-signed PSP key. sig_ar signs Tuple([Atom(psp_sn_pb)]).

    Deliberately binds no platform identity beyond the key itself: the
    key is the only name a PSP has.
    """

    psp_sn_pb: bytes
    sig_ar: bytes

    def payload(self) -> Term:
        return cert_payload(self.psp_sn_pb)


def cert_payload(psp_sn_pb: bytes) -> Term:
    return Tuple([Atom(psp_sn_pb)])


@dataclass
class AmdRot:
    """AMD root of trust: one long-term certification key."""

    ltk: SigKeyPair

    @property
    def public(self) -> bytes:
        return self.ltk.public


def new_amd_rot(rng: Rng) -> AmdRot:
    return AmdRot(ltk=crypto.sig_keygen(rng))


def amd_rot_certify(rot: AmdRot, psp_sn_pb: bytes) -> SevPlatformCert:
    return SevPlatformCert(
        psp_sn_pb=psp_sn_pb,
        sig_ar=crypto.sign(cert_payload(psp_sn_pb), rot.ltk.private),
    )


@dataclass(frozen=True)
class DeployPackage(Message):
    """Everything the deploying party hands the platform.

    go_sn_pb: deployer's negotiation element. blob_d: transport keys
    wrapped under the derived kek. mac_d: MAC of blob_d under the derived
    kik. vmc: guest code, in the clear (pre-SNP offers no memory
    confidentiality anyway).
    """

    go_sn_pb: bytes
    blob_d: bytes
    mac_d: bytes
    vmc: Atom


@dataclass(frozen=True)
class Measurement(Message):
    """Launch measurement: platform state, code digest, fresh nonce."""

    plat_sev: Atom
    launch_sev: Atom
    dig: bytes
    nonce: bytes


@dataclass(frozen=True)
class MeasurementPackage(Message):
    """Measurement plus its MAC under the transport integrity key."""

    msr: Measurement
    mac_ti: bytes


@dataclass(frozen=True)
class SecretPackage(Message):
    """Wrapped guest secret, MAC-bound to the exact measurement.

    mac_p signs Tuple([msr.to_term(), Atom(blob_p)]).
    """

    blob_p: bytes
    mac_p: bytes


@dataclass
class GuestSession:
    """One guest's lifecycle on a platform.

    phase advances measured -> running and never backward; a session that
    fails provisioning is dropped from the platform entirely. running
    implies provisioned_secret is present.
    """

    vmc: Atom
    dig: bytes
    tek: bytes
    tik: bytes
    msr: Measurement
    phase: str = "measured"
    provisioned_secret: Term | None = None

    @property
    def running(self) -> bool:
        return self.phase == "running"


@dataclass
class SevPlatform:
    """One SEV machine: PSP key, firmware state atoms, guest slot."""

    psp_sn: KxKeyPair
    plat_sev: Atom
    launch_sev: Atom
    cert: SevPlatformCert | None = None
    session: GuestSession | None = None


def new_sev_platform(rng: Rng) -> SevPlatform:
    return SevPlatform(
        psp_sn=crypto.kx_keygen(rng),
        plat_sev=Atom(rng.bytes(PLAT_SEV_LEN)),
        launch_sev=Atom(rng.bytes(PLAT_SEV_LEN)),
    )


def psp_receive_deploy(
    platform: SevPlatform, pkg: DeployPackage, rng: Rng
) -> MeasurementPackage:
    """Run guest deployment and launch measurement.

    Derives the wrap keys from the negotiated secret, recovers the
    transport keys from blob_d, checks mac_d, measures the guest code,
    and opens a session in the measured phase. No session is created on
    failure.

    Raises SessionBusy, DecryptionFailure (blob rejected under the
    derived kek, or unexpected plaintext shape), MacVerificationFailed
    (mac_d bad under the derived kik), or InvalidPublicElement (garbage
    negotiation element).
    """
    if platform.session is not None:
        raise SessionBusy("platform already hosts a guest session")
    ss = crypto.shared_secret(pkg.go_sn_pb, platform.psp_sn.private)
    kek = crypto.derive_wrap_key(Label(TAG_SEV_KEK), ss)
    kik = crypto.derive_wrap_key(Label(TAG_SEV_KIK), ss)
    plain = crypto.decrypt(pkg.blob_d, kek)
    if (
        not isinstance(plain, Tuple)
        or len(plain) != 3
        or plain.items[0] != Label(TAG_TRANSPORT_KEYS)
        or not isinstance(plain.items[1], Atom)
        or not isinstance(plain.items[2], Atom)
    ):
        raise DecryptionFailure("transport-keys plaintext has unexpected shape")
    tek = plain.items[1].value
    tik = plain.items[2].value
    if not crypto.verify_mac(Atom(pkg.blob_d), pkg.mac_d, kik):
        raise MacVerificationFailed("deploy package MAC rejected")
    msr = Measurement(
        plat_sev=platform.plat_sev,
        launch_sev=platform.launch_sev,
        dig=crypto.digest(pkg.vmc),
        nonce=rng.bytes(NONCE_LEN),
    )
    platform.session = GuestSession(vmc=pkg.vmc, dig=msr.dig, tek=tek, tik=tik, msr=msr)
    return MeasurementPackage(msr=msr, mac_ti=crypto.mac(msr.to_term(), tik))


def psp_receive_secret(platform: SevPlatform, pkg: SecretPackage) -> GuestSession:
    """Inject the guest secret and start the guest; returns its session.

    The MAC must bind the secret blob to this session's exact
    measurement; the blob must open under this session's transport key.
    Any failure terminates the session (the launch is aborted, the slot
    freed) so a package can never be retried against the same
    measurement.

    Raises NoMeasuredSession (nothing awaiting provisioning, including
    replays after a successful launch), MacVerificationFailed, or
    DecryptionFailure.
    """
    session = platform.session
    if session is None or session.phase != "measured":
        raise NoMeasuredSession("no session awaiting a secret package")
    bound = Tuple([session.msr.to_term(), Atom(pkg.blob_p)])
    if not crypto.verify_mac(bound, pkg.mac_p, session.tik):
        platform.session = None
        raise MacVerificationFailed("secret package MAC rejected")
    try:
        secret = crypto.decrypt(pkg.blob_p, session.tek)
    except DecryptionFailure:
        platform.session = None
        raise
    session.provisioned_secret = secret
    session.phase = "running"
    return session
