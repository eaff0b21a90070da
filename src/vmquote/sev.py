"""Abstract SEV (pre-SNP) attestation: PSP, launch measurement, secrets.

An AMD root of trust certifies each platform security processor's key
negotiation key. Guest deployment runs the pre-SNP launch flow: the
deploying party sends its own negotiation element plus transport keys
wrapped under derived keys, the PSP measures the loaded guest code and
returns a MACed measurement, and a secret package released against that
measurement is decrypted into the guest before it starts running. The
launch key schedule (wrap_keys, seal_deploy, secret_binding, seal_secret)
is written out here once, for every party that seals or opens a package.

One guest session per platform at a time; a failed provisioning step
terminates the session.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import crypto
from .codec import TAG_TRANSPORT_KEYS, Atom, Message, Term, Tuple
from .crypto import DecryptionFailure, KxKeyPair, Rng, SigKeyPair

NONCE_LEN = 16
PLAT_SEV_LEN = 8


class SessionBusy(RuntimeError):
    """Platform already has a guest session."""


class MacVerificationFailed(RuntimeError):
    """A package MAC did not verify; the session (if any) is gone."""


class NoMeasuredSession(RuntimeError):
    """Secret package arrived with no session awaiting provisioning."""


class SevPlatformCert(Message):
    """Root-signed PSP key. sig_ar signs Tuple([Atom(psp_sn_pb)]).

    Deliberately binds no platform identity beyond the key itself: the
    key is the only name a PSP has.
    """

    psp_sn_pb: bytes
    sig_ar: bytes


def cert_payload(psp_sn_pb: bytes) -> Term:
    return Tuple([Atom(psp_sn_pb)])


def amd_rot_certify(rot: SigKeyPair, psp_sn_pb: bytes) -> SevPlatformCert:
    """Issue a platform certificate for a PSP key under the AMD root's key."""
    return SevPlatformCert(
        psp_sn_pb=psp_sn_pb,
        sig_ar=crypto.sign(cert_payload(psp_sn_pb), rot.private),
    )


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


class TransportKeys(Message):
    """The plaintext blob_d wraps: the guest's transport keys."""

    TAG = TAG_TRANSPORT_KEYS

    tek: bytes
    tik: bytes


class Measurement(Message):
    """Launch measurement: platform state, code digest, fresh nonce."""

    plat_sev: Atom
    launch_sev: Atom
    dig: bytes
    nonce: bytes


class MeasurementPackage(Message):
    """Measurement plus its MAC under the transport integrity key."""

    msr: Measurement
    mac_ti: bytes


class SecretPackage(Message):
    """Wrapped guest secret, MAC-bound to the exact measurement.

    mac_p signs secret_binding(msr, blob_p).
    """

    blob_p: bytes
    mac_p: bytes


@dataclass
class GuestSession:
    """One guest's lifecycle on a platform.

    A session is measured until psp_receive_secret sets
    provisioned_secret, and running from then on; it never goes back. A
    session that fails provisioning is dropped from the platform entirely.
    """

    keys: TransportKeys
    msr: Measurement
    provisioned_secret: Term | None = None

    @property
    def running(self) -> bool:
        return self.provisioned_secret is not None


@dataclass
class SevPlatform:
    """One SEV machine: PSP key, firmware state atoms, issuing root, guest slot.

    psp_sn_seed, plat_sev and launch_sev are drawn when the platform is
    built. The PSP key pair psp_sn, and cert, the root's certificate of
    it, are derived on first read and then kept.
    """

    psp_sn_seed: bytes
    plat_sev: Atom
    launch_sev: Atom
    root: SigKeyPair
    session: GuestSession | None = None

    @cached_property
    def psp_sn(self) -> KxKeyPair:
        return KxKeyPair(private=self.psp_sn_seed, public=crypto.kx_public(self.psp_sn_seed))

    @cached_property
    def cert(self) -> SevPlatformCert:
        return amd_rot_certify(self.root, self.psp_sn.public)


def new_sev_platform(rng: Rng, root: SigKeyPair) -> SevPlatform:
    """Fresh platform with random keys and state, certified by root."""
    return SevPlatform(
        psp_sn_seed=rng.bytes(crypto.KEY_LEN),
        plat_sev=Atom(rng.bytes(PLAT_SEV_LEN)),
        launch_sev=Atom(rng.bytes(PLAT_SEV_LEN)),
        root=root,
    )


def wrap_keys(ss: bytes) -> tuple[bytes, bytes]:
    """The wrap keys (kek, kik) of a negotiated secret.

    The one place the launch key schedule derives: the owner, the PSP,
    the adversary's own deploy and the adversary-knowledge closure all
    derive through it, always from an X25519 output just computed.
    """
    kek_label, kik_label = crypto.WRAP_KEY_LABELS
    return crypto.derive_wrap_key(kek_label, ss), crypto.derive_wrap_key(kik_label, ss)


def seal_deploy(
    ss: bytes, go_sn_pb: bytes, keys: TransportKeys, vmc: Atom, rng: Rng
) -> DeployPackage:
    """The deploy package: keys wrapped under kek, the wrap MACed under kik."""
    kek, kik = wrap_keys(ss)
    blob_d = crypto.encrypt(keys.to_term(), kek, rng)
    return DeployPackage(
        go_sn_pb=go_sn_pb, blob_d=blob_d, mac_d=crypto.mac(Atom(blob_d), kik), vmc=vmc
    )


def secret_binding(msr: Measurement, blob_p: bytes) -> Term:
    """What mac_p signs: the secret blob bound to one exact measurement."""
    return Tuple([msr.to_term(), Atom(blob_p)])


def seal_secret(msr: Measurement, secret: Term, keys: TransportKeys, rng: Rng) -> SecretPackage:
    """The secret package: secret sealed under tek, bound to msr under tik."""
    blob_p = crypto.encrypt(secret, keys.tek, rng)
    return SecretPackage(blob_p=blob_p, mac_p=crypto.mac(secret_binding(msr, blob_p), keys.tik))


def psp_receive_deploy(
    platform: SevPlatform, pkg: DeployPackage, rng: Rng
) -> MeasurementPackage:
    """Run guest deployment and launch measurement.

    Derives the wrap keys from the negotiated secret, recovers the
    transport keys from blob_d, checks mac_d, measures the guest code,
    and opens a measured session. No session is created on failure.

    Raises SessionBusy, DecryptionFailure (blob rejected under the
    derived kek, or unexpected plaintext shape), MacVerificationFailed
    (mac_d bad under the derived kik), or InvalidPublicElement (garbage
    negotiation element).
    """
    if platform.session is not None:
        raise SessionBusy("platform already hosts a guest session")
    kek, kik = wrap_keys(crypto.shared_secret(pkg.go_sn_pb, platform.psp_sn.private))
    plain = crypto.decrypt(pkg.blob_d, kek)
    try:
        keys = TransportKeys.from_term(plain)
    except ValueError:
        raise DecryptionFailure("transport-keys plaintext has unexpected shape") from None
    if not crypto.verify_mac(Atom(pkg.blob_d), pkg.mac_d, kik):
        raise MacVerificationFailed("deploy package MAC rejected")
    msr = Measurement(
        plat_sev=platform.plat_sev,
        launch_sev=platform.launch_sev,
        dig=crypto.digest(pkg.vmc),
        nonce=rng.bytes(NONCE_LEN),
    )
    platform.session = GuestSession(keys=keys, msr=msr)
    return MeasurementPackage(msr=msr, mac_ti=crypto.mac(msr.to_term(), keys.tik))


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
    if session is None or session.running:
        raise NoMeasuredSession("no session awaiting a secret package")
    if not crypto.verify_mac(secret_binding(session.msr, pkg.blob_p), pkg.mac_p, session.keys.tik):
        platform.session = None
        raise MacVerificationFailed("secret package MAC rejected")
    try:
        secret = crypto.decrypt(pkg.blob_p, session.keys.tek)
    except DecryptionFailure:
        platform.session = None
        raise
    session.provisioned_secret = secret
    return session
