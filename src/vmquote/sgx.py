"""Abstract SGX attestation: platforms, local reports, quotes.

The model keeps exactly the security-relevant structure: an Intel root of
trust certifies per-platform quoting keys, enclaves on a platform obtain
local reports over (measurement, report data), and the platform's quoting
enclave turns local reports into remotely verifiable quotes. Standing in
for the hardware report-key MAC, each platform keeps the reports it
issued and its quoting enclave quotes no other, however little differs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from . import crypto
from .codec import (
    TAG_OWNER_ENCLAVE_MEASUREMENT,
    TAG_SGX_PLATFORM_CERT,
    TAG_SGX_QUOTE,
    Atom,
    Label,
    Message,
    Term,
    Tuple,
)
from .crypto import Rng, SigKeyPair

PPID_LEN = 16
PLAT_INFO_LEN = 8

#: Measurement of the trusted-owner enclave. The relying party pins this
#: value, and the simulator refuses to hand the adversary quotes for it.
OWNER_ENCLAVE_MEASUREMENT = Label(TAG_OWNER_ENCLAVE_MEASUREMENT)

#: Reasons quote_check_failure gives for a rejected quote chain.
REASON_CERT_SIG = "cert-sig"
REASON_QUOTE_SIG = "quote-sig"
REASON_MSR_MISMATCH = "msr-mismatch"
REASON_DATA_MISMATCH = "data-mismatch"


class EnclaveNotLoaded(RuntimeError):
    """ereport requested for a measurement not loaded on this platform."""


class ForeignReport(RuntimeError):
    """Quote requested for a report this platform never issued."""


class SgxPlatformCert(Message):
    """Root-signed binding of a quoting key to a platform identity.

    sig_ir signs Tuple([Label(tag), Atom(qek_pb), Atom(ppid)]).
    """

    TAG = TAG_SGX_PLATFORM_CERT

    qek_pb: bytes
    ppid: bytes
    sig_ir: bytes


def cert_payload(qek_pb: bytes, ppid: bytes) -> Term:
    return Tuple([Label(TAG_SGX_PLATFORM_CERT), Atom(qek_pb), Atom(ppid)])


def intel_rot_certify(rot: SigKeyPair, qek_pb: bytes, ppid: bytes) -> SgxPlatformCert:
    """Issue a platform certificate for a quoting key under the Intel root's key."""
    sig = crypto.sign(cert_payload(qek_pb, ppid), rot.private)
    return SgxPlatformCert(qek_pb=qek_pb, ppid=ppid, sig_ir=sig)


@dataclass(frozen=True)
class LocalReport:
    """Platform-local attestation of an enclave.

    Only platforms mint these (through ereport); the minting platform
    keeps every one it issued, and its quoting enclave quotes no other.
    """

    enclave_msr: Term
    report_data: Term


class Quote(Message):
    """Remotely verifiable quote signed by the platform's quoting key.

    sig signs Tuple([Label(tag), msr, plat, data]).
    """

    TAG = TAG_SGX_QUOTE

    msr: Term
    plat: Atom
    data: Term
    sig: bytes


def quote_payload(msr: Term, plat: Atom, data: Term) -> Term:
    return Tuple([Label(TAG_SGX_QUOTE), msr, plat, data])


@dataclass
class SgxPlatform:
    """One SGX machine: identity, quoting key, issuing root, loaded enclaves.

    ppid, qek_seed and plat_info are drawn when the platform is built.
    The quoting key pair qek, and cert, the root's certificate of it,
    are derived on first read and then kept. _issued holds every
    LocalReport this platform minted.
    """

    ppid: bytes
    qek_seed: bytes
    plat_info: Atom
    root: SigKeyPair
    _loaded: set = field(default_factory=set)
    _issued: set = field(default_factory=set)

    @cached_property
    def qek(self) -> SigKeyPair:
        return SigKeyPair(private=self.qek_seed, public=crypto.sig_public(self.qek_seed))

    @cached_property
    def cert(self) -> SgxPlatformCert:
        return intel_rot_certify(self.root, self.qek.public, self.ppid)


def new_sgx_platform(rng: Rng, root: SigKeyPair) -> SgxPlatform:
    """Fresh platform with random identity, certified by root."""
    return SgxPlatform(
        ppid=rng.bytes(PPID_LEN),
        qek_seed=rng.bytes(crypto.KEY_LEN),
        plat_info=Atom(rng.bytes(PLAT_INFO_LEN)),
        root=root,
    )


def load_enclave(platform: SgxPlatform, enclave_msr: Term) -> None:
    """Register enclave code as runnable on this platform."""
    platform._loaded.add(enclave_msr)


def ereport(platform: SgxPlatform, enclave_msr: Term, data: Term) -> LocalReport:
    """Mint a local report for a loaded enclave.

    Raises EnclaveNotLoaded otherwise. Repeated calls with equal inputs
    yield equal reports.
    """
    if enclave_msr not in platform._loaded:
        raise EnclaveNotLoaded(f"enclave not loaded on platform {platform.ppid.hex()}")
    report = LocalReport(enclave_msr=enclave_msr, report_data=data)
    platform._issued.add(report)
    return report


def qe_generate_quote(platform: SgxPlatform, report: LocalReport) -> Quote:
    """Turn a local report this platform issued into a quote.

    Raises ForeignReport for any other report: one minted elsewhere with
    content this platform never issued, an issued report with a field
    altered, or one never minted at all.
    """
    if report not in platform._issued:
        raise ForeignReport("report was not issued by this platform")
    payload = quote_payload(report.enclave_msr, platform.plat_info, report.report_data)
    return Quote(
        msr=report.enclave_msr,
        plat=platform.plat_info,
        data=report.report_data,
        sig=crypto.sign(payload, platform.qek.private),
    )


def quote_check_failure(
    msr_exp: Term,
    data_exp: Term,
    quote: Quote,
    cert: SgxPlatformCert,
    intel_pk: bytes,
) -> str | None:
    """First failing verification check, or None when all pass.

    Checks in order: certificate signature under the Intel root key,
    quote signature under the certified quoting key, then structural
    equality of measurement and report data against the expected values.
    Inputs of the wrong shape raise; rp_verify_vm_quote turns that into
    its malformed verdict.
    """
    if not crypto.verify(cert_payload(cert.qek_pb, cert.ppid), cert.sig_ir, intel_pk):
        return REASON_CERT_SIG
    if not crypto.verify(quote_payload(quote.msr, quote.plat, quote.data), quote.sig, cert.qek_pb):
        return REASON_QUOTE_SIG
    if quote.msr != msr_exp:
        return REASON_MSR_MISMATCH
    if quote.data != data_exp:
        return REASON_DATA_MISMATCH
    return None
