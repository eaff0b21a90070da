"""Abstract SGX attestation: platforms, local reports, quotes.

The model keeps exactly the security-relevant structure: an Intel root of
trust certifies per-platform quoting keys, enclaves on a platform obtain
local reports over (measurement, report data), and the platform's quoting
enclave turns local reports into remotely verifiable quotes. Report
provenance (a local report is only usable on the platform that minted it)
is enforced by a per-platform registry standing in for the hardware
report-key check.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
REASON_MALFORMED = "malformed"


class EnclaveNotLoaded(RuntimeError):
    """ereport requested for a measurement not loaded on this platform."""


class ForeignReport(RuntimeError):
    """Quote requested for a report this platform never issued."""


@dataclass(frozen=True)
class SgxPlatformCert(Message):
    """Root-signed binding of a quoting key to a platform identity.

    sig_ir signs Tuple([Label(tag), Atom(qek_pb), Atom(ppid)]).
    """

    TAG = TAG_SGX_PLATFORM_CERT

    qek_pb: bytes
    ppid: bytes
    sig_ir: bytes

    def payload(self) -> Term:
        return cert_payload(self.qek_pb, self.ppid)


def cert_payload(qek_pb: bytes, ppid: bytes) -> Term:
    return Tuple([Label(TAG_SGX_PLATFORM_CERT), Atom(qek_pb), Atom(ppid)])


@dataclass
class IntelRot:
    """Intel root of trust: one long-term certification key."""

    ltk: SigKeyPair

    @property
    def public(self) -> bytes:
        return self.ltk.public


def new_intel_rot(rng: Rng) -> IntelRot:
    return IntelRot(ltk=crypto.sig_keygen(rng))


def intel_rot_certify(rot: IntelRot, qek_pb: bytes, ppid: bytes) -> SgxPlatformCert:
    """Issue a platform certificate for a quoting key."""
    sig = crypto.sign(cert_payload(qek_pb, ppid), rot.ltk.private)
    return SgxPlatformCert(qek_pb=qek_pb, ppid=ppid, sig_ir=sig)


@dataclass(frozen=True)
class LocalReport:
    """Platform-local attestation of an enclave.

    Only platforms mint these (through ereport); serial plus platform_ppid
    let the quoting enclave reject reports from elsewhere.
    """

    enclave_msr: Term
    report_data: Term
    platform_ppid: bytes
    serial: int


@dataclass(frozen=True)
class Quote(Message):
    """Remotely verifiable quote signed by the platform's quoting key.

    sig signs Tuple([Label(tag), msr, plat, data]).
    """

    TAG = TAG_SGX_QUOTE

    msr: Term
    plat: Atom
    data: Term
    sig: bytes

    def payload(self) -> Term:
        return quote_payload(self.msr, self.plat, self.data)


def quote_payload(msr: Term, plat: Atom, data: Term) -> Term:
    return Tuple([Label(TAG_SGX_QUOTE), msr, plat, data])


@dataclass
class SgxPlatform:
    """One SGX machine: identity, quoting key, loaded enclaves."""

    ppid: bytes
    qek: SigKeyPair
    plat_info: Atom
    cert: SgxPlatformCert | None = None
    _loaded: set = field(default_factory=set)
    _issued: set = field(default_factory=set)
    _next_serial: int = 0


def new_sgx_platform(rng: Rng) -> SgxPlatform:
    """Fresh platform with random identity; certify separately."""
    return SgxPlatform(
        ppid=rng.bytes(PPID_LEN),
        qek=crypto.sig_keygen(rng),
        plat_info=Atom(rng.bytes(PLAT_INFO_LEN)),
    )


def load_enclave(platform: SgxPlatform, enclave_msr: Term) -> None:
    """Register enclave code as runnable on this platform."""
    platform._loaded.add(enclave_msr)


def ereport(platform: SgxPlatform, enclave_msr: Term, data: Term) -> LocalReport:
    """Mint a local report for a loaded enclave.

    Raises EnclaveNotLoaded otherwise. Repeated calls with equal inputs
    yield reports equal on (enclave_msr, report_data); serials differ.
    """
    if enclave_msr not in platform._loaded:
        raise EnclaveNotLoaded(f"enclave not loaded on platform {platform.ppid.hex()}")
    serial = platform._next_serial
    platform._next_serial += 1
    platform._issued.add(serial)
    return LocalReport(
        enclave_msr=enclave_msr,
        report_data=data,
        platform_ppid=platform.ppid,
        serial=serial,
    )


def qe_generate_quote(platform: SgxPlatform, report: LocalReport) -> Quote:
    """Turn a local report from this same platform into a quote.

    Raises ForeignReport when the report was minted elsewhere (or not
    minted at all).
    """
    if report.platform_ppid != platform.ppid or report.serial not in platform._issued:
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
    """
    try:
        if not crypto.verify(cert.payload(), cert.sig_ir, intel_pk):
            return REASON_CERT_SIG
        if not crypto.verify(quote.payload(), quote.sig, cert.qek_pb):
            return REASON_QUOTE_SIG
        if quote.msr != msr_exp:
            return REASON_MSR_MISMATCH
        if quote.data != data_exp:
            return REASON_DATA_MISMATCH
        return None
    except Exception:
        return REASON_MALFORMED


def verify_quote(
    msr_exp: Term,
    data_exp: Term,
    quote: Quote,
    cert: SgxPlatformCert,
    intel_pk: bytes,
) -> bool:
    """True iff every check passes. Never raises."""
    return quote_check_failure(msr_exp, data_exp, quote, cert, intel_pk) is None
