"""Relying party: decide whether a quote truly speaks for a guest VM.

The verifier is offline and stateless: everything it needs arrives as
explicit inputs (no hidden key lookups). It recomputes the expected
report data from the public evidence and accepts exactly when the quote
chain verifies against the pinned owner-enclave measurement and that
recomputed data.

The evidence arrives as an EvidenceBundle, in its term form on the
simulated network and in its JSON form in bundle files.
"""

from __future__ import annotations

from dataclasses import dataclass

from .codec import Atom, Message, Term, Tuple, from_hex, to_hex
from .owner import report_data_preimage
from .sev import Measurement
from .sgx import (  # the REASON_* names are re-exported for callers
    REASON_CERT_SIG,
    REASON_DATA_MISMATCH,
    REASON_MALFORMED,
    REASON_MSR_MISMATCH,
    REASON_QUOTE_SIG,
    Quote,
    SgxPlatformCert,
    quote_check_failure,
)
from . import crypto


@dataclass(frozen=True)
class VerificationInput:
    """Everything a verdict depends on.

    quote/sgx_cert/pspid/vmmsr/vmdata are the evidence bundle; intel_pk
    and expected_to_msr are the verifier's own trust anchors.
    """

    quote: Quote
    sgx_cert: SgxPlatformCert
    intel_pk: bytes
    expected_to_msr: Term
    pspid: bytes
    vmmsr: Measurement
    vmdata: Term


@dataclass(frozen=True)
class EvidenceBundle(Message):
    """The five pieces of evidence a verdict judges.

    Term form: Tuple([quote, sgx_cert, Atom(pspid), vmmsr, vmdata]), by
    the Message layout. JSON form: the same five fields, pspid as its raw
    bytes in hex and every other field as the hex of its canonical term
    encoding. Both round-trip losslessly, and the JSON form is parsed
    through the term form.
    """

    quote: Quote
    sgx_cert: SgxPlatformCert
    pspid: bytes
    vmmsr: Measurement
    vmdata: Term

    def to_json_obj(self) -> dict:
        return {
            name: item.value.hex() if kind is bytes else to_hex(item)
            for (name, kind), item in zip(self._layout, self.to_term().items)
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "EvidenceBundle":
        return cls.from_term(
            Tuple(
                [
                    Atom(bytes.fromhex(obj[name])) if kind is bytes else from_hex(obj[name])
                    for name, kind in cls._layout
                ]
            )
        )

    def verification_input(self, intel_pk: bytes, expected_to_msr: Term) -> VerificationInput:
        """This evidence judged against the verifier's two trust anchors."""
        return VerificationInput(
            quote=self.quote,
            sgx_cert=self.sgx_cert,
            intel_pk=intel_pk,
            expected_to_msr=expected_to_msr,
            pspid=self.pspid,
            vmmsr=self.vmmsr,
            vmdata=self.vmdata,
        )


@dataclass(frozen=True)
class Verdict:
    accept: bool
    reason: str | None = None


def rp_verify_vm_quote(vin: VerificationInput) -> Verdict:
    """Accept iff the quote binds (pspid, vmmsr, vmdata) to the owner.

    Rejections carry the first failing check: cert-sig, quote-sig,
    msr-mismatch, data-mismatch, or malformed for inputs that do not
    even reach the checks.
    """
    try:
        expected_data = Atom(
            crypto.digest(report_data_preimage(vin.pspid, vin.vmmsr, vin.vmdata))
        )
        failure = quote_check_failure(
            vin.expected_to_msr, expected_data, vin.quote, vin.sgx_cert, vin.intel_pk
        )
    except Exception:
        return Verdict(accept=False, reason=REASON_MALFORMED)
    if failure is None:
        return Verdict(accept=True)
    return Verdict(accept=False, reason=failure)
