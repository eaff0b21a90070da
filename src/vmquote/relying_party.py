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

from .codec import Atom, Term, Tuple, from_hex, to_hex
from .owner import report_data_preimage
from .sev import Measurement
from .sgx import Quote, SgxPlatformCert, quote_check_failure
from . import crypto

REASON_CERT_SIG = "cert-sig"
REASON_QUOTE_SIG = "quote-sig"
REASON_MSR_MISMATCH = "msr-mismatch"
REASON_DATA_MISMATCH = "data-mismatch"
REASON_MALFORMED = "malformed"


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
class EvidenceBundle:
    """The five pieces of evidence a verdict judges.

    Term form: Tuple([quote, sgx_cert, Atom(pspid), vmmsr, vmdata]).
    JSON form: the same five fields, each the hex of its canonical term
    encoding except pspid, which is the raw key in hex. Both round-trip
    losslessly, and the JSON form is parsed through the term form.
    """

    quote: Quote
    sgx_cert: SgxPlatformCert
    pspid: bytes
    vmmsr: Measurement
    vmdata: Term

    def to_term(self) -> Term:
        return Tuple(
            [
                self.quote.to_term(),
                self.sgx_cert.to_term(),
                Atom(self.pspid),
                self.vmmsr.to_term(),
                self.vmdata,
            ]
        )

    @staticmethod
    def from_term(term: Term) -> "EvidenceBundle":
        if not isinstance(term, Tuple) or len(term) != 5 or not isinstance(term.items[2], Atom):
            raise ValueError("not an evidence bundle term")
        return EvidenceBundle(
            quote=Quote.from_term(term.items[0]),
            sgx_cert=SgxPlatformCert.from_term(term.items[1]),
            pspid=term.items[2].value,
            vmmsr=Measurement.from_term(term.items[3]),
            vmdata=term.items[4],
        )

    def to_json_obj(self) -> dict:
        return {
            "quote": to_hex(self.quote.to_term()),
            "sgx_cert": to_hex(self.sgx_cert.to_term()),
            "pspid": self.pspid.hex(),
            "vmmsr": to_hex(self.vmmsr.to_term()),
            "vmdata": to_hex(self.vmdata),
        }

    @staticmethod
    def from_json_obj(obj: dict) -> "EvidenceBundle":
        return EvidenceBundle.from_term(
            Tuple(
                [
                    from_hex(obj["quote"]),
                    from_hex(obj["sgx_cert"]),
                    Atom(bytes.fromhex(obj["pspid"])),
                    from_hex(obj["vmmsr"]),
                    from_hex(obj["vmdata"]),
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
