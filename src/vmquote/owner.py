"""Trusted guest owner: an enclave that deploys and vouches for one VM.

The owner runs inside an SGX enclave on a host platform. It walks a
strict one-way chain:

    INIT        nothing set
    DEPLOYED    psp_id, vm_dig, tek, tik set        (after deploy_vm)
    PROVISIONED msr, cik set; tek, tik erased       (after provision_vm)

Each operation checks its guards and returns None on any failure, leaving
state untouched; nothing here ever raises for a protocol reason. The
untrusted host only ever sees the returned packages. Successful
operations append an action record to self.actions so the simulator can
trace what the enclave committed to; that channel carries secrets and is
never placed on the simulated network.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import crypto, sgx
from .codec import (
    TAG_REPORT_DATA,
    TAG_SEV_KEK,
    TAG_SEV_KIK,
    TAG_TRANSPORT_KEYS,
    Atom,
    Label,
    Term,
    Tuple,
    encode,
)
from .crypto import InvalidPublicElement, Rng
from .sev import Measurement, SecretPackage, SevPlatformCert
from .sgx import LocalReport, SgxPlatform

PHASE_INIT = "INIT"
PHASE_DEPLOYED = "DEPLOYED"
PHASE_PROVISIONED = "PROVISIONED"


@dataclass(frozen=True)
class DeployResult:
    """Outputs the host combines with the VM code into a deploy package."""

    go_sn_pb: bytes
    blob_d: bytes
    mac_d: bytes


def report_data_preimage(psp_id: bytes, msr: Measurement, vmdata: Term) -> Term:
    """The tuple whose digest becomes SGX report data for a VM report."""
    return Tuple([Label(TAG_REPORT_DATA), Atom(psp_id), msr.to_term(), vmdata])


class TrustedOwner:
    """State machine for one owner enclave instance.

    amd_ltk_pb is baked in at construction (enclave initialization data);
    host_platform is the SGX platform this enclave runs on, used only to
    mint local reports.
    """

    def __init__(self, amd_ltk_pb: bytes, host_platform: SgxPlatform, rng: Rng) -> None:
        self.amd_ltk_pb = amd_ltk_pb
        self._host = host_platform
        self._rng = rng
        self._psp_id: bytes | None = None
        self._vm_dig: bytes | None = None
        self._tek: bytes | None = None
        self._tik: bytes | None = None
        self._msr: Measurement | None = None
        self._cik: bytes | None = None
        self.actions: list = []

    @property
    def phase(self) -> str:
        if self._cik is not None:
            return PHASE_PROVISIONED
        if self._vm_dig is not None:
            return PHASE_DEPLOYED
        return PHASE_INIT

    @property
    def host_ppid(self) -> bytes:
        return self._host.ppid

    def deploy_vm(self, cert: SevPlatformCert, dig: bytes) -> DeployResult | None:
        """Commit to a platform and VM digest; emit deployment secrets.

        Accepts only in INIT and only a certificate that verifies under
        the baked-in AMD root key. On success the owner is DEPLOYED and
        the result carries its negotiation element plus the wrapped
        transport keys. Returns None on any failure, state unchanged.
        """
        if self._vm_dig is not None:
            return None
        if not crypto.verify(cert.payload(), cert.sig_ar, self.amd_ltk_pb):
            return None
        go_sn = crypto.kx_keygen(self._rng)
        try:
            ss = crypto.shared_secret(cert.psp_sn_pb, go_sn.private)
        except InvalidPublicElement:
            return None
        kek = crypto.derive_wrap_key(Label(TAG_SEV_KEK), ss)
        kik = crypto.derive_wrap_key(Label(TAG_SEV_KIK), ss)
        tek = crypto.fresh_key(self._rng)
        tik = crypto.fresh_key(self._rng)
        blob_d = crypto.encrypt(
            Tuple([Label(TAG_TRANSPORT_KEYS), Atom(tek), Atom(tik)]), kek, self._rng
        )
        mac_d = crypto.mac(Atom(blob_d), kik)
        self._psp_id = cert.psp_sn_pb
        self._vm_dig = dig
        self._tek = tek
        self._tik = tik
        self.actions.append(
            (
                "owner_deploy_vm",
                {"psp_id": cert.psp_sn_pb.hex(), "vm_dig": dig.hex()},
            )
        )
        return DeployResult(go_sn_pb=go_sn.public, blob_d=blob_d, mac_d=mac_d)

    def provision_vm(self, msr: Measurement, mac_ti: bytes) -> SecretPackage | None:
        """Release the guest secret against a matching measurement.

        Accepts only in DEPLOYED, only a measurement MACed under this
        deployment's transport integrity key, and only when the measured
        digest equals the digest committed at deploy time. On success the
        owner is PROVISIONED and the transport keys are erased; the
        result is the last package ever built with them. Returns None on
        any failure, state unchanged.
        """
        if self._vm_dig is None or self._cik is not None:
            return None
        if not crypto.verify_mac(msr.to_term(), mac_ti, self._tik):
            return None
        if msr.dig != self._vm_dig:
            return None
        cik = crypto.fresh_key(self._rng)
        blob_p = crypto.encrypt(Atom(cik), self._tek, self._rng)
        mac_p = crypto.mac(Tuple([msr.to_term(), Atom(blob_p)]), self._tik)
        result = SecretPackage(blob_p=blob_p, mac_p=mac_p)
        self._msr = msr
        self._cik = cik
        self._tek = None
        self._tik = None
        self.actions.append(
            (
                "owner_provision_vm",
                {
                    "psp_id": self._psp_id.hex(),
                    "cik": cik.hex(),
                    "vm_dig": self._vm_dig.hex(),
                    "msr_dig": msr.dig.hex(),
                    "msr_nonce": msr.nonce.hex(),
                },
            )
        )
        return result

    def generate_report_for_vm(self, vmdata: Term, tag: bytes) -> LocalReport | None:
        """Mint a local report binding the guest's data to this owner.

        Accepts only in PROVISIONED and only requests MACed under the
        provisioned channel key. The report data is the digest of
        (psp_id, measurement, vmdata), so a later quote speaks for
        exactly this guest on exactly this platform. Repeatable: the same
        request yields an equivalent report again. Returns None on any
        failure.
        """
        if self._cik is None:
            return None
        if not crypto.verify_mac(vmdata, tag, self._cik):
            return None
        rpdata = crypto.digest(report_data_preimage(self._psp_id, self._msr, vmdata))
        report = sgx.ereport(self._host, sgx.OWNER_ENCLAVE_MEASUREMENT, Atom(rpdata))
        self.actions.append(
            (
                "owner_generate_report",
                {
                    "host_ppid": self._host.ppid.hex(),
                    "psp_id": self._psp_id.hex(),
                    "msr_dig": self._msr.dig.hex(),
                    "msr_nonce": self._msr.nonce.hex(),
                    "vmdata": encode(vmdata).hex(),
                    "rpdata": rpdata.hex(),
                },
            )
        )
        return report
