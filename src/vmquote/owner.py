"""Trusted guest owner: an enclave that deploys and vouches for one VM.

The owner runs inside an SGX enclave on a host platform. It walks a
strict one-way chain:

    INIT        nothing set
    DEPLOYED    psp_id, vm_dig, keys set            (after deploy_vm)
    PROVISIONED msr, cik set; keys erased           (after provision_vm)

Each operation checks its guards and returns None on any failure, leaving
state untouched; nothing here ever raises for a protocol reason. The
untrusted host only ever sees the returned packages. Each successful
operation reports what the enclave committed to, as raw values, through
the record callable it was built with (record(label, **payload)); the
simulator's recorder writes it to the trace. That channel carries
secrets and is never placed on the simulated network.
"""

from __future__ import annotations

from collections.abc import Callable

from . import crypto, sev, sgx
from .codec import TAG_REPORT_DATA, Atom, Label, Term, Tuple
from .crypto import InvalidPublicElement, Rng
from .sev import DeployPackage, Measurement, SecretPackage, SevPlatformCert, TransportKeys
from .sgx import LocalReport, SgxPlatform

PHASE_INIT = "INIT"
PHASE_DEPLOYED = "DEPLOYED"
PHASE_PROVISIONED = "PROVISIONED"


def report_data_preimage(psp_id: bytes, msr: Measurement, vmdata: Term) -> Term:
    """The tuple whose digest becomes SGX report data for a VM report."""
    return Tuple([Label(TAG_REPORT_DATA), Atom(psp_id), msr.to_term(), vmdata])


class TrustedOwner:
    """State machine for one owner enclave instance.

    amd_ltk_pb is baked in at construction (enclave initialization data);
    host_platform is the SGX platform this enclave runs on, used only to
    mint local reports; record receives each commitment.
    """

    def __init__(
        self,
        amd_ltk_pb: bytes,
        host_platform: SgxPlatform,
        rng: Rng,
        record: Callable[..., None],
    ) -> None:
        self.amd_ltk_pb = amd_ltk_pb
        self._host = host_platform
        self._rng = rng
        self._record = record
        self._psp_id: bytes | None = None
        self._vm_dig: bytes | None = None
        self._keys: TransportKeys | None = None
        self._msr: Measurement | None = None
        self._cik: bytes | None = None

    @property
    def phase(self) -> str:
        if self._cik is not None:
            return PHASE_PROVISIONED
        if self._vm_dig is not None:
            return PHASE_DEPLOYED
        return PHASE_INIT

    def deploy_vm(self, cert: SevPlatformCert, vmc: Atom) -> DeployPackage | None:
        """Commit to a platform and the digest of the VM code vmc.

        Accepts only in INIT and only a certificate that verifies under
        the baked-in AMD root key. On success the owner is DEPLOYED and
        the result is the deploy package for vmc: its negotiation element
        plus the wrapped transport keys. Returns None on any failure,
        state unchanged.
        """
        if self._vm_dig is not None:
            return None
        if not crypto.verify(sev.cert_payload(cert.psp_sn_pb), cert.sig_ar, self.amd_ltk_pb):
            return None
        go_sn = crypto.kx_keygen(self._rng)
        try:
            ss = crypto.shared_secret(cert.psp_sn_pb, go_sn.private)
        except InvalidPublicElement:
            return None
        keys = TransportKeys(tek=crypto.fresh_key(self._rng), tik=crypto.fresh_key(self._rng))
        pkg = sev.seal_deploy(ss, go_sn.public, keys, vmc, self._rng)
        self._psp_id = cert.psp_sn_pb
        self._vm_dig = crypto.digest(vmc)
        self._keys = keys
        self._record("owner_deploy_vm", psp_id=cert.psp_sn_pb, vm_dig=self._vm_dig)
        return pkg

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
        if not crypto.verify_mac(msr.to_term(), mac_ti, self._keys.tik):
            return None
        if msr.dig != self._vm_dig:
            return None
        cik = crypto.fresh_key(self._rng)
        result = sev.seal_secret(msr, Atom(cik), self._keys, self._rng)
        self._msr = msr
        self._cik = cik
        self._keys = None
        self._record(
            "owner_provision_vm",
            psp_id=self._psp_id,
            cik=cik,
            vm_dig=self._vm_dig,
            msr_dig=msr.dig,
            msr_nonce=msr.nonce,
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
        self._record(
            "owner_generate_report",
            host_ppid=self._host.ppid,
            psp_id=self._psp_id,
            msr_dig=self._msr.dig,
            msr_nonce=self._msr.nonce,
            vmdata=vmdata,
            rpdata=rpdata,
        )
        return report
