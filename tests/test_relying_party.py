"""Offline quote verification from a relying party's point of view."""

import pytest

from vmquote import crypto, sgx
from vmquote.codec import Atom, Label, Tuple
from vmquote.crypto import Rng
from vmquote.guest import DESIGNATED_VM_CODE
from vmquote.owner import TrustedOwner, report_data_preimage
from vmquote.relying_party import (
    REASON_CERT_SIG,
    REASON_DATA_MISMATCH,
    REASON_MALFORMED,
    REASON_MSR_MISMATCH,
    REASON_QUOTE_SIG,
    VerificationInput,
    Verdict,
    rp_verify_vm_quote,
)
from vmquote.sev import (
    SecretPackage,
    new_sev_platform,
    psp_receive_deploy,
    psp_receive_secret,
)
from vmquote.guest import GuestRuntime


@pytest.fixture
def evidence():
    """Full honest run, returning the bundle a relying party would see."""
    rng = Rng(81)
    amd = crypto.sig_keygen(rng)
    intel = crypto.sig_keygen(rng)
    host = sgx.new_sgx_platform(rng, intel)
    sgx.load_enclave(host, sgx.OWNER_ENCLAVE_MEASUREMENT)
    sev_plat = new_sev_platform(rng, amd)
    owner = TrustedOwner(amd.public, host, rng, lambda label, **payload: None)

    pkg = owner.deploy_vm(sev_plat.cert, DESIGNATED_VM_CODE)
    mp = psp_receive_deploy(sev_plat, pkg, rng)
    prov = owner.provision_vm(mp.msr, mp.mac_ti)
    session = psp_receive_secret(sev_plat, SecretPackage(blob_p=prov.blob_p, mac_p=prov.mac_p))
    rt = GuestRuntime(session)
    request = rt.request_report(rt.next_report_payload())
    report = owner.generate_report_for_vm(request.vmdata, request.tag)
    quote = sgx.qe_generate_quote(host, report)

    return VerificationInput(
        quote=quote,
        sgx_cert=host.cert,
        intel_pk=intel.public,
        expected_to_msr=sgx.OWNER_ENCLAVE_MEASUREMENT,
        pspid=sev_plat.psp_sn.public,
        vmmsr=mp.msr,
        vmdata=request.vmdata,
    )


def test_honest_evidence_accepted(evidence):
    assert rp_verify_vm_quote(evidence) == Verdict()


def test_wrong_pspid_rejected(evidence):
    """Same quote claimed for a different platform changes the digest."""
    from dataclasses import replace

    vin = replace(evidence, pspid=b"\x09" * 32)
    verdict = rp_verify_vm_quote(vin)
    assert not verdict.accept
    assert verdict.reason == REASON_DATA_MISMATCH


def test_wrong_vmdata_rejected(evidence):
    from dataclasses import replace

    other = Tuple([Label("burrito_report"), Atom((2).to_bytes(8, "big"))])
    verdict = rp_verify_vm_quote(replace(evidence, vmdata=other))
    assert verdict == Verdict(reason=REASON_DATA_MISMATCH)


def test_wrong_measurement_nonce_rejected(evidence):
    from dataclasses import replace

    from vmquote.sev import Measurement

    m = evidence.vmmsr
    other = Measurement(m.plat_sev, m.launch_sev, m.dig, b"\x00" * 16)
    verdict = rp_verify_vm_quote(replace(evidence, vmmsr=other))
    assert verdict.reason == REASON_DATA_MISMATCH


def test_unpinned_enclave_rejected(evidence):
    from dataclasses import replace

    verdict = rp_verify_vm_quote(replace(evidence, expected_to_msr=Label("other_enclave")))
    assert verdict.reason == REASON_MSR_MISMATCH


def test_wrong_intel_anchor_rejected(evidence):
    from dataclasses import replace

    rogue = crypto.sig_keygen(Rng(82))
    verdict = rp_verify_vm_quote(replace(evidence, intel_pk=rogue.public))
    assert verdict.reason == REASON_CERT_SIG


def test_tampered_quote_sig_rejected(evidence):
    from dataclasses import replace

    q = evidence.quote
    bad = sgx.Quote(msr=q.msr, plat=q.plat, data=q.data, sig=bytes(64))
    verdict = rp_verify_vm_quote(replace(evidence, quote=bad))
    assert verdict.reason == REASON_QUOTE_SIG


def test_reason_order_cert_first(evidence):
    """With both the cert anchor and the quote broken, cert-sig wins."""
    from dataclasses import replace

    q = evidence.quote
    bad = sgx.Quote(msr=q.msr, plat=q.plat, data=q.data, sig=bytes(64))
    rogue = crypto.sig_keygen(Rng(83))
    verdict = rp_verify_vm_quote(replace(evidence, quote=bad, intel_pk=rogue.public))
    assert verdict.reason == REASON_CERT_SIG


def test_garbage_input_malformed(evidence):
    from dataclasses import replace

    verdict = rp_verify_vm_quote(replace(evidence, pspid="not even bytes"))
    assert verdict == Verdict(reason=REASON_MALFORMED)


def test_acceptance_recomputes_report_data(evidence):
    expected = Atom(
        crypto.digest(
            report_data_preimage(evidence.pspid, evidence.vmmsr, evidence.vmdata)
        )
    )
    assert evidence.quote.data == expected
