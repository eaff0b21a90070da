"""Scripted runs: one honest baseline, tampering, and compromise attacks.

Every scenario is a deterministic function of the seed. The negative
scenarios each break one message or guard and must end with the honest
parties refusing (no accepted verdict); the compromise scenarios mount
the four attacks the escape clauses exist for, pre- and post-run, so the
checkers can be watched excusing exactly those and nothing else.

Scenario functions return an info dict for tests to poke at; use
run_scenario for just the trace.
"""

from __future__ import annotations

from .. import crypto, sgx
from ..codec import Atom, Tuple
from ..guest import DESIGNATED_VM_CODE
from ..owner import TrustedOwner, report_data_preimage
from ..relying_party import EvidenceBundle
from ..sev import Measurement, MeasurementPackage, SevPlatformCert
from ..sev import cert_payload as sev_cert_payload
from ..sgx import OWNER_ENCLAVE_MEASUREMENT, quote_payload
from .events import KIND_TRANSITION, KIND_VERDICT, Trace
from .properties import check_all
from .world import Pipeline, World


class UnknownScenario(ValueError):
    """Scenario name not in SCENARIOS."""


def _flip_atom(term: Tuple, index: int, byte_index: int = 0) -> Tuple:
    """Copy of a tuple term with one byte of one atom item flipped."""
    items = list(term.items)
    atom = items[index]
    assert isinstance(atom, Atom) and len(atom.value) > byte_index
    value = bytearray(atom.value)
    value[byte_index] ^= 0x01
    items[index] = Atom(bytes(value))
    return Tuple(items)


def _advance_to_slot(pipe: Pipeline, slot: str) -> None:
    while pipe.in_flight_slot != slot:
        assert pipe.advance(), f"pipeline halted before reaching slot {slot!r}"


def scenario_honest(world: World) -> dict:
    pipe = Pipeline(world)
    pipe.run_all()
    return {"pipe": pipe, "verdict": pipe.verdict}


def scenario_tamper_deploy_blob(world: World) -> dict:
    pipe = Pipeline(world)
    _advance_to_slot(pipe, "deploy")
    world.adversary_tamper(pipe, _flip_atom(pipe.in_flight, 1))
    pipe.run_all()
    return {"pipe": pipe, "verdict": pipe.verdict}


def scenario_tamper_measurement(world: World) -> dict:
    pipe = Pipeline(world)
    _advance_to_slot(pipe, "measurement")
    msr_term, mac_atom = pipe.in_flight.items
    world.adversary_tamper(pipe, Tuple([_flip_atom(msr_term, 3), mac_atom]))
    pipe.run_all()
    return {"pipe": pipe, "verdict": pipe.verdict}


def scenario_tamper_secret_package(world: World) -> dict:
    pipe = Pipeline(world)
    _advance_to_slot(pipe, "secret")
    world.adversary_tamper(pipe, _flip_atom(pipe.in_flight, 0))
    pipe.run_all()
    return {"pipe": pipe, "verdict": pipe.verdict}


def scenario_replay_secret_package(world: World) -> dict:
    pipe = Pipeline(world)
    _advance_to_slot(pipe, "secret")
    replayed = pipe.in_flight
    pipe.run_all()
    world.deliver("sev_secret:0", replayed)
    return {"pipe": pipe, "verdict": pipe.verdict, "replayed": replayed}


def scenario_wrong_vm_code(world: World) -> dict:
    pipe = Pipeline(world)
    _advance_to_slot(pipe, "deploy")
    items = list(pipe.in_flight.items)
    items[3] = Atom(b"evil code")
    world.adversary_tamper(pipe, Tuple(items))
    pipe.run_all()
    return {"pipe": pipe, "verdict": pipe.verdict}


def scenario_forge_report_request(world: World) -> dict:
    pipe = Pipeline(world)
    for _ in range(4):
        pipe.advance()
    assert pipe.guest is not None
    vmdata = Atom(world.adversary_fresh(24))
    tag = world.adversary_fresh(32)
    world.deliver("owner_report", Tuple([vmdata, Atom(tag)]))
    return {"pipe": pipe, "verdict": pipe.verdict}


def scenario_cross_platform_cert_swap(world: World) -> dict:
    pipe = Pipeline(world)
    _advance_to_slot(pipe, "bundle")
    items = list(pipe.in_flight.items)
    items[1] = world.sgx_platforms[1].cert.to_term()
    world.adversary_tamper(pipe, Tuple(items))
    pipe.run_all()
    return {"pipe": pipe, "verdict": pipe.verdict}


def forge_sgx_cert(world: World) -> tuple[sgx.SgxPlatformCert, bytes]:
    """A platform certificate minted under the stolen Intel root key.

    Returns the certificate and the private half of its fresh quoting key.
    """
    fake_qek = world.adversary_sig_keygen()
    fake_ppid = world.adversary_fresh(sgx.PPID_LEN)
    sig = world.adversary_sign(
        sgx.cert_payload(fake_qek.public, fake_ppid), world.intel_rot.ltk.private
    )
    cert = sgx.SgxPlatformCert(qek_pb=fake_qek.public, ppid=fake_ppid, sig_ir=sig)
    return cert, fake_qek.private


def forge_accepting_bundle(
    world: World, cert: sgx.SgxPlatformCert, qek_private: bytes
) -> EvidenceBundle:
    """Quote forged under a leaked or minted quoting key.

    Fabricates a measurement for the designated digest, computes the
    matching report data the way the owner would, and signs a quote
    naming the owner-enclave measurement. Verifies cleanly whenever the
    certificate chain checks out, precisely the situation the escape
    clauses describe.
    """
    pspid = world.sev_platforms[0].psp_sn.public
    msr = Measurement(
        plat_sev=Atom(world.adversary_fresh(8)),
        launch_sev=Atom(world.adversary_fresh(8)),
        dig=world.adversary_digest(DESIGNATED_VM_CODE),
        nonce=world.adversary_fresh(16),
    )
    vmdata = Atom(world.adversary_fresh(24))
    rpdata = world.adversary_digest(report_data_preimage(pspid, msr, vmdata))
    plat = Atom(world.adversary_fresh(8))
    sig = world.adversary_sign(
        quote_payload(OWNER_ENCLAVE_MEASUREMENT, plat, Atom(rpdata)), qek_private
    )
    quote = sgx.Quote(msr=OWNER_ENCLAVE_MEASUREMENT, plat=plat, data=Atom(rpdata), sig=sig)
    return EvidenceBundle(quote=quote, sgx_cert=cert, pspid=pspid, vmmsr=msr, vmdata=vmdata)


def scenario_compromise_intel_rot_pre(world: World) -> dict:
    world.compromise_intel_rot()
    cert, qek_private = forge_sgx_cert(world)
    bundle = forge_accepting_bundle(world, cert, qek_private)
    world.deliver("rp_bundle", bundle.to_term())
    return {"verdict_expected": True}


def scenario_compromise_intel_rot_post(world: World) -> dict:
    pipe = Pipeline(world)
    pipe.run_all()
    world.compromise_intel_rot()
    return {"pipe": pipe, "verdict": pipe.verdict}


def scenario_compromise_sgx_qe_pre(world: World) -> dict:
    target = world.sgx_platforms[0]
    world.compromise_sgx_qe(target)
    bundle = forge_accepting_bundle(world, target.cert, target.qek.private)
    world.deliver("rp_bundle", bundle.to_term())
    return {"verdict_expected": True}


def scenario_compromise_sgx_qe_post(world: World) -> dict:
    pipe = Pipeline(world)
    pipe.run_all()
    world.compromise_sgx_qe(world.sgx_platforms[0])
    return {"pipe": pipe, "verdict": pipe.verdict}


def scenario_compromise_amd_rot_pre(world: World) -> dict:
    """Fake SEV platform under a stolen AMD root key.

    The owner deploys to a platform that exists only as an adversary
    keypair, so every transport secret, the channel key included, lands
    in adversary hands, and the owner can then be driven to vouch for
    arbitrary guest data.
    """
    world.compromise_amd_rot()
    fake_sn = world.adversary_kx_keygen()
    sig = world.adversary_sign(sev_cert_payload(fake_sn.public), world.amd_rot.ltk.private)
    fake_cert = SevPlatformCert(psp_sn_pb=fake_sn.public, sig_ar=sig)

    pkg = world.owner_deploy(world.owner, "owner0", fake_cert, DESIGNATED_VM_CODE)
    assert pkg is not None, "owner rejected a root-signed certificate"
    world.send("owner0", "adv", pkg.to_term())

    ss = crypto.shared_secret(pkg.go_sn_pb, fake_sn.private)
    kek = crypto.derive_wrap_key(crypto.WRAP_KEY_LABELS[0], ss)
    plain = crypto.decrypt(pkg.blob_d, kek)
    tek, tik = plain.items[1].value, plain.items[2].value

    msr = Measurement(
        plat_sev=Atom(world.adversary_fresh(8)),
        launch_sev=Atom(world.adversary_fresh(8)),
        dig=world.designated_dig,
        nonce=world.adversary_fresh(16),
    )
    mac_ti = world.adversary_mac(msr.to_term(), tik)
    spkg = world.deliver(
        "owner_measurement", MeasurementPackage(msr=msr, mac_ti=mac_ti).to_term()
    )
    assert spkg is not None, "owner refused a MAC-valid matching measurement"
    cik = crypto.decrypt(spkg.blob_p, tek).value

    vmdata = Atom(world.adversary_fresh(24))
    tag = world.adversary_mac(vmdata, cik)
    quote = world.deliver("owner_report", Tuple([vmdata, Atom(tag)]))
    assert quote is not None, "stolen channel key should satisfy the owner"
    bundle = EvidenceBundle(
        quote=quote,
        sgx_cert=world.sgx_platforms[0].cert,
        pspid=fake_sn.public,
        vmmsr=msr,
        vmdata=vmdata,
    )
    world.deliver("rp_bundle", bundle.to_term())
    return {"cik": cik, "fake_psp": fake_sn.public}


def scenario_compromise_amd_rot_post(world: World) -> dict:
    pipe = Pipeline(world)
    pipe.run_all()
    world.compromise_amd_rot()
    return {"pipe": pipe, "verdict": pipe.verdict}


def scenario_compromise_sev_psp_pre(world: World) -> dict:
    """Passive extraction: a compromised PSP key opens the honest run."""
    world.compromise_sev_psp(world.sev_platforms[0])
    pipe = Pipeline(world)
    pipe.run_all()
    return {"pipe": pipe, "verdict": pipe.verdict}


def scenario_compromise_sev_psp_post(world: World) -> dict:
    """No forward secrecy: the same extraction works after the fact."""
    pipe = Pipeline(world)
    pipe.run_all()
    world.compromise_sev_psp(world.sev_platforms[0])
    return {"pipe": pipe, "verdict": pipe.verdict}


def scenario_extract_other_guest_secret(world: World) -> dict:
    """Host-level theft from a non-designated guest.

    A second owner deploys a different workload; the adversary (as host)
    rips that guest's channel key out of memory and makes the second
    owner vouch for fabricated data. Everything verifies, and the
    designated guest's key stays out of reach: the properties scope
    secrecy to the designated digest on purpose.
    """
    pipe0 = Pipeline(world)
    pipe0.run_all()

    sgx1 = world.sgx_platforms[1]
    sev1 = world.sev_platforms[1]
    sgx.load_enclave(sgx1, OWNER_ENCLAVE_MEASUREMENT)
    owner1 = TrustedOwner(amd_ltk_pb=world.amd_rot.public, host_platform=sgx1, rng=world.rng)
    other_code = Atom(b"other tenant workload")
    world.publish("owner1", other_code)
    pipe1 = Pipeline(
        world,
        owner=owner1,
        owner_name="owner1",
        sev_platform=sev1,
        sgx_platform=sgx1,
        vm_code=other_code,
    )
    pipe1.run_all()

    stolen = world.adversary_extract_sev_secret(sev1)
    vmdata = Atom(world.adversary_fresh(24))
    tag = world.adversary_mac(vmdata, stolen.value)
    request = Tuple([vmdata, Atom(tag)])
    world.send("adv", "owner1", request)
    quote = world.recv_report_request(owner1, "owner1", sgx1, request)
    assert quote is not None, "stolen channel key should satisfy the owner"
    world.send("sgx1", "adv", quote.to_term())
    bundle = EvidenceBundle(
        quote=quote,
        sgx_cert=sgx1.cert,
        pspid=sev1.psp_sn.public,
        vmmsr=pipe1.last_measurement,
        vmdata=vmdata,
    )
    world.deliver("rp_bundle", bundle.to_term())
    return {"pipe0": pipe0, "pipe1": pipe1, "stolen": stolen}


SCENARIOS = {
    "honest": scenario_honest,
    "tamper_deploy_blob": scenario_tamper_deploy_blob,
    "tamper_measurement": scenario_tamper_measurement,
    "tamper_secret_package": scenario_tamper_secret_package,
    "replay_secret_package": scenario_replay_secret_package,
    "wrong_vm_code": scenario_wrong_vm_code,
    "forge_report_request": scenario_forge_report_request,
    "cross_platform_cert_swap": scenario_cross_platform_cert_swap,
    "compromise_intel_rot_pre": scenario_compromise_intel_rot_pre,
    "compromise_intel_rot_post": scenario_compromise_intel_rot_post,
    "compromise_sgx_qe_pre": scenario_compromise_sgx_qe_pre,
    "compromise_sgx_qe_post": scenario_compromise_sgx_qe_post,
    "compromise_amd_rot_pre": scenario_compromise_amd_rot_pre,
    "compromise_amd_rot_post": scenario_compromise_amd_rot_post,
    "compromise_sev_psp_pre": scenario_compromise_sev_psp_pre,
    "compromise_sev_psp_post": scenario_compromise_sev_psp_post,
    "extract_other_guest_secret": scenario_extract_other_guest_secret,
}

#: Negative scenarios: the honest flow must abort with no accepted verdict.
NEGATIVE_SCENARIOS = (
    "tamper_deploy_blob",
    "tamper_measurement",
    "tamper_secret_package",
    "wrong_vm_code",
    "forge_report_request",
    "cross_platform_cert_swap",
)

#: Compromise attacks whose accepting verdicts the escapes must excuse.
COMPROMISE_ATTACKS = (
    "compromise_intel_rot_pre",
    "compromise_sgx_qe_pre",
    "compromise_amd_rot_pre",
    "compromise_sev_psp_pre",
)


def run_scenario_world(name: str, seed: int = 0) -> tuple[World, dict]:
    fn = SCENARIOS.get(name)
    if fn is None:
        raise UnknownScenario(f"unknown scenario: {name}")
    world = World(seed=seed)
    info = fn(world)
    return world, info


def run_scenario(name: str, seed: int = 0) -> Trace:
    world, _ = run_scenario_world(name, seed)
    return world.trace


# ---- postconditions ------------------------------------------------------
#
# Each scenario has a pass condition the CLI and the test suite share:
# every property checker comes back clean, and the scenario produced what
# the attack (or honest run) exists to show. A postcondition gets the
# closed adversary knowledge and the checkers' results for its world.


def _accepts(world: World) -> list:
    return [ev for ev in world.trace.of_kind(KIND_VERDICT) if ev.body.get("accept")]


def _transitions(world: World, label: str) -> list:
    return [
        ev.body
        for ev in world.trace.of_kind(KIND_TRANSITION)
        if ev.body.get("label") == label
    ]


def _designated_cik(world: World) -> Atom | None:
    for body in _transitions(world, "owner_provision_vm"):
        if body["vm_dig"] == world.designated_dig.hex():
            return Atom(bytes.fromhex(body["cik"]))
    return None


def _cik_derivable(world: World) -> bool:
    cik = _designated_cik(world)
    assert cik is not None, "scenario never provisioned the designated guest"
    return world.knowledge.derivable(cik)


def _post_honest(world: World, info: dict, results: dict) -> bool:
    return (
        len(_accepts(world)) == 1
        and world.owner.phase == "PROVISIONED"
        and len(_transitions(world, "owner_deploy_vm")) == 1
        and len(_transitions(world, "owner_provision_vm")) == 1
    )


def _post_tamper_deploy_blob(world: World, info: dict, results: dict) -> bool:
    return (
        not _accepts(world)
        and _transitions(world, "sev_deploy_abort")
        and world.sev_platforms[0].session is None
    )


def _post_provision_refused(world: World, info: dict, results: dict) -> bool:
    session = world.sev_platforms[0].session
    return (
        not _accepts(world)
        and _transitions(world, "owner_provision_refused")
        and (session is None or not session.running)
    )


def _post_tamper_secret_package(world: World, info: dict, results: dict) -> bool:
    return (
        not _accepts(world)
        and _transitions(world, "sev_secret_abort")
        and world.sev_platforms[0].session is None
    )


def _post_replay_secret_package(world: World, info: dict, results: dict) -> bool:
    aborts = _transitions(world, "sev_secret_abort")
    return (
        len(_accepts(world)) == 1
        and any(b.get("error") == "NoMeasuredSession" for b in aborts)
        and world.sev_platforms[0].session is not None
        and world.sev_platforms[0].session.running
    )


def _post_forge_report_request(world: World, info: dict, results: dict) -> bool:
    return not _accepts(world) and _transitions(world, "owner_report_refused")


def _post_cross_platform_cert_swap(world: World, info: dict, results: dict) -> bool:
    rejects = [
        ev.body
        for ev in world.trace.of_kind(KIND_VERDICT)
        if not ev.body.get("accept")
    ]
    return not _accepts(world) and any(b.get("reason") == "quote-sig" for b in rejects)


def _post_intel_pre(world: World, info: dict, results: dict) -> bool:
    return (
        len(_accepts(world)) == 1
        and results["sgx_quote_authenticity"].escaped >= 1
        and results["vm_quote_authenticity"].escaped >= 1
    )


def _post_intel_post(world: World, info: dict, results: dict) -> bool:
    return len(_accepts(world)) == 1 and results["sgx_quote_authenticity"].escaped == 1


def _post_amd_pre(world: World, info: dict, results: dict) -> bool:
    return (
        len(_accepts(world)) == 1
        and results["sev_secret_secrecy"].escaped >= 1
        and results["vm_quote_authenticity"].escaped >= 1
        and _cik_derivable(world)
    )


def _post_amd_post(world: World, info: dict, results: dict) -> bool:
    return (
        len(_accepts(world)) == 1
        and results["sev_secret_secrecy"].escaped == 1
        and not _cik_derivable(world)
    )


def _post_psp_pre(world: World, info: dict, results: dict) -> bool:
    return (
        len(_accepts(world)) == 1
        and results["sev_secret_secrecy"].escaped == 1
        and results["vm_quote_authenticity"].escaped == 1
        and _cik_derivable(world)
    )


def _post_extract_other(world: World, info: dict, results: dict) -> bool:
    cik = _designated_cik(world)
    return (
        len(_accepts(world)) == 3
        and all(res.escaped == 0 for res in results.values())
        and world.knowledge.knows(info["stolen"])
        and cik is not None
        and not world.knowledge.derivable(cik)
    )


POSTCONDITIONS = {
    "honest": _post_honest,
    "tamper_deploy_blob": _post_tamper_deploy_blob,
    "tamper_measurement": _post_provision_refused,
    "tamper_secret_package": _post_tamper_secret_package,
    "replay_secret_package": _post_replay_secret_package,
    "wrong_vm_code": _post_provision_refused,
    "forge_report_request": _post_forge_report_request,
    "cross_platform_cert_swap": _post_cross_platform_cert_swap,
    "compromise_intel_rot_pre": _post_intel_pre,
    "compromise_intel_rot_post": _post_intel_post,
    "compromise_sgx_qe_pre": _post_intel_pre,
    "compromise_sgx_qe_post": _post_intel_post,
    "compromise_amd_rot_pre": _post_amd_pre,
    "compromise_amd_rot_post": _post_amd_post,
    "compromise_sev_psp_pre": _post_psp_pre,
    # Same extraction works after the run: the exchange has no forward
    # secrecy, which is exactly why the escape clause is trace-global.
    "compromise_sev_psp_post": _post_psp_pre,
    "extract_other_guest_secret": _post_extract_other,
}


def check_postcondition(name: str, world: World, info: dict) -> bool:
    """True when the scenario produced what it exists to demonstrate."""
    post = POSTCONDITIONS[name]
    world.knowledge.analyze()
    results = check_all(world.trace, world.knowledge)
    return all(res.holds for res in results.values()) and bool(post(world, info, results))
