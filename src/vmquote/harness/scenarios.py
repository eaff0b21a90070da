"""Scripted runs: one honest baseline, tampering, and compromise attacks.

Every scenario is a schedule of fuzz.Move values, run by the same apply
the fuzzer uses: a tuple of moves, or a generator over (world, pipe)
that reads what earlier moves put on the bus or let the adversary learn.
The negative scenarios each break one message or guard and must end with
the honest parties refusing (no accepted verdict); the compromise
scenarios mount the four attacks the escape clauses exist for, pre- and
post-run, so the checkers can be watched excusing exactly those and
nothing else.

run_scenario_world returns the world and an info dict for tests to poke
at; use run_scenario for just the trace.
"""

from __future__ import annotations

from typing import Iterator

from .. import crypto
from ..codec import Atom, Term
from ..guest import ReportRequest
from ..relying_party import EvidenceBundle
from ..sev import Measurement, MeasurementPackage, SecretPackage, SevPlatformCert, TransportKeys
from ..sgx import Quote
from .events import KIND_ADVERSARY, KIND_SEND, KIND_VERDICT, Trace
from .fuzz import Move, run_schedule
from .properties import _Grouping, _designated
from .world import Pipeline, World


class UnknownScenario(ValueError):
    """Scenario name not in SCENARIOS."""


class ScenarioIncomplete(RuntimeError):
    """A postcondition asks about a protocol step the scenario never reached."""


ADVANCE = Move("advance")
FINISH = Move("finish")


def _sent(world: World, src: str, dst: str) -> Term:
    """The last term src put on the bus for dst."""
    return next(
        ev.term("term")
        for ev in reversed(world.trace.events)
        if ev.kind == KIND_SEND and ev.get("src") == src and ev.get("dst") == dst
    )


def _stolen(world: World) -> list[Term]:
    """The guest secrets the adversary's extraction events show."""
    return [
        ev.term("term")
        for ev in world.trace.of_kind(KIND_ADVERSARY)
        if ev.get("action") == "adversary_extract_sev_secret"
    ]


def _transport_keys(world: World) -> TransportKeys:
    """The last transport-keys tuple the closure opened."""
    world.knowledge.analyze()
    opened = []
    for term in world.knowledge.terms_list():
        try:
            opened.append(TransportKeys.from_term(term))
        except ValueError:
            pass
    return opened[-1]


def _inject_evidence(world: World, i: int, pspid: bytes, msr: Measurement) -> Move:
    """Evidence for the quote owner i last made for the adversary's request."""
    request = ReportRequest.from_term(_sent(world, "adv", f"owner{i}"))
    bundle = EvidenceBundle(
        quote=Quote.from_term(_sent(world, f"sgx{i}", "adv")),
        sgx_cert=world.sgx_platforms[i].cert,
        pspid=pspid,
        vmmsr=msr,
        vmdata=request.vmdata,
    )
    return Move("inject", ("rp_bundle", bundle.to_term()))


def _replay_secret_package(world: World, pipe: Pipeline) -> Iterator[Move]:
    yield from (ADVANCE,) * 3
    replayed = pipe.in_flight
    yield FINISH
    yield Move("inject", ("sev_secret:0", replayed))


def _cross_platform_cert_swap(world: World, pipe: Pipeline) -> Iterator[Move]:
    yield from (ADVANCE,) * 6
    yield Move("replace", ((1,), world.sgx_platforms[1].cert.to_term()))
    yield FINISH


def _compromise_amd_rot_pre(world: World, pipe: Pipeline) -> Iterator[Move]:
    """Fake SEV platform under a stolen AMD root key.

    The owner deploys to a platform that exists only as an adversary
    keypair, so every transport secret, the channel key included, lands
    in adversary hands, and the owner can then be driven to vouch for
    arbitrary guest data.
    """
    yield Move("compromise", ("amd", None))
    yield Move("forge_sev_cert", ("owner_deploy:0",))
    fake = SevPlatformCert.from_term(_sent(world, "adv", "owner0"))
    keys = _transport_keys(world)
    yield Move("forge_measurement", (keys.tik,))
    msr = MeasurementPackage.from_term(_sent(world, "adv", "owner0")).msr
    secret = SecretPackage.from_term(_sent(world, "owner0", "adv"))
    cik = crypto.decrypt(secret.blob_p, keys.tek)
    yield Move("forge_request", ("owner_report:0", 24, cik.value))
    yield _inject_evidence(world, 0, fake.psp_sn_pb, msr)


def _extract_other_guest_secret(world: World, pipe: Pipeline) -> Iterator[Move]:
    """Host-level theft from a non-designated guest.

    A second owner deploys a different workload; the adversary (as host)
    rips that guest's channel key out of memory and makes the second
    owner vouch for fabricated data. Everything verifies, and the
    designated guest's key stays out of reach: the properties scope
    secrecy to the designated digest on purpose.
    """
    yield FINISH
    yield Move("tenant", (Atom(b"other tenant workload"),))
    yield Move("extract", (1,))
    yield Move("forge_request", ("owner_report:1", 24, _stolen(world)[-1].value))
    msr = MeasurementPackage.from_term(_sent(world, "sev1", "owner1")).msr
    yield _inject_evidence(world, 1, world.sev_platforms[1].psp_sn.public, msr)


#: Every scenario, as a tuple of moves or a generator over (world, pipe).
#: The pipeline's in-flight slot after n advances: 1 deploy, 2 measurement,
#: 3 secret, 5 report_request, 6 bundle.
SCENARIOS = {
    "honest": (FINISH,),
    "tamper_deploy_blob": (ADVANCE, Move("flip", ((1,), 0, 0)), FINISH),
    "tamper_measurement": (ADVANCE,) * 2 + (Move("flip", ((0, 3), 0, 0)), FINISH),
    "tamper_secret_package": (ADVANCE,) * 3 + (Move("flip", ((0,), 0, 0)), FINISH),
    "replay_secret_package": _replay_secret_package,
    "wrong_vm_code": (ADVANCE, Move("replace", ((3,), Atom(b"evil code"))), FINISH),
    "forge_report_request": (ADVANCE,) * 4
    + (Move("forge_request", ("owner_report:0", 24, None)),),
    "cross_platform_cert_swap": _cross_platform_cert_swap,
    "compromise_intel_rot_pre": (
        Move("compromise", ("intel", None)),
        Move("forge_bundle", (None,)),
    ),
    "compromise_intel_rot_post": (FINISH, Move("compromise", ("intel", None))),
    "compromise_sgx_qe_pre": (Move("compromise", ("qe", 0)), Move("forge_bundle", (0,))),
    "compromise_sgx_qe_post": (FINISH, Move("compromise", ("qe", 0))),
    "compromise_amd_rot_pre": _compromise_amd_rot_pre,
    "compromise_amd_rot_post": (FINISH, Move("compromise", ("amd", None))),
    # Passive extraction: a compromised PSP key opens the honest run ...
    "compromise_sev_psp_pre": (Move("compromise", ("psp", 0)), FINISH),
    # ... and, with no forward secrecy, works after the fact too.
    "compromise_sev_psp_post": (FINISH, Move("compromise", ("psp", 0))),
    "extract_other_guest_secret": _extract_other_guest_secret,
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
    """Run a scenario on a fresh world of the seed.

    info holds the pipeline, its verdict and the schedule applied.
    """
    script = SCENARIOS.get(name)
    if script is None:
        raise UnknownScenario(f"unknown scenario: {name}")
    world = World(seed=seed)
    pipe = Pipeline(world)
    moves = script(world, pipe) if callable(script) else script
    schedule = run_schedule(world, pipe, moves)
    return world, {"pipe": pipe, "verdict": pipe.verdict, "schedule": schedule}


def run_scenario(name: str, seed: int = 0) -> Trace:
    world, _ = run_scenario_world(name, seed)
    return world.trace


# ---- postconditions ------------------------------------------------------
#
# Each scenario has a pass condition the CLI and the test suite share:
# every property checker comes back clean, and the scenario produced what
# the attack (or honest run) exists to show. A postcondition gets the
# closed adversary knowledge, the checkers' results and the grouping they
# judged for its world, and looks transitions and accepts up there.


def _designated_cik(seen: _Grouping) -> Atom | None:
    provisions = _designated(seen.transitions("owner_provision_vm"), "vm_dig")
    return Atom(provisions[0].data("cik")) if provisions else None


def _cik_derivable(world: World, seen: _Grouping) -> bool:
    cik = _designated_cik(seen)
    if cik is None:
        raise ScenarioIncomplete("scenario never provisioned the designated guest")
    return world.knowledge.derivable(cik, fresh=True)


def _post_honest(world: World, info: dict, results: dict, seen: _Grouping) -> bool:
    return (
        len(seen.accepts) == 1
        and world.owner.phase == "PROVISIONED"
        and len(seen.transitions("owner_deploy_vm")) == 1
        and len(seen.transitions("owner_provision_vm")) == 1
    )


def _post_tamper_deploy_blob(world: World, info: dict, results: dict, seen: _Grouping) -> bool:
    return (
        not seen.accepts
        and seen.transitions("sev_deploy_abort")
        and world.sev_platforms[0].session is None
    )


def _post_provision_refused(world: World, info: dict, results: dict, seen: _Grouping) -> bool:
    session = world.sev_platforms[0].session
    return (
        not seen.accepts
        and seen.transitions("owner_provision_refused")
        and (session is None or not session.running)
    )


def _post_tamper_secret_package(world: World, info: dict, results: dict, seen: _Grouping) -> bool:
    return (
        not seen.accepts
        and seen.transitions("sev_secret_abort")
        and world.sev_platforms[0].session is None
    )


def _post_replay_secret_package(world: World, info: dict, results: dict, seen: _Grouping) -> bool:
    aborts = seen.transitions("sev_secret_abort")
    return (
        len(seen.accepts) == 1
        and any(ev.get("error") == "NoMeasuredSession" for ev in aborts)
        and world.sev_platforms[0].session is not None
        and world.sev_platforms[0].session.running
    )


def _post_forge_report_request(world: World, info: dict, results: dict, seen: _Grouping) -> bool:
    return (
        not seen.accepts
        and seen.transitions("owner_report_refused")
        and info["pipe"].guest is not None
    )


def _post_cross_platform_cert_swap(
    world: World, info: dict, results: dict, seen: _Grouping
) -> bool:
    return not seen.accepts and any(
        not ev.get("accept") and ev.get("reason") == "quote-sig"
        for ev in world.trace.of_kind(KIND_VERDICT)
    )


def _post_intel_pre(world: World, info: dict, results: dict, seen: _Grouping) -> bool:
    return (
        len(seen.accepts) == 1
        and results["sgx_quote_authenticity"].escaped >= 1
        and results["vm_quote_authenticity"].escaped >= 1
    )


def _post_intel_post(world: World, info: dict, results: dict, seen: _Grouping) -> bool:
    return (
        len(seen.accepts) == 1
        and results["sgx_quote_authenticity"].escaped == 1
    )


def _post_amd_pre(world: World, info: dict, results: dict, seen: _Grouping) -> bool:
    return (
        len(seen.accepts) == 1
        and results["sev_secret_secrecy"].escaped >= 1
        and results["vm_quote_authenticity"].escaped >= 1
        and _cik_derivable(world, seen)
    )


def _post_amd_post(world: World, info: dict, results: dict, seen: _Grouping) -> bool:
    return (
        len(seen.accepts) == 1
        and results["sev_secret_secrecy"].escaped == 1
        and not _cik_derivable(world, seen)
    )


def _post_psp_pre(world: World, info: dict, results: dict, seen: _Grouping) -> bool:
    return (
        len(seen.accepts) == 1
        and results["sev_secret_secrecy"].escaped == 1
        and results["vm_quote_authenticity"].escaped == 1
        and _cik_derivable(world, seen)
    )


def _post_extract_other(world: World, info: dict, results: dict, seen: _Grouping) -> bool:
    cik = _designated_cik(seen)
    stolen = _stolen(world)
    return (
        len(seen.accepts) == 3
        and all(res.escaped == 0 for res in results.values())
        and len(stolen) == 1
        and world.knowledge.knows(stolen[0])
        and cik is not None
        and not world.knowledge.derivable(cik, fresh=True)
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
    seen = _Grouping(world.trace, world.knowledge)
    results = seen.judge()
    return all(res.holds for res in results.values()) and bool(post(world, info, results, seen))
