"""The property rows against the bespoke checkers they replaced.

properties.PROPERTIES states each trace property as a row that one
evaluator judges. The three hand-written checkers it replaced are kept
here verbatim as the reference, each over the grouping check_all judges.
On fuzz traces under three compromise masks, on every scenario at the
seeds the golden tests pin, and on every hand-built trace of
TestCheckerSoundness, check_all must return what the reference returns:
the same ids in the same order, and for each the same holds, witness,
matched and escaped.
"""

import inspect

import pytest
import test_harness

from vmquote.codec import Atom
from vmquote.guest import DESIGNATED_VM_DIGEST
from vmquote.harness import (
    SCENARIOS,
    AdversaryKnowledge,
    Trace,
    World,
    fuzz_adversary,
    parse_compromise_flags,
    properties,
    run_scenario_world,
)
from vmquote.harness.events import KIND_TRANSITION, KIND_VERDICT, Event, term_hex
from vmquote.harness.properties import PropertyResult, _Grouping, check_all, rebuild_knowledge

_DESIGNATED_DIG_HEX = DESIGNATED_VM_DIGEST.hex()

# ---- the reference checkers ----------------------------------------------


def _judge(pid: str, instances: list[Event], escaped, backed) -> PropertyResult:
    """Judge instances in trace order: excused, matched, or the witness.

    An instance its escape clause covers is excused; otherwise it must be
    backed by honest correspondence, and the first that is not ends the
    judgement as the witness.
    """
    matched = 0
    excused = 0
    for ev in instances:
        if escaped(ev):
            excused += 1
        elif backed(ev):
            matched += 1
        else:
            return PropertyResult(pid, witness=dict(ev.body), matched=matched, escaped=excused)
    return PropertyResult(pid, matched=matched, escaped=excused)


def _data(ev: Event, key: str) -> bytes:
    """The bytes field key; ValueError when it is missing or holds no bytes."""
    value = ev.data(key)
    if value is None:
        raise ValueError(f"trace event {ev.seq} has no bytes {key}")
    return value


def _check_sgx_quote_authenticity(seen: _Grouping) -> PropertyResult:
    esc = seen.knowledge.compromised
    reports = seen.transitions("owner_generate_report")
    # the owner-enclave accepts by identity: a parsed trace's seqs need not be distinct
    owner_quoted = {id(ev) for ev in seen.owner_accepts}

    def backed(ev: Event) -> bool:
        return id(ev) in owner_quoted and any(
            rep.seq < ev.seq
            and rep.text("host_ppid") == ev.text("cert_ppid")
            and term_hex(Atom(_data(rep, "rpdata"))) == ev.text("quote_data")
            for rep in reports
        )

    return _judge(
        "sgx_quote_authenticity",
        seen.accepts,
        lambda ev: esc.intel or ev.text("cert_ppid") in esc.qe_ppids,
        backed,
    )


def _check_sev_secret_secrecy(seen: _Grouping) -> PropertyResult:
    knowledge = seen.knowledge
    esc = knowledge.compromised
    instances = [
        ev
        for ev in seen.transitions("owner_provision_vm")
        if ev.get("vm_dig") == _DESIGNATED_DIG_HEX
    ]
    if instances:
        knowledge.analyze()

    def backed(ev: Event) -> bool:
        cik = Atom(_data(ev, "cik"))
        try:
            return not knowledge.derivable(cik, fresh=True)
        except RecursionError:
            raise ValueError(f"trace event {ev.seq}: cik nests too deep") from None

    return _judge(
        "sev_secret_secrecy",
        instances,
        lambda ev: esc.amd or ev.text("psp_id") in esc.psp_ids,
        backed,
    )


def _check_vm_quote_authenticity(seen: _Grouping) -> PropertyResult:
    esc = seen.knowledge.compromised
    launches = seen.transitions("sev_session_measured")
    requests = seen.transitions("guest_request_report")

    def escaped(ev: Event) -> bool:
        return (
            esc.intel
            or esc.amd
            or ev.text("cert_ppid") in esc.qe_ppids
            or ev.text("pspid") in esc.psp_ids
        )

    def backed(ev: Event) -> bool:
        measured = any(
            launch.seq < ev.seq
            and launch.text("psp") == ev.text("pspid")
            and launch.text("dig") == ev.text("msr_dig")
            and launch.text("nonce") == ev.text("msr_nonce")
            for launch in launches
        )
        requested = any(
            req.seq < ev.seq
            and req.text("psp") == ev.text("pspid")
            and req.text("vmdata") == ev.text("vmdata")
            for req in requests
        )
        return measured and requested

    return _judge(
        "vm_quote_authenticity",
        [ev for ev in seen.owner_accepts if ev.get("msr_dig") == _DESIGNATED_DIG_HEX],
        escaped,
        backed,
    )


#: Property id -> checker; every checker takes the grouping.
_CHECKERS = {
    "sgx_quote_authenticity": _check_sgx_quote_authenticity,
    "sev_secret_secrecy": _check_sev_secret_secrecy,
    "vm_quote_authenticity": _check_vm_quote_authenticity,
}


# ---- the comparison ------------------------------------------------------


def _outcomes(results: dict) -> list:
    return [(pid, r.holds, r.witness, r.matched, r.escaped) for pid, r in results.items()]


def _reference_all(trace: Trace, knowledge) -> dict:
    seen = _Grouping(trace, knowledge)
    return {pid: check(seen) for pid, check in _CHECKERS.items()}


def _outcome(judge, trace: Trace, knowledge):
    """The judgement's outcomes, or the text of the ValueError it raised."""
    try:
        return _outcomes(judge(trace, knowledge))
    except ValueError as exc:
        return str(exc)


def assert_rows_equal_reference(trace: Trace, knowledge=None) -> None:
    """check_all over trace equals the reference checkers, ids in order.

    Without a view both sides judge from the one view rebuilt here, as
    check_all would rebuild it. A ValueError must be the same error.
    """
    know = rebuild_knowledge(trace) if knowledge is None else knowledge
    assert _outcome(check_all, trace, know) == _outcome(_reference_all, trace, know)


def test_rows_equal_reference_on_the_pool(oracle_pool):
    """Fuzz runs 0-49 under the default and the wide mask, closed once."""
    _, rebuilt = oracle_pool
    for trace, closure, _ in rebuilt:
        assert_rows_equal_reference(trace, closure)


def test_rows_equal_reference_with_the_psp_and_intel_root_stolen():
    mask = parse_compromise_flags(["psp:designated", "intel_rot"])
    for seed in range(40):
        world = World(seed=seed)
        assert_rows_equal_reference(fuzz_adversary(world, seed=seed, steps=40, mask=mask))


@pytest.mark.parametrize("seed", (0, 7))
def test_rows_equal_reference_on_every_scenario(seed):
    for name in sorted(SCENARIOS):
        world, _ = run_scenario_world(name, seed=seed)
        assert_rows_equal_reference(world.trace, world.knowledge)
        assert_rows_equal_reference(Trace.from_jsonl(world.trace.to_jsonl()))


def test_rows_read_fields_in_the_reference_order():
    """Honest traces with one field of a transition or verdict changed, then another removed.

    The first change makes a field disagree, or hold no str; the second
    removes a field. Both sides must judge alike or raise the same
    ValueError, so the rows read every field the checkers read, in
    their order: a premise that fails does not spare the next one's
    reads. The view reads no transition or verdict field, so the honest
    run's view serves every variant.
    """
    world, _ = run_scenario_world("honest", seed=0)
    world.knowledge.analyze()
    events = world.trace.events
    fields = [
        (i, key)
        for i, ev in enumerate(events)
        if ev.kind in (KIND_TRANSITION, KIND_VERDICT)
        for key in ev.body
        if key != "label"
    ]
    changes = [(at, value) for at in fields for value in ("00", 1)]
    for (i, key), value in changes:
        for j, dropped in [(None, None), *fields]:
            if (j, dropped) == (i, key):
                continue
            bodies = [dict(ev.body) for ev in events]
            bodies[i][key] = value
            if j is not None:
                del bodies[j][dropped]
            trace = Trace()
            trace.events.extend(Event(ev.seq, ev.kind, body) for ev, body in zip(events, bodies))
            assert_rows_equal_reference(trace, world.knowledge)


# TestCheckerSoundness's parametrized cases, by method name
_SOUNDNESS_ARGS = {
    "test_first_unexcused_unbacked_accept_is_the_witness": [
        {"pid": "sgx_quote_authenticity"},
        {"pid": "vm_quote_authenticity"},
    ],
}
_SOUNDNESS_CASES = [
    pytest.param(name, args, id="-".join((name, *args.values())))
    for name in sorted(vars(test_harness.TestCheckerSoundness))
    if name.startswith("test_")
    for args in _SOUNDNESS_ARGS.get(name, [{}])
]


@pytest.mark.parametrize(("name", "args"), _SOUNDNESS_CASES)
def test_rows_equal_reference_on_hand_built_traces(name, args, monkeypatch):
    """Each hand-built trace, compared whenever the soundness test judges it."""
    compared = []

    def comparing(judge):
        def judged(trace, *rest):
            knowledge = rest[-1] if rest and isinstance(rest[-1], AdversaryKnowledge) else None
            assert_rows_equal_reference(trace, knowledge)
            compared.append(trace)
            return judge(trace, *rest)

        return judged

    monkeypatch.setattr(test_harness, "check_all", comparing(properties.check_all))
    monkeypatch.setattr(test_harness, "check_property", comparing(properties.check_property))
    method = getattr(test_harness.TestCheckerSoundness(), name)
    if "monkeypatch" in inspect.signature(method).parameters:
        args = {**args, "monkeypatch": monkeypatch}
    method(**args)
    assert compared
