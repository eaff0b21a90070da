"""The World's adversary view is one object, built on demand from its trace.

The World only records. World.knowledge catches up when read: each read
feeds the send and adversary events recorded since the last one, in
trace order, to AdversaryKnowledge.learn through the one feed loop
rebuild_knowledge runs too, and learn hands each compromise event on to
the view's own Compromises record, which World.compromised returns. A
run that never reads the view never builds it, and a view read at any
moment holds exactly what feeding it event by event would. A judgement
given the view reads its escapes from that record and agrees with one
that rebuilds everything from the trace.
"""

import ast
from pathlib import Path

import pytest

import vmquote
from vmquote.codec import Atom, encode
from vmquote.harness import (
    SCENARIOS,
    Trace,
    World,
    check_all,
    fuzz_adversary,
    rebuild_knowledge,
    run_scenario_world,
)
from vmquote.harness.events import ADVERSARY_VISIBLE, KIND_ADVERSARY, KIND_SEND
from vmquote.harness.fuzz import CompromiseMask
from vmquote.harness.knowledge import CLOSURE_COUNTERS, AdversaryKnowledge, Compromises

SEEDS = (0, 7, 11)
WIDE = CompromiseMask(intel_rot=True, amd_rot=True, designated_qe=True, designated_psp=True)
COMPROMISE_SCENARIOS = sorted(name for name in SCENARIOS if name.startswith("compromise_"))


@pytest.fixture
def fed(monkeypatch):
    """The events each learn rule is handed, as (rule, seq), in call order."""
    calls = []
    for view, rule in ((AdversaryKnowledge, "knowledge"), (Compromises, "compromises")):

        def counted(self, event, _learn=view.learn, _rule=rule):
            calls.append((_rule, event.seq))
            return _learn(self, event)

        monkeypatch.setattr(view, "learn", counted)
    return calls


def _visible(world) -> list[int]:
    return [ev.seq for ev in world.trace.events if ev.kind in ADVERSARY_VISIBLE]


def _compromising(world) -> list[int]:
    """The seqs of the adversary events whose action compromises a key."""
    return [
        ev.seq
        for ev in world.trace.events
        if ev.kind == KIND_ADVERSARY and ev.get("action").startswith("compromise_")
    ]


@pytest.mark.parametrize("seed", SEEDS)
def test_honest_run_runs_no_learn_rule(fed, seed):
    world, info = run_scenario_world("honest", seed)
    assert info["verdict"].accept
    assert _visible(world)
    assert fed == []


@pytest.mark.parametrize("seed", SEEDS)
def test_first_read_feeds_each_visible_event_once(fed, seed):
    world, _ = run_scenario_world("honest", seed)
    world.knowledge
    assert [seq for rule, seq in fed if rule == "knowledge"] == _visible(world)
    assert [seq for rule, seq in fed if rule == "compromises"] == _compromising(world)
    fed.clear()
    world.knowledge
    world.compromised
    assert fed == []


@pytest.mark.parametrize("seed", SEEDS)
def test_fuzz_run_feeds_each_visible_event_once_in_trace_order(fed, seed):
    """Reads in mid-run catch up in pieces, and the pieces add up to the trace."""
    world = World(seed=seed)
    fuzz_adversary(world, seed=seed, steps=40, mask=WIDE)
    world.compromised
    assert [seq for rule, seq in fed if rule == "knowledge"] == _visible(world)
    assert [seq for rule, seq in fed if rule == "compromises"] == _compromising(world)


@pytest.mark.parametrize("name", COMPROMISE_SCENARIOS)
def test_each_compromise_event_reaches_the_record_once(fed, name):
    """The view's learn hands every compromise, of each kind, to the record once."""
    world, _ = run_scenario_world(name, seed=0)
    assert world.compromised is world.knowledge.compromised
    assert [seq for rule, seq in fed if rule == "knowledge"] == _visible(world)
    assert [seq for rule, seq in fed if rule == "compromises"] == _compromising(world)
    assert len(_compromising(world)) == 1
    assert world.compromised != Compromises()


def test_event_appended_straight_to_the_trace_is_seen_at_the_next_read():
    world = World(seed=3)
    world.knowledge
    stolen, sent = Atom(b"\x01" * 32), Atom(b"\x02" * 40)
    assert not world.knowledge.knows(stolen)
    world.trace.append(
        KIND_ADVERSARY,
        action="compromise_intel_rot",
        leak=stolen.value,
        leak_kind="sig_private",
    )
    world.trace.append(KIND_SEND, src="adv", dst="rp", term=sent)
    assert world.compromised.intel
    assert world.knowledge.knows(stolen)
    assert world.knowledge.knows(sent)


def _closed(world):
    know = world.knowledge
    know.analyze()
    return (
        [encode(term) for term in know.terms_list()],
        [getattr(know, name) for name in CLOSURE_COUNTERS],
        world.compromised,
    )


@pytest.mark.parametrize("mask", [CompromiseMask(), WIDE], ids=["default", "wide"])
def test_view_read_after_every_event_learns_the_same_in_the_same_order(mask):
    """Feeding at record time, or only when read, gives one closure."""
    for seed in range(12):
        lazy = World(seed=seed)
        fuzz_adversary(lazy, seed=seed, steps=40, mask=mask)

        eager = World(seed=seed)
        append = eager.trace.append

        def append_and_read(kind, _append=append, _world=eager, **values):
            event = _append(kind, **values)
            _world.knowledge
            return event

        eager.trace.append = append_and_read
        fuzz_adversary(eager, seed=seed, steps=40, mask=mask)
        assert eager.trace.to_jsonl() == lazy.trace.to_jsonl(), seed
        assert _closed(eager) == _closed(lazy), seed


def _learn_calls(tree: ast.AST) -> list[ast.Call]:
    """tree's calls of a method named learn."""
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "learn"
    ]


def _function(tree: ast.AST, name: str) -> ast.FunctionDef:
    [function] = [
        node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.name == name
    ]
    return function


def test_learn_rules_are_called_only_from_the_feed_loop():
    """No second feeder: the feed loop calls learn, and learn calls the record's once."""
    root = Path(vmquote.__file__).parent
    trees = {
        path.relative_to(root).as_posix(): ast.parse(path.read_text())
        for path in root.rglob("*.py")
    }
    called = {
        name: [call.lineno for call in calls]
        for name, tree in trees.items()
        if (calls := _learn_calls(tree))
    }
    [view] = [
        node
        for node in ast.walk(trees["harness/knowledge.py"])
        if isinstance(node, ast.ClassDef) and node.name == "AdversaryKnowledge"
    ]
    [fed] = _learn_calls(_function(trees["harness/knowledge.py"], "feed"))
    [delegated] = _learn_calls(_function(view, "learn"))
    assert ast.unparse(delegated.func) == "self.compromised.learn"
    assert called == {"harness/knowledge.py": sorted([fed.lineno, delegated.lineno])}


_MASKS = {
    "default": CompromiseMask(),
    "wide": WIDE,
    "amd_rot+psp:designated": CompromiseMask(amd_rot=True, designated_psp=True),
}


def _judged_traces():
    """(name, trace, view, record): each scenario and fuzz trace, live and parsed.

    A live trace comes with its World's view, a parsed one with the view
    rebuilt from it; record is the World's compromise record for both.
    """
    worlds = [
        (f"{name} seed {seed}", run_scenario_world(name, seed)[0])
        for name in sorted(SCENARIOS)
        for seed in (0, 7)
    ]
    for mask_name, mask in _MASKS.items():
        for seed in range(12):
            world = World(seed=seed)
            fuzz_adversary(world, seed=seed, steps=40, mask=mask)
            worlds.append((f"fuzz {mask_name} seed {seed}", world))
    for name, world in worlds:
        parsed = Trace.from_jsonl(world.trace.to_jsonl())
        yield f"{name} live", world.trace, world.knowledge, world.compromised
        yield f"{name} parsed", parsed, rebuild_knowledge(parsed), world.compromised


def test_judging_with_the_view_agrees_with_judging_without_it():
    """The view's record is the trace's, and check_all with it equals check_all without."""
    escaped = 0
    for name, trace, view, compromised in _judged_traces():
        assert compromised == rebuild_knowledge(trace).compromised, name
        assert view.compromised == compromised, name
        judged = check_all(trace, view)
        assert judged == check_all(trace), name
        escaped += sum(result.escaped for result in judged.values())
    assert escaped > 0
