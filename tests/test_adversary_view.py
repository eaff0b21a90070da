"""The World's adversary view is built on demand from its trace.

The World only records. World.knowledge and World.compromised catch up
when read: each read feeds the send and adversary events recorded since
the last one, in trace order, to both learn rules through the one feed
loop rebuild_knowledge runs too. A run that never reads the view never
builds it, and a view read at any moment holds exactly what feeding it
event by event would.
"""

import ast
from pathlib import Path

import pytest

import vmquote
from vmquote.codec import Atom, encode
from vmquote.harness import World, fuzz_adversary, run_scenario_world
from vmquote.harness.events import ADVERSARY_VISIBLE, KIND_ADVERSARY, KIND_SEND
from vmquote.harness.fuzz import CompromiseMask
from vmquote.harness.knowledge import CLOSURE_COUNTERS, AdversaryKnowledge
from vmquote.harness.properties import Compromises

SEEDS = (0, 7, 11)
WIDE = CompromiseMask(intel_rot=True, amd_rot=True, designated_qe=True, designated_psp=True)


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
    visible = _visible(world)
    assert [seq for rule, seq in fed if rule == "knowledge"] == visible
    assert [seq for rule, seq in fed if rule == "compromises"] == visible
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
    visible = _visible(world)
    assert [seq for rule, seq in fed if rule == "knowledge"] == visible
    assert [seq for rule, seq in fed if rule == "compromises"] == visible


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


def _learn_calls(tree: ast.AST) -> list[int]:
    """The lines of tree's calls of a method named learn."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "learn"
    ]


def test_learn_rules_are_called_only_from_the_feed_loop():
    """No second knowledge feeder: the package's one learn call is in feed."""
    root = Path(vmquote.__file__).parent
    trees = {
        path.relative_to(root).as_posix(): ast.parse(path.read_text())
        for path in root.rglob("*.py")
    }
    called = {name: lines for name, tree in trees.items() if (lines := _learn_calls(tree))}
    [feed] = [
        node
        for node in ast.walk(trees["harness/properties.py"])
        if isinstance(node, ast.FunctionDef) and node.name == "feed"
    ]
    assert len(_learn_calls(feed)) == 1
    assert called == {"harness/properties.py": _learn_calls(feed)}
