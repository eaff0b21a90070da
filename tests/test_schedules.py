"""Schedules as data: a run's moves alone reproduce it, and no move kind is dead.

A scenario or fuzz run records the moves it applied. Re-running that
list on a fresh world of the same seed, with no move Rng and no scenario
script, must give the same trace byte for byte.
"""

import inspect
import re

import pytest

from vmquote.harness import DEFAULT_MASK, Pipeline, World, fuzz_adversary
from vmquote.harness.fuzz import Move, apply, fuzz_moves, run_schedule
from vmquote.harness.scenarios import SCENARIOS, run_scenario_world

#: The fuzz runs test_golden.py pins.
FUZZ_SEEDS = range(20)
FUZZ_STEPS = 40


def _replayed(seed: int, schedule: list) -> tuple:
    world = World(seed=seed)
    pipe = Pipeline(world)
    assert run_schedule(world, pipe, tuple(schedule)) == schedule
    return world, pipe


@pytest.fixture(scope="module")
def fuzz_runs() -> dict:
    """Per seed: the world and schedule of the pinned fuzz run."""
    runs = {}
    for seed in FUZZ_SEEDS:
        world = World(seed=seed)
        pipe = Pipeline(world)
        moves = fuzz_moves(world, pipe, seed, FUZZ_STEPS, DEFAULT_MASK)
        schedule = run_schedule(world, pipe, moves)
        pipe.run_all()
        runs[seed] = world, schedule
    return runs


@pytest.mark.parametrize("seed", (0, 7))
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_schedule_replays_its_trace(name, seed):
    world, info = run_scenario_world(name, seed)
    replayed, _ = _replayed(seed, info["schedule"])
    assert replayed.trace.to_jsonl() == world.trace.to_jsonl()


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_fuzz_schedule_replays_its_trace(fuzz_runs, seed):
    world, schedule = fuzz_runs[seed]
    reference = World(seed=seed)
    fuzz_adversary(reference, seed=seed, steps=FUZZ_STEPS, mask=DEFAULT_MASK)
    assert world.trace.to_jsonl() == reference.trace.to_jsonl()

    replayed, pipe = _replayed(seed, schedule)
    pipe.run_all()
    assert replayed.trace.to_jsonl() == world.trace.to_jsonl()


#: The kinds Move's docstring declares, one "- kind: args" line each.
DECLARED_KINDS = re.findall(r"^\s*- (\w+):", Move.__doc__, re.M)


def test_apply_handles_exactly_the_declared_kinds():
    handled = re.findall(r'kind == "(\w+)"', inspect.getsource(apply))
    assert sorted(handled) == sorted(DECLARED_KINDS)


def test_every_move_kind_is_produced(fuzz_runs):
    produced = {move.kind for _, schedule in fuzz_runs.values() for move in schedule}
    for name in SCENARIOS:
        _, info = run_scenario_world(name, 0)
        produced.update(move.kind for move in info["schedule"])
    assert produced == set(DECLARED_KINDS)


def test_unknown_kind_raises():
    world = World(seed=0)
    with pytest.raises(ValueError):
        apply(world, Pipeline(world), Move("no_such_kind"))
