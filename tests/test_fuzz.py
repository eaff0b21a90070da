"""Randomized adversary runs and campaign accounting."""

import pytest

from vmquote.harness import (
    DEFAULT_MASK,
    PROPERTY_IDS,
    CompromiseMask,
    World,
    check_all,
    fuzz_adversary,
    fuzz_campaign,
    parse_compromise_flags,
    run_scenario,
)
from vmquote.harness.events import KIND_VERDICT


def test_zero_steps_is_the_honest_run():
    world = World(seed=17)
    trace = fuzz_adversary(world, seed=17, steps=0)
    accepts = [ev for ev in trace.of_kind(KIND_VERDICT) if ev.body["accept"]]
    assert len(accepts) == 1
    assert world.owner.phase == "PROVISIONED"
    results = check_all(trace, world.knowledge)
    assert all(results[pid].holds for pid in PROPERTY_IDS)
    assert all(results[pid].escaped == 0 for pid in PROPERTY_IDS)


def test_zero_steps_equals_scenario_trace():
    world = World(seed=4)
    fuzzed = fuzz_adversary(world, seed=4, steps=0)
    honest = run_scenario("honest", seed=4)
    assert fuzzed.to_jsonl() == honest.to_jsonl()


def test_fuzz_run_deterministic():
    def run():
        world = World(seed=23)
        return fuzz_adversary(world, seed=23, steps=40).to_jsonl()

    assert run() == run()


def test_fuzz_seed_sensitivity():
    w1, w2 = World(seed=23), World(seed=23)
    t1 = fuzz_adversary(w1, seed=100, steps=40)
    t2 = fuzz_adversary(w2, seed=101, steps=40)
    assert t1.to_jsonl() != t2.to_jsonl()


def test_small_campaign_no_violations():
    result = fuzz_campaign(runs=30, steps=40, seed=2)
    assert result.total_violations == 0
    assert result.runs == 30
    for pid in PROPERTY_IDS:
        assert result.violations[pid] == []


def test_campaign_counts_escapes_under_permissive_mask():
    mask = CompromiseMask(
        intel_rot=True, amd_rot=True, designated_qe=True, designated_psp=True
    )
    result = fuzz_campaign(runs=30, steps=40, seed=3, mask=mask)
    assert result.total_violations == 0
    assert sum(result.escaped.values()) > 0


def test_campaign_summary_lines_shape():
    result = fuzz_campaign(runs=2, steps=5, seed=0)
    lines = result.summary_lines()
    assert len(lines) == 1 + len(PROPERTY_IDS)
    assert "2 runs x 5 steps" in lines[0]
    for pid, line in zip(PROPERTY_IDS, lines[1:]):
        assert pid in line


def test_campaign_sums_closure_counters():
    result = fuzz_campaign(runs=3, steps=20, seed=4)
    expected = dict.fromkeys(("rounds", "kx_pairs", "trials", "hits"), 0)
    for i in range(3):
        world = World(seed=4 * 1_000_003 + i)
        fuzz_adversary(world, seed=4 * 1_000_003 + i, steps=20, mask=DEFAULT_MASK)
        check_all(world.trace, world.knowledge)
        for name in expected:
            expected[name] += getattr(world.knowledge, name)
    assert result.closure == expected
    assert expected["trials"] > expected["hits"] > 0
    assert f"{expected['trials']} trials, {expected['hits']} hits" in result.summary_lines()[0]


class TestMask:
    def test_default_blocks_designated(self):
        world = World(seed=1)
        assert not DEFAULT_MASK.allows_qe(world, world.sgx_platforms[0])
        assert not DEFAULT_MASK.allows_psp(world, world.sev_platforms[0])
        assert DEFAULT_MASK.allows_qe(world, world.sgx_platforms[1])
        assert DEFAULT_MASK.allows_psp(world, world.sev_platforms[1])

    def test_specific_key_grant(self):
        world = World(seed=1)
        ppid = world.sgx_platforms[0].ppid.hex()
        mask = parse_compromise_flags([f"qe:{ppid}"])
        assert mask.allows_qe(world, world.sgx_platforms[0])

    def test_parse_all_flag_forms(self):
        mask = parse_compromise_flags(
            ["intel_rot", "amd_rot", "qe:designated", "psp:designated", "psp:other"]
        )
        assert mask.intel_rot and mask.amd_rot
        assert mask.designated_qe and mask.designated_psp
        world = World(seed=1)
        assert mask.allows_psp(world, world.sev_platforms[1])

    def test_parse_rejects_unknown_flag(self):
        with pytest.raises(ValueError):
            parse_compromise_flags(["qe_designated"])

    def test_parse_rejects_bad_hex(self):
        with pytest.raises(ValueError):
            parse_compromise_flags(["psp:nothex"])
