"""Self-tests of the benchmark: fixtures, checks, tracer, output contract.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.import_vmquote()

import hostspeed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from vmquote import harness  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

#: Small pools keep the tests quick; every verify case kind still appears.
SMALL = {"verify": {"pool": 20}, "recheck": {"pool": 4}}


def make(name: str, seed: int, workdir: Path):
    workdir.mkdir(parents=True, exist_ok=True)
    return workloads.WORKLOADS[name](seed, workdir, **SMALL.get(name, {}))


def fixtures(workload) -> list:
    if isinstance(workload, workloads.Verify):
        return [(p.name, p.read_text(), expected) for p, expected in workload.cases]
    if isinstance(workload, workloads.Recheck):
        return workload.traces
    return []


@pytest.mark.parametrize("name", ["verify", "recheck"])
def test_same_seed_same_fixtures(name, tmp_path):
    first = make(name, 5, tmp_path / "a")
    second = make(name, 5, tmp_path / "b")
    other = make(name, 6, tmp_path / "c")
    assert fixtures(first) == fixtures(second)
    assert fixtures(first) != fixtures(other)


def test_verify_pool_covers_every_case_kind(tmp_path):
    outcomes = {expected for _, expected in make("verify", 3, tmp_path).cases}
    assert outcomes == {
        (0, None),
        (1, "cert-sig"),
        (1, "quote-sig"),
        (1, "msr-mismatch"),
        (1, "data-mismatch"),
        (2, "malformed"),
    }


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_same_seed_same_correctness(name, tmp_path):
    ops = 20 if name in ("honest", "verify") else 4
    runs = [[make(name, 9, tmp_path / side).op(i) for i in range(ops)] for side in "ab"]
    assert runs[0] == runs[1] == [True] * ops


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_run(name, tmp_path):
    workload = make(name, 2, tmp_path)
    phase = run.timed_loop(workload, 0.2, [])
    assert phase.ops >= 1 and len(phase.wall_times) == phase.ops
    assert phase.failed == 0 and phase.wall >= 0.2
    assert phase.ops_per_s() > 0 and phase.host_factor > 0


def test_normalise_divides_each_group_by_its_own_factor():
    n = hostspeed.MIN_SLICES
    ref = hostspeed.REFERENCE_SLICE_S
    # Two ops at reference speed, then three on a host twice as slow; the
    # last two have too few slices for a group and join the one before.
    counts = [n // 2, n - n // 2, n, 1, 0]
    speeds = [1, 1, 2, 2, 2]
    seconds = [c * ref * s for c, s in zip(counts, speeds)]
    ops = [0.001, 0.003, 0.002, 0.004, 0.006]
    assert hostspeed.normalise(ops, counts, seconds) == pytest.approx(
        [0.001, 0.003, 0.001, 0.002, 0.003]
    )


def test_fuzz40_totals_match_fuzz_campaign(tmp_path):
    fuzz = make("fuzz40", 4, tmp_path)
    assert all(fuzz.op(i) for i in range(6))
    campaign = harness.fuzz_campaign(runs=6, steps=40, seed=4)
    expected = {"accepts": campaign.accepts}
    for pid in harness.PROPERTY_IDS:
        expected[f"{pid}.matched"] = campaign.matched[pid]
        expected[f"{pid}.escaped"] = campaign.escaped[pid]
    assert dict(fuzz.totals) == expected
    assert campaign.total_violations == 0


def test_honest_trace_identical_with_tracing_on_and_off():
    plain = harness.run_scenario("honest", seed=7).to_jsonl()
    with tracer.Tracer() as t:
        traced = harness.run_scenario("honest", seed=7).to_jsonl()
    assert t.stats["crypto.sign"].calls > 0
    assert traced == plain


def traced_bindings() -> list[str]:
    """Every place in vmquote that still holds a tracer wrapper."""
    found = []
    for mod in tracer._package_modules():
        for attr, value in vars(mod).items():
            if hasattr(value, "__bench_traced__"):
                found.append(f"{mod.__name__}.{attr}")
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for cattr, cvalue in vars(value).items():
                    fn = cvalue.__func__ if isinstance(cvalue, staticmethod) else cvalue
                    if hasattr(fn, "__bench_traced__"):
                        found.append(f"{mod.__name__}.{attr}.{cattr}")
    return found


def _bindings() -> dict:
    found = {}
    for mod in tracer._package_modules():
        for attr, value in vars(mod).items():
            found[(mod.__name__, attr)] = value
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for cattr, cvalue in vars(value).items():
                    found[(mod.__name__, attr, cattr)] = cvalue
    return found


def test_uninstall_restores_every_binding():
    before = _bindings()
    t = tracer.Tracer()
    t.install()
    try:
        installed = set(traced_bindings())
    finally:
        t.uninstall()
    # By-name imports are patched too, not only the defining module.
    assert {
        "vmquote.codec.encode",
        "vmquote.crypto.encode",
        "vmquote.harness.knowledge.encode",
        "vmquote.harness.events.encode",
        "vmquote.relying_party.quote_check_failure",
        "vmquote.harness.check_property",
        "vmquote.harness.events.Trace.from_jsonl",
    } <= installed
    assert traced_bindings() == []
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_every_call_site_is_reachable():
    assert tracer.unreachable() == []


def test_traced_fuzz_op_attributes_trial_decryptions_to_analyze(tmp_path):
    fuzz = make("fuzz40", 1, tmp_path)
    with tracer.Tracer() as t:
        ops = [fuzz.op(i) for i in range(3)]
    assert all(ops)
    analyze = t.stats["harness.knowledge.analyze"]
    assert analyze.calls > 0 and analyze.size > 0
    in_analyze = t.by_parent[("crypto.decrypt", "harness.knowledge.analyze")][0]
    assert 0 < in_analyze <= t.stats["crypto.decrypt"].calls
    assert analyze.self_time < analyze.busy


def _run_cli(*args, cwd=run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace, kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_cli_prints_the_declared_metrics(trace, kind):
    proc = _run_cli("--workload", "honest", "--seed", "3", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert not (run.WORKDIR.exists() and any(run.WORKDIR.iterdir()))


def test_cli_fails_without_program_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(run.ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = _run_cli("--workload", "honest", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
