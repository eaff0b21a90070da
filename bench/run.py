"""vmquote benchmark: one closed-loop client, one workload per process.

    python3 bench/run.py --workload fuzz40 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 5

Runs from a source checkout: vmquote is imported from `src/` next to this
directory, never from an installed copy. With `--trace 0` it prints the
end-to-end metrics; with `--trace 1` it runs half the time untraced and
half with every layer wrapped, and prints the per-layer metrics.

Op times are taken on the thread's CPU clock and divided by the host's
speed factor (hostspeed.py), so they read as on the reference host; the
figures as measured here are printed beside them.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. Exit status is 0 only when
every operation's output was correct. See bench/README.md.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKDIR = BENCH / ".work"

#: Set-ups per measured run: this process plus SETUP_SAMPLES - 1 children.
SETUP_SAMPLES = 3
SETUP_TIMEOUT_S = 150

#: Tail percentiles to fall back on, highest first, when a run is too short
#: for the workload's own: the tail must have at least TAIL_MIN_BEYOND
#: samples beyond it.
TAIL_LADDER = (99.9, 99.5, 99, 97.5, 95, 90, 75, 50)
TAIL_MIN_BEYOND = 10

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def import_vmquote() -> None:
    """Import vmquote from this checkout's src/, or exit 1."""
    if not (SRC / "vmquote" / "__init__.py").is_file():
        sys.exit(f"error: no vmquote sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import vmquote

    if Path(vmquote.__file__).resolve().parent != (SRC / "vmquote").resolve():
        sys.exit(f"error: imported vmquote from {vmquote.__file__}, not from {SRC}")


def git_commit() -> str:
    """HEAD of the checkout's git repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    from importlib.metadata import PackageNotFoundError, version

    try:
        crypto_version = version("cryptography")
    except PackageNotFoundError:
        crypto_version = "unknown"
    src_lines = sum(
        len(p.read_text().splitlines()) for p in sorted((SRC / "vmquote").rglob("*.py"))
    )
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "cryptography": crypto_version,
        "commit": git_commit(),
        "src_lines": src_lines,
    }


def percentile(ordered: list, p: float) -> float:
    """Linear interpolation between closest ranks of a sorted list."""
    k = (len(ordered) - 1) * p / 100
    lo = int(k)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (k - lo)


def tail_percentile(n: int, wanted: float) -> float:
    for p in TAIL_LADDER:
        if p <= wanted and n * (100 - p) / 100 >= TAIL_MIN_BEYOND:
            return p
    return TAIL_LADDER[-1]


@dataclass
class Phase:
    """One timed loop: per-op times, failures, and the host's speed meanwhile.

    times are op CPU times on the reference host (see hostspeed.py);
    wall_times are op wall times as measured here.
    """

    times: list
    wall_times: list
    failed: int
    wall: float
    host_factor: float

    @property
    def ops(self) -> int:
        return len(self.times)

    def ops_per_s(self) -> float:
        return self.ops / sum(self.times)

    def op_ms(self, p: float) -> float:
        return percentile(sorted(self.times), p) * 1e3


def timed_loop(workload, seconds: float, first_error: list) -> Phase:
    """Closed loop: op i+1 starts when op i has returned.

    After each op, reference slices sample the host's speed for a fixed
    share of the op's time; the slices are not part of any op's time.
    """
    from hostspeed import HostSpeed, normalise

    host = HostSpeed()
    clock = time.perf_counter
    cpu_clock = time.thread_time
    wall_times = []
    cpu_times = []
    slice_counts = []
    slice_seconds = []
    failed = 0
    start = clock()
    deadline = start + seconds
    i = 0
    while True:
        t0 = clock()
        c0 = cpu_clock()
        try:
            ok = workload.op(i)
        except Exception:
            ok = False
            if not first_error:
                first_error.append(f"op {i}: {traceback.format_exc()}")
        c1 = cpu_clock()
        t1 = clock()
        wall_times.append(t1 - t0)
        cpu_times.append(c1 - c0)
        failed += not ok
        i += 1
        count, spent = host.follow(c1 - c0)
        slice_counts.append(count)
        slice_seconds.append(spent)
        end = clock()
        if end >= deadline:
            times = normalise(cpu_times, slice_counts, slice_seconds)
            return Phase(times, wall_times, failed, end - start, host.factor)


def set_up(name: str, seed: int, workdir: Path):
    """Build the workload's fixtures and run one untimed warm-up op."""
    import workloads

    workload = workloads.WORKLOADS[name](seed, workdir)
    if not workload.op(0):
        raise RuntimeError(f"{name}: warm-up op 0 produced a wrong result")
    return workload


def setup_seconds() -> float:
    """Wall time since this process started, on the reference host."""
    from hostspeed import REFERENCE_SHARE, HostSpeed

    raw = time.perf_counter() - T0
    host = HostSpeed()
    host.sample(REFERENCE_SHARE * raw)
    return raw / host.factor


def child_setup_seconds(name: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=SETUP_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


def report(metrics: dict, correct: bool, attempted: int, failed: int) -> None:
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )


def run_workload(args) -> int:
    WORKDIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORKDIR))
    try:
        workload = set_up(args.workload, args.seed, workdir)
        setup_self = setup_seconds()
        if args.setup_only:
            print(setup_self)
            return 0
        print("env: " + json.dumps(environment(), sort_keys=True))
        first_error: list = []
        if args.trace:
            from tracer import Tracer, layer_metrics, unreachable

            plain = timed_loop(workload, args.seconds / 2, first_error)
            tracer = Tracer()
            with tracer:
                traced = timed_loop(workload, args.seconds / 2, first_error)
            metrics = layer_metrics(
                tracer, traced.ops, sum(traced.wall_times), traced.host_factor
            )
            metrics["trace_overhead_ratio"] = (traced.ops_per_s() / plain.ops_per_s(), "ratio")
            attempted = plain.ops + traced.ops
            failed = plain.failed + traced.failed
            print(f"workload {args.workload} seed {args.seed}: {plain.ops} untraced ops "
                  f"in {plain.wall:.2f} s, {traced.ops} traced ops in {traced.wall:.2f} s")
            for site in unreachable():
                print(f"unreachable call site: {site}")
        else:
            phase = timed_loop(workload, args.seconds, first_error)
            attempted, failed = phase.ops, phase.failed
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            setups = [setup_self] + [
                child_setup_seconds(args.workload, args.seed)
                for _ in range(SETUP_SAMPLES - 1)
            ]
            tail_p = tail_percentile(attempted, type(workload).tail_percentile)
            values = {
                "ops_per_s": phase.ops_per_s(),
                "op_ms_p50": phase.op_ms(50),
                "op_ms_tail": phase.op_ms(tail_p),
                "setup_s": statistics.median(setups),
                "peak_rss_mb": peak_rss_mb,
            }
            metrics = {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}
            wall_ms = sorted(phase.wall_times)
            beyond = sum(1 for x in phase.times if x * 1e3 > values["op_ms_tail"])
            print(f"workload {args.workload} seed {args.seed}: {attempted} ops "
                  f"in {phase.wall:.2f} s, {failed} failed")
            print(f"host speed factor {phase.host_factor:.4f} (reference slice time here "
                  "÷ on the reference host)")
            print(f"op_ms_tail is p{tail_p:g} of {attempted} ops, {beyond} samples beyond")
            print(f"as measured here: {attempted / sum(phase.wall_times):.6g} ops/s of "
                  f"wall time, wall p50 {percentile(wall_ms, 50) * 1e3:.6g} ms, "
                  f"wall p{tail_p:g} {percentile(wall_ms, tail_p) * 1e3:.6g} ms")
            print("setup_s samples: " + ", ".join(f"{s:.4f}" for s in setups))
        print(f"fail_ratio = {failed / attempted:.6g} ratio ({failed} of {attempted})")
        for name, (value, unit) in metrics.items():
            print(f"{name} = {value:.6g} {unit}")
        if first_error:
            print(first_error[0], file=sys.stderr)
        correct = failed == 0
        report(metrics, correct, attempted, failed)
        return 0 if correct else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    import workloads

    metrics = {}
    correct = True
    attempted = failed = 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT,
            capture_output=True,
            text=True,
        )
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        sys.stderr.write(proc.stderr)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"[{name}] no result (exit {proc.returncode})", file=sys.stderr)
            return 1
        correct = correct and result["correct"] and proc.returncode == 0
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, entry in result["metrics"].items():
            metrics[f"{name}.{metric}"] = (entry["value"], entry["unit"])
    report(metrics, correct, attempted, failed)
    return 0 if correct else 1


def main(argv=None) -> int:
    import_vmquote()
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
