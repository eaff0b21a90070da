"""The four benchmark workloads and their correctness checks.

Each workload is built from a seed (same seed, same inputs) and exposes
`op(i) -> bool`: run operation i and say whether its output was correct.
Operations only call vmquote's public API, through module attributes
(`harness.World`, `cli.load_bundle_file`, ...) so that the tracer's
patched bindings are the ones called.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from pathlib import Path

from vmquote import cli, harness, relying_party
from vmquote.codec import Label

#: Run seeds are derived the way `fuzz_campaign` derives them.
SEED_STRIDE = 1_000_003

FUZZ_STEPS = 40

#: Bundle files written by the verify set-up; half intact, the rest split
#: evenly across the five reject kinds.
VERIFY_POOL = 200
REJECT_KINDS = ("cert-sig", "quote-sig", "msr-mismatch", "data-mismatch", "malformed")
VERIFY_KINDS = ("intact",) * len(REJECT_KINDS) + REJECT_KINDS

#: Fuzz traces generated by the recheck set-up. The pool, not the run
#: length, bounds how well one run samples trace sizes, so it is as large
#: as the set-up time allows.
RECHECK_POOL = 160


def run_seed(seed: int, i: int) -> int:
    return seed * SEED_STRIDE + i


def _accepted(trace) -> int:
    return sum(1 for ev in trace.of_kind(harness.KIND_VERDICT) if ev.body.get("accept"))


class Honest:
    """One honest protocol run: World construction plus Pipeline.run_all."""

    tail_percentile = 99

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed

    def op(self, i: int) -> bool:
        world, _ = harness.run_scenario_world("honest", seed=run_seed(self.seed, i))
        return _accepted(world.trace) == 1 and world.owner.phase == "PROVISIONED"


def _flip_last_nibble(text: str) -> str:
    return text[:-1] + format(int(text[-1], 16) ^ 1, "x")


def write_verify_case(path: Path, world_seed: int, kind: str) -> tuple:
    """Write one bundle file as `vmquote run honest` does, then spoil it.

    Returns the outcome `vmquote verify` must report for it, as
    (exit code, reason).
    """
    world, _ = harness.run_scenario_world("honest", seed=world_seed)
    vin = world.last_verification
    bundle = cli.EvidenceBundle(
        quote=vin.quote,
        sgx_cert=vin.sgx_cert,
        pspid=vin.pspid,
        vmmsr=vin.vmmsr,
        vmdata=vin.vmdata,
    )
    cli.write_bundle_file(path, bundle, vin.intel_pk, vin.expected_to_msr)
    if kind == "intact":
        return (0, None)
    text = path.read_text()
    if kind == "malformed":
        path.write_text(text[: len(text) // 2])
        return (2, "malformed")
    doc = json.loads(text)
    if kind == "cert-sig":
        # The certificate term ends with the root's signature.
        doc["bundle"]["sgx_cert"] = _flip_last_nibble(doc["bundle"]["sgx_cert"])
    elif kind == "quote-sig":
        # The quote term ends with the quoting key's signature.
        doc["bundle"]["quote"] = _flip_last_nibble(doc["bundle"]["quote"])
    elif kind == "msr-mismatch":
        doc["anchors"]["to_measurement"] = harness.term_hex(Label("other_enclave_measurement"))
    elif kind == "data-mismatch":
        # vmdata ends with the guest's report counter.
        doc["bundle"]["vmdata"] = _flip_last_nibble(doc["bundle"]["vmdata"])
    else:
        raise ValueError(f"unknown verify case kind: {kind}")
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return (1, kind)


def verify_file(path: Path) -> tuple:
    """What `vmquote verify PATH` decides, minus argparse and printing."""
    try:
        bundle, intel_pk, to_msr = cli.load_bundle_file(path)
    except (OSError, ValueError, KeyError, TypeError):
        return (2, "malformed")
    verdict = relying_party.rp_verify_vm_quote(
        relying_party.VerificationInput(
            quote=bundle.quote,
            sgx_cert=bundle.sgx_cert,
            intel_pk=intel_pk,
            expected_to_msr=to_msr,
            pspid=bundle.pspid,
            vmmsr=bundle.vmmsr,
            vmdata=bundle.vmdata,
        )
    )
    return (0, None) if verdict.accept else (1, verdict.reason)


class Verify:
    """Load and verify one bundle file from a seeded, shuffled pool."""

    tail_percentile = 99

    def __init__(self, seed: int, workdir: Path, pool: int = VERIFY_POOL) -> None:
        self.cases = []
        for j in range(pool):
            kind = VERIFY_KINDS[j % len(VERIFY_KINDS)]
            path = workdir / f"case{j:04d}-{kind}.bundle.json"
            self.cases.append((path, write_verify_case(path, run_seed(seed, j), kind)))
        random.Random(seed).shuffle(self.cases)

    def op(self, i: int) -> bool:
        path, expected = self.cases[i % len(self.cases)]
        return verify_file(path) == expected


def fuzz_world(seed: int):
    """A fuzz_campaign run up to its checkers: fresh world, moves, closure."""
    world = harness.World(seed=seed)
    harness.fuzz_adversary(world, seed=seed, steps=FUZZ_STEPS, mask=harness.DEFAULT_MASK)
    world.knowledge.analyze()
    return world


class Fuzz40:
    """One fuzz_campaign run: a fresh world, 40 moves, closure, 3 checkers.

    `totals` sums what fuzz_campaign reports (matched and escaped per
    property, accepted verdicts) over the ops run so far.
    """

    tail_percentile = 95

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.totals: Counter = Counter()

    def op(self, i: int) -> bool:
        world = fuzz_world(run_seed(self.seed, i))
        holds = True
        for pid in harness.PROPERTY_IDS:
            res = harness.check_property(world.trace, pid, world.knowledge)
            self.totals[f"{pid}.matched"] += res.matched
            self.totals[f"{pid}.escaped"] += res.escaped
            holds = holds and res.holds
        self.totals["accepts"] += _accepted(world.trace)
        return holds


def _verdicts(results: dict) -> tuple:
    return tuple((pid, r.holds, r.matched, r.escaped) for pid, r in sorted(results.items()))


class Recheck:
    """Audit one recorded fuzz trace offline, from its JSONL text.

    The set-up records each trace with the verdicts of the live run;
    the offline audit must reproduce them.
    """

    tail_percentile = 95

    def __init__(self, seed: int, workdir: Path, pool: int = RECHECK_POOL) -> None:
        self.traces = []
        for j in range(pool):
            world = fuzz_world(run_seed(seed, j))
            live = harness.check_all(world.trace, world.knowledge)
            self.traces.append((world.trace.to_jsonl(), _verdicts(live)))

    def op(self, i: int) -> bool:
        text, expected = self.traces[i % len(self.traces)]
        trace = harness.Trace.from_jsonl(text)
        knowledge = harness.rebuild_knowledge(trace)
        knowledge.analyze()
        return _verdicts(harness.check_all(trace, knowledge)) == expected


WORKLOADS = {"honest": Honest, "verify": Verify, "fuzz40": Fuzz40, "recheck": Recheck}
