"""A blob is tried only under the keys of its field's kind, live and rebuilt alike.

The closure decides which (key, blob) pairs to scan from the messages
alone, and no process keeps a record of what it sealed. So the view the
simulator closed while the run went on learns what a rebuild of its
trace learns, with the same counters, and a rebuild in a fresh process
learns the same terms in the same order as one in the recording process.
The live view may learn in another order: the fuzzer closes it between
steps, and a rebuild closes it once.

The keys and blobs of each kind are found here apart from the closure's
own filing: the kek of each negotiation output (its kik only MACs)
against the blob_d of each deploy package learned, and the tek of each
transport-keys term learned against the blob_p of each secret package
learned.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import vmquote
from vmquote import crypto
from vmquote.codec import encode
from vmquote.harness import (
    SCENARIOS,
    Trace,
    World,
    fuzz_adversary,
    rebuild_knowledge,
    run_scenario_world,
)
from vmquote.harness.knowledge import _MIN_CIPHERTEXT, CLOSURE_COUNTERS
from vmquote.sev import DeployPackage, SecretPackage, TransportKeys, wrap_keys

from conftest import POOL_SEEDS, POOL_STEPS

# Rebuilds each trace file named on the command line and prints, one line
# each, the digest of its closed knowledge's terms in order and its scanned.
_AUDIT = """
import hashlib, sys
from vmquote.codec import encode
from vmquote.harness import Trace, rebuild_knowledge
for path in sys.argv[1:]:
    know = rebuild_knowledge(Trace.from_jsonl(open(path).read()))
    know.analyze()
    terms = hashlib.sha256(b"".join(encode(t) for t in know.terms_list())).hexdigest()
    print(terms, know.scanned)
"""


def _fields(know, message, name, sized) -> set:
    """The field name of every learned term message.from_term accepts, when sized."""
    values = set()
    for term in know.terms_list():
        try:
            value = getattr(message.from_term(term), name)
        except ValueError:
            continue
        if sized(len(value)):
            values.add(value)
    return values


def _kinds(know) -> tuple:
    """((keks, blob_ds), (teks, blob_ps)) of a closed knowledge, found by from_term."""
    keks = {wrap_keys(value)[0] for value in know._kx_outputs}
    blob_ds = _fields(know, DeployPackage, "blob_d", _MIN_CIPHERTEXT.__le__)
    teks = _fields(know, TransportKeys, "tek", crypto.KEY_LEN.__eq__)
    blob_ps = _fields(know, SecretPackage, "blob_p", _MIN_CIPHERTEXT.__le__)
    return (keks, blob_ds), (teks, blob_ps)


def _counters(know) -> tuple:
    """The closure counters a fixpoint fixes: all but rounds, and scanned."""
    return tuple(getattr(know, name) for name in CLOSURE_COUNTERS[1:]) + (know.scanned,)


def test_live_and_rebuilt_scan_each_kind(oracle_pool, masks, tmp_path):
    mask_id, rebuilt = oracle_pool
    totals = [0, 0]
    paths, audited = [], []
    for seed, (trace, cold, _) in zip(POOL_SEEDS, rebuilt):
        world = World(seed=seed)
        fuzz_adversary(world, seed=seed, steps=POOL_STEPS, mask=masks[mask_id])
        assert world.trace.to_jsonl() == trace.to_jsonl(), seed
        live = world.knowledge
        live.analyze()
        learned = [encode(t) for t in cold.terms_list()]
        assert sorted(encode(t) for t in live.terms_list()) == sorted(learned), seed
        assert _counters(live) == _counters(cold), seed
        assert live._kx_outputs == cold._kx_outputs, seed
        kinds = _kinds(cold)
        for i, ((keys, blobs), kind) in enumerate(zip(kinds, (cold._kek, cold._tek))):
            assert (set(kind.keys), set(kind.blobs)) == (keys, blobs), (seed, i)
            totals[i] += len(keys) * len(blobs)
        assert cold.scanned == sum(len(keys) * len(blobs) for keys, blobs in kinds), seed
        assert cold.scanned < cold.trials, seed
        paths.append(tmp_path / f"{seed}.trace.jsonl")
        paths[-1].write_text(trace.to_jsonl())
        audited.append(f"{hashlib.sha256(b''.join(learned)).hexdigest()} {cold.scanned}")
    # both kinds were scanned
    assert all(totals)
    src = str(Path(vmquote.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run(
        [sys.executable, "-c", _AUDIT, *map(str, paths)],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    assert run.stdout.splitlines() == audited


def test_scenario_closures_scan_each_kind():
    """Each scenario's live view and the rebuild of its trace file by kind alike."""
    totals = [0, 0]
    for name in SCENARIOS:
        world, _ = run_scenario_world(name, seed=0)
        live = world.knowledge
        live.analyze()
        cold = rebuild_knowledge(Trace.from_jsonl(world.trace.to_jsonl()))
        cold.analyze()
        learned = sorted(encode(t) for t in cold.terms_list())
        assert sorted(encode(t) for t in live.terms_list()) == learned, name
        assert _counters(live) == _counters(cold), name
        kinds = _kinds(cold)
        for i, ((keys, blobs), kind) in enumerate(zip(kinds, (cold._kek, cold._tek))):
            assert (set(kind.keys), set(kind.blobs)) == (keys, blobs), (name, i)
            totals[i] += len(keys) * len(blobs)
        assert cold.scanned == sum(len(keys) * len(blobs) for keys, blobs in kinds), name
    # both kinds were scanned
    assert all(totals)
