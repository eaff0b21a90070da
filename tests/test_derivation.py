"""Deriving wrap keys only from negotiation outputs loses the adversary nothing.

The oracle (conftest.py) also derives both wrap keys from every observed
32-byte atom. Its extra keys must give the same verdict on every
provisioned channel key, while the closure tries fewer (blob, key) pairs.
"""

from vmquote.codec import Atom
from vmquote.harness.events import KIND_TRANSITION


def test_negotiation_outputs_lose_nothing(oracle_pool):
    mask_id, rebuilt = oracle_pool
    provisioned = leaked = 0
    for run_seed, (trace, closure, oracle) in enumerate(rebuilt):
        for ev in trace.of_kind(KIND_TRANSITION):
            if ev.body.get("label") == "owner_provision_vm":
                cik = Atom(bytes.fromhex(ev.body["cik"]))
                verdict = closure.derivable(cik, fresh=True)
                assert verdict == oracle.derivable(cik, fresh=True), run_seed
                provisioned += 1
                leaked += verdict
    # the comparison means something: guests were provisioned, channel
    # keys leaked exactly where the mask lets the designated PSP key go,
    # and the closure did less work than the oracle
    assert provisioned > 0
    assert (leaked > 0) == (mask_id == "wide")
    assert sum(c.trials for _, c, _ in rebuilt) < sum(o.trials for _, _, o in rebuilt)
