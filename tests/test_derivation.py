"""Deriving wrap keys only from negotiation outputs loses the adversary nothing.

Each recorded fuzz trace is rebuilt twice: with the closure as it is,
which derives both wrap keys from each X25519 output it computes and from
nothing else, and with EveryAtomDerives, which also derives them from
every observed 32-byte atom (digests, tags, public keys, fresh values), as
the closure once did. The extra keys must open nothing: the same hits,
the same terms apart from derivation outputs, and the same verdict on
every provisioned channel key, while the narrow rule covers strictly fewer
(blob, key) pairs. Half the traces use the default mask, half a wide one
under which the designated PSP key and the AMD root can be stolen.
"""

import pytest

from vmquote import crypto
from vmquote.codec import Atom
from vmquote.harness import (
    DEFAULT_MASK,
    World,
    fuzz_adversary,
    parse_compromise_flags,
    rebuild_knowledge,
)
from vmquote.harness import properties
from vmquote.harness.events import KIND_TRANSITION
from vmquote.harness.knowledge import AdversaryKnowledge

WIDE_MASK = parse_compromise_flags(["intel_rot", "amd_rot", "psp:designated", "qe:designated"])
TRACES_PER_MASK = 50


class EveryAtomDerives(AdversaryKnowledge):
    """Every observed 32-byte atom derives both wrap keys too.

    An atom counts as observed whenever a rule other than derivation adds
    it, whether or not it was already known. derived_from holds every atom
    the rule has derived from, negotiation outputs included.
    """

    def __init__(self) -> None:
        super().__init__()
        self.derived_from: set[bytes] = set()
        self._deriving = False

    def _add(self, term) -> None:
        super()._add(term)
        if term.__class__ is Atom and len(term.value) == 32 and not self._deriving:
            self._new_outputs.append(term.value)

    def _derive(self) -> None:
        fresh = [v for v in dict.fromkeys(self._new_outputs) if v not in self.derived_from]
        self.derived_from.update(fresh)
        self._new_outputs = fresh
        self._deriving = True
        super()._derive()
        self._deriving = False


def _analyzed(trace, knowledge, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(properties, "AdversaryKnowledge", knowledge)
        know = rebuild_knowledge(trace)
    assert type(know) is knowledge
    know.analyze()
    return know


def _observed(know, derived_from) -> set:
    """The terms learned, less the wrap keys derived from derived_from."""
    made = {
        crypto.derive_wrap_key(label, value)
        for value in derived_from
        for label in crypto.WRAP_KEY_LABELS
    }
    return {t for t in know.terms_list() if t.__class__ is not Atom or t.value not in made}


def _channel_keys(trace) -> list:
    return [
        Atom(bytes.fromhex(ev.body["cik"]))
        for ev in trace.of_kind(KIND_TRANSITION)
        if ev.body.get("label") == "owner_provision_vm"
    ]


@pytest.mark.parametrize("mask", [DEFAULT_MASK, WIDE_MASK], ids=["default", "wide"])
def test_negotiation_outputs_lose_nothing(mask, monkeypatch):
    provisioned = leaked = narrow_trials = every_trials = 0
    for run_seed in range(TRACES_PER_MASK):
        world = World(seed=run_seed)
        trace = fuzz_adversary(world, seed=run_seed, steps=40, mask=mask)
        narrow = _analyzed(trace, AdversaryKnowledge, monkeypatch)
        every = _analyzed(trace, EveryAtomDerives, monkeypatch)
        assert narrow.hits == every.hits, run_seed
        observed = _observed(narrow, narrow._kx_outputs)
        assert observed == _observed(every, every.derived_from), run_seed
        for cik in _channel_keys(trace):
            provisioned += 1
            leaked += narrow.derivable(cik, fresh=True)
            assert narrow.derivable(cik, fresh=True) == every.derivable(cik, fresh=True), run_seed
        narrow_trials += narrow.trials
        every_trials += every.trials
    # the comparison means something: guests were provisioned, channel
    # keys leaked exactly where the mask lets the designated PSP key go,
    # and the narrow rule covered fewer pairs than the wide one
    assert provisioned > 0
    assert (leaked > 0) == (mask is WIDE_MASK)
    assert narrow_trials < every_trials
