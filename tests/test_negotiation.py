"""Negotiating only with negotiation elements loses the adversary nothing.

Each recorded fuzz trace is rebuilt twice: with the closure as it is,
which pairs registered privates only with the public elements the PSP and
the owner feed to X25519, and with EveryAtomNegotiates, which pairs them
with every observed 32-byte atom, as Tamarin's DH theory lets the
adversary do. The extra exchanges must open nothing: the same hits, the
same terms apart from negotiation and derivation outputs, and the same
verdict on every provisioned channel key. Half the traces use the default
mask, half a wide one under which the designated PSP key and the AMD root
can be stolen.
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


class EveryAtomNegotiates(AdversaryKnowledge):
    """Every observed 32-byte atom is a public element.

    An atom counts as observed whenever a rule other than negotiation or
    derivation adds it, whether or not it was already known.
    """

    _making = False

    def _add(self, term) -> None:
        super()._add(term)
        if term.__class__ is Atom and not self._making:
            self._negotiation_element(term.value)

    def _negotiate(self) -> None:
        self._making = True
        super()._negotiate()
        self._making = False

    def _derive(self) -> None:
        self._making = True
        super()._derive()
        self._making = False


def _analyzed(trace, knowledge, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(properties, "AdversaryKnowledge", knowledge)
        know = rebuild_knowledge(trace)
    assert type(know) is knowledge
    know.analyze()
    return know


def _observed(know) -> set:
    """The terms learned, less negotiation outputs and the wrap keys derived from them."""
    made = set(know._kx_outputs)
    made.update(
        crypto.derive_wrap_key(label, ss)
        for ss in know._kx_outputs
        for label in crypto.WRAP_KEY_LABELS
    )
    return {t for t in know.terms_list() if t.__class__ is not Atom or t.value not in made}


def _channel_keys(trace) -> list:
    return [
        Atom(bytes.fromhex(ev.body["cik"]))
        for ev in trace.of_kind(KIND_TRANSITION)
        if ev.body.get("label") == "owner_provision_vm"
    ]


@pytest.mark.parametrize("mask", [DEFAULT_MASK, WIDE_MASK], ids=["default", "wide"])
def test_negotiation_elements_lose_nothing(mask, monkeypatch):
    provisioned = leaked = extra_pairs = 0
    for run_seed in range(TRACES_PER_MASK):
        world = World(seed=run_seed)
        trace = fuzz_adversary(world, seed=run_seed, steps=40, mask=mask)
        narrow = _analyzed(trace, AdversaryKnowledge, monkeypatch)
        every = _analyzed(trace, EveryAtomNegotiates, monkeypatch)
        assert narrow.hits == every.hits, run_seed
        assert _observed(narrow) == _observed(every), run_seed
        for cik in _channel_keys(trace):
            provisioned += 1
            leaked += narrow.derivable(cik, fresh=True)
            assert narrow.derivable(cik, fresh=True) == every.derivable(cik, fresh=True), run_seed
        extra_pairs += every.kx_pairs - narrow.kx_pairs
    # the comparison means something: guests were provisioned, channel
    # keys leaked exactly where the mask lets the designated PSP key go,
    # and the wider rule tried exchanges the narrow one skips
    assert provisioned > 0
    assert (leaked > 0) == (mask is WIDE_MASK)
    assert extra_pairs > 0
