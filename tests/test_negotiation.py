"""Negotiating only across roles loses the adversary nothing.

The closure pairs a registered private only with the elements of the side
its own public element is not on: deploy-package elements when that public
is a certificate element, certificate elements when it is a deploy-package
element. Each recorded fuzz trace is rebuilt with that rule and with a
wider one, kept here as a test subclass:

- EveryAtomNegotiates pairs every private with every observed 32-byte
  atom, as Tamarin's DH theory lets the adversary do.
- AnyPrivateNegotiates pairs every private with every negotiation element,
  whichever side it is on (the rule the closure had before).

The extra exchanges must open nothing: the same hits, the same terms apart
from negotiation and derivation outputs, and the same verdict on every
provisioned channel key. Half the traces use the default mask, half a wide
one under which the designated PSP key and the AMD root can be stolen.
"""

from collections import Counter
from functools import lru_cache

import pytest

from vmquote import crypto
from vmquote.codec import Atom
from vmquote.crypto import Rng
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
from vmquote.sev import DeployPackage, amd_rot_certify, new_amd_rot

WIDE_MASK = parse_compromise_flags(["intel_rot", "amd_rot", "psp:designated", "qe:designated"])
MASKS = {"default": DEFAULT_MASK, "wide": WIDE_MASK}
TRACES_PER_MASK = 50


class EveryAtomNegotiates(AdversaryKnowledge):
    """Every registered private meets every observed 32-byte atom.

    An atom counts as observed whenever a rule other than negotiation or
    derivation adds it, whether or not it was already known.
    """

    _making = False

    def __init__(self) -> None:
        super().__init__()
        self._observed: set[bytes] = set()

    def _add(self, term) -> None:
        super()._add(term)
        if term.__class__ is Atom and not self._making:
            value = term.value
            if len(value) == crypto.KEY_LEN and value not in self._observed:
                self._observed.add(value)
                self._kx_stale = True

    def _peers(self, public: bytes) -> set[bytes]:
        return self._observed

    def _negotiate(self) -> None:
        self._making = True
        super()._negotiate()
        self._making = False

    def _derive(self) -> None:
        self._making = True
        super()._derive()
        self._making = False


class AnyPrivateNegotiates(AdversaryKnowledge):
    """Every registered private meets every negotiation element, either side's."""

    def _peers(self, public: bytes) -> set[bytes]:
        return self._deploy_elements | self._cert_elements


@lru_cache(maxsize=None)
def _traces(mask_id: str) -> tuple:
    traces = []
    for run_seed in range(TRACES_PER_MASK):
        world = World(seed=run_seed)
        traces.append(fuzz_adversary(world, seed=run_seed, steps=40, mask=MASKS[mask_id]))
    return tuple(traces)


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


def _compare(mask_id, wider, monkeypatch):
    """Rebuild every trace under both rules; the summed kx_pairs and trials of each."""
    provisioned = leaked = 0
    work = {"narrow": Counter(), "wide": Counter()}
    for run_seed, trace in enumerate(_traces(mask_id)):
        narrow = _analyzed(trace, AdversaryKnowledge, monkeypatch)
        wide = _analyzed(trace, wider, monkeypatch)
        assert narrow.hits == wide.hits, run_seed
        assert _observed(narrow) == _observed(wide), run_seed
        for cik in _channel_keys(trace):
            provisioned += 1
            leaked += narrow.derivable(cik, fresh=True)
            assert narrow.derivable(cik, fresh=True) == wide.derivable(cik, fresh=True), run_seed
        for side, know in (("narrow", narrow), ("wide", wide)):
            work[side].update(kx_pairs=know.kx_pairs, trials=know.trials)
    # the comparison means something: guests were provisioned, and channel
    # keys leaked exactly where the mask lets the designated PSP key go
    assert provisioned > 0
    assert (leaked > 0) == (mask_id == "wide")
    return work


@pytest.mark.parametrize("mask_id", MASKS)
def test_negotiation_elements_lose_nothing(mask_id, monkeypatch):
    work = _compare(mask_id, EveryAtomNegotiates, monkeypatch)
    assert work["narrow"]["kx_pairs"] < work["wide"]["kx_pairs"]


@pytest.mark.parametrize("mask_id", MASKS)
def test_cross_role_pairs_lose_nothing(mask_id, monkeypatch):
    work = _compare(mask_id, AnyPrivateNegotiates, monkeypatch)
    for counter in ("kx_pairs", "trials"):
        assert work["narrow"][counter] < work["wide"][counter]


def _cert(rng, public: bytes):
    return amd_rot_certify(new_amd_rot(rng), public).to_term()


def _deploy(go_public: bytes):
    return DeployPackage(go_public, b"blob", b"mac", Atom(b"code")).to_term()


def test_stolen_psp_private_meets_a_later_deploy_package():
    """A PSP private stolen before the owner deploys opens that deploy."""
    rng = Rng(201)
    psp = crypto.kx_keygen(rng)
    go = crypto.kx_keygen(rng)
    k = AdversaryKnowledge()
    k.observe(_cert(rng, psp.public))
    k.add_private_dh(psp.private)
    k.analyze()
    # its only peer would be its own certificate's element: the same side
    assert k.kx_pairs == 0
    k.observe(_deploy(go.public))
    k.analyze()
    assert k.kx_pairs == 1
    assert k.knows(Atom(crypto.shared_secret(go.public, psp.private)))


def test_own_deploy_key_meets_the_certificate_once_its_package_is_sent():
    """A key the adversary deploys with negotiates once its package is seen."""
    rng = Rng(202)
    psp = crypto.kx_keygen(rng)
    adv = crypto.kx_keygen(rng)
    k = AdversaryKnowledge()
    k.observe(_cert(rng, psp.public))
    k.add_private_dh(adv.private)
    k.observe(Atom(adv.public))
    k.analyze()
    assert k.kx_pairs == 0
    k.observe(_deploy(adv.public))
    k.analyze()
    assert k.kx_pairs == 1
    ss = crypto.shared_secret(psp.public, adv.private)
    assert k.knows(Atom(ss))
    for label in crypto.WRAP_KEY_LABELS:
        assert k.knows(Atom(crypto.derive_wrap_key(label, ss)))


def test_replayed_psp_public_as_owner_element():
    """A go_sn_pb replaced by the PSP's own public is on both sides."""
    rng = Rng(203)
    psp = crypto.kx_keygen(rng)
    k = AdversaryKnowledge()
    k.observe(_cert(rng, psp.public))
    k.observe(_deploy(psp.public))
    k.add_private_dh(psp.private)
    k.analyze()
    # what the PSP computes on receiving that package, exchanged once
    assert k.kx_pairs == 1
    assert k.knows(Atom(crypto.shared_secret(psp.public, psp.private)))
