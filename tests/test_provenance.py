"""The closure learns the same with or without blob provenance.

crypto's provenance map only tells the closure which (blob, key) pairs
cannot open. Each fuzz world below runs three ways: with the map live,
with it emptied before every event is learned and before every closure
(as for a trace read in a fresh process), and with the map bounded to a
single entry. All three must learn the same terms in the same order, with
the same negotiation outputs and the same trial and hit counts. With the
map emptied, every covered pair of a sealing key is scanned except those
of the blobs the trace shows as fresh values. The sealing keys are found
here apart from the closure's own filing: the kek of each negotiation
output (its kik only MACs), the tek of each transport-keys term learned,
and each 32-byte fresh value the adversary minted.
"""

from vmquote import crypto
from vmquote.codec import Atom, encode
from vmquote.harness import World, fuzz_adversary
from vmquote.harness import world as world_mod
from vmquote.harness.events import FRESH_VALUE, KIND_ADVERSARY
from vmquote.harness.knowledge import _MIN_CIPHERTEXT, AdversaryKnowledge
from vmquote.sev import TransportKeys, wrap_keys


class Forgetful(AdversaryKnowledge):
    """Knowledge that never finds a blob in the provenance map."""

    def learn(self, event) -> None:
        crypto._provenance.clear()
        super().learn(event)

    def analyze(self) -> None:
        crypto._provenance.clear()
        super().analyze()


def _sealing_keys(know, minted) -> set:
    """The known keys some party can have sealed under."""
    keys = {wrap_keys(value)[0] for value in know._kx_outputs}
    keys.update(minted)
    for term in know.terms_list():
        try:
            keys.add(TransportKeys.from_term(term).tek)
        except ValueError:
            pass
    return {key for key in keys if len(key) == crypto.KEY_LEN and know.knows(Atom(key))}


def _closure(monkeypatch, mask, seed, knowledge=AdversaryKnowledge, bound=crypto._PROVENANCE_SIZE):
    monkeypatch.setattr(crypto, "_provenance", {})
    monkeypatch.setattr(crypto, "_PROVENANCE_SIZE", bound)
    monkeypatch.setattr(world_mod, "AdversaryKnowledge", knowledge)
    world = World(seed=seed)
    fuzz_adversary(world, seed=seed, steps=40, mask=mask)
    know = world.knowledge
    know.analyze()
    assert isinstance(know, knowledge)
    learned = (
        [encode(t) for t in know.terms_list()],
        sorted(know._kx_outputs),
        know.trials,
        know.hits,
    )
    atoms = [t.value for t in know.terms_list() if isinstance(t, Atom)]
    keys = sum(1 for a in atoms if len(a) == 32)
    blobs = sum(1 for a in atoms if len(a) >= _MIN_CIPHERTEXT)
    fresh = [
        ev.term("term").value
        for ev in world.trace.of_kind(KIND_ADVERSARY)
        if ev.get("action") == FRESH_VALUE
    ]
    fresh_blobs = sum(1 for value in fresh if len(value) >= _MIN_CIPHERTEXT)
    sealing = _sealing_keys(know, fresh)
    assert set(know._keys) == sealing, seed
    return learned, know.scanned, (keys, len(sealing), blobs, fresh_blobs)


def _check_worlds(monkeypatch, mask):
    saved = fresh = sealed = 0
    for seed in range(30):
        live, live_scanned, (keys, sealing, blobs, fresh_blobs) = _closure(monkeypatch, mask, seed)
        cleared, cleared_scanned, _ = _closure(monkeypatch, mask, seed, knowledge=Forgetful)
        tiny, tiny_scanned, _ = _closure(monkeypatch, mask, seed, bound=1)
        assert cleared == live, seed
        assert tiny == live, seed
        trials = live[2]
        assert trials == keys * blobs, seed
        assert cleared_scanned == sealing * (blobs - fresh_blobs), seed
        assert live_scanned <= tiny_scanned <= cleared_scanned < trials, seed
        saved += trials - live_scanned
        fresh += fresh_blobs
        sealed += sealing
    assert saved > 0
    assert fresh > 0
    assert sealed > 0


def test_fuzz_worlds_default_mask(monkeypatch, masks):
    _check_worlds(monkeypatch, masks["default"])


def test_fuzz_worlds_wide_mask(monkeypatch, masks):
    """Stolen roots and designated keys: leaks, forgeries, own keys."""
    _check_worlds(monkeypatch, masks["wide"])
