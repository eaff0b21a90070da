"""Fuzz masks, the recorded fuzz-trace pool and the Dolev-Yao oracle the closure tests share.

The pool is recorded once per session and read only, and so is its
rebuild under the closure and the oracle: no test changes a trace or a
rebuilt knowledge.
"""

import pytest

from vmquote import crypto
from vmquote.codec import Atom
from vmquote.harness import (
    DEFAULT_MASK,
    World,
    fuzz_adversary,
    parse_compromise_flags,
    properties,
    rebuild_knowledge,
)
from vmquote.harness.knowledge import _MIN_CIPHERTEXT, AdversaryKnowledge
from vmquote.sev import wrap_keys

#: Under the wide mask both roots, the designated PSP key and the
#: designated QE key can be stolen.
MASKS = {
    "default": DEFAULT_MASK,
    "wide": parse_compromise_flags(["intel_rot", "amd_rot", "psp:designated", "qe:designated"]),
}
POOL_SEEDS = range(50)
POOL_STEPS = 40


@pytest.fixture(scope="session")
def masks() -> dict:
    """Mask id -> compromise mask, for tests that fuzz their own live worlds."""
    return MASKS


@pytest.fixture(scope="session", params=list(MASKS))
def fuzz_pool(request) -> tuple:
    """(mask id, the traces of fuzz runs 0-49 at 40 steps under that mask)."""
    mask = MASKS[request.param]
    traces = tuple(
        fuzz_adversary(World(seed=seed), seed=seed, steps=POOL_STEPS, mask=mask)
        for seed in POOL_SEEDS
    )
    return request.param, traces


class DolevYaoWide(AdversaryKnowledge):
    """Every observed 32-byte atom is a peer of every private and derives wrap keys.

    This is the widest rule the closure is compared with, as Tamarin's DH
    theory lets the adversary exponentiate any term. An atom counts as
    observed whenever a rule other than negotiation or derivation adds
    it, whether or not it was already known. Negotiation outputs derive
    both wrap keys too. Derivation outputs are never fed back in, so
    there is one layer of derivation, as in the closure. derived_from
    holds every atom the rule has derived from. Every known 32-byte atom
    is a sealing key of both kinds, and every known ciphertext-sized atom
    a blob of both kinds, so each blob is tried under every key.
    """

    _making = False

    def __init__(self) -> None:
        super().__init__()
        self._observed: set[bytes] = set()
        self.derived_from: set[bytes] = set()

    def _add(self, term) -> None:
        super()._add(term)
        if term.__class__ is not Atom:
            return
        value = term.value
        if len(value) == crypto.KEY_LEN or len(value) >= _MIN_CIPHERTEXT:
            for kind in self._kinds:
                kind.file(value)
        if len(value) == crypto.KEY_LEN and not self._making and value not in self._observed:
            self._observed.add(value)
            self._kx_stale = True
            self._new_outputs.append(value)

    def _peers(self, public: bytes) -> set[bytes]:
        return self._observed

    def _negotiate(self) -> None:
        self._making = True
        super()._negotiate()
        self._making = False

    def _derive(self) -> None:
        fresh = [v for v in dict.fromkeys(self._new_outputs) if v not in self.derived_from]
        self.derived_from.update(fresh)
        self._new_outputs = fresh
        self._making = True
        super()._derive()
        self._making = False


def _observed(know) -> set:
    """The terms know learned, less negotiation outputs and the wrap keys it derived."""
    derived_from = know.derived_from if isinstance(know, DolevYaoWide) else know._kx_outputs
    made = set(know._kx_outputs)
    made.update(key for value in derived_from for key in wrap_keys(value))
    return {t for t in know.terms_list() if t.__class__ is not Atom or t.value not in made}


def _rebuilt(trace, knowledge):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(properties, "AdversaryKnowledge", knowledge)
        know = rebuild_knowledge(trace)
        know.analyze()
    assert type(know) is knowledge
    return know


@pytest.fixture(scope="session")
def observed():
    """The function from a closed knowledge to the terms it observed or opened.

    Negotiation outputs and the wrap keys derived are left out: the oracle
    makes more of them than the closure, and they seal nothing more.
    """
    return _observed


@pytest.fixture(scope="session")
def oracle_pool(fuzz_pool) -> tuple:
    """(mask id, (trace, closure, oracle) for each pool trace), both rebuilt and closed."""
    mask_id, traces = fuzz_pool
    return mask_id, tuple(
        (trace, _rebuilt(trace, AdversaryKnowledge), _rebuilt(trace, DolevYaoWide))
        for trace in traces
    )
