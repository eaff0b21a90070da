"""Bounded explicit Dolev-Yao adversary knowledge.

The adversary sees every term on the network plus the public bulletin,
and on top of that whatever private keys compromises hand it. Knowledge
grows by an analysis closure run to fixpoint:

- tuples are taken apart
- atoms whose payload parses as a term are decoded
- observed ciphertext atoms are trial-decrypted under every known 32-byte
  key
- key negotiation runs between observed 32-byte elements and the
  registered private elements (privates are an explicit registry: the
  adversary owns or stole them, it does not guess them out of atoms)
- wrap keys are derived from observed and negotiated 32-byte atoms, but
  derivation outputs are not fed back in; the honest key schedule never
  stacks derivations, so one layer is complete and keeps the closure
  polynomial

The closure is capped at 8 rounds; honest-schedule derivations need at
most five.

Derivability (synthesis) is goal-directed: a term is derivable when it is
known, is a Label (public vocabulary), is a Tuple of derivable parts, or
is an Atom carrying the encoding or the digest of something derivable.
Fresh atomic randomness is derivable only if it was actually learned,
which is exactly what the secrecy property asks about.
"""

from __future__ import annotations

from .. import crypto
from ..codec import Atom, Label, MalformedEncoding, Term, Tuple, decode, encode
from ..crypto import DecryptionFailure, InvalidPublicElement, WRAP_KEY_LABELS
from .events import ADVERSARY_VISIBLE

MAX_ROUNDS = 8

# Atom origins, in increasing privilege: derivation outputs never feed
# derivation again, negotiation outputs feed derivation only, observed
# atoms feed everything.
_KDF = 0
_KX = 1
_OBS = 2

_MIN_CIPHERTEXT = crypto.NONCE_LEN + 16 + 5


class AdversaryKnowledge:
    def __init__(self) -> None:
        self._terms: dict[bytes, Term] = {}
        self._atoms: dict[bytes, int] = {}
        self.dh_privates: dict[bytes, None] = {}
        self.sig_privates: dict[bytes, None] = {}
        self._tried_kx: set = set()
        self._tried_dec: set = set()
        self._derived_from: set = set()
        self._digests: set | None = None

    def learn(
        self, kind: str, term: Term | None, leak: bytes | None, leak_kind: str | None
    ) -> None:
        """The one rule from a trace event to adversary knowledge.

        The simulator applies it to every event it records and
        rebuild_knowledge to every event it decodes, so the two views
        agree by construction. Only send and adversary events count; a
        leaked private key is registered before the event's term is
        observed.
        """
        if kind not in ADVERSARY_VISIBLE:
            return
        if leak is not None:
            if leak_kind == "dh_private":
                self.add_private_dh(leak)
            else:
                self.add_private_sig(leak)
        if term is not None:
            self.observe(term)

    def observe(self, term: Term) -> None:
        """Record a term the adversary saw in the clear."""
        self._add(term, _OBS)

    def add_private_dh(self, private: bytes) -> None:
        """Register a key-negotiation private element (owned or stolen)."""
        self.dh_privates.setdefault(private, None)
        self._add(Atom(private), _OBS)

    def add_private_sig(self, private: bytes) -> None:
        """Register a signing private key (owned or stolen)."""
        self.sig_privates.setdefault(private, None)
        self._add(Atom(private), _OBS)

    def _add(self, term: Term, origin: int) -> bool:
        key = encode(term)
        fresh = key not in self._terms
        if fresh:
            self._terms[key] = term
            self._digests = None
        if isinstance(term, Atom):
            prev = self._atoms.get(term.value, -1)
            if origin > prev:
                self._atoms[term.value] = origin
                if prev >= 0:
                    # origin was widened; derivation gating may change
                    fresh = True
        return fresh

    def knows(self, term: Term) -> bool:
        return encode(term) in self._terms

    def terms_list(self) -> list:
        """All known terms in first-seen order (deterministic)."""
        return list(self._terms.values())

    def analyze(self) -> None:
        """Run the analysis closure to fixpoint (capped rounds)."""
        for _ in range(MAX_ROUNDS):
            if not self._analyze_round():
                break
        self._digests = None

    def _analyze_round(self) -> bool:
        added = False
        for term in list(self._terms.values()):
            if isinstance(term, Tuple):
                for item in term.items:
                    added |= self._add(item, _OBS)
            elif isinstance(term, Atom) and len(term.value) >= 5:
                try:
                    inner = decode(term.value)
                except MalformedEncoding:
                    pass
                else:
                    added |= self._add(inner, _OBS)

        atoms = list(self._atoms.items())
        pubs = [a for a, origin in atoms if origin == _OBS and len(a) == 32]
        for private in list(self.dh_privates):
            for pub in pubs:
                pair = (pub, private)
                if pair in self._tried_kx:
                    continue
                self._tried_kx.add(pair)
                try:
                    ss = crypto.shared_secret(pub, private)
                except InvalidPublicElement:
                    continue
                added |= self._add(Atom(ss), _KX)

        for a, origin in list(self._atoms.items()):
            if len(a) == 32 and origin >= _KX and a not in self._derived_from:
                self._derived_from.add(a)
                for label in WRAP_KEY_LABELS:
                    added |= self._add(Atom(crypto.derive_wrap_key(label, a)), _KDF)

        keys = [a for a in self._atoms if len(a) == 32]
        blobs = [a for a in self._atoms if len(a) >= _MIN_CIPHERTEXT]
        for blob in blobs:
            for key in keys:
                pair = (blob, key)
                if pair in self._tried_dec:
                    continue
                self._tried_dec.add(pair)
                try:
                    plain = crypto.decrypt(blob, key)
                except DecryptionFailure:
                    continue
                added |= self._add(plain, _OBS)
        return added

    def _digest_index(self) -> set:
        if self._digests is None:
            self._digests = {crypto.digest(t) for t in self._terms.values()}
        return self._digests

    def derivable(self, term: Term, _depth: int = 0) -> bool:
        """Goal-directed synthesis check against analyzed knowledge."""
        if _depth > MAX_ROUNDS:
            return False
        if isinstance(term, Label):
            return True
        if self.knows(term):
            return True
        if isinstance(term, Tuple):
            return all(self.derivable(i, _depth + 1) for i in term.items)
        if isinstance(term, Atom):
            if len(term.value) >= 5:
                try:
                    inner = decode(term.value)
                except MalformedEncoding:
                    pass
                else:
                    if self.derivable(inner, _depth + 1):
                        return True
            return term.value in self._digest_index()
        return False
