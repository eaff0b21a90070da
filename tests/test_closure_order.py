"""The delta closure against the round-based closure it replaced.

RoundClosure below is the reference: every round rescans every known
term, rebuilds the key, blob and negotiation-element sets of each kind
by from_term alone, and skips the pairs it tried before, running to
fixpoint without a round cap.
The fuzz campaign samples terms_list(), so the delta closure must learn
the same terms in the same order, and compute the same negotiation
outputs, after every analyze, not just reach the same set.
"""

from hypothesis import example, given, settings
from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey
from hypothesis import strategies as st

from vmquote import crypto
from vmquote.codec import Atom, Label, MalformedEncoding, Tuple, decode, encode, to_hex
from vmquote.crypto import WRAP_KEY_LABELS, DecryptionFailure, InvalidPublicElement, Rng
from vmquote.harness import Event, World, fuzz_adversary
from vmquote.harness import world as world_mod
from vmquote.harness.events import FRESH_VALUE, KIND_ADVERSARY
from vmquote.harness.knowledge import _MIN_CIPHERTEXT, AdversaryKnowledge
from vmquote.sev import DeployPackage, SecretPackage, SevPlatformCert, TransportKeys


class RoundClosure:
    """Reference closure: full rescans each round, run to fixpoint."""

    def __init__(self) -> None:
        self._terms = {}
        # known atom payloads, in first-seen order
        self._atoms = {}
        self.dh_privates = {}
        self._kx_outputs = set()
        self._tried_kx = set()
        self._tried_dec = set()
        self._derived_from = set()
        self._keks = set()

    def observe(self, term) -> None:
        self._add(term)

    def add_private_dh(self, private: bytes) -> None:
        self.dh_privates.setdefault(private, None)
        self._add(Atom(private))

    def add_private_sig(self, private: bytes) -> None:
        self._add(Atom(private))

    def _add(self, term) -> bool:
        key = encode(term)
        if key in self._terms:
            return False
        self._terms[key] = term
        if isinstance(term, Atom):
            self._atoms[term.value] = None
        return True

    def terms_list(self) -> list:
        return list(self._terms.values())

    def analyze(self) -> None:
        while self._analyze_round():
            pass

    def _analyze_round(self) -> bool:
        added = False
        known = list(self._terms.values())
        for term in known:
            if isinstance(term, Tuple):
                for item in term.items:
                    added |= self._add(item)
            elif isinstance(term, Atom) and len(term.value) >= 5:
                try:
                    inner = decode(term.value)
                except MalformedEncoding:
                    pass
                else:
                    added |= self._add(inner)

        # what the PSP and the owner feed to X25519, in the tuples split so
        # far: each private meets the elements of the side its own public
        # element is not on; and the transport keys and the blobs of both
        # packages in those tuples
        deploy, cert, teks, blob_ds, blob_ps = set(), set(), set(), set(), set()
        for term in known:
            for message, name, elements in (
                (DeployPackage, "go_sn_pb", deploy),
                (SevPlatformCert, "psp_sn_pb", cert),
                (TransportKeys, "tek", teks),
                (DeployPackage, "blob_d", blob_ds),
                (SecretPackage, "blob_p", blob_ps),
            ):
                try:
                    elements.add(getattr(message.from_term(term), name))
                except ValueError:
                    pass
        atoms = list(self._atoms)
        for private in list(self.dh_privates):
            own = X25519PrivateKey.from_private_bytes(private).public_key().public_bytes_raw()
            for pub in atoms:
                crossed = (pub in deploy and own in cert) or (pub in cert and own in deploy)
                if len(pub) != 32 or not crossed or (pub, private) in self._tried_kx:
                    continue
                self._tried_kx.add((pub, private))
                try:
                    ss = crypto.shared_secret(pub, private)
                except InvalidPublicElement:
                    continue
                self._kx_outputs.add(ss)
                added |= self._add(Atom(ss))

        # wrap keys come from negotiation outputs only, each derived once;
        # of the two only the kek seals, the kik only MACs
        for a in list(self._atoms):
            if a in self._kx_outputs and a not in self._derived_from:
                self._derived_from.add(a)
                kek_label, kik_label = WRAP_KEY_LABELS
                kek = crypto.derive_wrap_key(kek_label, a)
                self._keks.add(kek)
                added |= self._add(Atom(kek))
                added |= self._add(Atom(crypto.derive_wrap_key(kik_label, a)))

        # a blob is tried only under a key of its kind: a kek on a blob_d,
        # a tek on a blob_p
        keys = [a for a in self._atoms if len(a) == 32 and (a in self._keks or a in teks)]
        blobs = [a for a in self._atoms if len(a) >= _MIN_CIPHERTEXT]
        for blob in blobs:
            for key in keys:
                kind = (key in self._keks and blob in blob_ds) or (key in teks and blob in blob_ps)
                if not kind or (blob, key) in self._tried_dec:
                    continue
                self._tried_dec.add((blob, key))
                try:
                    plain = crypto.decrypt(blob, key)
                except DecryptionFailure:
                    continue
                added |= self._add(plain)
        return added


class Mirrored(AdversaryKnowledge):
    """AdversaryKnowledge that feeds a RoundClosure the same inputs.

    After each analyze it records any difference in terms_list() order or
    in the negotiation outputs. Mismatches are collected, not raised, so
    that no caller can swallow them.
    """

    def __init__(self) -> None:
        super().__init__()
        self.reference = RoundClosure()
        self.analyses = 0
        self.mismatches: list[str] = []

    def observe(self, term) -> None:
        super().observe(term)
        self.reference.observe(term)

    def add_private_dh(self, private: bytes) -> None:
        super().add_private_dh(private)
        self.reference.add_private_dh(private)

    def add_private_sig(self, private: bytes) -> None:
        super().add_private_sig(private)
        self.reference.add_private_sig(private)

    def analyze(self) -> None:
        super().analyze()
        self.reference.analyze()
        self.analyses += 1
        mine = [encode(t) for t in self.terms_list()]
        theirs = [encode(t) for t in self.reference.terms_list()]
        if mine != theirs:
            first = next(
                (i for i, (a, b) in enumerate(zip(mine, theirs)) if a != b),
                min(len(mine), len(theirs)),
            )
            self.mismatches.append(
                f"analyze {self.analyses}: terms differ from index {first} "
                f"({len(mine)} vs {len(theirs)} terms)"
            )
        if self._kx_outputs != self.reference._kx_outputs:
            self.mismatches.append(f"analyze {self.analyses}: negotiation outputs differ")


def _mirrored_fuzz_worlds(monkeypatch, mask, seeds):
    monkeypatch.setattr(world_mod, "AdversaryKnowledge", Mirrored)
    for run_seed in seeds:
        world = World(seed=run_seed)
        fuzz_adversary(world, seed=run_seed, steps=40, mask=mask)
        world.knowledge.analyze()
        yield run_seed, world.knowledge


def test_fuzz_worlds_default_mask(monkeypatch, masks):
    for run_seed, know in _mirrored_fuzz_worlds(monkeypatch, masks["default"], range(30)):
        assert isinstance(know, Mirrored)
        assert know.mismatches == [], run_seed
        assert know.analyses >= 1


def test_fuzz_worlds_wide_mask(monkeypatch, masks):
    """Stolen roots and designated keys: leaks, forgeries, own keys."""
    for run_seed, know in _mirrored_fuzz_worlds(monkeypatch, masks["wide"], range(30)):
        assert know.mismatches == [], run_seed


def _pool():
    """Terms and privates that exercise every closure rule and ordering.

    Two blob_ps open under crossed keys, each sealing the transport-keys
    term that files the other's key, so key-major and blob-major trial
    order disagree; negotiation outputs and derived keys also appear as
    observed atoms and as plaintexts, before or after they are computed,
    and only a negotiation output derives keys, even one seen first. Only
    a kek opens a blob_d, so the blob_d sealed under a kik stays shut, and
    a blob sealed under a key of the other kind's field stays shut too.
    Transport keys appear bare as well, which files none of them. The
    blob_p sealed under a key the adversary mints (_FRESH) opens only once
    a transport-keys term names that key: minting files no key.
    pairs[0]'s public element goes out in a deploy package, pairs[1]'s and
    pairs[2]'s in platform certificates, and pairs[1]'s in a second deploy
    package too, as a replayed PSP public; pairs[3]'s is a bare tuple item
    only, so its private negotiates nothing.
    """
    rng = Rng(7)
    pairs = [crypto.kx_keygen(rng) for _ in range(4)]
    k1, k2, k3, k4 = (crypto.fresh_key(rng) for _ in range(4))
    tk1, tk2, tk3, tk4 = (
        TransportKeys(tek=tek, tik=crypto.fresh_key(rng)).to_term() for tek in (k1, k2, k3, k4)
    )
    ss_01 = crypto.shared_secret(pairs[1].public, pairs[0].private)
    ss_02 = crypto.shared_secret(pairs[2].public, pairs[0].private)
    kek_01 = crypto.derive_wrap_key(WRAP_KEY_LABELS[0], ss_01)
    kik_02 = crypto.derive_wrap_key(WRAP_KEY_LABELS[1], ss_02)
    secret = Atom(b"secret payload..")
    blob_a = crypto.encrypt(Tuple([Label("under_k1"), tk2]), k1, rng)
    blob_b = crypto.encrypt(Tuple([Label("under_k2"), tk1]), k2, rng)

    def deploy(pair, blob_d=b"blob"):
        return DeployPackage(pair.public, blob_d, b"mac", Atom(b"code")).to_term()

    def secret_package(blob_p):
        return SecretPackage(blob_p=blob_p, mac_p=b"mac").to_term()

    def cert(pair):
        return SevPlatformCert(psp_sn_pb=pair.public, sig_ar=b"sig").to_term()

    terms = [
        Atom(pairs[0].public),
        deploy(pairs[0]),
        cert(pairs[1]),
        Atom(pairs[2].private),
        tk1,
        tk2,
        Atom(ss_01),
        Atom(kek_01),
        Atom(kik_02),
        secret_package(blob_a),
        secret_package(blob_b),
        secret_package(crypto.encrypt(secret, k2, rng)),
        deploy(pairs[0], crypto.encrypt(tk3, kek_01, rng)),
        secret_package(crypto.encrypt(Atom(ss_02), k3, rng)),
        secret_package(crypto.encrypt(Atom(kik_02), k1, rng)),
        deploy(pairs[0], crypto.encrypt(Atom(encode(Tuple([Atom(k2), secret]))), kik_02, rng)),
        Tuple([Atom(blob_b), Atom(encode(Atom(k3)))]),
        Tuple([Atom(pairs[3].public), Tuple([Atom(ss_02), Label("x")])]),
        cert(pairs[2]),
        deploy(pairs[1]),
        Atom(k1),
        Atom(k4),
        secret_package(crypto.encrypt(Atom(b"under a minted key"), k4, rng)),
        tk4,
        deploy(pairs[0], crypto.encrypt(Atom(b"a tek's blob in blob_d"), k1, rng)),
        secret_package(crypto.encrypt(Atom(b"a kek's blob in blob_p"), kek_01, rng)),
    ]
    privates = [p.private for p in pairs]
    return terms, privates, [k4]


_TERMS, _PRIVATES, _FRESH = _pool()

_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("observe"), st.integers(0, len(_TERMS) - 1)),
        st.tuples(st.just("register"), st.integers(0, len(_PRIVATES) - 1)),
        st.tuples(st.just("mint"), st.integers(0, len(_FRESH) - 1)),
        st.tuples(st.just("analyze"), st.just(0)),
    ),
    max_size=24,
)


@given(ops=_OPS)
# blobs before keys, the later blob's key first: one decrypt phase opens
# both, and key-major order would learn the later blob's contents first
@example(ops=[("observe", 9), ("observe", 10), ("observe", 5), ("observe", 4)])
# a shared secret observed before the exchange that computes it still
# derives both wrap keys
@example(ops=[("observe", 6), ("analyze", 0), ("observe", 1), ("observe", 2), ("register", 0)])
# a private meets a certificate only once its own public element turns up
# in a deploy package
@example(ops=[("register", 0), ("observe", 2), ("analyze", 0), ("observe", 1)])
# a key the adversary mints, or sees in the clear, opens nothing until a
# transport-keys term names it
@example(ops=[("observe", 22), ("mint", 0), ("analyze", 0), ("observe", 23)])
@example(ops=[("observe", 22), ("observe", 21), ("mint", 0)])
# a key opens no blob in the other kind's field
@example(
    ops=[
        ("observe", 24),
        ("observe", 4),
        ("observe", 25),
        ("observe", 1),
        ("observe", 2),
        ("register", 0),
    ]
)
@settings(max_examples=150, deadline=None)
def test_interleavings_match_reference(ops):
    know = Mirrored()
    for op, idx in ops:
        if op == "observe":
            know.observe(_TERMS[idx])
        elif op == "register":
            know.add_private_dh(_PRIVATES[idx])
        elif op == "mint":
            term = to_hex(Atom(_FRESH[idx]))
            know.learn(Event(0, KIND_ADVERSARY, {"action": FRESH_VALUE, "term": term}))
        else:
            know.analyze()
    know.analyze()
    assert know.mismatches == []

