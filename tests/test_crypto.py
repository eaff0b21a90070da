"""Crypto layer invariants, run at the sample sizes the checks promise."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest
from cryptography.exceptions import InvalidSignature
from hypothesis import given, settings
from hypothesis import strategies as st
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PublicKey
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey
from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey, X25519PublicKey

import vmquote
from vmquote import crypto
from vmquote.codec import Atom, Label, Tuple, encode
from vmquote.harness import run_scenario_world
from vmquote.crypto import (
    KEY_LEN,
    NONCE_LEN,
    WRAP_KEY_LABELS,
    DecryptionFailure,
    InvalidPublicElement,
    Rng,
    UnknownDerivationLabel,
    decrypt,
    derive_wrap_key,
    digest,
    encrypt,
    fresh_key,
    kx_keygen,
    kx_public,
    mac,
    shared_secret,
    sig_keygen,
    sign,
    verify,
    verify_mac,
)

# Derivation vectors frozen from an independent reimplementation
# (SHA-256 over the encoded (label, secret) pair) before this module existed.
KEK_VECTOR = "320afd92afe9f5b997db34496cd3f72e34d6dadbf096e287f21d4de9ac43d049"
KIK_VECTOR = "e48e4827f5d97b1cf29c32e97a81775c21bdcb38c825dfae1a97f288f04e61d5"


class TestDerivation:
    def test_kek_vector(self):
        assert derive_wrap_key(Label("sev_kek"), bytes(32)).hex() == KEK_VECTOR

    def test_kik_vector(self):
        assert derive_wrap_key(Label("sev_kik"), bytes(32)).hex() == KIK_VECTOR

    def test_matches_explicit_construction(self):
        sd = bytes(range(32))
        expected = digest(Tuple([Label("sev_kek"), Atom(sd)]))
        assert derive_wrap_key(Label("sev_kek"), sd) == expected

    def test_matches_explicit_construction_any_length(self):
        for n in (0, 1, 31, 33, 300):
            sd = bytes(i % 256 for i in range(n))
            for label in WRAP_KEY_LABELS:
                assert derive_wrap_key(label, sd) == digest(Tuple([label, Atom(sd)]))

    def test_unknown_label_rejected(self):
        with pytest.raises(UnknownDerivationLabel):
            derive_wrap_key(Label("sev_kok"), bytes(32))

    def test_label_registry(self):
        assert Label("sev_kek") in WRAP_KEY_LABELS
        assert Label("sev_kik") in WRAP_KEY_LABELS
        assert len(WRAP_KEY_LABELS) == 2

    def test_domain_separation_1000(self):
        rng = Rng(11)
        for _ in range(1000):
            sd = rng.bytes(32)
            assert derive_wrap_key(Label("sev_kek"), sd) != derive_wrap_key(
                Label("sev_kik"), sd
            )


def _random_payload_term(rng: Rng, depth: int = 0):
    kind = rng.randrange(3) if depth < 3 else 0
    if kind == 0:
        return Atom(rng.bytes(rng.randrange(48)))
    if kind == 1:
        return Label(
            "".join(rng.choice("abcdefghijklmnop_") for _ in range(1 + rng.randrange(9)))
        )
    return Tuple([_random_payload_term(rng, depth + 1) for _ in range(rng.randrange(4))])


class TestSignatures:
    def test_correctness_and_cross_key_1000(self):
        rng = Rng(12)
        pair_a = sig_keygen(rng)
        pair_b = sig_keygen(rng)
        for _ in range(1000):
            term = _random_payload_term(rng)
            s = sign(term, pair_a.private)
            assert verify(term, s, pair_a.public)
            assert _reference_verify(term, s, pair_a.public)
            assert not verify(term, s, pair_b.public)

    def test_tampered_message_rejected(self):
        pair = sig_keygen(Rng(13))
        s = sign(Atom(b"attested payload"), pair.private)
        assert not verify(Atom(b"attested payloaD"), s, pair.public)

    def test_garbage_signature_never_raises(self):
        rng = Rng(14)
        pair = sig_keygen(rng)
        term = Atom(b"m")
        assert verify(term, b"", pair.public) is False
        assert verify(term, b"\x00" * 64, pair.public) is False
        assert verify(term, rng.bytes(7), pair.public) is False
        assert verify(term, sign(term, pair.private), b"\x01" * 5) is False
        deep = term
        for _ in range(5000):  # nested past the recursion limit: encode cannot finish
            deep = Tuple([deep])
        assert verify(deep, bytes(64), pair.public) is False
        assert verify(deep, bytes(64), b"\x01" * 5) is False


class TestKeyExchange:
    def test_commutativity_1000(self):
        rng = Rng(15)
        for _ in range(1000):
            a = kx_keygen(rng)
            b = kx_keygen(rng)
            assert shared_secret(b.public, a.private) == shared_secret(a.public, b.private)

    def test_distinct_partners_distinct_secrets(self):
        rng = Rng(16)
        a = kx_keygen(rng)
        b = kx_keygen(rng)
        c = kx_keygen(rng)
        assert shared_secret(b.public, a.private) != shared_secret(c.public, a.private)

    def test_zero_public_element_rejected(self):
        a = kx_keygen(Rng(17))
        with pytest.raises(InvalidPublicElement):
            shared_secret(bytes(32), a.private)

    def test_short_public_element_rejected(self):
        a = kx_keygen(Rng(17))
        with pytest.raises(InvalidPublicElement):
            shared_secret(b"\x05" * 16, a.private)


# X25519 elements of small order: each exchange yields all zeros, or the
# element is out of range; the library refuses every one.
_LOW_ORDER = [
    bytes(32),
    b"\x01" + bytes(31),
    bytes.fromhex("e0eb7a7c3b41b8ae1656e3faf19fc46ada098deb9c32b1fd866205165f49b800"),
    bytes.fromhex("5f9c95bca3508c24b1d0b1559c83ef5b04445cc4581c8e86d8224eddd09f1157"),
    b"\xec" + b"\xff" * 30 + b"\x7f",
    b"\xed" + b"\xff" * 30 + b"\x7f",
    b"\xee" + b"\xff" * 30 + b"\x7f",
]


def _reference_verify(term, signature, public) -> bool:
    """verify without the memo, straight from the library."""
    try:
        Ed25519PublicKey.from_public_bytes(public).verify(signature, encode(term))
        return True
    except (InvalidSignature, ValueError, TypeError):
        return False


def _reference_exchange(public, private):
    """shared_secret without the memo: the output, or the exception type."""
    try:
        pk = X25519PublicKey.from_public_bytes(public)
        return X25519PrivateKey.from_private_bytes(private).exchange(pk)
    except (ValueError, TypeError):
        return InvalidPublicElement


def _exchange(public, private):
    try:
        return shared_secret(public, private)
    except InvalidPublicElement:
        return InvalidPublicElement


class TestMemo:
    """verify and shared_secret answer repeats from a memo; no result may change."""

    def test_verify_matches_the_library_on_random_and_hostile_inputs(self):
        rng = Rng(40)
        pairs = [sig_keygen(rng) for _ in range(3)]
        cases = []
        for _ in range(300):
            term = _random_payload_term(rng)
            signer, checker = rng.choice(pairs), rng.choice(pairs)
            sig = sign(term, signer.private)
            cases.append((term, sig, checker.public))
            cases.append((term, rng.bytes(64), checker.public))
        hostile_sigs = [b"", bytes(64), b"\xff" * 64, rng.bytes(63), rng.bytes(65), None, "sig"]
        hostile_pubs = [b"", bytes(32), b"\xff" * 32, rng.bytes(31), None, "pub", 7]
        term, sig = Atom(b"m"), sign(Atom(b"m"), pairs[0].private)
        cases += [(term, s, pairs[0].public) for s in hostile_sigs]
        cases += [(term, sig, p) for p in hostile_pubs]
        cases.append((object(), sig, pairs[0].public))
        for _ in range(2):  # the second pass answers from the memo where it can
            for term, sig, public in cases:
                assert verify(term, sig, public) is _reference_verify(term, sig, public)

    def test_cached_success_does_not_admit_a_tampered_check(self):
        pair = sig_keygen(Rng(41))
        term = Tuple([Label("quote"), Atom(b"attested payload")])
        sig = sign(term, pair.private)
        assert verify(term, sig, pair.public)
        assert verify(term, sig, pair.public)
        assert not verify(Tuple([Label("quote"), Atom(b"attested payloaD")]), sig, pair.public)
        for i in (0, 31, 63):
            flipped = bytearray(sig)
            flipped[i] ^= 1
            assert not verify(term, bytes(flipped), pair.public)
        assert not verify(term, sig, sig_keygen(Rng(42)).public)
        assert verify(term, sig, pair.public)

    def test_exchange_matches_the_library_on_random_and_hostile_inputs(self):
        rng = Rng(43)
        privates = [kx_keygen(rng).private for _ in range(4)]
        publics = [kx_keygen(rng).public for _ in range(20)] + [rng.bytes(32) for _ in range(20)]
        publics += _LOW_ORDER + [b"", rng.bytes(31), rng.bytes(33), None, "pub"]
        hostile_privates = [b"", rng.bytes(31), None]
        cases = [(pub, priv) for pub in publics for priv in privates]
        cases += [(publics[0], priv) for priv in hostile_privates]
        for _ in range(2):
            for public, private in cases:
                assert _exchange(public, private) == _reference_exchange(public, private)

    def test_degenerate_elements_raise_on_every_call(self):
        private = kx_keygen(Rng(44)).private
        for element in _LOW_ORDER:
            for _ in range(3):
                with pytest.raises(InvalidPublicElement):
                    shared_secret(element, private)

    def test_unhashable_arguments_skip_the_memo(self):
        """A bytearray or a memoryview gives what it gave before the memo, on every call."""
        rng = Rng(45)
        pair, kx_a, kx_b = sig_keygen(rng), kx_keygen(rng), kx_keygen(rng)
        term = Atom(b"bytes-like")
        sig = sign(term, pair.private)
        secret = shared_secret(kx_a.public, kx_b.private)
        for _ in range(2):
            assert verify(term, bytearray(sig), pair.public) is True
            assert verify(term, bytearray(sig[:-1] + b"\x00"), pair.public) is False
            assert verify(term, sig, bytearray(pair.public)) is False
            assert _exchange(bytearray(kx_b.public), kx_a.private) is InvalidPublicElement
            assert _exchange(kx_b.public, bytearray(kx_a.private)) is InvalidPublicElement
            assert _exchange(memoryview(kx_b.public), kx_a.private) is InvalidPublicElement
            assert shared_secret(kx_b.public, memoryview(kx_a.private)) == secret
            assert verify(term, sig, memoryview(pair.public)) is False
            writable = memoryview(bytearray(kx_b.public))
            assert _exchange(writable, kx_a.private) is InvalidPublicElement
            assert verify(term, memoryview(bytearray(sig)), pair.public) is True
            assert verify(term, sig, memoryview(bytearray(pair.public))) is False

    def test_memo_never_exceeds_its_bound(self):
        rng = Rng(46)
        pair, kx = sig_keygen(rng), kx_keygen(rng)
        for _ in range(3 * crypto._KEY_CACHE_SIZE):
            term = Atom(rng.bytes(8))
            verify(term, sign(term, pair.private), pair.public)
            shared_secret(kx_keygen(rng).public, kx.private)
            assert len(crypto._verified) <= crypto._KEY_CACHE_SIZE
            assert len(crypto._exchanged) <= crypto._KEY_CACHE_SIZE
        assert len(crypto._verified) == crypto._KEY_CACHE_SIZE
        assert len(crypto._exchanged) == crypto._KEY_CACHE_SIZE


class TestKeyCaches:
    """Each cached private key carries its public key, computed when loaded.

    The public sig_keygen returns, the one kx_public returns and the one
    sign files in the verify memo must equal the library's, for every
    key and again after the key was evicted and reloaded.
    """

    def test_publics_equal_the_library_across_an_eviction(self):
        crypto._sig_private.cache_clear()
        crypto._kx_private.cache_clear()
        rng = Rng(47)
        keys = []
        for n in range(crypto._KEY_CACHE_SIZE + 1):
            pair = sig_keygen(rng)
            private = pair.private
            sig_public = (
                Ed25519PrivateKey.from_private_bytes(private).public_key().public_bytes_raw()
            )
            kx_lib = X25519PrivateKey.from_private_bytes(private).public_key().public_bytes_raw()
            assert pair.public == sig_public, n
            assert kx_public(private) == kx_lib, n
            term = Atom(rng.bytes(8))
            sig = sign(term, private)
            assert next(reversed(crypto._verified)) == (sig_public, encode(term), sig), n
            assert crypto._verified[(sig_public, encode(term), sig)] is True
            keys.append((private, sig_public, kx_lib))
        assert crypto._sig_private.cache_info().currsize == crypto._KEY_CACHE_SIZE
        assert crypto._kx_private.cache_info().currsize == crypto._KEY_CACHE_SIZE
        # the first key was evicted from both caches: each call below reloads it
        private, sig_public, kx_lib = keys[0]
        sig_misses = crypto._sig_private.cache_info().misses
        kx_misses = crypto._kx_private.cache_info().misses
        term = Atom(b"after eviction")
        sig = sign(term, private)
        assert crypto._verified[(sig_public, encode(term), sig)] is True
        assert kx_public(private) == kx_lib
        assert crypto._sig_private.cache_info().misses == sig_misses + 1
        assert crypto._kx_private.cache_info().misses == kx_misses + 1
        assert verify(term, sig, sig_public)

    @pytest.mark.parametrize("length", [KEY_LEN - 1, KEY_LEN + 1])
    def test_kx_public_rejects_a_private_of_the_wrong_length(self, length):
        for _ in range(2):
            with pytest.raises(ValueError):
                kx_public(b"\x09" * length)

    def test_zero_element_raises_with_the_private_cached(self):
        a = kx_keygen(Rng(48))
        assert kx_public(a.private) == a.public
        for _ in range(2):
            with pytest.raises(InvalidPublicElement):
                shared_secret(bytes(32), a.private)


@pytest.fixture
def library_verifies(monkeypatch):
    """The public keys of every Ed25519 check crypto hands to the library."""
    calls = []
    real = crypto.Ed25519PublicKey

    class Counting:
        @staticmethod
        def from_public_bytes(data):
            calls.append(data)
            return real.from_public_bytes(data)

    monkeypatch.setattr(crypto, "Ed25519PublicKey", Counting)
    return calls


def _flip_byte(blob: bytes, i: int) -> bytes:
    flipped = bytearray(blob)
    flipped[i] ^= 1
    return bytes(flipped)


class TestSignatureEquation:
    """verify(sign(m, sk), m, pk(sk)) = true: sign records its own verdict."""

    TERM = Tuple([Label("quote"), Atom(b"attested payload")])
    OTHER_TERM = Tuple([Label("quote"), Atom(b"attested payloaD")])

    def test_own_signature_verifies_without_the_library(self, library_verifies):
        pair = sig_keygen(Rng(50))
        sig = sign(self.TERM, pair.private)
        assert verify(self.TERM, sig, pair.public)
        assert verify(self.TERM, sig, pair.public)
        assert library_verifies == []

    @pytest.mark.parametrize(
        "tamper",
        [
            lambda term, sig, public: (TestSignatureEquation.OTHER_TERM, sig, public),
            lambda term, sig, public: (term, _flip_byte(sig, 0), public),
            lambda term, sig, public: (term, _flip_byte(sig, 31), public),
            lambda term, sig, public: (term, _flip_byte(sig, 63), public),
            lambda term, sig, public: (term, sig, sig_keygen(Rng(52)).public),
        ],
        ids=["message", "sig-byte-0", "sig-byte-31", "sig-byte-63", "other-key"],
    )
    def test_each_tampered_check_runs_the_library_once(self, library_verifies, tamper):
        pair = sig_keygen(Rng(51))
        sig = sign(self.TERM, pair.private)
        term, bad_sig, public = tamper(self.TERM, sig, pair.public)
        assert not verify(term, bad_sig, public)
        assert library_verifies == [public]
        assert verify(self.TERM, sig, pair.public)
        assert library_verifies == [public]

    def test_signature_from_another_process_runs_the_library_once(self, library_verifies):
        script = (
            "from vmquote.codec import Atom\n"
            "from vmquote.crypto import Rng, sig_keygen, sign\n"
            "print(sign(Atom(b'signed elsewhere'), sig_keygen(Rng(53)).private).hex())\n"
        )
        src = str(Path(vmquote.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        run = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
        )
        sig = bytes.fromhex(run.stdout)
        pair = sig_keygen(Rng(53))
        assert verify(Atom(b"signed elsewhere"), sig, pair.public)
        assert library_verifies == [pair.public]
        assert verify(Atom(b"signed elsewhere"), sig, pair.public)
        assert library_verifies == [pair.public]

    def test_signing_alone_keeps_the_memo_bounded_and_least_recent_out(self, library_verifies):
        rng = Rng(54)
        pair = sig_keygen(rng)
        terms = [Atom(rng.bytes(8)) for _ in range(3 * crypto._KEY_CACHE_SIZE)]
        sigs = []
        for term in terms:
            sigs.append(sign(term, pair.private))
            assert len(crypto._verified) <= crypto._KEY_CACHE_SIZE
        assert len(crypto._verified) == crypto._KEY_CACHE_SIZE
        first_kept = len(terms) - crypto._KEY_CACHE_SIZE
        assert verify(terms[first_kept], sigs[first_kept], pair.public)
        assert library_verifies == []
        # that check made terms[first_kept] the most recent, so one more
        # signature evicts terms[first_kept + 1] in its place
        sign(Atom(b"one more"), pair.private)
        assert verify(terms[first_kept], sigs[first_kept], pair.public)
        assert library_verifies == []
        assert verify(terms[first_kept + 1], sigs[first_kept + 1], pair.public)
        assert verify(terms[0], sigs[0], pair.public)
        assert library_verifies == [pair.public, pair.public]


@pytest.fixture
def library_exchanges(monkeypatch):
    """The public elements of every X25519 exchange crypto hands to the library.

    The exchange memo starts empty, so no earlier test answers a call.
    """
    calls = []
    real = crypto.X25519PublicKey

    class Counting:
        @staticmethod
        def from_public_bytes(data):
            calls.append(data)
            return real.from_public_bytes(data)

    monkeypatch.setattr(crypto, "X25519PublicKey", Counting)
    monkeypatch.setattr(crypto, "_exchanged", {})
    return calls


# the group order of Curve25519's prime subgroup
_ORDER = 2**252 + 27742317777372353535851937790883648493


class TestExchangeEquation:
    """(g^a)^b = (g^b)^a: one exchange answers its swapped call."""

    def test_swapped_call_runs_no_library_exchange(self, library_exchanges):
        rng = Rng(60)
        a, b = kx_keygen(rng), kx_keygen(rng)
        secret = shared_secret(b.public, a.private)
        assert library_exchanges == [b.public]
        assert shared_secret(a.public, b.private) == secret
        assert shared_secret(b.public, a.private) == secret
        assert library_exchanges == [b.public]
        assert secret == _reference_exchange(a.public, b.private)

    def test_honest_run_makes_one_library_exchange(self, library_exchanges):
        world, info = run_scenario_world("honest", seed=61)
        assert info["verdict"].accept
        assert len(library_exchanges) == 1

    @given(
        a=st.binary(min_size=KEY_LEN, max_size=KEY_LEN),
        b=st.binary(min_size=KEY_LEN, max_size=KEY_LEN),
        swapped_first=st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_both_call_orders_equal_the_library(self, a, b, swapped_first):
        public_a, public_b = kx_public(a), kx_public(b)
        # X25519 ignores bit 255 of an element, so this is public_b spelled otherwise
        high_b = public_b[:-1] + bytes([public_b[-1] | 0x80])
        calls = [(public_b, a), (public_a, b), (high_b, a), (public_a, b), (high_b, a)]
        if swapped_first:
            calls.reverse()
        expected = _reference_exchange(public_b, a)
        assert _reference_exchange(high_b, a) == expected
        for public, private in calls:
            assert shared_secret(public, private) == _reference_exchange(public, private)
            assert shared_secret(public, private) == expected

    def test_twin_privates_each_get_their_own_exchange(self, library_exchanges):
        """Clamped scalars s and 8l - s share one public element but not every exchange."""
        scalar = 2**254 + 8
        a, twin = scalar.to_bytes(KEY_LEN, "little"), (8 * _ORDER - scalar).to_bytes(KEY_LEN, "little")
        assert kx_public(a) == kx_public(twin)
        rng = Rng(62)
        off_curve = next(
            element
            for element in iter(lambda: rng.bytes(KEY_LEN), None)
            if _reference_exchange(element, a) != _reference_exchange(element, twin)
        )
        for _ in range(2):
            for private in (a, twin):
                assert shared_secret(off_curve, private) == _reference_exchange(off_curve, private)
        genuine = kx_keygen(rng).public
        assert shared_secret(genuine, a) == shared_secret(genuine, twin)

    def test_low_order_elements_raise_on_every_call(self, library_exchanges):
        rng = Rng(63)
        a, b = kx_keygen(rng), kx_keygen(rng)
        shared_secret(b.public, a.private)
        for element in _LOW_ORDER:
            for private in (a.private, b.private, a.private):
                with pytest.raises(InvalidPublicElement):
                    shared_secret(element, private)
        assert library_exchanges == [b.public] + [e for e in _LOW_ORDER for _ in range(3)]
        assert not any(element in pair for element in _LOW_ORDER for pair in crypto._exchanged)


class TestAead:
    def test_round_trip_and_tamper_1000(self):
        rng = Rng(18)
        for _ in range(1000):
            key = fresh_key(rng)
            term = _random_payload_term(rng)
            ct = encrypt(term, key, rng)
            assert decrypt(ct, key) == term
            flipped = bytearray(ct)
            flipped[rng.randrange(len(flipped))] ^= 1 << rng.randrange(8)
            with pytest.raises(DecryptionFailure):
                decrypt(bytes(flipped), key)

    def test_wrong_key_rejected(self):
        rng = Rng(19)
        ct = encrypt(Atom(b"payload"), fresh_key(rng), rng)
        with pytest.raises(DecryptionFailure):
            decrypt(ct, fresh_key(rng))

    def test_short_blob_rejected(self):
        key = fresh_key(Rng(20))
        for n in (0, 1, 12, 27):
            with pytest.raises(DecryptionFailure):
                decrypt(bytes(n), key)

    def test_nonces_fresh_per_call(self):
        rng = Rng(21)
        key = fresh_key(rng)
        assert encrypt(Atom(b"x"), key, rng) != encrypt(Atom(b"x"), key, rng)

    def test_flipped_nonce_or_body_rejected(self):
        rng = Rng(28)
        key = fresh_key(rng)
        blob = encrypt(Atom(b"mine"), key, rng)
        nonce, body = blob[:NONCE_LEN], blob[NONCE_LEN:]
        for i in (0, len(body) // 2, len(body) - 1):
            flipped = bytearray(body)
            flipped[i] ^= 0x01
            with pytest.raises(DecryptionFailure):
                decrypt(nonce + bytes(flipped), key)
        flipped_nonce = bytes([nonce[0] ^ 0x01]) + nonce[1:]
        with pytest.raises(DecryptionFailure):
            decrypt(flipped_nonce + body, key)

    def test_truncated_body_rejected(self):
        rng = Rng(29)
        key = fresh_key(rng)
        blob = encrypt(Atom(b"mine"), key, rng)
        nonce, body = blob[:NONCE_LEN], blob[NONCE_LEN:]
        for n in (0, 1, 15, 16, len(body) - 1):
            with pytest.raises(DecryptionFailure):
                decrypt(nonce + body[:n], key)


def test_encrypt_and_sign_keep_no_record():
    """No module-level table records what was sealed or signed.

    The knowledge closure files a blob by the message field it travels in,
    so a rebuild in a fresh process learns what one in the recording
    process does. encrypt changes no module-level value; sign only primes
    verify's memo of outcomes.
    """

    def state():
        return {
            name: value.copy() if isinstance(value, (dict, list, set, bytearray)) else value
            for name, value in vars(crypto).items()
        }

    rng = Rng(35)
    key = fresh_key(rng)
    pair = sig_keygen(rng)
    before = state()
    blobs = [encrypt(Atom(b"payload %d" % i), key, rng) for i in range(3)]
    assert state() == before
    assert [decrypt(blob, key) for blob in blobs] == [Atom(b"payload %d" % i) for i in range(3)]
    for blob in blobs:
        sign(Atom(blob), pair.private)
    after = state()
    assert {name for name in before if after[name] != before[name]} == {"_verified"}


class TestMac:
    def test_round_trip(self):
        key = fresh_key(Rng(22))
        term = Atom(b"launch measurement")
        assert verify_mac(term, mac(term, key), key)

    def test_garbage_never_raises(self):
        rng = Rng(23)
        key = fresh_key(rng)
        term = Atom(b"m")
        assert verify_mac(term, b"", key) is False
        assert verify_mac(term, b"\x00" * 32, key) is False
        assert verify_mac(term, mac(term, key), fresh_key(rng)) is False
        deep = term
        for _ in range(5000):  # nested past the recursion limit: encode cannot finish
            deep = Tuple([deep])
        assert verify_mac(deep, b"\x00" * 32, key) is False

    def test_message_binding(self):
        key = fresh_key(Rng(24))
        assert not verify_mac(Atom(b"other"), mac(Atom(b"one"), key), key)


class TestDigest:
    def test_digest_over_encoding(self):
        term = Tuple([Label("report_data"), Atom(b"\x01")])
        assert digest(term) == hashlib.sha256(encode(term)).digest()

    def test_structurally_distinct_terms_differ(self):
        assert digest(Atom(b"ab")) != digest(Tuple([Atom(b"a"), Atom(b"b")]))


class TestRng:
    def test_deterministic_streams(self):
        a, b = Rng(99), Rng(99)
        assert [a.bytes(16) for _ in range(4)] == [b.bytes(16) for _ in range(4)]

    def test_seed_sensitivity(self):
        assert Rng(1).bytes(16) != Rng(2).bytes(16)

    def test_keygen_determinism(self):
        assert sig_keygen(Rng(5)) == sig_keygen(Rng(5))
        assert kx_keygen(Rng(5)) == kx_keygen(Rng(5))

    def test_unseeded_draws_os_entropy(self):
        assert Rng().bytes(16) != Rng().bytes(16)
