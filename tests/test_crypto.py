"""Crypto layer invariants, run at the sample sizes the checks promise."""

import hashlib

import pytest

from vmquote import crypto
from vmquote.codec import Atom, Label, Tuple, encode
from vmquote.crypto import (
    NONCE_LEN,
    NOT_SEALED,
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
    mac,
    provenance,
    scan_tags,
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


class TestScanTags:
    @staticmethod
    def _split(blob):
        return (blob[:NONCE_LEN], blob[NONCE_LEN:])

    def _sealed(self, seed):
        rng = Rng(seed)
        key = fresh_key(rng)
        others = [encrypt(Atom(b"other %d" % i), fresh_key(rng), rng) for i in range(4)]
        mine = encrypt(Atom(b"mine"), key, rng)
        return key, [self._split(b) for b in others[:2] + [mine] + others[2:]]

    def test_finds_the_one_blob_under_the_key(self):
        key, sealed = self._sealed(25)
        assert scan_tags(key, sealed) == [2]

    def test_wrong_key_finds_nothing(self):
        _, sealed = self._sealed(26)
        assert scan_tags(fresh_key(Rng(27)), sealed) == []

    def test_flipped_byte_rejected(self):
        key, sealed = self._sealed(28)
        nonce, body = sealed[2]
        for i in (0, len(body) // 2, len(body) - 1):
            flipped = bytearray(body)
            flipped[i] ^= 0x01
            assert scan_tags(key, [(nonce, bytes(flipped))]) == []
        flipped_nonce = bytes([nonce[0] ^ 0x01]) + nonce[1:]
        assert scan_tags(key, [(flipped_nonce, body)]) == []

    def test_truncated_body_rejected(self):
        key, sealed = self._sealed(29)
        nonce, body = sealed[2]
        for n in (0, 1, 15, 16, len(body) - 1):
            assert scan_tags(key, [(nonce, body[:n])]) == []

    def test_start_index_honoured(self):
        key, sealed = self._sealed(30)
        assert scan_tags(key, sealed, 2) == [2]
        assert scan_tags(key, sealed, 3) == []
        assert scan_tags(key, sealed + sealed, 3) == [7]
        assert scan_tags(key, sealed, len(sealed)) == []


class TestProvenance:
    @pytest.fixture(autouse=True)
    def _own_map(self, monkeypatch):
        monkeypatch.setattr(crypto, "_provenance", {})

    def test_encrypt_registers_its_key(self):
        rng = Rng(31)
        key = fresh_key(rng)
        blob = encrypt(Atom(b"payload"), key, rng)
        assert provenance(blob) == key

    def test_sign_registers_no_ciphertext(self):
        pair = sig_keygen(Rng(32))
        sig = sign(Atom(b"payload"), pair.private)
        assert provenance(sig) == NOT_SEALED

    def test_unknown_blob_has_none(self):
        assert provenance(Rng(33).bytes(64)) is None

    def test_oldest_evicted_at_bound(self, monkeypatch):
        monkeypatch.setattr(crypto, "_PROVENANCE_SIZE", 3)
        rng = Rng(34)
        key = fresh_key(rng)
        blobs = [encrypt(Atom(b"m%d" % i), key, rng) for i in range(5)]
        assert [provenance(b) for b in blobs] == [None, None, key, key, key]
        assert len(crypto._provenance) == 3

    def test_ciphertext_entry_never_overwritten(self):
        rng = Rng(35)
        key = fresh_key(rng)
        blob = encrypt(Atom(b"payload"), key, rng)
        crypto._register(blob, NOT_SEALED)
        crypto._register(blob, fresh_key(rng))
        assert provenance(blob) == key

    def test_flipped_copy_has_none(self):
        rng = Rng(36)
        blob = encrypt(Atom(b"payload"), fresh_key(rng), rng)
        sig = sign(Atom(b"payload"), sig_keygen(rng).private)
        for registered in (blob, sig):
            for i in (0, len(registered) // 2, len(registered) - 1):
                flipped = bytearray(registered)
                flipped[i] ^= 0x01
                assert provenance(bytes(flipped)) is None


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
