"""Cryptographic schemes over canonical term encodings.

Every scheme binds to encode(term), never to raw user bytes, so two
structurally different terms can never collide under a signature, MAC,
hash, or encryption. Instantiations: Ed25519 signatures, X25519 key
negotiation, AES-256-GCM authenticated encryption with the nonce carried
inside the ciphertext, HMAC-SHA-256 MACs, and SHA-256 for hashing and
wrap-key derivation.

All randomness flows through an injected Rng handle. The library default
draws from OS entropy; the simulator injects a seeded generator so that
whole protocol runs replay byte-for-byte.

Key objects (AES-GCM ciphers, X25519 and Ed25519 private keys) are loaded
once per key and kept in per-process caches of at most 64 keys each,
least recently used out first: loading a private key costs as much as
using it once, and the adversary's closure reuses each key across many
trial decryptions. A private key is cached with its raw public key,
computed once when the key is loaded, so sig_keygen, sig_public, sign,
kx_public and shared_secret build no public-key object while the key
stays cached. A platform derives its key pair from the 32 bytes it drew
through sig_public or kx_public, on first read (a cached_property), so a
key a run never reads is never loaded.

Beside them, two bounded per-process memos of 64 entries each, least
recently used out first, answer a repeated check from the first one:
verify's outcome, keyed by (public, encode(term), signature), and
shared_secret's output, keyed by the unordered pair {kx_public(private),
public}. A memo changes no result, only the work. An exchange that
raises InvalidPublicElement is not cached and raises again on every
call.

The exchange memo uses the symbolic model's Diffie-Hellman equation,
(g^a)^b = (g^b)^a, which holds for X25519: shared_secret(pk(b), a) =
shared_secret(pk(a), b). One entry therefore answers an exact repeat
and the swapped call alike; in an honest run the PSP's exchange is
answered from the owner's. An entry answers only those two calls: the
private that made it, or the public element of that private, which lies
on the curve. Two privates can share one public element (the clamped
scalars s and 8l - s, l the group order) and then disagree on an
element off the curve, so a call with the other private of such a twin
goes to the library.

sign writes to the verify memo too. The symbolic model's signature
equation, verify(sign(m, sk), m, pk(sk)) = true, holds for Ed25519, so
after signing, sign records True under (the signer's public key,
encode(term), the signature), and verify answers a signature this
process made without running the library. Every other check runs
Ed25519: a tampered signature, a signature checked under another key,
and every signature in a fresh process, such as each bundle `vmquote
verify` loads. Both memos take only exact bytes arguments, and the
exchange memo only a 32-byte private; a bytearray, a memoryview or any
other argument goes to the library, and so gets the result it got
without a memo.

The size stays at 64. A fuzz run repeats a check within a few calls:
forged and replayed bundles carry the same genuine certificate, and the
closure exchanges pairs the owner, the PSP or the adversary's own
deploy already did. The verify workload's set-up signs the bundles its
timed checks load; its last 64 signatures can answer at most the first
few dozen of those checks before they are evicted, while a memo large
enough to hold the whole workload would answer every timed check from
the work its set-up did.

The symbolic model treats encryption as perfect: a blob opens only under
the key that sealed it (Dolev-Yao; sdec(senc(m, k), k) = m is the only
decryption equation). encrypt and sign keep no record of what they made:
which keys the adversary's closure tries on which blobs is decided from
the messages alone, so a trace is analysed the same in the process that
recorded it as in a fresh one.

decrypt is the only way from a blob to a plaintext term, the closure's
trial decryptions included, so the tag is always checked and a blob that
authenticates but holds no term is rejected there, as everywhere.
"""

from __future__ import annotations

import hashlib
import hmac as _hmac
import random
import secrets
from dataclasses import dataclass
from functools import lru_cache

from cryptography.exceptions import InvalidSignature, InvalidTag
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)
from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from .codec import (
    TAG_SEV_KEK,
    TAG_SEV_KIK,
    Atom,
    Label,
    MalformedEncoding,
    Term,
    Tuple,
    decode,
    encode,
)

KEY_LEN = 32
NONCE_LEN = 12
#: Length of a digest() output (SHA-256).
DIGEST_LEN = hashlib.sha256().digest_size
_KEY_CACHE_SIZE = 64

# (public, encode(term), signature) -> verify's outcome; insertion order is
# recency, least recently used first
_verified: dict[tuple[bytes, bytes, bytes], bool] = {}

# {kx_public(private), public} -> (private, kx_public(private), output) of
# the exchange that made the entry; insertion order is recency, as above
_exchanged: dict[frozenset[bytes], tuple[bytes, bytes, bytes]] = {}

#: Only these labels may ever enter wrap-key derivation.
WRAP_KEY_LABELS = (Label(TAG_SEV_KEK), Label(TAG_SEV_KIK))


class InvalidPublicElement(ValueError):
    """Key-negotiation public element is malformed or degenerate."""


class UnknownDerivationLabel(ValueError):
    """derive_wrap_key called with a label outside WRAP_KEY_LABELS."""


class DecryptionFailure(ValueError):
    """Authenticated decryption failed: wrong key, tampering, truncation."""


class Rng:
    """Byte source for key and nonce generation.

    Rng() draws from OS entropy. Rng(seed) is a deterministic stream: the
    same seed yields the same byte sequence, which is what makes simulator
    runs replayable. A seeded handle must have a single owner; sharing one
    across actors is fine only when the call order is itself deterministic.
    """

    def __init__(self, seed: int | None = None) -> None:
        self._rand = None if seed is None else random.Random(seed)

    def bytes(self, n: int) -> bytes:
        if self._rand is None:
            return secrets.token_bytes(n)
        return self._rand.randbytes(n)

    def choice(self, seq):
        if self._rand is None:
            return secrets.choice(seq)
        return self._rand.choice(seq)

    def randrange(self, n: int) -> int:
        if self._rand is None:
            return secrets.randbelow(n)
        return self._rand.randrange(n)


@dataclass(frozen=True)
class SigKeyPair:
    """Ed25519 signing key pair; private is the 32-byte seed."""

    private: bytes
    public: bytes


@dataclass(frozen=True)
class KxKeyPair:
    """X25519 key-negotiation pair."""

    private: bytes
    public: bytes


@lru_cache(maxsize=_KEY_CACHE_SIZE)
def _sig_private(private: bytes) -> tuple[Ed25519PrivateKey, bytes]:
    key = Ed25519PrivateKey.from_private_bytes(private)
    return key, key.public_key().public_bytes_raw()


@lru_cache(maxsize=_KEY_CACHE_SIZE)
def _kx_private(private: bytes) -> tuple[X25519PrivateKey, bytes]:
    key = X25519PrivateKey.from_private_bytes(private)
    return key, key.public_key().public_bytes_raw()


@lru_cache(maxsize=_KEY_CACHE_SIZE)
def _aead(key: bytes) -> AESGCM:
    return AESGCM(key)


def _ed25519_verify(public: bytes, message: bytes, signature: bytes) -> bool:
    try:
        Ed25519PublicKey.from_public_bytes(public).verify(signature, message)
        return True
    except (InvalidSignature, ValueError, TypeError):
        return False


def _x25519(public: bytes, private: bytes) -> bytes:
    try:
        pk = X25519PublicKey.from_public_bytes(public)
        return _kx_private(private)[0].exchange(pk)
    except (ValueError, TypeError) as exc:
        raise InvalidPublicElement(str(exc)) from exc


def sig_keygen(rng: Rng) -> SigKeyPair:
    priv = rng.bytes(KEY_LEN)
    return SigKeyPair(private=priv, public=sig_public(priv))


def sig_public(private: bytes) -> bytes:
    """The Ed25519 public key of private.

    Raises ValueError when private is not 32 bytes long.
    """
    return _sig_private(private)[1]


def _remember(memo: dict, key, value) -> None:
    """Record value under key as memo's most recently used entry."""
    memo.pop(key, None)
    memo[key] = value
    if len(memo) > _KEY_CACHE_SIZE:
        del memo[next(iter(memo))]


def sign(term: Term, private: bytes) -> bytes:
    """Sign the canonical encoding of term. 64-byte signature."""
    key, public = _sig_private(private)
    message = encode(term)
    sig = key.sign(message)
    _remember(_verified, (public, message, sig), True)
    return sig


def verify(term: Term, signature: bytes, public: bytes) -> bool:
    """Check a signature against encode(term). Never raises."""
    try:
        message = encode(term)
    except (ValueError, TypeError, RecursionError):
        return False
    if type(public) is not bytes or type(signature) is not bytes:
        return _ed25519_verify(public, message, signature)
    check = (public, message, signature)
    outcome = _verified.get(check)
    if outcome is None:
        outcome = _ed25519_verify(public, message, signature)
    _remember(_verified, check, outcome)
    return outcome


def kx_keygen(rng: Rng) -> KxKeyPair:
    priv = rng.bytes(KEY_LEN)
    return KxKeyPair(private=priv, public=kx_public(priv))


def kx_public(private: bytes) -> bytes:
    """The X25519 public element of private.

    Raises ValueError when private is not 32 bytes long.
    """
    return _kx_private(private)[1]


def shared_secret(public: bytes, private: bytes) -> bytes:
    """X25519 exchange: both sides of a pair derive the same 32 bytes.

    Raises InvalidPublicElement for elements of the wrong length or for
    degenerate elements (the all-zero element and other low-order points
    whose exchange output would be all zeros).
    """
    if type(public) is not bytes or type(private) is not bytes or len(private) != KEY_LEN:
        return _x25519(public, private)
    own = kx_public(private)
    pair = frozenset((own, public))
    entry = _exchanged.get(pair)
    # an entry answers its own private, and the swapped call naming its public element
    if entry is None or (private != entry[0] and public != entry[1]):
        entry = (private, own, _x25519(public, private))
    _remember(_exchanged, pair, entry)
    return entry[2]


# encode(Tuple([label, Atom(secret)])) is this prefix, the 4-byte length
# of secret, then secret.
_WRAP_PREFIX = {label: encode(Tuple([label, Atom(b"")]))[:-4] for label in WRAP_KEY_LABELS}


def derive_wrap_key(label: Label, secret: bytes) -> bytes:
    """Derive a 32-byte wrap key from a negotiated secret.

    The key is SHA-256 over encode(Tuple([label, Atom(secret)])); distinct
    labels therefore yield unrelated keys from the same secret.
    """
    prefix = _WRAP_PREFIX.get(label)
    if prefix is None:
        raise UnknownDerivationLabel(f"no such derivation label: {label!r}")
    return hashlib.sha256(prefix + len(secret).to_bytes(4, "big") + secret).digest()


def fresh_key(rng: Rng) -> bytes:
    """Fresh 32-byte symmetric key, for encryption or MACs alike."""
    return rng.bytes(KEY_LEN)


def encrypt(term: Term, key: bytes, rng: Rng) -> bytes:
    """AEAD-encrypt encode(term): 12-byte fresh nonce || GCM ciphertext."""
    nonce = rng.bytes(NONCE_LEN)
    return nonce + _aead(key).encrypt(nonce, encode(term), None)


def decrypt(blob: bytes, key: bytes) -> Term:
    """Invert encrypt. Raises DecryptionFailure on any mismatch.

    Tag failure, truncation, a wrong key, and ciphertexts whose plaintext
    is not a well-formed term all land on the same error: the caller
    learns only that the blob was not produced for this key.
    """
    if len(blob) < NONCE_LEN + 16:
        raise DecryptionFailure("ciphertext too short")
    try:
        plain = _aead(key).decrypt(blob[:NONCE_LEN], blob[NONCE_LEN:], None)
    except (InvalidTag, ValueError) as exc:
        raise DecryptionFailure("authentication failed") from exc
    try:
        return decode(plain)
    except MalformedEncoding as exc:
        raise DecryptionFailure("plaintext is not a term") from exc


def mac(term: Term, key: bytes) -> bytes:
    """HMAC-SHA-256 over encode(term)."""
    return _hmac.new(key, encode(term), hashlib.sha256).digest()


def verify_mac(term: Term, tag: bytes, key: bytes) -> bool:
    """Constant-time MAC check. Never raises."""
    try:
        return _hmac.compare_digest(mac(term, key), tag)
    except (TypeError, ValueError, RecursionError):
        return False


def digest(term: Term) -> bytes:
    """SHA-256 of the canonical encoding."""
    return hashlib.sha256(encode(term)).digest()
