"""Canonical term encoding.

Every value that is signed, MACed, hashed, encrypted, or sent over the
simulated network is a Term: an Atom (opaque bytes), a Label (a printable
tag string), or a Tuple of Terms. Terms serialize to a deterministic
tag-length-value byte string, so structurally equal terms always produce
identical bytes and cryptographic operations can bind to structure instead
of to ad-hoc concatenation.

Wire layout, all lengths 4-byte big-endian:

    Atom   0x01 | byte count  | payload bytes
    Label  0x02 | byte count  | UTF-8 text
    Tuple  0x03 | item count  | encoded items, in order
"""

from __future__ import annotations

from dataclasses import dataclass

_T_ATOM = 0x01
_T_LABEL = 0x02
_T_TUPLE = 0x03

#: Decoder limits. Honest traffic stays far below both.
MAX_DECODE_BYTES = 1 << 20
MAX_DECODE_DEPTH = 32

# Fixed tag vocabulary. Labels outside this list are legal; these are the
# tags the protocol itself uses.
TAG_SGX_PLATFORM_CERT = "sgx_platform_certificate"
TAG_SGX_QUOTE = "sgx_quote"
TAG_REPORT_DATA = "report_data"
TAG_TRANSPORT_KEYS = "transport_keys"
TAG_SEV_KEK = "sev_kek"
TAG_SEV_KIK = "sev_kik"
TAG_OWNER_ENCLAVE_MEASUREMENT = "burrito_enclave_sgx_measurement"
TAG_GUEST_REPORT = "burrito_report"


class MalformedEncoding(ValueError):
    """Raised when bytes do not decode to exactly one well-formed Term."""


@dataclass(frozen=True)
class Atom:
    """Opaque byte payload: keys, digests, nonces, ciphertexts, code."""

    value: bytes

    def __post_init__(self) -> None:
        if not isinstance(self.value, bytes):
            raise TypeError("Atom payload must be bytes")


@dataclass(frozen=True)
class Label:
    """Printable tag string used to disambiguate payload shapes."""

    text: str

    def __post_init__(self) -> None:
        if not isinstance(self.text, str):
            raise TypeError("Label text must be str")
        if not self.text.isprintable():
            raise ValueError("Label text must be printable")


@dataclass(frozen=True)
class Tuple:
    """Ordered grouping of Terms."""

    items: tuple

    def __init__(self, items) -> None:
        object.__setattr__(self, "items", tuple(items))

    def __len__(self) -> int:
        return len(self.items)


Term = Atom | Label | Tuple


def encode(term: Term) -> bytes:
    """Serialize a Term to its canonical byte string."""
    out = bytearray()
    _encode_into(term, out)
    return bytes(out)


def _encode_into(term: Term, out: bytearray) -> None:
    if isinstance(term, Atom):
        out.append(_T_ATOM)
        out += len(term.value).to_bytes(4, "big")
        out += term.value
    elif isinstance(term, Label):
        text = term.text.encode("utf-8")
        out.append(_T_LABEL)
        out += len(text).to_bytes(4, "big")
        out += text
    elif isinstance(term, Tuple):
        out.append(_T_TUPLE)
        out += len(term.items).to_bytes(4, "big")
        for item in term.items:
            _encode_into(item, out)
    else:
        raise TypeError(f"not a Term: {term!r}")


def decode(data: bytes) -> Term:
    """Parse a canonical byte string back into a Term.

    Rejects anything that is not exactly one well-formed term: trailing
    bytes, truncation, unknown type bytes, nesting deeper than
    MAX_DECODE_DEPTH, or inputs larger than MAX_DECODE_BYTES.
    """
    if not isinstance(data, bytes):
        raise MalformedEncoding("input must be bytes")
    if len(data) > MAX_DECODE_BYTES:
        raise MalformedEncoding("input exceeds size limit")
    term, pos = _decode_at(data, 0, 0)
    if pos != len(data):
        raise MalformedEncoding(f"trailing bytes at offset {pos}")
    return term


def _decode_at(data: bytes, pos: int, depth: int) -> tuple:
    if depth > MAX_DECODE_DEPTH:
        raise MalformedEncoding("nesting too deep")
    if pos + 5 > len(data):
        raise MalformedEncoding("truncated header")
    kind = data[pos]
    length = int.from_bytes(data[pos + 1 : pos + 5], "big")
    pos += 5
    if kind == _T_ATOM:
        if pos + length > len(data):
            raise MalformedEncoding("truncated atom payload")
        return Atom(data[pos : pos + length]), pos + length
    if kind == _T_LABEL:
        if pos + length > len(data):
            raise MalformedEncoding("truncated label payload")
        try:
            text = data[pos : pos + length].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedEncoding("label is not valid UTF-8") from exc
        try:
            return Label(text), pos + length
        except ValueError as exc:
            raise MalformedEncoding("label is not printable") from exc
    if kind == _T_TUPLE:
        items = []
        for _ in range(length):
            item, pos = _decode_at(data, pos, depth + 1)
            items.append(item)
        return Tuple(items), pos
    raise MalformedEncoding(f"unknown type byte 0x{kind:02x}")


def to_hex(term: Term) -> str:
    """Hex dump of the canonical encoding."""
    return encode(term).hex()


def from_hex(text: str) -> Term:
    """Inverse of to_hex. Raises MalformedEncoding on bad hex or bytes."""
    try:
        raw = bytes.fromhex(text)
    except ValueError as exc:
        raise MalformedEncoding("not valid hex") from exc
    return decode(raw)


def to_sexpr(term: Term) -> str:
    """Human-readable rendering: ('tag' 0xhex (nested ...))."""
    if isinstance(term, Atom):
        return "0x" + term.value.hex()
    if isinstance(term, Label):
        return f"'{term.text}'"
    if isinstance(term, Tuple):
        return "(" + " ".join(to_sexpr(i) for i in term.items) + ")"
    raise TypeError(f"not a Term: {term!r}")
