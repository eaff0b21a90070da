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

The encoding is injective, so a term is nothing more than its class and
its payload. Terms are immutable slotted values: equality is the same class
and an equal payload, and the hash is the payload's hash. Atom(b"x") and
Label("x") are therefore never equal, as their encodings differ in the
type byte.

may_decode is decode's header check without the exceptions: it answers
False only for bytes that decode must reject, so a caller holding many
opaque atoms (keys, digests, signatures) can skip most of them without
raising MalformedEncoding once per atom.

Message is the one rule from a protocol message to its term: a Tuple
that starts with Label(TAG) when the class sets TAG, then carries every
dataclass field in declaration order, each as its annotation says.
"""

from __future__ import annotations

import struct
import typing

_T_ATOM = 0x01
_T_LABEL = 0x02
_T_TUPLE = 0x03

# type byte | 4-byte big-endian length
_HEADER = struct.Struct(">BI")
_HEADER_LEN = _HEADER.size

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


class _Payload:
    """What the three term classes share: one payload slot, set once.

    __init__ writes the slot through its descriptor; every later
    assignment or deletion raises AttributeError.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __repr__(self) -> str:
        field = self.__slots__[0]
        return f"{type(self).__name__}({field}={getattr(self, field)!r})"

    def __reduce__(self):
        return type(self), (getattr(self, self.__slots__[0]),)


class Atom(_Payload):
    """Opaque byte payload: keys, digests, nonces, ciphertexts, code."""

    __slots__ = ("value",)

    def __init__(self, value: bytes) -> None:
        if not isinstance(value, bytes):
            raise TypeError("Atom payload must be bytes")
        _set_value(self, value)

    def __eq__(self, other):
        if other.__class__ is Atom:
            return self.value == other.value
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.value)


class Label(_Payload):
    """Printable tag string used to disambiguate payload shapes."""

    __slots__ = ("text",)

    def __init__(self, text: str) -> None:
        if not isinstance(text, str):
            raise TypeError("Label text must be str")
        if not text.isprintable():
            raise ValueError("Label text must be printable")
        _set_text(self, text)

    def __eq__(self, other):
        if other.__class__ is Label:
            return self.text == other.text
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.text)


class Tuple(_Payload):
    """Ordered grouping of Terms."""

    __slots__ = ("items",)

    def __init__(self, items) -> None:
        _set_items(self, tuple(items))

    def __eq__(self, other):
        if other.__class__ is Tuple:
            return self.items == other.items
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.items)

    def __len__(self) -> int:
        return len(self.items)


_set_value = Atom.value.__set__
_set_text = Label.text.__set__
_set_items = Tuple.items.__set__

Term = Atom | Label | Tuple


def encode(term: Term) -> bytes:
    """Serialize a Term to its canonical byte string."""
    if term.__class__ is Atom:
        value = term.value
        return _HEADER.pack(_T_ATOM, len(value)) + value
    out = bytearray()
    _encode_into(term, out)
    return bytes(out)


def _encode_into(term: Term, out: bytearray) -> None:
    if isinstance(term, Atom):
        out += _HEADER.pack(_T_ATOM, len(term.value))
        out += term.value
    elif isinstance(term, Label):
        text = term.text.encode("utf-8")
        out += _HEADER.pack(_T_LABEL, len(text))
        out += text
    elif isinstance(term, Tuple):
        out += _HEADER.pack(_T_TUPLE, len(term.items))
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
    if pos + _HEADER_LEN > len(data):
        raise MalformedEncoding("truncated header")
    kind, length = _HEADER.unpack_from(data, pos)
    pos += _HEADER_LEN
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


def may_decode(data: bytes) -> bool:
    """False only where decode(data) must raise MalformedEncoding.

    Checks the outermost header alone: data shorter than a header, an
    unknown type byte, or an Atom or Label whose declared length is not
    the rest of data. True promises nothing; decode still checks the rest.
    """
    if len(data) < _HEADER_LEN:
        return False
    kind, length = _HEADER.unpack_from(data)
    if kind == _T_TUPLE:
        return True
    if kind == _T_ATOM or kind == _T_LABEL:
        return length == len(data) - _HEADER_LEN
    return False


class Message:
    """Base of the protocol messages: one term layout, stated once.

    A subclass is a dataclass. Its term form is a Tuple of Label(TAG),
    when the class sets TAG, followed by every field in declaration order.
    A field's annotation sets how it travels: bytes as an Atom of those
    bytes, Atom as that Atom, Term as any term, and a Message subclass
    in its own term form. from_term raises ValueError for any other
    shape, nested messages included. Field kinds are resolved once, when
    the subclass is defined.
    """

    #: Label text the term form starts with; None for no tag.
    TAG = None

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        hints = typing.get_type_hints(cls)
        layout = []
        for name in cls.__dict__.get("__annotations__", {}):
            kind = hints[name]
            if kind == Term:
                kind = Term
            elif not (
                kind is bytes
                or kind is Atom
                or (isinstance(kind, type) and issubclass(kind, Message))
            ):
                raise TypeError(f"{cls.__name__}.{name}: not a message field kind")
            layout.append((name, kind))
        cls._layout = tuple(layout)
        cls._head = () if cls.TAG is None else (Label(cls.TAG),)

    def to_term(self) -> Tuple:
        items = list(self._head)
        for name, kind in self._layout:
            value = getattr(self, name)
            if kind is bytes:
                value = Atom(value)
            elif kind is not Atom and kind is not Term:
                value = value.to_term()
            items.append(value)
        return Tuple(items)

    @classmethod
    def from_term(cls, term: Term):
        head = cls._head
        if not isinstance(term, Tuple) or len(term.items) != len(head) + len(cls._layout):
            raise ValueError(f"not a {cls.__name__} term")
        items = term.items
        if head and items[0] != head[0]:
            raise ValueError(f"not a {cls.__name__} term")
        values = []
        for (_, kind), item in zip(cls._layout, items[len(head) :]):
            if kind is bytes or kind is Atom:
                if item.__class__ is not Atom:
                    raise ValueError(f"not a {cls.__name__} term")
                if kind is bytes:
                    item = item.value
            elif kind is not Term:
                item = kind.from_term(item)
            values.append(item)
        return cls(*values)


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
