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
annotated field in declaration order, each as its annotation says.
Message builds each class from that layout when the class is created,
term conversions and constructor alike.
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
    parts = []
    _encode_into(term, parts)
    return b"".join(parts)


def _encode_into(term: Term, parts: list) -> None:
    """Append the encoding of a Tuple or a Label to parts, piece by piece.

    Dispatches on the exact class, so an object of any other class,
    subclasses of the term classes included, raises TypeError. No Atom
    reaches it: encode writes a lone Atom itself, and a Tuple writes its
    Atom items inline, without a call.
    """
    cls = term.__class__
    if cls is Tuple:
        items = term.items
        parts.append(_HEADER.pack(_T_TUPLE, len(items)))
        for item in items:
            if item.__class__ is Atom:
                value = item.value
                parts.append(_HEADER.pack(_T_ATOM, len(value)))
                parts.append(value)
            else:
                _encode_into(item, parts)
    elif cls is Label:
        text = term.text.encode("utf-8")
        parts.append(_HEADER.pack(_T_LABEL, len(text)))
        parts.append(text)
    else:
        raise TypeError(f"not a Term: {term!r}")


def decode(data: bytes) -> Term:
    """Parse a canonical byte string back into a Term.

    Rejects anything that is not exactly one well-formed term: trailing
    bytes, truncation, unknown type bytes, a label that is not printable
    UTF-8, any node nested deeper than MAX_DECODE_DEPTH (an atom, a label
    or an empty tuple included), or inputs larger than MAX_DECODE_BYTES.

    One loop reads the nodes in encoding order, with an explicit stack of
    the open tuples, each an (items, count) pair. A finished term joins
    the innermost open tuple, and a tuple whose count is reached is built
    and joins the one below it. Only a non-empty tuple opens a level, so
    the depth limit is checked there. Terms are built through their slot
    setters, after the same checks their constructors make.
    """
    if not isinstance(data, bytes):
        raise MalformedEncoding("input must be bytes")
    end = len(data)
    if end > MAX_DECODE_BYTES:
        raise MalformedEncoding("input exceeds size limit")
    unpack = _HEADER.unpack_from
    new = object.__new__
    stack = []
    pos = 0
    while True:
        if pos + _HEADER_LEN > end:
            raise MalformedEncoding("truncated header")
        kind, length = unpack(data, pos)
        pos += _HEADER_LEN
        if kind == _T_ATOM:
            stop = pos + length
            if stop > end:
                raise MalformedEncoding("truncated atom payload")
            term = new(Atom)
            _set_value(term, data[pos:stop])
            pos = stop
        elif kind == _T_TUPLE:
            if length:
                if len(stack) == MAX_DECODE_DEPTH:
                    raise MalformedEncoding("nesting too deep")
                stack.append(([], length))
                continue
            term = new(Tuple)
            _set_items(term, ())
        elif kind == _T_LABEL:
            stop = pos + length
            if stop > end:
                raise MalformedEncoding("truncated label payload")
            try:
                text = data[pos:stop].decode("utf-8")
            except UnicodeDecodeError as exc:
                raise MalformedEncoding("label is not valid UTF-8") from exc
            if not text.isprintable():
                raise MalformedEncoding("label is not printable")
            term = new(Label)
            _set_text(term, text)
            pos = stop
        else:
            raise MalformedEncoding(f"unknown type byte 0x{kind:02x}")
        while stack:
            items, count = stack[-1]
            items.append(term)
            if len(items) < count:
                break
            stack.pop()
            term = new(Tuple)
            _set_items(term, tuple(items))
        else:
            if pos != end:
                raise MalformedEncoding(f"trailing bytes at offset {pos}")
            return term


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

    A subclass declares its fields as annotations, in order. Its term
    form is a Tuple of Label(TAG), when the class sets TAG, followed by
    every field in declaration order. A field's annotation sets how it
    travels: bytes as an Atom of those bytes, Atom as that Atom, Term as
    any term, and a Message subclass in its own term form. from_term
    raises ValueError for any other shape, nested messages included, and
    checks the tag and the fields in that order.

    Message builds each class from its layout when the class is created:
    it writes straight-line code for __init__ (every field required,
    positional or keyword), to_term and from_term, and for the value
    methods a frozen dataclass has: __eq__ (same class, equal fields),
    __hash__ and __repr__. Assigning or deleting an attribute of an
    instance raises AttributeError.
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
            if name == "self" or name.startswith("_"):
                raise TypeError(f"{cls.__name__}.{name}: not a message field name")
            layout.append((name, kind))
        cls._layout = tuple(layout)
        cls._head = () if cls.TAG is None else (Label(cls.TAG),)
        namespace = {
            "__name__": cls.__module__,
            "_Atom": Atom,
            "_Label": Label,
            "_Tuple": Tuple,
            "_new": object.__new__,
            "_set_items": _set_items,
            "_head": cls._head[0] if cls._head else None,
            "_tag": cls.TAG,
            "_bad": f"not a {cls.__name__} term",
        }
        namespace.update((f"_kind_{name}", kind) for name, kind in layout)
        exec(_message_source(cls.TAG is not None, cls._layout), namespace)
        for name in _GENERATED:
            method = namespace[name]
            method.__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, classmethod(method) if name == "from_term" else method)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


_GENERATED = ("__init__", "to_term", "from_term", "__eq__", "__hash__", "__repr__")


def _message_source(tagged: bool, layout) -> str:
    """Python source of the _GENERATED methods for one message layout.

    The code reads the names Message.__init_subclass__ binds: the term
    classes, the head Label and its text, the rejection message, and each
    field's kind as _kind_<field>. from_term joins neighbouring
    checks into one condition, as they raise the same error; a nested
    message's from_term runs between them, in field order.
    """
    names = [name for name, _ in layout]
    values = "".join(f"self.{name}, " for name in names)
    others = "".join(f"other.{name}, " for name in names)
    items = ["_head"] if tagged else []
    parse = []
    pending = ["not isinstance(_tag_item, _Label)", "_tag_item.text != _tag"] if tagged else []
    for name, kind in layout:
        if kind is bytes:
            items.append(f"_Atom(self.{name})")
        elif kind is Atom or kind is Term:
            items.append(f"self.{name}")
        else:
            items.append(f"self.{name}.to_term()")
        if kind is bytes or kind is Atom:
            pending.append(f"{name}.__class__ is not _Atom")
        elif kind is not Term:
            if pending:
                parse += [f"    if {' or '.join(pending)}:", "        raise ValueError(_bad)"]
                pending = []
            parse.append(f"    {name} = _kind_{name}.from_term({name})")
    if pending:
        parse += [f"    if {' or '.join(pending)}:", "        raise ValueError(_bad)"]
    fields = [f"{name}={name}.value" if kind is bytes else f"{name}={name}" for name, kind in layout]
    unpacked = "".join(f"{item}, " for item in (["_tag_item"] if tagged else []) + names)
    shown = ", ".join(f"{name}={{self.{name}!r}}" for name in names)
    lines = [
        f"def __init__(self, {', '.join(names)}):",
        f"    self.__dict__.update({', '.join(f'{name}={name}' for name in names)})",
        "def to_term(self):",
        "    _term = _new(_Tuple)",
        f"    _set_items(_term, ({''.join(f'{item}, ' for item in items)}))",
        "    return _term",
        "def from_term(_cls, _term):",
        f"    if not isinstance(_term, _Tuple) or len(_term.items) != {len(items)}:",
        "        raise ValueError(_bad)",
        f"    ({unpacked}) = _term.items",
        *parse,
        "    _msg = _new(_cls)",
        f"    _msg.__dict__.update({', '.join(fields)})",
        "    return _msg",
        "def __eq__(self, other):",
        "    if other.__class__ is self.__class__:",
        f"        return ({values}) == ({others})",
        "    return NotImplemented",
        "def __hash__(self):",
        f"    return hash(({values}))",
        "def __repr__(self):",
        f'    return f"{{self.__class__.__qualname__}}({shown})"',
    ]
    return "\n".join(lines) + "\n"


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
