"""Canonical term encoding: frozen vectors, round-trips, rejection, term values."""

import copy
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vmquote.codec import (
    MAX_DECODE_BYTES,
    MAX_DECODE_DEPTH,
    MalformedEncoding,
    Atom,
    Label,
    Tuple,
    decode,
    encode,
    from_hex,
    may_decode,
    to_hex,
    to_sexpr,
)

# Hand-computed with an independent struct.pack encoder before this
# package's codec existed; pins the wire format for good.
TRANSPORT_VECTOR = (
    "0300000003"
    "020000000e7472616e73706f72745f6b657973"
    "0100000020000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"
    "0100000020202122232425262728292a2b2c2d2e2f303132333435363738393a3b3c3d3e3f"
)


class TestFrozenVectors:
    def test_transport_keys_tuple(self):
        term = Tuple(
            [Label("transport_keys"), Atom(bytes(range(32))), Atom(bytes(range(32, 64)))]
        )
        assert encode(term).hex() == TRANSPORT_VECTOR

    def test_label_layout(self):
        assert encode(Label("sev_kek")) == b"\x02\x00\x00\x00\x07sev_kek"

    def test_empty_tuple_layout(self):
        assert encode(Tuple([])) == b"\x03\x00\x00\x00\x00"

    def test_atom_layout(self):
        assert encode(Atom(b"\x00\x01")) == b"\x01\x00\x00\x00\x02\x00\x01"


def _term_strategy():
    atoms = st.binary(min_size=0, max_size=64).map(Atom)
    labels = st.text(
        alphabet=st.characters(min_codepoint=0x20, max_codepoint=0x7E),
        min_size=1,
        max_size=24,
    ).map(Label)
    return st.recursive(
        atoms | labels,
        lambda children: st.lists(children, max_size=5).map(Tuple),
        max_leaves=25,
    )


class TestRoundTrip:
    @given(term=_term_strategy())
    @settings(max_examples=300, deadline=None)
    def test_decode_inverts_encode(self, term):
        assert decode(encode(term)) == term

    @given(term=_term_strategy())
    @settings(max_examples=100, deadline=None)
    def test_hex_helpers(self, term):
        assert from_hex(to_hex(term)) == term


def _random_term(rng: random.Random, depth: int = 0):
    kind = rng.randrange(3) if depth < 4 else rng.randrange(2)
    if kind == 0:
        return Atom(rng.randbytes(rng.randrange(0, 33)))
    if kind == 1:
        return Label("".join(rng.choice("abcdefgh_") for _ in range(rng.randrange(1, 9))))
    return Tuple([_random_term(rng, depth + 1) for _ in range(rng.randrange(0, 4))])


def test_injectivity_10000_pairs():
    """Distinct terms never share an encoding (sampled witness)."""
    rng = random.Random(0xC0DEC)
    checked = 0
    while checked < 10_000:
        a = _random_term(rng)
        b = _random_term(rng)
        if a == b:
            continue
        assert encode(a) != encode(b)
        checked += 1


def test_tuple_items_decode_unambiguously():
    """Length-prefixing keeps adjacent items from bleeding together."""
    inner = [Atom(b""), Atom(b"\x01\x00\x00\x00\x01"), Label("a"), Tuple([Atom(b"x")])]
    term = Tuple(inner)
    assert decode(encode(term)) == term


class TestRejection:
    def test_empty_input(self):
        with pytest.raises(MalformedEncoding):
            decode(b"")

    def test_trailing_byte(self):
        with pytest.raises(MalformedEncoding):
            decode(encode(Atom(b"\x00\x01")) + b"\x00")

    def test_truncated_payload(self):
        with pytest.raises(MalformedEncoding):
            decode(encode(Atom(b"abcdef"))[:-1])

    def test_truncated_header(self):
        with pytest.raises(MalformedEncoding):
            decode(b"\x01\x00\x00")

    def test_unknown_type_byte(self):
        with pytest.raises(MalformedEncoding):
            decode(b"\x07\x00\x00\x00\x00")

    def test_label_bad_utf8(self):
        with pytest.raises(MalformedEncoding):
            decode(b"\x02\x00\x00\x00\x01\xff")

    def test_label_nonprintable(self):
        with pytest.raises(MalformedEncoding):
            decode(b"\x02\x00\x00\x00\x01\x07")

    def test_depth_limit(self):
        blob = encode(Atom(b"x"))
        for _ in range(40):
            blob = b"\x03\x00\x00\x00\x01" + blob
        with pytest.raises(MalformedEncoding):
            decode(blob)

    def test_depth_within_limit_ok(self):
        term = Atom(b"x")
        for _ in range(30):
            term = Tuple([term])
        assert decode(encode(term)) == term

    def test_size_limit(self):
        blob = encode(Atom(b"\x00" * MAX_DECODE_BYTES))
        assert len(blob) > MAX_DECODE_BYTES
        with pytest.raises(MalformedEncoding):
            decode(blob)

    def test_size_within_limit_ok(self):
        term = Atom(b"\x00" * (MAX_DECODE_BYTES - 64))
        assert decode(encode(term)) == term


class TestConstruction:
    def test_label_rejects_nonprintable(self):
        with pytest.raises(ValueError):
            Label("bad\x00label")

    @pytest.mark.parametrize("payload", ["text", bytearray(b"x"), memoryview(b"x"), 1, None])
    def test_atom_rejects_non_bytes(self, payload):
        with pytest.raises(TypeError):
            Atom(payload)

    @pytest.mark.parametrize("text", [b"x", 1, None])
    def test_label_rejects_non_str(self, text):
        with pytest.raises(TypeError):
            Label(text)

    def test_tuple_normalizes_to_tuple(self):
        t = Tuple([Atom(b"a")])
        assert isinstance(t.items, tuple)

    def test_sexpr_rendering(self):
        term = Tuple([Label("burrito_report"), Atom(b"\x00\x2a")])
        assert to_sexpr(term) == "('burrito_report' 0x002a)"


_printable = st.text(alphabet=st.characters(min_codepoint=0x20, max_codepoint=0x7E), max_size=24)


class TestTermValues:
    """Equality is class plus payload, the hash is the payload's hash."""

    @given(a=_term_strategy(), b=_term_strategy())
    @settings(max_examples=150, deadline=None)
    def test_equal_iff_same_encoding(self, a, b):
        assert (a == b) == (encode(a) == encode(b))
        assert (a != b) == (encode(a) != encode(b))
        if a == b:
            assert hash(a) == hash(b)
        rebuilt = decode(encode(a))
        assert rebuilt == a and not rebuilt != a
        assert hash(rebuilt) == hash(a)
        assert len({a, rebuilt}) == 1

    @given(text=_printable)
    @settings(max_examples=100, deadline=None)
    def test_same_bytes_different_class_stay_distinct(self, text):
        raw = text.encode("utf-8")
        terms = [Atom(raw), Label(text), Tuple([Atom(raw)]), Tuple([Label(text)])]
        for i, a in enumerate(terms):
            for b in terms[i + 1 :]:
                assert a != b and b != a
        assert len(set(terms)) == len(terms)
        assert len({encode(t) for t in terms}) == len(terms)

    def test_not_equal_to_bare_payload(self):
        assert Atom(b"x") != b"x"
        assert Label("x") != "x"
        assert Tuple([]) != ()

    @given(term=_term_strategy())
    @settings(max_examples=50, deadline=None)
    def test_immutable(self, term):
        for name in ("value", "text", "items", "other"):
            with pytest.raises(AttributeError):
                setattr(term, name, b"")
            with pytest.raises(AttributeError):
                delattr(term, name)
        assert decode(encode(term)) == term
        assert copy.deepcopy(term) == term

    @given(term=_term_strategy())
    @settings(max_examples=50, deadline=None)
    def test_repr_is_constructor_form(self, term):
        assert eval(repr(term), {"Atom": Atom, "Label": Label, "Tuple": Tuple}) == term

    def test_repr_layout(self):
        term = Tuple([Atom(b"\x00a"), Label("l"), Tuple([])])
        assert repr(term) == "Tuple(items=(Atom(value=b'\\x00a'), Label(text='l'), Tuple(items=())))"


class TestMayDecode:
    """may_decode is False only where decode must raise."""

    @given(
        data=st.one_of(
            st.binary(max_size=48),
            st.tuples(st.sampled_from(b"\x01\x02\x03\x07"), st.integers(0, 40), st.binary(max_size=40)).map(
                lambda h: bytes([h[0]]) + h[1].to_bytes(4, "big") + h[2]
            ),
            st.tuples(_term_strategy(), st.integers(-6, 3)).map(
                lambda c: encode(c[0])[: c[1]] if c[1] < 0 else encode(c[0]) + b"\x00" * c[1]
            ),
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_false_implies_decode_raises(self, data):
        if not may_decode(data):
            with pytest.raises(MalformedEncoding):
                decode(data)

    @given(term=_term_strategy())
    @settings(max_examples=100, deadline=None)
    def test_true_for_every_encoding(self, term):
        assert may_decode(encode(term))

    @pytest.mark.parametrize(
        "data",
        [
            b"",
            b"\x01\x00\x00\x00",
            b"\x07\x00\x00\x00\x00",
            b"\x00\x00\x00\x00\x00",
            encode(Atom(b"abc"))[:-1],
            encode(Atom(b"abc")) + b"\x00",
            encode(Label("abc")) + b"\x00",
        ],
    )
    def test_rejects_bad_headers(self, data):
        assert not may_decode(data)
        with pytest.raises(MalformedEncoding):
            decode(data)


def _reference_decode(data: bytes):
    """The recursive decoder that codec.decode's one loop replaced."""
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
    kind, length = struct.unpack_from(">BI", data, pos)
    pos += 5
    if kind == 0x01:
        if pos + length > len(data):
            raise MalformedEncoding("truncated atom payload")
        return Atom(data[pos : pos + length]), pos + length
    if kind == 0x02:
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
    if kind == 0x03:
        items = []
        for _ in range(length):
            item, pos = _decode_at(data, pos, depth + 1)
            items.append(item)
        return Tuple(items), pos
    raise MalformedEncoding(f"unknown type byte 0x{kind:02x}")


def _outcome(decoder, data: bytes):
    """What decoder makes of data: its term's class and encoding, or its message."""
    try:
        term = decoder(data)
    except MalformedEncoding as exc:
        return ("reject", str(exc))
    return ("term", type(term), encode(term))


def _nest(depth: int, leaf, sibling: bool = False):
    """leaf inside depth Tuples, optionally after an atom at every level."""
    for _ in range(depth):
        leaf = Tuple([Atom(b"s"), leaf] if sibling else [leaf])
    return leaf


_LEAVES = (Atom(b"x"), Label("x"), Tuple([]))


class TestAgainstRecursiveReference:
    """decode returns what the recursive reference returns, or rejects as it does."""

    def _agree(self, data: bytes) -> None:
        ours = _outcome(decode, data)
        assert ours == _outcome(_reference_decode, data)
        if ours[0] == "term":
            assert ours[2] == data

    @given(
        data=st.one_of(
            st.binary(max_size=64),
            st.tuples(
                st.sampled_from(b"\x00\x01\x02\x03\x04"),
                st.integers(0, 6),
                st.binary(max_size=48),
            ).map(lambda h: bytes([h[0]]) + h[1].to_bytes(4, "big") + h[2]),
        )
    )
    @settings(max_examples=400, deadline=None)
    def test_random_bytes(self, data):
        self._agree(data)

    @given(term=_term_strategy(), cut=st.integers(0, 400), flip=st.integers(0, 4000))
    @settings(max_examples=400, deadline=None)
    def test_truncated_and_flipped_encodings(self, term, cut, flip):
        data = encode(term)
        self._agree(data)
        self._agree(data[: cut % (len(data) + 1)])
        flipped = bytearray(data)
        flipped[(flip // 8) % len(data)] ^= 1 << (flip % 8)
        self._agree(bytes(flipped))

    @given(
        depth=st.integers(MAX_DECODE_DEPTH - 1, MAX_DECODE_DEPTH + 2),
        leaf=st.sampled_from(_LEAVES),
        sibling=st.booleans(),
        tail=st.sampled_from((b"", b"\x00", b"\x01\x00\x00")),
    )
    @settings(max_examples=150, deadline=None)
    def test_nests_around_the_depth_limit(self, depth, leaf, sibling, tail):
        self._agree(encode(_nest(depth, leaf, sibling)) + tail)

    @pytest.mark.parametrize("leaf", _LEAVES, ids=("atom", "label", "empty_tuple"))
    def test_depth_limit_is_on_every_node(self, leaf):
        """A node at depth MAX_DECODE_DEPTH decodes; one level deeper it does not."""
        deepest = _nest(MAX_DECODE_DEPTH, leaf)
        assert decode(encode(deepest)) == deepest
        with pytest.raises(MalformedEncoding, match="nesting too deep"):
            decode(encode(_nest(MAX_DECODE_DEPTH + 1, leaf)))

    @given(
        delta=st.sampled_from((-1, 0, 1)),
        wrapped=st.booleans(),
        cut=st.sampled_from((0, 1)),
    )
    @settings(max_examples=24, deadline=None)
    def test_inputs_at_the_size_limit(self, delta, wrapped, cut):
        # a 5-byte atom header, and one more for the tuple around it
        payload = MAX_DECODE_BYTES + delta - 5 - (5 if wrapped else 0)
        term = Atom(bytes(payload))
        data = encode(Tuple([term]) if wrapped else term)
        assert len(data) == MAX_DECODE_BYTES + delta
        self._agree(data[: len(data) - cut])
