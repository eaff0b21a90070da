"""Generated message conversions against the interpreting reference.

Message writes straight-line to_term and from_term for each layout when
the class is created. The interpreter it replaced is kept here as the
reference: it walks _layout field by field, dispatches on each field's
kind and builds the message with cls(*values). Over terms close to each
of the ten layouts (the right shape, then up to two changes: an item
replaced by an Atom, a Label, a Tuple, a tag or a malformed nested
message; an item dropped or added) both must accept the same terms,
return equal messages and equal terms, and reject with a ValueError of
the same text, so the first bad slot in field order decides the message.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vmquote import guest, relying_party, sev, sgx  # noqa: F401  define the messages
from vmquote.codec import Atom, Label, Message, Term, Tuple, encode

MESSAGES = sorted(Message.__subclasses__(), key=lambda cls: cls.__name__)


def reference_to_term(msg) -> Tuple:
    items = list(msg._head)
    for name, kind in msg._layout:
        value = getattr(msg, name)
        if kind is bytes:
            value = Atom(value)
        elif kind is not Atom and kind is not Term:
            value = reference_to_term(value)
        items.append(value)
    return Tuple(items)


def reference_from_term(cls, term):
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
            item = reference_from_term(kind, item)
        values.append(item)
    return cls(*values)


def generated_from_term(cls, term):
    return cls.from_term(term)


def _outcome(parse, cls, term):
    try:
        return "accepted", parse(cls, term)
    except Exception as exc:  # the exception's class and text are compared
        return type(exc).__name__, str(exc)


_atoms = st.binary(max_size=40).map(Atom)
_labels = st.text(
    alphabet=st.characters(min_codepoint=0x20, max_codepoint=0x7E), min_size=1, max_size=16
).map(Label)
_terms = st.recursive(
    _atoms | _labels, lambda children: st.lists(children, max_size=4).map(Tuple), max_leaves=8
)


# The protocol's tags, which a slot may hold instead of its own item.
_tags = st.sampled_from([Label(cls.TAG) for cls in MESSAGES if cls.TAG is not None])


def valid_terms(cls):
    """Terms of cls's layout: its tag, then each field of its kind."""
    items = [st.just(cls._head[0])] if cls._head else []
    for _, kind in cls._layout:
        if kind is bytes or kind is Atom:
            items.append(_atoms)
        elif kind is Term:
            items.append(_terms)
        else:
            items.append(valid_terms(kind))
    return st.tuples(*items).map(Tuple)


@st.composite
def near_terms(draw, cls):
    """A term of cls's layout with up to two items replaced, dropped or added."""
    items = list(draw(valid_terms(cls)).items)
    kinds = {len(cls._head) + i: kind for i, (_, kind) in enumerate(cls._layout)}
    for _ in range(draw(st.integers(0, 2))):
        change = draw(st.sampled_from(["replace", "replace", "drop", "add"]))
        if change == "drop" and items:
            del items[draw(st.integers(0, len(items) - 1))]
        elif change == "add" or not items:
            items.insert(draw(st.integers(0, len(items))), draw(_terms))
        else:
            idx = draw(st.integers(0, len(items) - 1))
            kind = kinds.get(idx)
            options = [_atoms, _labels, st.lists(_terms, max_size=3).map(Tuple), _tags]
            if isinstance(kind, type) and issubclass(kind, Message):
                options.append(near_terms(kind))
            items[idx] = draw(st.one_of(*options))
    return Tuple(items)


def _agree(cls, term) -> None:
    ours = _outcome(generated_from_term, cls, term)
    ref = _outcome(reference_from_term, cls, term)
    assert ours[0] == ref[0], (ours, ref)
    if ours[0] != "accepted":
        assert ours[0] == "ValueError" and ours[1] == ref[1]
        return
    msg = ours[1]
    assert type(msg) is cls and msg == ref[1]
    assert msg.to_term() == reference_to_term(msg) == term
    assert encode(msg.to_term()) == encode(term)


def test_all_ten_messages():
    assert len(MESSAGES) == 10


@pytest.mark.parametrize("cls", MESSAGES, ids=lambda c: c.__name__)
class TestAgainstInterpretingReference:
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_valid_terms(self, cls, data):
        term = data.draw(valid_terms(cls))
        _agree(cls, term)
        assert _outcome(generated_from_term, cls, term)[0] == "accepted"

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_near_terms(self, cls, data):
        _agree(cls, data.draw(near_terms(cls)))

    @given(term=_terms)
    @settings(max_examples=15, deadline=None)
    def test_any_term(self, cls, term):
        _agree(cls, term)

    def test_non_terms_rejected(self, cls):
        for value in (None, b"", "x", 0, (), [Atom(b"")]):
            _agree(cls, value)


def test_first_bad_slot_decides():
    """Two bad slots: the error names the one that comes first in field order."""
    bundle = relying_party.EvidenceBundle
    term = Tuple(
        [
            Tuple([Label("not a quote")]),
            Tuple([Label(sgx.TAG_SGX_PLATFORM_CERT), Atom(b""), Atom(b""), Atom(b"")]),
            Label("pspid"),
            Tuple([Atom(b""), Atom(b""), Label("dig"), Atom(b"")]),
            Atom(b""),
        ]
    )
    quote_bad = _outcome(generated_from_term, bundle, term)
    assert quote_bad == ("ValueError", "not a Quote term")
    assert quote_bad == _outcome(reference_from_term, bundle, term)
    items = list(term.items)
    items[0] = Tuple([Label(sgx.TAG_SGX_QUOTE), Atom(b""), Atom(b""), Atom(b""), Atom(b"")])
    pspid_bad = _outcome(generated_from_term, bundle, Tuple(items))
    assert pspid_bad == ("ValueError", "not a EvidenceBundle term")
    assert pspid_bad == _outcome(reference_from_term, bundle, Tuple(items))
    items[2] = Atom(b"")
    vmmsr_bad = _outcome(generated_from_term, bundle, Tuple(items))
    assert vmmsr_bad == ("ValueError", "not a Measurement term")
    assert vmmsr_bad == _outcome(reference_from_term, bundle, Tuple(items))
