"""Message value semantics against a frozen dataclass twin.

Each of the ten protocol messages gets its equality, hash, repr and
immutability from Message rather than from @dataclass(frozen=True). Each
test compares a message with its twin, a frozen dataclass with the same
name and fields, and requires the two to behave alike.
"""

import copy
import dataclasses
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vmquote import guest, relying_party, sev, sgx  # noqa: F401  define the messages
from vmquote.codec import Atom, Label, Message, Term, Tuple

MESSAGES = sorted(Message.__subclasses__(), key=lambda cls: cls.__name__)


def twin(cls) -> type:
    """The frozen dataclass with cls's name and fields, in order."""
    return dataclasses.make_dataclass(
        cls.__name__, [(name, object) for name, _ in cls._layout], frozen=True
    )


TWINS = {cls: twin(cls) for cls in MESSAGES}


def _values(cls):
    """Strategy for field values that fit cls's layout."""
    fields = []
    for _, kind in cls._layout:
        if kind is bytes:
            fields.append(st.binary(max_size=8))
        elif kind is Atom:
            fields.append(st.binary(max_size=8).map(Atom))
        elif kind is Term:
            fields.append(st.sampled_from([Atom(b""), Label("x"), Tuple([Atom(b"a")])]))
        else:
            fields.append(_values(kind).map(lambda values, kind=kind: kind(*values)))
    return st.tuples(*fields)


def _pairs(cls):
    """Two value tuples for cls, often equal or one field apart."""
    return st.tuples(_values(cls), _values(cls), st.integers(0, 2)).map(
        lambda t: (t[0], t[0] if t[2] == 0 else t[1] if t[2] == 1 else t[0][:-1] + t[1][-1:])
    )


@pytest.mark.parametrize("cls", MESSAGES, ids=lambda c: c.__name__)
class TestAgainstFrozenDataclass:
    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_equality_and_hash(self, cls, data):
        a_values, b_values = data.draw(_pairs(cls))
        a, b = cls(*a_values), cls(*b_values)
        ta, tb = TWINS[cls](*a_values), TWINS[cls](*b_values)
        assert (a == b) == (ta == tb)
        assert (a != b) == (ta != tb)
        assert hash(a) == hash(ta) and hash(b) == hash(tb)
        if a == b:
            assert hash(a) == hash(b)

    @given(data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_other_classes_not_equal(self, cls, data):
        values = data.draw(_values(cls))
        msg, other = cls(*values), TWINS[cls](*values)
        assert msg.__eq__(other) is NotImplemented
        assert msg != other and not msg == other
        assert other != msg and not other == msg
        for value in (values, msg.to_term(), None, 0):
            assert msg.__eq__(value) is NotImplemented
            assert msg != value
        for other_cls in MESSAGES:
            if other_cls is not cls:
                assert msg.__eq__(other_cls(*data.draw(_values(other_cls)))) is NotImplemented

    @given(data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_repr(self, cls, data):
        values = data.draw(_values(cls))
        assert repr(cls(*values)) == repr(TWINS[cls](*values))

    @given(data=st.data())
    @settings(max_examples=5, deadline=None)
    def test_immutable(self, cls, data):
        values = data.draw(_values(cls))
        msg, same = cls(*values), TWINS[cls](*values)
        for name in [name for name, _ in cls._layout] + ["other"]:
            for obj in (msg, same):
                with pytest.raises(AttributeError):
                    setattr(obj, name, b"")
                with pytest.raises(AttributeError):
                    delattr(obj, name)
        assert msg == cls(*values)

    @given(data=st.data())
    @settings(max_examples=5, deadline=None)
    def test_pickle_and_deepcopy(self, cls, data):
        msg = cls(*data.draw(_values(cls)))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            loaded = pickle.loads(pickle.dumps(msg, protocol))
            assert type(loaded) is cls and loaded == msg and hash(loaded) == hash(msg)
        for copied in (copy.deepcopy(msg), copy.copy(msg)):
            assert type(copied) is cls and copied == msg
            assert copied.to_term() == msg.to_term()

    def test_construction(self, cls):
        names = [name for name, _ in cls._layout]
        values = [Atom(bytes([i])) for i in range(len(names))]
        by_keyword = dict(zip(names, values))
        msg = cls(*values)
        assert msg == cls(**by_keyword) == cls(*values[:1], **dict(zip(names[1:], values[1:])))
        assert [getattr(msg, name) for name in names] == values
        for maker in (cls, TWINS[cls]):
            with pytest.raises(TypeError):
                maker(*values[:-1])
            with pytest.raises(TypeError):
                maker(*values, Atom(b""))
            with pytest.raises(TypeError):
                maker(**{name: value for name, value in by_keyword.items() if name != names[0]})
            with pytest.raises(TypeError):
                maker(**by_keyword, other=Atom(b""))
            with pytest.raises(TypeError):
                maker(values[0], **by_keyword)
            with pytest.raises(TypeError):
                maker()
