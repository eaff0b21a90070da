"""Trace events: the append-only record of a simulation run.

Four event kinds, mirroring what the property checkers need to see:

- send: a term crossed the network (or was published on the bulletin)
- transition: an actor committed a state change or refused/aborted one
- adversary: an adversary capability was exercised
- verdict: the relying party judged an evidence bundle

Trace.append records payload values as given, once it has checked
that each is bytes, a term (Atom, Label or Tuple), or a str, int, bool
or None; any other value raises TypeError there. An event keeps its
fields in one slot: the values as recorded, the dict Trace.from_jsonl
parsed, or, for an event Trace.defer recorded, the function that makes
its values. get and text read one field in its JSON-ready form, bytes
and terms as hex strings (terms by their canonical encoding), and build
no body. A read of the whole body (body, to_json, ==, repr or a copy)
builds every field that way and stores that body in the slot, so each
term is hexed at most once. Bytes and terms are immutable, so an
in-memory trace and its JSON-lines file hold the same data, and a run
hexes only the fields it reads. Timestamps are the strictly increasing
seq numbers; nothing in a trace depends on wall-clock time, which is
what makes replays byte-identical.

fields returns the values the slot holds, for a reader of several
fields. term and data read a field back as the term or the bytes it
holds, and build no body either: a recorded term or bytes value comes
back as the very object recorded, and any str (parsed, or recorded as
hex) is decoded from hex. A field that holds neither raises ValueError
naming the event's seq and the field.

Trace.defer records an event whose values are made at its first read:
it takes its seq at once, and the first read of a field or of its body
calls the function it was given, checks what it returns as append
checks its values, and stores those values in the slot. The World
publishes the platform certificates this way, so a certificate no one
reads is never signed.

Transition payloads may carry protocol-internal secrets (the same way a
formal trace carries them). Only send and adversary events are
adversary-visible: AdversaryKnowledge.learn reads their term, leak,
leak_kind and action fields, and nothing else, live and on a rebuild.
"""

from __future__ import annotations

import json

from ..codec import Atom, Label, Tuple, encode

# Hex form of payload terms, under the names the harness exports.
from ..codec import from_hex as term_from_hex
from ..codec import to_hex as term_hex  # noqa: F401

KIND_SEND = "send"
KIND_TRANSITION = "transition"
KIND_ADVERSARY = "adversary"
KIND_VERDICT = "verdict"

#: Event kinds whose payload the adversary sees.
ADVERSARY_VISIBLE = (KIND_SEND, KIND_ADVERSARY)

#: The adversary action that logs a value it minted: a fresh name.
FRESH_VALUE = "fresh_value"

# The one decoder every trace line goes through, and its scanner.
_DECODER = json.JSONDecoder()
_SCAN = _DECODER.scan_once


#: The payload value types Trace.append records; bool is an int.
_RECORDABLE = (str, Tuple, bytes, Atom, Label, int, type(None))
#: The same types as a set: a value of one of them exactly passes without
#: isinstance, which a subclass such as bool still goes through.
_RECORDABLE_CLASSES = frozenset(_RECORDABLE)


def _recordable(values: dict) -> dict:
    """values, each checked to be one a trace can hold; TypeError otherwise."""
    for key, value in values.items():
        if value.__class__ not in _RECORDABLE_CLASSES and not isinstance(value, _RECORDABLE):
            raise TypeError(f"trace field {key} cannot hold a {type(value).__name__}")
    return values


def _stored(value):
    """A payload value as the trace keeps it: bytes and terms as hex."""
    if isinstance(value, bytes):
        return value.hex()
    if isinstance(value, (Atom, Label, Tuple)):
        return encode(value).hex()
    return value


class Event:
    """One trace event: its seq, its kind and its fields.

    One slot holds the fields: the values Trace.append recorded, the
    body Event(seq, kind, body) was given, or the make Trace.defer was
    given, until the first read stores its checked values there. body
    stores the JSON-ready dict it builds in the same slot. get, text,
    term and data read one field without building the body, and fields
    returns what the slot holds. No field can be assigned or deleted.
    """

    __slots__ = ("seq", "kind", "_fields")

    def __init__(self, seq: int, kind: str, body: dict) -> None:
        _set_seq(self, seq)
        _set_kind(self, kind)
        _set_fields(self, body)

    def __setattr__(self, name, value):
        raise AttributeError("a trace event is immutable")

    def __delattr__(self, name):
        raise AttributeError("a trace event is immutable")

    def fields(self) -> dict:
        """The fields the slot holds, made first if the event was deferred.

        The dict is the event's own and must not be changed. A caller
        that reads several fields takes it once; get, term and data test
        the slot inline and call this only for a deferred event: a call on
        every read slowed the offline audit.
        """
        fields = self._fields
        if fields.__class__ is not dict:
            fields = _recordable(dict(fields()))
            _set_fields(self, fields)
        return fields

    @property
    def body(self) -> dict:
        body = {key: _stored(value) for key, value in self.fields().items()}
        _set_fields(self, body)
        return body

    def __eq__(self, other):
        if isinstance(other, Event):
            return (self.seq, self.kind, self.body) == (other.seq, other.kind, other.body)
        return NotImplemented

    def __repr__(self) -> str:
        return f"Event(seq={self.seq!r}, kind={self.kind!r}, body={self.body!r})"

    def __reduce__(self):
        return Event, (self.seq, self.kind, self.body)

    def to_json(self) -> str:
        return json.dumps(
            {"seq": self.seq, "kind": self.kind, **self.body},
            sort_keys=True,
            separators=(",", ":"),
        )

    def get(self, key: str):
        """Field key as body would hold it, or None; builds no body."""
        fields = self._fields
        value = (fields if fields.__class__ is dict else self.fields()).get(key)
        return value if value.__class__ is str or value is None else _stored(value)

    def text(self, key: str) -> str:
        """The str field key; ValueError when it is missing or no str."""
        value = self.get(key)
        if value.__class__ is not str:
            raise ValueError(f"trace event {self.seq} has no str {key}")
        return value

    def term(self, key: str):
        """The term field key holds, or None; ValueError if it holds none."""
        fields = self._fields
        value = (fields if fields.__class__ is dict else self.fields()).get(key)
        if value is None or isinstance(value, (Atom, Label, Tuple)):
            return value
        try:
            return term_from_hex(value)
        except (TypeError, ValueError):
            raise ValueError(f"trace event {self.seq} has no term {key}") from None

    def data(self, key: str):
        """The bytes field key holds, or None; ValueError if it holds none."""
        fields = self._fields
        value = (fields if fields.__class__ is dict else self.fields()).get(key)
        if value is None or isinstance(value, bytes):
            return value
        try:
            return bytes.fromhex(value)
        except (TypeError, ValueError):
            raise ValueError(f"trace event {self.seq} has no bytes {key}") from None


_set_seq = Event.seq.__set__
_set_kind = Event.kind.__set__
_set_fields = Event._fields.__set__


class Trace:
    """Append-only event list with auto-assigned seq numbers."""

    def __init__(self) -> None:
        self.events: list[Event] = []

    def append(self, kind: str, **values) -> Event:
        """Record one event; TypeError for a value no trace can hold."""
        event = Event(len(self.events), kind, _recordable(values))
        self.events.append(event)
        return event

    def defer(self, kind: str, make) -> Event:
        """Record one event whose values make() returns at its first read.

        The event takes its seq now. make runs at the first read of a
        field or the body, and TypeError names a value no trace can hold;
        once its values pass that check, make never runs again.
        """
        event = Event(len(self.events), kind, make)
        self.events.append(event)
        return event

    def __iter__(self):
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def of_kind(self, kind: str) -> list[Event]:
        return [e for e in self.events if e.kind == kind]

    def to_jsonl(self) -> str:
        return "".join(e.to_json() + "\n" for e in self.events)

    @staticmethod
    def from_jsonl(text: str) -> "Trace":
        """Parse to_jsonl output, skipping blank lines.

        Raises ValueError, and nothing else, unless every other line is
        exactly one JSON object with an int seq and a str kind.

        Each line is read by one call of the decoder's scanner from its
        first character. Only a line the scanner cannot start on, such as
        one with leading whitespace, or does not consume whole goes on to
        JSONDecoder.decode, so every line parses, or fails with the same
        message, as decode alone would have it.
        """
        trace = Trace()
        for n, line in enumerate(text.splitlines(), 1):
            if not line.strip():
                continue
            try:
                try:
                    body, end = _SCAN(line, 0)
                except StopIteration:
                    end = -1
                if end != len(line):
                    body = _DECODER.decode(line)
            except (ValueError, RecursionError) as exc:
                raise ValueError(f"trace line {n}: {exc}") from None
            if body.__class__ is not dict:
                raise ValueError(f"trace line {n} is no JSON object")
            seq = body.pop("seq", None)
            kind = body.pop("kind", None)
            if seq.__class__ is not int or kind.__class__ is not str:
                raise ValueError(f"trace line {n} lacks an int seq or a str kind")
            trace.events.append(Event(seq, kind, body))
        return trace
