"""Trace.from_jsonl is total: any text parses to a Trace or raises ValueError."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vmquote.harness import Trace


@pytest.mark.parametrize(
    "line",
    [
        "1",
        "null",
        '"send"',
        "{}",
        "[1]",
        "not json",
        "{",
        '{"seq": 0}',
        '{"kind": "send"}',
        '{"seq": "0", "kind": "send"}',
        '{"seq": 0.0, "kind": "send"}',
        '{"seq": true, "kind": "send"}',
        '{"seq": 0, "kind": 1}',
        '{"seq": 0, "kind": null}',
        '{"seq": 0, "kind": "send"} {}',
        '{"seq": 0, "kind": "send"}]',
        "[" * 100_000,
    ],
)
def test_malformed_line_raises_value_error(line):
    good = '{"seq": 0, "kind": "send"}\n'
    with pytest.raises(ValueError, match="trace line 2"):
        Trace.from_jsonl(good + line)


def test_event_fields_are_read_off_each_line():
    trace = Trace.from_jsonl('\n{"kind": "send", "seq": 3, "src": "adv"}\n\n')
    [event] = trace.events
    assert (event.seq, event.kind, event.body) == (3, "send", {"src": "adv"})


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["seq", "kind", "term"]) | st.text(max_size=4), inner),
    max_leaves=8,
)

_LINES = st.one_of(
    st.text(),
    _JSON.map(json.dumps),
    st.fixed_dictionaries(
        {"seq": _JSON, "kind": _JSON}, optional={"term": st.text(max_size=8)}
    ).map(json.dumps),
    st.fixed_dictionaries({"seq": st.integers(), "kind": st.text(max_size=8)}).map(json.dumps),
)


@given(text=st.one_of(st.text(), st.lists(_LINES, max_size=4).map("\n".join)))
@settings(max_examples=200, deadline=None)
def test_any_text_gives_a_trace_or_value_error(text):
    try:
        trace = Trace.from_jsonl(text)
    except ValueError:
        return
    for event in trace.events:
        assert event.seq.__class__ is int and event.kind.__class__ is str
        assert "seq" not in event.body and "kind" not in event.body
