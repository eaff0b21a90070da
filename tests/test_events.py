"""The offline audit is total.

Trace.from_jsonl parses any text to a Trace or raises ValueError, and
rebuild_knowledge and check_all raise nothing but ValueError on any trace
it accepts.
"""

import contextlib
import json
from functools import reduce

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vmquote import crypto
from vmquote.codec import Atom, Tuple, encode, to_hex
from vmquote.guest import DESIGNATED_VM_CODE
from vmquote.harness import Compromises, Event, Trace, check_all, rebuild_knowledge, run_scenario
from vmquote.harness.events import ADVERSARY_VISIBLE
from vmquote.harness.knowledge import _MIN_CIPHERTEXT
from vmquote.sgx import OWNER_ENCLAVE_MEASUREMENT

# the field values that make an event an instance of a checker
_DIG = crypto.digest(DESIGNATED_VM_CODE).hex()
_MSR = to_hex(OWNER_ENCLAVE_MEASUREMENT)
# a channel key that is an atom encoding an atom, and so on, too deep to judge
_DEEP = reduce(lambda value, _: encode(Atom(value)), range(3_000), b"").hex()


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


def _per_line_decode(text: str):
    """The loader's rule, read with JSONDecoder().decode on every line.

    Returns each event as its JSON line, or the ValueError's text.
    """
    decoder = json.JSONDecoder()
    events = []
    for n, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            body = decoder.decode(line)
        except (ValueError, RecursionError) as exc:
            return f"trace line {n}: {exc}"
        if body.__class__ is not dict:
            return f"trace line {n} is no JSON object"
        seq = body.pop("seq", None)
        kind = body.pop("kind", None)
        if seq.__class__ is not int or kind.__class__ is not str:
            return f"trace line {n} lacks an int seq or a str kind"
        events.append(Event(seq, kind, body).to_json())
    return events


def _loaded(text: str):
    """Trace.from_jsonl's events as JSON lines, or its ValueError's text."""
    try:
        trace = Trace.from_jsonl(text)
    except ValueError as exc:
        return str(exc)
    return [event.to_json() for event in trace.events]


_EVENT = '{"seq": 0, "kind": "send", "src": "adv"}'

# lines the decoder's scanner does not consume whole from their first
# character, and the values it reads that are no event
_HOSTILE_LINES = [
    "  " + _EVENT,
    _EVENT + "  ",
    "\t" + _EVENT + "\r",
    "\xa0" + _EVENT,
    _EVENT + "\xa0",
    "\ufeff" + _EVENT,
    _EVENT + _EVENT,
    _EVENT + " " + _EVENT,
    _EVENT + "x",
    _EVENT + "]",
    _EVENT + " // note",
    "NaN",
    "-Infinity",
    '{"seq": 0, "kind": "send", "x": NaN, "y": Infinity}',
    "1",
    " 1 ",
    "1 2",
    "[1]",
    '[{"seq": 0, "kind": "send"}]',
    '"send"',
    "",
    "   ",
    "\x0b",
]

# lines nested past the interpreter's recursion limit
_DEEP_LINES = [
    "[" * 100_000,
    "[" * 5_000 + "]" * 5_000,
    '{"seq": 0, "kind": "send", "x": ' + "[" * 5_000 + "]" * 5_000 + "}",
]


def _line_id(line: str) -> str:
    return ascii(line if len(line) <= 24 else f"{line[:10]}..{line[-12:]}")


@pytest.mark.parametrize("line", _HOSTILE_LINES + _DEEP_LINES, ids=_line_id)
def test_loader_reads_a_hostile_line_as_decode_does(line):
    for text in (line, _EVENT + "\n" + line, _EVENT + "\n\n  \n" + line + "\n\n" + _EVENT):
        assert _loaded(text) == _per_line_decode(text)


@given(lines=st.lists(st.sampled_from([_EVENT, *_HOSTILE_LINES]) | st.text(), max_size=5))
@settings(max_examples=200, deadline=None)
def test_loader_reads_any_lines_as_decode_does(lines):
    text = "\n".join(lines)
    assert _loaded(text) == _per_line_decode(text)


@pytest.mark.parametrize(
    "text",
    [
        '{"seq": 0, "kind": "send", "term": 1}',
        '{"seq": 0, "kind": "send", "term": "zz"}',
        '{"seq": 0, "kind": "send", "term": "00"}',
        '{"seq": 0, "kind": "adversary", "leak": 1}',
        '{"seq": 0, "kind": "adversary", "leak": "zz"}',
        '{"seq": 0, "kind": "adversary", "action": "compromise_sgx_qe"}',
        '{"seq": 0, "kind": "adversary", "action": "compromise_sgx_qe", "ppid": [1]}',
        '{"seq": 0, "kind": "transition", "label": "owner_provision_vm", '
        f'"vm_dig": "{_DIG}", "cik": "{"00" * 32}"}}',
        f'{{"seq": 0, "kind": "verdict", "accept": true, "quote_msr": "{_MSR}"}}',
        '{"seq": 0, "kind": "transition", "label": "owner_generate_report", "rpdata": "00"}\n'
        f'{{"seq": 1, "kind": "verdict", "accept": true, "quote_msr": "{_MSR}", '
        '"cert_ppid": "aa", "quote_data": "00"}',
        '{"seq": 0, "kind": "transition", "label": "owner_provision_vm", '
        f'"vm_dig": "{_DIG}", "psp_id": "aa", "cik": "{_DEEP}"}}',
    ],
    ids=[
        "term",
        "hex-term",
        "bytes-term",
        "leak",
        "hex-leak",
        "no-ppid",
        "list-ppid",
        "no-psp_id",
        "no-cert_ppid",
        "no-host_ppid",
        "deep-cik",
    ],
)
def test_hostile_field_fails_the_audit_with_value_error(text):
    """Every audit form that reads the field raises ValueError.

    The rebuild reads only send and adversary events, and a judgement
    with or without a view reads what the rebuild reads.
    """
    trace = Trace.from_jsonl(text)
    rebuild, *judgements = _audits(trace)
    visible = any(event.kind in ADVERSARY_VISIBLE for event in trace.events)
    for audit in [rebuild, *judgements] if visible else judgements:
        with pytest.raises(ValueError, match="^trace event"):
            audit()


@pytest.mark.parametrize(
    "text",
    [
        '{"seq": 0, "kind": "transition", "label": "owner_provision_vm", '
        f'"vm_dig": "{_DIG}", "psp_id": "aa"}}',
        '{"seq": 0, "kind": "transition", "label": "owner_generate_report", "host_ppid": "aa"}\n'
        f'{{"seq": 1, "kind": "verdict", "accept": true, "quote_msr": "{_MSR}", '
        '"cert_ppid": "aa", "quote_data": "00"}',
    ],
    ids=["no-cik", "no-rpdata"],
)
def test_missing_bytes_field_fails_the_audit_with_value_error(text):
    trace = Trace.from_jsonl(text)
    with pytest.raises(ValueError, match="^trace event 0 has no bytes"):
        check_all(trace, rebuild_knowledge(trace))


# a provisioning of the designated guest on PSP aa, whose secrecy a
# compromise of PSP aa would excuse
_PROVISION_ON_AA = {
    "seq": 1,
    "kind": "transition",
    "label": "owner_provision_vm",
    "vm_dig": _DIG,
    "psp_id": "aa",
    "cik": "00" * 32,
}


def _audits(trace):
    """Each way the offline audit reads a trace: rebuild, judge alone, judge with the view."""
    return (
        lambda: rebuild_knowledge(trace),
        lambda: check_all(trace),
        lambda: check_all(trace, rebuild_knowledge(trace)),
    )


@pytest.mark.parametrize(
    "action",
    [["compromise_sev_psp"], {"compromise_sev_psp": 1}, 1, None],
    ids=["list", "dict", "int", "missing"],
)
def test_an_action_that_is_no_str_compromises_nothing(action):
    """A compromise action is compared only when it is a str; any other is no error."""
    body = {"seq": 0, "kind": "adversary", "action": action, "psp": "aa", "ppid": "aa"}
    if action is None:
        del body["action"]
    trace = Trace.from_jsonl("\n".join(map(json.dumps, (body, _PROVISION_ON_AA))))
    assert rebuild_knowledge(trace).compromised == Compromises()
    for audit in _audits(trace)[1:]:
        result = audit()["sev_secret_secrecy"]
        assert (result.holds, result.matched, result.escaped) == (True, 1, 0)


@pytest.mark.parametrize(
    "fields",
    [
        {"action": "compromise_sgx_qe"},
        {"action": "compromise_sgx_qe", "ppid": 5},
        {"action": "compromise_sgx_qe", "ppid": {"aa": 1}},
        {"action": "compromise_sgx_qe", "ppid": None},
        {"action": "compromise_sev_psp", "psp": ["aa"]},
    ],
    ids=["no-ppid", "int-ppid", "dict-ppid", "null-ppid", "list-psp"],
)
def test_malformed_compromise_fails_the_rebuild_with_value_error(fields):
    """The view's learn hands the compromise to its record, which raises ValueError."""
    trace = Trace.from_jsonl(
        "\n".join(map(json.dumps, ({"seq": 0, "kind": "adversary", **fields}, _PROVISION_ON_AA)))
    )
    for audit in _audits(trace):
        with pytest.raises(ValueError, match="^trace event 0 has no str p"):
            audit()


@pytest.mark.parametrize("label", [["owner_provision_vm"], {"a": 1}, 1, None])
def test_a_label_that_is_no_str_names_no_transition(label):
    """A transition's label groups it only when it is a str; any other is no error."""
    body = {"seq": 0, "kind": "transition", "label": label, "vm_dig": _DIG, "psp_id": "aa"}
    trace = Trace.from_jsonl(json.dumps(body))
    assert all(result.matched == result.escaped == 0 for result in check_all(trace).values())


def test_fields_learn_ignores_are_never_decoded():
    """A malformed term or leak on a transition or verdict is never decoded."""
    lines = [json.loads(line) for line in run_scenario("honest").to_jsonl().splitlines()]
    clean = Trace.from_jsonl("\n".join(map(json.dumps, lines)))
    marked = 0
    for line in lines:
        if line["kind"] in ("transition", "verdict"):
            line.update(term="zz", leak=5)
            marked += 1
    hostile = Trace.from_jsonl("\n".join(map(json.dumps, lines)))
    learned = []
    for trace in (clean, hostile):
        know = rebuild_knowledge(trace)
        know.analyze()
        learned.append([encode(t) for t in know.terms_list()])
    assert marked > 0 and learned[0] == learned[1]
    assert all(result.holds for result in check_all(hostile).values())


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["seq", "kind", "term"]) | st.text(max_size=4), inner),
    max_leaves=8,
)

# package-shaped terms the split rule files a blob from only if from_term
# accepts them: a ciphertext-sized blob_d beside a Tuple where the deploy
# package's vmc Atom goes, and a ciphertext-sized blob_p beside a Tuple
# where the secret package's mac_p goes
_HOSTILE_PACKAGES = [
    to_hex(Tuple([Atom(bytes(32)), Atom(bytes(_MIN_CIPHERTEXT)), Atom(b"mac"), Tuple([])])),
    to_hex(Tuple([Atom(bytes(_MIN_CIPHERTEXT)), Tuple([Atom(b"mac")])])),
]

# events with the kind, label or action and the designated values that
# make each checker read the other fields, which may be anything
_AUDITED = st.fixed_dictionaries(
    {
        "seq": st.integers(0, 3),
        "kind": st.sampled_from(["send", "transition", "adversary", "verdict"]),
    },
    optional={
        "label": st.sampled_from(
            [
                "owner_provision_vm",
                "owner_generate_report",
                "sev_session_measured",
                "guest_request_report",
            ]
        ),
        "action": st.sampled_from(["compromise_sgx_qe", "compromise_sev_psp", "fresh_value"])
        | _JSON,
        "accept": st.just(True),
        "quote_msr": st.just(_MSR),
        "vm_dig": st.just(_DIG),
        "msr_dig": st.just(_DIG),
        "leak_kind": st.just("dh_private"),
        "term": _JSON | st.just("00" * 32) | st.sampled_from(_HOSTILE_PACKAGES),
        **{
            name: _JSON | st.just("00" * 32)
            for name in (
                "leak ppid psp psp_id pspid cik rpdata host_ppid cert_ppid quote_data"
                " dig nonce msr_nonce vmdata"
            ).split()
        },
    },
)

_LINES = st.one_of(
    st.text(),
    _JSON.map(json.dumps),
    _AUDITED.map(json.dumps),
    st.fixed_dictionaries(
        {"seq": _JSON, "kind": _JSON}, optional={"term": st.text(max_size=8)}
    ).map(json.dumps),
    st.fixed_dictionaries({"seq": st.integers(), "kind": st.text(max_size=8)}).map(json.dumps),
)


# an action of any JSON type; the checkers analyse a view that files
# both hostile packages
@example(text=json.dumps({"seq": 0, "kind": "adversary", "action": ["compromise_intel_rot"]}))
@example(
    text="\n".join(
        json.dumps(line)
        for line in (
            {
                "seq": 0,
                "kind": "transition",
                "label": "owner_provision_vm",
                "vm_dig": _DIG,
                "cik": "00" * 32,
            },
            *({"seq": 1, "kind": "send", "term": term} for term in _HOSTILE_PACKAGES),
        )
    )
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
    for audit in (rebuild_knowledge, check_all):
        with contextlib.suppress(ValueError):
            audit(trace)
