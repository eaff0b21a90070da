"""Trace properties: what every run must satisfy, compromise aside.

Three properties, each judged over a finished trace:

sgx_quote_authenticity
    Every accepted verdict's quote carries the owner-enclave measurement,
    and was preceded by that owner enclave actually generating a report
    with the same data on the same platform, unless the Intel root or the
    quoting enclave of the certified platform was compromised. As in the
    Tamarin lemma, the instances are the relying party's accepts, not
    what their quotes claim: an accepted quote of any other enclave is
    unbacked.

sev_secret_secrecy
    The channel key provisioned for the designated guest code is not
    derivable from everything the adversary saw and did, unless the AMD
    root or the PSP of the deployment platform was compromised.

vm_quote_authenticity
    Every accepted verdict naming the owner enclave and the designated
    guest digest corresponds to a real launch measurement by that PSP
    and a real report request by that guest with the same payload,
    unless any of the four roots/keys involved was compromised.

Each property is one row of PROPERTIES, in the shape of its Tamarin
lemma: an instance selector over the grouping (the commit events), a
reveal clause over the view's Compromises, a predicate, and backing
premises (the running events). A premise is a transition label plus the
(premise field, instance field) pairs that must be equal on one such
transition at an earlier seq. Secrecy has no premise; its predicate asks
that the channel key is not derivable. _judge is the one evaluator: for
every row it excuses, matches or returns an instance as the witness.

check_all and check_property first group the trace in one pass, a
_Grouping: its transitions by label, its accepts and, among them, the
owner-enclave accepts, in trace order, and the one adversary view the
judgement reads. Every row, and every scenario postcondition, looks
instances and backing events up there, so one judgement reads each
transition's label and each verdict's accept once, and each accepted
verdict's quote_msr once. Backing is still an any() over the grouped
events.

Every judgement reads exactly one AdversaryKnowledge, as a Tamarin lemma
reads one adversary knowledge in both its reveal clause and its secrecy
claim. A judgement given a view, such as the simulator's
World.knowledge, rebuilds nothing; one without a view rebuilds it from
the trace alone (bus traffic plus logged adversary actions) with
rebuild_knowledge, which only feeds the events; the closure runs only
when secrecy has instances. Escapes are read only from the view's
Compromises record. They are trace-global: a compromise event anywhere
in the trace excuses matching instances, mirroring how such disjuncts
quantify over a whole trace. That is not a loophole but a fact about the
protocol: the key exchange has no forward secrecy, so a PSP key stolen
after the fact really does open past traffic.

The offline audit is total: on any trace Trace.from_jsonl accepts,
rebuild_knowledge and check_all raise nothing but ValueError, and a
judgement with or without a view raises on the same fields. learn
decodes its fields with Event.term and Event.data and compares an action
only when it is a str; Compromises.learn and the rows read fields
with Event.text, which requires a str. None of them builds the event's
body, and each raises ValueError on a field it cannot read, so a
malformed term, leak or compromise fails the view's rebuild; a channel
key nested too deep to judge is a ValueError too.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from operator import methodcaller
from typing import NamedTuple

from ..codec import Atom
from ..guest import DESIGNATED_VM_DIGEST
from ..sgx import OWNER_ENCLAVE_MEASUREMENT
from .events import KIND_TRANSITION, KIND_VERDICT, Event, Trace, term_hex
from .knowledge import AdversaryKnowledge, Compromises, feed

_TO_MSR_HEX = term_hex(OWNER_ENCLAVE_MEASUREMENT)
_DESIGNATED_DIG_HEX = DESIGNATED_VM_DIGEST.hex()


class UnknownProperty(ValueError):
    """Property id not in PROPERTY_IDS."""


@dataclass(frozen=True)
class PropertyResult:
    """Outcome of one property over one trace.

    matched counts instances satisfied by honest correspondence, escaped
    counts instances excused by a compromise clause. witness is None
    unless some instance is neither, and then carries that instance's
    event body; holds says the witness is None.
    """

    property_id: str
    witness: dict | None = None
    matched: int = 0
    escaped: int = 0

    @property
    def holds(self) -> bool:
        return self.witness is None


def rebuild_knowledge(trace: Trace) -> AdversaryKnowledge:
    """Adversary view from the trace alone.

    Bus traffic is public; adversary events carry any value the
    adversary created, computed, or was leaked, and its compromises.
    Each event goes through AdversaryKnowledge.learn by the feed loop the
    simulator's view runs too, so the rebuild reads only what learn
    reads: never a transition or verdict field.
    """
    know = AdversaryKnowledge()
    feed(trace.events, know)
    return know


class _Grouping:
    """What the rows look up in a trace, gathered in one pass.

    by_label maps each str label to its transition events, accepts lists
    the accepted verdicts and owner_accepts those whose quote names the
    owner-enclave measurement, all in trace order. owner_quoted holds the
    ids of owner_accepts: an accept is tested by identity, as a parsed
    trace's seqs need not be distinct. knowledge is the one view every row
    reads, escapes included: the caller's, or else the one
    rebuild_knowledge builds from the trace.
    """

    __slots__ = ("knowledge", "by_label", "accepts", "owner_accepts", "owner_quoted")

    def __init__(self, trace: Trace, knowledge: AdversaryKnowledge | None = None) -> None:
        by_label: dict[str, list[Event]] = {}
        accepts = []
        owner_accepts = []
        for ev in trace.events:
            kind = ev.kind
            if kind == KIND_TRANSITION:
                label = ev.get("label")
                if isinstance(label, str):
                    by_label.setdefault(label, []).append(ev)
            elif kind == KIND_VERDICT and ev.get("accept"):
                accepts.append(ev)
                if ev.get("quote_msr") == _TO_MSR_HEX:
                    owner_accepts.append(ev)
        self.knowledge = rebuild_knowledge(trace) if knowledge is None else knowledge
        self.by_label = by_label
        self.accepts = accepts
        self.owner_accepts = owner_accepts
        self.owner_quoted = {id(ev) for ev in owner_accepts}

    def transitions(self, label: str) -> list[Event]:
        """The transitions with this label, in trace order."""
        return self.by_label.get(label, [])

    def judge(self) -> dict[str, PropertyResult]:
        """Every property's result over this grouping."""
        return {pid: _judge(pid, self) for pid in PROPERTIES}


def check_property(
    trace: Trace, property_id: str, knowledge: AdversaryKnowledge | None = None
) -> PropertyResult:
    """Judge one property over trace."""
    if property_id not in PROPERTIES:
        raise UnknownProperty(f"unknown property: {property_id}")
    return _judge(property_id, _Grouping(trace, knowledge))


def check_all(
    trace: Trace, knowledge: AdversaryKnowledge | None = None
) -> dict[str, PropertyResult]:
    """Judge every property over one grouping of trace."""
    return _Grouping(trace, knowledge).judge()


def _judge(pid: str, seen: _Grouping) -> PropertyResult:
    """Judge one row's instances in trace order: excused, matched, or the witness.

    An instance the row's reveal clause covers is excused; otherwise it
    must satisfy the row's predicate and be backed by each of its
    premises, and the first that is not ends the judgement as the
    witness. Every premise is scanned even after one fails, so a field a
    premise cannot read raises ValueError whatever the others found.
    """
    row = PROPERTIES[pid]
    esc = seen.knowledge.compromised
    matched = excused = 0
    for ev in row.instances(seen):
        if row.revealed(esc, ev):
            excused += 1
        elif row.holds(seen, ev) and all([_backed(seen, ev, *p) for p in row.premises]):
            matched += 1
        else:
            return PropertyResult(pid, witness=dict(ev.body), matched=matched, escaped=excused)
    return PropertyResult(pid, matched=matched, escaped=excused)


def _backed(seen: _Grouping, ev: Event, label: str, pairs: tuple) -> bool:
    """Whether a transition labelled label, earlier than ev, agrees with it on every pair."""
    return any(
        earlier.seq < ev.seq and all(read(earlier) == ev.text(field) for read, field in pairs)
        for earlier in seen.transitions(label)
    )


def _premise(label: str, **pairs) -> tuple:
    """A backing premise: a transition label, and the pairs the transition must match.

    pairs maps each instance field, in the order they are compared, to
    the premise field it must equal: the name of a str field of the
    transition, or a reader that makes the value from the transition.
    """
    return label, tuple(
        (methodcaller("text", f) if isinstance(f, str) else f, g) for g, f in pairs.items()
    )


def _data(ev: Event, key: str) -> bytes:
    """The bytes field key; ValueError when it is missing or holds no bytes."""
    value = ev.data(key)
    if value is None:
        raise ValueError(f"trace event {ev.seq} has no bytes {key}")
    return value


def _rpdata_hex(report: Event) -> str:
    """A report's raw rpdata bytes as a quote states them: an Atom's term hex."""
    return term_hex(Atom(_data(report, "rpdata")))


def _designated(events: list[Event], key: str) -> list[Event]:
    """The events whose field key names the designated guest's digest."""
    return [ev for ev in events if ev.get(key) == _DESIGNATED_DIG_HEX]


def _designated_provisions(seen: _Grouping) -> list[Event]:
    """The provisions of the designated guest; the view is closed when there are any."""
    instances = _designated(seen.transitions("owner_provision_vm"), "vm_dig")
    if instances:
        seen.knowledge.analyze()
    return instances


def _cik_secret(seen: _Grouping, ev: Event) -> bool:
    """Whether the provisioned cik is out of the closed view's reach."""
    cik = Atom(_data(ev, "cik"))
    try:
        return not seen.knowledge.derivable(cik, fresh=True)
    except RecursionError:
        raise ValueError(f"trace event {ev.seq}: cik nests too deep") from None


class _Row(NamedTuple):
    """One property as data: a Tamarin lemma's commit, reveal and running events.

    instances selects the instances from the grouping, in trace order.
    revealed is the reveal clause over the view's Compromises and an
    instance. holds is a predicate an unexcused instance must satisfy,
    and premises are _premise's (label, pairs): for each, a transition
    with that label at an earlier seq must agree with the instance.
    """

    instances: Callable[[_Grouping], list[Event]]
    revealed: Callable[[Compromises, Event], bool]
    holds: Callable[[_Grouping, Event], bool] = lambda seen, ev: True
    premises: tuple = ()


#: Property id -> its row, in the order results are reported.
PROPERTIES = {
    "sgx_quote_authenticity": _Row(
        instances=lambda seen: seen.accepts,
        revealed=lambda esc, ev: esc.intel or ev.text("cert_ppid") in esc.qe_ppids,
        holds=lambda seen, ev: id(ev) in seen.owner_quoted,
        premises=(
            _premise("owner_generate_report", cert_ppid="host_ppid", quote_data=_rpdata_hex),
        ),
    ),
    "sev_secret_secrecy": _Row(
        instances=_designated_provisions,
        revealed=lambda esc, ev: esc.amd or ev.text("psp_id") in esc.psp_ids,
        holds=_cik_secret,
    ),
    "vm_quote_authenticity": _Row(
        instances=lambda seen: _designated(seen.owner_accepts, "msr_dig"),
        revealed=lambda esc, ev: (
            esc.intel
            or esc.amd
            or ev.text("cert_ppid") in esc.qe_ppids
            or ev.text("pspid") in esc.psp_ids
        ),
        premises=(
            _premise("sev_session_measured", pspid="psp", msr_dig="dig", msr_nonce="nonce"),
            _premise("guest_request_report", pspid="psp", vmdata="vmdata"),
        ),
    ),
}

PROPERTY_IDS = tuple(PROPERTIES)
