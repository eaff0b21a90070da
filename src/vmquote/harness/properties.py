"""Trace properties: what every run must satisfy, compromise aside.

Three checkers, each scanning a finished trace:

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

Each checker names its instances, its escape clause and its backing
predicate; _judge runs the one loop that excuses, matches or returns an
instance as the witness.

check_all and check_property first group the trace in one pass, a
_Grouping: its transitions by label, its accepts and, among them, the
owner-enclave accepts, in trace order, and the one adversary view the
judgement reads. Every checker, and every scenario postcondition, looks
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
only when it is a str; Compromises.learn and the checkers read fields
with Event.text, which requires a str. None of them builds the event's
body, and each raises ValueError on a field it cannot read, so a
malformed term, leak or compromise fails the view's rebuild; a channel
key nested too deep to judge is a ValueError too.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..codec import Atom
from ..guest import DESIGNATED_VM_DIGEST
from ..sgx import OWNER_ENCLAVE_MEASUREMENT
from .events import KIND_TRANSITION, KIND_VERDICT, Event, Trace, term_hex
from .knowledge import AdversaryKnowledge, feed

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
    """What the checkers look up in a trace, gathered in one pass.

    by_label maps each str label to its transition events, accepts lists
    the accepted verdicts and owner_accepts those whose quote names the
    owner-enclave measurement, all in trace order. knowledge is the one
    view every checker reads, escapes included: the caller's, or else the
    one rebuild_knowledge builds from the trace.
    """

    __slots__ = ("knowledge", "by_label", "accepts", "owner_accepts")

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

    def transitions(self, label: str) -> list[Event]:
        """The transitions with this label, in trace order."""
        return self.by_label.get(label, [])

    def judge(self) -> dict[str, PropertyResult]:
        """Every property's result over this grouping."""
        return {pid: _CHECKERS[pid](self) for pid in PROPERTY_IDS}


def check_property(
    trace: Trace, property_id: str, knowledge: AdversaryKnowledge | None = None
) -> PropertyResult:
    """Judge one property over trace."""
    if property_id not in _CHECKERS:
        raise UnknownProperty(f"unknown property: {property_id}")
    return _CHECKERS[property_id](_Grouping(trace, knowledge))


def check_all(
    trace: Trace, knowledge: AdversaryKnowledge | None = None
) -> dict[str, PropertyResult]:
    """Judge every property over one grouping of trace."""
    return _Grouping(trace, knowledge).judge()


def _judge(pid: str, instances: list[Event], escaped, backed) -> PropertyResult:
    """Judge instances in trace order: excused, matched, or the witness.

    An instance its escape clause covers is excused; otherwise it must be
    backed by honest correspondence, and the first that is not ends the
    judgement as the witness.
    """
    matched = 0
    excused = 0
    for ev in instances:
        if escaped(ev):
            excused += 1
        elif backed(ev):
            matched += 1
        else:
            return PropertyResult(pid, witness=dict(ev.body), matched=matched, escaped=excused)
    return PropertyResult(pid, matched=matched, escaped=excused)


def _data(ev: Event, key: str) -> bytes:
    """The bytes field key; ValueError when it is missing or holds no bytes."""
    value = ev.data(key)
    if value is None:
        raise ValueError(f"trace event {ev.seq} has no bytes {key}")
    return value


def _check_sgx_quote_authenticity(seen: _Grouping) -> PropertyResult:
    esc = seen.knowledge.compromised
    reports = seen.transitions("owner_generate_report")
    # the owner-enclave accepts by identity: a parsed trace's seqs need not be distinct
    owner_quoted = {id(ev) for ev in seen.owner_accepts}

    def backed(ev: Event) -> bool:
        return id(ev) in owner_quoted and any(
            rep.seq < ev.seq
            and rep.text("host_ppid") == ev.text("cert_ppid")
            and term_hex(Atom(_data(rep, "rpdata"))) == ev.text("quote_data")
            for rep in reports
        )

    return _judge(
        "sgx_quote_authenticity",
        seen.accepts,
        lambda ev: esc.intel or ev.text("cert_ppid") in esc.qe_ppids,
        backed,
    )


def _check_sev_secret_secrecy(seen: _Grouping) -> PropertyResult:
    knowledge = seen.knowledge
    esc = knowledge.compromised
    instances = [
        ev
        for ev in seen.transitions("owner_provision_vm")
        if ev.get("vm_dig") == _DESIGNATED_DIG_HEX
    ]
    if instances:
        knowledge.analyze()

    def backed(ev: Event) -> bool:
        cik = Atom(_data(ev, "cik"))
        try:
            return not knowledge.derivable(cik, fresh=True)
        except RecursionError:
            raise ValueError(f"trace event {ev.seq}: cik nests too deep") from None

    return _judge(
        "sev_secret_secrecy",
        instances,
        lambda ev: esc.amd or ev.text("psp_id") in esc.psp_ids,
        backed,
    )


def _check_vm_quote_authenticity(seen: _Grouping) -> PropertyResult:
    esc = seen.knowledge.compromised
    launches = seen.transitions("sev_session_measured")
    requests = seen.transitions("guest_request_report")

    def escaped(ev: Event) -> bool:
        return (
            esc.intel
            or esc.amd
            or ev.text("cert_ppid") in esc.qe_ppids
            or ev.text("pspid") in esc.psp_ids
        )

    def backed(ev: Event) -> bool:
        measured = any(
            launch.seq < ev.seq
            and launch.text("psp") == ev.text("pspid")
            and launch.text("dig") == ev.text("msr_dig")
            and launch.text("nonce") == ev.text("msr_nonce")
            for launch in launches
        )
        requested = any(
            req.seq < ev.seq
            and req.text("psp") == ev.text("pspid")
            and req.text("vmdata") == ev.text("vmdata")
            for req in requests
        )
        return measured and requested

    return _judge(
        "vm_quote_authenticity",
        [ev for ev in seen.owner_accepts if ev.get("msr_dig") == _DESIGNATED_DIG_HEX],
        escaped,
        backed,
    )


#: Property id -> checker; every checker takes the grouping.
_CHECKERS = {
    "sgx_quote_authenticity": _check_sgx_quote_authenticity,
    "sev_secret_secrecy": _check_sev_secret_secrecy,
    "vm_quote_authenticity": _check_vm_quote_authenticity,
}

PROPERTY_IDS = tuple(_CHECKERS)
