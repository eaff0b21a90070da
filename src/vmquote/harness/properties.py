"""Trace properties: what every run must satisfy, compromise aside.

Three checkers, each scanning a finished trace:

sgx_quote_authenticity
    Every accepted verdict whose quote carries the owner-enclave
    measurement was preceded by that owner enclave actually generating a
    report with the same data on the same platform, unless the Intel
    root or the quoting enclave of the certified platform was
    compromised.

sev_secret_secrecy
    The channel key provisioned for the designated guest code is not
    derivable from everything the adversary saw and did, unless the AMD
    root or the PSP of the deployment platform was compromised.

vm_quote_authenticity
    Every accepted verdict naming the owner enclave and the designated
    guest digest corresponds to a real launch measurement by that PSP
    and a real report request by that guest with the same payload,
    unless any of the four roots/keys involved was compromised.

Compromise escapes are trace-global: a compromise event anywhere in the
trace excuses matching instances, mirroring how such disjuncts quantify
over a whole trace. That is not a loophole but a fact about the
protocol: the key exchange has no forward secrecy, so a PSP key stolen
after the fact really does open past traffic.

Checkers rebuild adversary knowledge from the trace alone (bus traffic
plus logged adversary actions); a live knowledge object may be passed in
to skip the rebuild. Both views are fed by the same per-event rule,
AdversaryKnowledge.learn, and the test suite checks that they agree.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import crypto
from ..codec import Atom
from ..guest import DESIGNATED_VM_CODE
from ..sgx import OWNER_ENCLAVE_MEASUREMENT
from .events import (
    KIND_ADVERSARY,
    KIND_TRANSITION,
    KIND_VERDICT,
    Trace,
    term_from_hex,
    term_hex,
)
from .knowledge import AdversaryKnowledge

PROPERTY_IDS = (
    "sgx_quote_authenticity",
    "sev_secret_secrecy",
    "vm_quote_authenticity",
)

_TO_MSR_HEX = term_hex(OWNER_ENCLAVE_MEASUREMENT)
_DESIGNATED_DIG_HEX = crypto.digest(DESIGNATED_VM_CODE).hex()


class UnknownProperty(ValueError):
    """Property id not in PROPERTY_IDS."""


@dataclass(frozen=True)
class PropertyResult:
    """Outcome of one property over one trace.

    matched counts instances satisfied by honest correspondence, escaped
    counts instances excused by a compromise clause. holds is False only
    when some instance is neither, and witness then carries that
    instance's event body.
    """

    property_id: str
    holds: bool
    witness: dict | None = None
    matched: int = 0
    escaped: int = 0


@dataclass(frozen=True)
class _Escapes:
    intel: bool
    amd: bool
    qe_ppids: frozenset
    psp_ids: frozenset


def _collect_escapes(trace: Trace) -> _Escapes:
    intel = False
    amd = False
    qes = set()
    psps = set()
    for ev in trace.of_kind(KIND_ADVERSARY):
        action = ev.body.get("action")
        if action == "compromise_intel_rot":
            intel = True
        elif action == "compromise_amd_rot":
            amd = True
        elif action == "compromise_sgx_qe":
            qes.add(ev.body["ppid"])
        elif action == "compromise_sev_psp":
            psps.add(ev.body["psp"])
    return _Escapes(intel=intel, amd=amd, qe_ppids=frozenset(qes), psp_ids=frozenset(psps))


def rebuild_knowledge(trace: Trace) -> AdversaryKnowledge:
    """Adversary view from the trace alone.

    Bus traffic is public; adversary events carry any value the
    adversary created, computed, or was leaked. Each event goes through
    AdversaryKnowledge.learn, the rule the live simulator uses, so
    transition payloads (actor-internal) are not consumed.
    """
    know = AdversaryKnowledge()
    for ev in trace.events:
        term = ev.body.get("term")
        leak = ev.body.get("leak")
        know.learn(
            ev.kind,
            None if term is None else term_from_hex(term),
            None if leak is None else bytes.fromhex(leak),
            ev.body.get("leak_kind"),
        )
    return know


def check_property(
    trace: Trace, property_id: str, knowledge: AdversaryKnowledge | None = None
) -> PropertyResult:
    if property_id == "sgx_quote_authenticity":
        return _check_sgx_quote_authenticity(trace)
    if property_id == "sev_secret_secrecy":
        return _check_sev_secret_secrecy(trace, knowledge)
    if property_id == "vm_quote_authenticity":
        return _check_vm_quote_authenticity(trace)
    raise UnknownProperty(f"unknown property: {property_id}")


def check_all(
    trace: Trace, knowledge: AdversaryKnowledge | None = None
) -> dict[str, PropertyResult]:
    return {pid: check_property(trace, pid, knowledge) for pid in PROPERTY_IDS}


def _check_sgx_quote_authenticity(trace: Trace) -> PropertyResult:
    esc = _collect_escapes(trace)
    reports: list[tuple[int, dict]] = [
        (ev.seq, ev.body)
        for ev in trace.of_kind(KIND_TRANSITION)
        if ev.body.get("label") == "owner_generate_report"
    ]
    matched = 0
    escaped = 0
    for ev in trace.of_kind(KIND_VERDICT):
        if not ev.body.get("accept") or ev.body.get("quote_msr") != _TO_MSR_HEX:
            continue
        cert_ppid = ev.body["cert_ppid"]
        if esc.intel or cert_ppid in esc.qe_ppids:
            escaped += 1
            continue
        quote_data = ev.body["quote_data"]
        ok = any(
            seq < ev.seq
            and body["host_ppid"] == cert_ppid
            and term_hex(Atom(bytes.fromhex(body["rpdata"]))) == quote_data
            for seq, body in reports
        )
        if not ok:
            return PropertyResult(
                "sgx_quote_authenticity",
                holds=False,
                witness=dict(ev.body),
                matched=matched,
                escaped=escaped,
            )
        matched += 1
    return PropertyResult(
        "sgx_quote_authenticity", holds=True, matched=matched, escaped=escaped
    )


def _check_sev_secret_secrecy(
    trace: Trace, knowledge: AdversaryKnowledge | None
) -> PropertyResult:
    esc = _collect_escapes(trace)
    instances = [
        ev.body
        for ev in trace.of_kind(KIND_TRANSITION)
        if ev.body.get("label") == "owner_provision_vm"
        and ev.body.get("vm_dig") == _DESIGNATED_DIG_HEX
    ]
    if not instances:
        return PropertyResult("sev_secret_secrecy", holds=True)
    if knowledge is None:
        knowledge = rebuild_knowledge(trace)
    knowledge.analyze()
    matched = 0
    escaped = 0
    for body in instances:
        if esc.amd or body["psp_id"] in esc.psp_ids:
            escaped += 1
            continue
        if knowledge.derivable(Atom(bytes.fromhex(body["cik"]))):
            return PropertyResult(
                "sev_secret_secrecy",
                holds=False,
                witness=dict(body),
                matched=matched,
                escaped=escaped,
            )
        matched += 1
    return PropertyResult("sev_secret_secrecy", holds=True, matched=matched, escaped=escaped)


def _check_vm_quote_authenticity(trace: Trace) -> PropertyResult:
    esc = _collect_escapes(trace)
    launches: list[tuple[int, dict]] = []
    requests: list[tuple[int, dict]] = []
    for ev in trace.of_kind(KIND_TRANSITION):
        label = ev.body.get("label")
        if label == "sev_session_measured":
            launches.append((ev.seq, ev.body))
        elif label == "guest_request_report":
            requests.append((ev.seq, ev.body))
    matched = 0
    escaped = 0
    for ev in trace.of_kind(KIND_VERDICT):
        if (
            not ev.body.get("accept")
            or ev.body.get("quote_msr") != _TO_MSR_HEX
            or ev.body.get("msr_dig") != _DESIGNATED_DIG_HEX
        ):
            continue
        pspid = ev.body["pspid"]
        if (
            esc.intel
            or esc.amd
            or ev.body["cert_ppid"] in esc.qe_ppids
            or pspid in esc.psp_ids
        ):
            escaped += 1
            continue
        measured = any(
            seq < ev.seq
            and body["psp"] == pspid
            and body["dig"] == ev.body["msr_dig"]
            and body["nonce"] == ev.body["msr_nonce"]
            for seq, body in launches
        )
        requested = any(
            seq < ev.seq
            and body["psp"] == pspid
            and body["vmdata"] == ev.body["vmdata"]
            for seq, body in requests
        )
        if not (measured and requested):
            return PropertyResult(
                "vm_quote_authenticity",
                holds=False,
                witness=dict(ev.body),
                matched=matched,
                escaped=escaped,
            )
        matched += 1
    return PropertyResult(
        "vm_quote_authenticity", holds=True, matched=matched, escaped=escaped
    )
