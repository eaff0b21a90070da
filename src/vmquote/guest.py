"""Guest VM runtime: the provisioned workload asking for reports.

A runtime is built only for a running session and holds the channel key
the owner provisioned into it, not the session: no code stops a running
session. Its single protocol act is MACing payloads it wants attested;
the demo workload emits one report request with a monotonic counter
standing in for a timestamp.
"""

from __future__ import annotations

from . import crypto
from .codec import TAG_GUEST_REPORT, Atom, Label, Message, Term, Tuple
from .sev import GuestSession

#: Code of the designated guest workload; its digest is the launch digest
#: the owner commits to and the one the secrecy property singles out.
DESIGNATED_VM_CODE = Atom(b"burrito_guest_vm")
#: crypto.digest(DESIGNATED_VM_CODE), computed once.
DESIGNATED_VM_DIGEST = crypto.digest(DESIGNATED_VM_CODE)


class ReportRequest(Message):
    """A guest's payload for the owner to vouch for, MAC'd under its channel key."""

    vmdata: Term
    tag: bytes


class GuestNotRunning(RuntimeError):
    """Runtime requested for a session that is not running or has an unusable secret."""


class GuestRuntime:
    """Execution context of one provisioned, running guest."""

    def __init__(self, session: GuestSession) -> None:
        if not session.running:
            raise GuestNotRunning("session is not running")
        secret = session.provisioned_secret
        if not isinstance(secret, Atom):
            raise GuestNotRunning("provisioned secret has unusable shape")
        self._cik = secret.value
        self.clock = 0

    def next_report_payload(self) -> Term:
        """Demo payload: tag plus an 8-byte big-endian counter tick."""
        self.clock += 1
        return Tuple([Label(TAG_GUEST_REPORT), Atom(self.clock.to_bytes(8, "big"))])

    def request_report(self, payload: Term) -> ReportRequest:
        """MAC a payload for the owner."""
        return ReportRequest(vmdata=payload, tag=crypto.mac(payload, self._cik))
