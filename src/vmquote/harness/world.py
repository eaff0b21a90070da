"""Simulation world: actors, in-memory bus, adversary capabilities.

A World is built deterministically from a seed: roots of trust, two SGX
platforms, two SEV platforms, the designated owner enclave, and a public
bulletin carrying every certificate, the root public keys, and the
designated guest code. Owner i means owners[i], named owner{i}: it runs
on sgx_platforms[i] and deploys workloads[i] to sev_platforms[i]. Owner
0 is the designated owner, so sgx0 and sev0 are the designated
platforms; add_owner brings in a second tenant on the next SGX platform.
All randomness of all actors flows from the single seeded Rng, so a
replay with the same seed reproduces every key, nonce, and ciphertext
byte.

Construction draws every random byte a platform has, in a fixed order:
both root keys, then each SGX platform's ppid, quoting-key seed and
plat_info, then each SEV platform's PSP-key seed, plat_sev and
launch_sev. A platform's key pair and its root's certificate are
derived from those bytes on first read, and then kept. The bulletin
sends of the four certificates are recorded with Trace.defer, so a
certificate is signed when a party reads it or when its send is first
read, by the adversary's view, a checker or to_jsonl. Ed25519 signing
is deterministic, so when a derivation runs changes no byte of the
trace. An honest run reads only sgx0's and sev0's, and never pays for
the other two platforms.

The World only records: each event is appended to the trace and
nothing more. The adversary's view is one object, World.knowledge, and
it catches up when read: each read first feeds the send and adversary
events recorded since the last read, in trace order, to its one learn
rule, AdversaryKnowledge.learn, through knowledge.feed, the loop
rebuild_knowledge runs too. learn keeps the view's compromise record,
which World.compromised returns and a judgement given the view reads
its escapes from. The live view is therefore exactly what the events
show, by the rules the checkers apply to a trace, and a run that never
reads it never builds it. An adversary capability that creates, leaks
or steals a value only has to log it. Owner i's enclave records its
commitments the same way: it is built with a recorder that writes them
as owner{i} transitions the moment it makes them.

Each receiving end but the relying party is one RECEIVING_ENDS row,
keyed by message kind, run by World.receive: the one place a malformed
term, a raised refusal or an owner's guard becomes the end's refusal.
receive returns the message as parsed with the reply: the host builds
the evidence bundle from the owner's parsed messages. The relying
party's refusal is its malformed verdict. Both quoting paths, the owner's and the adversary's
own enclave, record sgx_ereport through _quote. The Pipeline is owner
i's honest protocol run as one script over them, in protocol order:
owner deploy, PSP measure, owner provision, guest launch, report
request, owner quote, relying-party verdict. The script pauses after
each send and after the launch, holding at most one in-flight message
the adversary may tamper with or drop before it resumes; a dropped
message or a refusal ends the script. deliver lets the adversary inject
arbitrary terms at the same ends, named by targets such as owner_report:1.
"""

from __future__ import annotations

import weakref
from collections.abc import Callable, Iterator
from functools import partial
from typing import NamedTuple

from .. import crypto, sev, sgx
from ..codec import Atom, Term
from ..crypto import DecryptionFailure, InvalidPublicElement, Rng
from ..guest import (
    DESIGNATED_VM_CODE,
    DESIGNATED_VM_DIGEST,
    GuestNotRunning,
    GuestRuntime,
    ReportRequest,
)
from ..owner import TrustedOwner
from ..relying_party import (
    REASON_MALFORMED,
    EvidenceBundle,
    Verdict,
    VerificationInput,
    rp_verify_vm_quote,
)
from ..sev import (
    DeployPackage,
    MacVerificationFailed,
    MeasurementPackage,
    NoMeasuredSession,
    SecretPackage,
    SessionBusy,
    SevPlatform,
    SevPlatformCert,
)
from ..sgx import OWNER_ENCLAVE_MEASUREMENT, SgxPlatform
from .events import (
    FRESH_VALUE,
    KIND_ADVERSARY,
    KIND_SEND,
    KIND_TRANSITION,
    KIND_VERDICT,
    Trace,
)
from .knowledge import AdversaryKnowledge, Compromises, feed


class ForbiddenMeasurement(RuntimeError):
    """Quote requested for the owner-enclave measurement."""


class ForbiddenGuest(RuntimeError):
    """Secret extraction aimed at the designated guest (or no guest)."""


class CapabilityDenied(RuntimeError):
    """An adversary capability lacks what it needs: a key, a preimage, a message."""


class World:
    def __init__(self, seed: int) -> None:
        self.rng = Rng(seed)
        self.trace = Trace()
        self._knowledge: AdversaryKnowledge | None = None  # built on first read
        self._fed = 0  # events the view has caught up with

        self.intel_rot = crypto.sig_keygen(self.rng)
        self.amd_rot = crypto.sig_keygen(self.rng)
        self.sgx_platforms: list[SgxPlatform] = [
            sgx.new_sgx_platform(self.rng, self.intel_rot) for _ in range(2)
        ]
        self.sev_platforms: list[SevPlatform] = [
            sev.new_sev_platform(self.rng, self.amd_rot) for _ in range(2)
        ]

        self.owners: list[TrustedOwner] = []
        self.workloads: list[Atom] = []
        self.guests: list[str] = []
        self.last_verification: VerificationInput | None = None

        self.publish("intel_rot", Atom(self.intel_rot.public))
        self.publish("amd_rot", Atom(self.amd_rot.public))
        for plat in self.sgx_platforms:
            self._publish_cert("intel_rot", plat)
        for plat in self.sev_platforms:
            self._publish_cert("amd_rot", plat)
        self.add_owner(DESIGNATED_VM_CODE)

    @property
    def owner(self) -> TrustedOwner:
        """The designated owner, owner0."""
        return self.owners[0]

    def add_owner(self, code: Atom) -> int:
        """A new tenant: an owner enclave on the next SGX platform.

        Loads the enclave, publishes the workload the owner will deploy,
        and returns the owner's index.
        """
        i = len(self.owners)
        host = self.sgx_platforms[i]
        sgx.load_enclave(host, OWNER_ENCLAVE_MEASUREMENT)
        # The recorder holds the world weakly: a bound method would make
        # every World a reference cycle, left for the cyclic collector.
        self.owners.append(
            TrustedOwner(
                amd_ltk_pb=self.amd_rot.public,
                host_platform=host,
                rng=self.rng,
                record=partial(World.transition, weakref.proxy(self), f"owner{i}"),
            )
        )
        self.workloads.append(code)
        self.publish(f"owner{i}", code)
        return i

    # ---- trace plumbing ----------------------------------------------

    @property
    def knowledge(self) -> AdversaryKnowledge:
        """What the adversary knows, caught up with the trace."""
        knowledge = self._knowledge
        if knowledge is None:
            knowledge = self._knowledge = AdversaryKnowledge()
        self._catch_up()
        return knowledge

    @property
    def compromised(self) -> Compromises:
        """What the adversary has compromised: the caught-up view's record."""
        return self.knowledge.compromised

    def _catch_up(self) -> None:
        """Feed the view the events recorded since the last read."""
        events = self.trace.events
        start = self._fed
        if start < len(events):
            self._fed = len(events)
            feed(events[start:], self._knowledge)

    def send(self, src: str, dst: str, term: Term) -> Term:
        """Put a term on the bus: logged and visible to the adversary."""
        self.trace.append(KIND_SEND, src=src, dst=dst, term=term)
        return term

    def publish(self, src: str, term: Term) -> Term:
        return self.send(src, "bulletin", term)

    def _publish_cert(self, src: str, plat: SgxPlatform | SevPlatform) -> None:
        """Publish plat's certificate; it is derived when the send is first read."""
        self.trace.defer(
            KIND_SEND, lambda: {"src": src, "dst": "bulletin", "term": plat.cert.to_term()}
        )

    def transition(self, actor: str, label: str, **payload) -> None:
        self.trace.append(KIND_TRANSITION, actor=actor, label=label, **payload)

    def adversary_event(self, action: str, **body) -> None:
        self.trace.append(KIND_ADVERSARY, action=action, **body)

    # ---- receiving ends (honest handlers, also injection targets) ----

    def _quote(self, i: int, report: sgx.LocalReport) -> sgx.Quote:
        """sgx{i}'s quote of a local report it minted, its ereport recorded first."""
        host = self.sgx_platforms[i]
        self.transition(
            f"sgx{i}",
            "sgx_ereport",
            ppid=host.ppid,
            msr=report.enclave_msr,
            data=report.report_data,
        )
        return sgx.qe_generate_quote(host, report)

    def receive(self, kind: str, i: int, term: Term) -> tuple:
        """Party i's end of that kind takes a term: (message as parsed, reply).

        A term that does not parse, a refusal the step raises or a step's
        None (an owner's guard) is the end's one refusal transition, with
        error malformed, the refusal's class name or guard.
        """
        end = RECEIVING_ENDS[kind]
        try:
            message = end.message.from_term(term)
        except ValueError:
            message, error = None, "malformed"
        else:
            try:
                reply = end.step(self, i, message)
            except end.refusals as exc:
                error = type(exc).__name__
            else:
                if reply is not None:
                    return message, reply
                error = "guard"
        self.transition(f"{kind.partition('_')[0]}{i}", end.refusal, error=error)
        return message, None

    def recv_bundle(self, term: Term) -> Verdict:
        try:
            bundle = EvidenceBundle.from_term(term)
        except ValueError:
            self.trace.append(KIND_VERDICT, accept=False, reason=REASON_MALFORMED)
            return Verdict(REASON_MALFORMED)
        vin = bundle.verification_input(self.intel_rot.public, OWNER_ENCLAVE_MEASUREMENT)
        verdict = rp_verify_vm_quote(vin)
        self.trace.append(
            KIND_VERDICT,
            accept=verdict.accept,
            reason=verdict.reason,
            quote_msr=bundle.quote.msr,
            cert_ppid=bundle.sgx_cert.ppid,
            quote_data=bundle.quote.data,
            pspid=bundle.pspid,
            msr_dig=bundle.vmmsr.dig,
            msr_nonce=bundle.vmmsr.nonce,
            vmdata=bundle.vmdata,
        )
        if verdict.accept:
            self.last_verification = vin
        return verdict

    def deliver(self, target: str, term: Term):
        """Adversary injection: hand a term to a named receiving end.

        rp_bundle names the relying party, kind:i party i's end of that
        kind; any other target raises ValueError and records nothing. A
        reply goes back to the adversary on the bus; the end's result is
        returned either way.
        """
        if target == "rp_bundle":
            self.send("adv", "rp", term)
            return self.recv_bundle(term)
        kind, _, idx = target.partition(":")
        end, party = RECEIVING_ENDS.get(kind), kind.partition("_")[0]
        parties = self.sev_platforms if party == "sev" else self.owners
        if end is None or idx not in [str(i) for i in range(len(parties))]:
            raise ValueError(f"no receiving end: {target}")
        i = int(idx)
        self.send("adv", f"{party}{i}", term)
        _, reply = self.receive(kind, i, term)
        if end.replier is not None and reply is not None:
            self.send(f"{end.replier}{i}", "adv", reply.to_term())
        return reply

    # ---- adversary value creation (always logged) --------------------

    def adversary_fresh(self, n: int) -> bytes:
        value = self.rng.bytes(n)
        self.adversary_event(FRESH_VALUE, term=Atom(value))
        return value

    def _adversary_keygen(self, keygen, leak_kind: str):
        pair = keygen(self.rng)
        self.adversary_event(
            "adversary_keygen", leak=pair.private, leak_kind=leak_kind, term=Atom(pair.public)
        )
        return pair

    def adversary_sig_keygen(self) -> crypto.SigKeyPair:
        return self._adversary_keygen(crypto.sig_keygen, "sig_private")

    def adversary_kx_keygen(self) -> crypto.KxKeyPair:
        return self._adversary_keygen(crypto.kx_keygen, "dh_private")

    def adversary_compute(self, result: Term) -> Term:
        """Record a term the adversary computed from known material."""
        self.adversary_event("adversary_compute", term=result)
        return result

    def check_signing_key(self, private: bytes) -> None:
        """Raise CapabilityDenied unless the adversary minted or stole the key."""
        if not self.knowledge.knows(Atom(private)):
            raise CapabilityDenied("adversary lacks the signing key")

    def check_mac_key(self, key: bytes) -> None:
        """Raise CapabilityDenied unless the adversary can derive the key."""
        self.knowledge.analyze()
        if not self.knowledge.derivable(Atom(key)):
            raise CapabilityDenied("adversary lacks the MAC key")

    def adversary_sign(self, payload: Term, private: bytes) -> bytes:
        """Sign with a key the adversary minted or stole, never derived."""
        self.check_signing_key(private)
        sig = crypto.sign(payload, private)
        self.adversary_compute(Atom(sig))
        return sig

    def adversary_mac(self, payload: Term, key: bytes) -> bytes:
        """MAC under a key the adversary can derive, the tag recorded."""
        self.check_mac_key(key)
        tag = crypto.mac(payload, key)
        self.adversary_compute(Atom(tag))
        return tag

    def adversary_tamper(self, pipeline: "Pipeline", new_term: Term) -> None:
        """Replace the in-flight message of a pipeline."""
        if pipeline.in_flight is None:
            raise CapabilityDenied("nothing in flight to tamper with")
        self.adversary_event("tamper", slot=pipeline.in_flight_slot, term=new_term)
        pipeline.in_flight = new_term

    def adversary_drop(self, pipeline: "Pipeline") -> None:
        self.adversary_event("drop", slot=pipeline.in_flight_slot)
        pipeline.drop()

    def adversary_digest(self, preimage: Term) -> bytes:
        """Hash rule: digest of a derivable preimage, both recorded."""
        self.knowledge.analyze()
        if not self.knowledge.derivable(preimage):
            raise CapabilityDenied("adversary lacks the preimage")
        value = crypto.digest(preimage)
        self.adversary_compute(preimage)
        self.adversary_compute(Atom(value))
        return value

    # ---- compromise capabilities --------------------------------------

    def platform(self, family: str, index: int) -> SgxPlatform | SevPlatform:
        """sgx{index} or sev{index} by family; ValueError if index names none.

        None, a bool, or a negative or out-of-range number names none.
        """
        platforms = self.sgx_platforms if family == "sgx" else self.sev_platforms
        if type(index) is not int or index not in range(len(platforms)):
            raise ValueError(f"no {family} platform: {index!r}")
        return platforms[index]

    def compromise(self, what: str, index: int | None = None) -> None:
        """Steal one key; a key already stolen is not logged again.

        intel and amd steal a root of trust's signing key, qe the quoting
        key of sgx{index}, psp the PSP key of sev{index}. An index that
        names no platform raises ValueError and records nothing.
        """
        if what in ("qe", "psp"):
            plat = self.platform("sgx" if what == "qe" else "sev", index)
        taken = self.compromised
        if what in ("intel", "amd"):
            if not getattr(taken, what):
                rot = self.intel_rot if what == "intel" else self.amd_rot
                self.adversary_event(
                    f"compromise_{what}_rot", leak=rot.private, leak_kind="sig_private"
                )
        elif what == "qe":
            if plat.ppid.hex() not in taken.qe_ppids:
                self.adversary_event(
                    "compromise_sgx_qe",
                    ppid=plat.ppid,
                    leak=plat.qek.private,
                    leak_kind="sig_private",
                )
        elif what == "psp":
            if plat.psp_sn.public.hex() not in taken.psp_ids:
                self.adversary_event(
                    "compromise_sev_psp",
                    psp=plat.psp_sn.public,
                    leak=plat.psp_sn.private,
                    leak_kind="dh_private",
                )
        else:
            raise ValueError(f"unknown compromise: {what!r}")

    # ---- non-compromise adversary capabilities ------------------------

    def adversary_request_quote(
        self, platform: SgxPlatform, msr: Term, data: Term
    ) -> sgx.Quote:
        """Run the adversary's own enclave and quote it.

        Allowed for any measurement except the owner enclave's: the
        platform will happily attest adversary code, it just will not
        let adversary code impersonate the owner.
        """
        if msr == OWNER_ENCLAVE_MEASUREMENT:
            raise ForbiddenMeasurement("refusing to quote the owner-enclave measurement")
        sgx.load_enclave(platform, msr)
        report = sgx.ereport(platform, msr, data)
        quote = self._quote(self.sgx_platforms.index(platform), report)
        self.adversary_event(
            "adversary_request_quote", ppid=platform.ppid, term=quote.to_term()
        )
        return quote

    def adversary_extract_sev_secret(self, platform: SevPlatform) -> Term:
        """Pull the provisioned secret out of a running guest.

        Pre-SNP offers no memory protection against the host, so any
        running guest is fair game except the designated one, whose
        digest the secrecy property singles out.
        """
        session = platform.session
        if session is None or not session.running:
            raise ForbiddenGuest("no running guest on this platform")
        if session.msr.dig == DESIGNATED_VM_DIGEST:
            raise ForbiddenGuest("refusing to extract from the designated guest")
        secret = session.provisioned_secret
        self.adversary_event(
            "adversary_extract_sev_secret",
            psp=platform.psp_sn.public,
            dig=session.msr.dig,
            term=secret,
        )
        return secret

    def adversary_own_deploy(self, platform: SevPlatform, code: Atom) -> bool:
        """Adversary acts as guest owner for its own code on a free platform.

        Exercises the full deploy/measure/provision path with
        adversary-held keys; the resulting guest is the adversary's own
        (digest differs from the designated one by construction).
        """
        if platform.session is not None:
            return False
        if crypto.digest(code) == DESIGNATED_VM_DIGEST:
            return False
        idx = self.sev_platforms.index(platform)
        pair = self.adversary_kx_keygen()
        try:
            ss = crypto.shared_secret(platform.psp_sn.public, pair.private)
        except InvalidPublicElement:
            return False
        keys = sev.TransportKeys(tek=self.adversary_fresh(32), tik=self.adversary_fresh(32))
        pkg = sev.seal_deploy(ss, pair.public, keys, code, self.rng)
        mp = self.deliver(f"sev_deploy:{idx}", pkg.to_term())
        if mp is None:
            return False
        spkg = sev.seal_secret(mp.msr, Atom(self.adversary_fresh(32)), keys, self.rng)
        return self.deliver(f"sev_secret:{idx}", spkg.to_term()) is not None


class ReceivingEnd(NamedTuple):
    """One message kind's receiving end; its party is the kind's prefix, sev or owner."""

    message: type  # the message type the end parses
    replier: str | None  # the party prefix of the reply to an injection
    refusal: str  # the label of the end's one refusal transition
    step: Callable  # (world, i, message) -> the reply, None for a guard refusal
    refusals: tuple = ()  # the exceptions the step raises as refusals


def _psp_measure(world: World, i: int, pkg: DeployPackage) -> MeasurementPackage:
    platform = world.sev_platforms[i]
    mp = sev.psp_receive_deploy(platform, pkg, world.rng)
    world.transition(
        f"sev{i}",
        "sev_session_measured",
        psp=platform.psp_sn.public,
        dig=mp.msr.dig,
        nonce=mp.msr.nonce,
    )
    return mp


def _psp_launch(world: World, i: int, pkg: SecretPackage) -> GuestRuntime:
    """Launch the guest; there is no reply, the result is its runtime."""
    platform = world.sev_platforms[i]
    session = sev.psp_receive_secret(platform, pkg)
    runtime = GuestRuntime(session)
    guest_name = f"guest{len(world.guests)}"
    world.guests.append(guest_name)
    world.transition(
        f"sev{i}",
        "sev_guest_launched",
        guest=guest_name,
        psp=platform.psp_sn.public,
        dig=session.msr.dig,
    )
    return runtime


def _owner_quote(world: World, i: int, request: ReportRequest) -> sgx.Quote | None:
    """Owner i's report for a guest request, quoted by its host's QE."""
    report = world.owners[i].generate_report_for_vm(request.vmdata, request.tag)
    return None if report is None else world._quote(i, report)


#: Kind -> receiving end. Owner i runs on sgx{i} and deploys workloads[i].
RECEIVING_ENDS = {
    "sev_deploy": ReceivingEnd(
        DeployPackage,
        "sev",
        "sev_deploy_abort",
        _psp_measure,
        (SessionBusy, MacVerificationFailed, DecryptionFailure, InvalidPublicElement),
    ),
    "sev_secret": ReceivingEnd(
        SecretPackage,
        None,
        "sev_secret_abort",
        _psp_launch,
        (NoMeasuredSession, MacVerificationFailed, DecryptionFailure, GuestNotRunning),
    ),
    "owner_deploy": ReceivingEnd(
        SevPlatformCert,
        "owner",
        "owner_deploy_refused",
        lambda world, i, cert: world.owners[i].deploy_vm(cert, world.workloads[i]),
    ),
    "owner_measurement": ReceivingEnd(
        MeasurementPackage,
        "owner",
        "owner_provision_refused",
        lambda world, i, mp: world.owners[i].provision_vm(mp.msr, mp.mac_ti),
    ),
    "owner_report": ReceivingEnd(ReportRequest, "sgx", "owner_report_refused", _owner_quote),
}


class Pipeline:
    """Owner i's honest protocol run, stepped so the adversary can interleave.

    Owner i deploys workloads[i] to sev{i} and is quoted by sgx{i}. The
    run is one script; each advance() runs it to the next send or to the
    guest's launch. At most one message is in flight between advances:
    tamper with `in_flight` or call `drop()` before the next one. A
    dropped message or a refusal halts the run (the honest parties have
    nothing left to say), which is itself an observable outcome.
    """

    def __init__(self, world: World, i: int = 0) -> None:
        self.world = world
        self.in_flight: Term | None = None
        self.in_flight_slot: str | None = None
        self.done = False
        self.guest: GuestRuntime | None = None
        self.verdict: Verdict | None = None
        self._script = self._run(i)

    def advance(self) -> bool:
        if self.done:
            return False
        try:
            next(self._script)
        except StopIteration:
            self.done = True
        return True

    def run_all(self) -> None:
        while self.advance():
            pass

    def drop(self) -> None:
        self.in_flight = None
        self.in_flight_slot = None

    def _hand_over(self, src: str, dst: str, term: Term, slot: str) -> Iterator[None]:
        """Send a term, let the adversary act, and return what arrives."""
        self.world.send(src, dst, term)
        self.in_flight, self.in_flight_slot = term, slot
        yield
        term, self.in_flight, self.in_flight_slot = self.in_flight, None, None
        return term

    def _run(self, i: int) -> Iterator[None]:
        world = self.world
        owner, sev_name = f"owner{i}", f"sev{i}"
        sev_platform = world.sev_platforms[i]
        _, deploy = world.receive("owner_deploy", i, sev_platform.cert.to_term())
        if deploy is None:
            return
        term = yield from self._hand_over(owner, sev_name, deploy.to_term(), "deploy")
        if term is None:
            return
        _, measured = world.receive("sev_deploy", i, term)
        if measured is None:
            return
        term = yield from self._hand_over(sev_name, owner, measured.to_term(), "measurement")
        if term is None:
            return
        mp, secret = world.receive("owner_measurement", i, term)
        if secret is None:
            return
        term = yield from self._hand_over(owner, sev_name, secret.to_term(), "secret")
        if term is None:
            return
        _, self.guest = world.receive("sev_secret", i, term)
        if self.guest is None:
            return
        guest = world.guests[-1]
        yield
        request = self.guest.request_report(self.guest.next_report_payload())
        world.transition(
            guest, "guest_request_report", psp=sev_platform.psp_sn.public, vmdata=request.vmdata
        )
        term = yield from self._hand_over(guest, owner, request.to_term(), "report_request")
        if term is None:
            return
        request, quote = world.receive("owner_report", i, term)
        if quote is None:
            return
        bundle = EvidenceBundle(
            quote=quote,
            sgx_cert=world.sgx_platforms[i].cert,
            pspid=sev_platform.psp_sn.public,
            vmmsr=mp.msr,
            vmdata=request.vmdata,
        )
        term = yield from self._hand_over(owner, "rp", bundle.to_term(), "bundle")
        if term is not None:
            self.verdict = world.recv_bundle(term)
