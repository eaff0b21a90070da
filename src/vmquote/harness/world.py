"""Simulation world: actors, in-memory bus, adversary capabilities.

A World is built deterministically from a seed: roots of trust, two SGX
platforms (sgx0 hosts the trusted owner), two SEV platforms (sev0 is the
designated deployment target), the owner enclave, and a public bulletin
carrying every certificate, the root public keys, and the designated
guest code. All randomness of all actors flows from the single seeded
Rng, so a replay with the same seed reproduces every key, nonce, and
ciphertext byte.

Every event goes through World.record, which appends it to the trace
and applies both learn rules to it: AdversaryKnowledge.learn and
Compromises.learn. Live adversary knowledge and the live compromise
record are exactly what the events show, by the same rules the checkers
apply to a trace. An adversary capability that creates, leaks or steals
a value therefore only has to log it.

Each receiving end (PSP handlers, owner handlers, relying party) is one
recv_* method that returns its reply. The Pipeline drives one honest
protocol run through them step by step, holding at most one in-flight
message the adversary may tamper with or drop between steps, and
deliver lets the adversary inject arbitrary terms at the same handlers.
"""

from __future__ import annotations

from functools import partial

from .. import crypto, sev, sgx
from ..codec import TAG_TRANSPORT_KEYS, Atom, Label, Term, Tuple
from ..crypto import DecryptionFailure, InvalidPublicElement, Rng
from ..guest import DESIGNATED_VM_CODE, GuestNotRunning, GuestRuntime
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
    Measurement,
    MeasurementPackage,
    NoMeasuredSession,
    SecretPackage,
    SessionBusy,
    SevPlatform,
    SevPlatformCert,
)
from ..sgx import OWNER_ENCLAVE_MEASUREMENT, SgxPlatform
from .events import KIND_ADVERSARY, KIND_SEND, KIND_TRANSITION, KIND_VERDICT, Trace
from .knowledge import AdversaryKnowledge
from .properties import Compromises


class ForbiddenMeasurement(RuntimeError):
    """Quote requested for the owner-enclave measurement."""


class ForbiddenGuest(RuntimeError):
    """Secret extraction aimed at the designated guest (or no guest)."""


class World:
    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = Rng(seed)
        self.trace = Trace()
        self.knowledge = AdversaryKnowledge()
        self.compromised = Compromises()
        self.designated_dig = crypto.digest(DESIGNATED_VM_CODE)

        self.intel_rot = sgx.new_intel_rot(self.rng)
        self.amd_rot = sev.new_amd_rot(self.rng)

        self.sgx_platforms: list[SgxPlatform] = []
        for _ in range(2):
            plat = sgx.new_sgx_platform(self.rng)
            plat.cert = sgx.intel_rot_certify(self.intel_rot, plat.qek.public, plat.ppid)
            self.sgx_platforms.append(plat)
        sgx.load_enclave(self.sgx_platforms[0], OWNER_ENCLAVE_MEASUREMENT)

        self.sev_platforms: list[SevPlatform] = []
        for _ in range(2):
            plat = sev.new_sev_platform(self.rng)
            plat.cert = sev.amd_rot_certify(self.amd_rot, plat.psp_sn.public)
            self.sev_platforms.append(plat)

        self.owner = TrustedOwner(
            amd_ltk_pb=self.amd_rot.public,
            host_platform=self.sgx_platforms[0],
            rng=self.rng,
        )
        self.guests: list[str] = []
        self.last_verification: VerificationInput | None = None

        self.publish("intel_rot", Atom(self.intel_rot.public))
        self.publish("amd_rot", Atom(self.amd_rot.public))
        for plat in self.sgx_platforms:
            self.publish("intel_rot", plat.cert.to_term())
        for plat in self.sev_platforms:
            self.publish("amd_rot", plat.cert.to_term())
        self.publish("owner0", DESIGNATED_VM_CODE)

    # ---- naming ------------------------------------------------------

    def sgx_name(self, plat: SgxPlatform) -> str:
        return f"sgx{self.sgx_platforms.index(plat)}"

    def sev_name(self, plat: SevPlatform) -> str:
        return f"sev{self.sev_platforms.index(plat)}"

    # ---- trace plumbing ----------------------------------------------

    def record(self, kind: str, **body) -> None:
        """Append one event; the adversary learns what it shows."""
        self.compromised.learn(self.trace.append(kind, **body))
        self.knowledge.learn(kind, body.get("term"), body.get("leak"), body.get("leak_kind"))

    def send(self, src: str, dst: str, term: Term) -> Term:
        """Put a term on the bus: logged and visible to the adversary."""
        self.record(KIND_SEND, src=src, dst=dst, term=term)
        return term

    def publish(self, src: str, term: Term) -> Term:
        return self.send(src, "bulletin", term)

    def transition(self, actor: str, label: str, **payload) -> None:
        self.record(KIND_TRANSITION, actor=actor, label=label, **payload)

    def adversary_event(self, action: str, **body) -> None:
        self.record(KIND_ADVERSARY, action=action, **body)

    def drain_owner(self, owner: TrustedOwner, name: str) -> None:
        """Move the enclave's action records into the trace."""
        while owner.actions:
            label, payload = owner.actions.pop(0)
            self.transition(name, label, **payload)

    # ---- honest owner deployment --------------------------------------

    def owner_deploy(
        self, owner: TrustedOwner, name: str, cert: SevPlatformCert, vm_code: Atom
    ) -> DeployPackage | None:
        """The owner's opening move: a deploy package for the certified PSP."""
        result = owner.deploy_vm(cert, crypto.digest(vm_code))
        self.drain_owner(owner, name)
        if result is None:
            self.transition(name, "owner_deploy_refused", error="guard")
            return None
        return DeployPackage(
            go_sn_pb=result.go_sn_pb, blob_d=result.blob_d, mac_d=result.mac_d, vmc=vm_code
        )

    # ---- receiving ends (honest handlers, also injection targets) ----

    def recv_deploy(
        self, platform: SevPlatform, name: str, term: Term
    ) -> MeasurementPackage | None:
        try:
            pkg = DeployPackage.from_term(term)
        except ValueError:
            self.transition(name, "sev_deploy_abort", error="malformed")
            return None
        try:
            mp = sev.psp_receive_deploy(platform, pkg, self.rng)
        except (
            SessionBusy,
            MacVerificationFailed,
            DecryptionFailure,
            InvalidPublicElement,
        ) as exc:
            self.transition(name, "sev_deploy_abort", error=type(exc).__name__)
            return None
        self.transition(
            name,
            "sev_session_measured",
            psp=platform.psp_sn.public,
            dig=mp.msr.dig,
            nonce=mp.msr.nonce,
        )
        return mp

    def recv_secret(
        self, platform: SevPlatform, name: str, term: Term
    ) -> GuestRuntime | None:
        """Launch the guest; there is no reply, the result is its runtime."""
        try:
            pkg = SecretPackage.from_term(term)
        except ValueError:
            self.transition(name, "sev_secret_abort", error="malformed")
            return None
        try:
            session = sev.psp_receive_secret(platform, pkg)
        except (NoMeasuredSession, MacVerificationFailed, DecryptionFailure) as exc:
            self.transition(name, "sev_secret_abort", error=type(exc).__name__)
            return None
        try:
            runtime = GuestRuntime(session)
        except GuestNotRunning as exc:
            self.transition(name, "sev_secret_abort", error=type(exc).__name__)
            return None
        guest_name = f"guest{len(self.guests)}"
        self.guests.append(guest_name)
        self.transition(
            name,
            "sev_guest_launched",
            guest=guest_name,
            psp=platform.psp_sn.public,
            dig=session.dig,
        )
        return runtime

    def recv_measurement(
        self, owner: TrustedOwner, name: str, term: Term
    ) -> SecretPackage | None:
        try:
            mp = MeasurementPackage.from_term(term)
        except ValueError:
            self.transition(name, "owner_provision_refused", error="malformed")
            return None
        result = owner.provision_vm(mp.msr, mp.mac_ti)
        self.drain_owner(owner, name)
        if result is None:
            self.transition(name, "owner_provision_refused", error="guard")
        return result

    def recv_report_request(
        self, owner: TrustedOwner, name: str, host: SgxPlatform, term: Term
    ) -> sgx.Quote | None:
        """The owner's report for a guest request, quoted by its host's QE."""
        if not isinstance(term, Tuple) or len(term) != 2 or not isinstance(
            term.items[1], Atom
        ):
            self.transition(name, "owner_report_refused", error="malformed")
            return None
        report = owner.generate_report_for_vm(term.items[0], term.items[1].value)
        self.drain_owner(owner, name)
        if report is None:
            self.transition(name, "owner_report_refused", error="guard")
            return None
        self.transition(
            self.sgx_name(host),
            "sgx_ereport",
            ppid=host.ppid,
            msr=report.enclave_msr,
            data=report.report_data,
        )
        return sgx.qe_generate_quote(host, report)

    def recv_bundle(self, term: Term) -> Verdict:
        try:
            bundle = EvidenceBundle.from_term(term)
        except ValueError:
            self.record(KIND_VERDICT, accept=False, reason=REASON_MALFORMED)
            return Verdict(accept=False, reason=REASON_MALFORMED)
        vin = bundle.verification_input(self.intel_rot.public, OWNER_ENCLAVE_MEASUREMENT)
        verdict = rp_verify_vm_quote(vin)
        self.record(
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

    def _receiving_end(self, target: str) -> tuple:
        """A deliver target's (receiver, reply sender or None, handler)."""
        kind, _, idx = target.partition(":")
        if kind in ("sev_deploy", "sev_secret"):
            plat = self.sev_platforms[int(idx)]
            name = self.sev_name(plat)
            if kind == "sev_deploy":
                return name, name, partial(self.recv_deploy, plat, name)
            return name, None, partial(self.recv_secret, plat, name)
        if kind == "owner_measurement":
            return "owner0", "owner0", partial(self.recv_measurement, self.owner, "owner0")
        if kind == "owner_report":
            host = self.sgx_platforms[0]
            handler = partial(self.recv_report_request, self.owner, "owner0", host)
            return "owner0", self.sgx_name(host), handler
        if kind == "rp_bundle":
            return "rp", None, self.recv_bundle
        raise ValueError(f"unknown deliver target: {target}")

    def deliver(self, target: str, term: Term):
        """Adversary injection: hand a term to a named receiving end.

        A reply goes back to the adversary on the bus; the handler's
        result is returned either way.
        """
        receiver, replier, handler = self._receiving_end(target)
        self.send("adv", receiver, term)
        result = handler(term)
        if replier is not None and result is not None:
            self.send(replier, "adv", result.to_term())
        return result

    # ---- adversary value creation (always logged) --------------------

    def adversary_fresh(self, n: int) -> bytes:
        value = self.rng.bytes(n)
        self.adversary_event("fresh_value", term=Atom(value))
        return value

    def adversary_sig_keygen(self) -> crypto.SigKeyPair:
        pair = crypto.sig_keygen(self.rng)
        self.adversary_event(
            "adversary_keygen",
            leak=pair.private,
            leak_kind="sig_private",
            term=Atom(pair.public),
        )
        return pair

    def adversary_kx_keygen(self) -> crypto.KxKeyPair:
        pair = crypto.kx_keygen(self.rng)
        self.adversary_event(
            "adversary_keygen",
            leak=pair.private,
            leak_kind="dh_private",
            term=Atom(pair.public),
        )
        return pair

    def adversary_compute(self, result: Term) -> Term:
        """Record a term the adversary computed from known material."""
        self.adversary_event("adversary_compute", term=result)
        return result

    def adversary_sign(self, payload: Term, private: bytes) -> bytes:
        sig = crypto.sign(payload, private)
        self.adversary_compute(Atom(sig))
        return sig

    def adversary_mac(self, payload: Term, key: bytes) -> bytes:
        tag = crypto.mac(payload, key)
        self.adversary_compute(Atom(tag))
        return tag

    def adversary_tamper(self, pipeline: "Pipeline", new_term: Term) -> None:
        """Replace the in-flight message of a pipeline."""
        assert pipeline.in_flight is not None, "nothing in flight to tamper with"
        self.adversary_event("tamper", slot=pipeline.in_flight_slot, term=new_term)
        pipeline.in_flight = new_term

    def adversary_drop(self, pipeline: "Pipeline") -> None:
        self.adversary_event("drop", slot=pipeline.in_flight_slot)
        pipeline.drop()

    def adversary_digest(self, preimage: Term) -> bytes:
        """Hash rule: digest of a derivable preimage, both recorded."""
        self.knowledge.analyze()
        assert self.knowledge.derivable(preimage), "adversary lacks the preimage"
        value = crypto.digest(preimage)
        self.adversary_compute(preimage)
        self.adversary_compute(Atom(value))
        return value

    # ---- compromise capabilities --------------------------------------

    def compromise_intel_rot(self) -> None:
        if self.compromised.intel:
            return
        self.adversary_event(
            "compromise_intel_rot",
            leak=self.intel_rot.ltk.private,
            leak_kind="sig_private",
        )

    def compromise_amd_rot(self) -> None:
        if self.compromised.amd:
            return
        self.adversary_event(
            "compromise_amd_rot",
            leak=self.amd_rot.ltk.private,
            leak_kind="sig_private",
        )

    def compromise_sgx_qe(self, platform: SgxPlatform) -> None:
        if platform.ppid.hex() in self.compromised.qe_ppids:
            return
        self.adversary_event(
            "compromise_sgx_qe",
            ppid=platform.ppid,
            leak=platform.qek.private,
            leak_kind="sig_private",
        )

    def compromise_sev_psp(self, platform: SevPlatform) -> None:
        if platform.psp_sn.public.hex() in self.compromised.psp_ids:
            return
        self.adversary_event(
            "compromise_sev_psp",
            psp=platform.psp_sn.public,
            leak=platform.psp_sn.private,
            leak_kind="dh_private",
        )

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
        self.transition(
            self.sgx_name(platform),
            "sgx_ereport",
            ppid=platform.ppid,
            msr=msr,
            data=data,
        )
        quote = sgx.qe_generate_quote(platform, report)
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
        if session.dig == self.designated_dig:
            raise ForbiddenGuest("refusing to extract from the designated guest")
        secret = session.provisioned_secret
        self.adversary_event(
            "adversary_extract_sev_secret",
            psp=platform.psp_sn.public,
            dig=session.dig,
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
        if crypto.digest(code) == self.designated_dig:
            return False
        idx = self.sev_platforms.index(platform)
        pair = self.adversary_kx_keygen()
        try:
            ss = crypto.shared_secret(platform.psp_sn.public, pair.private)
        except InvalidPublicElement:
            return False
        kek = crypto.derive_wrap_key(crypto.WRAP_KEY_LABELS[0], ss)
        kik = crypto.derive_wrap_key(crypto.WRAP_KEY_LABELS[1], ss)
        tek = self.adversary_fresh(32)
        tik = self.adversary_fresh(32)
        blob_d = crypto.encrypt(
            Tuple([Label(TAG_TRANSPORT_KEYS), Atom(tek), Atom(tik)]), kek, self.rng
        )
        mac_d = crypto.mac(Atom(blob_d), kik)
        pkg = DeployPackage(go_sn_pb=pair.public, blob_d=blob_d, mac_d=mac_d, vmc=code)
        mp = self.deliver(f"sev_deploy:{idx}", pkg.to_term())
        if mp is None:
            return False
        cik = self.adversary_fresh(32)
        blob_p = crypto.encrypt(Atom(cik), tek, self.rng)
        mac_p = crypto.mac(Tuple([mp.msr.to_term(), Atom(blob_p)]), tik)
        spkg = SecretPackage(blob_p=blob_p, mac_p=mac_p)
        return self.deliver(f"sev_secret:{idx}", spkg.to_term()) is not None


class Pipeline:
    """One honest protocol run, stepped so the adversary can interleave.

    At most one message is in flight between steps; tamper with
    `in_flight` or call `drop()` before the consuming step runs. A
    failed step halts the rest of the pipeline (the honest parties have
    nothing left to say), which is itself an observable outcome.
    """

    def __init__(
        self,
        world: World,
        owner: TrustedOwner | None = None,
        owner_name: str = "owner0",
        sev_platform: SevPlatform | None = None,
        sgx_platform: SgxPlatform | None = None,
        vm_code: Atom = DESIGNATED_VM_CODE,
    ) -> None:
        self.world = world
        self.owner = owner if owner is not None else world.owner
        self.owner_name = owner_name
        self.sev_platform = sev_platform if sev_platform is not None else world.sev_platforms[0]
        self.sgx_platform = sgx_platform if sgx_platform is not None else world.sgx_platforms[0]
        self.vm_code = vm_code
        self.sev_name = world.sev_name(self.sev_platform)
        self.in_flight: Term | None = None
        self.in_flight_slot: str | None = None
        self.halted = False
        self.guest: GuestRuntime | None = None
        self.guest_name: str | None = None
        self.last_measurement: Measurement | None = None
        self.verdict: Verdict | None = None
        self._steps = [
            self.step_owner_deploy,
            self.step_sp_deploy,
            self.step_owner_provision,
            self.step_sp_launch,
            self.step_guest_report,
            self.step_owner_quote,
            self.step_rp_verify,
        ]
        self._idx = 0

    @property
    def done(self) -> bool:
        return self.halted or self._idx >= len(self._steps)

    def advance(self) -> bool:
        if self.done:
            return False
        step = self._steps[self._idx]
        self._idx += 1
        step()
        return True

    def run_all(self) -> None:
        while self.advance():
            pass

    def drop(self) -> None:
        self.in_flight = None
        self.in_flight_slot = None

    def _emit(self, src: str, dst: str, term: Term, slot: str) -> None:
        self.world.send(src, dst, term)
        self.in_flight = term
        self.in_flight_slot = slot

    def _take(self, slot: str) -> Term | None:
        if self.in_flight is None or self.in_flight_slot != slot:
            self.halted = True
            return None
        term = self.in_flight
        self.in_flight = None
        self.in_flight_slot = None
        return term

    def step_owner_deploy(self) -> None:
        pkg = self.world.owner_deploy(
            self.owner, self.owner_name, self.sev_platform.cert, self.vm_code
        )
        if pkg is None:
            self.halted = True
            return
        self._emit(self.owner_name, self.sev_name, pkg.to_term(), "deploy")

    def step_sp_deploy(self) -> None:
        term = self._take("deploy")
        if term is None:
            return
        mp = self.world.recv_deploy(self.sev_platform, self.sev_name, term)
        if mp is None:
            self.halted = True
            return
        self._emit(self.sev_name, self.owner_name, mp.to_term(), "measurement")

    def step_owner_provision(self) -> None:
        term = self._take("measurement")
        if term is None:
            return
        pkg = self.world.recv_measurement(self.owner, self.owner_name, term)
        if pkg is None:
            self.halted = True
            return
        self.last_measurement = MeasurementPackage.from_term(term).msr
        self._emit(self.owner_name, self.sev_name, pkg.to_term(), "secret")

    def step_sp_launch(self) -> None:
        term = self._take("secret")
        if term is None:
            return
        runtime = self.world.recv_secret(self.sev_platform, self.sev_name, term)
        if runtime is None:
            self.halted = True
            return
        self.guest = runtime
        self.guest_name = self.world.guests[-1]

    def step_guest_report(self) -> None:
        if self.guest is None:
            self.halted = True
            return
        payload = self.guest.next_report_payload()
        vmdata, tag = self.guest.request_report(payload)
        self.world.transition(
            self.guest_name,
            "guest_request_report",
            psp=self.sev_platform.psp_sn.public,
            vmdata=vmdata,
        )
        self._emit(
            self.guest_name, self.owner_name, Tuple([vmdata, Atom(tag)]), "report_request"
        )

    def step_owner_quote(self) -> None:
        term = self._take("report_request")
        if term is None:
            return
        quote = self.world.recv_report_request(
            self.owner, self.owner_name, self.sgx_platform, term
        )
        if quote is None:
            self.halted = True
            return
        bundle = EvidenceBundle(
            quote=quote,
            sgx_cert=self.sgx_platform.cert,
            pspid=self.sev_platform.psp_sn.public,
            vmmsr=self.last_measurement,
            vmdata=term.items[0],
        )
        self._emit(self.owner_name, "rp", bundle.to_term(), "bundle")

    def step_rp_verify(self) -> None:
        term = self._take("bundle")
        if term is None:
            return
        self.verdict = self.world.recv_bundle(term)
