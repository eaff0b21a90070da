"""Simulator, scenarios, trace properties, checker soundness."""

import copy
import gc
import os
import pickle
import subprocess
import sys
import textwrap
import weakref
from collections import Counter
from pathlib import Path

import pytest

import vmquote
from vmquote import crypto, relying_party, sev, sgx
from vmquote.codec import Atom, Label, encode, to_hex
from vmquote.guest import DESIGNATED_VM_CODE, ReportRequest
from vmquote.harness import (
    COMPROMISE_ATTACKS,
    DEFAULT_MASK,
    Compromises,
    NEGATIVE_SCENARIOS,
    PROPERTY_IDS,
    SCENARIOS,
    CapabilityDenied,
    ForbiddenGuest,
    ForbiddenMeasurement,
    Pipeline,
    Trace,
    UnknownProperty,
    UnknownScenario,
    World,
    check_all,
    check_postcondition,
    check_property,
    fuzz_adversary,
    rebuild_knowledge,
    run_scenario,
    run_scenario_world,
)
from vmquote.harness import events, properties
from vmquote.harness.events import (
    KIND_ADVERSARY,
    KIND_SEND,
    KIND_TRANSITION,
    KIND_VERDICT,
    Event,
    term_hex,
)
from vmquote.harness.fuzz import _INJECT_TARGETS, Move, apply
from vmquote.harness.world import RECEIVING_ENDS
from vmquote.owner import report_data_preimage
from vmquote.relying_party import EvidenceBundle
from vmquote.sgx import OWNER_ENCLAVE_MEASUREMENT


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_postcondition(name):
    world, info = run_scenario_world(name, seed=0)
    assert check_postcondition(name, world, info)


def test_unknown_scenario():
    with pytest.raises(UnknownScenario):
        run_scenario("no_such_scenario")


def test_unknown_property():
    with pytest.raises(UnknownProperty):
        check_property(Trace(), "no_such_property")


def test_scenario_registries_consistent():
    for name in NEGATIVE_SCENARIOS + COMPROMISE_ATTACKS:
        assert name in SCENARIOS


class TestHonestRun:
    def test_verdict_accepts(self):
        world, info = run_scenario_world("honest")
        assert info["verdict"].accept
        assert world.owner.phase == "PROVISIONED"

    def test_all_properties_hold_with_zero_escapes(self):
        world, _ = run_scenario_world("honest")
        results = check_all(world.trace, world.knowledge)
        for pid in PROPERTY_IDS:
            assert results[pid].holds
            assert results[pid].escaped == 0
        assert results["sgx_quote_authenticity"].matched == 1
        assert results["vm_quote_authenticity"].matched == 1

    def test_pipeline_runs_to_done(self):
        world = World(seed=3)
        pipe = Pipeline(world)
        pipe.run_all()
        assert pipe.done
        assert pipe.verdict.accept

    def test_pipeline_step_boundaries(self):
        """Each advance ends after a send or after the launch."""
        pipe = Pipeline(World(seed=0))
        seen = []
        for _ in range(7):
            seen.append((pipe.advance(), pipe.in_flight_slot, pipe.done))
        assert seen == [
            (True, "deploy", False),
            (True, "measurement", False),
            (True, "secret", False),
            (True, None, False),
            (True, "report_request", False),
            (True, "bundle", False),
            (True, None, True),
        ]
        assert pipe.advance() is False
        assert pipe.verdict.accept

    def test_finished_world_is_freed_without_the_cycle_collector(self):
        """No reference cycle keeps a world, its trace and its knowledge alive."""
        gc.disable()
        try:
            world = World(seed=0)
            Pipeline(world).run_all()
            freed = weakref.ref(world)
            del world
            assert freed() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("k", (1, 2, 3, 5, 6))
    def test_drop_halts_at_the_next_advance(self, k):
        pipe = Pipeline(World(seed=0))
        for _ in range(k):
            pipe.advance()
        pipe.drop()
        assert pipe.advance() is True
        assert pipe.done
        assert pipe.verdict is None


class TestCompromiseScenarios:
    def test_pre_attacks_accept_but_escape(self):
        for name in COMPROMISE_ATTACKS:
            world, info = run_scenario_world(name, seed=1)
            results = check_all(world.trace, world.knowledge)
            assert all(results[pid].holds for pid in PROPERTY_IDS), name
            assert any(results[pid].escaped > 0 for pid in PROPERTY_IDS), name

    def test_check_all_reads_one_view(self, monkeypatch):
        """check_all judges as check_property does, from one adversary view.

        Given the view, escapes come from its own record and nothing is
        rebuilt; without it, exactly one view is rebuilt from the trace.
        """
        world, _ = run_scenario_world("compromise_sev_psp_pre", seed=1)
        alone = {pid: check_property(world.trace, pid, world.knowledge) for pid in PROPERTY_IDS}
        built = []
        rebuild = properties.rebuild_knowledge

        def counted(trace):
            built.append(trace)
            return rebuild(trace)

        monkeypatch.setattr(properties, "rebuild_knowledge", counted)
        assert check_all(world.trace, world.knowledge) == alone
        assert built == []
        assert check_all(world.trace) == alone
        assert built == [world.trace]

    def test_check_all_reads_each_grouped_field_once(self, monkeypatch):
        """check_all reads a transition's label, a verdict's accept and quote_msr once.

        The three checkers share one grouping of the trace; quote_msr is
        read only for an accepted verdict.
        """
        worlds = [run_scenario_world(name, seed=1)[0] for name in sorted(SCENARIOS)]
        for seed in range(3):
            world = World(seed=seed)
            fuzz_adversary(world, seed=seed, steps=40, mask=DEFAULT_MASK)
            worlds.append(world)
        reads = Counter()
        get = Event.get

        def counted(ev, key):
            reads[id(ev), key] += 1
            return get(ev, key)

        transitions = accepted = 0
        for world in worlds:
            world.knowledge.analyze()
            parsed = Trace.from_jsonl(world.trace.to_jsonl())
            for trace, knowledge in ((world.trace, world.knowledge), (parsed, None)):
                reads.clear()
                monkeypatch.setattr(Event, "get", counted)
                check_all(trace, knowledge)
                monkeypatch.setattr(Event, "get", get)
                for ev in trace.of_kind(KIND_TRANSITION):
                    assert reads[id(ev), "label"] == 1, ev
                    transitions += 1
                for ev in trace.of_kind(KIND_VERDICT):
                    accept = bool(ev.get("accept"))
                    assert reads[id(ev), "accept"] == 1, ev
                    assert reads[id(ev), "quote_msr"] == accept, ev
                    accepted += accept
        assert transitions > 0 and accepted > 0

    @staticmethod
    def _provisioned_cik(world):
        for ev in world.trace.of_kind(KIND_TRANSITION):
            if ev.get("label") == "owner_provision_vm":
                return ev.data("cik")
        raise AssertionError("no provision transition in trace")

    def test_post_hoc_psp_compromise_opens_past_traffic(self):
        """No forward secrecy: a key stolen later decrypts old sessions."""
        world, _ = run_scenario_world("compromise_sev_psp_post")
        cik = Atom(self._provisioned_cik(world))
        live = rebuild_knowledge(world.trace)
        parsed = rebuild_knowledge(Trace.from_jsonl(world.trace.to_jsonl()))
        for know in (live, parsed):
            know.analyze()
            assert know.derivable(cik)
        assert check_property(world.trace, "sev_secret_secrecy").holds

    def test_post_hoc_amd_compromise_opens_nothing(self):
        """The AMD signing key decrypts no traffic, past or future."""
        world, _ = run_scenario_world("compromise_amd_rot_post")
        cik = Atom(self._provisioned_cik(world))
        live = rebuild_knowledge(world.trace)
        parsed = rebuild_knowledge(Trace.from_jsonl(world.trace.to_jsonl()))
        for know in (live, parsed):
            know.analyze()
            assert not know.derivable(cik)


class TestCheckerSoundness:
    """Hand-built traces that must fail: the checkers cannot be vacuous."""

    def _accept_event(self, seq, **extra):
        body = {
            "accept": True,
            "reason": None,
            "quote_msr": term_hex(OWNER_ENCLAVE_MEASUREMENT),
            "cert_ppid": "aa" * 16,
            "quote_data": term_hex(Atom(b"\xbb" * 32)),
            "pspid": "cc" * 32,
            "msr_dig": crypto.digest(DESIGNATED_VM_CODE).hex(),
            "msr_nonce": "dd" * 16,
            "vmdata": term_hex(Atom(b"\xee")),
        }
        body.update(extra)
        return Event(seq=seq, kind=KIND_VERDICT, body=body)

    def test_unbacked_accept_fails_sgx_authenticity(self):
        trace = Trace()
        trace.events.append(self._accept_event(0))
        result = check_property(trace, "sgx_quote_authenticity")
        assert not result.holds
        assert result.witness["cert_ppid"] == "aa" * 16

    def test_unbacked_accept_fails_vm_authenticity(self):
        trace = Trace()
        trace.events.append(self._accept_event(0))
        result = check_property(trace, "vm_quote_authenticity")
        assert not result.holds

    def test_compromise_event_excuses_it(self):
        trace = Trace()
        trace.append(
            "adversary",
            action="compromise_intel_rot",
            leak="00" * 32,
            leak_kind="sig_private",
        )
        trace.events.append(self._accept_event(1))
        r1 = check_property(trace, "sgx_quote_authenticity")
        r3 = check_property(trace, "vm_quote_authenticity")
        assert r1.holds and r1.escaped == 1
        assert r3.holds and r3.escaped == 1

    def test_report_after_verdict_does_not_count(self):
        """Correspondence is temporal: the report must come first."""
        trace = Trace()
        trace.events.append(self._accept_event(0))
        trace.append(
            "transition",
            actor="owner0",
            label="owner_generate_report",
            host_ppid="aa" * 16,
            rpdata="bb" * 32,
        )
        assert not check_property(trace, "sgx_quote_authenticity").holds

    def test_matching_prior_report_satisfies(self):
        trace = Trace()
        trace.append(
            "transition",
            actor="owner0",
            label="owner_generate_report",
            host_ppid="aa" * 16,
            rpdata="bb" * 32,
        )
        trace.events.append(self._accept_event(1))
        result = check_property(trace, "sgx_quote_authenticity")
        assert result.holds and result.matched == 1

    def test_leaked_secret_fails_secrecy(self):
        cik = b"\x5a" * 32
        trace = Trace()
        trace.append(
            "transition",
            actor="owner0",
            label="owner_provision_vm",
            psp_id="cc" * 32,
            cik=cik.hex(),
            vm_dig=crypto.digest(DESIGNATED_VM_CODE).hex(),
            msr_dig=crypto.digest(DESIGNATED_VM_CODE).hex(),
            msr_nonce="dd" * 16,
        )
        trace.append("send", src="adv", dst="bus", term=term_hex(Atom(cik)))
        result = check_property(trace, "sev_secret_secrecy")
        assert not result.holds
        assert result.witness["cik"] == cik.hex()

    @pytest.mark.parametrize("pid", ["sgx_quote_authenticity", "vm_quote_authenticity"])
    def test_first_unexcused_unbacked_accept_is_the_witness(self, pid):
        """Judging stops at the first accept neither excused nor backed."""
        trace = Trace()
        trace.append(
            "adversary",
            action="compromise_sgx_qe",
            ppid="aa" * 16,
            leak="00" * 32,
            leak_kind="sig_private",
        )
        for seq, ppid in enumerate(("aa", "ee", "ff"), start=1):
            trace.events.append(self._accept_event(seq, cert_ppid=ppid * 16))
        result = check_property(trace, pid)
        assert not result.holds
        assert result.witness["cert_ppid"] == "ee" * 16
        assert result.matched == 0
        assert result.escaped == 1

    def test_accepted_quote_of_another_enclave_fails_sgx_authenticity(self, monkeypatch):
        """A relying party that skips its measurement check is caught.

        The adversary's own enclave on sgx0 is quoted over the report data
        the honest run's evidence expects, and the planted relying party
        accepts that bundle. Nothing the default mask protects is stolen,
        so the accept is an unbacked instance, though an owner report on
        sgx0 with the same data precedes it. vm_quote_authenticity judges
        only owner-enclave accepts. A stolen sgx0 quoting key excuses it.
        """

        def no_measurement_check(msr_exp, data_exp, quote, cert, intel_pk):
            return sgx.quote_check_failure(quote.msr, data_exp, quote, cert, intel_pk)

        monkeypatch.setattr(relying_party, "quote_check_failure", no_measurement_check)
        world = World(seed=3)
        Pipeline(world).run_all()
        vin = world.last_verification
        data = Atom(crypto.digest(report_data_preimage(vin.pspid, vin.vmmsr, vin.vmdata)))
        msr = Atom(world.adversary_fresh(16))
        quote = world.adversary_request_quote(world.sgx_platforms[0], msr, data)
        forged = EvidenceBundle(quote, vin.sgx_cert, vin.pspid, vin.vmmsr, vin.vmdata)
        assert world.deliver("rp_bundle", forged.to_term()).accept
        parsed = Trace.from_jsonl(world.trace.to_jsonl())
        for results in (check_all(world.trace, world.knowledge), check_all(parsed)):
            sgx_result = results["sgx_quote_authenticity"]
            assert not sgx_result.holds
            assert sgx_result.witness["quote_msr"] == term_hex(msr)
            assert (sgx_result.matched, sgx_result.escaped) == (1, 0)
            assert results["vm_quote_authenticity"].holds
        world.compromise("qe", 0)
        result = check_all(world.trace, world.knowledge)["sgx_quote_authenticity"]
        assert result.holds and result.escaped == 2

    def test_psp_escape_excuses_only_its_own_provision(self):
        """A later PSP compromise excuses that PSP's cik, not the other's."""
        ciks = (b"\x5a" * 32, b"\x6b" * 32)
        psps = ("cc" * 32, "c1" * 32)
        trace = Trace()
        for cik, psp in zip(ciks, psps):
            trace.append(
                "transition",
                actor="owner0",
                label="owner_provision_vm",
                psp_id=psp,
                cik=cik.hex(),
                vm_dig=crypto.digest(DESIGNATED_VM_CODE).hex(),
                msr_dig=crypto.digest(DESIGNATED_VM_CODE).hex(),
                msr_nonce="dd" * 16,
            )
        for cik in ciks:
            trace.append("send", src="adv", dst="bus", term=term_hex(Atom(cik)))
        trace.append(
            "adversary",
            action="compromise_sev_psp",
            psp=psps[0],
            leak="11" * 32,
            leak_kind="dh_private",
        )
        result = check_property(trace, "sev_secret_secrecy")
        assert not result.holds
        assert result.witness["cik"] == ciks[1].hex()
        assert result.escaped == 1


class TestAdversaryInterfaceLimits:
    def test_owner_enclave_quote_refused(self):
        world = World(seed=5)
        with pytest.raises(ForbiddenMeasurement):
            world.adversary_request_quote(
                world.sgx_platforms[1], OWNER_ENCLAVE_MEASUREMENT, Atom(b"x")
            )

    def test_other_enclave_quote_allowed(self):
        world = World(seed=5)
        quote = world.adversary_request_quote(
            world.sgx_platforms[1], Label("adv_enclave"), Atom(b"x")
        )
        assert quote is not None

    def test_designated_guest_extraction_refused(self):
        world, info = run_scenario_world("honest")
        with pytest.raises(ForbiddenGuest):
            world.adversary_extract_sev_secret(world.sev_platforms[0])

    def test_extraction_without_guest_refused(self):
        world = World(seed=5)
        with pytest.raises(ForbiddenGuest):
            world.adversary_extract_sev_secret(world.sev_platforms[1])

    @pytest.mark.parametrize(
        "move",
        (
            Move("forge_sev_cert", ("owner_deploy:0",)),
            Move("forge_bundle", (None,)),
            Move("forge_bundle", (0,)),
        ),
    )
    def test_forgery_needs_the_stolen_key(self, move):
        world = World(seed=5)
        with pytest.raises(CapabilityDenied, match="signing key"):
            apply(world, Pipeline(world), move)

    @pytest.mark.parametrize(
        "move",
        (
            Move("forge_bundle", (0,)),
            Move("forge_bundle", (None,)),
            Move("forge_sev_cert", ("owner_deploy:0",)),
            Move("forge_measurement", (b"\x5a" * 32,)),
            Move("forge_request", ("owner_report:0", 16, b"\x5a" * 32)),
        ),
        ids=repr,
    )
    def test_refused_forge_records_nothing(self, move):
        """The key is checked before the forge mints a value or a key pair."""
        world = World(seed=5)
        before = len(world.trace)
        with pytest.raises(CapabilityDenied):
            apply(world, Pipeline(world), move)
        assert len(world.trace) == before

    def test_mac_needs_a_derivable_key(self):
        """The designated channel key stays out of reach, so nothing MACs under it."""
        world = World(seed=5)
        Pipeline(world).run_all()
        (provision,) = [
            ev
            for ev in world.trace.of_kind(KIND_TRANSITION)
            if ev.body["label"] == "owner_provision_vm"
        ]
        before = world.trace.to_jsonl()
        with pytest.raises(CapabilityDenied, match="MAC key"):
            world.adversary_mac(Atom(b"forged vmdata"), provision.data("cik"))
        assert world.trace.to_jsonl() == before

    def test_replace_reaches_a_nested_measurement_field(self):
        """A replaced launch digest inside the measurement breaks its MAC."""
        world = World(seed=5)
        pipe = Pipeline(world)
        for move in (Move("advance"),) * 2:
            apply(world, pipe, move)
        msr = sev.MeasurementPackage.from_term(pipe.in_flight).msr
        apply(world, pipe, Move("replace", ((0, 2), Atom(crypto.digest(Atom(b"other code"))))))
        tampered = sev.MeasurementPackage.from_term(pipe.in_flight).msr
        assert tampered.dig != msr.dig
        assert (tampered.plat_sev, tampered.nonce) == (msr.plat_sev, msr.nonce)
        apply(world, pipe, Move("finish"))
        refusals = [
            ev.body
            for ev in world.trace.of_kind(KIND_TRANSITION)
            if ev.body["label"] == "owner_provision_refused"
        ]
        assert refusals == [
            {"actor": "owner0", "label": "owner_provision_refused", "error": "guard"}
        ]
        assert not [ev for ev in world.trace.of_kind(KIND_VERDICT) if ev.get("accept")]

    def test_refusals_survive_python_O(self):
        """The capability guards are no asserts: python -O keeps every one."""
        script = textwrap.dedent(
            """
            from vmquote.codec import Atom
            from vmquote.harness import CapabilityDenied, Pipeline, World
            from vmquote.harness.fuzz import Move, apply

            world = World(seed=5)
            pipe = Pipeline(world)
            for refused in (
                lambda: apply(world, pipe, Move("forge_bundle", (0,))),
                lambda: world.adversary_tamper(pipe, Atom(b"x")),
                lambda: world.adversary_digest(Atom(bytes(40))),
            ):
                try:
                    refused()
                except CapabilityDenied as exc:
                    print(exc)
            """
        )
        src = str(Path(vmquote.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        run = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, check=True
        )
        assert run.stdout.splitlines() == [
            "adversary lacks the signing key",
            "nothing in flight to tamper with",
            "adversary lacks the preimage",
        ]

    def test_each_compromise_is_recorded_once(self):
        world = World(seed=5)
        sgx1, sev1 = world.sgx_platforms[1], world.sev_platforms[1]
        for args in (("intel",), ("amd",), ("qe", 1), ("psp", 1)):
            before = len(world.trace.of_kind(KIND_ADVERSARY))
            world.compromise(*args)
            world.compromise(*args)
            assert len(world.trace.of_kind(KIND_ADVERSARY)) == before + 1
        assert world.compromised == Compromises(
            intel=True,
            amd=True,
            qe_ppids={sgx1.ppid.hex()},
            psp_ids={sev1.psp_sn.public.hex()},
        )

    @pytest.mark.parametrize("what", ["qe", "psp"])
    @pytest.mark.parametrize("index", [None, -1, -2, 2, 7, True, False, 1.0, "0"])
    def test_compromise_of_no_platform_raises_and_records_nothing(self, what, index):
        world = World(seed=5)
        before = world.trace.to_jsonl()
        with pytest.raises(ValueError, match="no .* platform"):
            world.compromise(what, index)
        assert world.trace.to_jsonl() == before
        assert world.compromised == Compromises()

    @pytest.mark.parametrize(
        "move",
        [
            Move(kind, (index, *rest))
            for kind, rest in (
                ("request_quote", (8,)),
                ("own_deploy", ()),
                ("extract", ()),
                ("forge_bundle", ()),
            )
            for index in (-1, True, None, 2)
            if (kind, index) != ("forge_bundle", None)  # None is the Intel root
        ],
        ids=repr,
    )
    def test_move_naming_no_platform_raises_and_records_nothing(self, move):
        world = World(seed=5)
        before = len(world.trace)
        with pytest.raises(ValueError, match="no .* platform"):
            apply(world, Pipeline(world), move)
        assert len(world.trace) == before


class TestReceivingEnds:
    """deliver's targets: each names one receiving end or raises."""

    @pytest.mark.parametrize(
        "target",
        (
            "owner_deploy:1",
            "owner_measurement:9",
            "owner_report:1",
            "owner_report:",
            "owner_report:01",
            "owner_report",
            "rp_bundle:3",
            "rp_bundle:0",
            "sev_deploy",
            "sev_deploy:2",
            "sev_secret:-1",
            "no_such_end:0",
        ),
    )
    def test_target_naming_no_receiving_end_raises(self, target):
        world = World(seed=5)
        before = len(world.trace)
        with pytest.raises(ValueError):
            world.deliver(target, Atom(b"x"))
        assert len(world.trace) == before

    def test_owner_index_routes_to_that_owner(self):
        world = World(seed=5)
        assert world.add_owner(Atom(b"other workload")) == 1
        world.deliver("owner_report:1", Atom(b"x"))
        world.deliver("owner_measurement:0", Atom(b"x"))
        sends = world.trace.of_kind(KIND_SEND)[-2:]
        assert [ev.body["dst"] for ev in sends] == ["owner1", "owner0"]
        refused = world.trace.of_kind(KIND_TRANSITION)[-2:]
        assert [ev.body["actor"] for ev in refused] == ["owner1", "owner0"]

    @staticmethod
    def _deploy_refusals(world, term) -> list:
        assert world.deliver("owner_deploy:0", term) is None
        assert not [ev for ev in world.trace.of_kind(KIND_SEND) if ev.body["dst"] == "adv"]
        return [
            ev.body["error"]
            for ev in world.trace.of_kind(KIND_TRANSITION)
            if ev.body["label"] == "owner_deploy_refused"
        ]

    def test_owner_deploy_malformed(self):
        world = World(seed=5)
        assert self._deploy_refusals(world, Atom(b"not a certificate")) == ["malformed"]

    def test_owner_deploy_cert_not_signed_by_amd(self):
        world = World(seed=5)
        signer = world.adversary_sig_keygen()
        psp = world.adversary_kx_keygen()
        sig = world.adversary_sign(sev.cert_payload(psp.public), signer.private)
        cert = sev.SevPlatformCert(psp_sn_pb=psp.public, sig_ar=sig)
        assert self._deploy_refusals(world, cert.to_term()) == ["guard"]

    def test_owner_deploy_twice(self):
        world = World(seed=5)
        Pipeline(world).run_all()
        cert = world.sev_platforms[1].cert
        assert self._deploy_refusals(world, cert.to_term()) == ["guard"]

    def test_owner_deploy_reply_goes_to_adv(self):
        world = World(seed=5)
        pkg = world.deliver("owner_deploy:0", world.sev_platforms[1].cert.to_term())
        last = world.trace.of_kind(KIND_SEND)[-1].body
        assert (last["src"], last["dst"]) == ("owner0", "adv")
        assert last["term"] == term_hex(pkg.to_term())
        assert pkg.vmc == DESIGNATED_VM_CODE

    @staticmethod
    def _refusal(world, target, term) -> list:
        """Deliver a term that must be refused; the events after its send."""
        before = len(world.trace)
        world.deliver(target, term)
        new = world.trace.events[before:]
        assert new[0].kind == KIND_SEND and new[0].body["src"] == "adv"
        assert not [ev for ev in new if ev.kind == KIND_SEND and ev.body["dst"] == "adv"]
        return [(ev.kind, ev.body) for ev in new[1:]]

    @staticmethod
    def _refused(actor, label, error) -> tuple:
        return KIND_TRANSITION, {"actor": actor, "label": label, "error": error}

    MALFORMED_REFUSALS = {
        "sev_deploy:0": _refused("sev0", "sev_deploy_abort", "malformed"),
        "sev_secret:0": _refused("sev0", "sev_secret_abort", "malformed"),
        "owner_deploy:0": _refused("owner0", "owner_deploy_refused", "malformed"),
        "owner_measurement:0": _refused("owner0", "owner_provision_refused", "malformed"),
        "owner_report:0": _refused("owner0", "owner_report_refused", "malformed"),
        "rp_bundle": (KIND_VERDICT, {"accept": False, "reason": "malformed"}),
    }

    @pytest.mark.parametrize("target", tuple(MALFORMED_REFUSALS))
    def test_malformed_is_refused_once(self, target):
        world = World(seed=5)
        refusals = self._refusal(world, target, Atom(b"not a message"))
        assert refusals == [self.MALFORMED_REFUSALS[target]]

    def test_measurement_before_deploy_is_guard_refusal(self):
        world = World(seed=5)
        plat = world.sev_platforms[0]
        msr = sev.Measurement(plat.plat_sev, plat.launch_sev, b"\x00" * 32, b"\x01" * 16)
        term = sev.MeasurementPackage(msr=msr, mac_ti=b"\x00" * 32).to_term()
        assert self._refusal(world, "owner_measurement:0", term) == [
            self._refused("owner0", "owner_provision_refused", "guard")
        ]

    def test_report_request_before_provision_is_guard_refusal(self):
        world = World(seed=5)
        term = ReportRequest(vmdata=Atom(b"x"), tag=b"\x00" * 32).to_term()
        assert self._refusal(world, "owner_report:0", term) == [
            self._refused("owner0", "owner_report_refused", "guard")
        ]
        assert not [
            ev for ev in world.trace.of_kind(KIND_TRANSITION) if ev.body["label"] == "sgx_ereport"
        ]

    @staticmethod
    def _ereports(world) -> list:
        return [
            ev.body
            for ev in world.trace.of_kind(KIND_TRANSITION)
            if ev.body["label"] == "sgx_ereport"
        ]

    def test_owner_quote_records_its_ereport(self):
        world = World(seed=5)
        Pipeline(world).run_all()
        vin = world.last_verification
        rpdata = crypto.digest(report_data_preimage(vin.pspid, vin.vmmsr, vin.vmdata))
        assert self._ereports(world) == [
            {
                "actor": "sgx0",
                "label": "sgx_ereport",
                "ppid": world.sgx_platforms[0].ppid.hex(),
                "msr": term_hex(OWNER_ENCLAVE_MEASUREMENT),
                "data": term_hex(Atom(rpdata)),
            }
        ]

    def test_adversary_quote_records_its_ereport(self):
        world = World(seed=5)
        msr, data = Atom(b"adversary enclave"), Atom(b"adversary data")
        world.adversary_request_quote(world.sgx_platforms[1], msr, data)
        assert self._ereports(world) == [
            {
                "actor": "sgx1",
                "label": "sgx_ereport",
                "ppid": world.sgx_platforms[1].ppid.hex(),
                "msr": term_hex(msr),
                "data": term_hex(data),
            }
        ]


class TestReceive:
    """World.receive: each RECEIVING_ENDS row parses, refuses once and replies."""

    @staticmethod
    def _receive(world, kind, term) -> tuple:
        """receive's result for party 0, and the events it recorded."""
        before = len(world.trace)
        result = world.receive(kind, 0, term)
        return result, [(ev.kind, ev.body) for ev in world.trace.events[before:]]

    @staticmethod
    def _refusal(kind, error) -> list:
        actor = kind.partition("_")[0] + "0"
        label = RECEIVING_ENDS[kind].refusal
        return [(KIND_TRANSITION, {"actor": actor, "label": label, "error": error})]

    @pytest.mark.parametrize("kind", tuple(RECEIVING_ENDS))
    def test_malformed_term_is_one_refusal(self, kind):
        world = World(seed=5)
        result, recorded = self._receive(world, kind, Atom(b"not a message"))
        assert result == (None, None)
        assert recorded == self._refusal(kind, "malformed")

    @staticmethod
    def _unsigned_cert(world):
        psp = world.adversary_kx_keygen()
        signer = world.adversary_sig_keygen()
        sig = world.adversary_sign(sev.cert_payload(psp.public), signer.private)
        return sev.SevPlatformCert(psp_sn_pb=psp.public, sig_ar=sig)

    @staticmethod
    def _early_measurement(world):
        plat = world.sev_platforms[0]
        msr = sev.Measurement(plat.plat_sev, plat.launch_sev, b"\x00" * 32, b"\x01" * 16)
        return sev.MeasurementPackage(msr=msr, mac_ti=b"\x00" * 32)

    #: Owner end -> a message its guard refuses on a fresh world.
    GUARDED = {
        "owner_deploy": _unsigned_cert,
        "owner_measurement": _early_measurement,
        "owner_report": lambda world: ReportRequest(vmdata=Atom(b"x"), tag=b"\x00" * 32),
    }

    def test_every_owner_end_has_a_guard_case(self):
        assert sorted(self.GUARDED) == sorted(k for k in RECEIVING_ENDS if k.startswith("owner_"))

    @pytest.mark.parametrize("kind", tuple(GUARDED))
    def test_owner_guard_is_one_refusal(self, kind):
        world = World(seed=5)
        message = self.GUARDED[kind](world)
        result, recorded = self._receive(world, kind, message.to_term())
        assert result == (message, None)
        assert recorded == self._refusal(kind, "guard")

    def test_raised_refusal_is_its_class_name(self):
        world = World(seed=5)
        message = sev.SecretPackage(blob_p=b"\x00" * 48, mac_p=b"\x00" * 32)
        result, recorded = self._receive(world, "sev_secret", message.to_term())
        assert result == (message, None)
        assert recorded == self._refusal("sev_secret", "NoMeasuredSession")

    @staticmethod
    def _names_a_row(target) -> bool:
        kind, _, idx = target.partition(":")
        return target == "rp_bundle" or (kind in RECEIVING_ENDS and idx.isdigit())

    def test_every_inject_target_names_a_row(self):
        assert all(self._names_a_row(target) for target in _INJECT_TARGETS)

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_every_scenario_target_names_a_row(self, name):
        _, info = run_scenario_world(name, seed=0)
        targeted = ("inject", "inject_fresh", "forge_sev_cert", "forge_request")
        targets = [move.args[0] for move in info["schedule"] if move.kind in targeted]
        assert all(self._names_a_row(target) for target in targets), targets


class TestTraceInfrastructure:
    def test_jsonl_round_trip(self):
        world, _ = run_scenario_world("compromise_sev_psp_pre")
        text = world.trace.to_jsonl()
        back = Trace.from_jsonl(text)
        assert len(back) == len(world.trace)
        assert [e.body for e in back] == [e.body for e in world.trace]
        assert back.to_jsonl() == text

    def test_seq_numbers_dense(self):
        world, _ = run_scenario_world("honest")
        assert [e.seq for e in world.trace] == list(range(len(world.trace)))

    @staticmethod
    def _knowledge_worlds(masks):
        for name in ("honest", "compromise_sev_psp_pre", "extract_other_guest_secret"):
            yield name, run_scenario_world(name)[0]
        # Fuzz runs reach the tamper, forge, keygen and leak event paths.
        for mask_name, seeds in (("default", range(10)), ("wide", range(4))):
            for run_seed in seeds:
                world = World(seed=run_seed)
                fuzz_adversary(world, seed=run_seed, steps=40, mask=masks[mask_name])
                yield f"fuzz {mask_name} seed {run_seed}", world

    def test_rebuilt_knowledge_matches_live(self, masks):
        """Send and adversary events alone reproduce the live view."""
        for name, world in self._knowledge_worlds(masks):
            world.knowledge.analyze()
            rebuilt = rebuild_knowledge(world.trace)
            parsed = Trace.from_jsonl(world.trace.to_jsonl())
            reparsed = rebuild_knowledge(parsed)
            live = {encode(t) for t in world.knowledge.terms_list()}
            for know in (rebuilt, reparsed):
                know.analyze()
                assert {encode(t) for t in know.terms_list()} == live, name
            assert world.compromised == rebuilt.compromised, name
            assert world.compromised == reparsed.compromised, name

    def test_send_events_carry_decodable_terms(self):
        world, _ = run_scenario_world("honest")
        from vmquote.harness.events import term_from_hex

        for ev in world.trace.of_kind(KIND_SEND):
            term_from_hex(ev.body["term"])  # raises if malformed


class TestDeferredBody:
    """A recorded event hexes its payload on first read, and only then."""

    @pytest.mark.parametrize("value", [bytearray(b"\x01"), [1], {"a": 1}])
    def test_unrecordable_value_raises_when_recorded(self, value):
        trace = Trace()
        with pytest.raises(TypeError, match="trace field term"):
            trace.append(KIND_SEND, src="adv", term=value)
        assert len(trace) == 0

    @pytest.mark.parametrize("field", ["seq", "kind", "body"])
    def test_event_fields_cannot_be_assigned(self, field):
        trace = Trace()
        trace.append(KIND_SEND, src="adv", dst="bus", term=Atom(b"\x01"))
        for event in (trace.events[0], Trace.from_jsonl(trace.to_jsonl()).events[0]):
            body = event.body
            with pytest.raises(AttributeError):
                setattr(event, field, 1)
            with pytest.raises(AttributeError):
                delattr(event, field)
            assert (event.seq, event.kind, event.body) == (0, KIND_SEND, body)
            assert copy.deepcopy(event) == event

    def test_honest_run_converts_no_send_payload_until_serialised(self, monkeypatch):
        converted = []

        def counting(term):
            converted.append(term)
            return encode(term)

        monkeypatch.setattr(events, "encode", counting)
        world, _ = run_scenario_world("honest", seed=0)
        before = len(converted)
        text = world.trace.to_jsonl()
        during = converted[before:]
        sends = [ev for ev in Trace.from_jsonl(text) if ev.kind == KIND_SEND]
        assert len(sends) == 12
        assert {encode(term).hex() for term in converted[:before]}.isdisjoint(
            ev.body["term"] for ev in sends
        )
        assert not Counter(ev.body["term"] for ev in sends) - Counter(
            encode(term).hex() for term in during
        )
        assert world.trace.to_jsonl() == text
        assert len(converted) == before + len(during)

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_live_events_equal_their_parsed_twins(self, name):
        twin = Trace.from_jsonl(run_scenario(name, seed=0).to_jsonl())
        live = run_scenario(name, seed=0)
        assert len(live) == len(twin)
        for event, parsed in zip(live, twin):
            assert event == parsed
        assert live.to_jsonl() == twin.to_jsonl()

    @staticmethod
    def _fuzz_world(run_seed):
        world = World(seed=run_seed)
        fuzz_adversary(world, seed=run_seed, steps=40, mask=DEFAULT_MASK)
        return world

    def test_fuzz_run_builds_no_adversary_or_transition_body(self, monkeypatch):
        """The learn rules and the checkers read fields, not bodies."""
        read = []
        body = Event.body
        monkeypatch.setattr(Event, "body", property(lambda ev: read.append(ev) or body.fget(ev)))
        actions = Counter()
        for run_seed in range(5):
            read.clear()
            world = self._fuzz_world(run_seed)
            results = check_all(world.trace, world.knowledge)
            built = [ev.seq for ev in read if ev.kind in (KIND_ADVERSARY, KIND_TRANSITION)]
            assert built == [], run_seed
            actions.update(ev.get("action") for ev in world.trace.of_kind(KIND_ADVERSARY))
            assert results == check_all(Trace.from_jsonl(world.trace.to_jsonl()))
        assert any(action.startswith("compromise_") for action in actions)

    @staticmethod
    def _text_by_body(event, key):
        """What text returned or raised when it read the whole body."""
        value = event.body.get(key)
        if value.__class__ is not str:
            return ValueError, f"trace event {event.seq} has no str {key}"
        return str, value

    @staticmethod
    def _text_outcome(event, key):
        try:
            return str, event.text(key)
        except ValueError as exc:
            return ValueError, str(exc)

    @staticmethod
    def _recording(monkeypatch):
        """The values each event appended or deferred from now on holds, by the event's id."""
        recorded = {}
        append, defer = Trace.append, Trace.defer

        def recording_append(trace, kind, **values):
            event = append(trace, kind, **values)
            recorded[id(event)] = values
            return event

        def recording_defer(trace, kind, make):
            def recording_make():
                recorded[id(event)] = values = make()
                return values

            event = defer(trace, kind, recording_make)
            return event

        monkeypatch.setattr(Trace, "append", recording_append)
        monkeypatch.setattr(Trace, "defer", recording_defer)
        return recorded

    @staticmethod
    def _read_back(event, key, encoded, recorded):
        """The readers that accept key; each value's stored form is get's.

        recorded is the event's values as recorded while no body is
        built, else None.
        """
        accepted = set()
        for read, stored in ((event.term, to_hex), (event.data, bytes.hex)):
            before = len(encoded)
            try:
                value = read(key)
            except ValueError:
                continue
            if recorded is not None:
                assert encoded[before:] == [], (event.seq, key)
                if recorded.get(key).__class__ is not str:
                    assert value is recorded.get(key), (event.seq, key)
            assert (None if value is None else stored(value)) == event.get(key), (event.seq, key)
            if value is not None:
                accepted.add(read.__name__)
        return accepted

    def _assert_fields_read_as_body(self, trace, reference, encoded, recorded):
        accepted = set()
        for event, ref in zip(trace, reference, strict=True):
            keys = [*ref.body, "no_such_field"]
            for before in (True, False):
                for key in keys:
                    value = event.get(key)
                    assert (value.__class__, value) == (
                        ref.body.get(key).__class__,
                        ref.body.get(key),
                    ), (event.seq, key)
                    assert self._text_outcome(event, key) == self._text_by_body(ref, key)
                    values = recorded.get(id(event)) if before else None
                    accepted |= self._read_back(event, key, encoded, values)
                assert event.body == ref.body
        assert accepted == {"term", "data"}

    @pytest.mark.parametrize(
        "make",
        [
            pytest.param(lambda name=name: run_scenario(name, seed=0), id=name)
            for name in sorted(SCENARIOS)
        ]
        + [
            pytest.param(lambda s=s: TestDeferredBody._fuzz_world(s).trace, id=f"fuzz{s}")
            for s in range(20)
        ],
    )
    def test_get_and_text_read_as_body_does(self, make, monkeypatch):
        """The 17 seed-0 scenarios and the FUZZ_DIGEST runs, live and parsed.

        term and data read back what get stores, and on a live event they
        return the recorded value itself, with no encode.
        """
        reference = make()
        recorded = self._recording(monkeypatch)
        live = make()
        parsed = Trace.from_jsonl(reference.to_jsonl())
        encoded = []
        monkeypatch.setattr(events, "encode", lambda term: encoded.append(term) or encode(term))
        self._assert_fields_read_as_body(live, reference, encoded, recorded)
        self._assert_fields_read_as_body(parsed, reference, encoded, {})
        assert len(recorded) == len(live)


class TestMadeOnFirstRead:
    """Trace.defer: an event whose values are made at its first read."""

    VALUES = {"src": "intel_rot", "dst": "bulletin", "term": Atom(b"\x01"), "key": b"\x02"}

    #: Every way to read an event, each run against its appended twin.
    READS = {
        "get": lambda event, twin: event.get("term") == twin.get("term"),
        "text": lambda event, twin: event.text("src") == twin.text("src"),
        "term": lambda event, twin: event.term("term") == twin.term("term"),
        "data": lambda event, twin: event.data("key") == twin.data("key"),
        "body": lambda event, twin: event.body == twin.body,
        "to_json": lambda event, twin: event.to_json() == twin.to_json(),
        "==": lambda event, twin: event == twin,
        "== reflected": lambda event, twin: twin == event,
        "repr": lambda event, twin: repr(event) == repr(twin),
        "pickle": lambda event, twin: pickle.loads(pickle.dumps(event)) == twin,
        "deepcopy": lambda event, twin: copy.deepcopy(event) == twin,
    }

    @staticmethod
    def _deferred(values):
        """A trace of one deferred event, and the calls of its make."""
        made = []
        deferred = Trace()
        deferred.defer(KIND_SEND, lambda: made.append(values) or dict(values))
        return deferred, made

    def _traces(self, values):
        """The deferred trace, its twin recorded by append, and make's calls."""
        twin = Trace()
        twin.append(KIND_SEND, **values)
        return (*self._deferred(values), twin)

    @pytest.mark.parametrize("read", READS)
    def test_make_runs_once_however_it_is_read(self, read):
        deferred, made, twin = self._traces(self.VALUES)
        event = deferred.events[0]
        assert (event.seq, event.kind) == (0, KIND_SEND)
        assert made == []
        assert self.READS[read](event, twin.events[0])
        assert made == [self.VALUES]
        for check in self.READS.values():
            assert check(event, twin.events[0])
        assert made == [self.VALUES]

    def test_after_its_first_read_it_holds_the_made_values(self, monkeypatch):
        """Fields read back as made, with no encode; body hexes the term once."""
        encoded = []
        monkeypatch.setattr(events, "encode", lambda term: encoded.append(term) or encode(term))
        deferred, made = self._deferred(self.VALUES)
        event = deferred.events[0]
        assert event.text("src") == "intel_rot" and made == [self.VALUES]
        assert event.term("term") is self.VALUES["term"]
        assert event.data("key") is self.VALUES["key"]
        assert encoded == []
        assert event.body == event.body == {**self.VALUES, "term": "010000000101", "key": "02"}
        assert encoded == [self.VALUES["term"]]
        with pytest.raises(AttributeError):
            event.seq = 1

    @pytest.mark.parametrize("value", [bytearray(b"\x01"), [1], {"a": 1}])
    def test_values_are_checked_at_the_first_read(self, value):
        deferred, made = self._deferred({"src": "adv", "term": value})
        assert len(deferred) == 1 and made == []
        for read in (lambda event: event.get("src"), lambda event: event.body):
            with pytest.raises(TypeError, match="trace field term"):
                read(deferred.events[0])
        assert len(made) == 2

    def test_two_unread_events_compare_by_their_values(self):
        first, _ = self._deferred(self.VALUES)
        second, _ = self._deferred(self.VALUES)
        other, _ = self._deferred({**self.VALUES, "src": "amd_rot"})
        assert first.events[0] == second.events[0]
        assert first.events[0] != other.events[0]

    def test_a_trace_of_unread_events_survives_its_file(self):
        deferred, _, twin = self._traces(self.VALUES)
        deferred.append(KIND_TRANSITION, actor="sgx0", label="sgx_ereport")
        deferred.defer(KIND_VERDICT, lambda: {"accept": True, "reason": None})
        text = deferred.to_jsonl()
        assert Trace.from_jsonl(text).events == deferred.events
        assert text.splitlines()[0] == twin.to_jsonl().rstrip("\n")

    def test_world_defers_exactly_the_platform_certificates(self, monkeypatch):
        """A new World defers seqs 2-5 and makes none of them until each is read."""
        unread, made = [], []
        defer = Trace.defer

        def recording_defer(trace, kind, make):
            event = defer(trace, kind, lambda: made.append(event.seq) or make())
            unread.append(event)
            return event

        monkeypatch.setattr(Trace, "defer", recording_defer)
        world = World(seed=0)
        assert [event.seq for event in unread] == [2, 3, 4, 5] and made == []
        assert all(world.trace.events[event.seq] is event for event in unread)
        roots = [event.get("src") for event in unread]
        assert roots == ["intel_rot", "intel_rot", "amd_rot", "amd_rot"]
        assert made == [2, 3, 4, 5]


def test_determinism_across_runs():
    for name in ("honest", "tamper_measurement", "compromise_sev_psp_pre"):
        t1 = run_scenario(name, seed=9)
        t2 = run_scenario(name, seed=9)
        assert t1.to_jsonl() == t2.to_jsonl(), name


def test_seed_changes_trace():
    assert run_scenario("honest", seed=0).to_jsonl() != run_scenario(
        "honest", seed=1
    ).to_jsonl()
