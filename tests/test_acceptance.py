"""Acceptance suite: nine criteria, one verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict
lines as they print. Criteria 3, 4 and 5 share one 1,000-run fuzz
campaign built by a session fixture; everything else is self-contained.
"""

import itertools
import random
import time

import pytest
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PublicKey

from vmquote import crypto, sgx
from vmquote.codec import Atom, Label, Tuple, decode, encode
from vmquote.crypto import Rng
from vmquote.guest import DESIGNATED_VM_CODE, GuestRuntime
from vmquote.harness import (
    COMPROMISE_ATTACKS,
    NEGATIVE_SCENARIOS,
    PROPERTY_IDS,
    Pipeline,
    World,
    check_all,
    check_postcondition,
    fuzz_campaign,
    run_scenario,
    run_scenario_world,
)
from vmquote.harness.events import KIND_VERDICT
from vmquote.owner import (
    PHASE_DEPLOYED,
    PHASE_INIT,
    PHASE_PROVISIONED,
    TrustedOwner,
)
from vmquote.sev import (
    Measurement,
    SecretPackage,
    amd_rot_certify,
    new_sev_platform,
    psp_receive_deploy,
    psp_receive_secret,
)

CAMPAIGN_RUNS = 1000
CAMPAIGN_STEPS = 40


def _verdict(criterion: int, ok: bool, detail: str) -> None:
    word = "PASS" if ok else "FAIL"
    print(f"criterion {criterion}: {word} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="session")
def campaign():
    print(
        f"\nbuilding shared campaign: {CAMPAIGN_RUNS} runs x {CAMPAIGN_STEPS} steps ...",
        flush=True,
    )
    return fuzz_campaign(runs=CAMPAIGN_RUNS, steps=CAMPAIGN_STEPS, seed=0)


def test_criterion_1_honest_end_to_end():
    started = time.monotonic()
    world = World(seed=0)
    pipe = Pipeline(world)
    phases = [world.owner.phase]
    while not pipe.done:
        pipe.advance()
        if world.owner.phase != phases[-1]:
            phases.append(world.owner.phase)
    elapsed = time.monotonic() - started
    ok = (
        pipe.verdict is not None
        and pipe.verdict.accept
        and phases == [PHASE_INIT, PHASE_DEPLOYED, PHASE_PROVISIONED]
        and elapsed < 1.0
    )
    _verdict(
        1,
        ok,
        f"accepted verdict, phases {'/'.join(phases)}, {elapsed * 1000:.0f} ms",
    )


def test_criterion_2_state_machine_exhaustion():
    """Every call sequence of length 1..5, honest or garbage arguments.

    The owner must produce a result exactly along deploy(honest),
    provision(honest), report(honest, repeatable) and refuse everything
    else, from any position in any sequence.
    """
    rng = Rng(12345)
    amd = crypto.sig_keygen(rng)
    intel = crypto.sig_keygen(rng)
    host = sgx.new_sgx_platform(rng, intel)
    sgx.load_enclave(host, sgx.OWNER_ENCLAVE_MEASUREMENT)
    sev_plat = new_sev_platform(rng, amd)
    rogue_cert = amd_rot_certify(crypto.sig_keygen(rng), sev_plat.psp_sn.public)
    garbage_msr = Measurement(
        sev_plat.plat_sev, sev_plat.launch_sev, rng.bytes(32), rng.bytes(16)
    )
    garbage_mac = rng.bytes(32)
    garbage_vmdata = Atom(rng.bytes(24))
    garbage_tag = rng.bytes(32)

    ops = ("deploy", "provision", "report")
    options = [(op, mode) for op in ops for mode in ("honest", "garbage")]
    next_phase = {PHASE_INIT: PHASE_DEPLOYED, PHASE_DEPLOYED: PHASE_PROVISIONED}
    expected_at = {"deploy": PHASE_INIT, "provision": PHASE_DEPLOYED, "report": PHASE_PROVISIONED}

    sequences = 0
    skeletons = set()
    for length in range(1, 6):
        for seq in itertools.product(options, repeat=length):
            sequences += 1
            skeletons.add(tuple(op for op, _ in seq))
            sev_plat.session = None
            owner = TrustedOwner(amd.public, host, rng, lambda label, **payload: None)
            staged_mp = None
            staged_request = None
            model = PHASE_INIT
            for op, mode in seq:
                if op == "deploy":
                    cert = sev_plat.cert if mode == "honest" else rogue_cert
                    res = owner.deploy_vm(cert, DESIGNATED_VM_CODE)
                    present = res is not None
                    if present:
                        staged_mp = psp_receive_deploy(sev_plat, res, rng)
                elif op == "provision":
                    if mode == "honest" and staged_mp is not None:
                        res = owner.provision_vm(staged_mp.msr, staged_mp.mac_ti)
                    else:
                        res = owner.provision_vm(garbage_msr, garbage_mac)
                    present = res is not None
                    if present:
                        session = psp_receive_secret(
                            sev_plat, SecretPackage(blob_p=res.blob_p, mac_p=res.mac_p)
                        )
                        rt = GuestRuntime(session)
                        staged_request = rt.request_report(rt.next_report_payload())
                else:
                    if mode == "honest" and staged_request is not None:
                        res = owner.generate_report_for_vm(
                            staged_request.vmdata, staged_request.tag
                        )
                    else:
                        res = owner.generate_report_for_vm(garbage_vmdata, garbage_tag)
                    present = res is not None

                should = mode == "honest" and model == expected_at[op]
                assert present == should, (seq, op, mode, model)
                if should and op != "report":
                    model = next_phase[model]
                assert owner.phase == model, (seq, op, mode)

    expected_skeletons = sum(3**k for k in range(1, 6))
    ok = len(skeletons) == expected_skeletons
    _verdict(
        2,
        ok,
        f"{sequences} argument-mode sequences, "
        f"{len(skeletons)}/{expected_skeletons} skeletons covered",
    )


def test_criterion_3_sgx_quote_authenticity(campaign):
    pid = "sgx_quote_authenticity"
    ok = len(campaign.violations[pid]) == 0 and campaign.elapsed < 60.0
    _verdict(
        3,
        ok,
        f"{campaign.runs} runs, {len(campaign.violations[pid])} violations, "
        f"{campaign.matched[pid]} matched, {campaign.escaped[pid]} escaped, "
        f"{campaign.elapsed:.1f} s",
    )


def test_criterion_4_sev_secret_secrecy(campaign):
    pid = "sev_secret_secrecy"
    ok = len(campaign.violations[pid]) == 0
    _verdict(
        4,
        ok,
        f"{campaign.runs} runs, {len(campaign.violations[pid])} violations, "
        f"{campaign.matched[pid]} provisioned designated guests kept secret",
    )


def test_criterion_5_vm_quote_authenticity(campaign):
    pid = "vm_quote_authenticity"
    ok = len(campaign.violations[pid]) == 0
    _verdict(
        5,
        ok,
        f"{campaign.runs} runs, {len(campaign.violations[pid])} violations, "
        f"{campaign.matched[pid]} matched, {campaign.escaped[pid]} escaped",
    )


def test_campaign_counters_pinned(campaign):
    """The shared campaign's exact counts: same behaviour, not just 0 violations."""
    assert campaign.accepts == 2142
    assert campaign.matched == {
        "sgx_quote_authenticity": 242,
        "sev_secret_secrecy": 526,
        "vm_quote_authenticity": 242,
    }
    assert campaign.escaped == {
        "sgx_quote_authenticity": 1900,
        "sev_secret_secrecy": 0,
        "vm_quote_authenticity": 1900,
    }
    assert campaign.total_violations == 0
    # the closure's summed work: the same (blob, key) pairs tried, the same opened
    assert campaign.closure == {
        "rounds": 13642,
        "kx_pairs": 3775,
        "trials": 475137,
        "hits": 1908,
    }


def test_criterion_6_sanity_attacks():
    passed = []
    for name in COMPROMISE_ATTACKS:
        world, info = run_scenario_world(name, seed=0)
        results = check_all(world.trace, world.knowledge)
        accepted = any(
            ev.body.get("accept") for ev in world.trace.of_kind(KIND_VERDICT)
        )
        ok = (
            check_postcondition(name, world, info)
            and accepted
            and all(results[pid].holds for pid in PROPERTY_IDS)
            and any(results[pid].escaped > 0 for pid in PROPERTY_IDS)
        )
        passed.append(ok)
    _verdict(
        6,
        all(passed),
        f"{sum(passed)}/{len(COMPROMISE_ATTACKS)} compromise scenarios forge "
        "successfully and are excused by their escape clause",
    )


def test_criterion_7_negative_protocol_tests():
    passed = []
    for name in NEGATIVE_SCENARIOS:
        world, info = run_scenario_world(name, seed=0)
        accepted = any(
            ev.body.get("accept") for ev in world.trace.of_kind(KIND_VERDICT)
        )
        ok = check_postcondition(name, world, info) and not accepted
        passed.append(ok)
    _verdict(
        7,
        all(passed),
        f"{sum(passed)}/{len(NEGATIVE_SCENARIOS)} tampered or malformed flows "
        "abort with no accepted verdict",
    )


def _random_term(r: random.Random, depth: int = 0):
    kind = r.randrange(3) if depth < 6 else r.randrange(2)
    if kind == 0:
        return Atom(r.randbytes(r.randrange(65)))
    if kind == 1:
        return Label("".join(r.choice("abcdefgh_") for _ in range(1 + r.randrange(8))))
    return Tuple([_random_term(r, depth + 1) for _ in range(r.randrange(4))])


def test_criterion_8_crypto_and_codec_suites():
    started = time.monotonic()
    r = random.Random(888)
    rng = Rng(888)

    for _ in range(2000):
        term = _random_term(r)
        assert decode(encode(term)) == term

    checked = 0
    while checked < 10_000:
        a, b = _random_term(r), _random_term(r)
        if a == b:
            continue
        assert encode(a) != encode(b)
        checked += 1

    pair_a, pair_b = crypto.sig_keygen(rng), crypto.sig_keygen(rng)
    for _ in range(1000):
        msg = Atom(rng.bytes(rng.randrange(64)))
        s = crypto.sign(msg, pair_a.private)
        assert crypto.verify(msg, s, pair_a.public)
        # sign's own verdict answers verify above; the library checks it too
        Ed25519PublicKey.from_public_bytes(pair_a.public).verify(s, encode(msg))
        assert not crypto.verify(msg, s, pair_b.public)

    for _ in range(1000):
        a, b = crypto.kx_keygen(rng), crypto.kx_keygen(rng)
        assert crypto.shared_secret(b.public, a.private) == crypto.shared_secret(
            a.public, b.private
        )

    for _ in range(1000):
        key = crypto.fresh_key(rng)
        term = Atom(rng.bytes(32))
        ct = crypto.encrypt(term, key, rng)
        assert crypto.decrypt(ct, key) == term
        bad = bytearray(ct)
        bad[rng.randrange(len(bad))] ^= 1 << rng.randrange(8)
        try:
            crypto.decrypt(bytes(bad), key)
        except crypto.DecryptionFailure:
            pass
        else:
            raise AssertionError("tampered ciphertext accepted")

    for _ in range(1000):
        sd = rng.bytes(32)
        assert crypto.derive_wrap_key(Label("sev_kek"), sd) != crypto.derive_wrap_key(
            Label("sev_kik"), sd
        )

    elapsed = time.monotonic() - started
    _verdict(
        8,
        elapsed < 30.0,
        "codec round-trip x2000, injectivity x10000, signatures x1000, "
        f"DH x1000, AEAD x1000, derivation separation x1000, {elapsed:.1f} s",
    )


def test_criterion_9_determinism(tmp_path):
    scenarios = ("honest", "tamper_measurement", "compromise_sev_psp_pre")
    seeds = (0, 7, 123)
    checked = 0
    for name in scenarios:
        for seed in seeds:
            first = tmp_path / f"{name}-{seed}-a.jsonl"
            second = tmp_path / f"{name}-{seed}-b.jsonl"
            first.write_text(run_scenario(name, seed=seed).to_jsonl())
            second.write_text(run_scenario(name, seed=seed).to_jsonl())
            assert first.read_bytes() == second.read_bytes(), (name, seed)
            checked += 1
    _verdict(
        9,
        checked == len(scenarios) * len(seeds),
        f"{checked} scenario/seed replays produced byte-identical trace files",
    )
