"""Behaviour pin: fixed-seed traces must stay byte-identical.

The digests were recorded from the code before the harness refactor
that feeds adversary knowledge from events; any change to what a
scenario or a fuzz run records shows up here as a digest mismatch.

One deliberate re-record since: the two compromise_amd_rot_pre digests,
when the scenario became a move schedule. Its trace gained exactly one
event, the send adv -> owner0 of the forged platform certificate just
before owner_deploy_vm; the old hand-run script gave the owner the
certificate without putting it on the bus.
"""

import hashlib

import pytest

from vmquote.harness import DEFAULT_MASK, SCENARIOS, World, fuzz_adversary, run_scenario

SCENARIO_DIGESTS = {
    (0, "compromise_amd_rot_post"): "bc8c174e4f8d7026cce0ed81e8d655af8c585a457cb272bec659c6f76517c63d",
    (0, "compromise_amd_rot_pre"): "9b112fecafa4e3dfbf51089dd3c1f906783a4d96cd679cd27f8b83745d7c5e88",
    (0, "compromise_intel_rot_post"): "474503d7ef7a828ca63fb9ea9a38f05bd39111b22c60df79eaccfd1dcb27978f",
    (0, "compromise_intel_rot_pre"): "fb271d74f7bc897bdfd77e098f725aa28d9d0bb635458d8a3c063bc07cd51864",
    (0, "compromise_sev_psp_post"): "22483028d301fe7c77e0f4cf8b20c6fc4c4e328ed427019a64d53c8ba59a40fa",
    (0, "compromise_sev_psp_pre"): "b472aa7fffb8e44786bbe438fbaa4fd75604bada5f0881bb19d8e0bb059a4b1b",
    (0, "compromise_sgx_qe_post"): "913111fe9c087b1165ddfcab112095f836b1a9924bb64cae1cc4d2f1e3aa1859",
    (0, "compromise_sgx_qe_pre"): "21baedfa2bde22a6b1f0b5022b548198803cd122c70277cc6e3774de0de65ff4",
    (0, "cross_platform_cert_swap"): "378cf9012ed505593857a44095367d3fdfd9d3e7ad65e0a663cccfa24132f55c",
    (0, "extract_other_guest_secret"): "e95ff1f157a1cffb3e33d5bfc985fa8d035f60e9104298b50f9133f0345ef817",
    (0, "forge_report_request"): "47773dcc6cec21fd304a0408bdd7fed3ea46e898123b5994fc8985a2c9685857",
    (0, "honest"): "217ff3908831b84e490d4231ffd68f7e558db16fcbe7ba9e49b83bdcde710917",
    (0, "replay_secret_package"): "3914222abd0bf758f27c3dd630d53528886ff320ceb409e3fba9631e69b7a0b6",
    (0, "tamper_deploy_blob"): "12dd174ca3e88f73ebb7152cdf660e4990ba3a88d0f61911e9d83b71d706f08c",
    (0, "tamper_measurement"): "46828e34b35f5084c824f6ea1936f10ea7aaddb1c918f112b4cd6065f9bef1c8",
    (0, "tamper_secret_package"): "c748ffd5a194e5b034e5d1d8394ce122fe3a05a9e605afc07e82bc0df53d64a0",
    (0, "wrong_vm_code"): "8686ad4f6a2a9b48436d9c641c0d4dce3cd10ced170d75fb9b26c2bfce94e452",
    (7, "compromise_amd_rot_post"): "90dc587d0effc7e08584244846b085b6f0a75ef3dab821ff8861aeee23cb68da",
    (7, "compromise_amd_rot_pre"): "3bb3c4a75a6619dfb9f191a41ea0a86ceda3ddf520484881e79881884f1df3cf",
    (7, "compromise_intel_rot_post"): "ec7452f99b01fa28e4eddffd61e3561926072fd1cb94a1fc0aa285aad743f357",
    (7, "compromise_intel_rot_pre"): "349ec57cb53380ce80c961cc1d20c98e8d2f4126e266f2a77f7a8a59961bb61e",
    (7, "compromise_sev_psp_post"): "05e20ec360ef0f969b664a4e92276ea3262b719f528a7339bd115924fbffdd93",
    (7, "compromise_sev_psp_pre"): "736861c452957aac1ae1cc2eea7970349d33aeed31f4044a37484050bf1ad006",
    (7, "compromise_sgx_qe_post"): "dabf4d85796b3fdb256a5b815f157a09bbd9d07c8cc8c4f9b1d27c054d6ffeae",
    (7, "compromise_sgx_qe_pre"): "b4b8f45bf7fb4317fccf2987abcc5f646b93ae7c25896b8061c037beca52e0d5",
    (7, "cross_platform_cert_swap"): "a5bca208111298129455e3bf257e8fc8b54a5bc8a706a1eb0347bc26a2a09559",
    (7, "extract_other_guest_secret"): "367ce1c4d6adcbc9c284faa2bbdd7666d93fb2dadb76039a7588387e53f49822",
    (7, "forge_report_request"): "47fd34e40f89d9d550797a012c88929f8423bf3c96b1bbe19798cb67edf28806",
    (7, "honest"): "b8a53e521a26033248f1a293b4f579d0bc7173252f5c80b7626c5a20d359d3b8",
    (7, "replay_secret_package"): "210327bb2b1e01944af1571b327399e45ec78973bc8a8e52893cec9fa5cfd341",
    (7, "tamper_deploy_blob"): "79da8f2a38740d729005b3528b4da395fd1dada60c62386b3ccc6480b76d1b25",
    (7, "tamper_measurement"): "de81869b131063c8cfa6e7a93d683bf7fb79553a134f4577134d1d3e83de1386",
    (7, "tamper_secret_package"): "7d8dfefcd0d3d24ffd7ffc13f90d21b7f05ef2305074113497753aa1ba5980a0",
    (7, "wrong_vm_code"): "77cdd0330adbe901beb2a430d92a0abce61e1788a73f5d976e94ce8eca5e6f27",
}

#: sha256 over the concatenated JSONL traces of fuzz runs 0..19, in order.
#: Fuzz moves draw terms from the closed knowledge, so a closure rule that
#: changes what the adversary knows re-records it.
FUZZ_DIGEST = "53bb4709f6a6be145d9e02c6d1862e29ef3e10202cdcefe1fd7b88382be94503"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_every_scenario_is_pinned():
    assert {name for _, name in SCENARIO_DIGESTS} == set(SCENARIOS)


@pytest.mark.parametrize("seed, name", sorted(SCENARIO_DIGESTS))
def test_scenario_trace_digest(seed, name):
    assert _sha256(run_scenario(name, seed).to_jsonl()) == SCENARIO_DIGESTS[(seed, name)]


def test_fuzz_trace_digest():
    digest = hashlib.sha256()
    for run_seed in range(20):
        world = World(seed=run_seed)
        fuzz_adversary(world, seed=run_seed, steps=40, mask=DEFAULT_MASK)
        digest.update(world.trace.to_jsonl().encode())
    assert digest.hexdigest() == FUZZ_DIGEST
