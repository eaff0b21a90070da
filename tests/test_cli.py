"""Command line behavior: exit codes, files, output text."""

import hashlib
import json

import pytest

from vmquote.cli import EvidenceBundle, load_bundle_file, main


def test_run_honest_writes_trace_and_bundle(tmp_path, capsys):
    code = main(["run", "honest", "--seed", "7", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "postcondition: pass" in out
    trace_path = tmp_path / "honest-seed7.trace.jsonl"
    bundle_path = tmp_path / "honest-seed7.bundle.json"
    assert trace_path.exists() and bundle_path.exists()
    lines = trace_path.read_text().strip().splitlines()
    assert lines
    for line in lines:
        json.loads(line)


def test_run_negative_scenario_passes_postcondition(tmp_path, capsys):
    code = main(["run", "tamper_measurement", "--out", str(tmp_path)])
    assert code == 0
    assert "postcondition: pass" in capsys.readouterr().out
    assert not (tmp_path / "tamper_measurement-seed0.bundle.json").exists()


def test_run_unknown_scenario_exits_2(tmp_path, capsys):
    code = main(["run", "nosuch", "--out", str(tmp_path)])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_run_deterministic_output(tmp_path):
    main(["run", "honest", "--seed", "3", "--out", str(tmp_path / "a")])
    main(["run", "honest", "--seed", "3", "--out", str(tmp_path / "b")])
    a = (tmp_path / "a" / "honest-seed3.trace.jsonl").read_text()
    b = (tmp_path / "b" / "honest-seed3.trace.jsonl").read_text()
    assert a == b


@pytest.fixture
def bundle_path(tmp_path):
    main(["run", "honest", "--seed", "7", "--out", str(tmp_path)])
    return tmp_path / "honest-seed7.bundle.json"


def test_bundle_file_bytes_pinned(bundle_path):
    digest = hashlib.sha256(bundle_path.read_bytes()).hexdigest()
    assert digest == "91b5b7f0b23de9f5fb19ee57062b09e311c601c7ada44a0d4aa527eb92bd466d"


class TestVerify:
    def test_accept(self, bundle_path, capsys):
        assert main(["verify", str(bundle_path)]) == 0
        out = capsys.readouterr().out
        assert "verdict: accept" in out
        assert "vmdata: ('burrito_report'" in out

    def test_reject_after_nibble_edit(self, bundle_path, capsys):
        doc = json.loads(bundle_path.read_text())
        quote = doc["bundle"]["quote"]
        # Flip the last nibble: lands in the signature bytes.
        edited = quote[:-1] + ("0" if quote[-1] != "0" else "1")
        doc["bundle"]["quote"] = edited
        bundle_path.write_text(json.dumps(doc))
        assert main(["verify", str(bundle_path)]) == 1
        assert "reject (quote-sig)" in capsys.readouterr().out

    def test_truncated_file_exits_2(self, bundle_path, capsys):
        text = bundle_path.read_text()
        deeply_nested = "[" * 200_000 + "]" * 200_000
        for content in (text[: len(text) // 2], deeply_nested):
            bundle_path.write_text(content)
            assert main(["verify", str(bundle_path)]) == 2
            assert "malformed bundle" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["verify", str(tmp_path / "absent.json")]) == 2

    def test_bundle_round_trip(self, bundle_path):
        bundle, intel_pk, to_msr = load_bundle_file(bundle_path)
        assert isinstance(bundle, EvidenceBundle)
        assert EvidenceBundle.from_json_obj(bundle.to_json_obj()) == bundle
        assert len(intel_pk) == 32


class TestFuzz:
    def test_clean_campaign_exits_0(self, capsys):
        code = main(["fuzz", "--runs", "10", "--steps", "20", "--seed", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "10 runs x 20 steps" in out
        assert "violations" in out

    def test_allow_compromise_flag(self, capsys):
        code = main(
            [
                "fuzz",
                "--runs",
                "10",
                "--steps",
                "30",
                "--seed",
                "6",
                "--allow-compromise",
                "intel_rot",
                "--allow-compromise",
                "psp:designated",
            ]
        )
        assert code == 0

    def test_bad_compromise_flag_exits_2(self, capsys):
        code = main(["fuzz", "--runs", "1", "--allow-compromise", "everything"])
        assert code == 2
        assert "unknown compromise flag" in capsys.readouterr().err
