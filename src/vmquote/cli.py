"""Command line: run scenarios, verify evidence bundles, fuzz.

    vmquote run honest --seed 7 --out ./out
    vmquote verify ./out/honest-seed7.bundle.json
    vmquote fuzz --runs 1000 --steps 40

Exit codes: run returns 0 when the scenario's postcondition held, 1 when
it did not, 2 for an unknown scenario. verify returns 0 for accept, 1
for reject, 2 for a bundle file that cannot be parsed. fuzz returns 0
iff no property was violated.

Only run and fuzz use the simulator: they import the harness when they
start, so verify loads no more than the relying party's checks need.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .codec import Term, from_hex, to_hex, to_sexpr
from .relying_party import EvidenceBundle, rp_verify_vm_quote

#: Scenarios whose runs leave verifiable evidence worth exporting.
PRODUCES_BUNDLE = ("honest",)


def write_bundle_file(path: Path, bundle: EvidenceBundle, intel_pk: bytes, to_msr: Term) -> None:
    """Bundle plus the two verification anchors, as stable JSON."""
    doc = {
        "bundle": bundle.to_json_obj(),
        "anchors": {
            "intel_ltk_pb": intel_pk.hex(),
            "to_measurement": to_hex(to_msr),
        },
    }
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def load_bundle_file(path: Path) -> tuple[EvidenceBundle, bytes, Term]:
    try:
        doc = json.loads(path.read_text())
    except RecursionError:
        # json reports nesting deeper than the interpreter's stack this way.
        raise ValueError("JSON nested too deeply") from None
    bundle = EvidenceBundle.from_json_obj(doc["bundle"])
    anchors = doc["anchors"]
    return (
        bundle,
        bytes.fromhex(anchors["intel_ltk_pb"]),
        from_hex(anchors["to_measurement"]),
    )


def cmd_run(args: argparse.Namespace) -> int:
    from .harness import UnknownScenario, check_postcondition, run_scenario_world

    try:
        world, info = run_scenario_world(args.scenario, seed=args.seed)
    except UnknownScenario as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.scenario}-seed{args.seed}"
    trace_path = out_dir / f"{stem}.trace.jsonl"
    trace_path.write_text(world.trace.to_jsonl())
    print(f"trace: {trace_path} ({len(world.trace.events)} events)")
    if args.scenario in PRODUCES_BUNDLE and world.last_verification is not None:
        vin = world.last_verification
        bundle_path = out_dir / f"{stem}.bundle.json"
        write_bundle_file(
            bundle_path,
            EvidenceBundle.from_verification_input(vin),
            vin.intel_pk,
            vin.expected_to_msr,
        )
        print(f"bundle: {bundle_path}")
    ok = check_postcondition(args.scenario, world, info)
    print(f"postcondition: {'pass' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_verify(args: argparse.Namespace) -> int:
    try:
        bundle, intel_pk, to_msr = load_bundle_file(Path(args.bundle))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"malformed bundle: {exc}", file=sys.stderr)
        return 2
    verdict = rp_verify_vm_quote(bundle.verification_input(intel_pk, to_msr))
    if verdict.accept:
        print("verdict: accept")
        print(f"vmdata: {to_sexpr(bundle.vmdata)}")
        print(f"vmdata hex: {to_hex(bundle.vmdata)}")
        return 0
    print(f"verdict: reject ({verdict.reason})")
    return 1


def cmd_fuzz(args: argparse.Namespace) -> int:
    from .harness import fuzz_campaign, parse_compromise_flags

    try:
        mask = parse_compromise_flags(args.allow_compromise)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = fuzz_campaign(runs=args.runs, steps=args.steps, seed=args.seed, mask=mask)
    for line in result.summary_lines():
        print(line)
    for pid, entries in result.violations.items():
        for run_seed, res in entries:
            print(f"  VIOLATION {pid} at run seed {run_seed}: {res.witness}")
    return 0 if result.total_violations == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vmquote",
        description="Composite SGX/SEV attestation protocol simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scripted scenario, write its trace")
    p_run.add_argument("scenario", help="scenario name (see README for the list)")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--out", default="./out", help="output directory")
    p_run.set_defaults(fn=cmd_run)

    p_verify = sub.add_parser("verify", help="verify an evidence bundle file")
    p_verify.add_argument("bundle", help="path to a .bundle.json file")
    p_verify.set_defaults(fn=cmd_verify)

    p_fuzz = sub.add_parser("fuzz", help="randomized adversary campaign")
    p_fuzz.add_argument("--runs", type=int, default=100)
    p_fuzz.add_argument("--steps", type=int, default=40)
    p_fuzz.add_argument("--seed", type=int, default=0)
    p_fuzz.add_argument(
        "--allow-compromise",
        action="append",
        default=[],
        metavar="WHAT",
        help="intel_rot | amd_rot | qe:designated | psp:designated; repeatable",
    )
    p_fuzz.set_defaults(fn=cmd_fuzz)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
