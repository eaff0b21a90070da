"""Adversary moves as data, their one interpreter, and the fuzzer.

A Move is one adversary action with every choice already made. apply
performs a move on a World and its honest Pipeline and is the only code
that does; run_schedule applies a sequence of moves and returns the ones
it applied, the run's schedule. A schedule replays on a fresh world of
the same seed without any move Rng, to the same trace.

The fuzzer is a move generator. fuzz_moves draws each move from its own
Rng against the world the last move left, over the Dolev-Yao repertoire:
advancing or starving honest steps, tampering, dropping, injecting
knowledge-built terms at the receiving ends of _INJECT_TARGETS,
mask-permitted compromises, quote requests for adversary enclaves, the
adversary's own guest deployments, extraction of non-designated guest
secrets, and forgery with stolen signing keys. fuzz_adversary applies
its moves and lets the honest parties finish. The tenant,
forge_sev_cert and forge_measurement kinds are never drawn: only
scenarios apply them.

A draw that samples the adversary's terms (a replace, or an inject of a
known term or a tuple of them) first runs the knowledge closure to its
fixpoint, so the pool is everything the adversary can analyze out of
what it has seen, whatever moves came before.

The compromise mask is the threat-model knob: the default forbids
touching the designated platforms' keys and both roots of trust, which
is exactly the premise set under which the properties must hold
unconditionally.
"""

from __future__ import annotations

import time
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

from .. import sev, sgx
from ..codec import Atom, Tuple
from ..crypto import Rng
from ..guest import DESIGNATED_VM_CODE, DESIGNATED_VM_DIGEST, ReportRequest
from ..owner import report_data_preimage
from ..relying_party import EvidenceBundle
from ..sev import Measurement, MeasurementPackage
from ..sgx import OWNER_ENCLAVE_MEASUREMENT, quote_payload
from .events import KIND_VERDICT, Trace
from .knowledge import CLOSURE_COUNTERS
from .properties import PROPERTY_IDS, check_all
from .world import Pipeline, World

_MOVE_SEED_TWEAK = 0x9E3779B9

_INJECT_TARGETS = (
    "sev_deploy:0",
    "sev_deploy:1",
    "sev_secret:0",
    "sev_secret:1",
    "owner_measurement:0",
    "owner_report:0",
    "rp_bundle",
)


@dataclass(frozen=True)
class CompromiseMask:
    """Which compromise moves a fuzz run may perform.

    The designated platforms are sgx0 (owner host) and sev0 (deployment
    target). The other platforms' keys may always be compromised; the
    designated ones and the roots of trust only when their field is set.
    """

    intel_rot: bool = False
    amd_rot: bool = False
    designated_qe: bool = False
    designated_psp: bool = False

    def allows_qe(self, world: World, platform) -> bool:
        return self.designated_qe or platform is not world.sgx_platforms[0]

    def allows_psp(self, world: World, platform) -> bool:
        return self.designated_psp or platform is not world.sev_platforms[0]


DEFAULT_MASK = CompromiseMask()


def parse_compromise_flags(flags: list[str]) -> CompromiseMask:
    """Build a mask from repeatable --allow-compromise values.

    Accepted: intel_rot, amd_rot, qe:designated, psp:designated; any
    other value raises ValueError. Flags only ever grant: the other
    platforms are always granted, so no flag names them.
    """
    kwargs = {}
    for flag in flags:
        if flag in ("intel_rot", "amd_rot"):
            kwargs[flag] = True
        elif flag == "qe:designated":
            kwargs["designated_qe"] = True
        elif flag == "psp:designated":
            kwargs["designated_psp"] = True
        else:
            raise ValueError(f"unknown compromise flag: {flag!r}")
    return CompromiseMask(**kwargs)


# ---- moves and their interpreter ----------------------------------------


@dataclass(frozen=True)
class Move:
    """One adversary action with every choice already made.

    kind names the action, args hold its choices. Fresh values are named
    only by their length; apply mints them from the world's Rng. The
    kinds apply performs, with their args:

    - advance: the honest pipeline takes one step
    - finish: the honest pipeline runs to completion
    - flip: (item path, byte, bit) in the in-flight message
    - replace: (item path, term) in the in-flight message
    - truncate: the in-flight message loses its last item
    - drop: the in-flight message is lost
    - inject: (deliver target, term)
    - inject_fresh: (deliver target, length) of a fresh atom
    - tenant: (code,) a new owner on the next SGX platform runs its
      pipeline to the end
    - compromise: ("intel" | "amd" | "qe" | "psp", platform index or None)
    - request_quote: (sgx index, report data length) for an adversary
      enclave
    - own_deploy: (sev index,) of a free platform
    - extract: (sev index,) of a running non-designated guest
    - forge_bundle: (sgx index whose quoting key is stolen, or None for
      the Intel root,)
    - forge_sev_cert: (deliver target,) gets a fresh key's cert signed by
      the stolen AMD root
    - forge_measurement: (key,) MACs a fresh designated-digest
      measurement for owner0
    - forge_request: (deliver target, vmdata length, key or None for a
      fresh tag)

    A forge checks its key first: refused, it records nothing.
    """

    kind: str
    args: tuple = ()


def forge_sgx_cert(world: World) -> tuple[sgx.SgxPlatformCert, bytes]:
    """A platform certificate minted under the stolen Intel root key.

    Returns the certificate and the private half of its fresh quoting key.
    The root key is checked before anything is minted.
    """
    world.check_signing_key(world.intel_rot.private)
    fake_qek = world.adversary_sig_keygen()
    fake_ppid = world.adversary_fresh(sgx.PPID_LEN)
    sig = world.adversary_sign(
        sgx.cert_payload(fake_qek.public, fake_ppid), world.intel_rot.private
    )
    cert = sgx.SgxPlatformCert(qek_pb=fake_qek.public, ppid=fake_ppid, sig_ir=sig)
    return cert, fake_qek.private


def forge_accepting_bundle(
    world: World, cert: sgx.SgxPlatformCert, qek_private: bytes
) -> EvidenceBundle:
    """Quote forged under a leaked or minted quoting key.

    Fabricates a measurement for the designated digest, computes the
    matching report data the way the owner would, and signs a quote
    naming the owner-enclave measurement. Verifies cleanly whenever the
    certificate chain checks out, precisely the situation the escape
    clauses describe. The quoting key is checked before anything is
    minted.
    """
    world.check_signing_key(qek_private)
    pspid = world.sev_platforms[0].psp_sn.public
    msr = Measurement(
        plat_sev=Atom(world.adversary_fresh(8)),
        launch_sev=Atom(world.adversary_fresh(8)),
        dig=world.adversary_digest(DESIGNATED_VM_CODE),
        nonce=world.adversary_fresh(16),
    )
    vmdata = Atom(world.adversary_fresh(24))
    rpdata = world.adversary_digest(report_data_preimage(pspid, msr, vmdata))
    plat = Atom(world.adversary_fresh(8))
    sig = world.adversary_sign(
        quote_payload(OWNER_ENCLAVE_MEASUREMENT, plat, Atom(rpdata)), qek_private
    )
    quote = sgx.Quote(msr=OWNER_ENCLAVE_MEASUREMENT, plat=plat, data=Atom(rpdata), sig=sig)
    return EvidenceBundle(quote=quote, sgx_cert=cert, pspid=pspid, vmmsr=msr, vmdata=vmdata)


def _replaced(term: Tuple, path: tuple, change) -> Tuple:
    """Copy of a tuple term whose item at path, outermost index first, is change(item)."""
    index, *rest = path
    items = list(term.items)
    items[index] = _replaced(items[index], rest, change) if rest else change(items[index])
    return Tuple(items)


def _flipped(atom: Atom, byte: int, bit: int) -> Atom:
    """Copy of an atom with one bit flipped."""
    value = bytearray(atom.value)
    value[byte] ^= 1 << bit
    return Atom(bytes(value))


def apply(world: World, pipe: Pipeline, move: Move) -> None:
    """Perform one move on the world and its honest pipeline."""
    kind, args = move.kind, move.args
    if kind == "advance":
        pipe.advance()
    elif kind == "finish":
        pipe.run_all()
    elif kind == "flip":
        path, byte, bit = args
        tampered = _replaced(pipe.in_flight, path, lambda atom: _flipped(atom, byte, bit))
        world.adversary_tamper(pipe, tampered)
    elif kind == "replace":
        path, term = args
        world.adversary_tamper(pipe, _replaced(pipe.in_flight, path, lambda _: term))
    elif kind == "truncate":
        world.adversary_tamper(pipe, Tuple(pipe.in_flight.items[:-1]))
    elif kind == "drop":
        world.adversary_drop(pipe)
    elif kind == "inject":
        world.deliver(*args)
    elif kind == "inject_fresh":
        target, length = args
        world.deliver(target, Atom(world.adversary_fresh(length)))
    elif kind == "tenant":
        Pipeline(world, world.add_owner(args[0])).run_all()
    elif kind == "compromise":
        world.compromise(*args)
    elif kind == "request_quote":
        index, length = args
        platform = world.platform("sgx", index)
        msr = Atom(world.adversary_fresh(16))
        data = Atom(world.adversary_fresh(length))
        world.adversary_request_quote(platform, msr, data)
    elif kind == "own_deploy":
        platform = world.platform("sev", args[0])
        code = Atom(b"fuzz workload " + world.adversary_fresh(4))
        world.adversary_own_deploy(platform, code)
    elif kind == "extract":
        world.adversary_extract_sev_secret(world.platform("sev", args[0]))
    elif kind == "forge_bundle":
        if args[0] is None:
            cert, key = forge_sgx_cert(world)
        else:
            plat = world.platform("sgx", args[0])
            cert, key = plat.cert, plat.qek.private
        world.deliver("rp_bundle", forge_accepting_bundle(world, cert, key).to_term())
    elif kind == "forge_sev_cert":
        world.check_signing_key(world.amd_rot.private)
        fake = world.adversary_kx_keygen()
        sig = world.adversary_sign(sev.cert_payload(fake.public), world.amd_rot.private)
        world.deliver(args[0], sev.SevPlatformCert(psp_sn_pb=fake.public, sig_ar=sig).to_term())
    elif kind == "forge_measurement":
        world.check_mac_key(args[0])
        msr = Measurement(
            plat_sev=Atom(world.adversary_fresh(8)),
            launch_sev=Atom(world.adversary_fresh(8)),
            dig=DESIGNATED_VM_DIGEST,
            nonce=world.adversary_fresh(16),
        )
        mac_ti = world.adversary_mac(msr.to_term(), args[0])
        world.deliver("owner_measurement:0", MeasurementPackage(msr=msr, mac_ti=mac_ti).to_term())
    elif kind == "forge_request":
        target, length, key = args
        if key is not None:
            world.check_mac_key(key)
        vmdata = Atom(world.adversary_fresh(length))
        tag = world.adversary_fresh(32) if key is None else world.adversary_mac(vmdata, key)
        world.deliver(target, ReportRequest(vmdata=vmdata, tag=tag).to_term())
    else:
        raise ValueError(f"unknown move kind: {kind!r}")


def run_schedule(world: World, pipe: Pipeline, moves: Iterable[Move]) -> list[Move]:
    """Apply moves in order; returns the ones applied, the run's schedule.

    moves may be a generator that reads the world between moves: each
    move is applied before the next one is asked for.
    """
    schedule = []
    for move in moves:
        apply(world, pipe, move)
        schedule.append(move)
    return schedule


# ---- the fuzzer's generator ----------------------------------------------

#: The fuzz move families, each repeated as often as its draw weight.
_FAMILIES = (
    ("advance",) * 10
    + ("tamper",) * 2
    + ("drop",)
    + ("inject",) * 3
    + ("compromise",) * 2
    + ("request_quote",) * 2
    + ("own_deploy",)
    + ("extract",)
    + ("forge_bundle",) * 2
    + ("forge_request",)
)


def _pool(world: World) -> list:
    """The terms a draw samples: all the adversary knows, closed first."""
    world.knowledge.analyze()
    return world.knowledge.terms_list()


def _draw(world: World, pipe: Pipeline, mv: Rng, mask: CompromiseMask) -> Move | None:
    """The next fuzz move for the world as it stands; None for a no-op."""
    family = mv.choice(_FAMILIES)
    if family == "advance":
        return Move("advance") if not pipe.done else None
    if family == "tamper":
        items = pipe.in_flight.items if isinstance(pipe.in_flight, Tuple) else ()
        if not items:
            return None
        style = mv.randrange(3)
        if style == 0:
            atoms = [i for i, it in enumerate(items) if isinstance(it, Atom) and it.value]
            if not atoms:
                return None
            index = mv.choice(atoms)
            byte = mv.randrange(len(items[index].value))
            return Move("flip", ((index,), byte, mv.randrange(8)))
        if style == 1:
            term = mv.choice(_pool(world))
            return Move("replace", ((mv.randrange(len(items)),), term))
        return Move("truncate")
    if family == "drop":
        return Move("drop") if pipe.in_flight is not None else None
    if family == "inject":
        style = mv.randrange(3)
        if style == 2:
            length = mv.choice([16, 32, 64])
            return Move("inject_fresh", (mv.choice(_INJECT_TARGETS), length))
        terms = _pool(world)
        if style == 0:
            term = mv.choice(terms)
        else:
            term = Tuple([mv.choice(terms) for _ in range(2 + mv.randrange(3))])
        return Move("inject", (mv.choice(_INJECT_TARGETS), term))
    if family == "compromise":
        taken = world.compromised
        options = []
        if mask.intel_rot and not taken.intel:
            options.append(("intel", None))
        if mask.amd_rot and not taken.amd:
            options.append(("amd", None))
        for i, plat in enumerate(world.sgx_platforms):
            if plat.ppid.hex() not in taken.qe_ppids and mask.allows_qe(world, plat):
                options.append(("qe", i))
        for i, plat in enumerate(world.sev_platforms):
            if plat.psp_sn.public.hex() not in taken.psp_ids and mask.allows_psp(world, plat):
                options.append(("psp", i))
        return Move("compromise", mv.choice(options)) if options else None
    if family == "request_quote":
        index = mv.choice(range(len(world.sgx_platforms)))
        return Move("request_quote", (index, mv.choice([8, 32])))
    if family == "own_deploy":
        free = [i for i, p in enumerate(world.sev_platforms) if p.session is None]
        return Move("own_deploy", (mv.choice(free),)) if free else None
    if family == "extract":
        running = [
            i
            for i, p in enumerate(world.sev_platforms)
            if p.session and p.session.running and p.session.msr.dig != DESIGNATED_VM_DIGEST
        ]
        return Move("extract", (mv.choice(running),)) if running else None
    if family == "forge_bundle":
        options = [None] if world.compromised.intel else []
        for i, plat in enumerate(world.sgx_platforms):
            if plat.ppid.hex() in world.compromised.qe_ppids:
                options.append(i)
        return Move("forge_bundle", (mv.choice(options),)) if options else None
    return Move("forge_request", ("owner_report:0", 16, None))


def fuzz_moves(
    world: World, pipe: Pipeline, seed: int, steps: int, mask: CompromiseMask = DEFAULT_MASK
) -> Iterator[Move]:
    """The fuzzer's moves, each drawn against the world the last one left.

    Draws from a move Rng of its own, so the world's Rng sees only what
    the moves themselves mint. A step whose move would do nothing (a
    finished pipeline, no message in flight, no platform to pick) yields
    no move.
    """
    mv = Rng(seed ^ _MOVE_SEED_TWEAK)
    for _ in range(steps):
        move = _draw(world, pipe, mv, mask)
        if move is not None:
            yield move


def fuzz_adversary(
    world: World, seed: int, steps: int, mask: CompromiseMask = DEFAULT_MASK
) -> Trace:
    """One randomized run; returns the world's trace.

    After the move budget the honest pipeline drains to completion (a
    zero-step budget therefore yields exactly the honest run), so every
    run ends with honest parties having said everything they can.
    """
    pipe = Pipeline(world)
    run_schedule(world, pipe, fuzz_moves(world, pipe, seed, steps, mask))
    pipe.run_all()
    return world.trace


@dataclass
class CampaignResult:
    """Aggregated outcome of a batch of fuzz runs."""

    runs: int
    steps: int
    seed: int
    elapsed: float = 0.0
    accepts: int = 0
    matched: dict = field(default_factory=dict)
    escaped: dict = field(default_factory=dict)
    violations: dict = field(default_factory=dict)
    # each run's closure counters, summed; like them, never in a trace
    closure: dict = field(default_factory=lambda: dict.fromkeys(CLOSURE_COUNTERS, 0))

    @property
    def total_violations(self) -> int:
        return sum(len(v) for v in self.violations.values())

    def summary_lines(self) -> list[str]:
        lines = [
            f"fuzz campaign: {self.runs} runs x {self.steps} steps, "
            f"seed {self.seed}, {self.elapsed:.1f}s, {self.accepts} accepted verdicts; "
            "closure: " + ", ".join(f"{n} {name}" for name, n in self.closure.items())
        ]
        for pid in PROPERTY_IDS:
            lines.append(
                f"  {pid}: {len(self.violations[pid])} violations, "
                f"{self.matched[pid]} matched, {self.escaped[pid]} escaped"
            )
        return lines


def fuzz_campaign(
    runs: int,
    steps: int,
    seed: int = 0,
    mask: CompromiseMask = DEFAULT_MASK,
) -> CampaignResult:
    """Run many independent fuzz worlds and check every property.

    Each run gets its own World (nothing shared), seeded as a pure
    function of (seed, run index). The live adversary knowledge is used
    for the secrecy check; it is the same closure a rebuild from the
    trace produces.
    """
    result = CampaignResult(runs=runs, steps=steps, seed=seed)
    for pid in PROPERTY_IDS:
        result.matched[pid] = 0
        result.escaped[pid] = 0
        result.violations[pid] = []
    started = time.monotonic()
    for i in range(runs):
        run_seed = seed * 1_000_003 + i
        world = World(seed=run_seed)
        fuzz_adversary(world, seed=run_seed, steps=steps, mask=mask)
        for pid, res in check_all(world.trace, world.knowledge).items():
            result.matched[pid] += res.matched
            result.escaped[pid] += res.escaped
            if not res.holds:
                result.violations[pid].append((run_seed, res))
        result.accepts += sum(
            1 for ev in world.trace.of_kind(KIND_VERDICT) if ev.get("accept")
        )
        for name in CLOSURE_COUNTERS:
            result.closure[name] += getattr(world.knowledge, name)
    result.elapsed = time.monotonic() - started
    return result
