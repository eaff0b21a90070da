"""Randomized adversary schedules: bounded falsification pressure.

Each fuzz run builds a fresh world, interleaves a fixed budget of
adversary moves with the honest pipeline, lets the honest parties finish
whatever protocol is left, then closes the adversary knowledge and
checks all three properties. Moves cover the Dolev-Yao repertoire:
advancing or starving honest steps, tampering, dropping, injecting
knowledge-built terms at every receiving end, mask-permitted
compromises, quote requests for adversary enclaves, running the
adversary's own guest deployments, extracting non-designated guest
secrets, and outright forgery with stolen signing keys.

The compromise mask is the threat-model knob: the default forbids
touching the designated platforms' keys and both roots of trust, which
is exactly the premise set under which the properties must hold
unconditionally.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..codec import Atom, Term, Tuple
from ..crypto import Rng
from .events import KIND_VERDICT, Trace
from .knowledge import CLOSURE_COUNTERS
from .properties import PROPERTY_IDS, check_all
from .scenarios import forge_accepting_bundle, forge_sgx_cert
from .world import Pipeline, World

_MOVE_SEED_TWEAK = 0x9E3779B9

_INJECT_TARGETS = (
    "sev_deploy:0",
    "sev_deploy:1",
    "sev_secret:0",
    "sev_secret:1",
    "owner_measurement",
    "owner_report",
    "rp_bundle",
)


@dataclass(frozen=True)
class CompromiseMask:
    """Which compromise moves a fuzz run may perform.

    The designated platforms are sgx0 (owner host) and sev0 (deployment
    target). Key hex strings grant compromise of one specific platform
    regardless of the designated/other split.
    """

    intel_rot: bool = False
    amd_rot: bool = False
    designated_qe: bool = False
    other_qe: bool = True
    designated_psp: bool = False
    other_psp: bool = True
    qe_ppids: frozenset = frozenset()
    psp_ids: frozenset = frozenset()

    def allows_qe(self, world: World, platform) -> bool:
        if platform.ppid.hex() in self.qe_ppids:
            return True
        if platform is world.sgx_platforms[0]:
            return self.designated_qe
        return self.other_qe

    def allows_psp(self, world: World, platform) -> bool:
        if platform.psp_sn.public.hex() in self.psp_ids:
            return True
        if platform is world.sev_platforms[0]:
            return self.designated_psp
        return self.other_psp


DEFAULT_MASK = CompromiseMask()


def parse_compromise_flags(flags: list[str]) -> CompromiseMask:
    """Build a mask from repeatable --allow-compromise values.

    Accepted: intel_rot, amd_rot, qe:designated, qe:other, qe:<ppid hex>,
    psp:designated, psp:other, psp:<key hex>. Flags only ever grant.
    """
    kwargs: dict = {"qe_ppids": set(), "psp_ids": set()}
    for flag in flags:
        if flag == "intel_rot":
            kwargs["intel_rot"] = True
        elif flag == "amd_rot":
            kwargs["amd_rot"] = True
        elif flag.startswith("qe:"):
            rest = flag[3:]
            if rest == "designated":
                kwargs["designated_qe"] = True
            elif rest == "other":
                kwargs["other_qe"] = True
            else:
                kwargs["qe_ppids"].add(_hex_or_raise(rest, flag))
        elif flag.startswith("psp:"):
            rest = flag[4:]
            if rest == "designated":
                kwargs["designated_psp"] = True
            elif rest == "other":
                kwargs["other_psp"] = True
            else:
                kwargs["psp_ids"].add(_hex_or_raise(rest, flag))
        else:
            raise ValueError(f"unknown compromise flag: {flag!r}")
    kwargs["qe_ppids"] = frozenset(kwargs["qe_ppids"])
    kwargs["psp_ids"] = frozenset(kwargs["psp_ids"])
    return CompromiseMask(**kwargs)


def _hex_or_raise(text: str, flag: str) -> str:
    try:
        bytes.fromhex(text)
    except ValueError:
        raise ValueError(f"bad hex in compromise flag: {flag!r}") from None
    return text.lower()


# ---- individual moves ---------------------------------------------------


def _move_advance(world: World, pipe: Pipeline, mv: Rng, mask: CompromiseMask) -> None:
    pipe.advance()


def _move_tamper(world: World, pipe: Pipeline, mv: Rng, mask: CompromiseMask) -> None:
    term = pipe.in_flight
    if not isinstance(term, Tuple) or len(term) == 0:
        return
    style = mv.randrange(3)
    items = list(term.items)
    if style == 0:
        atom_indices = [
            i for i, it in enumerate(items) if isinstance(it, Atom) and len(it.value) > 0
        ]
        if not atom_indices:
            return
        idx = mv.choice(atom_indices)
        value = bytearray(items[idx].value)
        value[mv.randrange(len(value))] ^= 1 << mv.randrange(8)
        items[idx] = Atom(bytes(value))
    elif style == 1:
        items[mv.randrange(len(items))] = mv.choice(world.knowledge.terms_list())
    else:
        items.pop()
    world.adversary_tamper(pipe, Tuple(items))


def _move_drop(world: World, pipe: Pipeline, mv: Rng, mask: CompromiseMask) -> None:
    if pipe.in_flight is not None:
        world.adversary_drop(pipe)


def _move_inject(world: World, pipe: Pipeline, mv: Rng, mask: CompromiseMask) -> None:
    style = mv.randrange(3)
    if style == 0:
        term: Term = mv.choice(world.knowledge.terms_list())
    elif style == 1:
        parts = [
            mv.choice(world.knowledge.terms_list()) for _ in range(2 + mv.randrange(3))
        ]
        term = Tuple(parts)
    else:
        term = Atom(world.adversary_fresh(mv.choice([16, 32, 64])))
    world.deliver(mv.choice(list(_INJECT_TARGETS)), term)


def _move_compromise(world: World, pipe: Pipeline, mv: Rng, mask: CompromiseMask) -> None:
    options = []
    taken = world.compromised
    if mask.intel_rot and not taken.intel:
        options.append(("intel", None))
    if mask.amd_rot and not taken.amd:
        options.append(("amd", None))
    for plat in world.sgx_platforms:
        if plat.ppid.hex() not in taken.qe_ppids and mask.allows_qe(world, plat):
            options.append(("qe", plat))
    for plat in world.sev_platforms:
        if plat.psp_sn.public.hex() not in taken.psp_ids and mask.allows_psp(world, plat):
            options.append(("psp", plat))
    if not options:
        return
    kind, plat = mv.choice(options)
    if kind == "intel":
        world.compromise_intel_rot()
    elif kind == "amd":
        world.compromise_amd_rot()
    elif kind == "qe":
        world.compromise_sgx_qe(plat)
    else:
        world.compromise_sev_psp(plat)


def _move_request_quote(world: World, pipe: Pipeline, mv: Rng, mask: CompromiseMask) -> None:
    platform = mv.choice(world.sgx_platforms)
    msr = Atom(world.adversary_fresh(16))
    data = Atom(world.adversary_fresh(mv.choice([8, 32])))
    world.adversary_request_quote(platform, msr, data)


def _move_own_deploy(world: World, pipe: Pipeline, mv: Rng, mask: CompromiseMask) -> None:
    free = [p for p in world.sev_platforms if p.session is None]
    if not free:
        return
    code = Atom(b"fuzz workload " + world.adversary_fresh(4))
    world.adversary_own_deploy(mv.choice(free), code)


def _move_extract(world: World, pipe: Pipeline, mv: Rng, mask: CompromiseMask) -> None:
    candidates = [
        p
        for p in world.sev_platforms
        if p.session is not None
        and p.session.running
        and p.session.dig != world.designated_dig
    ]
    if not candidates:
        return
    world.adversary_extract_sev_secret(mv.choice(candidates))


def _move_forge_bundle(world: World, pipe: Pipeline, mv: Rng, mask: CompromiseMask) -> None:
    options = []
    if world.compromised.intel:
        options.append(("intel", None))
    for plat in world.sgx_platforms:
        if plat.ppid.hex() in world.compromised.qe_ppids:
            options.append(("qe", plat))
    if not options:
        return
    kind, plat = mv.choice(options)
    if kind == "intel":
        cert, key = forge_sgx_cert(world)
    else:
        cert, key = plat.cert, plat.qek.private
    world.deliver("rp_bundle", forge_accepting_bundle(world, cert, key).to_term())


def _move_forge_request(world: World, pipe: Pipeline, mv: Rng, mask: CompromiseMask) -> None:
    vmdata = Atom(world.adversary_fresh(16))
    tag = Atom(world.adversary_fresh(32))
    world.deliver("owner_report", Tuple([vmdata, tag]))


_MOVES = (
    (10, _move_advance),
    (2, _move_tamper),
    (1, _move_drop),
    (3, _move_inject),
    (2, _move_compromise),
    (2, _move_request_quote),
    (1, _move_own_deploy),
    (1, _move_extract),
    (2, _move_forge_bundle),
    (1, _move_forge_request),
)
_TOTAL_WEIGHT = sum(w for w, _ in _MOVES)


def _pick_move(mv: Rng):
    roll = mv.randrange(_TOTAL_WEIGHT)
    for weight, move in _MOVES:
        if roll < weight:
            return move
        roll -= weight
    raise AssertionError("unreachable")


def fuzz_adversary(
    world: World, seed: int, steps: int, mask: CompromiseMask = DEFAULT_MASK
) -> Trace:
    """One randomized run; returns the world's trace.

    After the move budget the honest pipeline drains to completion (a
    zero-step budget therefore yields exactly the honest run), so every
    run ends with honest parties having said everything they can.
    """
    mv = Rng(seed ^ _MOVE_SEED_TWEAK)
    pipe = Pipeline(world)
    for _ in range(steps):
        _pick_move(mv)(world, pipe, mv, mask)
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
            1 for ev in world.trace.of_kind(KIND_VERDICT) if ev.body.get("accept")
        )
        for name in CLOSURE_COUNTERS:
            result.closure[name] += getattr(world.knowledge, name)
    result.elapsed = time.monotonic() - started
    return result
