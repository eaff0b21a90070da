"""Per-layer tracing by wrapping vmquote's public functions from outside.

`Tracer.install()` replaces each traced function at every binding a
caller uses: the defining module's attribute and every other vmquote
module that imported it by name (`encode`, for example, is bound in
`codec`, `crypto`, `knowledge` and `events`), or the class attribute for
methods. `uninstall()` puts every original back.

Every wrapped call pushes a frame on one stack. On return the call adds
to its function's totals:

- calls
- busy time: wall time while at least one call of the function is
  running, so recursion is counted once
- self time: its duration minus the time of wrapped calls inside it
- raised: calls that ended in an exception
- flagged: calls whose result the target's `flag` marks (a refusal, an
  acceptance)
- size: for analyze, the number of known terms on return

It also adds its count and time under its caller's name, so hot leaves
such as `codec.encode` are kept as totals per parent rather than as one
span per call.

Call sites the wrappers cannot reach are references to a traced function
held somewhere other than a module or class attribute: a default argument,
a module-level container, a bound method or function object captured
before `install()`. `unreachable()` searches vmquote for the first two;
the third does not occur for the traced functions, since vmquote looks
them up at call time.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from typing import Callable

from vmquote.harness import PROPERTY_IDS

PACKAGE = "vmquote"


def _is_none(result) -> bool:
    return result is None


def _is_not_none(result) -> bool:
    return result is not None


def _accepted(verdict) -> bool:
    return verdict.accept


@dataclass(frozen=True)
class Target:
    """One traced function.

    name is `<module>.<function>` or `<module>.<Class>.<method>` relative
    to the vmquote package; owner is the attribute path that defines it.
    flag marks a result worth counting. keyed names the call by its
    positional argument at that index, so each value gets its own totals. size
    measures the call's first argument on return, outside the timing.
    """

    name: str
    owner: str
    attr: str
    flag: Callable | None = None
    keyed: int | None = None
    size: Callable | None = None


TARGETS = (
    Target("codec.encode", "codec", "encode"),
    Target("codec.decode", "codec", "decode"),
    Target("crypto.sign", "crypto", "sign"),
    Target("crypto.verify", "crypto", "verify"),
    Target("crypto.sig_keygen", "crypto", "sig_keygen"),
    Target("crypto.kx_keygen", "crypto", "kx_keygen"),
    Target("crypto.shared_secret", "crypto", "shared_secret"),
    Target("crypto.derive_wrap_key", "crypto", "derive_wrap_key"),
    Target("crypto.encrypt", "crypto", "encrypt"),
    Target("crypto.decrypt", "crypto", "decrypt"),
    Target("crypto.mac", "crypto", "mac"),
    Target("crypto.verify_mac", "crypto", "verify_mac"),
    Target("crypto.digest", "crypto", "digest"),
    Target("sgx.ereport", "sgx", "ereport"),
    Target("sgx.qe_generate_quote", "sgx", "qe_generate_quote"),
    Target("sgx.quote_check_failure", "sgx", "quote_check_failure", flag=_is_not_none),
    Target("sev.psp_receive_deploy", "sev", "psp_receive_deploy"),
    Target("sev.psp_receive_secret", "sev", "psp_receive_secret"),
    Target("owner.TrustedOwner.deploy_vm", "owner.TrustedOwner", "deploy_vm", flag=_is_none),
    Target("owner.TrustedOwner.provision_vm", "owner.TrustedOwner", "provision_vm", flag=_is_none),
    Target(
        "owner.TrustedOwner.generate_report_for_vm",
        "owner.TrustedOwner",
        "generate_report_for_vm",
        flag=_is_none,
    ),
    Target("guest.GuestRuntime.request_report", "guest.GuestRuntime", "request_report"),
    Target("relying_party.rp_verify_vm_quote", "relying_party", "rp_verify_vm_quote", flag=_accepted),
    Target("cli.load_bundle_file", "cli", "load_bundle_file"),
    Target(
        "harness.knowledge.analyze",
        "harness.knowledge.AdversaryKnowledge",
        "analyze",
        size=lambda knowledge: len(knowledge.terms_list()),
    ),
    Target("harness.knowledge.derivable", "harness.knowledge.AdversaryKnowledge", "derivable"),
    Target("harness.world.World.__init__", "harness.world.World", "__init__"),
    Target("harness.world.World.deliver", "harness.world.World", "deliver"),
    Target("harness.world.World.adversary_digest", "harness.world.World", "adversary_digest"),
    Target("harness.world.Pipeline.advance", "harness.world.Pipeline", "advance"),
    Target("harness.events.Trace.from_jsonl", "harness.events.Trace", "from_jsonl"),
    Target("harness.properties.rebuild_knowledge", "harness.properties", "rebuild_knowledge"),
    Target("harness.properties.check_property", "harness.properties", "check_property", keyed=1),
    Target("harness.fuzz.fuzz_adversary", "harness.fuzz", "fuzz_adversary"),
)


class Stat:
    __slots__ = ("calls", "busy", "self_time", "raised", "flagged", "active", "size")

    def __init__(self) -> None:
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0
        self.raised = 0
        self.flagged = 0
        self.active = 0
        self.size = 0


def _resolve(path: str):
    """`harness.world.World` -> the World class; `codec` -> the module."""
    parts = path.split(".")
    for n in range(len(parts), 0, -1):
        modname = ".".join([PACKAGE, *parts[:n]])
        if modname in sys.modules:
            obj = sys.modules[modname]
            for attr in parts[n:]:
                obj = getattr(obj, attr)
            return obj
    raise LookupError(f"{PACKAGE}.{path} is not imported")


def _package_modules() -> list:
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


class Tracer:
    """Wraps the TARGETS while installed and keeps their totals."""

    def __init__(self) -> None:
        self.stats: dict[str, Stat] = {}
        self.by_parent: dict[tuple, list] = {}
        self._stack: list = []
        self._patches: list = []

    def stat(self, name: str) -> Stat:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
        return st

    def _wrap(self, target: Target, fn):
        stack = self._stack
        by_parent = self.by_parent
        clock = time.perf_counter
        flag = target.flag
        size = target.size
        keyed = target.keyed
        fixed = self.stat(target.name)
        stat_for = self.stat

        def close(st: Stat, frame: list, elapsed: float) -> None:
            stack.pop()
            st.active -= 1
            st.calls += 1
            st.self_time += elapsed - frame[1]
            if not st.active:
                st.busy += elapsed
            parent = None
            if stack:
                stack[-1][1] += elapsed
                parent = stack[-1][0]
            edge = by_parent.get((frame[0], parent))
            if edge is None:
                by_parent[(frame[0], parent)] = [1, elapsed]
            else:
                edge[0] += 1
                edge[1] += elapsed

        def traced(*args, **kwargs):
            if keyed is None:
                st, frame = fixed, [target.name, 0.0]
            else:
                key = args[keyed] if len(args) > keyed else "other"
                name = f"{target.name}.{key}"
                st, frame = stat_for(name), [name, 0.0]
            stack.append(frame)
            st.active += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                close(st, frame, clock() - t0)
                st.raised += 1
                raise
            close(st, frame, clock() - t0)
            if flag is not None and flag(result):
                st.flagged += 1
            if size is not None:
                st.size += size(args[0])
            return result

        traced.__wrapped__ = fn
        traced.__bench_traced__ = target.name
        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = _package_modules()
        for target in TARGETS:
            owner = _resolve(target.owner)
            if isinstance(owner, type):
                raw = owner.__dict__[target.attr]
                if isinstance(raw, staticmethod):
                    wrapped = staticmethod(self._wrap(target, raw.__func__))
                else:
                    wrapped = self._wrap(target, raw)
                self._patches.append((owner, target.attr, raw))
                setattr(owner, target.attr, wrapped)
                continue
            original = getattr(owner, target.attr)
            wrapped = self._wrap(target, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def unreachable() -> list[str]:
    """Traced functions referenced where patching a binding cannot reach."""
    originals = {}
    for target in TARGETS:
        owner = _resolve(target.owner)
        fn = owner.__dict__[target.attr] if isinstance(owner, type) else getattr(owner, target.attr)
        originals[id(fn.__func__ if isinstance(fn, staticmethod) else fn)] = target.name
    found = []
    for mod in _package_modules():
        for attr, value in vars(mod).items():
            held = []
            if isinstance(value, (list, tuple, set, frozenset)):
                held = list(value)
            elif isinstance(value, dict):
                held = list(value.values())
            elif callable(value) and getattr(value, "__module__", None) == mod.__name__:
                held = list(getattr(value, "__defaults__", None) or ())
                held += list((getattr(value, "__kwdefaults__", None) or {}).values())
            for item in held:
                if id(item) in originals:
                    found.append(f"{mod.__name__}.{attr} holds {originals[id(item)]}")
    return found


#: Layers for the self-time shares, as name prefixes of the TARGETS.
LAYERS = (
    "codec",
    "crypto",
    "sgx",
    "sev",
    "owner",
    "guest",
    "relying_party",
    "cli",
    "harness.knowledge",
    "harness.world",
    "harness.events",
    "harness.properties",
    "harness.fuzz",
)

#: (target, stats) reported per traced op. calls and busy_ms are per op;
#: refusals are calls that raised or returned a refusal, per op.
_PER_OP = (
    ("harness.knowledge.analyze", ("calls", "busy_ms", "self_ms")),
    ("harness.knowledge.derivable", ("calls", "busy_ms")),
    ("harness.world.World.__init__", ("busy_ms",)),
    ("harness.world.Pipeline.advance", ("busy_ms",)),
    ("harness.world.World.deliver", ("busy_ms",)),
    ("harness.world.World.adversary_digest", ("calls", "busy_ms")),
    *(
        (f"crypto.{fn}", ("calls", "busy_ms"))
        for fn in (
            "sign",
            "verify",
            "sig_keygen",
            "kx_keygen",
            "shared_secret",
            "derive_wrap_key",
            "encrypt",
            "decrypt",
            "mac",
            "verify_mac",
            "digest",
        )
    ),
    ("codec.encode", ("calls", "busy_ms")),
    ("codec.decode", ("calls", "busy_ms")),
    *(
        (name, ("calls", "busy_ms", "refusals"))
        for name in (
            "sgx.qe_generate_quote",
            "sgx.quote_check_failure",
            "sgx.ereport",
            "sev.psp_receive_deploy",
            "sev.psp_receive_secret",
            "owner.TrustedOwner.deploy_vm",
            "owner.TrustedOwner.provision_vm",
            "owner.TrustedOwner.generate_report_for_vm",
            "guest.GuestRuntime.request_report",
        )
    ),
    ("relying_party.rp_verify_vm_quote", ("busy_ms",)),
    ("cli.load_bundle_file", ("busy_ms",)),
    *((f"harness.properties.check_property.{pid}", ("busy_ms",)) for pid in PROPERTY_IDS),
    ("harness.properties.rebuild_knowledge", ("busy_ms",)),
    ("harness.events.Trace.from_jsonl", ("busy_ms",)),
    ("harness.fuzz.fuzz_adversary", ("busy_ms",)),
)


#: stat -> (value, unit, whether it is a time to scale to the reference host)
_STATS = {
    "calls": (lambda s: s.calls, "1/op", False),
    "busy_ms": (lambda s: s.busy * 1e3, "ms/op", True),
    "self_ms": (lambda s: s.self_time * 1e3, "ms/op", True),
    "refusals": (lambda s: s.raised + s.flagged, "1/op", False),
}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(
    tracer: Tracer, ops: int, op_seconds: float, host_factor: float
) -> dict[str, tuple]:
    """Per-layer metrics as {name: (value, unit)}.

    ops is the number of traced ops and op_seconds their summed wall time.
    Times are divided by host_factor to put them on the reference host
    (see hostspeed.py); shares are ratios of times taken together.
    """
    empty = Stat()
    out: dict[str, tuple] = {}
    for name, stats in _PER_OP:
        s = tracer.stats.get(name, empty)
        for stat in stats:
            value, unit, timed = _STATS[stat]
            scale = host_factor if timed else 1.0
            out[f"{name}.{stat}"] = (_ratio(value(s) / scale, ops), unit)
    analyze = tracer.stats.get("harness.knowledge.analyze", empty)
    out["harness.knowledge.analyze.terms"] = (_ratio(analyze.size, analyze.calls), "count")
    out["harness.knowledge.analyze.share"] = (_ratio(analyze.busy, op_seconds), "ratio")
    decrypt = tracer.stats.get("crypto.decrypt", empty)
    out["crypto.decrypt.ok_ratio"] = (_ratio(decrypt.calls - decrypt.raised, decrypt.calls), "ratio")
    in_analyze = tracer.by_parent.get(("crypto.decrypt", "harness.knowledge.analyze"), (0, 0.0))
    out["crypto.decrypt.calls_in_analyze"] = (_ratio(in_analyze[0], ops), "1/op")
    decode = tracer.stats.get("codec.decode", empty)
    out["codec.decode.reject_ratio"] = (_ratio(decode.raised, decode.calls), "ratio")
    rp = tracer.stats.get("relying_party.rp_verify_vm_quote", empty)
    out["relying_party.rp_verify_vm_quote.accept_ratio"] = (_ratio(rp.flagged, rp.calls), "ratio")
    for layer, share in layer_self_shares(tracer, op_seconds).items():
        out[f"layer.{layer}.self_share"] = (share, "ratio")
    return out


def layer_self_shares(tracer: Tracer, op_seconds: float) -> dict[str, float]:
    """Each layer's summed self time as a share of op time.

    `untraced` is op time outside every wrapped call: the benchmark's own
    checks and vmquote code no traced function calls into.
    """
    shares = {}
    for layer in LAYERS:
        self_time = sum(
            s.self_time
            for name, s in tracer.stats.items()
            if name.startswith(layer + ".")
        )
        shares[layer] = _ratio(self_time, op_seconds)
    shares["untraced"] = max(0.0, 1.0 - sum(shares.values()))
    return shares
