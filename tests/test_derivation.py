"""Deriving wrap keys only from negotiation outputs loses the adversary nothing.

The oracle (conftest.py) also derives both wrap keys from every observed
32-byte atom. Its extra keys must give the same verdict on every
provisioned channel key, while the closure tries fewer (blob, key) pairs.

The narrowing is sound because every derivation runs on an X25519 output
just computed; that holds while sev.wrap_keys is the one place in the
package that names crypto.derive_wrap_key.
"""

import ast
from pathlib import Path

import vmquote
from vmquote.codec import Atom
from vmquote.harness.events import KIND_TRANSITION


def _derive_refs(tree: ast.AST) -> int:
    """How often tree names derive_wrap_key: a call, a reference or an import."""
    return sum(
        (isinstance(node, ast.Name) and node.id == "derive_wrap_key")
        or (isinstance(node, ast.Attribute) and node.attr == "derive_wrap_key")
        or (isinstance(node, ast.alias) and node.name == "derive_wrap_key")
        for node in ast.walk(tree)
    )


def test_wrap_keys_is_the_one_derivation_site():
    root = Path(vmquote.__file__).parent
    trees = {
        path.relative_to(root).as_posix(): ast.parse(path.read_text())
        for path in root.rglob("*.py")
    }
    wrap_keys = next(
        node
        for node in ast.walk(trees["sev.py"])
        if isinstance(node, ast.FunctionDef) and node.name == "wrap_keys"
    )
    named = {name: n for name, tree in trees.items() if (n := _derive_refs(tree))}
    assert named == {"sev.py": _derive_refs(wrap_keys)}
    assert named["sev.py"] > 0


def test_negotiation_outputs_lose_nothing(oracle_pool):
    mask_id, rebuilt = oracle_pool
    provisioned = leaked = 0
    for run_seed, (trace, closure, oracle) in enumerate(rebuilt):
        for ev in trace.of_kind(KIND_TRANSITION):
            if ev.body.get("label") == "owner_provision_vm":
                cik = Atom(ev.data("cik"))
                verdict = closure.derivable(cik, fresh=True)
                assert verdict == oracle.derivable(cik, fresh=True), run_seed
                provisioned += 1
                leaked += verdict
    # the comparison means something: guests were provisioned, channel
    # keys leaked exactly where the mask lets the designated PSP key go,
    # and the closure did less work than the oracle
    assert provisioned > 0
    assert (leaked > 0) == (mask_id == "wide")
    assert sum(c.trials for _, c, _ in rebuilt) < sum(o.trials for _, _, o in rebuilt)
