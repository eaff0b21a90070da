"""Deriving and sealing keys only where the model does loses the adversary nothing.

The oracle (conftest.py) also derives both wrap keys from every observed
32-byte atom, and tries every blob under every 32-byte atom it knows.
Its extra keys must open the same blobs, teach the same terms and give
the same verdict on every provisioned channel key, while the closure
tries fewer (blob, key) pairs.

The narrowing is sound because every derivation runs on an X25519 output
just computed, and every seal is under a derived kek or a transport
key; that holds while sev.wrap_keys is the one place in the package that
names crypto.derive_wrap_key, sev.seal_deploy and sev.seal_secret the
only places that name crypto.encrypt, and seal_deploy encrypts under the
first of the wrap keys, the kek.
"""

import ast
from pathlib import Path

import vmquote
from vmquote.codec import Atom
from vmquote.harness.events import KIND_TRANSITION


def _refs(tree: ast.AST, name: str) -> int:
    """How often tree names name: a call, a reference or an import."""
    return sum(
        (isinstance(node, ast.Name) and node.id == name)
        or (isinstance(node, ast.Attribute) and node.attr == name)
        or (isinstance(node, ast.alias) and node.name == name)
        for node in ast.walk(tree)
    )


def _package() -> dict:
    """Every module of the package, parsed, by its path inside the package."""
    root = Path(vmquote.__file__).parent
    return {
        path.relative_to(root).as_posix(): ast.parse(path.read_text())
        for path in root.rglob("*.py")
    }


def _functions(tree: ast.AST, *names: str) -> list:
    """The definitions in tree of the functions named names."""
    return [
        node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.name in names
    ]


def test_wrap_keys_is_the_one_derivation_site():
    trees = _package()
    [wrap_keys] = _functions(trees["sev.py"], "wrap_keys")
    named = {name: n for name, tree in trees.items() if (n := _refs(tree, "derive_wrap_key"))}
    assert named == {"sev.py": _refs(wrap_keys, "derive_wrap_key")}
    assert named["sev.py"] > 0


def test_seal_deploy_and_seal_secret_are_the_only_sealing_sites():
    """crypto.encrypt is named in the two sev functions that seal, and nowhere else.

    In crypto.py itself the name stands only for the def and for the
    AES-GCM object's own method, which that encrypt calls.
    """
    trees = _package()
    sealers = _functions(trees["sev.py"], "seal_deploy", "seal_secret")
    assert [_refs(fn, "encrypt") for fn in sealers] == [1, 1]
    [encrypt] = _functions(trees["crypto.py"], "encrypt")
    assert _refs(encrypt, "encrypt") == 1
    named = {name: n for name, tree in trees.items() if (n := _refs(tree, "encrypt"))}
    assert named == {"sev.py": 2, "crypto.py": 1}


def _wrap_key_index(fn: ast.FunctionDef, key: ast.expr):
    """Which item of a wrap_keys(...) call key is in fn, or None.

    key is either wrap_keys(...)[i] itself or a name that fn binds once,
    by unpacking a wrap_keys(...) call into names.
    """
    if isinstance(key, ast.Subscript):
        call, index = key.value, key.slice
        if isinstance(call, ast.Call) and _refs(call.func, "wrap_keys"):
            return index.value if isinstance(index, ast.Constant) else None
        return None
    binds = [
        node
        for node in ast.walk(fn)
        if isinstance(node, ast.Assign)
        and isinstance(key, ast.Name)
        and any(_refs(target, key.id) for target in node.targets)
    ]
    if len(binds) != 1:
        return None
    [node] = binds
    [target] = node.targets
    if not (isinstance(node.value, ast.Call) and _refs(node.value.func, "wrap_keys")):
        return None
    names = [getattr(elt, "id", None) for elt in getattr(target, "elts", ())]
    return names.index(key.id) if key.id in names else None


def test_seal_deploy_seals_under_the_kek_alone():
    """seal_deploy, the one seal under a wrap key, encrypts under wrap_keys(...)[0].

    So the closure files the kek of each negotiation output as a sealing
    key and not the kik, which only MACs.
    """
    [seal_deploy] = _functions(_package()["sev.py"], "seal_deploy")
    [call] = [
        node
        for node in ast.walk(seal_deploy)
        if isinstance(node, ast.Call) and _refs(node.func, "encrypt")
    ]
    assert _wrap_key_index(seal_deploy, call.args[1]) == 0


def test_negotiation_outputs_lose_nothing(oracle_pool, observed):
    mask_id, rebuilt = oracle_pool
    provisioned = leaked = 0
    for run_seed, (trace, closure, oracle) in enumerate(rebuilt):
        assert closure.hits == oracle.hits, run_seed
        assert observed(closure) == observed(oracle), run_seed
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
