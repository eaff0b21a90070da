"""Deriving and sealing keys only where the model does loses the adversary nothing.

The oracle (conftest.py) also derives both wrap keys from every observed
32-byte atom, and tries every blob under every 32-byte atom it knows.
Its extra keys must open the same blobs, teach the same terms and give
the same verdict on every provisioned channel key, while the closure
tries fewer (blob, key) pairs.

The narrowing is sound because every derivation runs on an X25519 output
just computed, and every seal is under a derived kek into a blob_d or
under a transport key into a blob_p; that holds while sev.wrap_keys is
the one place in the package that names crypto.derive_wrap_key,
sev.seal_deploy and sev.seal_secret the only places that name
crypto.encrypt, seal_deploy encrypts under the first of the wrap keys,
the kek, each puts what it seals in its own package field alone, and
seal_secret is called only where the caller has sealed the same
transport keys into a deploy package.
"""

import ast
from pathlib import Path

import vmquote
from vmquote.codec import Atom
from vmquote.harness.events import KIND_TRANSITION


def _names(node: ast.AST, name: str) -> bool:
    """Whether node itself names name: a call, a reference or an import."""
    return (
        (isinstance(node, ast.Name) and node.id == name)
        or (isinstance(node, ast.Attribute) and node.attr == name)
        or (isinstance(node, ast.alias) and node.name == name)
    )


def _refs(tree: ast.AST, name: str) -> int:
    """How often tree names name."""
    return sum(_names(node, name) for node in ast.walk(tree))


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


def _sealed_reads(fn: ast.FunctionDef) -> list:
    """The reads in fn of the name its one crypto.encrypt call is bound to.

    A read inside the arguments of a crypto.mac call is left out: a MAC
    of the blob is a tag, not the blob.
    """
    [bind] = [
        node
        for node in ast.walk(fn)
        if isinstance(node, ast.Assign)
        and isinstance(node.value, ast.Call)
        and _refs(node.value.func, "encrypt")
    ]
    [target] = bind.targets
    assert isinstance(target, ast.Name)
    stores = [
        node
        for node in ast.walk(fn)
        if isinstance(node, ast.Name) and node.id == target.id and isinstance(node.ctx, ast.Store)
    ]
    assert stores == [target]
    maced = {
        id(node)
        for call in ast.walk(fn)
        if isinstance(call, ast.Call) and _refs(call.func, "mac")
        for arg in call.args
        for node in ast.walk(arg)
    }
    return [
        node
        for node in ast.walk(fn)
        if isinstance(node, ast.Name)
        and node.id == target.id
        and isinstance(node.ctx, ast.Load)
        and id(node) not in maced
    ]


def test_each_seal_goes_into_its_own_package_field_alone():
    """What each seal makes goes into its own package's blob field and nowhere else.

    seal_deploy's blob goes only into DeployPackage(blob_d=...), and
    seal_secret's only into SecretPackage(blob_p=...), so the closure
    tries a kek only on blob_d fields and a tek only on blob_p fields.
    """
    trees = _package()
    for name, package, field in (
        ("seal_deploy", "DeployPackage", "blob_d"),
        ("seal_secret", "SecretPackage", "blob_p"),
    ):
        [fn] = _functions(trees["sev.py"], name)
        reads = _sealed_reads(fn)
        fields = [
            (call.func.id, keyword.arg)
            for call in ast.walk(fn)
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
            for keyword in call.keywords
            if any(keyword.value is read for read in reads)
        ]
        assert len(reads) == 1, name
        assert fields == [(package, field)], name


def _referrers(trees: dict, name: str) -> list:
    """(module, enclosing class and function) of each reference to name, in the package."""
    found = []

    def visit(module: str, node: ast.AST, scope: tuple) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(module, child, scope + (child.name,))
                continue
            if _names(child, name):
                found.append((module, ".".join(scope)))
            visit(module, child, scope)

    for module, tree in trees.items():
        visit(module, tree, ())
    return sorted(found)


def test_seal_secret_has_two_callers():
    """TrustedOwner.provision_vm and World.adversary_own_deploy, and nothing else.

    Each seals under the tek of a TransportKeys it also sealed into a
    delivered blob_d, so a tek is known only from opening a blob_d.
    """
    assert _referrers(_package(), "seal_secret") == [
        ("harness/world.py", "World.adversary_own_deploy"),
        ("owner.py", "TrustedOwner.provision_vm"),
    ]


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
