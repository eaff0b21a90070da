"""The closure loses the adversary nothing to a Dolev-Yao oracle.

The closure negotiates only across roles (see harness/knowledge.py).
Each narrower rule it had before lies between it and the oracle
(conftest.py), so one comparison covers them all. The hand-built tests
at the end pin the cross-role rule on single exchanges.
"""

from vmquote import crypto
from vmquote.codec import Atom, Label, Tuple
from vmquote.crypto import Rng
from vmquote.harness.knowledge import AdversaryKnowledge
from vmquote.sev import DeployPackage, SevPlatformCert, amd_rot_certify


def test_negotiation_elements_lose_nothing(oracle_pool, observed):
    """The oracle's extra exchanges and keys open no term the closure lacks."""
    _, rebuilt = oracle_pool
    for run_seed, (_, closure, oracle) in enumerate(rebuilt):
        assert closure.hits == oracle.hits, run_seed
        assert observed(closure) == observed(oracle), run_seed
    # and the closure tried fewer pairs than the oracle
    assert sum(c.kx_pairs for _, c, _ in rebuilt) < sum(o.kx_pairs for _, _, o in rebuilt)


def test_cross_role_pairs_lose_nothing(oracle_pool):
    """Fewer pairs than the any-side rule: every private with every element, once."""
    _, rebuilt = oracle_pool
    any_side_pairs = sum(
        len(c.dh_privates) * len(c._deploy_elements | c._cert_elements) for _, c, _ in rebuilt
    )
    assert sum(c.kx_pairs for _, c, _ in rebuilt) < any_side_pairs


def _filed_by_from_term(terms) -> tuple[set, set]:
    """Deploy-package and certificate elements, filed by from_term alone."""
    deploy, cert = set(), set()
    for term in terms:
        for message, name, elements in (
            (DeployPackage, "go_sn_pb", deploy),
            (SevPlatformCert, "psp_sn_pb", cert),
        ):
            try:
                value = getattr(message.from_term(term), name)
            except ValueError:
                continue
            if len(value) == crypto.KEY_LEN:
                elements.add(value)
    return deploy, cert


def _filed(know) -> tuple[set, set]:
    return know._deploy_elements, know._cert_elements


def test_filing_matches_from_term(oracle_pool):
    """Deciding arity and field class before from_term files what from_term alone files."""
    _, rebuilt = oracle_pool
    for run_seed, (_, closure, _) in enumerate(rebuilt):
        assert _filed(closure) == _filed_by_from_term(closure.terms_list()), run_seed
    assert all(all(_filed(c)) for _, c, _ in rebuilt)


def test_filing_edge_tuples():
    rng = Rng(204)
    go, psp, short, inner = rng.bytes(32), rng.bytes(32), rng.bytes(31), rng.bytes(32)
    sig = rng.bytes(64)
    k = AdversaryKnowledge()
    for term in (
        Tuple([Atom(rng.bytes(32)) for _ in range(3)]),
        Tuple([Atom(go), Atom(b"blob"), Atom(b"mac"), Atom(b"code")]),
        Tuple([Atom(rng.bytes(32)) for _ in range(5)]),
        Tuple([Tuple([Atom(inner)]), Atom(sig)]),
        Tuple([Atom(inner), Tuple([Atom(sig)])]),
        Tuple([Atom(short), Atom(b"blob"), Atom(b"mac"), Atom(b"code")]),
        Tuple([Atom(inner), Atom(b"blob"), Atom(b"mac"), Label("code")]),
        Tuple([Atom(psp), Atom(sig)]),
    ):
        k.observe(term)
    k.analyze()
    assert _filed(k) == _filed_by_from_term(k.terms_list()) == ({go}, {psp})


def _cert(rng, public: bytes):
    return amd_rot_certify(crypto.sig_keygen(rng), public).to_term()


def _deploy(go_public: bytes):
    return DeployPackage(go_public, b"blob", b"mac", Atom(b"code")).to_term()


def test_stolen_psp_private_meets_a_later_deploy_package():
    """A PSP private stolen before the owner deploys opens that deploy."""
    rng = Rng(201)
    psp = crypto.kx_keygen(rng)
    go = crypto.kx_keygen(rng)
    k = AdversaryKnowledge()
    k.observe(_cert(rng, psp.public))
    k.add_private_dh(psp.private)
    k.analyze()
    # its only peer would be its own certificate's element: the same side
    assert k.kx_pairs == 0
    k.observe(_deploy(go.public))
    k.analyze()
    assert k.kx_pairs == 1
    assert k.knows(Atom(crypto.shared_secret(go.public, psp.private)))


def test_own_deploy_key_meets_the_certificate_once_its_package_is_sent():
    """A key the adversary deploys with negotiates once its package is seen."""
    rng = Rng(202)
    psp = crypto.kx_keygen(rng)
    adv = crypto.kx_keygen(rng)
    k = AdversaryKnowledge()
    k.observe(_cert(rng, psp.public))
    k.add_private_dh(adv.private)
    k.observe(Atom(adv.public))
    k.analyze()
    assert k.kx_pairs == 0
    k.observe(_deploy(adv.public))
    k.analyze()
    assert k.kx_pairs == 1
    ss = crypto.shared_secret(psp.public, adv.private)
    assert k.knows(Atom(ss))
    for label in crypto.WRAP_KEY_LABELS:
        assert k.knows(Atom(crypto.derive_wrap_key(label, ss)))


def test_replayed_psp_public_as_owner_element():
    """A go_sn_pb replaced by the PSP's own public is on both sides."""
    rng = Rng(203)
    psp = crypto.kx_keygen(rng)
    k = AdversaryKnowledge()
    k.observe(_cert(rng, psp.public))
    k.observe(_deploy(psp.public))
    k.add_private_dh(psp.private)
    k.analyze()
    # what the PSP computes on receiving that package, exchanged once
    assert k.kx_pairs == 1
    assert k.knows(Atom(crypto.shared_secret(psp.public, psp.private)))
