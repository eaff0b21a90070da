"""Each platform derives its key pair and certificate on first read.

A World draws every platform's bytes when it is built, in a fixed
order, and loads a platform's key or signs its certificate only when
one is read. An honest run reads sgx0 and sev0 alone, so it never pays
for sgx1 and sev1; a read of the adversary's view reads every published
certificate. Ed25519 signing is deterministic, so when a derivation runs
changes no byte of any trace.
"""

import pytest

from vmquote import crypto, sev, sgx
from vmquote.codec import Atom
from vmquote.crypto import Rng
from vmquote.harness import KIND_SEND, Pipeline, World

SEEDS = range(10)


@pytest.fixture
def library(monkeypatch):
    """Counts of the Ed25519 and X25519 private-key calls crypto makes.

    The key caches and both memos start empty, so every key the run
    uses is loaded here and no exchange is answered from an earlier one.
    """
    counts = {"ed25519 sign": 0, "ed25519 load": 0, "x25519 load": 0, "x25519 exchange": 0}
    real_ed, real_x = crypto.Ed25519PrivateKey, crypto.X25519PrivateKey

    class Counted:
        def __init__(self, key, name):
            self._key, self._name = key, name

        def public_key(self):
            return self._key.public_key()

        def sign(self, message):
            counts[f"{self._name} sign"] += 1
            return self._key.sign(message)

        def exchange(self, public):
            counts[f"{self._name} exchange"] += 1
            return self._key.exchange(public)

    def loader(real, name):
        def from_private_bytes(data):
            counts[f"{name} load"] += 1
            return Counted(real.from_private_bytes(data), name)

        return type(real.__name__, (), {"from_private_bytes": staticmethod(from_private_bytes)})

    monkeypatch.setattr(crypto, "Ed25519PrivateKey", loader(real_ed, "ed25519"))
    monkeypatch.setattr(crypto, "X25519PrivateKey", loader(real_x, "x25519"))
    monkeypatch.setattr(crypto, "_verified", {})
    monkeypatch.setattr(crypto, "_exchanged", {})
    crypto._sig_private.cache_clear()
    crypto._kx_private.cache_clear()
    yield counts
    # the caches hold counted keys: later tests load their own
    crypto._sig_private.cache_clear()
    crypto._kx_private.cache_clear()


def _platforms(world):
    return [*world.sgx_platforms, *world.sev_platforms]


def _derived(world):
    """Which platforms hold their certificate: derived, or assigned."""
    return ["cert" in vars(plat) for plat in _platforms(world)]


@pytest.mark.parametrize("seed", SEEDS)
def test_honest_run_pays_only_for_the_designated_platforms(seed, library):
    """Both roots and sgx0's quoting key, sev0's and the owner's elements.

    Three signatures: the two designated certificates and the quote. One
    exchange: the PSP's is answered from the owner's.
    """
    world = World(seed=seed)
    Pipeline(world).run_all()
    assert world.last_verification is not None
    assert library == {
        "ed25519 sign": 3,
        "ed25519 load": 3,
        "x25519 load": 2,
        "x25519 exchange": 1,
    }
    assert _derived(world) == [True, False, True, False]


def test_reading_the_adversary_view_derives_every_certificate(library):
    world = World(seed=3)
    assert _derived(world) == [False] * 4
    assert library["ed25519 sign"] == 0
    world.knowledge
    assert _derived(world) == [True] * 4
    assert library["ed25519 sign"] == 4


def _eager_world(seed):
    """The World's roots and platforms, drawn in its order and certified at once.

    Returns the two root key pairs, each SGX platform's (ppid, qek,
    plat_info), each SEV platform's (psp_sn, plat_sev, launch_sev), and
    the four certificates.
    """
    rng = Rng(seed)
    intel, amd = crypto.sig_keygen(rng), crypto.sig_keygen(rng)
    sgx_plats = [
        (rng.bytes(sgx.PPID_LEN), crypto.sig_keygen(rng), Atom(rng.bytes(sgx.PLAT_INFO_LEN)))
        for _ in range(2)
    ]
    sev_plats = [
        (
            crypto.kx_keygen(rng),
            Atom(rng.bytes(sev.PLAT_SEV_LEN)),
            Atom(rng.bytes(sev.PLAT_SEV_LEN)),
        )
        for _ in range(2)
    ]
    certs = [sgx.intel_rot_certify(intel, qek.public, ppid) for ppid, qek, _ in sgx_plats]
    certs += [sev.amd_rot_certify(amd, psp.public) for psp, _, _ in sev_plats]
    return (intel, amd), sgx_plats, sev_plats, certs


@pytest.mark.parametrize("seed", SEEDS)
def test_published_certificates_equal_eager_ones(seed):
    world = World(seed=seed)
    roots, sgx_plats, sev_plats, certs = _eager_world(seed)
    published = [
        ev.term("term")
        for ev in world.trace
        if ev.kind == KIND_SEND and ev.get("src") in ("intel_rot", "amd_rot")
    ]
    assert published == [
        Atom(roots[0].public),
        Atom(roots[1].public),
        *(cert.to_term() for cert in certs),
    ]
    assert (world.intel_rot, world.amd_rot) == roots
    assert [(p.ppid, p.qek, p.plat_info) for p in world.sgx_platforms] == sgx_plats
    assert [(p.psp_sn, p.plat_sev, p.launch_sev) for p in world.sev_platforms] == sev_plats
    assert [plat.cert for plat in _platforms(world)] == certs


@pytest.mark.parametrize("seed", SEEDS)
def test_when_a_derivation_runs_changes_no_trace_byte(seed):
    """One world is read in full right after construction, the other only at the end."""
    early = World(seed=seed)
    early.trace.to_jsonl()
    assert _derived(early) == [True] * 4
    late = World(seed=seed)
    for world in (early, late):
        Pipeline(world).run_all()
    assert _derived(late) == [True, False, True, False]
    assert early.trace.to_jsonl() == late.trace.to_jsonl()


def test_an_assigned_certificate_replaces_the_derivation(library):
    rng = Rng(5)
    rot = crypto.sig_keygen(rng)
    plat = sgx.new_sgx_platform(rng, rot)
    other = sgx.new_sgx_platform(rng, rot)
    other.cert = sgx.intel_rot_certify(rot, plat.qek.public, plat.ppid)
    assert other.cert.ppid == plat.ppid
    assert library["ed25519 sign"] == 1
