"""Adversary knowledge closure: what leaks, what stays out of reach."""

import pytest
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from vmquote import crypto, sev
from vmquote.codec import Atom, Label, Tuple, encode
from vmquote.crypto import Rng
from vmquote.harness import (
    DEFAULT_MASK,
    SCENARIOS,
    Event,
    Trace,
    World,
    fuzz_adversary,
    rebuild_knowledge,
    run_scenario,
)
from vmquote.harness.events import FRESH_VALUE, KIND_ADVERSARY
from vmquote.harness.knowledge import _MIN_CIPHERTEXT, AdversaryKnowledge
from vmquote.sev import (
    DeployPackage,
    SecretPackage,
    SevPlatformCert,
    TransportKeys,
    amd_rot_certify,
)


def test_tuples_come_apart():
    k = AdversaryKnowledge()
    k.observe(Tuple([Atom(b"left"), Atom(b"right")]))
    k.analyze()
    assert k.knows(Atom(b"left"))
    assert k.knows(Atom(b"right"))


def test_encoded_atoms_decode():
    k = AdversaryKnowledge()
    inner = Tuple([Label("transport_keys"), Atom(b"\x01" * 32)])
    k.observe(Atom(encode(inner)))
    k.analyze()
    assert k.knows(inner)
    assert k.knows(Atom(b"\x01" * 32))


def test_key_sized_encoding_still_decodes():
    """The decode guard skips no parsable atom, even a key-sized one."""
    inner = Atom(b"\x00" * 27)
    outer = Atom(encode(inner))
    assert len(outer.value) == 32
    k = AdversaryKnowledge()
    k.observe(outer)
    k.analyze()
    assert k.knows(inner)


def _transport_keys(tek: bytes, rng: Rng):
    """The transport-keys term a deploy package wraps, with tek as its transport key."""
    return TransportKeys(tek=tek, tik=crypto.fresh_key(rng)).to_term()


def _secret_package(blob_p: bytes):
    """The secret package that carries blob_p, the field a tek opens."""
    return SecretPackage(blob_p=blob_p, mac_p=b"mac").to_term()


def test_trial_decryption_with_known_key():
    rng = Rng(91)
    key = crypto.fresh_key(rng)
    secret = Atom(b"hidden payload..")
    blob = crypto.encrypt(secret, key, rng)
    k = AdversaryKnowledge()
    k.observe(_secret_package(blob))
    k.analyze()
    assert not k.knows(secret)
    k.observe(_transport_keys(key, rng))
    k.analyze()
    assert k.knows(secret)


@pytest.mark.parametrize("key_first", [False, True], ids=["blob_first", "key_first"])
def test_sealed_blob_opens_in_either_order(key_first):
    """A tek learned after the blob_p it opens, or a blob_p after its tek."""
    rng = Rng(98)
    key = crypto.fresh_key(rng)
    secret = Atom(b"sealed payload..")
    blob = crypto.encrypt(secret, key, rng)
    k = AdversaryKnowledge()
    keys, package = _transport_keys(key, rng), _secret_package(blob)
    first, second = (keys, package) if key_first else (package, keys)
    k.observe(first)
    k.analyze()
    assert not k.knows(secret)
    k.observe(second)
    k.analyze()
    assert k.knows(secret)
    # the tek against the blob_p: one pair scanned, once
    assert (k.scanned, k.hits) == (1, 1)


def _watch_decrypt(monkeypatch) -> list:
    """Record each (blob, key) the closure opens through crypto.decrypt."""
    opened = []
    decrypt = crypto.decrypt
    monkeypatch.setattr(crypto, "decrypt", lambda b, k: opened.append((b, k)) or decrypt(b, k))
    return opened


def _five_blob_ps(key: bytes, rng: Rng):
    """Five blob_ps, the middle one sealed under key, the rest each under a key of its own."""
    others = [crypto.encrypt(Atom(b"other %d" % i), crypto.fresh_key(rng), rng) for i in range(4)]
    mine = crypto.encrypt(Atom(b"mine"), key, rng)
    return others[:2] + [mine] + others[2:]


def test_tek_opens_the_one_blob_p_sealed_under_it(monkeypatch):
    """The tek is tried against every blob_p, in first-seen order; one opens."""
    rng = Rng(25)
    tek = crypto.fresh_key(rng)
    blobs = _five_blob_ps(tek, rng)
    k = AdversaryKnowledge()
    k.observe(_transport_keys(tek, rng))
    for blob in blobs:
        k.observe(_secret_package(blob))
    opened = _watch_decrypt(monkeypatch)
    k.analyze()
    assert opened == [(blob, tek) for blob in blobs]
    assert k.knows(Atom(b"mine"))
    assert not any(k.knows(Atom(b"other %d" % i)) for i in range(4))
    assert (k.scanned, k.hits) == (5, 1)


def test_old_tek_is_tried_only_against_new_blob_ps(monkeypatch):
    """A tek tried once meets only the blob_ps filed after its last trial."""
    rng = Rng(30)
    tek = crypto.fresh_key(rng)
    blobs = _five_blob_ps(tek, rng)
    k = AdversaryKnowledge()
    k.observe(_transport_keys(tek, rng))
    for blob in blobs[:2]:
        k.observe(_secret_package(blob))
    k.analyze()
    assert not k.knows(Atom(b"mine"))
    assert (k.scanned, k.hits) == (2, 0)
    opened = _watch_decrypt(monkeypatch)
    for blob in blobs[2:]:
        k.observe(_secret_package(blob))
    k.analyze()
    assert opened == [(blob, tek) for blob in blobs[2:]]
    assert k.knows(Atom(b"mine"))
    assert (k.scanned, k.hits) == (5, 1)
    opened.clear()
    k.analyze()
    assert opened == []


def test_authentic_blob_without_a_term_teaches_nothing(monkeypatch):
    """A blob whose tag checks but whose plaintext is no term stays opaque."""
    rng = Rng(97)
    key = crypto.fresh_key(rng)
    nonce = bytes(crypto.NONCE_LEN)
    raw = b"\xff" * 8
    blob = nonce + AESGCM(key).encrypt(nonce, raw, None)
    assert AESGCM(key).decrypt(nonce, blob[len(nonce) :], None) == raw
    opened = []
    decrypt = crypto.decrypt
    monkeypatch.setattr(crypto, "decrypt", lambda b, k: opened.append((b, k)) or decrypt(b, k))
    keys, package = _transport_keys(key, rng), _secret_package(blob)
    k = AdversaryKnowledge()
    k.observe(package)
    k.observe(keys)
    k.analyze()
    # the blob is tried under the transport key, and only under it
    assert opened == [(blob, key)]
    assert k.terms_list() == [package, keys, *package.items, *keys.items]
    assert not k.knows(Atom(raw))
    # no wrap key is derived: two keys against one blob, the tek tried
    assert (k.trials, k.scanned, k.hits) == (2, 1, 0)


def test_blob_under_a_bare_key_is_counted_but_never_tried(monkeypatch):
    """No party seals under a key it only saw in the clear, so no such pair is tried.

    The blob is filed, in its secret package, but the key is of no kind.
    The pair still counts in trials.
    """
    rng = Rng(108)
    key = crypto.fresh_key(rng)
    secret = Atom(b"under a bare key")
    blob = crypto.encrypt(secret, key, rng)
    tried = []
    monkeypatch.setattr(crypto, "decrypt", lambda *args: tried.append(args))
    k = AdversaryKnowledge()
    k.observe(Tuple([Atom(key), _secret_package(blob)]))
    k.analyze()
    assert tried == []
    assert not k.knows(secret)
    assert (k.trials, k.scanned, k.hits) == (1, 0, 0)


def _deploy_term(go_public: bytes):
    """A deploy package whose owner element is go_public."""
    return DeployPackage(go_public, b"blob", b"mac", Atom(b"code")).to_term()


def _negotiated_kek(k: AdversaryKnowledge, rng: Rng) -> bytes:
    """Show k one negotiation it can run; return the kek derived from its output."""
    victim = crypto.kx_keygen(rng)
    adv = crypto.kx_keygen(rng)
    k.observe(amd_rot_certify(crypto.sig_keygen(rng), victim.public).to_term())
    k.observe(_deploy_term(adv.public))
    k.add_private_dh(adv.private)
    ss = crypto.shared_secret(victim.public, adv.private)
    return crypto.derive_wrap_key(crypto.WRAP_KEY_LABELS[0], ss)


def _package(field: str, blob: bytes, rng: Rng):
    """The deploy package (blob_d) or the secret package (blob_p) that carries blob."""
    if field == "blob_d":
        return DeployPackage(rng.bytes(32), blob, b"mac", Atom(b"code")).to_term()
    return _secret_package(blob)


@pytest.mark.parametrize("field", ["blob_d", "blob_p"])
def test_kek_opens_only_a_blob_d(field):
    """A blob sealed under a kek opens only in the field a kek seals."""
    rng = Rng(110)
    k = AdversaryKnowledge()
    kek = _negotiated_kek(k, rng)
    secret = Atom(b"sealed under kek")
    k.observe(_package(field, crypto.encrypt(secret, kek, rng), rng))
    k.analyze()
    assert k.knows(Atom(kek))
    opens = field == "blob_d"
    assert k.knows(secret) == opens
    # the kek against its one blob_d; a blob_p finds no tek to meet
    assert (k.scanned, k.hits) == (opens, opens)


@pytest.mark.parametrize("field", ["blob_p", "blob_d"])
def test_tek_opens_only_a_blob_p(field):
    """A blob sealed under a tek opens only in the field a tek seals."""
    rng = Rng(111)
    tek = crypto.fresh_key(rng)
    secret = Atom(b"sealed under tek")
    k = AdversaryKnowledge()
    k.observe(_transport_keys(tek, rng))
    k.observe(_package(field, crypto.encrypt(secret, tek, rng), rng))
    k.analyze()
    opens = field == "blob_p"
    assert k.knows(secret) == opens
    # the tek against its one blob_p; a blob_d finds no kek to meet
    assert (k.scanned, k.hits) == (opens, opens)


@pytest.mark.parametrize("field", ["blob_d", "blob_p"])
def test_blob_of_a_package_from_term_rejects_is_never_filed(field):
    """A package-shaped Tuple whose last field is no valid value files no blob.

    The blob field passes the length check, and a key of its kind is
    known, but from_term rejects the Tuple, so the pair is never scanned.
    """
    rng = Rng(112)
    k = AdversaryKnowledge()
    if field == "blob_d":
        message, key, kind = DeployPackage, _negotiated_kek(k, rng), k._kek
    else:
        message, key, kind = SecretPackage, crypto.fresh_key(rng), k._tek
        k.observe(_transport_keys(key, rng))
    secret = Atom(b"in a hostile one.")
    valid = _package(field, crypto.encrypt(secret, key, rng), rng)
    # vmc must be an Atom, mac_p bytes: a Tuple in the last place is neither
    hostile = Tuple([*valid.items[:-1], Tuple([Atom(b"not a field value")])])
    with pytest.raises(ValueError):
        message.from_term(hostile)
    k.observe(hostile)
    k.analyze()
    assert k.knows(Atom(key))
    assert not k.knows(secret)
    assert kind.blobs == []
    assert (k.scanned, k.hits) == (0, 0)


def test_leaked_or_owned_private_negotiates():
    """A private deployed with meets the PSP key of a platform certificate."""
    rng = Rng(92)
    victim = crypto.kx_keygen(rng)
    adv = crypto.kx_keygen(rng)
    k = AdversaryKnowledge()
    k.observe(amd_rot_certify(crypto.sig_keygen(rng), victim.public).to_term())
    k.observe(_deploy_term(adv.public))
    k.add_private_dh(adv.private)
    k.analyze()
    ss = crypto.shared_secret(victim.public, adv.private)
    assert k.knows(Atom(ss))


def test_element_outside_a_negotiation_position_negotiates_nothing():
    """No honest party feeds a bare atom, or a tuple's other items, to X25519."""
    rng = Rng(104)
    victim = crypto.kx_keygen(rng)
    other = crypto.kx_keygen(rng)
    adv = crypto.kx_keygen(rng)
    k = AdversaryKnowledge()
    k.observe(Atom(victim.public))
    # certificate-shaped, with the element in the signature's place
    k.observe(Tuple([Atom(b"not a key"), Atom(other.public)]))
    k.add_private_dh(adv.private)
    k.analyze()
    assert k.kx_pairs == 0
    assert not k.knows(Atom(crypto.shared_secret(victim.public, adv.private)))


def test_observed_atom_derives_no_wrap_key():
    """Only negotiation outputs are key material for derive_wrap_key."""
    value = Rng(105).bytes(32)
    k = AdversaryKnowledge()
    k.observe(Atom(value))
    k.analyze()
    assert k.terms_list() == [Atom(value)]
    for label in crypto.WRAP_KEY_LABELS:
        assert not k.knows(Atom(crypto.derive_wrap_key(label, value)))


@pytest.mark.parametrize("observed_first", [False, True], ids=["unseen", "observed_first"])
def test_negotiation_output_derives_both_wrap_keys(observed_first):
    """A shared secret is derived from once, even if it was seen before."""
    rng = Rng(106)
    victim = crypto.kx_keygen(rng)
    adv = crypto.kx_keygen(rng)
    ss = crypto.shared_secret(victim.public, adv.private)
    wrap_keys = [Atom(crypto.derive_wrap_key(label, ss)) for label in crypto.WRAP_KEY_LABELS]
    k = AdversaryKnowledge()
    if observed_first:
        k.observe(Atom(ss))
        k.analyze()
        assert not any(k.knows(key) for key in wrap_keys)
    k.observe(amd_rot_certify(crypto.sig_keygen(rng), victim.public).to_term())
    k.observe(_deploy_term(adv.public))
    k.add_private_dh(adv.private)
    k.analyze()
    assert k.kx_pairs == 1
    atoms = [t for t in k.terms_list() if isinstance(t, Atom)]
    assert atoms.count(Atom(ss)) == 1
    assert atoms[-2:] == wrap_keys


def test_malformed_leaked_private_negotiates_nothing():
    """A trace may leak a dh_private of the wrong length; it meets no element."""
    rng = Rng(107)
    psp = crypto.kx_keygen(rng)
    k = AdversaryKnowledge()
    k.observe(amd_rot_certify(crypto.sig_keygen(rng), psp.public).to_term())
    k.observe(_deploy_term(psp.public))
    k.learn(Event(0, "adversary", {"leak": b"short".hex(), "leak_kind": "dh_private"}))
    k.analyze()
    assert k.kx_pairs == 0
    assert k.knows(Atom(b"short"))


def test_observed_privates_are_not_guessed():
    """A private element on the wire negotiates nothing by itself."""
    rng = Rng(93)
    victim = crypto.kx_keygen(rng)
    leaked = crypto.kx_keygen(rng)
    k = AdversaryKnowledge()
    k.observe(amd_rot_certify(crypto.sig_keygen(rng), victim.public).to_term())
    k.observe(Atom(leaked.private))
    k.analyze()
    ss = crypto.shared_secret(victim.public, leaked.private)
    assert not k.knows(Atom(ss))


def test_psp_compromise_extraction_chain():
    """Stolen PSP private opens deploy traffic end to end.

    Wire view: the PSP's published certificate, the deploy package
    (negotiation element, wrapped transport keys), then the wrapped
    channel secret. The closure must chain negotiate, derive, decrypt,
    decrypt to reach the channel key.
    """
    rng = Rng(94)
    psp = crypto.kx_keygen(rng)
    go = crypto.kx_keygen(rng)
    ss = crypto.shared_secret(psp.public, go.private)
    kek = crypto.derive_wrap_key(Label("sev_kek"), ss)
    tek = crypto.fresh_key(rng)
    tik = crypto.fresh_key(rng)
    kik = crypto.derive_wrap_key(Label("sev_kik"), ss)
    blob_d = crypto.encrypt(Tuple([Label("transport_keys"), Atom(tek), Atom(tik)]), kek, rng)
    mac_d = crypto.mac(Atom(blob_d), kik)
    cik = crypto.fresh_key(rng)
    blob_p = crypto.encrypt(Atom(cik), tek, rng)

    k = AdversaryKnowledge()
    k.observe(amd_rot_certify(crypto.sig_keygen(rng), psp.public).to_term())
    k.observe(DeployPackage(go.public, blob_d, mac_d, Atom(b"guest code")).to_term())
    k.observe(_secret_package(blob_p))
    k.analyze()
    assert not k.knows(Atom(cik))

    k.add_private_dh(psp.private)
    k.analyze()
    assert k.knows(Atom(tek))
    assert k.knows(Atom(cik))
    assert k.derivable(Atom(cik))


def test_closure_reaches_fixpoint():
    """One analyze takes deep nesting all the way apart; no round cap."""
    k = AdversaryKnowledge()
    term = Atom(b"core")
    for i in range(64):
        term = Tuple([term, Atom(bytes([i]))])
    k.observe(term)
    k.analyze()
    assert k.knows(Atom(b"core"))
    learned = k.terms_list()
    k.analyze()
    assert k.terms_list() == learned


class TestCounters:
    def test_second_analyze_with_nothing_new_does_no_work(self):
        rng = Rng(96)
        key = crypto.fresh_key(rng)
        blob = crypto.encrypt(Atom(b"payload"), key, rng)
        k = AdversaryKnowledge()
        k.observe(Tuple([_transport_keys(key, rng), _secret_package(blob)]))
        k.analyze()
        # two keys, tek and tik, against one blob; no wrap key is derived
        assert (k.trials, k.hits) == (2, 1)
        work = (k.rounds, k.kx_pairs, k.trials, k.hits)
        k.analyze()
        assert (k.rounds, k.kx_pairs, k.trials, k.hits) == work

    def test_signature_in_its_own_field_is_never_scanned(self):
        """A certificate's signature is filed as no blob: tek, tik and PSP key cover it."""
        rng = Rng(100)
        sig = crypto.sign(Atom(b"payload"), crypto.sig_keygen(rng).private)
        cert = SevPlatformCert(psp_sn_pb=rng.bytes(32), sig_ar=sig).to_term()
        k = AdversaryKnowledge()
        k.observe(Tuple([_transport_keys(crypto.fresh_key(rng), rng), cert]))
        k.analyze()
        assert (k.trials, k.scanned, k.hits) == (3, 0, 0)

    def test_each_pair_of_a_kind_is_scanned(self):
        """The tek's pair is scanned; the tik seals nothing, so its pair is not."""
        rng = Rng(101)
        key = crypto.fresh_key(rng)
        blob = crypto.encrypt(Atom(b"payload"), key, rng)
        k = AdversaryKnowledge()
        k.observe(Tuple([_transport_keys(key, rng), _secret_package(blob)]))
        k.analyze()
        assert k.knows(Atom(b"payload"))
        assert (k.trials, k.scanned, k.hits) == (2, 1, 1)

    def test_fuzz_world_tries_each_pair_once(self):
        world = World(seed=5)
        fuzz_adversary(world, seed=5, steps=40, mask=DEFAULT_MASK)
        k = world.knowledge
        k.analyze()
        atoms = [t.value for t in k.terms_list() if isinstance(t, Atom)]
        keys = sum(1 for a in atoms if len(a) == 32)
        blobs = sum(1 for a in atoms if len(a) >= _MIN_CIPHERTEXT)
        assert k.trials == keys * blobs
        assert 0 < k.hits < k.trials
        assert k.rounds > 0 and k.kx_pairs > 0

    def test_each_pair_tried_is_one_decrypt_call(self, monkeypatch, masks):
        """Trial decryption opens every pair it tries through crypto.decrypt, once.

        Over the 17 seed-0 scenario traces and fuzz runs 0-19 at 40 steps
        under each mask, each rebuilt and closed, the closure's decrypt
        calls equal scanned.
        """
        traces = [run_scenario(name, seed=0) for name in sorted(SCENARIOS)]
        for mask in masks.values():
            traces += [
                fuzz_adversary(World(seed=seed), seed=seed, steps=40, mask=mask)
                for seed in range(20)
            ]
        calls = []
        decrypt = crypto.decrypt
        monkeypatch.setattr(crypto, "decrypt", lambda b, k: calls.append((b, k)) or decrypt(b, k))
        hits = 0
        for trace in traces:
            k = rebuild_knowledge(trace)
            calls.clear()
            k.analyze()
            assert len(calls) == k.scanned
            hits += k.hits
        assert hits > 0


class TestDerivable:
    def test_labels_always(self):
        assert AdversaryKnowledge().derivable(Label("anything_public"))

    def test_tuple_of_knowns(self):
        k = AdversaryKnowledge()
        k.observe(Atom(b"a"))
        k.observe(Atom(b"b"))
        assert k.derivable(Tuple([Atom(b"a"), Label("x"), Atom(b"b")]))

    def test_deep_tuple_of_knowns(self):
        k = AdversaryKnowledge()
        k.observe(Atom(b"a"))
        k.observe(Atom(b"b"))
        term = Atom(b"a")
        for _ in range(12):
            term = Tuple([term, Atom(b"b")])
        assert k.derivable(term)

    def test_tuple_with_unknown_part(self):
        k = AdversaryKnowledge()
        k.observe(Atom(b"a"))
        assert not k.derivable(Tuple([Atom(b"a"), Atom(b"\xfe" * 32)]))

    def test_encoding_of_derivable(self):
        k = AdversaryKnowledge()
        k.observe(Atom(b"a"))
        assert k.derivable(Atom(encode(Tuple([Atom(b"a"), Label("l")]))))

    def test_digest_of_known(self):
        k = AdversaryKnowledge()
        term = Tuple([Label("report_data"), Atom(b"a")])
        k.observe(term)
        k.analyze()
        assert k.derivable(Atom(crypto.digest(term)))

    def test_digest_of_unobserved_tuple_not_derivable(self):
        """The digest rule deliberately under-approximates the adversary.

        The Tuple is derivable from its known parts, but only digests of
        known terms count, so its digest is not derivable.
        """
        k = AdversaryKnowledge()
        k.observe(Atom(b"a"))
        k.observe(Atom(b"b"))
        k.analyze()
        preimage = Tuple([Atom(b"a"), Atom(b"b")])
        assert k.derivable(preimage)
        assert not k.derivable(Atom(crypto.digest(preimage)))

    def test_only_digest_sized_atoms_consult_the_digest_index(self, monkeypatch):
        calls = []
        digest = crypto.digest
        monkeypatch.setattr(crypto, "digest", lambda term: calls.append(term) or digest(term))
        k = AdversaryKnowledge()
        k.observe(Tuple([Atom(b"a"), Atom(b"b")]))
        k.analyze()
        assert not k.derivable(Atom(b"\xfe" * 31))
        assert not k.derivable(Atom(b"\xfe" * 33))
        assert calls == []
        assert not k.derivable(Atom(b"\xfe" * crypto.DIGEST_LEN))
        assert calls == k.terms_list()

    def test_fresh_randomness_not_derivable(self):
        k = AdversaryKnowledge()
        k.observe(Atom(b"unrelated"))
        k.analyze()
        assert not k.derivable(Atom(Rng(95).bytes(32)))

    def test_observed_tuple_is_derivable_before_analyze(self):
        # its fresh part is not known until analyze takes the Tuple
        # apart, so only the known set makes the whole derivable
        k = AdversaryKnowledge()
        term = Tuple([Atom(Rng(96).bytes(32)), Label("l")])
        k.observe(term)
        assert not k.derivable(term.items[0])
        assert k.derivable(term)

    def test_composed_tuple_with_an_unknown_part_is_not_derivable(self):
        k = AdversaryKnowledge()
        k.observe(Tuple([Atom(b"a"), Label("l")]))
        k.analyze()
        assert not k.derivable(Tuple([Atom(b"a"), Atom(Rng(97).bytes(32))]))


class TestFreshValues:
    """Fresh names are atomic: no ciphertext and no digest."""

    @staticmethod
    def _pairs(k):
        atoms = [t.value for t in k.terms_list() if isinstance(t, Atom)]
        keys = sum(1 for a in atoms if len(a) == 32)
        blobs = sum(1 for a in atoms if len(a) >= _MIN_CIPHERTEXT)
        return keys, blobs

    def test_fresh_blob_is_covered_but_never_scanned(self):
        # a fresh value is filed as no key and no blob: it lies in no
        # message field, and the closure files nothing by who minted it
        world = World(seed=12)
        world.adversary_fresh(32)
        world.adversary_fresh(64)
        rebuilt = rebuild_knowledge(world.trace)
        parsed = rebuild_knowledge(Trace.from_jsonl(world.trace.to_jsonl()))
        for k in (world.knowledge, rebuilt, parsed):
            k.analyze()
            keys, blobs = self._pairs(k)
            assert k.trials == keys * blobs
            assert blobs > 0
            assert k.scanned == 0
        live = world.knowledge
        for k in (rebuilt, parsed):
            assert (k.trials, k.scanned) == (live.trials, live.scanned)

    def test_minted_tek_opens_its_blob_p(self, monkeypatch):
        """The adversary's own deploy: a tek it minted opens the blob_p sealed under it.

        The tek is filed because the closure opens the deploy's blob_d,
        not because the adversary minted it.
        """
        sealed = []
        seal_secret = sev.seal_secret

        def spy(msr, secret, keys, rng):
            package = seal_secret(msr, secret, keys, rng)
            sealed.append((package.blob_p, keys.tek))
            return package

        monkeypatch.setattr(sev, "seal_secret", spy)
        world = World(seed=13)
        assert world.adversary_own_deploy(world.sev_platforms[1], Atom(b"adversary code"))
        [(blob_p, tek)] = sealed
        opened = []
        decrypt = crypto.decrypt

        def opening(blob, key):
            plain = decrypt(blob, key)
            opened.append((blob, key))
            return plain

        monkeypatch.setattr(crypto, "decrypt", opening)
        rebuilt = rebuild_knowledge(world.trace)
        parsed = rebuild_knowledge(Trace.from_jsonl(world.trace.to_jsonl()))
        for k in (world.knowledge, rebuilt, parsed):
            opened.clear()
            k.analyze()
            assert (blob_p, tek) in opened
            assert tek in k._tek.keys

    def test_fresh_atom_skips_the_digest_rule(self, monkeypatch):
        term = Tuple([Label("report_data"), Atom(b"a")])
        value = crypto.digest(term)
        k = AdversaryKnowledge()
        k.observe(term)
        k.analyze()
        calls = []
        digest = crypto.digest
        monkeypatch.setattr(crypto, "digest", lambda t: calls.append(t) or digest(t))
        assert not k.derivable(Atom(value), fresh=True)
        assert calls == []
        assert k.derivable(Atom(value))
        assert calls == k.terms_list()

    def test_known_or_decodable_fresh_atom_is_derivable(self):
        key = Rng(103).bytes(32)
        k = AdversaryKnowledge()
        k.observe(Atom(key))
        k.observe(Atom(b"a"))
        k.analyze()
        assert k.derivable(Atom(key), fresh=True)
        assert k.derivable(Atom(encode(Tuple([Atom(b"a"), Label("l")]))), fresh=True)


class TestKnownSet:
    def test_atom_and_label_stay_distinct(self):
        k = AdversaryKnowledge()
        k.observe(Atom(b"x"))
        assert k.knows(Atom(b"x"))
        assert not k.knows(Label("x"))
        k = AdversaryKnowledge()
        k.observe(Label("x"))
        assert k.knows(Label("x"))
        assert not k.knows(Atom(b"x"))

    def test_equal_nested_tuple_built_apart_is_known(self):
        def nested():
            return Tuple([Label("l"), Tuple([Atom(b"a"), Tuple((Atom(b"b"),))])])

        k = AdversaryKnowledge()
        k.observe(nested())
        assert nested() is not nested()
        assert k.knows(nested())
        assert not k.knows(Tuple([Label("l"), Tuple([Atom(b"a"), Tuple([Atom(b"c")])])]))

    def test_terms_list_has_no_duplicates(self):
        k = AdversaryKnowledge()
        k.observe(Tuple([Atom(b"a"), Atom(b"b")]))
        k.analyze()
        k.observe(Tuple([Atom(b"a"), Atom(b"b")]))
        k.observe(Atom(b"a"))
        k.analyze()
        terms = k.terms_list()
        assert terms == [Tuple([Atom(b"a"), Atom(b"b")]), Atom(b"a"), Atom(b"b")]
        assert len({encode(t) for t in terms}) == len(terms)


class TestHotPath:
    """What one dedupe, one event and one synthesis check cost."""

    @staticmethod
    def _count_tuple_hashes(monkeypatch) -> list:
        hashed = []
        tuple_hash = Tuple.__hash__

        def counting(self):
            hashed.append(self)
            return tuple_hash(self)

        monkeypatch.setattr(Tuple, "__hash__", counting)
        return hashed

    def test_observing_a_fresh_tuple_hashes_each_node_once(self, monkeypatch):
        inner = Tuple([Atom(b"a"), Label("l")])
        middle = Tuple([inner, Atom(b"b")])
        outer = Tuple([middle, Label("m")])
        k = AdversaryKnowledge()
        hashed = self._count_tuple_hashes(monkeypatch)
        k.observe(outer)
        assert [id(t) for t in hashed] == [id(outer), id(middle), id(inner)]
        assert k.terms_list() == [outer]

    def test_tuple_of_known_parts_is_derivable_without_a_hash(self, monkeypatch):
        k = AdversaryKnowledge()
        k.observe(Atom(b"a"))
        k.observe(Atom(b"b"))
        k.analyze()
        hashed = self._count_tuple_hashes(monkeypatch)
        assert k.derivable(Tuple([Tuple([Atom(b"a"), Label("l")]), Atom(b"b")]))
        assert hashed == []

    def test_fresh_value_event_reads_its_term_once_and_no_bytes(self, monkeypatch):
        reads = []
        for name in ("data", "term"):
            read = getattr(Event, name)
            monkeypatch.setattr(
                Event, name, lambda ev, key, _n=name, _r=read: reads.append(_n) or _r(ev, key)
            )
        value = Rng(98).bytes(32)
        k = AdversaryKnowledge()
        k.learn(Event(0, KIND_ADVERSARY, {"action": FRESH_VALUE, "term": Atom(value)}))
        assert reads == ["term"]
        assert k.terms_list() == [Atom(value)]


def test_terms_list_deterministic_order():
    def build():
        k = AdversaryKnowledge()
        k.observe(Tuple([Atom(b"x"), Atom(b"y")]))
        k.observe(Atom(b"z"))
        k.analyze()
        return [encode(t) for t in k.terms_list()]

    assert build() == build()
