"""Explicit Dolev-Yao adversary knowledge.

The adversary sees every term on the network plus the public bulletin,
and on top of that whatever private keys compromises hand it. Its view
is one AdversaryKnowledge, fed by one loop, feed, which hands each send
and adversary event to the one rule, AdversaryKnowledge.learn; learn
also keeps the view's Compromises record, the only one a judgement reads
its escapes from. Knowledge grows by an analysis closure run to
fixpoint:

- tuples are taken apart
- atoms whose payload parses as a term are decoded
- ciphertext-sized atoms filed as blobs are decrypted under the known
  sealing keys of their kind
- key negotiation pairs each registered private element with the
  negotiation elements of the other side (privates are an explicit
  registry: the adversary owns or stole them, it does not guess them out
  of atoms)
- both wrap keys are derived from each negotiation output, and from
  nothing else

A negotiation element is a 32-byte public element that an honest party
feeds to X25519 when it is handed a known term. Each is filed by the
message it came from:

- a deploy-package element is the go_sn_pb of a Tuple that
  DeployPackage.from_term accepts; the PSP's psp_receive_deploy exchanges
  its own private with it
- a certificate element is the psp_sn_pb of a Tuple that
  SevPlatformCert.from_term accepts; the owner's TrustedOwner.deploy_vm
  exchanges its go private with it

An element can be in both sets. The split rule files each Tuple once,
when it takes it apart, so the rule is decided from the trace alone and
live and rebuilt knowledge agree. Filing is decided before from_term:
a Tuple of the wrong arity, or whose field at the element's position is
not a new 32-byte Atom, is skipped without building the message, and
from_term is asked only about the rest.

Negotiation runs only across roles. Each registered private's own public
element is computed once, when it is registered, and a private p meets
an element e only when e is a deploy-package element and pub(p) a
certificate element (p plays the PSP), or e is a certificate element and
pub(p) a deploy-package element (p plays the owner). Each such pair is
exchanged exactly once, in first-seen order, also when it only becomes
eligible because pub(p) turns up in a message after p was registered.

Tamarin's DH theory lets the adversary exponentiate any known term, and
this rule is narrower, but it loses nothing. A shared secret matters only
as key material for a seal or a MAC that some party opens or checks, and
only honest parties open or check with X25519 outputs. Each such output
is X25519 of an honest private h with an element x it was handed: the PSP
exchanges its own private with deploy-package elements, the owner its go
private with certificate elements. pub(h) is filed under the other side:
every platform certificate is published, so a PSP's public is a
certificate element, and the owner's go public goes out in its deploy
package. The adversary computes that output either from h itself, which
only a stolen PSP private can be (the owner's go private never leaks),
paired with x, or from the private of x, a key it stole or minted (for
a forged certificate, for its own deploy, or to substitute), paired with
pub(h).
Either pair crosses the roles. This still holds when a replayed PSP
public is substituted for go_sn_pb: that element is then in both sets,
so the PSP's exchange of its own private with its own public is a
cross-role pair too. Any other exchange yields a value no honest party
computes, so it seals nothing and MACs nothing anyone checks.

The derive rule is narrowed the same way. sev.wrap_keys is the one
derivation site: it is the only caller of derive_wrap_key in the package
(tests/test_derivation.py checks the source for that), and this rule
derives through it too. Outside the closure it runs in
psp_receive_deploy and, through sev.seal_deploy, in
TrustedOwner.deploy_vm and the adversary's own deploy,
World.adversary_own_deploy; each hands it the X25519 output it has just
computed, which never goes on the bus. A wrap key derived from any other
atom (a digest, a tag, a public key, a fresh value, another wrap key)
therefore seals nothing and MACs nothing that any party opens or checks,
so no hit is lost. Each negotiation output is derived from exactly once,
even if the adversary observed the same bytes before it negotiated them.
Derivation outputs are never fed back in: the honest key schedule never
stacks derivations, so one layer is complete and keeps the closure
polynomial.

Trial decryption is narrowed the same way, by kind. A sealing key is of
one of two kinds, and a key of a kind is tried only on the blobs of that
kind, each filed by the message it came from:

- kek kind: the kek of each pair of wrap keys the derive rule outputs
  opens the blob_d of each Tuple that DeployPackage.from_term accepts;
  the kik is learned as an atom too, but only MACs, so it is no key
- tek kind: the tek of each Tuple that TransportKeys.from_term accepts
  opens the blob_p of each Tuple that SecretPackage.from_term accepts

The split rule files teks and both blob fields with the same pre-check as
a negotiation element, except that a blob field holds a ciphertext-sized
Atom where an element holds a 32-byte one.

This loses nothing. crypto.encrypt has two callers in the package, and
each puts what it seals in one field (tests/test_derivation.py checks
the source for both): sev.seal_deploy seals a TransportKeys term under
the kek, wrap_keys(ss)[0] and never the kik, into blob_d, and
sev.seal_secret seals under a TransportKeys' tek into blob_p. A kek never
goes on the bus, so the adversary knows one only by deriving it.
seal_secret has two callers, TrustedOwner.provision_vm and
World.adversary_own_deploy, and each seals under the tek of a
TransportKeys it has also sealed into a delivered blob_d, so a tek is
known only from opening that blob_d. The adversary's own deploy is always
opened: its go private is registered through the keygen leak, and it
pairs with the published certificate element of the platform it deploys
to. No party seals under any other key or into any other field, so no
hit is lost. A key observed in the clear before it is filed opens its
blobs only once it is filed, so a closure run once over a whole trace
learns the same terms as one that tries every key, though possibly in a
different order.

The closure is evaluated semi-naively: each round applies the rules only
to what is new since the rule last ran, so no rule ever repeats work, and
a rule with no new input returns at once. A term is deduplicated by one
set insertion, which hashes it once.

- A term is split or decoded once, in the round after it is learned.
- Key negotiation runs in a round only after a negotiation element was
  filed or a private registered, and skips every pair it has exchanged
  before.
- A wrap key is derived once from each negotiation output, in the round
  negotiation first computes it.
- Trial decryption runs per kind: new keys against all the kind's blobs
  and old keys against its new blobs, so each pair of a kind is tried
  once in the object's life, through crypto.decrypt, the one way from a
  blob to a plaintext term.

Encryption is perfect, as in the symbolic model: a blob opens under the
key that sealed it and under no other (Dolev-Yao; in Tamarin,
sdec(senc(m, k), k) = m is the only decryption equation). Fresh names are
atomic, as Tamarin's ~n is: never senc(m, k) and never h(m). Read
computationally, random bytes authenticate under a key, or equal a
digest, only with negligible probability. Messages are typed, so a blob
is only what its field says it is: the pairs of a key and a blob of
another kind are exactly those that cannot open, and no hit is lost by
skipping them. Which pairs are tried is decided from the messages alone,
and no record of which key sealed which blob is kept anywhere, so a view
built live and one rebuilt from the trace in a fresh process try the
same pairs. trials counts every pair of a known 32-byte atom and a known
ciphertext-sized atom, tried or skipped, whatever its kind.

Known atoms are kept by their bytes, in the one table that also ranks
them in first-seen order; the known set proper holds only Labels and
Tuples.

Within a round the rules run in that order. Each adds its results in the
first-seen order of its inputs (decryptions by blob, then by key in the
one order the keys of both kinds were filed in), so terms_list() order
depends only on what was learned and when analyze ran.

There is no round cap. Every analysis output is a strict sub-term, the
decoding or the decryption of a known term, each with a shorter encoding
than its source, or one of the 32-byte negotiation or derivation atoms.
Every term the closure can learn therefore encodes in no more bytes than
the longest observed term or a 32-byte atom. There are finitely many such
terms, each learned once, each pair of a private and an element is
exchanged once, and each negotiation output is derived from once, so the
closure reaches its fixpoint.

Most atoms the closure makes are pseudo-random: keys, negotiation and
derivation outputs, digests, signatures. Before decoding an atom, both the
split rule and derivable ask codec.may_decode, an exception-free check of
the outermost header, and skip the atom when it says decode must fail.
decode alone decides what parses: an atom the guard lets through but
decode rejects teaches nothing, and every atom that parses, whatever its
length, is decoded.

Derivability (synthesis) is goal-directed: a term is derivable when it is
known, is a Label (public vocabulary), is a Tuple of derivable parts, or
is an Atom carrying the encoding of something derivable or the digest of
a known term. Fresh atomic randomness is derivable only if it was
actually learned, which is exactly what the secrecy property asks about;
derivable(term, fresh=True) states that term is such a fresh name, so
the digest rule is skipped for it. The recursion stops because tuple
items and decodings are strictly smaller terms.

The digest rule deliberately under-approximates the adversary: it accepts
the digest of a known term but not of a term that is only derivable, such
as a Tuple of known atoms that was never observed whole. Enumerating the
derivable preimages is unbounded. No verdict rests on this gap today:
the secrecy checker asks only about fresh keys, which are no digest and
skip the rule, and World.adversary_digest records every digest the
adversary computes, and its preimage, as known. A property that asks
about the digest of a composed term must extend the rule first. Only a
32-byte atom can be a digest, and the index of digests of known terms is
built only when such an atom is asked about and no other rule derives
it. Every known term is a candidate preimage, so the index hashes each of
them once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import crypto
from ..codec import Atom, Label, MalformedEncoding, Term, Tuple, decode, encode, may_decode
from ..crypto import DecryptionFailure, InvalidPublicElement
from ..sev import DeployPackage, SecretPackage, SevPlatformCert, TransportKeys, wrap_keys
from .events import ADVERSARY_VISIBLE, Event

# The shortest term encoding: a tag byte and a 4-byte length.
_MIN_ENCODING = len(encode(Atom(b"")))
_MIN_CIPHERTEXT = crypto.NONCE_LEN + 16 + _MIN_ENCODING

#: The closure's work counters, attributes of AdversaryKnowledge.
CLOSURE_COUNTERS = ("rounds", "kx_pairs", "trials", "hits")


@dataclass
class Compromises:
    """What the adversary has compromised, read off adversary events.

    Keys are hex, as traces store them. learn is the one compromise rule,
    and AdversaryKnowledge.learn, which hands it each compromise event,
    its one caller: every record is a view's own.
    """

    intel: bool = False
    amd: bool = False
    qe_ppids: set[str] = field(default_factory=set)
    psp_ids: set[str] = field(default_factory=set)

    def learn(self, event: Event) -> None:
        """The one rule from a compromise event to compromise state."""
        action = event.get("action")
        if action == "compromise_intel_rot":
            self.intel = True
        elif action == "compromise_amd_rot":
            self.amd = True
        elif action == "compromise_sgx_qe":
            self.qe_ppids.add(event.text("ppid"))
        elif action == "compromise_sev_psp":
            self.psp_ids.add(event.text("psp"))


def _position(message: type, name: str) -> tuple[int, int]:
    """(arity of message's term form, index of field name among its items)."""
    head = len(message._head)
    fields = [field for field, _ in message._layout]
    return head + len(fields), head + fields.index(name)


# The length checks of the fields the split rule files: a key or element
# field holds 32 bytes, a blob field a ciphertext.
_KEY_SIZED = crypto.KEY_LEN.__eq__
_BLOB_SIZED = _MIN_CIPHERTEXT.__le__


class _Kind:
    """The sealing keys of one kind, and the blobs only they can open.

    Keys go to keys in the order they are filed, and take their place in
    index, the one filing order both kinds share; blobs go to blobs. A
    key is 32 bytes long and a blob longer, so one set holds what is
    filed of both.
    """

    __slots__ = ("index", "filed", "keys", "blobs", "tried_keys", "tried_blobs")

    def __init__(self, index: dict[bytes, int]) -> None:
        self.index = index
        self.filed: set[bytes] = set()
        self.keys: list[bytes] = []
        self.blobs: list[bytes] = []
        # how many keys and blobs trial decryption has covered
        self.tried_keys = 0
        self.tried_blobs = 0

    def __contains__(self, value: bytes) -> bool:
        return value in self.filed

    def file(self, value: bytes) -> None:
        """File a 32-byte value as a key, a longer one as a blob."""
        if value in self.filed:
            return
        self.filed.add(value)
        if len(value) == crypto.KEY_LEN:
            self.index.setdefault(value, len(self.index))
            self.keys.append(value)
        else:
            self.blobs.append(value)

    def untried(self) -> bool:
        return self.tried_keys < len(self.keys) or self.tried_blobs < len(self.blobs)


class AdversaryKnowledge:
    """What the adversary knows, closed under analysis by analyze().

    It is the one adversary view: compromised is its Compromises record,
    which learn feeds too, and every judgement reads its escapes there.

    The counters rounds, kx_pairs, trials and hits count the closure's
    work: rounds run, negotiations attempted, (blob, key) pairs covered by
    trial decryption and the ones that opened to a term. scanned counts
    the pairs tried, per kind: at fixpoint, summed over both kinds, the
    kind's keys times its blobs, the same in a live view and in one
    rebuilt from its trace. None of them is ever written to a trace.
    """

    def __init__(self) -> None:
        self.compromised = Compromises()
        # the known Labels and Tuples; known atoms are the keys of _rank
        self._known: set[Term] = set()
        self._terms: list[Term] = []
        # known atom payload -> its rank in first-seen order
        self._rank: dict[bytes, int] = {}
        # registered private -> its own public element, in registration order
        self.dh_privates: dict[bytes, bytes] = {}
        # delta state: what each rule has not seen yet
        self._split = 0
        # the numbers of known 32-byte and ciphertext-sized atoms, whose
        # product trial decryption covers
        self._key_atoms = 0
        self._blob_atoms = 0
        # the sealing keys of each kind and the blobs they open, and each
        # key's place in the one order both kinds file keys in
        self._key_index: dict[bytes, int] = {}
        self._kek = _Kind(self._key_index)
        self._tek = _Kind(self._key_index)
        self._kinds = (self._kek, self._tek)
        # negotiation elements, filed by the message they came from; the
        # pairs negotiation has exchanged, and whether an element or a
        # private has arrived since it last ran
        self._deploy_elements: set[bytes] = set()
        self._cert_elements: set[bytes] = set()
        self._kx_tried: set[tuple[bytes, bytes]] = set()
        self._kx_stale = False
        # the fields the split rule files, by the arity of their message:
        # (message, the field's index, its length check, where it is filed)
        self._filing: dict[int, list] = {}
        for message, name, sized, filed in (
            (DeployPackage, "go_sn_pb", _KEY_SIZED, self._deploy_elements),
            (SevPlatformCert, "psp_sn_pb", _KEY_SIZED, self._cert_elements),
            (TransportKeys, "tek", _KEY_SIZED, self._tek),
            (DeployPackage, "blob_d", _BLOB_SIZED, self._kek),
            (SecretPackage, "blob_p", _BLOB_SIZED, self._tek),
        ):
            arity, at = _position(message, name)
            self._filing.setdefault(arity, []).append((message, at, sized, filed))
        # negotiation outputs: all of them, and those not derived from yet
        self._kx_outputs: set[bytes] = set()
        self._new_outputs: list[bytes] = []
        self._digests: set[bytes] = set()
        self._digested = 0
        self.rounds = 0
        self.kx_pairs = 0
        self.trials = 0
        self.hits = 0
        self.scanned = 0

    def learn(self, event: Event) -> None:
        """The one rule from a send or adversary event to the view.

        In the package only feed calls it, and feed has already tested
        the event's kind. learn reads the event's fields once, and only
        the term, leak, leak_kind and action fields: an event whose action
        is a str naming a compromise goes to compromised.learn, and a
        leaked private key is registered before the event's term is
        observed. A leak or term is decoded only when the field is there.
        """
        fields = event.fields()
        action = fields.get("action")
        if action.__class__ is str and action.startswith("compromise_"):
            self.compromised.learn(event)
        if fields.get("leak") is not None:
            leak = event.data("leak")
            if fields.get("leak_kind") == "dh_private":
                self.add_private_dh(leak)
            else:
                self.add_private_sig(leak)
        if fields.get("term") is not None:
            self.observe(event.term("term"))

    def observe(self, term: Term) -> None:
        """Record a term the adversary saw in the clear."""
        self._add(term)

    def add_private_dh(self, private: bytes) -> None:
        """Register a key-negotiation private element (owned or stolen)."""
        if private not in self.dh_privates:
            try:
                public = crypto.kx_public(private)
            except ValueError:
                public = b""  # no X25519 private: it negotiates nothing
            self.dh_privates[private] = public
            self._kx_stale = True
        self._add(Atom(private))

    def add_private_sig(self, private: bytes) -> None:
        """Register a signing private key (owned or stolen)."""
        self._add(Atom(private))

    def _add(self, term: Term) -> None:
        if term.__class__ is not Atom:
            known = self._known
            size = len(known)
            known.add(term)
            if len(known) != size:
                self._terms.append(term)
            return
        value = term.value
        if value in self._rank:
            return
        self._terms.append(term)
        self._rank[value] = len(self._rank)
        if len(value) == 32:
            self._key_atoms += 1
        elif len(value) >= _MIN_CIPHERTEXT:
            self._blob_atoms += 1

    def knows(self, term: Term) -> bool:
        if term.__class__ is Atom:
            return term.value in self._rank
        return term in self._known

    def terms_list(self) -> list:
        """All known terms in first-seen order (deterministic)."""
        return list(self._terms)

    def _pending(self) -> bool:
        return bool(
            self._split < len(self._terms)
            or self._kx_stale
            or self._new_outputs
            or self._kek.untried()
            or self._tek.untried()
        )

    def analyze(self) -> None:
        """Run the analysis closure to its fixpoint."""
        while self._pending():
            self.rounds += 1
            self._split_new_terms()
            self._negotiate()
            self._derive()
            self._trial_decrypt()

    def _split_new_terms(self) -> None:
        end = len(self._terms)
        for term in self._terms[self._split : end]:
            if isinstance(term, Tuple):
                items = term.items
                for item in items:
                    self._add(item)
                for message, at, sized, filed in self._filing.get(len(items), ()):
                    if items[at].__class__ is not Atom:
                        continue
                    value = items[at].value
                    if not sized(len(value)) or value in filed:
                        continue
                    try:
                        message.from_term(term)
                    except ValueError:
                        continue
                    if filed.__class__ is _Kind:
                        filed.file(value)
                    else:
                        filed.add(value)
                        self._kx_stale = True
            elif isinstance(term, Atom) and may_decode(term.value):
                try:
                    inner = decode(term.value)
                except MalformedEncoding:
                    continue
                self._add(inner)
        self._split = end

    def _peers(self, public: bytes) -> set[bytes]:
        """The negotiation elements a private with this own public element meets.

        It plays the PSP against deploy-package elements when public is a
        certificate element, and the owner against certificate elements
        when public is a deploy-package element.
        """
        peers = self._deploy_elements if public in self._cert_elements else set()
        if public in self._deploy_elements:
            peers = peers | self._cert_elements
        return peers

    def _negotiate(self) -> None:
        if not self._kx_stale:
            return
        self._kx_stale = False
        rank = self._rank.__getitem__
        tried = self._kx_tried
        for private, public in self.dh_privates.items():
            for pub in sorted(self._peers(public), key=rank):
                if (pub, private) in tried:
                    continue
                tried.add((pub, private))
                self.kx_pairs += 1
                try:
                    ss = crypto.shared_secret(pub, private)
                except InvalidPublicElement:
                    continue
                self._add(Atom(ss))
                if ss not in self._kx_outputs:
                    self._kx_outputs.add(ss)
                    self._new_outputs.append(ss)

    def _derive(self) -> None:
        if not self._new_outputs:
            return
        outputs = sorted(self._new_outputs, key=self._rank.__getitem__)
        self._new_outputs = []
        for value in outputs:
            kek, kik = wrap_keys(value)
            self._add(Atom(kek))
            self._add(Atom(kik))
            self._kek.file(kek)

    def _trial_decrypt(self) -> None:
        """Per kind, new keys x all its blobs and old keys x its new blobs.

        Each pair is opened through crypto.decrypt, in the first-seen
        order of its blob, each blob's keys in the one order both kinds
        file keys in, and what opens to a term is added. trials counts
        every known 32-byte atom against every known ciphertext-sized atom
        all the same.
        """
        self.trials = self._key_atoms * self._blob_atoms
        if not (self._kek.untried() or self._tek.untried()):
            return
        rank, index = self._rank, self._key_index
        # (blob's rank, key's index) -> (blob, key); a pair filed under both
        # kinds is opened once
        pairs = {}
        for kind in self._kinds:
            keys, blobs = kind.keys, kind.blobs
            old_keys, old_blobs = kind.tried_keys, kind.tried_blobs
            kind.tried_keys, kind.tried_blobs = len(keys), len(blobs)
            for k in range(old_keys if old_blobs == len(blobs) else 0, len(keys)):
                key = keys[k]
                start = 0 if k >= old_keys else old_blobs
                self.scanned += len(blobs) - start
                for blob in blobs[start:]:
                    pairs[rank[blob], index[key]] = (blob, key)
        for _, (blob, key) in sorted(pairs.items()):
            try:
                plain = crypto.decrypt(blob, key)
            except DecryptionFailure:
                continue
            self.hits += 1
            self._add(plain)

    def _digest_index(self) -> set:
        for term in self._terms[self._digested :]:
            self._digests.add(crypto.digest(term))
        self._digested = len(self._terms)
        return self._digests

    def derivable(self, term: Term, fresh: bool = False) -> bool:
        """Goal-directed synthesis check against analyzed knowledge.

        fresh says term is a fresh name, such as a key crypto.fresh_key
        drew: an Atom then skips the digest rule, since no fresh name is
        a digest. A Tuple's parts are checked before the whole, so a
        Tuple of derivable parts is never hashed; the known set is asked
        only when a part is not derivable, which keeps an observed Tuple
        derivable before analyze takes it apart.
        """
        if isinstance(term, Label):
            return True
        if isinstance(term, Tuple):
            return all(self.derivable(i) for i in term.items) or term in self._known
        if self.knows(term):
            return True
        if isinstance(term, Atom):
            value = term.value
            if may_decode(value):
                try:
                    inner = decode(value)
                except MalformedEncoding:
                    pass
                else:
                    if self.derivable(inner):
                        return True
            return (
                not fresh and len(value) == crypto.DIGEST_LEN and value in self._digest_index()
            )
        return False


def feed(events, view: AdversaryKnowledge) -> None:
    """The one loop from trace events to the adversary's view.

    Hands each send and adversary event, in order, to view.learn; this is
    the one place an event's kind is tested on the way. The World's view
    and rebuild_knowledge both run it.
    """
    for ev in events:
        if ev.kind in ADVERSARY_VISIBLE:
            view.learn(ev)
