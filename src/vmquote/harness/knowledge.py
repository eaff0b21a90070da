"""Explicit Dolev-Yao adversary knowledge.

The adversary sees every term on the network plus the public bulletin,
and on top of that whatever private keys compromises hand it. Knowledge
grows by an analysis closure run to fixpoint:

- tuples are taken apart
- atoms whose payload parses as a term are decoded
- ciphertext-sized atoms are decrypted under the known sealing keys
  that can open them
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

Trial decryption is narrowed the same way: a blob is tried only under a
sealing key, a known 32-byte atom that some party can have sealed under.
A sealing key is a kek, a TransportKeys tek or a minted 32-byte value,
each filed as the closure learns it:

- the kek of each pair of wrap keys the derive rule outputs; the kik is
  learned as an atom too, but only MACs, so it is no sealing key
- the tek of each Tuple that TransportKeys.from_term accepts, filed by
  the split rule with the same pre-check as a negotiation element
- each 32-byte fresh value the adversary minted (a fresh_value event,
  live or in a trace), filed when it is first learned

This loses nothing. crypto.encrypt has two callers in the package
(tests/test_derivation.py checks the source for that): sev.seal_deploy
seals under the kek, wrap_keys(ss)[0], and never under the kik, and
sev.seal_secret under a TransportKeys' tek. A kek never goes on the bus,
so the adversary knows one only by deriving it. The owner's tek leaves
the enclave only inside the TransportKeys term sealed in blob_d, and the
adversary's own tek is a fresh value it minted. No party seals under any
other key, so no hit is lost. A key observed in the clear before it is
filed opens its blobs only once it is filed, so a closure run once over
a whole trace learns the same terms as one that tries every key, though
possibly in a different order.

The closure is evaluated semi-naively: each round applies the rules only
to what is new since the rule last ran, so no rule ever repeats work.

- A term is split or decoded once, in the round after it is learned.
- Key negotiation runs in a round only after a negotiation element was
  filed or a private registered, and skips every pair it has exchanged
  before.
- A wrap key is derived once from each negotiation output, in the round
  negotiation first computes it.
- Trial decryption covers new sealing keys against every blob and old
  ones against new blobs, so each (blob, sealing key) pair is covered once
  in the object's life. Each key's GCM tag is checked against its range of
  blobs of unknown origin in one scan, and only the pairs that
  authenticate are opened, through crypto.decrypt.

Encryption is perfect, as in the symbolic model: a blob opens under the
key that sealed it and under no other (Dolev-Yao; in Tamarin,
sdec(senc(m, k), k) = m is the only decryption equation). Fresh names are
atomic, as Tamarin's ~n is: never senc(m, k) and never h(m). Read
computationally, random bytes authenticate under a key, or equal a
digest, only with negligible probability. When a blob is learned, it is
classified once:

- a fresh value the adversary minted (a fresh_value event, live or in a
  trace) is no ciphertext and is never paired
- a ciphertext crypto.encrypt made is paired only with the key that
  sealed it, once that key is filed as a sealing key
- a signature crypto.sign made is no ciphertext and is never paired
- any other blob (evicted from crypto's bounded provenance map, tampered
  with, or read from a trace in a fresh process) is scanned against every
  sealing key

The pairs skipped are exactly those that cannot open, so no hit is lost.
The registered pairs are still opened through crypto.decrypt, which
checks the tag. Each blob is classified once, so a later eviction changes
nothing. Whether the map holds a blob or not, the closure therefore
learns the same terms in the same order. Only the scanning work differs.
trials counts every pair of a known 32-byte atom and a blob, tried or
skipped, whatever the key or the blob's class.

Known atoms are kept by their bytes, in the one table that also ranks
them in first-seen order; the known set proper holds only Labels and
Tuples.

Within a round the rules run in that order. Each adds its results in the
first-seen order of its inputs (decryptions by blob, then by key in the
order the keys were filed), so terms_list() order depends only on what
was learned and when analyze ran.

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
from ..sev import DeployPackage, SevPlatformCert, TransportKeys, wrap_keys
from .events import ADVERSARY_VISIBLE, FRESH_VALUE, KIND_ADVERSARY, Event, Trace

# The shortest term encoding: a tag byte and a 4-byte length.
_MIN_ENCODING = len(encode(Atom(b"")))
_MIN_CIPHERTEXT = crypto.NONCE_LEN + 16 + _MIN_ENCODING

#: The closure's work counters, attributes of AdversaryKnowledge.
CLOSURE_COUNTERS = ("rounds", "kx_pairs", "trials", "hits")


@dataclass
class Compromises:
    """What the adversary has compromised, read off adversary events.

    Keys are hex, as traces store them. learn is the one compromise rule:
    AdversaryKnowledge.learn hands it each compromise of the view's own
    record, and from_trace feeds a bare record a whole trace.
    """

    intel: bool = False
    amd: bool = False
    qe_ppids: set[str] = field(default_factory=set)
    psp_ids: set[str] = field(default_factory=set)

    def learn(self, event: Event) -> None:
        """The one rule from a trace event to compromise state."""
        if event.kind != KIND_ADVERSARY:
            return
        action = event.get("action")
        if action == "compromise_intel_rot":
            self.intel = True
        elif action == "compromise_amd_rot":
            self.amd = True
        elif action == "compromise_sgx_qe":
            self.qe_ppids.add(event.text("ppid"))
        elif action == "compromise_sev_psp":
            self.psp_ids.add(event.text("psp"))

    @staticmethod
    def from_trace(trace: Trace) -> Compromises:
        """The record the trace's events show, fed through properties.feed."""
        from .properties import feed  # properties imports this module

        record = Compromises()
        feed(trace.events, record)
        return record


def _position(message: type, name: str) -> tuple[int, int]:
    """(arity of message's term form, index of field name among its items)."""
    head = len(message._head)
    fields = [field for field, _ in message._layout]
    return head + len(fields), head + fields.index(name)


class AdversaryKnowledge:
    """What the adversary knows, closed under analysis by analyze().

    It is the one adversary view: compromised is its Compromises record,
    which learn feeds too, and a judgement given the view reads it.

    The counters rounds, kx_pairs, trials and hits count the closure's
    work: rounds run, negotiations attempted, (blob, key) pairs covered by
    trial decryption and the ones that opened to a term. scanned counts
    the covered pairs whose tag crypto.scan_tags checked, which are those
    of a sealing key and a blob with no provenance; when no blob has any,
    at fixpoint it is the number of sealing keys times the number of
    blobs the trace does not show as fresh. None of them is ever written
    to a trace.
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
        # the number of known 32-byte atoms, each a key trial decryption
        # covers, and the sealing keys among them in the order they were
        # filed, each mapped to its index there
        self._key_atoms = 0
        self._keys: list[bytes] = []
        self._key_index: dict[bytes, int] = {}
        # negotiation elements and transport keys, filed by the message
        # they came from, with the field each message's receiver uses as
        # key material: the elements it feeds to X25519, the tek it opens
        # the secret package under; the pairs negotiation has exchanged,
        # and whether an element or a private has arrived since it last ran
        self._deploy_elements: set[bytes] = set()
        self._cert_elements: set[bytes] = set()
        self._filing = (
            (DeployPackage, *_position(DeployPackage, "go_sn_pb"), self._deploy_elements),
            (SevPlatformCert, *_position(SevPlatformCert, "psp_sn_pb"), self._cert_elements),
            (TransportKeys, *_position(TransportKeys, "tek"), self._key_index),
        )
        self._kx_tried: set[tuple[bytes, bytes]] = set()
        self._kx_stale = False
        # negotiation outputs: all of them, and those not derived from yet
        self._kx_outputs: set[bytes] = set()
        self._new_outputs: list[bytes] = []
        # ciphertext-sized atoms, and their indices filed by provenance:
        # under the key that sealed them, or (split once into nonce and
        # body) among the blobs of unknown origin
        self._blobs: list[bytes] = []
        self._sealed: dict[bytes, list[int]] = {}
        self._new_sealed: list[tuple[int, bytes]] = []
        self._opaque: list[tuple[bytes, bytes]] = []
        self._opaque_at: list[int] = []
        # true while learn observes a fresh_value event's term; a flag, not
        # an argument, so that observe stays the one way in for a seen term
        self._minting = False
        self._tried_keys = 0
        self._tried_blobs = 0
        self._tried_opaque = 0
        self._digests: set[bytes] = set()
        self._digested = 0
        self.rounds = 0
        self.kx_pairs = 0
        self.trials = 0
        self.hits = 0
        self.scanned = 0

    def learn(self, event: Event) -> None:
        """The one rule from a trace event to the adversary's view.

        In the package only properties.feed calls it: the World's view,
        when read, catches up with the events recorded since the last
        read, and rebuild_knowledge feeds every event of a trace, so the
        two views agree by construction. Only send and adversary events
        count, and of them only the term, leak, leak_kind and action
        fields: an adversary event whose action is a str naming a
        compromise goes to compromised.learn, and a leaked private key is
        registered before the event's term is observed. The fresh_value
        action's term is a fresh name: a fresh blob is filed like a
        signature, never trial-decrypted, and a fresh 32-byte value as a
        sealing key.
        """
        kind = event.kind
        if kind not in ADVERSARY_VISIBLE:
            return
        action = event.get("action")
        if kind == KIND_ADVERSARY and action.__class__ is str and action.startswith("compromise_"):
            self.compromised.learn(event)
        leak = event.data("leak")
        if leak is not None:
            if event.get("leak_kind") == "dh_private":
                self.add_private_dh(leak)
            else:
                self.add_private_sig(leak)
        term = event.term("term")
        if term is not None:
            self._minting = action == FRESH_VALUE
            self.observe(term)
            self._minting = False

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
            if term not in self._known:
                self._known.add(term)
                self._terms.append(term)
            return
        value = term.value
        if value in self._rank:
            return
        self._terms.append(term)
        self._rank[value] = len(self._rank)
        if len(value) == 32:
            self._key_atoms += 1
            if self._minting:
                self._file_key(value)
        elif len(value) >= _MIN_CIPHERTEXT:
            self._file_blob(value)

    def _file_key(self, value: bytes) -> None:
        """File a sealing key: one some party can have sealed a blob under."""
        if value not in self._key_index:
            self._key_index[value] = len(self._keys)
            self._keys.append(value)

    def _file_blob(self, value: bytes) -> None:
        b = len(self._blobs)
        self._blobs.append(value)
        sealer = crypto.NOT_SEALED if self._minting else crypto.provenance(value)
        if sealer is None:
            n = crypto.NONCE_LEN
            self._opaque.append((value[:n], value[n:]))
            self._opaque_at.append(b)
        elif sealer != crypto.NOT_SEALED:
            self._sealed.setdefault(sealer, []).append(b)
            self._new_sealed.append((b, sealer))

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
            or self._tried_keys < len(self._keys)
            or self._tried_blobs < len(self._blobs)
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
                for message, arity, at, filed in self._filing:
                    if len(items) != arity or items[at].__class__ is not Atom:
                        continue
                    value = items[at].value
                    if len(value) != crypto.KEY_LEN or value in filed:
                        continue
                    try:
                        message.from_term(term)
                    except ValueError:
                        continue
                    if filed is self._key_index:
                        self._file_key(value)
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
        outputs = sorted(self._new_outputs, key=self._rank.__getitem__)
        self._new_outputs = []
        for value in outputs:
            kek, kik = wrap_keys(value)
            self._add(Atom(kek))
            self._add(Atom(kik))
            self._file_key(kek)

    def _trial_decrypt(self) -> None:
        """New sealing keys x all blobs, old sealing keys x new blobs.

        A registered ciphertext is paired with the key that sealed it alone,
        once that key is filed. Each sealing key's tag is checked against
        its range of blobs of unknown origin in one crypto.scan_tags call.
        The pairs found are then opened through crypto.decrypt blob by
        blob, each blob's keys in the order they were filed, and what opens
        to a term is added. trials counts every known 32-byte atom against
        every blob all the same.
        """
        keys, blobs, opaque = self._keys, self._blobs, self._opaque
        old_keys, old_opaque = self._tried_keys, self._tried_opaque
        self._tried_keys, self._tried_blobs = len(keys), len(blobs)
        self._tried_opaque = len(opaque)
        # each pair of a known 32-byte atom and a blob is covered once
        self.trials = self._key_atoms * len(blobs)
        tagged = [(b, k) for k in range(old_keys, len(keys)) for b in self._sealed.get(keys[k], ())]
        for b, sealer in self._new_sealed:
            k = self._key_index.get(sealer, old_keys)
            if k < old_keys:
                tagged.append((b, k))
        self._new_sealed = []
        at = self._opaque_at
        for k in range(old_keys if old_opaque == len(opaque) else 0, len(keys)):
            start = 0 if k >= old_keys else old_opaque
            if start < len(opaque):
                self.scanned += len(opaque) - start
                for i in crypto.scan_tags(keys[k], opaque, start):
                    tagged.append((at[i], k))
        tagged.sort()
        for b, k in tagged:
            try:
                plain = crypto.decrypt(blobs[b], keys[k])
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
        a digest.
        """
        if isinstance(term, Label):
            return True
        if self.knows(term):
            return True
        if isinstance(term, Tuple):
            return all(self.derivable(i) for i in term.items)
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
