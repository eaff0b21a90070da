"""Protocol message terms: pinned encodings and total, shape-checked parsing.

Each message class has a fixed term layout. These tests pin the exact
encodings one honest run sends and check that from_term raises
ValueError for every shape that is not that layout: a non-Tuple, one
item too many or too few, a Label or Tuple where an atom belongs, a
wrong or missing tag, and a malformed nested message.
"""

import hashlib

import pytest

from vmquote.codec import (
    TAG_SGX_PLATFORM_CERT,
    TAG_SGX_QUOTE,
    TAG_TRANSPORT_KEYS,
    Atom,
    Label,
    Tuple,
    encode,
)
from vmquote.guest import ReportRequest
from vmquote.harness import Pipeline, World
from vmquote.relying_party import EvidenceBundle
from vmquote.sev import (
    DeployPackage,
    Measurement,
    MeasurementPackage,
    SecretPackage,
    SevPlatformCert,
    TransportKeys,
)
from vmquote.sgx import Quote, SgxPlatformCert

# Per class: the tag Label at item 0 (or None), the items that must be
# Atoms, and the items that hold a nested message of the given class.
# Items not listed may be any term.
LAYOUTS = {
    SevPlatformCert: (None, (0, 1), {}),
    DeployPackage: (None, (0, 1, 2, 3), {}),
    TransportKeys: (TAG_TRANSPORT_KEYS, (1, 2), {}),
    Measurement: (None, (0, 1, 2, 3), {}),
    MeasurementPackage: (None, (1,), {0: Measurement}),
    SecretPackage: (None, (0, 1), {}),
    ReportRequest: (None, (1,), {}),
    SgxPlatformCert: (TAG_SGX_PLATFORM_CERT, (1, 2, 3), {}),
    Quote: (TAG_SGX_QUOTE, (2, 4), {}),
    EvidenceBundle: (None, (2,), {0: Quote, 1: SgxPlatformCert, 3: Measurement}),
}

# sha256 of each message's canonical encoding in the honest run at seed 7.
ENCODING_DIGESTS = {
    SevPlatformCert: "3dc5b0ef4fbb44524f6a90fdcd47e93096702e2a050725c036ecb74908a7e4a1",
    DeployPackage: "362476b44edddc601c5e539c588dc009bebdb7988a156cf6f9215334e9443f5c",
    TransportKeys: "7b8f09b033af2f3b3ae8f1a82434c28018321c17a8f6d6469b9df20925bd2f17",
    Measurement: "db26863612c603b3fdc5928ec9f0e622ec10dd60911492845561d93bc407632b",
    MeasurementPackage: "5ca4525b08018c4c5588afe4b993b9d7719aa1511b2668d8f8d13032065dfec9",
    SecretPackage: "6e3b211c51656b72d7c2bf68a747257e13bf35bcd8294054db74b5eb49773395",
    ReportRequest: "472ab514074b868063c2cae5e10748038b856edc8821508e0e533d7667d12ba8",
    SgxPlatformCert: "28d46ae0ffadca2f839223b48dc970ab6e571d44c782517b771c23c1bc05463a",
    Quote: "8769b77a534e667bb1041970578dd9b2bc74fe0591eda5dc931124d350f3e156",
    EvidenceBundle: "016fc8195994a7b133db6ea2ab2f2b24adf63c680b598703503115655e83a33c",
}


def _honest_messages() -> dict:
    """One message of each class, as the honest run at seed 7 sends it.

    The transport keys travel only wrapped in blob_d, so they are read
    from sev0's session.
    """
    world = World(seed=7)
    pipe = Pipeline(world)
    sent = {}
    while pipe.advance():
        if pipe.in_flight is not None:
            sent[pipe.in_flight_slot] = pipe.in_flight
    assert pipe.verdict is not None and pipe.verdict.accept
    mp = MeasurementPackage.from_term(sent["measurement"])
    bundle = EvidenceBundle.from_term(sent["bundle"])
    session = world.sev_platforms[0].session
    return {
        SevPlatformCert: world.sev_platforms[0].cert,
        DeployPackage: DeployPackage.from_term(sent["deploy"]),
        TransportKeys: session.keys,
        Measurement: mp.msr,
        MeasurementPackage: mp,
        SecretPackage: SecretPackage.from_term(sent["secret"]),
        ReportRequest: ReportRequest.from_term(sent["report_request"]),
        SgxPlatformCert: world.sgx_platforms[0].cert,
        Quote: bundle.quote,
        EvidenceBundle: bundle,
    }


HONEST = _honest_messages()


def _replaced(term: Tuple, idx: int, item) -> Tuple:
    items = list(term.items)
    items[idx] = item
    return Tuple(items)


def malformed(cls, term: Tuple):
    """(description, term) pairs that cls.from_term must reject."""
    tag, atom_slots, nested = LAYOUTS[cls]
    yield "atom", Atom(encode(term))
    yield "label", Label("x")
    yield "one more item", Tuple(list(term.items) + [Atom(b"")])
    yield "one item fewer", Tuple(term.items[:-1])
    for idx in atom_slots:
        yield f"label at {idx}", _replaced(term, idx, Label("x"))
        yield f"tuple at {idx}", _replaced(term, idx, Tuple([term.items[idx]]))
    if tag is not None:
        yield "wrong tag", _replaced(term, 0, Label(tag + "x"))
        yield "tag as atom", _replaced(term, 0, Atom(tag.encode()))
        yield "missing tag", Tuple(term.items[1:])
        yield "missing tag, same arity", Tuple(list(term.items[1:]) + [Atom(b"")])
    for idx, inner in nested.items():
        for what, bad in malformed(inner, term.items[idx]):
            yield f"{inner.__name__} at {idx}: {what}", _replaced(term, idx, bad)


@pytest.mark.parametrize("cls", list(LAYOUTS), ids=lambda c: c.__name__)
class TestMessageTerms:
    def test_round_trip(self, cls):
        msg = HONEST[cls]
        assert type(msg) is cls
        assert cls.from_term(msg.to_term()) == msg

    def test_encoding_pinned(self, cls):
        digest = hashlib.sha256(encode(HONEST[cls].to_term())).hexdigest()
        assert digest == ENCODING_DIGESTS[cls]

    def test_rejects_every_malformed_shape(self, cls):
        cases = list(malformed(cls, HONEST[cls].to_term()))
        assert len(cases) >= 6
        for what, term in cases:
            with pytest.raises(ValueError):
                cls.from_term(term)
                pytest.fail(f"{cls.__name__} accepted {what}")


class TestAnyTermSlots:
    def test_quote_carries_any_measurement_and_data(self):
        quote = HONEST[Quote]
        for value in (Label("enclave"), Tuple([Atom(b"a"), Label("b")]), Atom(b"")):
            term = _replaced(_replaced(quote.to_term(), 1, value), 3, value)
            parsed = Quote.from_term(term)
            assert parsed.msr == value and parsed.data == value
            assert parsed.to_term() == term

    def test_bundle_carries_any_vmdata(self):
        bundle_term = HONEST[EvidenceBundle].to_term()
        for value in (Label("report"), Atom(b""), Tuple([])):
            parsed = EvidenceBundle.from_term(_replaced(bundle_term, 4, value))
            assert parsed.vmdata == value
