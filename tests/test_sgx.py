"""Abstract SGX platform: certification, local reports, quotes."""

import pytest

from vmquote.codec import Atom, Label, Tuple
from vmquote.crypto import Rng, sig_keygen
from vmquote.sgx import (
    OWNER_ENCLAVE_MEASUREMENT,
    PPID_LEN,
    EnclaveNotLoaded,
    ForeignReport,
    Quote,
    SgxPlatformCert,
    cert_payload,
    ereport,
    load_enclave,
    new_sgx_platform,
    qe_generate_quote,
    quote_check_failure,
)

ENCLAVE_A = Label("enclave_a_code")
SOME_DATA = Tuple([Label("report_data"), Atom(b"\x2a")])


@pytest.fixture
def setup():
    rng = Rng(31)
    rot = sig_keygen(rng)
    plat = new_sgx_platform(rng, rot)
    return rng, rot, plat


class TestCertification:
    def test_cert_binds_key_and_ppid(self, setup):
        rng, rot, plat = setup
        assert plat.cert.qek_pb == plat.qek.public
        assert plat.cert.ppid == plat.ppid
        assert len(plat.ppid) == PPID_LEN

    def test_cert_verifies_under_root(self, setup):
        rng, rot, plat = setup
        from vmquote.crypto import verify

        assert verify(cert_payload(plat.cert.qek_pb, plat.cert.ppid), plat.cert.sig_ir, rot.public)

    def test_cert_fails_under_unrelated_key(self, setup):
        rng, rot, plat = setup
        from vmquote.crypto import verify

        other = sig_keygen(rng)
        payload = cert_payload(plat.cert.qek_pb, plat.cert.ppid)
        assert not verify(payload, plat.cert.sig_ir, other.public)

    def test_cert_term_round_trip(self, setup):
        _, _, plat = setup
        assert SgxPlatformCert.from_term(plat.cert.to_term()) == plat.cert


class TestEreport:
    def test_loaded_enclave_reports(self, setup):
        _, _, plat = setup
        load_enclave(plat, ENCLAVE_A)
        rep = ereport(plat, ENCLAVE_A, SOME_DATA)
        assert rep.enclave_msr == ENCLAVE_A
        assert rep.report_data == SOME_DATA

    def test_unloaded_enclave_raises(self, setup):
        _, _, plat = setup
        with pytest.raises(EnclaveNotLoaded):
            ereport(plat, ENCLAVE_A, SOME_DATA)

    def test_repeat_reports_agree_on_content(self, setup):
        _, _, plat = setup
        load_enclave(plat, ENCLAVE_A)
        r1 = ereport(plat, ENCLAVE_A, SOME_DATA)
        r2 = ereport(plat, ENCLAVE_A, SOME_DATA)
        assert (r1.enclave_msr, r1.report_data) == (r2.enclave_msr, r2.report_data)


class TestQuoting:
    def test_honest_quote_verifies(self, setup):
        rng, rot, plat = setup
        load_enclave(plat, ENCLAVE_A)
        quote = qe_generate_quote(plat, ereport(plat, ENCLAVE_A, SOME_DATA))
        assert quote_check_failure(ENCLAVE_A, SOME_DATA, quote, plat.cert, rot.public) is None

    def test_foreign_report_refused(self, setup):
        rng, rot, plat = setup
        other = new_sgx_platform(rng, rot)
        load_enclave(other, ENCLAVE_A)
        rep = ereport(other, ENCLAVE_A, SOME_DATA)
        with pytest.raises(ForeignReport):
            qe_generate_quote(plat, rep)

    def test_unissued_report_refused(self, setup):
        rng, _, plat = setup
        from vmquote.sgx import LocalReport

        fake = LocalReport(enclave_msr=ENCLAVE_A, report_data=SOME_DATA)
        with pytest.raises(ForeignReport):
            qe_generate_quote(plat, fake)

    @pytest.mark.parametrize(
        "issued_msr, field, value",
        (
            (OWNER_ENCLAVE_MEASUREMENT, "report_data", Tuple([Label("attacker"), Atom(b"\x2b")])),
            (ENCLAVE_A, "enclave_msr", OWNER_ENCLAVE_MEASUREMENT),
        ),
    )
    def test_altered_report_refused(self, setup, issued_msr, field, value):
        """An issued report with one field changed, here to speak for the owner
        enclave, is a report this platform never issued."""
        from dataclasses import replace

        _, rot, plat = setup
        load_enclave(plat, issued_msr)
        rep = ereport(plat, issued_msr, SOME_DATA)
        forged = replace(rep, **{field: value})
        assert forged.enclave_msr == OWNER_ENCLAVE_MEASUREMENT
        with pytest.raises(ForeignReport):
            qe_generate_quote(plat, forged)
        quote = qe_generate_quote(plat, rep)
        assert quote_check_failure(issued_msr, SOME_DATA, quote, plat.cert, rot.public) is None

    def test_same_report_quotes_twice(self, setup):
        rng, rot, plat = setup
        load_enclave(plat, ENCLAVE_A)
        rep = ereport(plat, ENCLAVE_A, SOME_DATA)
        q1 = qe_generate_quote(plat, rep)
        q2 = qe_generate_quote(plat, rep)
        assert quote_check_failure(ENCLAVE_A, SOME_DATA, q1, plat.cert, rot.public) is None
        assert quote_check_failure(ENCLAVE_A, SOME_DATA, q2, plat.cert, rot.public) is None

    def test_quote_term_round_trip(self, setup):
        _, _, plat = setup
        load_enclave(plat, ENCLAVE_A)
        quote = qe_generate_quote(plat, ereport(plat, ENCLAVE_A, SOME_DATA))
        assert Quote.from_term(quote.to_term()) == quote


class TestVerification:
    def _quote(self, plat, data=SOME_DATA):
        load_enclave(plat, ENCLAVE_A)
        return qe_generate_quote(plat, ereport(plat, ENCLAVE_A, data))

    def test_data_mismatch_one_byte(self, setup):
        rng, rot, plat = setup
        quote = self._quote(plat)
        other_data = Tuple([Label("report_data"), Atom(b"\x2b")])
        assert (
            quote_check_failure(ENCLAVE_A, other_data, quote, plat.cert, rot.public)
            == "data-mismatch"
        )

    def test_msr_mismatch(self, setup):
        rng, rot, plat = setup
        quote = self._quote(plat)
        assert (
            quote_check_failure(
                OWNER_ENCLAVE_MEASUREMENT, SOME_DATA, quote, plat.cert, rot.public
            )
            == "msr-mismatch"
        )

    def test_cross_platform_cert_rejected(self, setup):
        rng, rot, plat = setup
        other = new_sgx_platform(rng, rot)
        quote = self._quote(plat)
        assert (
            quote_check_failure(ENCLAVE_A, SOME_DATA, quote, other.cert, rot.public)
            == "quote-sig"
        )

    def test_uncertified_root_rejected_first(self, setup):
        rng, rot, plat = setup
        quote = self._quote(plat)
        rogue = sig_keygen(rng)
        assert (
            quote_check_failure(ENCLAVE_A, SOME_DATA, quote, plat.cert, rogue.public)
            == "cert-sig"
        )

    def test_check_order_cert_before_quote(self, setup):
        """A broken cert masks a broken quote signature."""
        rng, rot, plat = setup
        quote = self._quote(plat)
        bad_quote = Quote(msr=quote.msr, plat=quote.plat, data=quote.data, sig=b"\x00" * 64)
        rogue = sig_keygen(rng)
        assert (
            quote_check_failure(ENCLAVE_A, SOME_DATA, bad_quote, plat.cert, rogue.public)
            == "cert-sig"
        )
        assert (
            quote_check_failure(ENCLAVE_A, SOME_DATA, bad_quote, plat.cert, rot.public)
            == "quote-sig"
        )

    def test_all_pass_returns_none(self, setup):
        rng, rot, plat = setup
        quote = self._quote(plat)
        assert quote_check_failure(ENCLAVE_A, SOME_DATA, quote, plat.cert, rot.public) is None
