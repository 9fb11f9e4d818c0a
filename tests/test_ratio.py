from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qrl.exact import (
    DIGIT_CAP_ENV,
    DigitCapExceeded,
    rational_to_decimal,
    sqrt5_reference_fraction,
)
from qrl.golden import quadratic_residual
from qrl.ratio import (
    CLAIMED_PHI_MATCH_N,
    find_min_n,
    iter_ratio_records,
    phi_match_report,
    ratio_diff,
    sqrt5_via_ratio,
    term_ratio_mu,
    term_ratio_nu,
)
from qrl.series import iter_partial_sums

from reference_data import (
    DIFF_TRUNCATED,
    NU_TRUNCATED,
    SQRT5_RATIO_8,
    SQRT5_RATIO_11,
)


def fibonacci(limit):
    fib = [0, 1]
    while len(fib) <= limit:
        fib.append(fib[-1] + fib[-2])
    return fib


def frac_digits_of(text):
    return len(text.partition(".")[2])


# Agreement checks scan against a reference carrying 40 guard digits.
AGREEMENT_DIGITS = (1, 5, 8, 15, 36)


def scan_min_n(method, digits):
    reference = sqrt5_reference_fraction(digits + 40)
    epsilon = Fraction(1, 10 ** digits)
    if method == "series":
        values = ((n, s) for n, s in iter_partial_sums() if n >= 1)
    else:
        values = ((r.index, r.sqrt5_approx) for r in iter_ratio_records())
    for n, value in values:
        if abs(value - reference) < epsilon:
            return n


def scan_phi_match(digits):
    conjugate = (sqrt5_reference_fraction(digits + 40) - 1) / 2
    epsilon = Fraction(1, 10 ** digits)
    wanted = str(rational_to_decimal(conjugate, digits))
    strict_n = prefix_n = None
    for record in iter_ratio_records():
        if strict_n is None and abs(record.diff - conjugate) < epsilon:
            strict_n = record.index
        if prefix_n is None and str(rational_to_decimal(record.diff, digits)) == wanted:
            prefix_n = record.index
        if strict_n and prefix_n:
            return strict_n, prefix_n


class TestTermRatios:
    @pytest.mark.parametrize("i", [1, 16, 500])
    def test_mu_is_constant_two(self, i):
        assert term_ratio_mu(i) == 2

    def test_nu_examples(self):
        assert term_ratio_nu(3) == Fraction(13, 5)
        assert term_ratio_nu(8) == Fraction(1597, 610)
        assert str(rational_to_decimal(term_ratio_nu(8), 15)) == "2.618032786885245"

    def test_index_zero_rejected(self):
        for op in (term_ratio_mu, term_ratio_nu, ratio_diff):
            with pytest.raises(ValueError):
                op(0)

    def test_exact_truncation_table(self):
        # final digits corrected where the published table is misprinted
        for i, expected in NU_TRUNCATED.items():
            rendered = rational_to_decimal(term_ratio_nu(i), frac_digits_of(expected))
            assert str(rendered) == expected, f"nu at i={i}"
        for i, expected in DIFF_TRUNCATED.items():
            rendered = rational_to_decimal(ratio_diff(i), frac_digits_of(expected))
            assert str(rendered) == expected, f"diff at i={i}"

    def test_diff_examples(self):
        assert ratio_diff(1) == 0
        assert ratio_diff(2) == Fraction(1, 2)
        assert ratio_diff(8) == Fraction(377, 610)

    def test_diff_is_consecutive_fibonacci_quotient(self):
        fib = fibonacci(2 * 200)
        for n in range(1, 201):
            value = ratio_diff(n)
            assert value == Fraction(fib[2 * n - 2], fib[2 * n - 1])
            if n > 1:
                assert value.numerator == fib[2 * n - 2]
                assert value.denominator == fib[2 * n - 1]

    @pytest.mark.parametrize("n", range(1, 31))
    def test_residual_identity(self, n):
        # consecutive Fibonacci quotients solve the conjugate equation up to 1/q**2
        value = ratio_diff(n)
        assert quadratic_residual(value) == Fraction(-1, value.denominator ** 2)

    @given(st.integers(min_value=1, max_value=400))
    def test_residual_identity_at_large_index(self, n):
        value = ratio_diff(n)
        assert quadratic_residual(value) == Fraction(-1, value.denominator ** 2)


class TestSqrt5ViaRatio:
    def test_examples(self):
        assert sqrt5_via_ratio(1) == 1
        assert sqrt5_via_ratio(8) == Fraction(682, 305)
        assert str(rational_to_decimal(sqrt5_via_ratio(8), 16)) == SQRT5_RATIO_8
        assert str(rational_to_decimal(sqrt5_via_ratio(11), 21)) == SQRT5_RATIO_11

    def test_index_zero_rejected(self):
        with pytest.raises(ValueError):
            sqrt5_via_ratio(0)

    def test_record_invariants(self):
        for i in (1, 2, 7, 40):
            record = next(iter_ratio_records(start=i))
            assert record.mu == 2
            assert record.diff == record.nu - 2
            assert record.sqrt5_approx == 2 * record.nu - 3

    def test_iterator_matches_point_queries(self):
        for record in islice(iter_ratio_records(), 50):
            assert record.nu == term_ratio_nu(record.index)
            assert record.mu == term_ratio_mu(record.index)
            assert record.diff == ratio_diff(record.index)
            assert record.sqrt5_approx == sqrt5_via_ratio(record.index)

    def test_iterator_start_offset(self):
        record = next(iter_ratio_records(start=8))
        assert record.index == 8
        assert record.diff == Fraction(377, 610)


class TestMonotoneApproach:
    def test_diff_increases_strictly_below_conjugate(self):
        conjugate = (sqrt5_reference_fraction(460) - 1) / 2
        previous = None
        for record in islice(iter_ratio_records(), 500):
            assert record.diff < conjugate
            if previous is not None:
                assert record.diff > previous
            previous = record.diff

    def test_sqrt5_approx_increases_strictly_below_reference(self):
        reference = sqrt5_reference_fraction(460)
        previous = None
        for record in islice(iter_ratio_records(), 500):
            assert record.sqrt5_approx < reference
            if previous is not None:
                assert record.sqrt5_approx > previous
            previous = record.sqrt5_approx

    def test_error_ratio_near_inverse_fourth_power(self):
        # the limit value is (7 - 3*sqrt5)/2, about 0.14590
        reference = sqrt5_reference_fraction(250)
        limit = (7 - 3 * reference) / 2
        band = limit / 100
        errors = [
            reference - record.sqrt5_approx
            for record in islice(iter_ratio_records(), 202)
        ]
        for n in range(10, 201):
            ratio = errors[n] / errors[n - 1]  # error at n+1 over error at n
            assert abs(ratio - limit) <= band


class TestFindMinN:
    def test_reference_selections(self):
        assert find_min_n("ratio", 5) == 8
        assert find_min_n("ratio", 8) == 11

    def test_selection_minimality(self):
        for digits, chosen in ((5, 8), (8, 11)):
            epsilon = Fraction(1, 10 ** digits)
            reference = sqrt5_reference_fraction(digits + 10)
            assert abs(sqrt5_via_ratio(chosen) - reference) < epsilon
            assert abs(sqrt5_via_ratio(chosen - 1) - reference) >= epsilon

    def test_single_digit_target(self):
        assert find_min_n("ratio", 1) == 3

    def test_series_side(self):
        assert find_min_n("series", 5) == 5
        assert find_min_n("series", 8) == 10

    def test_agrees_with_reference_scan(self):
        for digits in AGREEMENT_DIGITS:
            for method in ("ratio", "series"):
                assert find_min_n(method, digits) == scan_min_n(method, digits)

    def test_errors(self, monkeypatch):
        with pytest.raises(ValueError):
            find_min_n("bisection", 5)
        with pytest.raises(ValueError):
            find_min_n("ratio", 0)
        monkeypatch.setenv(DIGIT_CAP_ENV, "50")
        with pytest.raises(DigitCapExceeded):
            find_min_n("ratio", 100)


class TestPhiMatch:
    def test_single_digit(self):
        assert phi_match_report(1).strict_error_n == 3

    def test_fifteen_digits(self):
        report = phi_match_report(15)
        assert report.strict_error_n == 19
        assert report.prefix_n == 19

    def test_thirty_six_digits(self):
        report = phi_match_report(36)
        assert report.requested_digits == 36
        assert report.strict_error_n == 44
        assert report.prefix_n == 45
        assert report.claimed_n == CLAIMED_PHI_MATCH_N == 40

    def test_strict_contract_at_36(self):
        n = phi_match_report(36).strict_error_n
        epsilon = Fraction(1, 10 ** 36)
        conjugate = (sqrt5_reference_fraction(46) - 1) / 2
        assert abs(ratio_diff(n) - conjugate) < epsilon
        assert abs(ratio_diff(n - 1) - conjugate) >= epsilon

    def test_prefix_contract_at_36(self):
        report = phi_match_report(36)
        conjugate = (sqrt5_reference_fraction(46) - 1) / 2
        wanted = str(rational_to_decimal(conjugate, 36))
        assert str(rational_to_decimal(ratio_diff(report.prefix_n), 36)) == wanted
        assert str(rational_to_decimal(ratio_diff(report.prefix_n - 1), 36)) != wanted

    def test_agrees_with_reference_scan(self):
        for digits in AGREEMENT_DIGITS:
            report = phi_match_report(digits)
            assert (report.strict_error_n, report.prefix_n) == scan_phi_match(digits)

    def test_errors(self, monkeypatch):
        with pytest.raises(ValueError):
            phi_match_report(0)
        monkeypatch.setenv(DIGIT_CAP_ENV, "50")
        with pytest.raises(DigitCapExceeded):
            phi_match_report(60)
