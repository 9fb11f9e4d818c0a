import decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qrl import exact
from qrl.exact import (
    DecimalString,
    DigitCapExceeded,
    abs_error,
    correct_digits,
    int_isqrt,
    int_nth_root,
    parse_decimal,
    rational_to_decimal,
    sqrt5_reference,
    sqrt5_reference_fraction,
    sqrt5_within,
    terminating_digits,
)


class TestIntIsqrt:
    def test_examples(self):
        assert int_isqrt(0) == 0
        assert int_isqrt(25) == 5
        assert int_isqrt(5 * 10 ** 4) == 223
        assert 223 ** 2 <= 5 * 10 ** 4 < 224 ** 2

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            int_isqrt(-1)

    @given(st.integers(min_value=0, max_value=10 ** 200))
    def test_floor_contract(self, x):
        r = int_isqrt(x)
        assert r * r <= x < (r + 1) * (r + 1)


class TestIntNthRoot:
    def test_examples(self):
        assert int_nth_root(0, 5) == 0
        assert int_nth_root(1, 7) == 1
        assert int_nth_root(2 ** 90, 3) == 2 ** 30
        assert int_nth_root(10 ** 100 - 1, 100) == 9

    def test_errors(self):
        with pytest.raises(ValueError):
            int_nth_root(-1, 3)
        with pytest.raises(ValueError):
            int_nth_root(8, 0)

    @given(st.integers(min_value=0, max_value=10 ** 80), st.integers(1, 12))
    def test_floor_contract(self, x, n):
        r = int_nth_root(x, n)
        assert r ** n <= x < (r + 1) ** n


class TestRationalToDecimal:
    @pytest.mark.parametrize(
        "num, den, digits, expected",
        [
            (34, 13, 7, "2.6153846"),
            (9, 4, 2, "2.25"),
            (1, 3, 4, "0.3333"),
            (1, 8, 5, "0.12500"),
            (9, 4, 0, "2"),
            (0, 1, 3, "0.000"),
            (-1, 3, 2, "-0.33"),
            (-9, 4, 0, "-2"),
        ],
    )
    def test_examples(self, num, den, digits, expected):
        assert str(rational_to_decimal(Fraction(num, den), digits)) == expected

    def test_negative_digit_count_rejected(self):
        with pytest.raises(ValueError):
            rational_to_decimal(Fraction(1, 2), -1)

    def test_accepts_plain_int(self):
        assert str(rational_to_decimal(7, 2)) == "7.00"

    @given(
        st.fractions(min_value=-10 ** 6, max_value=10 ** 6, max_denominator=10 ** 9),
        st.integers(0, 30),
    )
    def test_truncates_toward_zero(self, q, digits):
        rendered = rational_to_decimal(q, digits)
        back = rendered.to_fraction()
        assert abs(q - back) < Fraction(1, 10 ** digits)
        if q >= 0:
            assert back <= q
        else:
            assert back >= q

    @given(
        st.fractions(min_value=-10 ** 6, max_value=10 ** 6, max_denominator=10 ** 9),
        st.integers(0, 30),
    )
    def test_string_parse_round_trip(self, q, digits):
        rendered = rational_to_decimal(q, digits)
        assert DecimalString.parse(str(rendered)) == rendered


class TestDecimalString:
    def test_field_validation(self):
        with pytest.raises(ValueError):
            DecimalString(sign=0, int_part="1", frac_part="", frac_digits=0)
        with pytest.raises(ValueError):
            DecimalString(sign=1, int_part="1", frac_part="23", frac_digits=3)
        with pytest.raises(ValueError):
            DecimalString(sign=1, int_part="", frac_part="", frac_digits=0)
        with pytest.raises(ValueError):
            DecimalString(sign=1, int_part="1²", frac_part="", frac_digits=0)

    def test_parse_fields(self):
        ds = DecimalString.parse("-0.33")
        assert (ds.sign, ds.int_part, ds.frac_part, ds.frac_digits) == (-1, "0", "33", 2)
        assert DecimalString.parse("+2.5").sign == 1
        assert DecimalString.parse("7").frac_digits == 0

    @pytest.mark.parametrize("bad", ["", ".", "2.", ".5", "1.2.3", "a.b", "--1", "1e5"])
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            DecimalString.parse(bad)

    def test_parse_decimal_convenience(self):
        assert parse_decimal("2.25") == Fraction(9, 4)
        assert parse_decimal("-0.5") == Fraction(-1, 2)


class TestSqrt5Reference:
    def test_examples(self):
        assert str(sqrt5_reference(5)) == "2.23606"
        assert str(sqrt5_reference(8)) == "2.23606797"
        assert str(sqrt5_reference(0)) == "2"

    @given(st.integers(0, 200), st.integers(0, 40))
    def test_prefix_consistency(self, digits, extra):
        shorter = str(sqrt5_reference(digits))
        longer = str(sqrt5_reference(digits + extra))
        assert longer.startswith(shorter)

    def test_against_decimal_module(self):
        ctx = decimal.Context(prec=60)
        independent = str(ctx.sqrt(decimal.Decimal(5)))
        assert str(sqrt5_reference(40)) == independent[:42]

    def test_reference_fraction_is_truncation(self):
        q = sqrt5_reference_fraction(12)
        assert q ** 2 < 5
        assert (q + Fraction(1, 10 ** 12)) ** 2 > 5

    def test_cap_enforced(self, monkeypatch):
        with pytest.raises(DigitCapExceeded):
            sqrt5_reference(exact.DEFAULT_DIGIT_CAP + 1)
        monkeypatch.setenv(exact.DIGIT_CAP_ENV, "30")
        with pytest.raises(DigitCapExceeded):
            sqrt5_reference(31)
        assert str(sqrt5_reference(30)).startswith("2.2360")

    def test_cap_env_override(self, monkeypatch):
        monkeypatch.setenv(exact.DIGIT_CAP_ENV, "50")
        assert exact.digit_cap() == 50
        with pytest.raises(DigitCapExceeded):
            sqrt5_reference(51)
        sqrt5_reference(50)

    def test_cap_env_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv(exact.DIGIT_CAP_ENV, "many")
        with pytest.raises(ValueError):
            exact.digit_cap()
        monkeypatch.setenv(exact.DIGIT_CAP_ENV, "-3")
        with pytest.raises(ValueError):
            exact.digit_cap()


def _truncation(digits):
    """sqrt(5) truncated to ``digits`` fractional digits, as a Fraction."""
    return Fraction(int_isqrt(5 * 10 ** (2 * digits)), 10 ** digits)


def _within_by_squares(a, eps):
    # |a - sqrt5| < eps  <=>  (a - eps)**2 < 5 < (a + eps)**2, lower side
    # trivially true when a - eps <= 0
    return (a - eps <= 0 or (a - eps) ** 2 < 5) and 5 < (a + eps) ** 2


class TestSqrt5Within:
    @pytest.mark.parametrize("d", [1, 5, 36, 200])
    def test_just_inside_above_sqrt5(self, d):
        # the truncation sits less than 10**-(d+20) below sqrt(5), so adding
        # 10**-d lands above sqrt(5) and strictly within 10**-d of it
        eps = Fraction(1, 10 ** d)
        value = _truncation(d + 20) + eps
        assert value ** 2 > 5
        assert sqrt5_within(value, eps)
        # a reference carrying only 10 guard digits puts it outside
        assert abs(value - _truncation(d + 10)) >= eps

    @pytest.mark.parametrize("d", [1, 5, 36, 200])
    def test_inside_and_outside_below_sqrt5(self, d):
        eps = Fraction(1, 10 ** d)
        rounded_up = _truncation(d + 20) + Fraction(1, 10 ** (d + 20))
        inside = rounded_up - eps
        outside = _truncation(d + 20) - eps
        assert inside ** 2 < 5 and outside ** 2 < 5
        assert sqrt5_within(inside, eps)
        assert not sqrt5_within(outside, eps)
        # a reference carrying only 10 guard digits puts ``outside`` inside
        assert abs(outside - _truncation(d + 10)) < eps

    def test_tolerance_reaching_below_zero(self):
        # a - eps <= 0: only the upper bound can fail
        assert sqrt5_within(3, 3)
        assert sqrt5_within(3, 4)
        assert sqrt5_within(Fraction(1, 2), 2)
        assert not sqrt5_within(Fraction(1, 2), Fraction(3, 2))

    def test_nonpositive_arguments_rejected(self):
        for value, eps in ((0, 1), (-3, 1), (2, 0), (2, Fraction(-1, 10))):
            with pytest.raises(ValueError):
                sqrt5_within(value, eps)

    @given(
        st.fractions(min_value=Fraction(1, 10 ** 6), max_value=10, max_denominator=10 ** 9),
        st.fractions(min_value=Fraction(1, 10 ** 12), max_value=5, max_denominator=10 ** 12),
    )
    def test_agrees_with_squared_bounds(self, value, eps):
        assert sqrt5_within(value, eps) == _within_by_squares(value, eps)


class TestAbsError:
    def test_examples(self):
        assert abs_error(Fraction(9, 4), Fraction(9, 4)) == 0
        assert abs_error(Fraction(9, 4), 2) == Fraction(1, 4)

    def test_against_reference(self):
        err = abs_error(Fraction(9, 4), sqrt5_reference_fraction(30))
        assert Fraction(139, 10 ** 4) < err < Fraction(140, 10 ** 4)


class TestTerminatingDigits:
    @pytest.mark.parametrize(
        "q, expected",
        [
            (Fraction(9, 4), 2),
            (Fraction(7, 50), 2),
            (Fraction(2), 0),
            (Fraction(1, 3), None),
            (Fraction(682, 305), None),
        ],
    )
    def test_cases(self, q, expected):
        assert terminating_digits(q) == expected


class TestCorrectDigits:
    @pytest.mark.parametrize(
        "err, expected",
        [
            (Fraction(1, 1000), 2),
            (Fraction(139, 10 ** 4), 1),
            (Fraction(236, 1000), 0),
            (Fraction(3, 2), 0),
            (Fraction(1, 10 ** 36), 35),
        ],
    )
    def test_cases(self, err, expected):
        assert correct_digits(err) == expected

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            correct_digits(Fraction(0))

    @given(
        st.fractions(min_value=-100, max_value=100, max_denominator=10 ** 12).filter(
            lambda q: q != 0
        )
    )
    def test_bracketing_invariant(self, err):
        d = correct_digits(err)
        mag = abs(err)
        if mag < 1:
            assert Fraction(1, 10 ** (d + 1)) <= mag < Fraction(1, 10 ** d)
        else:
            assert d == 0


class TestFractionInvariants:
    @given(
        st.fractions(max_denominator=10 ** 6),
        st.fractions(max_denominator=10 ** 6),
    )
    def test_arithmetic_stays_normalized(self, a, b):
        import math

        results = [a + b, a - b, a * b]
        if b != 0:
            results.append(a / b)
        for q in results:
            assert q.denominator > 0
            assert math.gcd(abs(q.numerator), q.denominator) == 1
