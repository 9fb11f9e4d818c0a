from fractions import Fraction
from itertools import islice
from math import factorial

import pytest

from qrl.exact import (
    parse_decimal,
    rational_to_decimal,
    sqrt5_reference_fraction,
    terminating_digits,
)
from qrl.series import (
    binomial_coefficient_term,
    iter_partial_sums,
    sqrt5_series_partial,
)

from reference_data import SERIES_PARTIAL_DECIMALS


def coefficient_from_factorials(n):
    """The printed closed form, evaluated literally; test-side oracle."""
    if n == 0:
        return Fraction(1)
    return Fraction(
        (-1) ** (n - 1) * factorial(2 * n),
        4 ** n * factorial(n) ** 2 * (2 * n - 1),
    )


class TestCoefficients:
    @pytest.mark.parametrize(
        "n, expected",
        [
            (0, Fraction(1)),
            (1, Fraction(1, 2)),
            (2, Fraction(-1, 8)),
            (3, Fraction(1, 16)),
            (4, Fraction(-5, 128)),
            (5, Fraction(7, 256)),
        ],
    )
    def test_first_values(self, n, expected):
        assert binomial_coefficient_term(n) == expected

    @pytest.mark.parametrize("n", range(0, 51))
    def test_incremental_matches_factorial_form(self, n):
        assert binomial_coefficient_term(n) == coefficient_from_factorials(n)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            binomial_coefficient_term(-1)

    def test_sign_pattern(self):
        assert binomial_coefficient_term(0) == 1
        for n in range(1, 60):
            expected_sign = 1 if (n - 1) % 2 == 0 else -1
            assert (1 if binomial_coefficient_term(n) > 0 else -1) == expected_sign


class TestPartialSums:
    def test_first_values(self):
        assert sqrt5_series_partial(0) == 2
        assert sqrt5_series_partial(1) == Fraction(9, 4)
        assert sqrt5_series_partial(4) == parse_decimal("2.23602294921875")

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            sqrt5_series_partial(-1)

    def test_reference_ladder_bit_exact(self):
        for n, expected in SERIES_PARTIAL_DECIMALS.items():
            value = sqrt5_series_partial(n)
            rendered = rational_to_decimal(value, terminating_digits(value))
            assert str(rendered) == expected

    def test_denominators_are_powers_of_two(self):
        for n, partial in islice(iter_partial_sums(), 80):
            assert partial.denominator & (partial.denominator - 1) == 0

    def test_incremental_consistency(self):
        # the integer recurrence adds exactly the definitional term 2 c_n / 4**n
        previous = None
        for n, partial in islice(iter_partial_sums(), 60):
            if previous is not None:
                assert partial - previous == 2 * binomial_coefficient_term(n) / 4 ** n
            previous = partial


class TestConvergence:
    def setup_method(self):
        self.partials = [s for _, s in islice(iter_partial_sums(), 202)]

    def test_error_sign_alternates(self):
        # odd partial sums land above the target, even ones below
        for n in range(1, 201):
            reference = sqrt5_reference_fraction(n + 5)
            error = self.partials[n] - reference
            assert error != 0
            assert (error > 0) == (n % 2 == 1)

    def test_error_strictly_decreases(self):
        reference = sqrt5_reference_fraction(250)
        errors = [abs(self.partials[n] - reference) for n in range(0, 202)]
        for n in range(1, 201):
            assert errors[n + 1] < errors[n]

    def test_error_ratio_approaches_one_quarter(self):
        """Successive error ratios rise monotonically toward 1/4 from below.

        The gap closes like 3/(2n), so the ratio is within 2 percent of 1/4
        only from n = 74 onward over this range.
        """
        reference = sqrt5_reference_fraction(250)
        errors = [abs(self.partials[n] - reference) for n in range(0, 202)]
        ratios = [errors[n + 1] / errors[n] for n in range(1, 201)]
        quarter = Fraction(1, 4)
        band = quarter * Fraction(2, 100)
        for ratio in ratios:
            assert ratio < quarter
        for earlier, later in zip(ratios, ratios[1:]):
            assert later > earlier
        for n in range(74, 201):
            assert abs(errors[n + 1] / errors[n] - quarter) <= band
        assert abs(errors[21] / errors[20] - quarter) > band
