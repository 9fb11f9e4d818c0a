"""Term-ratio-difference approximation of sqrt(5).

For the minimal super-increasing sequence {a_i} the term ratio
mu_i = a_i / a_{i-1} is constantly 2; for the minimal extra-super-increasing
sequence {z_i} the term ratio nu_i = z_i / z_{i-1} climbs toward the square
of the golden ratio.  The difference nu_i - mu_i therefore climbs toward the
golden ratio conjugate, and 2 * (nu_i - mu_i) + 1 approximates sqrt(5) from
below, one-sidedly and monotonically.

Sweeps carry a rolling pair of sequence terms, so a scan to index N costs
O(N) big-integer operations and no shared state; point queries recompute
their own prefix.  Searches decide each threshold exactly with
:func:`qrl.exact.sqrt5_within`, so no truncated reference is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .exact import check_digit_cap, int_isqrt, sqrt5_within
from .series import iter_partial_sums

# Externally claimed index for a 36-digit conjugate match; carried in reports
# for comparison against the measured indices, never asserted.
CLAIMED_PHI_MATCH_N = 40

_METHODS = ("ratio", "series")


@dataclass(frozen=True)
class RatioRecord:
    """Both term ratios at one index, their difference, and the sqrt(5) value."""

    index: int
    mu: Fraction
    nu: Fraction
    diff: Fraction
    sqrt5_approx: Fraction


@dataclass(frozen=True)
class PhiMatchResult:
    """Smallest indices matching the conjugate under two equality notions.

    ``strict_error_n`` uses absolute error below 10**-digits;``prefix_n``
    uses agreement of the truncated decimal renderings.  ``claimed_n`` is the
    externally claimed index, reported alongside for comparison.
    """

    requested_digits: int
    strict_error_n: int
    prefix_n: int
    claimed_n: int = CLAIMED_PHI_MATCH_N


def _z_pair(i: int) -> tuple[int, int]:
    """(z_{i-1}, z_i) via the linear recurrence z_i = 3*z_{i-1} - z_{i-2}."""
    prev, cur = 1, 2
    for _ in range(i - 1):
        prev, cur = cur, 3 * cur - prev
    return prev, cur


def term_ratio_mu(i: int) -> Fraction:
    """a_i / a_{i-1}, which is 2 at every index because a_i = 2**i."""
    if i < 1:
        raise ValueError("term ratios start at index 1")
    return Fraction(2)


def term_ratio_nu(i: int) -> Fraction:
    """z_i / z_{i-1} in lowest terms.

    >>> term_ratio_nu(3)
    Fraction(13, 5)
    """
    if i < 1:
        raise ValueError("term ratios start at index 1")
    prev, cur = _z_pair(i)
    return Fraction(cur, prev)


def ratio_diff(i: int) -> Fraction:
    """The term ratio difference nu_i - mu_i."""
    return term_ratio_nu(i) - term_ratio_mu(i)


def sqrt5_via_ratio(n: int) -> Fraction:
    """sqrt(5) approximant 2 * (nu_n - mu_n) + 1.

    >>> sqrt5_via_ratio(8)
    Fraction(682, 305)
    """
    if n < 1:
        raise ValueError("the approximant starts at index 1")
    return 2 * ratio_diff(n) + 1


def iter_ratio_records(start: int = 1) -> Iterator[RatioRecord]:
    """Rolling sweep of records from ``start`` upward, O(1) work per step."""
    if start < 1:
        raise ValueError("term ratios start at index 1")
    z_prev, z_cur = _z_pair(start)
    mu = Fraction(2)
    i = start
    while True:
        nu = Fraction(z_cur, z_prev)
        diff = nu - mu
        yield RatioRecord(i, mu, nu, diff, 2 * diff + 1)
        z_prev, z_cur = z_cur, 3 * z_cur - z_prev
        i += 1


def find_min_n(method: str, target_digits: int) -> int:
    """Smallest n with |approx(n) - sqrt(5)| < 10**-target_digits.

    Each verdict is exact.  A linear scan from n = 1 returns the minimum
    because both methods have strictly decreasing absolute error.
    """
    if method not in _METHODS:
        raise ValueError(f"unknown method {method!r}")
    if target_digits < 1:
        raise ValueError("target digit count must be at least 1")
    check_digit_cap(target_digits)
    epsilon = Fraction(1, 10 ** target_digits)
    if method == "series":
        for n, partial in iter_partial_sums():
            if n >= 1 and sqrt5_within(partial, epsilon):
                return n
    else:
        for record in iter_ratio_records():
            if sqrt5_within(record.sqrt5_approx, epsilon):
                return record.index
    raise AssertionError("unreachable")


def phi_match_report(precision_digits: int) -> PhiMatchResult:
    """Find the smallest matching index under both equality notions.

    The strict notion asks for absolute error below 10**-precision_digits
    against the conjugate (sqrt(5) - 1) / 2; since the approximant is
    2 * diff + 1, that is |2 * diff + 1 - sqrt(5)| < 2 * 10**-precision_digits.
    The prefix notion asks for the truncated decimal renderings of the
    difference and of the conjugate to agree on the first
    ``precision_digits`` fractional digits, i.e. for floor(10**p * diff) to
    equal floor(10**p * conjugate) = (isqrt(5 * 10**(2p)) - 10**p) // 2.
    """
    if precision_digits < 1:
        raise ValueError("precision must be at least 1 digit")
    check_digit_cap(precision_digits)
    scale = 10 ** precision_digits
    epsilon = Fraction(2, scale)
    wanted_prefix = (int_isqrt(5 * scale * scale) - scale) // 2
    strict_n: int | None = None
    prefix_n: int | None = None
    for record in iter_ratio_records():
        if strict_n is None and sqrt5_within(record.sqrt5_approx, epsilon):
            strict_n = record.index
        if prefix_n is None and (
            record.diff.numerator * scale // record.diff.denominator == wanted_prefix
        ):
            prefix_n = record.index
        if strict_n is not None and prefix_n is not None:
            return PhiMatchResult(precision_digits, strict_n, prefix_n)
    raise AssertionError("unreachable")
