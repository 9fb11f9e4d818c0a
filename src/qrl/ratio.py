"""Term-ratio-difference approximation of sqrt(5).

For the minimal super-increasing sequence {a_i} the term ratio
mu_i = a_i / a_{i-1} is constantly 2; for the minimal extra-super-increasing
sequence {z_i} the term ratio nu_i = z_i / z_{i-1} climbs toward the square
of the golden ratio.  The difference nu_i - mu_i therefore climbs toward the
golden ratio conjugate, and 2 * (nu_i - mu_i) + 1 approximates sqrt(5) from
below, one-sidedly and monotonically.

Every nu value and approximant here reads the one z recurrence,
:func:`qrl.sequences.iter_minimal_extra_super`, so a walk to index N costs
O(N) linear-time big-integer steps and no shared state.  The n-th approximant is
the integer pair (2*z_n - 3*z_{n-1}, z_{n-1}); searches take such pairs, and
those of the series, from :func:`iter_approximants`.

Both errors fall at known rates: z_i = F_{2i+1}, so the ratio error is
exactly 2*sqrt(5) / (phi**(4n-2) + 1), and the series error is about
4/(5*sqrt(pi)) * 4**-(n+1) * (n+1)**-1.5.  A search therefore walks the
stream, testing nothing, to a predicted index just below the answer, and
only from there decides each threshold exactly with
:func:`qrl.exact.sqrt5_within_pq`.  The prediction never decides a result:
the errors fall strictly, so a miss at the predicted index proves every
earlier index misses too, and a hit there sends the scan back to n = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, islice, pairwise
from typing import Iterator

from .exact import check_digit_cap, sqrt5_floor, sqrt5_within_pq
from .sequences import iter_minimal_extra_super
from .series import iter_scaled_partial_sums

# Externally claimed index for a 36-digit conjugate match; carried in reports
# for comparison against the measured indices, never asserted.
CLAIMED_PHI_MATCH_N = 40

# Decimal digits gained per step: 4 * log10(phi) for the ratio, log10(4) for
# the series (whose error also carries a factor (n+1)**-1.5).
_RATIO_RATE = 4 * math.log10((1 + math.sqrt(5)) / 2)
_SERIES_RATE = math.log10(4)


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
    prev, cur = islice(iter_minimal_extra_super(), i - 1, i + 1)
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
    mu = Fraction(2)
    terms = islice(iter_minimal_extra_super(), start - 1, None)
    for i, (z_prev, z_cur) in enumerate(pairwise(terms), start):
        nu = Fraction(z_cur, z_prev)
        diff = nu - mu
        yield RatioRecord(i, mu, nu, diff, 2 * diff + 1)


def iter_approximants(method: str) -> Iterator[tuple[int, int, int]]:
    """Triples (n, p, q) from n = 1 upward, p/q the n-th sqrt(5) approximant.

    For ``"ratio"``, p/q = (2*z_n - 3*z_{n-1}) / z_{n-1} = 2 * diff + 1; for
    ``"series"``, p/q = N_n / 16**n.  The pairs are not reduced.
    """
    if method == "series":
        return islice(iter_scaled_partial_sums(), 1, None)
    if method == "ratio":
        pairs = enumerate(pairwise(iter_minimal_extra_super()), 1)
        return ((n, 2 * z_cur - 3 * z_prev, z_prev) for n, (z_prev, z_cur) in pairs)
    raise ValueError(f"unknown method {method!r}")


def _start_index(method: str, e0: int, scale: int) -> int:
    """An index predicted to lie at or just below the first n with error < e0 / scale.

    It solves the error rates of the module docstring for n, with
    log10(scale) read low from its bit length and the result floored; for
    the series, (n+1)**-1.5 is taken at an n above the answer.
    """
    target = (scale.bit_length() - 1) * math.log10(2) - math.log10(e0)
    if method == "ratio":
        n = (target + math.log10(2 * math.sqrt(5))) / _RATIO_RATE + 0.5
    else:
        above = target / _SERIES_RATE + 1
        n = (
            target - math.log10(5 * math.sqrt(math.pi) / 4) - 1.5 * math.log10(above)
        ) / _SERIES_RATE - 1
    return max(1, math.floor(n))


def _scan_from_start(
    method: str, e0: int, scale: int
) -> Iterator[tuple[int, int, int]]:
    """The approximants a search for error < e0 / scale has to test.

    The stream is walked to :func:`_start_index` without a test.  If the
    threshold fails there, every earlier index fails too (the error falls
    strictly), so the scan goes on from there; if it already holds, the
    prediction overshot and the scan restarts at n = 1.
    """
    stream = iter_approximants(method)
    start = _start_index(method, e0, scale)
    first = next(islice(stream, start - 1, None))
    n, p, q = first
    if n > 1 and sqrt5_within_pq(p, q, e0, scale):
        return iter_approximants(method)
    return chain([first], stream)


def find_min_n(method: str, target_digits: int) -> int:
    """Smallest n with |approx(n) - sqrt(5)| < 10**-target_digits.

    The scan starts at an index predicted from the method's error rate and
    decides each n exactly with :func:`qrl.exact.sqrt5_within_pq`.  Both
    methods have strictly decreasing absolute error, so a miss at the
    predicted start rules out every earlier n, and a hit there restarts the
    scan at n = 1: the result is the minimum whatever the prediction.
    """
    if target_digits < 1:
        raise ValueError("target digit count must be at least 1")
    check_digit_cap(target_digits)
    scale = 10 ** target_digits
    for n, p, q in _scan_from_start(method, 1, scale):
        if sqrt5_within_pq(p, q, 1, scale):
            return n
    raise AssertionError("unreachable")


def phi_match_report(precision_digits: int) -> PhiMatchResult:
    """Find the smallest matching index under both equality notions.

    The strict notion asks for absolute error below 10**-precision_digits
    against the conjugate (sqrt(5) - 1) / 2; since the approximant is
    2 * diff + 1, that is |2 * diff + 1 - sqrt(5)| < 2 * 10**-precision_digits.
    The prefix notion asks for the truncated decimal renderings of the
    difference and of the conjugate to agree on the first
    ``precision_digits`` = d fractional digits, i.e. for floor(10**d * diff)
    to equal floor(10**d * conjugate) = (isqrt(5 * 10**(2d)) - 10**d) // 2.
    For the approximant p/q = (2*z_n - 3*z_{n-1}) / z_{n-1}, the difference
    is (z_n - 2*z_{n-1}) / z_{n-1} = ((p - q) / 2) / q.

    The scan starts at the index predicted for the strict tolerance, as in
    :func:`find_min_n`.  The difference rises to the conjugate from below,
    so a prefix match implies a strict one: a strict miss at the start rules
    out both notions at every earlier n, and each verdict is exact.
    """
    if precision_digits < 1:
        raise ValueError("precision must be at least 1 digit")
    check_digit_cap(precision_digits)
    scale = 10 ** precision_digits
    wanted_prefix = (sqrt5_floor(precision_digits) - scale) // 2
    strict_n: int | None = None
    prefix_n: int | None = None
    for n, p, q in _scan_from_start("ratio", 2, scale):
        if strict_n is None and sqrt5_within_pq(p, q, 2, scale):
            strict_n = n
        if prefix_n is None and (p - q) // 2 * scale // q == wanted_prefix:
            prefix_n = n
        if strict_n is not None and prefix_n is not None:
            return PhiMatchResult(precision_digits, strict_n, prefix_n)
    raise AssertionError("unreachable")
