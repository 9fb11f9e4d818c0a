"""Binomial-series approximation of sqrt(5) with exact integer partial sums.

sqrt(5) = 2 * (1 + 1/4)**(1/2), and the square-root binomial series at
x = 1/4 gives sqrt(5) = 2 * sum(c_n / 4**n) with

    c_0 = 1,  c_n = (-1)**(n-1) * (2n)! / (4**n * (n!)**2 * (2n - 1)).

With C the Catalan numbers, c_n = (-1)**(n-1) * 2 * C_{n-1} / 4**n, so the
n-th partial sum is S_n = N_n / 16**n for the integer

    N_0 = 2,  N_n = 16 * N_{n-1} + (-1)**(n-1) * 4 * C_{n-1},

with C_n = C_{n-1} * (4n - 2) / (n + 1).  Sweeps step this recurrence on
plain integers, with no gcd per step; the ``Fraction`` views reduce only the
values they hand out.  Every partial sum has a power-of-two denominator, so
its decimal expansion terminates and can be rendered exactly.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count
from typing import Iterator


def _coefficient_step(n: int) -> Fraction:
    # c_n / c_{n-1}; simplification of (2n)(2n-1)/(4 n^2) * (2n-3)/(2n-1) with sign flip
    return Fraction(-(2 * n - 3), 2 * n)


def binomial_coefficient_term(n: int) -> Fraction:
    """The coefficient c_n, stepped from c_0 by the definitional ratio.

    c_0 is 1 by definition: at n = 0 the sign factor and the (2n - 1)
    denominator factor are both -1 and cancel, and hard-coding the product
    avoids raising -1 to a negative power.

    >>> [str(binomial_coefficient_term(n)) for n in range(4)]
    ['1', '1/2', '-1/8', '1/16']
    """
    if n < 0:
        raise ValueError("coefficient index must be nonnegative")
    coefficient = Fraction(1)
    for k in range(1, n + 1):
        coefficient *= _coefficient_step(k)
    return coefficient


def iter_scaled_partial_sums() -> Iterator[tuple[int, int, int]]:
    """Triples (n, N_n, 16**n) with S_n = N_n / 16**n, from n = 0 upward."""
    numerator, scale, catalan = 2, 1, 1
    yield 0, numerator, scale
    for n in count(1):
        step = 4 * catalan
        numerator = 16 * numerator + (step if n % 2 else -step)
        scale <<= 4
        yield n, numerator, scale
        catalan = catalan * (4 * n - 2) // (n + 1)


def iter_partial_sums() -> Iterator[tuple[int, Fraction]]:
    """Pairs (n, S_n) where S_n = 2 * sum(c_k / 4**k for k <= n)."""
    for n, numerator, scale in iter_scaled_partial_sums():
        yield n, Fraction(numerator, scale)


def sqrt5_series_partial(n: int) -> Fraction:
    """Exact n-th partial sum of the series for sqrt(5).

    >>> sqrt5_series_partial(1)
    Fraction(9, 4)
    """
    if n < 0:
        raise ValueError("partial sum index must be nonnegative")
    for index, numerator, scale in iter_scaled_partial_sums():
        if index == n:
            return Fraction(numerator, scale)
    raise AssertionError("unreachable")
