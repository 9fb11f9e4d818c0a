"""Reference approximants of the golden ratio and its conjugate.

Two independent routes to the golden ratio phi are provided: the all-ones
continued fraction evaluated by the forward convergent recurrence, and an
alternating factorial series added to the constant 13/8.  The conjugate is
phi - 1; it solves x**2 + x - 1 = 0, which ties it to sqrt(5) through
sqrt(5) = 2*x + 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact import sqrt5_reference_fraction

PHI_METHODS = ("continued_fraction", "series", "from_sqrt5_oracle")


@dataclass(frozen=True)
class PhiApproximant:
    """A positive rational approximation of phi and how it was obtained."""

    value: Fraction
    method: str
    depth_or_terms: int

    def __post_init__(self) -> None:
        if self.method not in PHI_METHODS:
            raise ValueError(f"unknown approximation method {self.method!r}")
        if self.value <= 0:
            raise ValueError("phi approximants are positive")
        if self.depth_or_terms < 0:
            raise ValueError("depth or term count must be nonnegative")


def phi_continued_fraction(depth: int) -> PhiApproximant:
    """Convergent of [1; 1, 1, ...] at the given depth.

    All partial quotients are 1, so the forward recurrence reduces to
    p_k = p_{k-1} + p_{k-2} on numerators and denominators alike; the
    convergents are ratios of consecutive Fibonacci numbers.  Depth 0 is the
    bare integer part, 1/1.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    p_prev, p = 1, 1
    q_prev, q = 0, 1
    for _ in range(depth):
        p_prev, p = p, p + p_prev
        q_prev, q = q, q + q_prev
    return PhiApproximant(Fraction(p, q), "continued_fraction", depth)


def phi_series_partial(terms: int) -> PhiApproximant:
    """13/8 plus the first ``terms`` summands of the alternating series.

    The summand at index n is (-1)**(n+1) * (2n+1)! / (4**(2n+3) * n! * (n+2)!),
    advanced incrementally by the rational factor between consecutive
    summands.  Successive summands shrink by roughly a factor of 4.
    """
    if terms < 0:
        raise ValueError("term count must be nonnegative")
    total = Fraction(13, 8)
    term = Fraction(-1, 128)
    for n in range(terms):
        total += term
        term *= Fraction(-(2 * n + 2) * (2 * n + 3), 16 * (n + 1) * (n + 3))
    return PhiApproximant(total, "series", terms)


def phi_oracle(digits: int) -> PhiApproximant:
    """(sqrt(5) + 1) / 2 from the integer-square-root reference.

    Independent of both approximation routes above; used to referee them.
    """
    value = (sqrt5_reference_fraction(digits) + 1) / 2
    return PhiApproximant(value, "from_sqrt5_oracle", digits)


def phi_conjugate(phi: Fraction | int) -> Fraction:
    """The conjugate, phi - 1."""
    return Fraction(phi) - 1


def quadratic_residual(q: Fraction | int) -> Fraction:
    """Residual of the conjugate's defining equation: q**2 + q - 1."""
    q = Fraction(q)
    return q * q + q - 1


def sqrt5_from_phi_conjugate(big_phi: Fraction | int) -> Fraction:
    """sqrt(5) = 2*x + 1 applied to a conjugate approximant x."""
    return 2 * Fraction(big_phi) + 1
