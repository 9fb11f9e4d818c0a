"""Exact integer and rational arithmetic with truncating decimal rendering.

Everything in this module is built on Python's unbounded ``int`` and on
``fractions.Fraction`` (always lowest terms, positive denominator).  The one
piece of machinery the standard library does not provide is decimal rendering
with *truncation* semantics: digits past the requested position are dropped,
never rounded.  That convention is load-bearing for the rest of the package,
because every reference table this project reproduces was printed truncated.

The square root of 5 reference produced here is the comparison oracle for the
two approximation methods implemented elsewhere; it is computed by integer
square root so it shares no code path with either method.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction

DEFAULT_DIGIT_CAP = 100_000
DIGIT_CAP_ENV = "QRL_DIGIT_CAP"

_ASCII_DIGITS = frozenset("0123456789")


class DigitCapExceeded(ValueError):
    """A precision request exceeds the configured digit cap."""


def digit_cap() -> int:
    """Active digit cap: ``QRL_DIGIT_CAP`` when set, else 100,000."""
    raw = os.environ.get(DIGIT_CAP_ENV)
    if raw is None:
        return DEFAULT_DIGIT_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(
            f"{DIGIT_CAP_ENV} must be an integer, got {raw!r}"
        ) from None
    if cap <= 0:
        raise ValueError(f"{DIGIT_CAP_ENV} must be positive, got {cap}")
    return cap


def check_digit_cap(digits: int) -> None:
    """Raise :class:`DigitCapExceeded` when ``digits`` exceeds the cap."""
    limit = digit_cap()
    if digits > limit:
        raise DigitCapExceeded(f"{digits} digits requested, cap is {limit}")


def _int_str(x: int) -> str:
    # CPython guards huge int->str conversions; raise the guard just enough.
    try:
        return str(x)
    except ValueError:
        sys.set_int_max_str_digits(max(640, x.bit_length() // 3 + 16))
        return str(x)


def _str_int(s: str) -> int:
    if hasattr(sys, "get_int_max_str_digits"):
        limit = sys.get_int_max_str_digits()
        if limit and len(s) > limit:
            sys.set_int_max_str_digits(max(640, len(s) + 16))
    return int(s)


def int_isqrt(x: int) -> int:
    """Floor of the square root: the result r satisfies r*r <= x < (r+1)**2.

    >>> int_isqrt(50000)
    223
    """
    if x < 0:
        raise ValueError("integer square root of a negative number")
    return math.isqrt(x)


def int_nth_root(x: int, n: int) -> int:
    """Floor of the n-th root of a nonnegative integer."""
    if n <= 0:
        raise ValueError("root order must be positive")
    if x < 0:
        raise ValueError("n-th root of a negative number")
    if x == 0 or n == 1:
        return x
    if n == 2:
        return math.isqrt(x)
    r = 1 << (x.bit_length() // n + 1)
    while True:
        t = ((n - 1) * r + x // r ** (n - 1)) // n
        if t >= r:
            break
        r = t
    while r ** n > x:
        r -= 1
    while (r + 1) ** n <= x:
        r += 1
    return r


@dataclass(frozen=True)
class DecimalString:
    """A decimal rendering of a rational number, truncated toward zero.

    ``frac_part`` holds exactly ``frac_digits`` characters; expansions that
    terminate early are padded with zeros on the right, and digits beyond the
    requested position are dropped, never rounded.
    """

    sign: int
    int_part: str
    frac_part: str
    frac_digits: int

    def __post_init__(self) -> None:
        if self.sign not in (-1, 1):
            raise ValueError(f"sign must be -1 or +1, got {self.sign}")
        if len(self.frac_part) != self.frac_digits:
            raise ValueError("frac_part length must equal frac_digits")
        if not self.int_part or not set(self.int_part) <= _ASCII_DIGITS:
            raise ValueError(f"malformed integer part {self.int_part!r}")
        if not set(self.frac_part) <= _ASCII_DIGITS:
            raise ValueError(f"malformed fractional part {self.frac_part!r}")

    def __str__(self) -> str:
        body = self.int_part
        if self.frac_digits:
            body = f"{body}.{self.frac_part}"
        return body if self.sign > 0 else f"-{body}"

    def to_fraction(self) -> Fraction:
        scale = 10 ** self.frac_digits
        magnitude = _str_int(self.int_part) * scale
        if self.frac_digits:
            magnitude += _str_int(self.frac_part)
        return Fraction(self.sign * magnitude, scale)

    @classmethod
    def parse(cls, text: str) -> "DecimalString":
        body = text.strip()
        sign = 1
        if body.startswith(("-", "+")):
            sign = -1 if body[0] == "-" else 1
            body = body[1:]
        int_part, dot, frac_part = body.partition(".")
        if not int_part or (dot and not frac_part):
            raise ValueError(f"malformed decimal string {text!r}")
        return cls(
            sign=sign,
            int_part=int_part,
            frac_part=frac_part,
            frac_digits=len(frac_part),
        )


def rational_to_decimal(q: Fraction | int, digits: int) -> DecimalString:
    """Truncate ``q`` toward zero to exactly ``digits`` fractional digits.

    >>> str(rational_to_decimal(Fraction(34, 13), 7))
    '2.6153846'
    """
    if digits < 0:
        raise ValueError("digit count must be nonnegative")
    q = Fraction(q)
    sign = -1 if q < 0 else 1
    scale = 10 ** digits
    scaled = abs(q.numerator) * scale // q.denominator
    int_part, frac_part = divmod(scaled, scale)
    return DecimalString(
        sign=sign,
        int_part=_int_str(int_part),
        frac_part=_int_str(frac_part).zfill(digits) if digits else "",
        frac_digits=digits,
    )


def parse_decimal(text: str) -> Fraction:
    """Inverse of rendering: read a (possibly signed) decimal string."""
    return DecimalString.parse(text).to_fraction()


def sqrt5_reference(digits: int) -> DecimalString:
    """Truncation of sqrt(5) to ``digits`` fractional digits.

    Computed as the integer square root of 5 * 10**(2*digits): the floor
    semantics of the square root match truncation semantics exactly, so every
    rendered digit is a true digit of the expansion.
    """
    return rational_to_decimal(sqrt5_reference_fraction(digits), digits)


def sqrt5_reference_fraction(digits: int) -> Fraction:
    """The reference value as an exact rational, for error arithmetic."""
    if digits < 0:
        raise ValueError("digit count must be nonnegative")
    check_digit_cap(digits)
    return Fraction(int_isqrt(5 * 10 ** (2 * digits)), 10 ** digits)


def sqrt5_within(value: Fraction | int, epsilon: Fraction | int) -> bool:
    """Decide |value - sqrt(5)| < epsilon exactly, for positive arguments.

    With value = p/q and epsilon = e0/E, scaling by q*E turns the test into
    |p*E - sqrt(5)*q*E| < e with e = e0*q.  The sign of k = p**2 - 5*q**2
    tells which side of sqrt(5) the value is on, so only the bound that can
    fail is squared and compared, in integers.

    >>> sqrt5_within(Fraction(682, 305), Fraction(1, 10**5))
    True
    >>> sqrt5_within(Fraction(682, 305), Fraction(1, 10**6))
    False
    """
    value, epsilon = Fraction(value), Fraction(epsilon)
    if value <= 0 or epsilon <= 0:
        raise ValueError("value and tolerance must be positive")
    p, q = value.numerator, value.denominator
    scale = epsilon.denominator
    e = epsilon.numerator * q
    k = p * p - 5 * q * q
    if k < 0:
        return e * (2 * p * scale + e) > -k * scale * scale
    return p * scale <= e or e * (2 * p * scale - e) > k * scale * scale


def abs_error(a: Fraction | int, b: Fraction | int) -> Fraction:
    """Exact absolute difference |a - b|."""
    return abs(Fraction(a) - Fraction(b))


def terminating_digits(q: Fraction | int) -> int | None:
    """Number of fractional digits of a terminating decimal expansion.

    Returns None when the expansion of ``q`` does not terminate (denominator
    has a prime factor other than 2 and 5).
    """
    den = Fraction(q).denominator
    twos = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    fives = 0
    while den % 5 == 0:
        den //= 5
        fives += 1
    return max(twos, fives) if den == 1 else None


def correct_digits(error: Fraction) -> int:
    """Largest d >= 0 with |error| < 10**-d, floored at 0 for errors >= 1.

    The error must be nonzero; an exact match has no finite digit count.
    """
    err = abs(Fraction(error))
    if err == 0:
        raise ValueError("correct_digits is undefined for a zero error")
    num, den = err.numerator, err.denominator
    if num >= den:
        return 0
    d = len(_int_str(den)) - len(_int_str(num))
    while d > 0 and num * 10 ** d >= den:
        d -= 1
    while num * 10 ** (d + 1) < den:
        d += 1
    return d
