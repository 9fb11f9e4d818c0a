"""Independent exact oracle for the outputs of the qrl command line.

Nothing here imports qrl.  Every verdict is decided with Python integers, and
decimal strings come from the ``decimal`` module run in an exact context (any
rounding raises), so base conversion shares no code with the ``str(int)``
conversions the program uses and is not subject to CPython's int/str digit
limit.  Each ``check_*`` function returns ``None`` when the output bytes are
right and a one-line reason when they are not.

Closed forms used in place of the program's own recurrences:

* binomial series partial sum   S_n = N_n / 16**n with N_0 = 2 and
  N_n = 16 N_{n-1} + (-1)**(n-1) * 4 * Catalan(n-1)
* term-ratio approximant        2 z_n / z_{n-1} - 3 with z_i = F_{2i+1}
* golden-ratio convergent       F_{n+2} / F_{n+1}
* golden-ratio series           13/8 + sum_{k<T} (-1)**(k+1) Catalan(k+1) / 2**(4k+7)
"""

from __future__ import annotations

import decimal
import json
import math
import random
import re
from functools import lru_cache
from typing import Iterator

_EXACT = decimal.Context(
    prec=decimal.MAX_PREC,
    Emax=decimal.MAX_EMAX,
    Emin=decimal.MIN_EMIN,
    traps=[decimal.Inexact, decimal.Rounded],
)

CSV_HEADER = "method,n,approx,abs_error,error_sign,correct_digits"
RATE_DIGITS = 9
PHI_MATCH_DIGITS = 36
CLAIMED_PHI_MATCH_N = 40
ROW_SAMPLES = 6

# ---------------------------------------------------------------- integers


def decimal_digits(x: int) -> str:
    """Base-10 digits of a nonnegative integer, converted by ``decimal``."""
    return str(decimal.Decimal(x))


def render(num: int, den: int, digits: int) -> str:
    """Truncation of num/den >= 0 to ``digits`` fractional digits."""
    text = decimal_digits(num * 10**digits // den).rjust(digits + 1, "0")
    if not digits:
        return text
    return f"{text[:-digits]}.{text[-digits:]}"


def fib_pair(k: int) -> tuple[int, int]:
    """(F_k, F_{k+1}) by fast doubling."""
    if k == 0:
        return 0, 1
    a, b = fib_pair(k >> 1)
    c = a * (2 * b - a)
    d = a * a + b * b
    return (d, c + d) if k & 1 else (c, d)


def ratio_value(n: int) -> tuple[int, int]:
    """sqrt(5) approximant 2 (z_n / z_{n-1} - 2) + 1 as (num, den), n >= 1."""
    lo, mid = fib_pair(2 * n - 1)
    return 2 * (lo + mid) - 3 * lo, lo


def conjugate_diff(n: int) -> tuple[int, int]:
    """Term ratio difference z_n / z_{n-1} - 2 as (num, den), n >= 1."""
    lo, mid = fib_pair(2 * n - 1)
    return mid - lo, lo


def series_numerators() -> Iterator[int]:
    """N_0, N_1, ... with S_n = N_n / 16**n."""
    numerator, catalan, k = 2, 1, 0
    while True:
        yield numerator
        term = 4 * catalan
        numerator = 16 * numerator + (term if k % 2 == 0 else -term)
        k += 1
        catalan = catalan * 2 * (2 * k - 1) // (k + 1)


def series_value(n: int) -> tuple[int, int]:
    for k, numerator in enumerate(series_numerators()):
        if k == n:
            return numerator, 16**n
    raise AssertionError("unreachable")


def phi_cf_value(depth: int) -> tuple[int, int]:
    q, p = fib_pair(depth + 1)
    return p, q


def phi_series_value(terms: int) -> tuple[int, int]:
    numerator, catalan = 13, 1
    for k in range(terms):
        catalan = catalan * 2 * (2 * k + 1) // (k + 2)  # Catalan(k + 1)
        numerator = 16 * numerator + (catalan if k % 2 else -catalan)
    return numerator, 1 << (4 * terms + 3)


def sqrt5_within(num: int, den: int, eps_num: int, eps_den: int) -> bool:
    """|num/den - sqrt(5)| < eps, decided exactly as (a-e)**2 < 5 < (a+e)**2."""
    scale = den * eps_den
    upper = num * eps_den + eps_num * den
    if upper * upper <= 5 * scale * scale:
        return False
    lower = num * eps_den - eps_num * den
    return lower <= 0 or lower * lower < 5 * scale * scale


def correct_digits(num: int, den: int) -> int:
    """Largest d >= 0 with num/den < 10**-d (num > 0)."""
    if num >= den:
        return 0
    d = max(0, (den.bit_length() - num.bit_length() - 1) * 30102 // 100000)
    while num * 10 ** (d + 1) < den:
        d += 1
    return d


def int_root(x: int, k: int) -> int:
    """Floor of the k-th root of x >= 0."""
    if x < 2 or k == 1:
        return x
    r = 1 << (x.bit_length() // k + 1)
    while True:
        s = ((k - 1) * r + x // r ** (k - 1)) // k
        if s >= r:
            break
        r = s
    while r**k > x:
        r -= 1
    while (r + 1) ** k <= x:
        r += 1
    return r


def powers_of_two(n: int) -> Iterator[decimal.Decimal]:
    """2**0 .. 2**n, the minimal super-increasing sequence."""
    term = decimal.Decimal(1)
    for _ in range(n + 1):
        yield term
        term = _EXACT.multiply(term, 2)


def extra_super(n: int) -> Iterator[decimal.Decimal]:
    """z_0 .. z_n of the minimal extra-super-increasing sequence."""
    prev, cur = decimal.Decimal(1), decimal.Decimal(2)
    yield prev
    for _ in range(n):
        yield cur
        prev, cur = cur, _EXACT.subtract(_EXACT.multiply(cur, 3), prev)


SEQUENCES = {"min-super": powers_of_two, "min-extra-super": extra_super}

# ---------------------------------------------------------------- searches


def series_within(n: int, digits: int) -> bool:
    return sqrt5_within(*series_value(n), 1, 10**digits)


def ratio_within(n: int, digits: int) -> bool:
    return sqrt5_within(*ratio_value(n), 1, 10**digits)


def is_min_index(within, n: int, digits: int) -> bool:
    """n reaches the target and n - 1 does not (indices start at 1)."""
    return n >= 1 and within(n, digits) and (n == 1 or not within(n - 1, digits))


def _strict_match(n: int, digits: int) -> bool:
    # |diff - (sqrt5 - 1)/2| < 10**-p  <=>  |2 diff + 1 - sqrt5| < 2 * 10**-p
    return sqrt5_within(*ratio_value(n), 2, 10**digits)


def _prefix_match(n: int, digits: int) -> bool:
    num, den = conjugate_diff(n)
    wanted = (math.isqrt(5 * 10 ** (2 * digits)) - 10**digits) // 2
    return num * 10**digits // den == wanted


def check_find_n(out: bytes, method: str, digits: int) -> str | None:
    match = re.fullmatch(rb"(\d+)\n", out)
    if not match:
        return f"malformed find-n output {out[:40]!r}"
    n = int(match.group(1))
    within = series_within if method == "series" else ratio_within
    if not is_min_index(within, n, digits):
        return f"{method} n={n} is not the first index within 10^-{digits}"
    return None


@lru_cache(maxsize=8)
def phi_match_indices(digits: int) -> tuple[int, int]:
    """First strict and first prefix match, by scanning n = 1, 2, ..."""
    strict = prefix = None
    n = 1
    while strict is None or prefix is None:
        if strict is None and _strict_match(n, digits):
            strict = n
        if prefix is None and _prefix_match(n, digits):
            prefix = n
        n += 1
    return strict, prefix


def check_phi_match(out: bytes, digits: int) -> str | None:
    match = re.fullmatch(
        rb"strict_error_n=(\d+) prefix_n=(\d+) claimed_n=(\d+)\n", out
    )
    if not match:
        return f"malformed phi-match output {out[:60]!r}"
    strict, prefix, claimed = (int(g) for g in match.groups())
    if not is_min_index(_strict_match, strict, digits):
        return f"strict_error_n={strict} is not the first strict match"
    if not is_min_index(_prefix_match, prefix, digits):
        return f"prefix_n={prefix} is not the first prefix match"
    if claimed != CLAIMED_PHI_MATCH_N:
        return f"claimed_n={claimed}"
    return None


# ---------------------------------------------------------------- values


def check_value(out: bytes, num: int, den: int, digits: int) -> str | None:
    expected = render(num, den, digits).encode() + b"\n"
    if out == expected:
        return None
    if len(out) != len(expected):
        return f"value has {len(out)} bytes, expected {len(expected)}"
    at = next(i for i, (a, b) in enumerate(zip(out, expected)) if a != b)
    return f"value differs at byte {at}"


def series_terminating_digits(num: int, n: int) -> int:
    """Fractional digits of the exact expansion of num / 16**n."""
    twos = (num & -num).bit_length() - 1 if num else 4 * n
    return 4 * n - min(twos, 4 * n)


def check_lines(out: bytes, terms) -> str | None:
    """Output is exactly one decimal term per line."""
    pos = 0
    for i, term in enumerate(terms):
        line = str(term).encode()
        end = pos + len(line)
        if out[pos:end] != line or out[end : end + 1] != b"\n":
            return f"line {i} differs"
        pos = end + 1
    if pos != len(out):
        return f"{len(out) - pos} unexpected trailing bytes"
    return None


# ---------------------------------------------------------------- compare


def _digits_agree(abs_error: str, digits: str) -> bool:
    """correct_digits is the count of leading fractional zeros of the truncated error.

    For truncated e with a nonzero digit at fractional position z + 1, the
    exact error lies in [10**-(z+1), 10**-z); an all-zero rendering only
    bounds it below 10**-D, so any count of at least D is consistent.
    """
    whole, _, frac = abs_error.partition(".")
    if not digits.isdigit():
        return False
    if whole.strip("0"):
        return digits == "0"
    zeros = len(frac) - len(frac.lstrip("0"))
    return int(digits) == zeros if zeros < len(frac) else int(digits) >= zeros


class CompareOracle:
    """Expected content of ``qrl compare --n-max N --ref-digits D``."""

    def __init__(self, n_max: int, ref_digits: int, targets: list[int]):
        self.n_max = n_max
        self.digits = ref_digits
        self.targets = sorted(set(targets))
        self.scale = 10**ref_digits
        self.reference = math.isqrt(5 * self.scale * self.scale)
        self._series = {}
        for n, numerator in enumerate(series_numerators()):
            if n > n_max:
                break
            self._series[n] = numerator

    def value(self, method: str, n: int) -> tuple[int, int]:
        if method == "series":
            return self._series[n], 16**n
        return ratio_value(n)

    def error(self, method: str, n: int) -> tuple[int, int, int]:
        """(sign, |num|, den) of approx - reference/10**D."""
        num, den = self.value(method, n)
        diff = num * self.scale - self.reference * den
        return (diff > 0) - (diff < 0), abs(diff), den * self.scale

    def row(self, method: str, n: int) -> tuple[str, ...]:
        num, den = self.value(method, n)
        sign, err_num, err_den = self.error(method, n)
        digits = correct_digits(err_num, err_den) if err_num else self.digits
        return (
            method,
            str(n),
            render(num, den, self.digits),
            render(err_num, err_den, self.digits),
            str(sign),
            str(digits),
        )

    def rate(self, method: str) -> str:
        half = self.n_max // 2
        steps = self.n_max - half
        _, first_num, first_den = self.error(method, half)
        _, last_num, last_den = self.error(method, self.n_max)
        if not first_num or not last_num:
            return render(0, 1, RATE_DIGITS)
        num, den = last_num * first_den, last_den * first_num
        scaled = num * 10 ** (RATE_DIGITS * steps) // den
        return render(int_root(scaled, steps), 10**RATE_DIGITS, RATE_DIGITS)

    def first_n_ok(self, digits: int, series_n: int, ratio_n: int) -> bool:
        return is_min_index(series_within, series_n, digits) and is_min_index(
            ratio_within, ratio_n, digits
        )

    def sample(self, seed: int) -> list[int]:
        rng = random.Random(seed)
        picks = rng.sample(range(1, self.n_max + 1), min(ROW_SAMPLES, self.n_max))
        return sorted({1, self.n_max, *picks})

    def check(self, out: bytes, fmt: str, seed: int) -> str | None:
        checker = {"json": self._check_json, "csv": self._check_csv, "table": self._check_table}
        try:
            return checker[fmt](out, self.sample(seed))
        except (ValueError, KeyError, TypeError, IndexError) as err:
            return f"unparseable {fmt} report: {type(err).__name__}: {err}"

    def _rows_ok(self, rows, samples) -> str | None:
        """rows: per method, a list of 6-tuples of cell strings in n order."""
        width = len("2.") + self.digits  # approx and abs_error both have one integer digit
        for method, cells in rows:
            if len(cells) != self.n_max:
                return f"{method}: {len(cells)} rows, expected {self.n_max}"
            for n, row in enumerate(cells, 1):
                if (
                    len(row) != 6
                    or row[0] != method
                    or row[1] != str(n)
                    or len(row[2]) != width
                    or len(row[3]) != width
                    or row[4] not in ("1", "-1")
                    or not _digits_agree(row[3], row[5])
                ):
                    return f"{method} row {n} malformed: {','.join(row)[:60]!r}"
            for n in samples:
                expected = self.row(method, n)
                if tuple(cells[n - 1]) != expected:
                    return f"{method} row {n} differs from the oracle"
        return None

    def _check_json(self, out: bytes, samples) -> str | None:
        text = out.decode("utf-8")
        payload = json.loads(text)
        if json.dumps(payload, indent=2) + "\n" != text:
            return "json report is not in canonical indent-2 form"
        head = {
            "n_max": self.n_max,
            "ref_digits": self.digits,
            "series_rate_estimate": self.rate("series"),
            "ratio_rate_estimate": self.rate("ratio"),
        }
        for key, want in head.items():
            if payload[key] != want:
                return f"{key} is {payload[key]!r}, expected {want!r}"
        reach = payload["first_n_to_reach"]
        if sorted(reach, key=int) != [str(d) for d in self.targets]:
            return f"first_n_to_reach keys {sorted(reach)}"
        for d in self.targets:
            pair = reach[str(d)]
            if not self.first_n_ok(d, pair["series"], pair["ratio"]):
                return f"first_n_to_reach[{d}] = {pair} is wrong"
        match = payload["phi_match"]
        found = (match["requested_digits"], match["strict_error_n"], match["prefix_n"], match["claimed_n"])
        if found != (PHI_MATCH_DIGITS, *phi_match_indices(PHI_MATCH_DIGITS), CLAIMED_PHI_MATCH_N):
            return f"phi_match {match} is wrong"
        fields = ("n", "approx", "abs_error", "error_sign", "correct_digits")
        rows = [
            (method, [(method, *(str(r[f]) for f in fields)) for r in payload[f"{method}_records"]])
            for method in ("series", "ratio")
        ]
        return self._rows_ok(rows, samples)

    def _check_csv(self, out: bytes, samples) -> str | None:
        lines = out.decode("utf-8").split("\n")
        if lines[0] != CSV_HEADER or lines[-1] != "":
            return "csv header or final newline missing"
        body = [line.split(",") for line in lines[1:-1]]
        rows = [("series", body[: self.n_max]), ("ratio", body[self.n_max :])]
        return self._rows_ok(rows, samples)

    def _check_table(self, out: bytes, samples) -> str | None:
        lines = out.decode("utf-8").split("\n")
        strict, prefix = phi_match_indices(PHI_MATCH_DIGITS)
        head = [
            f"comparison sweep to n={self.n_max} against a {self.digits}-digit reference",
            f"series rate estimate: {self.rate('series')}",
            f"ratio rate estimate:  {self.rate('ratio')}",
        ]
        reach = lines[3 : 3 + len(self.targets)]
        head_ok = lines[:3] == head and lines[3 + len(self.targets)] == (
            f"conjugate match at {PHI_MATCH_DIGITS} digits: strict n={strict}, "
            f"prefix n={prefix}, claimed n={CLAIMED_PHI_MATCH_N}"
        )
        if not head_ok:
            return "table header lines differ from the oracle"
        for d, line in zip(self.targets, reach):
            found = re.fullmatch(rf"first n to reach {d} digits: series (\d+), ratio (\d+)", line)
            if not found or not self.first_n_ok(d, *map(int, found.groups())):
                return f"table line {line!r} is wrong"
        start = 3 + len(self.targets) + 2
        if lines[start - 1] != "" or lines[-1] != "":
            return "table layout lines missing"
        grid = [line.split() for line in lines[start:-1]]
        header = ("method", "n", "approx", "abs_error", "sign", "correct")
        if tuple(grid[0]) != header:
            return "table column header differs"
        widths = [max(len(row[c]) for row in grid) for c in range(len(header))]
        for line, row in zip(lines[start:-1], grid):
            if line != "  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip():
                return f"table row not aligned: {line[:60]!r}"
        body = [[row[0], row[1], row[2], row[3], str(int(row[4])), row[5]] for row in grid[1:]]
        if any(row[4][0] not in "+-" for row in grid[1:]):
            return "table sign column is not signed"
        rows = [("series", body[: self.n_max]), ("ratio", body[self.n_max :])]
        return self._rows_ok(rows, samples)
