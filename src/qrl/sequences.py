"""Generators and validators for super-increasing integer sequences.

A sequence of positive integers is *super-increasing* when each term exceeds
the plain sum of all earlier terms, and *extra-super-increasing* when each
term z_i exceeds the distance-weighted sum of the earlier terms,
sum((i - j) * z_j for j < i).  The minimal variants start at 1 and sit
exactly one above the bound at every index, which makes them the smallest
sequences admissible under each rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator

SEQUENCE_KINDS = (
    "generic",
    "super",
    "extra_super",
    "minimal_super",
    "minimal_extra_super",
)

VIOLATION_NON_POSITIVE = "non_positive_term"
VIOLATION_SUM = "sum_inequality_failed"
NO_VIOLATION = "none"


@dataclass(frozen=True)
class IntSequence:
    """An ordered, non-empty tuple of integers tagged with its kind."""

    terms: tuple[int, ...]
    kind: str = "generic"

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", tuple(self.terms))
        if self.kind not in SEQUENCE_KINDS:
            raise ValueError(f"unknown sequence kind {self.kind!r}")
        if not self.terms:
            raise ValueError("sequence must be non-empty")
        if self.kind in ("minimal_super", "minimal_extra_super") and self.terms[0] != 1:
            raise ValueError(f"{self.kind} sequences must start at 1")

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self) -> Iterator[int]:
        return iter(self.terms)

    def __getitem__(self, index):
        return self.terms[index]


@dataclass(frozen=True)
class ValidationResult:
    """Structured verdict: validity, first offending index, and why."""

    valid: bool
    first_violation_index: int | None
    reason: str

    @classmethod
    def ok(cls) -> "ValidationResult":
        return cls(True, None, NO_VIOLATION)

    @classmethod
    def violation(cls, index: int, reason: str) -> "ValidationResult":
        return cls(False, index, reason)


def _terms_of(seq: IntSequence | Iterable[int]) -> tuple[int, ...]:
    terms = seq.terms if isinstance(seq, IntSequence) else tuple(seq)
    if not terms:
        raise ValueError("cannot validate an empty sequence")
    return terms


def is_super_increasing(seq: IntSequence | Iterable[int]) -> ValidationResult:
    """Check that every term is positive and exceeds the sum of its predecessors."""
    terms = _terms_of(seq)
    running = 0
    for i, term in enumerate(terms):
        if term <= 0:
            return ValidationResult.violation(i, VIOLATION_NON_POSITIVE)
        if i >= 1 and term <= running:
            return ValidationResult.violation(i, VIOLATION_SUM)
        running += term
    return ValidationResult.ok()


def is_extra_super_increasing(seq: IntSequence | Iterable[int]) -> ValidationResult:
    """Check term positivity and the distance-weighted sum inequality.

    The weighted bound is updated incrementally: moving the pivot from i to
    i+1 adds one more copy of every term before it, so the bound grows by the
    plain prefix sum.  This is an algebraic restatement of the definition and
    holds for arbitrary sequences.
    """
    terms = _terms_of(seq)
    weighted = 0
    prefix = 0
    for i, term in enumerate(terms):
        if term <= 0:
            return ValidationResult.violation(i, VIOLATION_NON_POSITIVE)
        if i >= 1 and term <= weighted:
            return ValidationResult.violation(i, VIOLATION_SUM)
        prefix += term
        weighted += prefix
    return ValidationResult.ok()


def minimal_super(n: int) -> IntSequence:
    """First n+1 terms of the minimal super-increasing sequence.

    Built from the defining sum: each term is one more than the total of all
    earlier terms.  Equals the powers of two.
    """
    if n < 0:
        raise ValueError("sequence length index must be nonnegative")
    terms = [1]
    total = 1
    for _ in range(n):
        nxt = 1 + total
        terms.append(nxt)
        total += nxt
    return IntSequence(tuple(terms), "minimal_super")


def minimal_super_fast(n: int) -> IntSequence:
    """Closed-form doubling construction of :func:`minimal_super`."""
    if n < 0:
        raise ValueError("sequence length index must be nonnegative")
    return IntSequence(tuple(1 << i for i in range(n + 1)), "minimal_super")


def minimal_extra_super(n: int) -> IntSequence:
    """First n+1 terms of the minimal extra-super-increasing sequence.

    Evaluates the defining weighted sum directly, term by term; quadratic in
    n, and deliberately so: this is the reference the fast recurrence is
    checked against.
    """
    if n < 0:
        raise ValueError("sequence length index must be nonnegative")
    terms = [1]
    for i in range(1, n + 1):
        acc = 1
        for j in range(i):
            acc += (i - j) * terms[j]
        terms.append(acc)
    return IntSequence(tuple(terms), "minimal_extra_super")


def iter_minimal_extra_super() -> Iterator[int]:
    """Endless stream z_0, z_1, ... of the minimal extra-super-increasing sequence.

    Uses z_0 = 1, z_1 = 2, z_i = 3*z_{i-1} - z_{i-2}, started one step early
    from z_{-1} = 1; the equivalence with the definitional construction is
    established by the test suite, not assumed here.
    """
    prev, cur = 1, 1
    while True:
        yield cur
        prev, cur = cur, 3 * cur - prev


def minimal_extra_super_fast(n: int) -> IntSequence:
    """Linear-time equivalent of :func:`minimal_extra_super`.

    The first n+1 terms of :func:`iter_minimal_extra_super`.
    """
    if n < 0:
        raise ValueError("sequence length index must be nonnegative")
    return IntSequence(
        tuple(islice(iter_minimal_extra_super(), n + 1)), "minimal_extra_super"
    )


def read_sequence_file(path) -> IntSequence:
    """Read a sequence file: one integer per line.

    Blank lines and '#' comments are ignored; an optional leading '+' or '-'
    is accepted.  Raises ValueError with the line number on malformed input.
    """
    terms = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            body = line[1:] if line[0] in "+-" else line
            if not body or not body.isascii() or not body.isdigit():
                raise ValueError(f"line {lineno}: not an integer: {line!r}")
            terms.append(int(line))
    if not terms:
        raise ValueError("sequence file contains no terms")
    return IntSequence(tuple(terms), "generic")
