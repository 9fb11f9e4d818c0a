"""Seeded op streams for the qrl benchmark.

An op is one command line for ``qrl.cli.main`` plus the oracle check of its
stdout.  A workload is a list of op kinds; each kind spans its stated input
range with a grid of points whose two ends are exact and whose interior points
are jittered a little by the seed.  One round runs every grid point of every
kind once, in a seeded order, so any whole number of rounds covers each range
evenly and every seed hits the same range ends.  Every round of a run holds
the same ops, so each op's latency can be taken as its median over rounds.
The same workload and seed always give the same rounds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterator

import oracle

# Written just before a ``seq check`` op and removed after it; relative to the
# checkout root, which the runner makes the working directory.
CHECK_FILE = ".bench_tmp/check.seq"
REPORT_FORMATS = ("json", "csv", "table")
REPORT_TARGETS = "5,50"


@dataclass(frozen=True)
class Op:
    kind: str
    argv: tuple[str, ...]
    check: Callable[[bytes], "str | None"]
    # Terms to write to CHECK_FILE before the op runs, if it reads a file.
    input_terms: Callable[[], Iterator] | None = None


@dataclass(frozen=True)
class Kind:
    name: str
    ranges: tuple[tuple[int, int], ...]  # one (lo, hi) per drawn parameter
    make: Callable[..., Op]
    points: int = 4


# Interior grid points move by up to this share of a step.  Op cost grows
# steeply with size, so a wider jitter makes throughput, tail latency and peak
# memory depend on the seed more than on the program.
JITTER = 1 / 16


def grid(lo: int, hi: int, points: int, rng: random.Random) -> list[int]:
    """``points`` values spanning [lo, hi]; interior ones jittered by the seed."""
    step = (hi - lo) / (points - 1)
    values = []
    for j in range(points):
        jitter = rng.uniform(-step, step) * JITTER if 0 < j < points - 1 else 0.0
        values.append(round(lo + j * step + jitter))
    return values


# ------------------------------------------------------------------ search


def _find_n(method: str) -> Callable[[int], Op]:
    def make(digits: int) -> Op:
        return Op(
            f"find-n-{method}",
            ("sqrt5", "find-n", "--method", method, "--digits", str(digits)),
            lambda out: oracle.check_find_n(out, method, digits),
        )

    return make


def _phi_match(digits: int) -> Op:
    return Op(
        "phi-match",
        ("phi-match", "--digits", str(digits)),
        lambda out: oracle.check_phi_match(out, digits),
    )


# ------------------------------------------------------------------ report


def _compare(fmt: str) -> Callable[[int, int], Op]:
    def make(n_max: int, sample_seed: int) -> Op:
        targets = [int(t) for t in REPORT_TARGETS.split(",")]
        argv = (
            "compare", "--n-max", str(n_max), "--ref-digits", str(n_max),
            "--targets", REPORT_TARGETS, "--format", fmt,
        )
        return Op(
            f"compare-{fmt}",
            argv,
            lambda out: oracle.CompareOracle(n_max, n_max, targets).check(out, fmt, sample_seed),
        )

    return make


# ------------------------------------------------------------------ values


def _sqrt5_series(n: int) -> Op:
    def check(out: bytes):
        num, den = oracle.series_value(n)
        return oracle.check_value(out, num, den, oracle.series_terminating_digits(num, n))

    return Op("sqrt5-series", ("sqrt5", "--method", "series", "--n", str(n)), check)


def _sqrt5_ratio(n: int, digits: int) -> Op:
    return Op(
        "sqrt5-ratio",
        ("sqrt5", "--method", "ratio", "--n", str(n), "--digits", str(digits)),
        lambda out: oracle.check_value(out, *oracle.ratio_value(n), digits),
    )


def _phi(method: str, value: Callable[[int], tuple[int, int]]) -> Callable[[int, int], Op]:
    def make(n: int, digits: int) -> Op:
        return Op(
            f"phi-{method}",
            ("phi", "--method", method, "--n", str(n), "--digits", str(digits)),
            lambda out: oracle.check_value(out, *value(n), digits),
        )

    return make


def _seq_gen(kind: str) -> Callable[[int], Op]:
    terms = oracle.SEQUENCES[kind]

    def make(n: int) -> Op:
        return Op(
            f"seq-gen-{kind}",
            ("seq", "gen", "--kind", kind, "--n", str(n)),
            lambda out: oracle.check_lines(out, terms(n)),
        )

    return make


def _seq_check(kind: str, sequence: str) -> Callable[[int], Op]:
    terms = oracle.SEQUENCES[sequence]

    def make(n: int) -> Op:
        return Op(
            f"seq-check-{kind}",
            ("seq", "check", "--kind", kind, "--file", CHECK_FILE),
            lambda out: None if out == b"valid\n" else f"verdict {out[:60]!r}",
            lambda: terms(n),
        )

    return make


# The values ranges cross CPython's 4300-digit int/str limit on purpose: 2**n
# passes it at n = 14285 and z_n near n = 10290, so the top of each seq range
# fails in the seed program.  Those failures are counted, not filtered out.
WORKLOADS: dict[str, tuple[Kind, ...]] = {
    "search": (
        Kind("find-n-ratio", ((500, 2000),), _find_n("ratio"), 5),
        Kind("find-n-series", ((300, 1000),), _find_n("series"), 5),
        Kind("phi-match", ((500, 1500),), _phi_match, 5),
    ),
    "report": tuple(
        Kind(f"compare-{fmt}", ((300, 1000), (0, 2**31)), _compare(fmt), 5)
        for fmt in REPORT_FORMATS
    ),
    "values": (
        Kind("sqrt5-series", ((1000, 3000),), _sqrt5_series, 8),
        Kind("sqrt5-ratio", ((5000, 30000), (2000, 20000)), _sqrt5_ratio, 8),
        Kind("phi-cf", ((5000, 40000), (2000, 20000)), _phi("cf", oracle.phi_cf_value), 8),
        Kind("phi-series", ((500, 2000), (500, 2000)), _phi("series", oracle.phi_series_value), 8),
        Kind("seq-gen-min-super", ((4000, 16000),), _seq_gen("min-super")),
        Kind("seq-gen-min-extra-super", ((2000, 12000),), _seq_gen("min-extra-super")),
        Kind("seq-check-super", ((4000, 16000),), _seq_check("super", "min-super")),
        Kind("seq-check-extra-super", ((2000, 12000),), _seq_check("extra-super", "min-extra-super")),
    ),
}


def kind_ops(kind: Kind, rng: random.Random) -> list[Op]:
    """One op per grid point; parameters pair up by grid position."""
    columns = [grid(lo, hi, kind.points, rng) for lo, hi in kind.ranges]
    return [kind.make(*params) for params in zip(*columns)]


def rounds(workload: str, seed: int) -> Iterator[list[Op]]:
    """Endless stream of rounds: the same ops, drawn once per seed, each round in a new seeded order."""
    rng = random.Random(f"{workload}/{seed}")
    ops = [op for kind in WORKLOADS[workload] for op in kind_ops(kind, rng)]
    r = 0
    while True:
        order = list(ops)
        random.Random(f"{workload}/{seed}/{r}").shuffle(order)
        yield order
        r += 1
