"""Convergence comparison between the two sqrt(5) methods, plus serialization.

A comparison report sweeps both approximation methods over n = 1..n_max,
reading each approximant as an integer pair p/q from
:func:`qrl.ratio.iter_approximants` (z_n pairs for the ratio method, N_n over
16**n for the series).  Each record is scored in fixed point against the
integer-square-root reference R = floor(sqrt(5) * 10**D): the scaled error is
the integer gap p * 10**D - R * q over q, so approximants, errors and digit
counts come from integer floors, not from ``Fraction`` arithmetic.  The
report fits a per-step convergence rate (geometric mean of successive error
ratios over the back half of the sweep, where small-n transients have died
down), scans for the first n reaching each requested digit target, and
embeds the conjugate match experiment.

All serialization is deterministic: stable key order, stable column order,
decimal strings rather than binary floats.  Identical inputs produce
byte-identical output.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Iterable

from .exact import (
    DecimalString,
    correct_digits,
    int_nth_root,
    rational_to_decimal,
    render_scaled,
    sqrt5_floor,
)
from .ratio import PhiMatchResult, find_min_n, iter_approximants, phi_match_report

RATE_ESTIMATE_DIGITS = 9

# Reports carry this many reference digits beyond the largest digit target.
REF_DIGITS_MARGIN = 10

CSV_HEADER = "method,n,approx,abs_error,error_sign,correct_digits"

REPORT_FORMATS = ("csv", "json", "table")


@dataclass(frozen=True)
class ConvergenceRecord:
    """Error data for one approximant index."""

    n: int
    approx: DecimalString
    abs_error: DecimalString
    error_sign: int
    correct_digits: int


@dataclass(frozen=True)
class ComparisonReport:
    n_max: int
    ref_digits: int
    series_records: tuple[ConvergenceRecord, ...]
    ratio_records: tuple[ConvergenceRecord, ...]
    series_rate_estimate: DecimalString
    ratio_rate_estimate: DecimalString
    first_n_to_reach: dict[int, tuple[int, int]]
    phi_match: PhiMatchResult


def _record(
    n: int, p: int, q: int, root: int, scale: int, ref_digits: int
) -> tuple[ConvergenceRecord, tuple[int, int]]:
    """Record for p/q against root / scale, where scale = 10**ref_digits.

    Also returns the error times ``scale`` as the pair (|gap|, q).
    """
    gap = p * scale - root * q
    magnitude = abs(gap)
    abs_error = render_scaled(1, magnitude // q, ref_digits)
    if abs_error.int_part != "0":
        digits = 0
    elif magnitude >= q:
        # |error| < 10**-d  <=>  floor(|error| * scale) < 10**(ref_digits - d)
        digits = ref_digits - len(abs_error.frac_part.lstrip("0"))
    elif magnitude:
        digits = correct_digits(Fraction(magnitude, q * scale))
    else:
        digits = ref_digits
    record = ConvergenceRecord(
        n=n,
        approx=render_scaled(1, p * scale // q, ref_digits),
        abs_error=abs_error,
        error_sign=(gap > 0) - (gap < 0),
        correct_digits=digits,
    )
    return record, (magnitude, q)


def _rate_estimate(
    first: tuple[int, int], last: tuple[int, int], steps: int,
    digits: int = RATE_ESTIMATE_DIGITS,
) -> DecimalString:
    """Geometric mean of the ``steps`` successive error ratios from ``first`` to ``last``.

    The errors are integer pairs (num, den), scaled by any common factor.
    Equals (last / first) ** (1/steps); the root is taken with exact integer
    arithmetic and the result truncated.
    """
    (first_num, first_den), (last_num, last_den) = first, last
    if first_num == 0 or last_num == 0:
        # an approximant hit the truncated reference exactly; no rate to fit
        return rational_to_decimal(Fraction(0), digits)
    scale = 10 ** (digits * steps)
    scaled = last_num * first_den * scale // (last_den * first_num)
    root = int_nth_root(scaled, steps)
    return rational_to_decimal(Fraction(root, 10 ** digits), digits)


def build_comparison(
    n_max: int, ref_digits: int, digit_targets: Iterable[int]
) -> ComparisonReport:
    """Sweep both methods to ``n_max`` and assemble the full report.

    The embedded conjugate match experiment runs at 36 digits.
    """
    targets = sorted(set(digit_targets))
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    if targets and targets[0] < 1:
        raise ValueError("digit targets must be at least 1")
    if targets and ref_digits < targets[-1] + REF_DIGITS_MARGIN:
        raise ValueError(
            f"ref_digits must be at least max(digit_targets) + {REF_DIGITS_MARGIN}"
        )
    root = sqrt5_floor(ref_digits)
    scale = 10 ** ref_digits
    # The rate fit reads the errors at n = half and n = n_max, the ends of the back half.
    half = n_max // 2
    records = {}
    rates = {}
    for method in ("series", "ratio"):
        rows = []
        for n, p, q in islice(iter_approximants(method), n_max):
            record, error = _record(n, p, q, root, scale, ref_digits)
            rows.append(record)
            if n == half:
                first = error
        records[method] = tuple(rows)
        rates[method] = _rate_estimate(first, error, n_max - half)

    first_n = {d: (find_min_n("series", d), find_min_n("ratio", d)) for d in targets}
    return ComparisonReport(
        n_max=n_max,
        ref_digits=ref_digits,
        series_records=records["series"],
        ratio_records=records["ratio"],
        series_rate_estimate=rates["series"],
        ratio_rate_estimate=rates["ratio"],
        first_n_to_reach=first_n,
        phi_match=phi_match_report(36),
    )


def _json_record(r: ConvergenceRecord, end: str) -> str:
    # One records-array element as json.dumps(..., indent=2) lays it out; the
    # decimal strings hold only digits, "." and "-", so nothing needs escaping.
    return (
        f'    {{\n      "n": {r.n},\n      "approx": "{r.approx}",\n'
        f'      "abs_error": "{r.abs_error}",\n      "error_sign": {r.error_sign},\n'
        f'      "correct_digits": {r.correct_digits}\n    }}{end}'
    )


def _to_json(report: ComparisonReport) -> str:
    head = {
        "n_max": report.n_max,
        "ref_digits": report.ref_digits,
        "series_rate_estimate": str(report.series_rate_estimate),
        "ratio_rate_estimate": str(report.ratio_rate_estimate),
        "first_n_to_reach": {
            str(d): {"series": pair[0], "ratio": pair[1]}
            for d, pair in sorted(report.first_n_to_reach.items())
        },
        "phi_match": {
            "requested_digits": report.phi_match.requested_digits,
            "strict_error_n": report.phi_match.strict_error_n,
            "prefix_n": report.phi_match.prefix_n,
            "claimed_n": report.phi_match.claimed_n,
        },
    }
    # Each records element is one string, so every decimal string is copied
    # once on its way to the output; the layout is byte for byte that of
    # json.dumps(..., indent=2) on the full payload.
    pieces = [json.dumps(head, indent=2).removesuffix("\n}")]
    for key, records in (
        ("series_records", report.series_records),
        ("ratio_records", report.ratio_records),
    ):
        pieces.append(f',\n  "{key}": [\n')
        last = len(records) - 1
        pieces.extend(
            _json_record(r, ",\n" if i < last else "\n  ]") for i, r in enumerate(records)
        )
    pieces.append("\n}\n")
    return "".join(pieces)


def report_from_json(data: bytes | str) -> ComparisonReport:
    """Rebuild a report from its JSON serialization (round-trip inverse)."""
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    payload = json.loads(data)

    def records(rows):
        return tuple(
            ConvergenceRecord(
                n=row["n"],
                approx=DecimalString.parse(row["approx"]),
                abs_error=DecimalString.parse(row["abs_error"]),
                error_sign=row["error_sign"],
                correct_digits=row["correct_digits"],
            )
            for row in rows
        )

    match = payload["phi_match"]
    return ComparisonReport(
        n_max=payload["n_max"],
        ref_digits=payload["ref_digits"],
        series_records=records(payload["series_records"]),
        ratio_records=records(payload["ratio_records"]),
        series_rate_estimate=DecimalString.parse(payload["series_rate_estimate"]),
        ratio_rate_estimate=DecimalString.parse(payload["ratio_rate_estimate"]),
        first_n_to_reach={
            int(d): (pair["series"], pair["ratio"])
            for d, pair in payload["first_n_to_reach"].items()
        },
        phi_match=PhiMatchResult(
            requested_digits=match["requested_digits"],
            strict_error_n=match["strict_error_n"],
            prefix_n=match["prefix_n"],
            claimed_n=match["claimed_n"],
        ),
    )


def _to_csv(report: ComparisonReport) -> str:
    pieces = [CSV_HEADER + "\n"]
    for method, records in (
        ("series", report.series_records),
        ("ratio", report.ratio_records),
    ):
        pieces.extend(
            f"{method},{r.n},{r.approx},{r.abs_error},{r.error_sign},{r.correct_digits}\n"
            for r in records
        )
    return "".join(pieces)


_TABLE_HEADER = ("method", "n", "approx", "abs_error", "sign", "correct")


def _table_cells(method: str, r: ConvergenceRecord) -> tuple[str, ...]:
    return (
        method,
        str(r.n),
        str(r.approx),
        str(r.abs_error),
        f"{r.error_sign:+d}",
        str(r.correct_digits),
    )


def _to_table(report: ComparisonReport) -> str:
    sections = (("series", report.series_records), ("ratio", report.ratio_records))
    # Two passes over the records, widths first, so that no row outlives its line.
    widths = [len(cell) for cell in _TABLE_HEADER]
    for method, records in sections:
        for r in records:
            widths = [max(w, len(c)) for w, c in zip(widths, _table_cells(method, r))]

    def fmt(row):
        return "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()

    match = report.phi_match
    lines = [
        f"comparison sweep to n={report.n_max} against a {report.ref_digits}-digit reference",
        f"series rate estimate: {report.series_rate_estimate}",
        f"ratio rate estimate:  {report.ratio_rate_estimate}",
    ]
    for d, (series_n, ratio_n) in sorted(report.first_n_to_reach.items()):
        lines.append(f"first n to reach {d} digits: series {series_n}, ratio {ratio_n}")
    lines.append(
        f"conjugate match at {match.requested_digits} digits: "
        f"strict n={match.strict_error_n}, prefix n={match.prefix_n}, "
        f"claimed n={match.claimed_n}"
    )
    lines.append("")
    lines.append(fmt(_TABLE_HEADER))
    pieces = ["\n".join(lines) + "\n"]
    pieces.extend(
        fmt(_table_cells(method, r)) + "\n" for method, records in sections for r in records
    )
    return "".join(pieces)


def emit_report(report: ComparisonReport, format: str) -> bytes:
    """Serialize deterministically to one of csv, json, or table."""
    if format == "csv":
        text = _to_csv(report)
    elif format == "json":
        text = _to_json(report)
    elif format == "table":
        text = _to_table(report)
    else:
        raise ValueError(f"unknown report format {format!r}")
    return text.encode("utf-8")
