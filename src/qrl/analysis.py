"""Convergence comparison between the two sqrt(5) methods, plus serialization.

A comparison report sweeps both approximation methods over n = 1..n_max
against the integer-square-root reference, records per-n error data, fits a
per-step convergence rate (geometric mean of successive error ratios over the
back half of the sweep, where small-n transients have died down), scans for
the first n reaching each requested digit target, and embeds the conjugate
match experiment.

All serialization is deterministic: stable key order, stable column order,
decimal strings rather than binary floats.  Identical inputs produce
byte-identical output.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .exact import (
    DecimalString,
    correct_digits,
    int_nth_root,
    rational_to_decimal,
    sqrt5_reference_fraction,
)
from .ratio import PhiMatchResult, find_min_n, iter_ratio_records, phi_match_report
from .series import iter_partial_sums

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


def _record(n: int, value: Fraction, reference: Fraction, ref_digits: int) -> tuple[ConvergenceRecord, Fraction]:
    error = value - reference
    magnitude = abs(error)
    if error > 0:
        sign = 1
    elif error < 0:
        sign = -1
    else:
        sign = 0
    digits = correct_digits(magnitude) if magnitude else ref_digits
    record = ConvergenceRecord(
        n=n,
        approx=rational_to_decimal(value, ref_digits),
        abs_error=rational_to_decimal(magnitude, ref_digits),
        error_sign=sign,
        correct_digits=digits,
    )
    return record, magnitude


def _rate_estimate(errors: Sequence[Fraction], digits: int = RATE_ESTIMATE_DIGITS) -> DecimalString:
    """Geometric mean of successive error ratios over the back half.

    Equals (err[last] / err[first_of_back_half]) ** (1/steps); the root is
    taken with exact integer arithmetic and the result truncated.
    """
    n_max = len(errors)
    half = n_max // 2
    steps = n_max - half
    if errors[half - 1] == 0 or errors[n_max - 1] == 0:
        # an approximant hit the truncated reference exactly; no rate to fit
        return rational_to_decimal(Fraction(0), digits)
    overall = errors[n_max - 1] / errors[half - 1]
    scale = 10 ** (digits * steps)
    scaled = overall.numerator * scale // overall.denominator
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
    reference = sqrt5_reference_fraction(ref_digits)

    series_records = []
    series_errors = []
    for n, partial in iter_partial_sums():
        if n == 0:
            continue
        if n > n_max:
            break
        record, error = _record(n, partial, reference, ref_digits)
        series_records.append(record)
        series_errors.append(error)

    ratio_records = []
    ratio_errors = []
    for sweep in iter_ratio_records():
        if sweep.index > n_max:
            break
        record, error = _record(sweep.index, sweep.sqrt5_approx, reference, ref_digits)
        ratio_records.append(record)
        ratio_errors.append(error)

    first_n = {d: (find_min_n("series", d), find_min_n("ratio", d)) for d in targets}
    return ComparisonReport(
        n_max=n_max,
        ref_digits=ref_digits,
        series_records=tuple(series_records),
        ratio_records=tuple(ratio_records),
        series_rate_estimate=_rate_estimate(series_errors),
        ratio_rate_estimate=_rate_estimate(ratio_errors),
        first_n_to_reach=first_n,
        phi_match=phi_match_report(36),
    )


def _records_payload(records: tuple[ConvergenceRecord, ...]) -> list[dict]:
    return [
        {
            "n": r.n,
            "approx": str(r.approx),
            "abs_error": str(r.abs_error),
            "error_sign": r.error_sign,
            "correct_digits": r.correct_digits,
        }
        for r in records
    ]


def _to_json(report: ComparisonReport) -> str:
    payload = {
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
        "series_records": _records_payload(report.series_records),
        "ratio_records": _records_payload(report.ratio_records),
    }
    return json.dumps(payload, indent=2) + "\n"


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
    lines = [CSV_HEADER]
    for method, records in (
        ("series", report.series_records),
        ("ratio", report.ratio_records),
    ):
        for r in records:
            lines.append(
                f"{method},{r.n},{r.approx},{r.abs_error},{r.error_sign},{r.correct_digits}"
            )
    return "\n".join(lines) + "\n"


def _to_table(report: ComparisonReport) -> str:
    rows = []
    for method, records in (
        ("series", report.series_records),
        ("ratio", report.ratio_records),
    ):
        for r in records:
            rows.append(
                (
                    method,
                    str(r.n),
                    str(r.approx),
                    str(r.abs_error),
                    f"{r.error_sign:+d}",
                    str(r.correct_digits),
                )
            )
    header = ("method", "n", "approx", "abs_error", "sign", "correct")
    widths = [
        max(len(header[col]), max(len(row[col]) for row in rows))
        for col in range(len(header))
    ]

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
    lines.append(fmt(header))
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines) + "\n"


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
