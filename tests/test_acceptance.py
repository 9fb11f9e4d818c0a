"""Acceptance gate: one check per exit criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the pass/fail lines.

Two checks are red on purpose.  They pin externally published expectations
that exact arithmetic contradicts, and weakening them to pass would hide
that: the term-ratio table check (three published entries are misprinted in
their final digit; the exact expansions are given in the failure message)
and the small-n series rate band (the error ratio provably approaches 1/4
like 1 - 3/(2n) and is farther than 2 percent from 1/4 for all n below 74).
Every other check passes.
"""

import os
import subprocess
import sys
from fractions import Fraction
from itertools import islice

from qrl.exact import (
    rational_to_decimal,
    sqrt5_reference,
    sqrt5_reference_fraction,
    terminating_digits,
)
from qrl.golden import phi_conjugate, phi_continued_fraction, phi_oracle, phi_series_partial
from qrl.ratio import (
    iter_ratio_records,
    phi_match_report,
    ratio_diff,
    sqrt5_via_ratio,
    term_ratio_nu,
)
from qrl.analysis import build_comparison, emit_report
from qrl.sequences import (
    is_extra_super_increasing,
    is_super_increasing,
    minimal_extra_super,
    minimal_extra_super_fast,
    minimal_super,
)
from qrl.series import iter_partial_sums, sqrt5_series_partial

from reference_data import (
    DIFF_PRINTED,
    NU_PRINTED,
    PHI_36,
    PHI_CONJUGATE_36,
    SERIES_PARTIAL_DECIMALS,
    Z_16,
)


def gate(label, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, detail or label


def frac_digits_of(text):
    return len(text.partition(".")[2])


def test_criterion_01_series_ladder_bit_exact():
    mismatches = []
    for n, expected in SERIES_PARTIAL_DECIMALS.items():
        value = sqrt5_series_partial(n)
        rendered = str(rational_to_decimal(value, terminating_digits(value)))
        if rendered != expected:
            mismatches.append((n, rendered, expected))
    gate(
        "01 series partial sums render bit-exactly (n = 1..10)",
        not mismatches,
        f"mismatches: {mismatches}",
    )


def test_criterion_02_term_ratio_tables_as_published():
    mismatches = []
    for i, expected in NU_PRINTED.items():
        got = str(rational_to_decimal(term_ratio_nu(i), frac_digits_of(expected)))
        if got != expected:
            longer = str(rational_to_decimal(term_ratio_nu(i), frac_digits_of(expected) + 6))
            mismatches.append(f"nu i={i}: truncation {got} (expansion {longer}...) vs published {expected}")
    for i, expected in DIFF_PRINTED.items():
        got = str(rational_to_decimal(ratio_diff(i), frac_digits_of(expected)))
        if got != expected:
            mismatches.append(f"diff i={i}: truncation {got} vs published {expected}")
    ok = minimal_extra_super_fast(16).terms[-1] == Z_16 and not mismatches
    gate(
        "02 published term-ratio tables reproduced under truncation (i = 1..16)",
        ok,
        "three published entries are misprinted in their final digit:\n  "
        + "\n  ".join(mismatches),
    )


def test_criterion_03_minimal_index_selections():
    from qrl.ratio import find_min_n

    ok = find_min_n("ratio", 5) == 8 and find_min_n("ratio", 8) == 11
    detail = []
    for digits, chosen in ((5, 8), (8, 11)):
        reference = sqrt5_reference_fraction(digits + 10)
        epsilon = Fraction(1, 10 ** digits)
        hit = abs(sqrt5_via_ratio(chosen) - reference) < epsilon
        miss = abs(sqrt5_via_ratio(chosen - 1) - reference) >= epsilon
        if not (hit and miss):
            ok = False
            detail.append(f"digits={digits}: n={chosen} hit={hit}, n={chosen-1} below threshold={miss}")
    gate(
        "03 minimal ratio-method indices: 5 digits -> n=8, 8 digits -> n=11 (n-1 fails)",
        ok,
        "; ".join(detail),
    )


def test_criterion_04_phi_to_36_digits_by_both_methods():
    tolerance = Fraction(1, 10 ** 36)
    oracle = phi_oracle(46).value
    cf = phi_continued_fraction(180).value
    series = phi_series_partial(65).value
    checks = {
        "cf truncation": str(rational_to_decimal(cf, 36)) == PHI_36,
        "series truncation": str(rational_to_decimal(series, 36)) == PHI_36,
        "cf vs oracle": abs(cf - oracle) < tolerance,
        "series vs oracle": abs(series - oracle) < tolerance,
        "cf conjugate": str(rational_to_decimal(phi_conjugate(cf), 36)) == PHI_CONJUGATE_36,
        "series conjugate": str(rational_to_decimal(phi_conjugate(series), 36)) == PHI_CONJUGATE_36,
    }
    gate(
        "04 36-digit golden ratio from both methods, conjugates included",
        all(checks.values()),
        f"failed: {[name for name, ok in checks.items() if not ok]}",
    )


def test_criterion_05_conjugate_match_experiment():
    n = phi_match_report(36).strict_error_n
    conjugate = (sqrt5_reference_fraction(46) - 1) / 2
    epsilon = Fraction(1, 10 ** 36)
    consistent = (
        abs(ratio_diff(n) - conjugate) < epsilon
        and abs(ratio_diff(n - 1) - conjugate) >= epsilon
    )
    report = build_comparison(4, 20, [])
    rendered = emit_report(report, "json").decode()
    table = emit_report(report, "table").decode()
    reported = (
        report.phi_match.strict_error_n == n
        and report.phi_match.claimed_n == 40
        and '"strict_error_n"' in rendered
        and '"prefix_n"' in rendered
        and '"claimed_n": 40' in rendered
        and "claimed n=40" in table
    )
    gate(
        "05 conjugate match at 36 digits: internally consistent, reported beside claimed n=40",
        consistent and reported,
        f"strict n={n}, consistent={consistent}, reported={reported}",
    )


def test_criterion_06_generator_equivalence_to_2000():
    slow = minimal_extra_super(2000)
    fast = minimal_extra_super_fast(2000)
    ok = slow.terms == fast.terms and all(
        minimal_extra_super(n).terms == fast.terms[: n + 1] for n in (0, 1, 7, 100)
    )
    gate(
        "06 definitional and recurrence generators agree term-for-term (n = 0..2000)",
        ok,
    )


def test_criterion_07_minimality_by_single_decrements():
    failures = []
    super_terms = minimal_super(64).terms
    extra_terms = minimal_extra_super_fast(64).terms
    for i in range(65):
        probe = list(super_terms)
        probe[i] -= 1
        verdict = is_super_increasing(probe)
        if verdict.valid or verdict.first_violation_index != i:
            failures.append(("super", i, verdict))
        probe = list(extra_terms)
        probe[i] -= 1
        verdict = is_extra_super_increasing(probe)
        if verdict.valid or verdict.first_violation_index != i:
            failures.append(("extra_super", i, verdict))
    gate(
        "07 decrementing any single term breaks validation at exactly that index (n <= 64)",
        not failures,
        f"failures: {failures[:5]}",
    )


def _series_errors(n_max, reference):
    partials = [s for _, s in islice(iter_partial_sums(), n_max + 2)]
    return [abs(partials[n] - reference) for n in range(n_max + 2)]


def test_criterion_08a_series_error_ratio_band():
    reference = sqrt5_reference_fraction(250)
    errors = _series_errors(201, reference)
    quarter = Fraction(1, 4)
    band = quarter * Fraction(2, 100)
    violations = []
    for n in range(20, 201):
        ratio = errors[n + 1] / errors[n]
        if abs(ratio - quarter) > band:
            violations.append((n, float(ratio)))
    gate(
        "08a series error ratio within 2% of 1/4 for 20 <= n <= 200",
        not violations,
        f"{len(violations)} indices outside the band; the ratio approaches 1/4 "
        f"like 1 - 3/(2n) and first stays within 2% at n = 74; "
        f"worst: n={violations[0][0]} ratio={violations[0][1]:.6f}" if violations else "",
    )


def test_criterion_08b_ratio_error_ratio_band():
    reference = sqrt5_reference_fraction(250)
    limit = (7 - 3 * reference) / 2
    band = limit / 100
    errors = [reference - r.sqrt5_approx for r in islice(iter_ratio_records(), 202)]
    violations = [
        n
        for n in range(10, 201)
        if abs(errors[n] / errors[n - 1] - limit) > band
    ]
    gate(
        "08b ratio-method error ratio within 1% of the fourth-power limit for 10 <= n <= 200",
        not violations,
        f"violations at n={violations[:10]}",
    )


def test_criterion_08c_error_sign_patterns():
    reference = sqrt5_reference_fraction(250)
    series_ok = True
    for n, partial in islice(iter_partial_sums(), 202):
        if n == 0:
            continue
        error = partial - reference
        if (error > 0) != (n % 2 == 1):
            series_ok = False
    ratio_ok = all(
        record.sqrt5_approx < reference
        for record in islice(iter_ratio_records(), 201)
    )
    gate(
        "08c error signs: series alternates, ratio method stays below the target",
        series_ok and ratio_ok,
    )


def test_criterion_09_cross_oracle_agreement_at_scale():
    approximant = sqrt5_via_ratio(1000)
    rendered = str(rational_to_decimal(approximant, 800))
    reference = str(sqrt5_reference(800))
    ok = rendered == reference and abs(
        approximant - sqrt5_reference_fraction(840)
    ) < Fraction(1, 10 ** 800)
    gate(
        "09 ratio approximant at n=1000 matches the reference to 800 fractional digits",
        ok,
    )


def test_criterion_10_compare_determinism():
    def run(fmt):
        env = dict(os.environ)
        return subprocess.run(
            [
                sys.executable, "-m", "qrl", "compare",
                "--n-max", "12", "--ref-digits", "30",
                "--targets", "5,8", "--format", fmt,
            ],
            capture_output=True,
            env=env,
        )

    results = {fmt: (run(fmt), run(fmt)) for fmt in ("csv", "json")}
    ok = all(
        a.returncode == 0 and b.returncode == 0 and a.stdout == b.stdout and a.stdout
        for a, b in results.values()
    )
    gate("10 compare emits byte-identical csv and json across runs", ok)
