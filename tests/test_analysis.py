import json
from fractions import Fraction

import pytest

from qrl.analysis import (
    CSV_HEADER,
    ComparisonReport,
    build_comparison,
    emit_report,
    report_from_json,
)
from qrl.exact import DIGIT_CAP_ENV, DigitCapExceeded, parse_decimal, sqrt5_reference_fraction
from qrl.ratio import sqrt5_via_ratio
from qrl.series import sqrt5_series_partial

from reference_data import SERIES_PARTIAL_DECIMALS


@pytest.fixture(scope="module")
def small_report():
    return build_comparison(16, 40, [5, 8])


class TestBuildComparison:
    def test_record_lists_cover_every_index(self, small_report):
        for records in (small_report.series_records, small_report.ratio_records):
            assert len(records) == 16
            assert [r.n for r in records] == list(range(1, 17))

    def test_series_approx_rendering(self):
        report = build_comparison(10, 40, [5])
        assert str(report.series_records[-1].approx).startswith(
            SERIES_PARTIAL_DECIMALS[10]
        )

    def test_first_n_to_reach(self, small_report):
        assert small_report.first_n_to_reach == {5: (5, 8), 8: (10, 11)}

    def test_empty_targets(self):
        report = build_comparison(2, 20, [])
        assert report.first_n_to_reach == {}
        assert report.ratio_records[0].error_sign == -1
        assert report.series_records[0].error_sign == +1

    def test_error_sign_patterns(self, small_report):
        assert all(r.error_sign == -1 for r in small_report.ratio_records)
        for record in small_report.series_records:
            assert record.error_sign == (1 if record.n % 2 == 1 else -1)

    @pytest.mark.parametrize(
        "n_max, ref_digits, targets",
        [
            (16, 40, [5, 8]),
            # errors fall below 10**-20, where the exact fallback scores them
            (100, 20, [5, 10]),
        ],
        ids=["16-40", "100-20"],
    )
    def test_correct_digits_consistent_with_exact_error(self, n_max, ref_digits, targets):
        report = build_comparison(n_max, ref_digits, targets)
        reference = sqrt5_reference_fraction(ref_digits)
        for record, value in zip(
            report.series_records,
            (sqrt5_series_partial(n) for n in range(1, n_max + 1)),
        ):
            error = abs(value - reference)
            d = record.correct_digits
            assert Fraction(1, 10 ** (d + 1)) <= error < Fraction(1, 10 ** d)
        for record in report.ratio_records:
            error = abs(sqrt5_via_ratio(record.n) - reference)
            d = record.correct_digits
            if error < 1:
                assert Fraction(1, 10 ** (d + 1)) <= error < Fraction(1, 10 ** d)
            else:
                assert d == 0

    def test_phi_match_embedded(self, small_report):
        match = small_report.phi_match
        assert match.requested_digits == 36
        assert match.strict_error_n == 44
        assert match.prefix_n == 45
        assert match.claimed_n == 40

    def test_rate_estimates_near_limits(self):
        report = build_comparison(200, 250, [])
        series_rate = parse_decimal(str(report.series_rate_estimate))
        ratio_rate = parse_decimal(str(report.ratio_rate_estimate))
        quarter = Fraction(1, 4)
        assert abs(series_rate - quarter) <= quarter * Fraction(2, 100)
        limit = (7 - 3 * sqrt5_reference_fraction(60)) / 2
        assert abs(ratio_rate - limit) <= limit / 100

    def test_preconditions(self, monkeypatch):
        with pytest.raises(ValueError):
            build_comparison(1, 40, [])
        with pytest.raises(ValueError):
            build_comparison(4, 14, [5])
        with pytest.raises(ValueError):
            build_comparison(4, 40, [0])
        monkeypatch.setenv(DIGIT_CAP_ENV, "50")
        with pytest.raises(DigitCapExceeded):
            build_comparison(4, 100, [])

    def test_ratio_reaches_targets_no_later_from_twelve_digits(self):
        # below twelve digits the series method still gets there first
        for digits in (12, 15, 20, 30):
            report = build_comparison(2, digits + 10, [digits])
            series_n, ratio_n = report.first_n_to_reach[digits]
            assert ratio_n <= series_n


class TestEmission:
    def test_csv_layout(self, small_report):
        text = emit_report(small_report, "csv").decode("utf-8")
        lines = text.splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 2 * 16
        assert text.endswith("\n")
        first = lines[1].split(",")
        assert first[0] == "series" and first[1] == "1"
        assert all(len(line.split(",")) == 6 for line in lines[1:])

    def test_csv_values_are_decimal_strings(self, small_report):
        line = emit_report(small_report, "csv").decode("utf-8").splitlines()[1]
        _, _, approx, abs_error, sign, digits = line.split(",")
        assert approx.startswith("2.25")
        assert abs_error.startswith("0.0139")
        assert sign == "1" and digits == "1"

    def test_json_round_trip(self, small_report):
        data = emit_report(small_report, "json")
        rebuilt = report_from_json(data)
        assert rebuilt == small_report
        assert isinstance(rebuilt, ComparisonReport)

    def test_json_empty_targets(self):
        report = build_comparison(2, 20, [])
        data = emit_report(report, "json").decode("utf-8")
        assert '"first_n_to_reach": {}' in data
        assert report_from_json(data) == report

    @pytest.mark.parametrize("targets", [[5, 8], []], ids=["targets", "no-targets"])
    def test_json_is_canonical_indent_two(self, targets):
        text = emit_report(build_comparison(16, 40, targets), "json").decode("utf-8")
        assert text == json.dumps(json.loads(text), indent=2) + "\n"

    def test_table_rows_aligned(self, small_report):
        lines = emit_report(small_report, "table").decode("utf-8").split("\n")
        start = lines.index("") + 1
        grid = [line.split() for line in lines[start:-1]]
        assert grid[0] == ["method", "n", "approx", "abs_error", "sign", "correct"]
        assert len(grid) == 1 + 2 * 16
        widths = [max(len(row[col]) for row in grid) for col in range(6)]
        for line, row in zip(lines[start:-1], grid):
            assert line == "  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip()
        assert {row[4] for row in grid[1:]} <= {"+1", "-1"}

    def test_table_contains_summary(self, small_report):
        text = emit_report(small_report, "table").decode("utf-8")
        assert "series rate estimate" in text
        assert "first n to reach 5 digits: series 5, ratio 8" in text
        assert "strict n=44, prefix n=45, claimed n=40" in text
        assert text.endswith("\n")

    def test_unknown_format_rejected(self, small_report):
        with pytest.raises(ValueError):
            emit_report(small_report, "yaml")

    def test_determinism(self):
        first = build_comparison(12, 30, [5, 8])
        second = build_comparison(12, 30, [5, 8])
        for fmt in ("csv", "json", "table"):
            assert emit_report(first, fmt) == emit_report(second, fmt)
