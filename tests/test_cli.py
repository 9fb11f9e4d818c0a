import os
import subprocess
import sys

from qrl import cli, series
from qrl.exact import terminating_digits

from reference_data import (
    MINIMAL_EXTRA_SUPER_7,
    PHI_36,
    PHI_CONJUGATE_36,
    SERIES_PARTIAL_DECIMALS,
    SQRT5_RATIO_8,
)


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "qrl", *args],
        capture_output=True,
        env=env,
    )


def stdout_of(result):
    assert result.returncode == 0, result.stderr.decode()
    return result.stdout.decode()


class TestSeqCommands:
    def test_gen_minimal_extra_super(self):
        out = stdout_of(run_cli("seq", "gen", "--kind", "min-extra-super", "--n", "7"))
        assert out == "".join(f"{t}\n" for t in MINIMAL_EXTRA_SUPER_7)

    def test_gen_minimal_super(self):
        out = stdout_of(run_cli("seq", "gen", "--kind", "min-super", "--n", "7"))
        assert out == "1\n2\n4\n8\n16\n32\n64\n128\n"

    def test_gen_base_case(self):
        assert stdout_of(run_cli("seq", "gen", "--kind", "min-super", "--n", "0")) == "1\n"

    def test_gen_methods_agree(self):
        base = ("seq", "gen", "--kind", "min-extra-super", "--n", "40")
        assert stdout_of(run_cli(*base, "--method", "def")) == stdout_of(
            run_cli(*base, "--method", "rec")
        )
        base = ("seq", "gen", "--kind", "min-super", "--n", "40")
        assert stdout_of(run_cli(*base, "--method", "def")) == stdout_of(
            run_cli(*base, "--method", "rec")
        )

    def test_gen_negative_n(self):
        result = run_cli("seq", "gen", "--kind", "min-super", "--n", "-1")
        assert result.returncode == 2

    def test_check_valid(self, tmp_path):
        path = tmp_path / "good.txt"
        path.write_text("# a known good sequence\n2\n3\n7\n13\n29\n57\n113\n+226\n")
        result = run_cli("seq", "check", "--kind", "super", "--file", str(path))
        assert result.returncode == 0
        assert result.stdout.decode() == "valid\n"

    def test_check_invalid_reports_index(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1\n3\n8\n21\n54\n139\n367\n956\n")
        result = run_cli("seq", "check", "--kind", "extra-super", "--file", str(path))
        assert result.returncode == 1
        assert result.stdout.decode() == "invalid at index 7: sum_inequality_failed\n"

    def test_check_parse_error(self, tmp_path):
        path = tmp_path / "garbage.txt"
        path.write_text("1\nnope\n")
        result = run_cli("seq", "check", "--kind", "super", "--file", str(path))
        assert result.returncode == 2
        assert "line 2" in result.stderr.decode()

    def test_check_missing_file(self, tmp_path):
        result = run_cli(
            "seq", "check", "--kind", "super", "--file", str(tmp_path / "absent.txt")
        )
        assert result.returncode == 2

    def test_closed_pipe_is_a_quiet_exit(self):
        proc = subprocess.Popen(
            [sys.executable, "-m", "qrl", "seq", "gen", "--kind", "min-super", "--n", "3000"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        assert proc.stdout.readline() == b"1\n"
        proc.stdout.close()
        try:
            assert proc.wait(timeout=60) == 0
        finally:
            proc.kill()
        assert proc.stderr.read() == b""
        proc.stderr.close()


class TestSqrt5Command:
    def test_series_exact_terminating_decimal(self):
        out = stdout_of(run_cli("sqrt5", "--method", "series", "--n", "10"))
        assert out == SERIES_PARTIAL_DECIMALS[10] + "\n"

    def test_series_truncated(self):
        out = stdout_of(
            run_cli("sqrt5", "--method", "series", "--n", "4", "--digits", "5")
        )
        assert out == "2.23602\n"

    def test_ratio_truncated(self):
        out = stdout_of(
            run_cli("sqrt5", "--method", "ratio", "--n", "8", "--digits", "16")
        )
        assert out == SQRT5_RATIO_8 + "\n"

    def test_ratio_requires_digits(self):
        result = run_cli("sqrt5", "--method", "ratio", "--n", "8")
        assert result.returncode == 2
        assert b"--digits" in result.stderr

    def test_missing_flags(self):
        assert run_cli("sqrt5").returncode == 2

    def test_find_n(self):
        assert stdout_of(
            run_cli("sqrt5", "find-n", "--method", "ratio", "--digits", "5")
        ) == "8\n"
        assert stdout_of(
            run_cli("sqrt5", "find-n", "--method", "series", "--digits", "8")
        ) == "10\n"

    def test_series_digits_formula(self):
        for n in range(401):
            value = series.sqrt5_series_partial(n)
            assert cli._series_digits(n) == terminating_digits(value)


class TestPhiCommands:
    def test_continued_fraction(self):
        out = stdout_of(
            run_cli("phi", "--method", "cf", "--n", "180", "--digits", "36")
        )
        assert out == PHI_36 + "\n"

    def test_series(self):
        out = stdout_of(
            run_cli("phi", "--method", "series", "--n", "65", "--digits", "36")
        )
        assert out == PHI_36 + "\n"

    def test_conjugate_variant(self):
        out = stdout_of(
            run_cli("phi", "conj", "--method", "cf", "--n", "180", "--digits", "36")
        )
        assert out == PHI_CONJUGATE_36 + "\n"

    def test_missing_flags(self):
        assert run_cli("phi", "--method", "cf").returncode == 2

    def test_phi_match(self):
        out = stdout_of(run_cli("phi-match", "--digits", "36"))
        assert out == "strict_error_n=44 prefix_n=45 claimed_n=40\n"


class TestCompareCommand:
    ARGS = (
        "compare",
        "--n-max", "12",
        "--ref-digits", "30",
        "--targets", "5,8",
    )

    def test_csv_deterministic(self):
        first = run_cli(*self.ARGS, "--format", "csv")
        second = run_cli(*self.ARGS, "--format", "csv")
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
        assert first.stdout.startswith(b"method,n,approx,abs_error,error_sign,correct_digits\n")

    def test_json_deterministic(self):
        first = run_cli(*self.ARGS, "--format", "json")
        second = run_cli(*self.ARGS, "--format", "json")
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout

    def test_out_file(self, tmp_path):
        target = tmp_path / "report.csv"
        result = run_cli(*self.ARGS, "--format", "csv", "--out", str(target))
        assert result.returncode == 0
        assert result.stdout == b""
        piped = run_cli(*self.ARGS, "--format", "csv")
        assert target.read_bytes() == piped.stdout

    def test_empty_targets(self):
        result = run_cli(
            "compare", "--n-max", "2", "--ref-digits", "20",
            "--targets", "", "--format", "json",
        )
        assert result.returncode == 0
        assert b'"first_n_to_reach": {}' in result.stdout

    def test_bad_targets(self):
        result = run_cli(
            "compare", "--n-max", "4", "--ref-digits", "20",
            "--targets", "5;8", "--format", "csv",
        )
        assert result.returncode == 2


class TestDigitCapEnvironment:
    def test_cap_blocks_large_requests(self):
        result = run_cli(
            "sqrt5", "--method", "ratio", "--n", "8", "--digits", "40",
            env_extra={"QRL_DIGIT_CAP": "30"},
        )
        assert result.returncode == 2
        assert b"cap" in result.stderr
        # without --digits the series digit count is derived, then capped
        result = run_cli(
            "sqrt5", "--method", "series", "--n", "100",
            env_extra={"QRL_DIGIT_CAP": "100"},
        )
        assert result.returncode == 2
        assert result.stdout == b""
        assert b"cap" in result.stderr

    def test_series_cap_checked_before_summing(self, monkeypatch, capsys):
        def unreachable(n):
            raise AssertionError("the partial sum was computed")

        monkeypatch.delenv("QRL_DIGIT_CAP", raising=False)
        monkeypatch.setattr(series, "sqrt5_series_partial", unreachable)
        assert cli.main(["sqrt5", "--method", "series", "--n", "100000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: 399993 digits requested, cap is 100000\n"

    def test_cap_allows_at_limit(self):
        result = run_cli(
            "phi-match", "--digits", "30",
            env_extra={"QRL_DIGIT_CAP": "30"},
        )
        assert result.returncode == 0

    def test_invalid_cap_value(self):
        result = run_cli(
            "sqrt5", "--method", "ratio", "--n", "8", "--digits", "10",
            env_extra={"QRL_DIGIT_CAP": "lots"},
        )
        assert result.returncode == 2
