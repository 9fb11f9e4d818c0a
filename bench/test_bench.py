"""Self-tests of the benchmark: the oracle rejects wrong bytes, streams are seeded.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import random
import sys

import pytest

import oracle
import run
import workloads

sys.path.insert(0, str(run.SRC))
import qrl.cli  # noqa: E402

RUNNER = run.Runner(qrl.cli)


def stdout_of(*argv: str) -> bytes:
    _, code, out, err = RUNNER.capture(argv)
    assert code == 0, err
    return out


def first_index(within, digits: int) -> int:
    n = 1
    while not within(n, digits):
        n += 1
    return n


@pytest.mark.parametrize("method, within", [("ratio", oracle.ratio_within), ("series", oracle.series_within)])
def test_find_n_off_by_one_is_rejected(method, within):
    digits = 40
    n = first_index(within, digits)
    out = stdout_of("sqrt5", "find-n", "--method", method, "--digits", str(digits))
    assert out == f"{n}\n".encode()
    assert oracle.check_find_n(out, method, digits) is None
    for wrong in (n - 1, n + 1):
        assert oracle.check_find_n(f"{wrong}\n".encode(), method, digits) is not None


def test_phi_match_off_by_one_is_rejected():
    out = stdout_of("phi-match", "--digits", "36")
    assert oracle.check_phi_match(out, 36) is None
    assert oracle.check_phi_match(out.replace(b"strict_error_n=44", b"strict_error_n=45"), 36)
    assert oracle.check_phi_match(out.replace(b"prefix_n=45", b"prefix_n=44"), 36)


def flip_last_digit(out: bytes) -> bytes:
    body = out.rstrip(b"\n")
    last = body[-1:]
    return body[:-1] + (b"1" if last != b"1" else b"2") + out[len(body):]


@pytest.mark.parametrize(
    "argv, value",
    [
        (("sqrt5", "--method", "ratio", "--n", "50", "--digits", "80"), oracle.ratio_value(50)),
        (("phi", "--method", "cf", "--n", "90", "--digits", "30"), oracle.phi_cf_value(90)),
        (("phi", "--method", "series", "--n", "25", "--digits", "30"), oracle.phi_series_value(25)),
    ],
)
def test_flipped_last_digit_is_rejected(argv, value):
    digits = int(argv[-1])
    out = stdout_of(*argv)
    assert oracle.check_value(out, *value, digits) is None
    assert oracle.check_value(flip_last_digit(out), *value, digits) is not None


def test_series_value_uses_exact_terminating_digits():
    num, den = oracle.series_value(30)
    digits = oracle.series_terminating_digits(num, 30)
    out = stdout_of("sqrt5", "--method", "series", "--n", "30")
    assert oracle.check_value(out, num, den, digits) is None
    assert oracle.check_value(flip_last_digit(out), num, den, digits) is not None


def test_seq_gen_missing_or_changed_term_is_rejected():
    out = stdout_of("seq", "gen", "--kind", "min-extra-super", "--n", "30")
    assert oracle.check_lines(out, oracle.extra_super(30)) is None
    assert oracle.check_lines(out, oracle.extra_super(31)) is not None
    assert oracle.check_lines(flip_last_digit(out), oracle.extra_super(30)) is not None


def truncate_row(out: bytes, fmt: str) -> bytes:
    """Drop the last digit of a ratio record in the middle of the report."""
    lines = out.split(b"\n")
    starts = {"csv": b"ratio,", "table": b"ratio   ", "json": b'      "approx": "'}
    rows = [i for i, line in enumerate(lines) if line.startswith(starts[fmt])]
    i = rows[len(rows) // 2]
    # a json field keeps its closing quote and comma
    lines[i] = lines[i][:-3] + lines[i][-2:] if fmt == "json" else lines[i][:-1]
    return b"\n".join(lines)


@pytest.mark.parametrize("fmt", workloads.REPORT_FORMATS)
def test_truncated_compare_row_is_rejected(fmt):
    n_max = 20
    out = stdout_of(
        "compare", "--n-max", str(n_max), "--ref-digits", "60",
        "--targets", "5,50", "--format", fmt,
    )
    check = oracle.CompareOracle(n_max, 60, [5, 50])
    assert check.check(out, fmt, seed=7) is None
    assert check.check(truncate_row(out, fmt), fmt, seed=7) is not None


def argv_stream(workload: str, seed: int, count: int = 3) -> list[tuple[str, ...]]:
    stream = workloads.rounds(workload, seed)
    return [op.argv for _ in range(count) for op in next(stream)]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_gives_same_argv_stream(workload):
    assert argv_stream(workload, 5) == argv_stream(workload, 5)
    assert argv_stream(workload, 5) != argv_stream(workload, 6)


def kind(name: str) -> workloads.Kind:
    return next(k for kinds in workloads.WORKLOADS.values() for k in kinds if k.name == name)


def test_grid_keeps_range_ends_and_jitters_inside():
    for seed in range(20):
        points = workloads.grid(4000, 16000, 4, random.Random(seed))
        assert points[0] == 4000 and points[-1] == 16000
        assert all(abs(p - nominal) <= 4000 * workloads.JITTER + 1 for p, nominal in zip(points, (4000, 8000, 12000, 16000)))


def test_every_kind_passes_the_oracle_at_small_sizes(monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    small = {
        "find-n-ratio": (60,), "find-n-series": (60,), "phi-match": (60,),
        "compare-json": (60, 1), "compare-csv": (60, 2), "compare-table": (60, 3),
        "sqrt5-series": (40,), "sqrt5-ratio": (40, 70), "phi-cf": (40, 70), "phi-series": (40, 70),
        "seq-gen-min-super": (40,), "seq-gen-min-extra-super": (40,),
        "seq-check-super": (40,), "seq-check-extra-super": (40,),
    }
    for name, params in small.items():
        outcome = RUNNER.run(kind(name).make(*params))
        assert outcome.status == "ok", (name, outcome.detail)


def test_int_limit_is_reset_before_each_op(monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    render = kind("sqrt5-ratio").make(6000, 20000)
    gen = kind("seq-gen-min-super").make(14300)  # 2**14300 has 4305 digits
    assert RUNNER.run(render).limit_changed
    assert RUNNER.run(gen).status == "error"
