"""Command-line interface.

Commands
--------
seq gen       generate a minimal sequence, one term per line
seq check     validate a sequence file (exit 0 valid, 1 invalid, 2 bad input)
sqrt5         print a sqrt(5) approximant; `sqrt5 find-n` searches for the
              smallest index reaching a digit target
phi           print a golden-ratio approximant; `phi conj` prints the
              conjugate instead
phi-match     smallest index whose term ratio difference matches the
              conjugate at a requested precision, under both equality notions
compare       full convergence comparison as csv, json, or a table

The environment variable QRL_DIGIT_CAP overrides the default precision cap
of 100,000 digits.  All output is UTF-8 and line-feed terminated.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import analysis, exact, golden, ratio, sequences, series


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qrl",
        description="Exact-arithmetic sequence and sqrt(5) approximation toolkit.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    seq = commands.add_parser("seq", help="generate or validate sequences")
    seq_commands = seq.add_subparsers(dest="seq_command", required=True)
    gen = seq_commands.add_parser("gen", help="print a minimal sequence")
    gen.add_argument(
        "--kind", required=True, choices=["min-super", "min-extra-super"]
    )
    gen.add_argument("--n", required=True, type=int, help="last index generated")
    gen.add_argument(
        "--method",
        choices=["def", "rec"],
        default="rec",
        help="definitional sum or fast recurrence (default: rec)",
    )
    check = seq_commands.add_parser("check", help="validate a sequence file")
    check.add_argument("--kind", required=True, choices=["super", "extra-super"])
    check.add_argument("--file", required=True, help="one integer per line")

    sqrt5 = commands.add_parser("sqrt5", help="sqrt(5) approximants")
    sqrt5.add_argument("--method", choices=["series", "ratio"])
    sqrt5.add_argument("--n", type=int)
    sqrt5.add_argument("--digits", type=int)
    sqrt5_commands = sqrt5.add_subparsers(dest="sqrt5_command")
    find_n = sqrt5_commands.add_parser(
        "find-n", help="smallest n reaching a digit target"
    )
    find_n.add_argument("--method", required=True, choices=["series", "ratio"])
    find_n.add_argument("--digits", required=True, type=int)

    phi = commands.add_parser("phi", help="golden ratio approximants")
    phi.add_argument("--method", choices=["cf", "series"])
    phi.add_argument("--n", type=int, help="convergent depth or series terms")
    phi.add_argument("--digits", type=int)
    phi_commands = phi.add_subparsers(dest="phi_command")
    conj = phi_commands.add_parser("conj", help="print the conjugate instead")
    conj.add_argument("--method", required=True, choices=["cf", "series"])
    conj.add_argument("--n", required=True, type=int)
    conj.add_argument("--digits", required=True, type=int)

    phi_match = commands.add_parser(
        "phi-match", help="conjugate match experiment at a given precision"
    )
    phi_match.add_argument("--digits", required=True, type=int)

    compare = commands.add_parser("compare", help="convergence comparison report")
    compare.add_argument("--n-max", required=True, type=int)
    compare.add_argument("--ref-digits", required=True, type=int)
    compare.add_argument(
        "--targets",
        default="",
        help="comma-separated digit targets (may be empty)",
    )
    compare.add_argument(
        "--format", required=True, choices=list(analysis.REPORT_FORMATS)
    )
    compare.add_argument("--out", help="write to a file instead of stdout")
    return parser


def _emit(text: str) -> None:
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")


def _cmd_seq_gen(args: argparse.Namespace) -> int:
    if args.n < 0:
        raise ValueError("--n must be nonnegative")
    if args.kind == "min-super":
        make = (
            sequences.minimal_super
            if args.method == "def"
            else sequences.minimal_super_fast
        )
    else:
        make = (
            sequences.minimal_extra_super
            if args.method == "def"
            else sequences.minimal_extra_super_fast
        )
    _emit("\n".join(str(term) for term in make(args.n).terms))
    return 0


def _cmd_seq_check(args: argparse.Namespace) -> int:
    try:
        seq = sequences.read_sequence_file(args.file)
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    validate = (
        sequences.is_super_increasing
        if args.kind == "super"
        else sequences.is_extra_super_increasing
    )
    verdict = validate(seq)
    if verdict.valid:
        _emit("valid")
        return 0
    _emit(f"invalid at index {verdict.first_violation_index}: {verdict.reason}")
    return 1


def _series_digits(n: int) -> int:
    """Fractional digits of the terminating expansion of the partial sum S_n.

    S_n = N_n / 16**n, and N_n keeps the 2-adic valuation of its last step
    2**2 * C_{n-1}, which is popcount(n) + 1 by Kummer's theorem.  So S_n has
    denominator 2**(4n - 1 - popcount(n)), and 1 / 2**k has k digits.
    """
    return 4 * n - 1 - bin(n).count("1") if n else 0


def _cmd_sqrt5(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if getattr(args, "sqrt5_command", None) == "find-n":
        print(ratio.find_min_n(args.method, args.digits))
        return 0
    if args.method is None or args.n is None:
        parser.error("sqrt5 requires --method and --n")
    if args.digits is not None:
        exact.check_digit_cap(args.digits)
    if args.method == "series":
        if args.n < 0:
            raise ValueError("--n must be nonnegative for the series method")
        digits = args.digits
        if digits is None:
            digits = _series_digits(args.n)
            exact.check_digit_cap(digits)
        value = series.sqrt5_series_partial(args.n)
    else:
        if args.n < 1:
            raise ValueError("--n must be at least 1 for the ratio method")
        if args.digits is None:
            parser.error(
                "--digits is required with --method ratio "
                "(the expansion does not terminate)"
            )
        value = ratio.sqrt5_via_ratio(args.n)
        digits = args.digits
    _emit(str(exact.rational_to_decimal(value, digits)))
    return 0


def _cmd_phi(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    conjugate = getattr(args, "phi_command", None) == "conj"
    if args.method is None or args.n is None or args.digits is None:
        parser.error("phi requires --method, --n and --digits")
    exact.check_digit_cap(args.digits)
    if args.method == "cf":
        approx = golden.phi_continued_fraction(args.n)
    else:
        approx = golden.phi_series_partial(args.n)
    value = golden.phi_conjugate(approx.value) if conjugate else approx.value
    _emit(str(exact.rational_to_decimal(value, args.digits)))
    return 0


def _cmd_phi_match(args: argparse.Namespace) -> int:
    result = ratio.phi_match_report(args.digits)
    _emit(
        f"strict_error_n={result.strict_error_n} "
        f"prefix_n={result.prefix_n} "
        f"claimed_n={result.claimed_n}"
    )
    return 0


def _parse_targets(raw: str) -> list[int]:
    raw = raw.strip()
    if not raw:
        return []
    try:
        return [int(part) for part in raw.split(",")]
    except ValueError:
        raise ValueError(f"--targets must be comma-separated integers, got {raw!r}")


def _cmd_compare(args: argparse.Namespace) -> int:
    report = analysis.build_comparison(
        args.n_max, args.ref_digits, _parse_targets(args.targets)
    )
    data = analysis.emit_report(report, args.format)
    if args.out:
        with open(args.out, "wb") as handle:
            handle.write(data)
    else:
        sys.stdout.buffer.write(data)
        sys.stdout.flush()
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "seq":
            if args.seq_command == "gen":
                return _cmd_seq_gen(args)
            return _cmd_seq_check(args)
        if args.command == "sqrt5":
            return _cmd_sqrt5(args, parser)
        if args.command == "phi":
            return _cmd_phi(args, parser)
        if args.command == "phi-match":
            return _cmd_phi_match(args)
        if args.command == "compare":
            return _cmd_compare(args)
    except BrokenPipeError:
        # The reader closed the pipe (`qrl ... | head`): stop quietly, and
        # point stdout at devnull so the interpreter's final flush is silent.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (ValueError, OSError) as err:
        # DigitCapExceeded is a ValueError; bad paths surface as OSError
        print(f"error: {err}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
