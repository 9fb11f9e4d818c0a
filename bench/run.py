#!/usr/bin/env python3
"""qrl benchmark: seeded closed-loop workloads of in-process CLI invocations.

    python3 bench/run.py --workload search|report|values --seed N --seconds S --trace 0|1

One op is one ``qrl.cli.main(argv)`` call with stdout captured as bytes; one
client sends the next op only after the previous one returns.  Every op is
checked outside the timed region by the exact oracle in ``oracle.py``.  Runs
execute whole rounds (see ``workloads.py``) until about ``--seconds`` of op
time is spent.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates an
untraced and a traced pass over the same rounds and prints the per-layer
metrics, per traced round.  The last stdout line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record
with run metadata goes to ``.bench_out/``, and when ``bench/recorded.json``
holds figures for the workload the change from them is printed.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
RECORDED = BENCH / "recorded.json"
SPEC = ROOT / "BENCHMARK.json"  # names and units of the metrics

SETUP_SAMPLES = 7
# op_tail_s is this percentile.  A run holds at least MIN_OPS ops, so at least
# ten lie beyond it, and every run and commit reports the same percentile.
TAIL_PERCENTILE = 90
MIN_OPS = 100
# Self times of a traced op's spans must cover its wall time to within this share.
COVERAGE_BOUND = 0.05
# Stop well inside the 180 s a run may take, whatever the program's speed.
WALL_LIMIT_S = 150.0
DEFAULT_INT_LIMIT = sys.get_int_max_str_digits()


@dataclass
class Outcome:
    op: workloads.Op
    latency: float
    status: str  # ok | wrong | error | exception
    detail: str
    limit_changed: bool


class Runner:
    """Runs ops in this process with the interpreter state a fresh qrl process has."""

    def __init__(self, cli):
        self.cli = cli

    def run(self, op: workloads.Op) -> Outcome:
        if op.input_terms is not None:
            Path(workloads.CHECK_FILE).parent.mkdir(exist_ok=True)
            with open(workloads.CHECK_FILE, "w", encoding="utf-8") as handle:
                for term in op.input_terms():
                    handle.write(f"{term}\n")
        try:
            latency, code, out, err = self.capture(op.argv)
        finally:
            if op.input_terms is not None:
                os.remove(workloads.CHECK_FILE)
        limit_changed = sys.get_int_max_str_digits() != DEFAULT_INT_LIMIT
        if isinstance(code, BaseException):
            detail = "".join(traceback.format_exception_only(code)).strip()
            return Outcome(op, latency, "exception", detail, limit_changed)
        if code != 0:
            detail = f"exit {code}: {err.strip().splitlines()[-1] if err.strip() else ''}"
            return Outcome(op, latency, "error", detail, limit_changed)
        reason = op.check(out)
        status = "ok" if reason is None else "wrong"
        return Outcome(op, latency, status, reason or "", limit_changed)

    def capture(self, argv):
        """(latency, exit code or exception, stdout bytes, stderr text) of one op."""
        # A fresh process starts at the interpreter's default int/str limit and
        # with no garbage from earlier work.
        sys.set_int_max_str_digits(DEFAULT_INT_LIMIT)
        gc.collect()
        buffer = io.BytesIO()
        stdout = io.TextIOWrapper(buffer, encoding="utf-8", newline="\n", write_through=True)
        stderr = io.StringIO()
        saved = sys.stdout, sys.stderr
        sys.stdout, sys.stderr = stdout, stderr
        start = perf_counter()
        try:
            code = self.cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a failed op, not a benchmark error
            code = exc
        finally:
            latency = perf_counter() - start
            sys.stdout, sys.stderr = saved
            stdout.flush()
            stdout.detach()
        return latency, code, buffer.getvalue(), stderr.getvalue()


def measure_setup() -> float:
    """Median wall time for a fresh interpreter to import qrl.cli and build its parser."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import qrl.cli; qrl.cli.build_parser()"
    argv = [sys.executable, "-I", "-c", code]
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        start = perf_counter()
        subprocess.run(argv, check=True, timeout=60, stdout=subprocess.DEVNULL)
        if i:  # the first start also writes bytecode caches
            samples.append(perf_counter() - start)
    return statistics.median(samples)


def tail(latencies: list[float]) -> tuple[float, int]:
    """(value, samples beyond) of the TAIL_PERCENTILE-th latency, by nearest rank."""
    ordered = sorted(latencies)
    rank = math.ceil(TAIL_PERCENTILE / 100 * len(ordered))
    return ordered[rank - 1], len(ordered) - rank


class Run:
    def __init__(self, workload: str, seed: int, seconds: float, runner: Runner):
        self.stream = workloads.rounds(workload, seed)
        self.seconds = seconds
        self.runner = runner
        self.outcomes: list[Outcome] = []
        self.wall_start = perf_counter()

    def _round(self, ops, tracer=None) -> list[Outcome]:
        done = []
        for op in ops:
            if perf_counter() - self.wall_start > WALL_LIMIT_S:
                raise TimeoutError(f"run exceeded {WALL_LIMIT_S:.0f} s of wall time")
            if tracer is not None:
                tracer.op += 1
            done.append(self.runner.run(op))
        self.outcomes.extend(done)
        return done

    def untraced(self) -> list[list[Outcome]]:
        """Whole rounds until about ``seconds`` of op time and MIN_OPS ops are spent."""
        rounds, spent = [], 0.0
        for ops in self.stream:
            rounds.append(self._round(ops))
            spent += sum(o.latency for o in rounds[-1])
            enough = len(rounds) * len(ops) >= MIN_OPS
            if enough and spent + spent / len(rounds) / 2 >= self.seconds:
                return rounds
        raise AssertionError("unreachable")

    def traced(self, tracer: spans.Tracer):
        """Pairs of (untraced, traced) passes over the same round."""
        pairs, spent = [], 0.0
        for ops in self.stream:
            plain = self._round(ops)
            with spans.installed(tracer):
                traced = self._round(ops, tracer)
            pairs.append((plain, traced))
            spent += sum(o.latency for o in plain + traced)
            if spent + spent / len(pairs) / 2 >= self.seconds:
                return pairs
        raise AssertionError("unreachable")


def ok_per_s(rounds: list[list[Outcome]]) -> float:
    """Ops that returned the oracle's bytes per round, over the round's op time.

    Every round holds the same ops, and each op's time is its median over the
    rounds, so a burst of machine noise during one round moves little.
    """
    by_op: dict[workloads.Op, list[float]] = {}
    for outcomes in rounds:
        for o in outcomes:
            by_op.setdefault(o.op, []).append(o.latency)
    round_time = sum(statistics.median(times) for times in by_op.values())
    ok = sum(o.status == "ok" for outcomes in rounds for o in outcomes) / len(rounds)
    return ok / round_time


def end_to_end(rounds: list[list[Outcome]]) -> tuple[dict, dict]:
    outcomes = [o for r in rounds for o in r]
    latencies = [o.latency for o in outcomes]
    value, beyond = tail(latencies)
    metrics = {
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": value,
        "ops_per_s": ok_per_s(rounds),
        "ok_ratio": sum(o.status == "ok" for o in outcomes) / len(outcomes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    meta = {
        "rounds": len(rounds),
        "tail_percentile": TAIL_PERCENTILE,
        "tail_samples": len(latencies),
        "tail_beyond": beyond,
    }
    return metrics, meta


def per_layer(pairs, tracer: spans.Tracer) -> tuple[dict, dict, spans.LayerTotals]:
    totals = spans.LayerTotals(tracer.spans)
    traced = [o for _, t in pairs for o in t]
    plain_rounds = [p for p, _ in pairs]
    traced_rounds = [t for _, t in pairs]
    coverage = [totals.op_self.get(i, 0.0) / o.latency for i, o in enumerate(traced)]
    worst = max(coverage, key=lambda c: abs(1 - c))
    if abs(1 - worst) > COVERAGE_BOUND:
        raise RuntimeError(f"layer self times cover {worst:.3f} of a traced op's wall time")
    n = len(pairs)
    answers = totals.size.get("search", 0)
    metrics = {
        "cli.calls": totals.count("cli") / n,
        "cli.self_s": totals.seconds("cli") / n,
        "search.calls": totals.count("search") / n,
        "search.self_s": totals.seconds("search") / n,
        "search.steps": totals.search_steps / n,
        "search.steps_per_answer": totals.search_steps / answers if answers else 0.0,
        "ratio.sweep.steps": totals.count("ratio.sweep") / n,
        "ratio.sweep.self_s": totals.seconds("ratio.sweep") / n,
        "ratio.point.calls": totals.count("ratio.point") / n,
        "ratio.point.self_s": totals.seconds("ratio.point") / n,
        "ratio.max_bits": max(totals.max_size.get(k, 0) for k in ("ratio.sweep", "ratio.point")),
        "series.sweep.steps": totals.count("series.sweep") / n,
        "series.sweep.self_s": totals.seconds("series.sweep") / n,
        "series.point.calls": totals.count("series.point") / n,
        "series.point.self_s": totals.seconds("series.point") / n,
        "series.max_bits": max(totals.max_size.get(k, 0) for k in ("series.sweep", "series.point")),
        "exact.reference.calls": totals.count("exact.reference") / n,
        "exact.reference.self_s": totals.seconds("exact.reference") / n,
        "exact.render.calls": totals.count("exact.render") / n,
        "exact.render.self_s": totals.seconds("exact.render") / n,
        "exact.render.digits": totals.size.get("exact.render", 0) / n,
        "exact.correct_digits.calls": totals.count("exact.correct_digits") / n,
        "exact.correct_digits.self_s": totals.seconds("exact.correct_digits") / n,
        "exact.int_limit_changes": sum(o.limit_changed for o in traced) / n,
        "sequences.gen.calls": totals.count("sequences.gen") / n,
        "sequences.gen.self_s": totals.seconds("sequences.gen") / n,
        "sequences.gen.terms": totals.size.get("sequences.gen", 0) / n,
        "sequences.check.calls": totals.count("sequences.check") / n,
        "sequences.check.self_s": totals.seconds("sequences.check") / n,
        "golden.calls": totals.count("golden") / n,
        "golden.self_s": totals.seconds("golden") / n,
        "analysis.build.self_s": totals.seconds("analysis.build") / n,
        "analysis.rate_fit.self_s": totals.seconds("analysis.rate_fit") / n,
        "analysis.emit.self_s": totals.seconds("analysis.emit") / n,
        "analysis.emit.bytes": totals.size.get("analysis.emit", 0) / n,
        "trace.ops_per_s_untraced": ok_per_s(plain_rounds),
        "trace.ops_per_s_traced": ok_per_s(traced_rounds),
        "trace.overhead_ratio": ok_per_s(traced_rounds) / ok_per_s(plain_rounds),
        "trace.coverage_min": min(coverage),
    }
    meta = {"rounds": n, "traced_ops": len(traced), "spans": len(tracer.spans)}
    return metrics, meta, totals


def kind_table(outcomes: list[Outcome]) -> dict:
    table: dict[str, dict] = {}
    for o in outcomes:
        row = table.setdefault(o.op.kind, {"attempted": 0, "failed": 0, "failures": {}})
        row["attempted"] += 1
        if o.status != "ok":
            row["failed"] += 1
            key = f"{o.status}: {o.detail}"[:160]
            row["failures"][key] = row["failures"].get(key, 0) + 1
    return dict(sorted(table.items()))


def print_report(workload, trace_on, metrics, units, meta, kinds, recorded):
    print(f"# qrl bench  workload={workload}  trace={int(trace_on)}  seed={meta['seed']}  "
          f"python={meta['python']}  nproc={meta['nproc']}")
    print(f"# ops attempted={meta['attempted']} failed={meta['failed']} "
          f"fail_ratio={meta['fail_ratio']:.4f} rounds={meta['rounds']}")
    if "tail_percentile" in meta:
        print(f"# op_tail_s is p{meta['tail_percentile']:g} of {meta['tail_samples']} ops "
              f"({meta['tail_beyond']} beyond)")
    for kind, row in kinds.items():
        print(f"#   {kind:26s} {row['attempted']:4d} ops {row['failed']:4d} failed")
        for reason, count in row["failures"].items():
            print(f"#     {count:4d} x {reason}")
    for name, value in metrics.items():
        line = f"{name:28s} {value:14.6g} {units[name]}"
        old = recorded.get(name)
        if old:
            line += f"   recorded {old:.6g}  change {100 * (value - old) / old:+.1f}%"
        print(line)


def load_recorded(workload: str, section: str) -> dict:
    try:
        data = json.loads(RECORDED.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return {}
    return data.get("workloads", {}).get(workload, {}).get(section, {})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    if not (SRC / "qrl" / "cli.py").is_file():
        print(f"error: no qrl sources at {SRC}", file=sys.stderr)
        return 2
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in json.loads(SPEC.read_text(encoding="utf-8"))[section]}
    os.chdir(ROOT)
    os.environ.pop("QRL_DIGIT_CAP", None)
    sys.path.insert(0, str(SRC))
    import qrl.cli

    run = Run(args.workload, args.seed, args.seconds, Runner(qrl.cli))
    if args.trace:
        tracer = spans.Tracer()
        pairs = run.traced(tracer)
        metrics, meta, totals = per_layer(pairs, tracer)
        OUT_DIR.mkdir(exist_ok=True)
        spans.write_spans(OUT_DIR / f"spans-{args.workload}.tsv", tracer.spans, totals.self_time)
    else:
        setup = measure_setup()
        metrics, meta = end_to_end(run.untraced())
        metrics = {"setup_s": setup, **metrics}
    if units.keys() != metrics.keys():
        raise RuntimeError(f"metrics differ from {SPEC.name}: {sorted(units.keys() ^ metrics.keys())}")

    outcomes = run.outcomes
    failed = sum(o.status != "ok" for o in outcomes)
    correct = not any(o.status in ("wrong", "exception") for o in outcomes)
    kinds = kind_table(outcomes)
    meta.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        python=platform.python_version(), nproc=len(os.sched_getaffinity(0)),
        attempted=len(outcomes), failed=failed, fail_ratio=failed / len(outcomes),
    )
    print_report(args.workload, args.trace, metrics, units, meta, kinds, load_recorded(args.workload, section))
    OUT_DIR.mkdir(exist_ok=True)
    latencies: dict[workloads.Op, list[float]] = {}
    for o in outcomes:
        latencies.setdefault(o.op, []).append(o.latency)
    ops = [{"argv": " ".join(op.argv), "latencies": times} for op, times in latencies.items()]
    record = {"meta": meta, "correct": correct, "kinds": kinds, "metrics": metrics, "ops": ops}
    out_path = OUT_DIR / f"result-{args.workload}-t{args.trace}-s{args.seed}.json"
    out_path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    result = {
        "correct": correct,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
