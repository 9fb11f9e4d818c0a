#!/usr/bin/env python3
"""Run the benchmark over several seeds, report spreads, and record medians.

    python3 bench/record.py --seeds 1-10 [--workloads search,report,values]
                            [--trace-seeds 1-3] [--seconds 30] [--write]

Each run is ``bench/run.py`` in its own process, one after another.  For every
end-to-end metric this prints the median of the runs, the spread (distance
between the first and third quartile over the median), the bound from
``BENCHMARK.json``, and the change of the median from ``bench/recorded.json``.
``--write`` replaces ``bench/recorded.json`` with these medians and the run
metadata; ``run.py`` prints the change from that file on every later run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RECORDED = BENCH / "recorded.json"


def seed_range(text: str) -> list[int]:
    if not text:
        return []
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [
        sys.executable, str(BENCH / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=300, cwd=ROOT)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(argv[1:])} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    path = ROOT / ".bench_out" / f"result-{workload}-t{trace}-s{seed}.json"
    result["record"] = json.loads(path.read_text(encoding="utf-8"))
    return result


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def summarize(results: list[dict]) -> dict:
    names = results[0]["metrics"]
    return {
        name: {
            "median": statistics.median(r["metrics"][name]["value"] for r in results),
            "spread": spread([r["metrics"][name]["value"] for r in results]) if len(results) > 1 else 0.0,
            "unit": results[0]["metrics"][name]["unit"],
        }
        for name in names
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, type=seed_range)
    parser.add_argument("--trace-seeds", default="", type=seed_range)
    parser.add_argument("--workloads", default="search,report,values")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    old = json.loads(RECORDED.read_text(encoding="utf-8")) if RECORDED.exists() else {}
    recorded = {"seconds": seconds, "seeds": args.seeds, "trace_seeds": args.trace_seeds, "workloads": {}}
    worst = 0.0
    for workload in args.workloads.split(","):
        runs = [run_once(workload, s, seconds, 0) for s in args.seeds]
        traced = [run_once(workload, s, seconds, 1) for s in args.trace_seeds]
        e2e = summarize(runs)
        before = old.get("workloads", {}).get(workload, {}).get("end_to_end", {})
        print(f"\n{workload}: {len(runs)} runs, correct={all(r['correct'] for r in runs)}")
        print(f"  {'metric':14s} {'median':>12s} {'unit':6s} {'spread':>7s} {'bound':>6s} {'vs recorded':>12s}")
        for name, row in e2e.items():
            bound = bounds[name]
            change = ""
            if before.get(name):
                worse = (row["median"] - before[name]) / before[name]
                if better[name] == "higher":
                    worse = -worse
                change = f"{worse:+.1%} worse" if worse > 0 else f"{-worse:.1%} better"
                if worse > bound:
                    change += " OVER BOUND"
            flag = "" if name == "setup_s" or row["spread"] <= bound / 3 else "  (above a third of the bound)"
            if name != "setup_s":
                worst = max(worst, row["spread"] / bound)
            print(f"  {name:14s} {row['median']:12.6g} {row['unit']:6s} {row['spread']:7.2%} {bound:6.2f} {change:>12s}{flag}")
        metas = [r["record"]["meta"] for r in runs]
        kinds = runs[0]["record"]["kinds"]
        failing = {
            kind: sorted({reason for r in runs for reason in r["record"]["kinds"][kind]["failures"]})
            for kind in kinds
            if any(r["record"]["kinds"][kind]["failed"] for r in runs)
        }
        recorded["workloads"][workload] = {
            "end_to_end": {name: row["median"] for name, row in e2e.items()},
            "spread": {name: row["spread"] for name, row in e2e.items()},
            "per_layer": {name: row["median"] for name, row in summarize(traced).items()} if traced else {},
            "python": metas[0]["python"],
            "nproc": metas[0]["nproc"],
            "ops_per_run": [m["attempted"] for m in metas],
            "tail_percentile": sorted({m["tail_percentile"] for m in metas}),
            "fail_ratio": statistics.median(m["fail_ratio"] for m in metas),
            "failing_kinds": failing,
        }
        print(f"  ops per run {recorded['workloads'][workload]['ops_per_run']}, "
              f"tail p{recorded['workloads'][workload]['tail_percentile']}, "
              f"fail_ratio {recorded['workloads'][workload]['fail_ratio']:.4f}")
        for kind, reasons in failing.items():
            print(f"  failing {kind}: {reasons[0][:100]}")
    print(f"\nlargest spread / bound (setup_s excluded): {worst:.2f}")
    if args.write:
        RECORDED.write_text(json.dumps(recorded, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {RECORDED.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
