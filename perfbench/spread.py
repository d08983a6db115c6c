"""Repeat the benchmark over several seeds and report run-to-run spread.

Usage, from the root of a checkout::

    python3 perfbench/spread.py [--seeds 0-9] [--workloads surface certify]
        [--trace-seed N] [--out FILE]

For every workload it runs ``perfbench/run.py --trace 0`` once per seed,
for BENCHMARK.json's ``run_seconds``, and reports, per end-to-end metric,
the median, the quartiles (as ``statistics.quantiles(values, n=4)`` gives
them) and the spread ``(q3 - q1) / median`` next to the metric's bound.
The default seeds include 0, the only seed whose artifacts are compared
with ``perfbench/golden/``.  ``--trace-seed`` adds one traced run per
workload and stores its per-layer table.  ``--out`` writes everything as
JSON (the recorded baseline is such a file).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """(report, result) of one benchmark run; the report gains the run's elapsed_s."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    started = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    report = json.loads(lines[-2])["report"]
    report["elapsed_s"] = time.perf_counter() - started
    return report, json.loads(lines[-1])


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description="run-to-run spread of the sbskit benchmark")
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", default="0-9", help="'0-9' or '3,5,8'")
    parser.add_argument("--trace-seed", type=int, default=None)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    record = {"seeds": parse_seeds(args.seeds), "seconds": seconds, "workloads": {}}
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        runs = []
        for seed in record["seeds"]:
            report, result = run_bench(workload, seed, seconds, 0)
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect, {report['failures']}", file=sys.stderr)
            runs.append({"seed": seed, "result": result, "runs": report["runs"], "stats": report["stats"],
                         "elapsed_s": report["elapsed_s"],
                         "golden_compared": report["golden_compared"], "byte_identical": report["byte_identical"]})
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            record["environment"] = report["environment"]
        summary = {}
        for name, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med if med else 0.0
            summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bounds.get(name)}
            line = f"{workload:13s} {name:12s} median {med:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}  spread {spread:.4f}"
            if name in bounds:
                line += f"  bound {bounds[name]} ({'ok' if spread < bounds[name] / 3 else 'WIDE'})"
            print(line, flush=True)
        elapsed = [r["elapsed_s"] for r in runs]
        print(f"{workload:13s} elapsed per run: median {statistics.median(elapsed):.1f} s, max {max(elapsed):.1f} s")
        entry = {"summary": summary, "runs": runs}
        if args.trace_seed is not None:
            report, result = run_bench(workload, args.trace_seed, seconds, 1)
            entry["traced"] = {"seed": args.trace_seed, "correct": result["correct"],
                               "failures": report["failures"],
                               "count_mismatches": report.get("count_mismatches"),
                               "trace_missing": report.get("trace_missing"),
                               "untraced_wall_s": report.get("untraced_wall_s"),
                               "traced_wall_s": report.get("traced_wall_s"),
                               "elapsed_s": report["elapsed_s"],
                               "metrics": {k: v["value"] for k, v in result["metrics"].items()}}
        record["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
