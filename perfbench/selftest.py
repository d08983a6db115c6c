"""Quick self-test of the benchmark.

Usage, from the root of a checkout::

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json at its self-test size (``--tiny``)
with tracing off and on, and checks that the result line has exactly the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``, that the runs
were correct, and that every end-to-end (tracing off) or per-layer
(tracing on) metric is printed, finite, with its declared unit and
nothing else.  Then it runs every workload once at full size and
``--seed 0``, the only seed whose artifacts are compared with
``perfbench/golden/``, and checks that the comparison was made and
passed; byte-identity with the golden is printed.  Last, it copies only
BENCHMARK.json and the benchmark's directories into a scratch directory
and checks that the benchmark exits non-zero there without printing a
result.  Certify has no smaller size (its suites are fixed-size), so the
whole test takes a few minutes.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SCRATCH = ROOT / ".bench_build" / "selftest"


def run_bench(spec: dict, workload: str, trace: int, tiny: bool) -> tuple[dict, dict, list[str]]:
    """(report, result, errors) of one run at --seed 0 for one second."""
    cmd = list(spec["command"]) + ["--workload", workload, "--seed", "0", "--seconds", "1",
                                   "--trace", str(trace)] + (["--tiny"] if tiny else [])
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        return {}, {}, [f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1]), []


def check_golden(spec: dict, workload: str) -> list[str]:
    report, result, errors = run_bench(spec, workload, 0, tiny=False)
    where = f"{workload} full size --seed 0"
    if errors:
        return [f"{where}: {e}" for e in errors]
    print(f"{where}: byte_identical {report['byte_identical']}", flush=True)
    if report["golden_compared"] < 1:
        errors.append(f"{where}: artifact not compared with the golden")
    if result["correct"] is not True:
        errors.append(f"{where}: not correct: {report['failures']}")
    return errors


def check_result(spec: dict, workload: str, trace: int) -> list[str]:
    where = f"{workload} --trace {trace}"
    _, result, errors = run_bench(spec, workload, trace, tiny=True)
    if errors:
        return [f"{where}: {e}" for e in errors]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0 or not result.get("attempted", 0) >= 1:
        errors.append(f"{where}: correct={result.get('correct')} attempted={result.get('attempted')} "
                      f"failed={result.get('failed')}")
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    printed = result.get("metrics", {})
    for name in sorted(set(declared) - set(printed)):
        errors.append(f"{where}: metric {name} missing")
    for name in sorted(set(printed) - set(declared)):
        errors.append(f"{where}: metric {name} not declared in BENCHMARK.json")
    for name, metric in printed.items():
        if name in declared and metric.get("unit") != declared[name]:
            errors.append(f"{where}: {name} unit {metric.get('unit')!r}, declared {declared[name]!r}")
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{where}: {name} value {value!r}")
    return errors


def check_bare_directory(spec: dict) -> list[str]:
    """Without the package source the benchmark must fail and print no result."""
    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)
    shutil.copyfile(ROOT / "BENCHMARK.json", SCRATCH / "BENCHMARK.json")
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, SCRATCH / path, ignore=shutil.ignore_patterns("__pycache__"))
    workload = spec["workloads"][0]["name"]
    cmd = list(spec["command"]) + ["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=SCRATCH, capture_output=True, text=True, timeout=180)
    shutil.rmtree(SCRATCH, ignore_errors=True)
    errors = []
    if proc.returncode == 0:
        errors.append("bare directory: exit 0")
    if proc.stdout.strip():
        errors.append(f"bare directory: printed {proc.stdout.strip()[-200:]!r}")
    return errors


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            found = check_result(spec, workload, trace)
            print(f"{workload} --trace {trace}: {'ok' if not found else 'FAILED'}", flush=True)
            errors += found
    for workload in (w["name"] for w in spec["workloads"]):
        found = check_golden(spec, workload)
        print(f"{workload} golden: {'ok' if not found else 'FAILED'}", flush=True)
        errors += found
    found = check_bare_directory(spec)
    print(f"bare directory: {'ok' if not found else 'FAILED'}")
    errors += found
    for error in errors:
        print(error)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
