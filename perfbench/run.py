"""sbskit benchmark: one closed-loop client running CLI scenarios.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload {surface,certify,discriminate} \
        --seed N --seconds S --trace {0,1}

The client writes a workload config (``threads: 1``, seed
``20260808 + N``), then starts one ``python -m sbskit.cli --scenario ...
--config ...`` process at a time, each a fresh interpreter with
``PYTHONPATH=<checkout>/src`` so a checkout measures its own source.  It
keeps starting processes for S seconds and checks the
artifacts of every one.  It starts another process only while one
more, as long as the median so far, is expected to end within S seconds,
so a run's length stays near S whatever the machine's speed.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median of
fresh interpreters that import ``sbskit.cli`` and parse the config,
spread between the scenario processes), ``wall_s``, ``cpu_s`` and
``peak_rss_mb`` (medians over the scenario processes, from each child's
own rusage) and ``pass_ratio``.  ``--trace 1`` interleaves untraced runs
with at least two runs under ``perfbench/tracer.py`` and reports the
per-layer metrics; their counts must repeat exactly between traced runs,
and every function, counter and verify suite they name must be present.

The last stdout line is the result object; the line before it is a report
with quartiles, run counts, artifact byte-identity and the environment.
Work files go to ``.bench_build/perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
GOLDEN_DIR = BENCH_DIR / "golden"
WORK_DIR = ROOT / ".bench_build" / "perfbench"

DEFAULT_SEED = 20260808  # the CLI's built-in seed; --seed 0 selects it
QUADRATURE_GATE = 1e-3
SETUP_PROBES = 16
CHILD_TIMEOUT_S = 150
# Same code gives byte-identical artifacts.  The tolerance admits the
# last-digit drift of reordered float sums (relative 1e-16 per operation,
# a few thousand operations per value) and still flags any changed sample
# or formula, which moves values by at least the Monte Carlo noise (~1e-4).
GOLDEN_RTOL = 1e-9
GOLDEN_ATOL = 1e-12
# Held identical on both sides of every comparison.
THREAD_VARS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_CODE = (
    "import sys\n"
    "from sbskit.cli import load_config, parse_measure\n"
    "parse_measure(load_config(sys.argv[1])['measure'])\n"
)


class BenchError(RuntimeError):
    """The benchmark itself cannot run here; no result is printed."""


# ---------------------------------------------------------------------------
# artifact checks: each returns a failure reason, or None


def read_csv(path: Path) -> tuple[list[str], list[list[float]]]:
    lines = path.read_text().splitlines()
    return lines[0].split(","), [[float(c) for c in line.split(",")] for line in lines[1:]]


def check_surface(out: Path, manifest: dict) -> str | None:
    header, rows = read_csv(out / "fig1_surface.csv")
    section = manifest["config"]["fig1"]
    expected = len(section["lambda_grid"]) * len(section["beta_grid"])
    if len(rows) != expected:
        return f"fig1_surface.csv has {len(rows)} rows, expected {expected}"
    col = {name: i for i, name in enumerate(header)}
    for row in rows:
        if not all(math.isfinite(v) for v in row):
            return f"non-finite value in row {row}"
        for name in ("mean_B", "mean_abs_gamma"):
            if not -1e-12 <= row[col[name]] <= 1.0 + 1e-12:
                return f"{name} = {row[col[name]]} outside [0, 1]"
    rel = manifest["gates"]["quadrature_rel_change"]
    if not rel < QUADRATURE_GATE:
        return f"quadrature_rel_change {rel} not below {QUADRATURE_GATE}"
    return None


def check_certify(out: Path, manifest: dict) -> str | None:
    report = json.loads((out / "verify.json").read_text())
    if report["failed_suites"] != ["prop1_as_stated"]:
        return f"failed_suites = {report['failed_suites']}, expected exactly ['prop1_as_stated']"
    return None


def check_discriminate(out: Path, manifest: dict) -> str | None:
    header, rows = read_csv(out / "discrimination.csv")
    if len(rows) != int(manifest["config"]["discrimination"]["t_points"]):
        return f"discrimination.csv has {len(rows)} rows"
    ok = header.index("ok_fraction")
    bad = [row[0] for row in rows if row[ok] != 1.0]
    if bad:
        return f"ok_fraction below 1 at t = {bad}"
    return None


@dataclass(frozen=True)
class Workload:
    scenario: str
    artifact: str
    expect_exit: int
    check: object
    sections: dict
    tiny: dict = field(default_factory=dict)  # self-test sizes


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "surface": Workload(
        "fig1", "fig1_surface.csv", 0, check_surface,
        {"fig1": {"samples": 1}},
        {"fig1": {"samples": 2, "lambda_grid": [0.5, 1.0], "beta_grid": [0.0, 1.5707963267948966],
                  "tau_points": 8001}},
    ),
    # 600 oracle instances: about 2.8% of instances violate prop1_as_stated, so
    # the designed red fires on every seed (at 200 it missed 1 seed in 20).
    "certify": Workload("verify", "verify.json", 2, check_certify, {"verify": {"instances": 600}}),
    "discriminate": Workload(
        "discrimination", "discrimination.csv", 0, check_discriminate,
        {"discrimination": {"n_mac": 51, "draws": 600}},
        {"discrimination": {"n_mac": 51, "draws": 20}},
    ),
}


# ---------------------------------------------------------------------------
# golden comparison


def _close(a, b) -> bool:
    if isinstance(a, bool) or isinstance(b, bool) or not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
        if isinstance(a, dict) and isinstance(b, dict):
            return a.keys() == b.keys() and all(_close(a[k], b[k]) for k in a)
        if isinstance(a, list) and isinstance(b, list):
            return len(a) == len(b) and all(_close(x, y) for x, y in zip(a, b))
        return a == b
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= GOLDEN_ATOL + GOLDEN_RTOL * abs(b)


def compare_golden(artifact: Path, golden: Path) -> tuple[bool, bool]:
    """(numerically equal within tolerance, byte-identical)."""
    data, ref = artifact.read_bytes(), golden.read_bytes()
    if data == ref:
        return True, True
    if artifact.suffix == ".json":
        return _close(json.loads(data), json.loads(ref)), False
    (h1, r1), (h2, r2) = read_csv(artifact), read_csv(golden)
    return h1 == h2 and _close(r1, r2), False


# ---------------------------------------------------------------------------
# processes


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update(THREAD_VARS)
    return env


def run_child(cmd: list[str], log: Path) -> tuple[int, float, float, float]:
    """Run cmd to completion; (exit code, wall s, user+sys CPU s, peak RSS MiB)."""
    with open(log, "wb") as sink:
        started = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=sink, stderr=subprocess.STDOUT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


@dataclass
class Run:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    failure: str | None
    byte_identical: bool | None
    trace: dict | None = None


class Client:
    """Closed-loop client for one workload at one seed."""

    def __init__(self, name: str, seed: int, tiny: bool, write_golden: bool):
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.golden = None if tiny else GOLDEN_DIR / name / self.workload.artifact
        self.write_golden = write_golden
        self.work = WORK_DIR / name
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.config = {"config_version": 1, "seed": DEFAULT_SEED + seed, "threads": 1}
        self.config.update(self.workload.tiny if tiny else self.workload.sections)
        self.config_path = self.work / "config.json"
        self.config_path.write_text(json.dumps(self.config, indent=1, sort_keys=True) + "\n")
        self.count = 0

    def setup_probe(self) -> float:
        """Wall time of one fresh interpreter that imports sbskit.cli and parses the config."""
        cmd = [sys.executable, "-c", SETUP_CODE, str(self.config_path)]
        code, wall, _, _ = run_child(cmd, self.work / "setup.log")
        if code != 0:
            raise BenchError(f"set-up probe exited {code}; see {self.work / 'setup.log'}")
        return wall

    def run(self, traced: bool) -> Run:
        self.count += 1
        out = self.work / f"out{self.count}"
        shutil.rmtree(out, ignore_errors=True)
        cli_args = ["--scenario", self.workload.scenario, "--config", str(self.config_path), "--out-dir", str(out)]
        if traced:
            tdir = self.work / f"trace{self.count}"
            run_id = f"{self.name}-{self.seed}-{self.count}"
            cmd = [sys.executable, str(BENCH_DIR / "tracer.py"), "--out", str(tdir), "--run-id", run_id, "--"]
        else:
            cmd = [sys.executable, "-m", "sbskit.cli"]
        code, wall, cpu, rss = run_child(cmd + cli_args, self.work / f"run{self.count}.log")
        failure, identical = self.check(code, out)
        trace = json.loads((tdir / "trace.json").read_text()) if traced and failure is None else None
        if trace is not None:
            trace["manifest"] = json.loads((out / "manifest.json").read_text())
            trace["artifact"] = out / self.workload.artifact
        else:
            shutil.rmtree(out, ignore_errors=True)
        print(f"{self.name} run {self.count}{' traced' if traced else ''}: exit {code}, "
              f"{wall:.3f} s, {'ok' if failure is None else failure}", file=sys.stderr)
        return Run(wall, cpu, rss, failure, identical, trace)

    def check(self, code: int, out: Path) -> tuple[str | None, bool | None]:
        if code != self.workload.expect_exit:
            return f"exit {code}, expected {self.workload.expect_exit}", None
        try:
            failure = self.workload.check(out, json.loads((out / "manifest.json").read_text()))
        except (OSError, ValueError, KeyError, IndexError) as exc:
            failure = f"unreadable artifact: {exc!r}"
        if failure is not None or self.golden is None or self.seed != 0:
            return failure, None
        artifact = out / self.workload.artifact
        if self.write_golden:
            self.golden.parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(artifact, self.golden)
            self.write_golden = False
        equal, identical = compare_golden(artifact, self.golden)
        return (None if equal else f"{artifact.name} differs from {self.golden}"), identical


# ---------------------------------------------------------------------------
# metrics


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


VERIFY_SUITE_FUNCS = (
    "convention_certification", "oracle_inequalities", "helstrom_suite", "barnum_knill_suite",
    "local_probability_suite", "chernoff_suite", "kolmogorov_fuchs_suite", "moments_suite",
    "short_time_suite", "timescale_suite", "qutrit_prop1_suite", "fig1_anchor_suite", "fig2_anchor_suite",
)
VERIFY_SUITES = (
    "convention_certification", "prop1_as_stated", "prop1_disturbance", "cor1", "cor2",
    "helstrom_identity", "barnum_knill", "local_success_probability", "chernoff_vs_exact",
    "kolmogorov_fuchs", "measure_moments", "short_time_exponents", "time_scales",
    "qutrit_prop1_disturbance", "fig1_anchors", "fig2_anchors",
)
LAYERS = ("cli", "ensemble", "spin_model", "discrimination", "densmat", "sbs_core", "oracle", "verify")


def layer_metrics(trace: dict) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """Per-layer metrics of one traced run, as name -> (value, unit), and the
    referenced names the trace lacks.

    The tracer lists every wrapped function (with 0 calls if unused) and
    starts every counter at 0, so a missing name means a function, counter
    or verify suite was renamed or removed; its metric would read 0.
    """
    agg = trace["names"]
    counters = trace["counters"]
    missing: list[str] = []

    def pick(names):
        missing.extend(n for n in names if n not in agg)
        return [agg[n] for n in names if n in agg]

    def group(prefix):
        names = [n for n in agg if n.startswith(prefix)]
        if not names:
            missing.append(prefix + "*")
        return names

    def calls(names):
        return float(sum(a["calls"] for a in pick(names)))

    def busy(names):
        return sum(a["busy_s"] for a in pick(names))

    def span(name):
        return sum(a["span_s"] for a in pick([name]))

    def counter(name):
        if name not in counters:
            missing.append(name)
        return float(counters.get(name, 0))

    m: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        names = group(f"{layer}.") + (group("io.") if layer == "cli" else [])
        m[f"{layer}.busy_s"] = (busy(names), "s")
        m[f"{layer}.calls"] = (calls(names), "count")
    m["cli.config.busy_s"] = (busy(["cli.load_config", "cli.parse_measure"]), "s")
    m["cli.run_scenario.span_s"] = (span("cli.run_scenario"), "s")
    m["cli.write.busy_s"] = (busy(["cli.write_csv", "io.write_text"]), "s")
    m["cli.write.bytes"] = (counter("cli.write.bytes"), "bytes")

    node = (pick(["ensemble.fig1_node"]) or [{"calls": 0, "span_s": 0.0, "p50_s": 0.0, "p75_s": 0.0}])[0]
    cells = counter("ensemble.cells")
    m["ensemble.fig1_node.calls"] = (float(node["calls"]), "count")
    m["ensemble.fig1_node.span_s"] = (node["span_s"], "s")
    m["ensemble.fig1_node.p50_s"] = (node["p50_s"], "s")
    m["ensemble.fig1_node.p75_s"] = (node["p75_s"], "s")
    m["ensemble.cells"] = (cells, "count")
    m["ensemble.cells_per_s"] = (cells / node["span_s"] if node["span_s"] else 0.0, "1/s")
    m["ensemble.fig2_curves.span_s"] = (span("ensemble.fig2_curves"), "s")
    sample = group("ensemble.sample_")
    m["ensemble.sample.calls"] = (calls(sample), "count")
    m["ensemble.sample.busy_s"] = (busy(sample), "s")
    gates = trace["manifest"]["gates"]
    m["ensemble.quadrature_rel_change"] = (float(gates.get("quadrature_rel_change", 0.0)), "ratio")

    m["spin_model.spinparams_built"] = (counter("spin_model.spinparams_built"), "count")

    for metric, fn in (("poisson_binomial", "majority_success_heterogeneous"),
                       ("local_success", "local_success_probability")):
        m[f"discrimination.{metric}.calls"] = (calls([f"discrimination.{fn}"]), "count")
        m[f"discrimination.{metric}.busy_s"] = (busy([f"discrimination.{fn}"]), "s")
    m["discrimination.helstrom_pair.busy_s"] = (busy(["discrimination.helstrom_pair"]), "s")

    for fn in ("trace_norm", "fidelity", "partial_trace"):
        m[f"densmat.{fn}.busy_s"] = (busy([f"densmat.{fn}"]), "s")

    instances = calls(["oracle.random_instance"])
    m["oracle.random_instance.calls"] = (instances, "count")
    m["oracle.full_joint_state.calls"] = (calls(["oracle.full_joint_state"]), "count")
    m["oracle.full_joint_state.busy_s"] = (busy(["oracle.full_joint_state"]), "s")
    m["oracle.evaluate_instance.span_s"] = (span("oracle.evaluate_instance"), "s")
    m["oracle.branch_state.calls"] = (calls(["oracle.branch_state"]), "count")
    # qubit_families only runs on two-level central systems
    qubit_instances = counter("oracle.instances.d2")
    for fn, base in (("qubit_families", qubit_instances), ("branch_ensemble", instances)):
        m[f"oracle.{fn}.per_instance"] = (calls([f"oracle.{fn}"]) / base if base else 0.0, "calls/instance")
    m["oracle.qubit_instances"] = (qubit_instances, "count")

    for fn in VERIFY_SUITE_FUNCS:
        m[f"verify.{fn}.span_s"] = (span(f"verify.{fn}"), "s")
    suites = None
    artifact = trace["artifact"]
    if artifact.name == "verify.json":
        suites = json.loads(artifact.read_text())["suites"]
    for suite in VERIFY_SUITES:
        if suites is not None and suite not in suites:
            missing.append(f"verify.json suite {suite}")
        m[f"verify.{suite}.failures"] = (float((suites or {}).get(suite, {}).get("failures", 0)), "count")
    m["trace.spans"] = (float(trace["spans"]), "count")
    return m, sorted(set(missing))


# Metrics in these units are deterministic and must repeat exactly between
# traced runs.  Bytes are not: the manifest records the run's wall time.
EXACT_UNITS = ("count", "calls/instance", "ratio")


def fits(runs: list[Run], spent: float, seconds: float) -> bool:
    """Whether one more run, as long as the median so far, ends within the budget."""
    return spent + statistics.median(r.wall_s for r in runs) <= seconds


def measure_untraced(client: Client, seconds: float) -> tuple[dict, dict, list[Run]]:
    """Scenario runs for ``seconds`` with set-up probes spread between them.

    Host speed drifts in steps lasting seconds, so the probes are not taken
    in one burst: before each scenario run the probe count is topped up to
    its share of SETUP_PROBES for the scenario time spent so far, and after
    the last run to SETUP_PROBES.  Probe time is not charged to ``seconds``.
    """
    client.setup_probe()  # fills the bytecode cache; not counted
    probes: list[float] = []
    runs: list[Run] = []
    spent = 0.0
    while not runs or fits(runs, spent, seconds):
        probes.append(client.setup_probe())
        while len(probes) < SETUP_PROBES * spent / seconds:
            probes.append(client.setup_probe())
        runs.append(client.run(traced=False))
        spent += runs[-1].wall_s
    while len(probes) < SETUP_PROBES:
        probes.append(client.setup_probe())
    passed = [r for r in runs if r.failure is None] or runs
    stats = {key: summary([getattr(r, key) for r in passed]) for key in ("wall_s", "cpu_s", "peak_rss_mb")}
    stats["setup_s"] = summary(probes)
    metrics = {
        "setup_s": {"value": stats["setup_s"]["median"], "unit": "s"},
        "wall_s": {"value": stats["wall_s"]["median"], "unit": "s"},
        "cpu_s": {"value": stats["cpu_s"]["median"], "unit": "s"},
        "peak_rss_mb": {"value": stats["peak_rss_mb"]["median"], "unit": "MiB"},
        "pass_ratio": {"value": sum(r.failure is None for r in runs) / len(runs), "unit": "ratio"},
    }
    return metrics, {"stats": stats}, runs


def measure_traced(client: Client, seconds: float) -> tuple[dict, dict, list[Run]]:
    """Traced runs interleaved with untraced ones, untraced-traced-traced-untraced
    and then alternating while the budget lasts, so that the tracing overhead
    (median traced minus median untraced wall_s) is not skewed by host drift."""
    first = (False, True, True, False)
    runs: list[Run] = []
    kinds: list[bool] = []
    started = time.perf_counter()
    while len(runs) < len(first) or fits(runs, time.perf_counter() - started, seconds):
        kinds.append(first[len(runs)] if len(runs) < len(first) else len(runs) % 2 == 0)
        runs.append(client.run(traced=kinds[-1]))
    traced_runs = [r for r, traced in zip(runs, kinds) if traced and r.failure is None]
    untraced_walls = [r.wall_s for r, traced in zip(runs, kinds) if not traced and r.failure is None]
    if len(traced_runs) < 2 or not untraced_walls:
        return {}, {"trace_error": "fewer than two traced or no untraced runs passed their check"}, runs
    tables = [layer_metrics(r.trace) for r in traced_runs]
    metrics = {}
    repeat_errors = []
    for name, (value, unit) in tables[0][0].items():
        values = [t[0][name][0] for t in tables]
        if unit in EXACT_UNITS:
            if len(set(values)) > 1:
                repeat_errors.append(f"{name}: {values}")
        else:
            value = statistics.median(values)
        metrics[name] = {"value": value, "unit": unit}
    traced_wall = statistics.median(r.wall_s for r in traced_runs)
    metrics["trace.overhead_s"] = {"value": traced_wall - statistics.median(untraced_walls), "unit": "s"}
    report = {"untraced_wall_s": untraced_walls, "traced_wall_s": [r.wall_s for r in traced_runs],
              "count_mismatches": repeat_errors,
              "trace_missing": sorted({name for t in tables for name in t[1]})}
    return metrics, report, runs


# ---------------------------------------------------------------------------
# environment


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas = None
    src_files = sorted((ROOT / "src").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in src_files:
        data = path.read_bytes()
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    env = {
        "git_sha": None,
        "git_dirty": None,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "num_threads_env": {k: v for k, v in sorted(child_env().items()) if k.endswith("_NUM_THREADS")},
    }
    if (ROOT / ".git").exists():
        try:
            env["git_sha"] = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                            text=True, check=True).stdout.strip()
            status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"], cwd=ROOT,
                                    capture_output=True, text=True, check=True).stdout
            env["git_dirty"] = bool(status.strip())
        except (OSError, subprocess.CalledProcessError):
            pass
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="sbskit benchmark (see module docstring)")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="workload seed; the config seed is 20260808 + seed")
    parser.add_argument("--seconds", type=float, required=True, help="keep starting scenario runs this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="self-test sizes")
    parser.add_argument("--write-golden", action="store_true", help="record the seed-0 artifact as the golden")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.write_golden and (args.seed != 0 or args.tiny):
        parser.error("--write-golden needs --seed 0 and full sizes")

    try:
        if not (ROOT / "src" / "sbskit" / "cli.py").is_file():
            raise BenchError(f"no sbskit source at {ROOT / 'src'}")
        client = Client(args.workload, args.seed, args.tiny, args.write_golden)
        measure = measure_traced if args.trace else measure_untraced
        metrics, report, runs = measure(client, args.seconds)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    failed = sum(r.failure is not None for r in runs)
    identical = [r.byte_identical for r in runs if r.byte_identical is not None]
    report.update({
        "workload": args.workload,
        "seed": args.seed,
        "config_seed": client.config["seed"],
        "trace": args.trace,
        "tiny": args.tiny,
        "runs": len(runs),
        "fail_ratio": failed / len(runs),
        "failures": sorted({r.failure for r in runs if r.failure}),
        "golden_compared": len(identical),
        "byte_identical": all(identical) if identical else None,
        "environment": environment(),
    })
    correct = (failed == 0 and bool(metrics) and not report.get("count_mismatches")
               and not report.get("trace_missing"))
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": len(runs), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
