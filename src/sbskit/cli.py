"""Reproducible experiment runner.

Scenarios: fig1 (time-averaged fidelity / dephasing surface), fig2
(averaged distance-bound curves), timescales (closed-form broadcast and
decoherence times), discrimination (majority-vote performance vs the
bounds), verify (the full certification suite).

Configuration is a single JSON file of nested sections (schema documented
in the README, carried under "config_version"); every run emits the
requested CSV/JSON artifacts plus a manifest.json embedding the fully
resolved config, seed, package version and wall time, which is enough to
rerun the experiment.  CSV floats are written with 17 significant digits
so reruns are byte-identical.

Exit codes: 0 success, 1 configuration error, 2 verification failure,
3 numerical convergence gate not met.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import time
from pathlib import Path

import numpy as np

from . import __version__, verify
from .discrimination import (
    local_success_probability,
    majority_stats,
    majority_success_heterogeneous,
)
from .ensemble import MeasureSpec, RunConfig, fig2_curves, fig1_surface, sample_spin_arrays, sample_stream
from .spin_model import (
    macrofraction_fidelity,
    short_time_exponents,
    stack_spins,
    time_scales,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VERIFY = 2
EXIT_GATE = 3

CONVERGENCE_GATE = 1e-3

SCENARIOS = ("fig1", "fig2", "timescales", "discrimination", "verify")

DEFAULT_CONFIG = {
    "config_version": 1,
    "seed": 20260808,
    "samples": 200,
    "threads": 1,
    "measure": {"angles": "haar", "lambda": "hilbert_schmidt", "coupling": [0.0, 1.0]},
    "fig1": {
        "lambda_grid": [0.5, 0.6, 0.7, 0.8, 0.9, 1.0],
        # pi/6 steps so the boundary ridges sit exactly at beta = 0 and pi
        "beta_grid": [i * math.pi / 6.0 for i in range(7)],
        "n_spins": 100,
        "tau": 200.0,
        "tau_points": 40001,
        "samples": 8,
    },
    "fig2": {"n_values": [30, 50, 200, 500], "t_min": 0.0, "t_max": 1.2, "t_points": 121},
    "timescales": {
        "cases": [
            {"n_mac": 100, "n_total": 200, "f": 0.5},
            {"n_mac": 100, "n_total": 400, "f": 0.0},
            {"n_mac": 1000, "n_total": 2000, "f": 0.5},
        ]
    },
    "discrimination": {"n_mac": 51, "t_min": 0.05, "t_max": 3.2, "t_points": 22, "draws": 200},
    "verify": {"instances": 200},
}


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending field."""


def _merge(base: dict, override: dict, path: str = "") -> dict:
    out = dict(base)
    for key, val in override.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown config field: {where}")
        if isinstance(base[key], dict):
            if not isinstance(val, dict):
                raise ConfigError(f"config field {where} must be a section")
            out[key] = _merge(base[key], val, where)
        else:
            out[key] = val
    return out


def load_config(path: str | None) -> dict:
    """Defaults overlaid with the file at path; shares nothing with DEFAULT_CONFIG."""
    if path is None:
        return copy.deepcopy(DEFAULT_CONFIG)
    try:
        raw = json.loads(Path(path).read_text(), parse_constant=_reject_constant)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    version = raw.get("config_version", 1)
    if version != 1:
        raise ConfigError(f"unsupported config_version: {version}")
    return _merge(copy.deepcopy(DEFAULT_CONFIG), raw)


def _reject_constant(name: str):
    raise ConfigError(f"config file is not valid JSON: {name} is not a number")


def lookup(config: dict, path: str, kind):
    """The value at a dotted config path converted by kind; a value kind
    rejects raises ConfigError naming the path."""
    value = config
    for key in path.split("."):
        value = value[key]
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: invalid value {value!r} ({exc})")


def _floats(values) -> tuple:
    return tuple(float(v) for v in values)


def _ints(values) -> tuple:
    return tuple(int(v) for v in values)


def parse_measure(section: dict) -> MeasureSpec:
    config = {"measure": section}  # so lookups name measure.<field>
    angles, lam, coupling = section["angles"], section["lambda"], section["coupling"]
    if angles != "haar":
        if not (isinstance(angles, (list, tuple)) and len(angles) == 3):
            raise ConfigError("measure.angles must be \"haar\" or [alpha, beta, gamma]")
        angles = lookup(config, "measure.angles", _floats)
    if lam != "hilbert_schmidt":
        lam = lookup(config, "measure.lambda", float)
    pair = isinstance(coupling, (list, tuple))
    if pair and len(coupling) != 2:
        raise ConfigError("measure.coupling must be a number or [a, b]")
    coupling = lookup(config, "measure.coupling", _floats if pair else float)
    try:
        return MeasureSpec(angles=angles, lam=lam, coupling=coupling)
    except ValueError as exc:
        raise ConfigError(f"measure: {exc}")


def format_float(x: float) -> str:
    if isinstance(x, float) and math.isnan(x):
        return "nan"
    return format(float(x), ".17g")


def write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        cells = [format_float(v) if isinstance(v, float) else str(v) for v in row]
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n")


def run_config(config: dict, **fields: tuple) -> RunConfig:
    """RunConfig of the config's seed, threads and measure plus each field
    given as (dotted config path, type); a bad value raises ConfigError
    naming its path."""
    values = {name: lookup(config, path, kind) for name, (path, kind) in fields.items()}
    measure = parse_measure(config["measure"])
    try:
        return RunConfig(
            seed=lookup(config, "seed", int),
            threads=lookup(config, "threads", int),
            measure=measure,
            **values,
        )
    except ValueError as exc:
        # RunConfig messages start with the name of the rejected field
        name, _, reason = str(exc).partition(": ")
        raise ConfigError(f"{fields[name][0]}: {reason}")


def run_fig1(config: dict, out_dir: Path) -> tuple[int, list[str], dict]:
    run = run_config(
        config,
        samples=("fig1.samples", int),
        tau=("fig1.tau", float),
        tau_points=("fig1.tau_points", int),
    )
    grids = [lookup(config, f"fig1.{name}", _floats) for name in ("lambda_grid", "beta_grid")]
    n_spins = lookup(config, "fig1.n_spins", int)
    if n_spins < 1:
        raise ConfigError(f"fig1.n_spins: must be >= 1, got {n_spins}")
    try:
        surface = fig1_surface(run, *grids, n_spins)
    except ValueError as exc:
        raise ConfigError(f"fig1: {exc}")
    header = ["lambda_plus", "beta", "mean_B", "mean_abs_gamma", "stderr_B", "stderr_gamma"]
    rows = [
        [r["lambda_plus"], r["beta"], r["mean_B"], r["mean_abs_gamma"], r["stderr_B"], r["stderr_gamma"]]
        for r in surface
    ]
    write_csv(out_dir / "fig1_surface.csv", header, rows)
    worst_rel = max(max(r["rel_change_B"], r["rel_change_gamma"]) for r in surface)
    gates = {"quadrature_rel_change": worst_rel, "gate_limit": CONVERGENCE_GATE}
    status = EXIT_OK if worst_rel < CONVERGENCE_GATE else EXIT_GATE
    return status, ["fig1_surface.csv"], gates


def run_fig2(config: dict, out_dir: Path) -> tuple[int, list[str], dict]:
    run = run_config(
        config,
        samples=("samples", int),
        t_min=("fig2.t_min", float),
        t_max=("fig2.t_max", float),
        t_points=("fig2.t_points", int),
    )
    n_values = lookup(config, "fig2.n_values", _ints)
    try:
        curves = fig2_curves(n_values, run)
    except ValueError as exc:
        raise ConfigError(f"fig2.n_values: {exc}")
    files = []
    for n, curve in sorted(curves.items()):
        name = f"fig2_curve_n{n}.csv"
        rows = [
            [float(t), float(m), float(s)]
            for t, m, s in zip(curve.abscissa, curve.mean, curve.stderr)
        ]
        write_csv(out_dir / name, ["t", "mean_bound", "stderr"], rows)
        files.append(name)
    return EXIT_OK, files, {}


def run_timescales(config: dict, out_dir: Path) -> tuple[int, list[str], dict]:
    g2bar = parse_measure(config["measure"]).g2bar()
    header = ["N_m", "N", "f", "g2bar", "t_B", "t_D", "ratio_sq", "B_at_tB", "gamma2_at_tD"]
    rows = []
    for k, case in enumerate(lookup(config, "timescales.cases", list)):
        try:
            n_mac, n_total, f = int(case["n_mac"]), int(case["n_total"]), float(case["f"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"timescales.cases[{k}]: entries need numbers n_mac, n_total, f ({exc!r})")
        try:
            t_b, t_d, ratio_sq = time_scales(n_total, n_mac, f, g2bar)
        except ValueError as exc:
            raise ConfigError(f"timescales.cases[{k}]: {exc}")
        kappa_b, _ = short_time_exponents(g2bar, t_b)
        _, chi_d = short_time_exponents(g2bar, t_d)
        b_at_tb = math.exp(-0.5 * n_mac * kappa_b)
        gamma2_at_td = math.exp(-(1.0 - f) * n_total * chi_d)
        rows.append([n_mac, n_total, f, g2bar, t_b, t_d, ratio_sq, b_at_tb, gamma2_at_td])
    write_csv(out_dir / "timescales.csv", header, rows)
    return EXIT_OK, ["timescales.csv"], {}


def run_discrimination(config: dict, out_dir: Path) -> tuple[int, list[str], dict]:
    measure = parse_measure(config["measure"])
    sizes = {name: lookup(config, f"discrimination.{name}", int) for name in ("n_mac", "draws", "t_points")}
    for name, value in sizes.items():
        if value < 1:
            raise ConfigError(f"discrimination.{name}: must be >= 1, got {value}")
    n_mac, draws = sizes["n_mac"], sizes["draws"]
    seed = lookup(config, "seed", int)
    t_min, t_max = (lookup(config, f"discrimination.{name}", float) for name in ("t_min", "t_max"))
    for name, value in (("t_min", t_min), ("t_max", t_max)):
        if not value >= 0.0:  # also false for NaN
            raise ConfigError(f"discrimination.{name}: must be >= 0, got {value}")
    t_grid = np.linspace(t_min, t_max, sizes["t_points"])
    header = [
        "t",
        "p_bar",
        "S_bar",
        "p_tilde_exact",
        "chernoff_lb",
        "K",
        "fuchs_limit",
        "p_tilde_het",
        "mean_B",
        "ok_fraction",
    ]
    rows = []
    # draws x n_mac, one row per draw
    spins = stack_spins(lambda d: sample_spin_arrays(measure, sample_stream(seed, d, label=20), n_mac), draws)
    for t in t_grid:
        t = float(t)
        probs = local_success_probability(spins, t)
        p_het = majority_success_heterogeneous(probs)
        b_vals = macrofraction_fidelity(spins, t)
        ok_count = int(np.count_nonzero(np.abs(2.0 * p_het - 1.0) <= 1.0 - 0.5 * b_vals * b_vals + 1e-9))
        stats = majority_stats(n_mac, float(np.mean(probs)))
        mean_b = float(np.mean(b_vals))
        rows.append(
            [
                t,
                stats.p_bar,
                stats.s_bar,
                stats.p_tilde_exact,
                stats.chernoff_lb,
                abs(2.0 * stats.p_tilde_exact - 1.0),
                1.0 - 0.5 * mean_b * mean_b,
                float(np.mean(p_het)),
                mean_b,
                ok_count / draws,
            ]
        )
    write_csv(out_dir / "discrimination.csv", header, rows)
    all_ok = all(row[-1] == 1.0 for row in rows)
    return EXIT_OK if all_ok else EXIT_VERIFY, ["discrimination.csv"], {"fuchs_all_ok": all_ok}


def run_verify(config: dict, out_dir: Path) -> tuple[int, list[str], dict]:
    instances = lookup(config, "verify.instances", int)
    if instances < 1:
        raise ConfigError(f"verify.instances: must be >= 1, got {instances}")
    suites = verify.run_all(seed=lookup(config, "seed", int), instances=instances)
    report = {
        "suites": {name: suite.as_dict() for name, suite in suites.items()},
        "all_passed": all(s.passed for s in suites.values()),
        "failed_suites": sorted(n for n, s in suites.items() if not s.passed),
    }
    (out_dir / "verify.json").write_text(json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n")
    status = EXIT_OK if report["all_passed"] else EXIT_VERIFY
    return status, ["verify.json"], {"all_passed": report["all_passed"]}


RUNNERS = {
    "fig1": run_fig1,
    "fig2": run_fig2,
    "timescales": run_timescales,
    "discrimination": run_discrimination,
    "verify": run_verify,
}


def run_scenario(scenario: str, config: dict, out_dir: Path) -> int:
    if scenario not in SCENARIOS:
        raise ConfigError(f"unknown scenario: {scenario} (choose from {', '.join(SCENARIOS)})")
    # shared fields, checked before any runner reads them or starts a pool
    lookup(config, "seed", int)
    threads = lookup(config, "threads", int)
    cores = os.cpu_count() or 1
    if not 1 <= threads <= cores:
        raise ConfigError(f"threads: must be in [1, {cores}] (the core count), got {threads}")
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.time()
    status, files, gates = RUNNERS[scenario](config, out_dir)
    manifest = {
        "artifact": "sbskit",
        "artifact_version": __version__,
        "scenario": scenario,
        "config": config,
        "seed": config["seed"],
        "outputs": files,
        "gates": gates,
        "exit_status": status,
        "wall_time_s": round(time.time() - started, 3),
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True, allow_nan=False) + "\n")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sbskit",
        description="Run broadcast-structure experiment scenarios and emit CSV/JSON artifacts.",
    )
    parser.add_argument("--scenario", required=True, help=f"one of: {', '.join(SCENARIOS)}")
    parser.add_argument("--config", default=None, help="JSON config file (defaults built in)")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out-dir", default="out", help="output directory")
    parser.add_argument("--threads", type=int, default=None, help="override worker threads")
    parser.add_argument("--samples", type=int, default=None, help="override Monte Carlo samples")
    args = parser.parse_args(argv)

    try:
        config = load_config(args.config)
        if args.seed is not None:
            config["seed"] = int(args.seed)
        if args.threads is not None:
            config["threads"] = int(args.threads)
        if args.samples is not None:
            config["samples"] = int(args.samples)
            config["fig1"]["samples"] = int(args.samples)
            config["discrimination"]["draws"] = int(args.samples)
        return run_scenario(args.scenario, config, Path(args.out_dir))
    except ConfigError as exc:
        print(f"config error: {exc}")
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
