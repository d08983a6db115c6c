"""Reproducible experiment runner.

Scenarios: fig1 (time-averaged fidelity / dephasing surface), fig2
(averaged distance-bound curves), timescales (closed-form broadcast and
decoherence times), discrimination (majority-vote performance vs the
bounds), verify (the full certification suite).

Configuration is a single JSON file of nested sections (schema documented
in the README, carried under "config_version") over DEFAULT_CONFIG, the
one source of defaults.  Before anything is written, run_scenario converts
and tests every field against FIELDS, read by its scenario or not (the
measure section also through parse_measure), so a bad value exits 1
naming its field; the runners read the converted values.  Every run emits
its CSV/JSON artifacts plus a manifest.json embedding the resolved config,
seed, package version, wall time and environment (Python, numpy, BLAS,
thread settings), enough to rerun the experiment.  CSV floats have 17
significant digits so reruns are byte-identical.  Every run parameter
comes from the config: no option overrides a field.

Exit codes: 0 success, 1 bad invocation (a bad option, config file, field
or output directory), 2 verification failure, 3 convergence gate not met.
"""

from __future__ import annotations

import argparse
import copy
import itertools
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .ensemble import MeasureSpec, draw_spin_arrays, fig1_node, fig2_curves, sample_rows
from .spin_model import (
    SpinParams,
    delta,
    macrofraction_fidelity,
    short_time_exponents,
    sin2_coefficients,
    sin_gt,
    time_scales,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VERIFY = 2
EXIT_GATE = 3

CONVERGENCE_GATE = 1e-3
# most Monte Carlo samples or draws one run may ask for: at the default
# sizes a discrimination draw adds about 6 KiB to the peak memory and a fig2
# sample about 12 KiB, so a run at the cap stays near 1 GiB
MAX_SAMPLES = 100_000
# most spins of a bath or macrofraction: at the default sizes a run at the cap
# holds about 0.3 GiB in fig1 and 2 GiB in discrimination (200 draws)
MAX_SPINS = 100_000
# most spins one discrimination run draws in all, draws x n_mac: the 2 GiB run above
MAX_DRAWN_SPINS = 200 * MAX_SPINS
# most time points: about 41 bytes each in fig1, 12 KiB each in fig2 (200 samples)
MAX_TAU_POINTS = 10_000_001
MAX_TIME_POINTS = 100_000
# most curve points one fig2 run holds, samples x len(n_values) x t_points:
# about 16 bytes each, so a run at the cap holds about 1.5 GiB
MAX_CURVE_POINTS = 100_000_000
# oracle instances run in blocks of a fixed size, so this bounds time, not memory
MAX_INSTANCES = 100_000

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


class ConfigError(Exception):
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
    except OSError as exc:
        raise ConfigError(f"config file {path} cannot be read: {exc.strerror or exc}")
    except ValueError as exc:  # invalid JSON, or bytes that do not decode as text
        raise ConfigError(f"config file is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    version = raw.get("config_version", 1)
    if type(version) is not int or version != 1:  # True == 1, but a bool or a float is no version
        raise ConfigError(f"unsupported config_version: {version!r}")
    return _merge(copy.deepcopy(DEFAULT_CONFIG), raw)


def _reject_constant(name: str):
    raise ConfigError(f"config file is not valid JSON: {name} is not a number")


def _finite(value) -> float:
    """value as a finite float: a bool raises, and a JSON number too large for
    a float, like 1e999, loads as inf and raises here."""
    if isinstance(value, bool):
        raise ValueError("not a number")
    value = float(value)
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def _floats(values) -> tuple:
    return tuple(_finite(v) for v in values)


def _integer(value) -> int:
    """value as an int; a bool or a fractional number raises instead of being truncated."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError("not an integer")
    return int(value)


def _accepts(fn, *args, **kwargs) -> bool:
    """True once fn(*args, **kwargs) returns; a ValueError it raises says why not."""
    fn(*args, **kwargs)
    return True


def _check(path: str, value, convert, test, requirement: str):
    """value converted, or ConfigError naming path if the conversion raises or the test fails."""
    try:
        converted = convert(value)
        if test(converted):
            return converted
        reason = ""
    except (KeyError, TypeError, ValueError) as exc:
        reason = f" ({exc})"
    raise ConfigError(f"{path}: {requirement}, got {value!r}{reason}")


def _count(low: int, cap: int) -> tuple:
    return _integer, lambda n: low <= n <= cap, f"must be an integer from {low} to {cap}"


# time_scales takes (n_total, n_mac, f, g2bar); its g2bar is checked with the measure
_CASE = (
    lambda case: (_integer(case["n_mac"]), _integer(case["n_total"]), _finite(case["f"])),
    lambda case: case[1] >= 1 and _accepts(time_scales, case[1], case[0], case[2], 1.0),
    "needs numbers n_mac, n_total >= 1 and f",
)
_TIME = (_finite, lambda t: t >= 0.0, "must be >= 0")

# dotted field -> (conversion, test of the converted value, requirement); the
# spin and measure ranges stay defined in SpinParams and MeasureSpec
FIELDS = {
    "seed": (_integer, lambda n: n >= 0, "must be an integer >= 0"),
    "samples": _count(1, MAX_SAMPLES),
    "threads": (_integer, lambda n: 1 <= n <= (os.cpu_count() or 1), "must be an integer from 1 to the core count"),
    "measure.angles": (
        lambda a: a if a == "haar" else _floats(a), lambda a: _accepts(MeasureSpec, angles=a),
        'must be "haar" or [alpha, beta, gamma]',
    ),
    "measure.lambda": (
        lambda lam: lam if lam == "hilbert_schmidt" else _finite(lam), lambda lam: _accepts(MeasureSpec, lam=lam),
        'must be "hilbert_schmidt" or a number',
    ),
    "measure.coupling": (
        lambda c: _floats(c) if isinstance(c, (list, tuple)) else _finite(c), lambda c: _accepts(MeasureSpec, coupling=c),
        "must be a number or [a, b]",
    ),
    "fig1.lambda_grid": (
        _floats, lambda lams: len(lams) > 0 and _accepts(SpinParams, 0.0, 0.0, 0.0, np.array(lams), 0.0),
        "must be a nonempty list of eigenvalues",
    ),
    "fig1.beta_grid": (
        _floats, lambda betas: len(betas) > 0 and _accepts(SpinParams, 0.0, np.array(betas), 0.0, 0.0, 0.0),
        "must be a nonempty list of polar angles",
    ),
    "fig1.n_spins": _count(1, MAX_SPINS),
    # the convergence gate's half-resolution quadrature must end at tau > 0 too
    "fig1.tau": (_finite, lambda tau: tau > 0.0, "must be > 0"),
    "fig1.tau_points": (
        _integer, lambda n: 3 <= n <= MAX_TAU_POINTS and n % 2 == 1, f"must be an odd integer from 3 to {MAX_TAU_POINTS}",
    ),
    "fig1.samples": _count(1, MAX_SAMPLES),
    # one curve file per size
    "fig2.n_values": (
        lambda ns: tuple(_integer(n) for n in ns),
        lambda ns: len(ns) > 0 and 1 <= min(ns) and max(ns) <= MAX_SPINS and len(set(ns)) == len(ns),
        f"must be a nonempty list of distinct integers from 1 to {MAX_SPINS}",
    ),
    "fig2.t_min": _TIME,
    "fig2.t_max": _TIME,
    "fig2.t_points": _count(2, MAX_TIME_POINTS),
    "timescales.cases": (
        lambda cases: [_check(f"timescales.cases[{k}]", case, *_CASE) for k, case in enumerate(cases)],
        lambda cases: len(cases) > 0,
        "must be a nonempty list of cases",
    ),
    "discrimination.n_mac": _count(1, MAX_SPINS),
    "discrimination.t_min": _TIME,
    "discrimination.t_max": _TIME,
    "discrimination.t_points": _count(1, MAX_TIME_POINTS),
    "discrimination.draws": _count(1, MAX_SAMPLES),
    "verify.instances": _count(1, MAX_INSTANCES),  # with none the oracle suites would check nothing
}


def parse_measure(section: dict) -> MeasureSpec:
    """The measure section as a MeasureSpec; a bad value raises ConfigError naming its field."""
    spec = {key: _check(f"measure.{key}", value, *FIELDS[f"measure.{key}"]) for key, value in section.items()}
    return MeasureSpec(angles=spec["angles"], lam=spec["lambda"], coupling=spec["coupling"])


def format_float(x: float) -> str:
    return format(float(x), ".17g")  # NaN prints as nan


def write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        cells = [format_float(v) if isinstance(v, float) else str(v) for v in row]
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n")


def run_fig1(values: dict, out_dir: Path) -> tuple[int, list[str], dict]:
    rows, worst_rel = [], 0.0
    nodes = itertools.product(values["fig1.lambda_grid"], values["fig1.beta_grid"])
    for node, (lam_plus, beta) in enumerate(nodes):
        mean_b, mean_g, se_b, se_g, rel_b, rel_g = fig1_node(
            lam_plus, beta, values["fig1.n_spins"], values["fig1.tau"], values["fig1.tau_points"],
            values["fig1.samples"], values["seed"] + node, values["measure"], values["threads"],
        )
        rows.append([lam_plus, beta, mean_b, mean_g, se_b, se_g])
        worst_rel = max(worst_rel, rel_b, rel_g)
    header = ["lambda_plus", "beta", "mean_B", "mean_abs_gamma", "stderr_B", "stderr_gamma"]
    write_csv(out_dir / "fig1_surface.csv", header, rows)
    gates = {"quadrature_rel_change": worst_rel, "gate_limit": CONVERGENCE_GATE}
    status = EXIT_OK if worst_rel < CONVERGENCE_GATE else EXIT_GATE
    return status, ["fig1_surface.csv"], gates


def run_fig2(values: dict, out_dir: Path) -> tuple[int, list[str], dict]:
    t = np.linspace(values["fig2.t_min"], values["fig2.t_max"], values["fig2.t_points"])
    n_values = values["fig2.n_values"]
    mean, stderr = fig2_curves(n_values, t, values["samples"], values["seed"], values["measure"], values["threads"])
    files = [f"fig2_curve_n{n}.csv" for n in n_values]
    for name, curve, error in zip(files, mean, stderr):
        write_csv(out_dir / name, ["t", "mean_bound", "stderr"], np.stack([t, curve, error], axis=-1).tolist())
    return EXIT_OK, files, {}


def run_timescales(values: dict, out_dir: Path) -> tuple[int, list[str], dict]:
    g2bar = values["measure"].g2bar()
    header = ["N_m", "N", "f", "g2bar", "t_B", "t_D", "ratio_sq", "B_at_tB", "gamma2_at_tD"]
    rows = []
    for n_mac, n_total, f in values["timescales.cases"]:
        t_b, t_d, ratio_sq = time_scales(n_total, n_mac, f, g2bar)
        kappa_b, _ = short_time_exponents(g2bar, t_b)
        _, chi_d = short_time_exponents(g2bar, t_d)
        b_at_tb = math.exp(-0.5 * n_mac * kappa_b)
        gamma2_at_td = math.exp(-(1.0 - f) * n_total * chi_d)
        rows.append([n_mac, n_total, f, g2bar, t_b, t_d, ratio_sq, b_at_tb, gamma2_at_td])
    write_csv(out_dir / "timescales.csv", header, rows)
    return EXIT_OK, ["timescales.csv"], {}


def run_discrimination(values: dict, out_dir: Path) -> tuple[int, list[str], dict]:
    # imported here, as verify in run_verify, so other scenarios never load them
    from .discrimination import (
        chernoff_bound, kolmogorov_fuchs, local_success_probability, majority_success_heterogeneous,
    )

    n_mac, draws, seed = values["discrimination.n_mac"], values["discrimination.draws"], values["seed"]
    t_grid = np.linspace(
        values["discrimination.t_min"], values["discrimination.t_max"], values["discrimination.t_points"]
    )
    header = ["t", "p_bar", "S_bar", "p_tilde_exact", "chernoff_lb", "K", "fuchs_limit", "p_tilde_het", "mean_B",
              "ok_fraction"]
    rows = []
    # draws x n_mac, one row per draw
    spins = SpinParams(*sample_rows(seed, 20, range(draws), lambda rng: draw_spin_arrays(values["measure"], rng, n_mac)))
    # the per-spin factors that do not depend on t
    abs_delta = np.abs(delta(spins))
    b2_coeff, _ = sin2_coefficients(spins)
    # n_mac x (draws + 1), count-major as the majority tails read it: one
    # column per draw, and last the mean success, whose exact tail is
    # checked against its Chernoff lower bound
    trials = np.empty((n_mac, draws + 1))
    for t in t_grid:
        t = float(t)
        s = sin_gt(spins, t)
        probs = local_success_probability(abs_delta, s)
        p_bar = float(np.mean(probs))
        trials[:, :-1], trials[:, -1] = probs.T, p_bar
        tails = majority_success_heterogeneous(trials.T)
        p_het, exact = tails[:-1], float(tails[-1])
        b_vals = macrofraction_fidelity(b2_coeff, s)
        ok_count = int(np.count_nonzero(kolmogorov_fuchs(p_het, b_vals)[2]))
        s_bar = p_bar - 0.5
        lower = chernoff_bound(n_mac, min(max(s_bar, 0.0), 0.5))
        if s_bar >= 0.0 and exact < lower - 1e-12:
            raise AssertionError(f"exact majority tail {exact} fell below its Chernoff bound {lower}")
        mean_b = float(np.mean(b_vals))
        k, limit, _ = kolmogorov_fuchs(exact, mean_b)
        rows.append([t, p_bar, s_bar, exact, lower, k, limit, float(np.mean(p_het)), mean_b, ok_count / draws])
    write_csv(out_dir / "discrimination.csv", header, rows)
    all_ok = all(row[-1] == 1.0 for row in rows)
    return EXIT_OK if all_ok else EXIT_VERIFY, ["discrimination.csv"], {"fuchs_all_ok": all_ok}


def run_verify(values: dict, out_dir: Path) -> tuple[int, list[str], dict]:
    from . import verify

    suites = verify.run_all(seed=values["seed"], instances=values["verify.instances"])
    report = {
        "suites": {name: suite.as_dict() for name, suite in suites.items()},
        "all_passed": all(s.passed for s in suites.values()),
        "failed_suites": sorted(n for n, s in suites.items() if not s.passed),
    }
    (out_dir / "verify.json").write_text(json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n")
    status = EXIT_OK if report["all_passed"] else EXIT_VERIFY
    return status, ["verify.json"], {"all_passed": report["all_passed"]}


def _environment() -> dict:
    """The interpreter, numpy, BLAS build and thread settings a result's
    last bits can depend on: the curve kernel's sums run in BLAS dgemm."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (AttributeError, KeyError, TypeError):
        blas = {"name": None, "version": None}
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "num_threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }


RUNNERS = {
    "fig1": run_fig1,
    "fig2": run_fig2,
    "timescales": run_timescales,
    "discrimination": run_discrimination,
    "verify": run_verify,
}
SCENARIOS = tuple(RUNNERS)


def run_scenario(scenario: str, config: dict, out_dir: Path) -> int:
    if scenario not in SCENARIOS:
        raise ConfigError(f"unknown scenario: {scenario} (choose from {', '.join(SCENARIOS)})")
    # every field, read by this scenario or not, checked before any output is
    # written: the manifest records the whole config
    values = {}
    for path in FIELDS:
        section, _, key = path.rpartition(".")
        values[path] = _check(path, config[section][key] if section else config[key], *FIELDS[path])
    values["measure"] = parse_measure(config["measure"])
    coupling = config["measure"]["coupling"]
    # sin(g t) is NaN once g t overflows, at the longest time any scenario reaches
    longest = max(values["fig1.tau"], values["fig2.t_max"], values["discrimination.t_max"])
    if not math.isfinite(float(np.max(np.abs(values["measure.coupling"]))) * longest):
        raise ConfigError(f"measure.coupling: |g| times the longest time, {longest!r}, must be finite, got {coupling!r}")
    if scenario == "timescales" and not 0.0 < values["measure"].g2bar() < math.inf:
        raise ConfigError(f"measure.coupling: timescales need a nonzero coupling of finite E[g^2], got {coupling!r}")
    drawn = values["discrimination.draws"] * values["discrimination.n_mac"]
    if drawn > MAX_DRAWN_SPINS:
        raise ConfigError(f"discrimination.draws: times n_mac must be at most {MAX_DRAWN_SPINS}, got {drawn}")
    points = values["samples"] * len(values["fig2.n_values"]) * values["fig2.t_points"]
    if points > MAX_CURVE_POINTS:
        raise ConfigError(f"fig2.n_values: samples x entries x t_points must be at most {MAX_CURVE_POINTS}, got {points}")
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out-dir {out_dir}: {exc.strerror or exc}")
    started = time.time()
    status, files, gates = RUNNERS[scenario](values, out_dir)
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
        "environment": _environment(),
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True, allow_nan=False) + "\n")
    return status


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise ConfigError, so they exit 1 as bad input, not 2."""

    def error(self, message):
        raise ConfigError(message)


def main(argv=None) -> int:
    parser = _Parser(
        prog="sbskit",
        description="Run broadcast-structure experiment scenarios and emit CSV/JSON artifacts.",
    )
    parser.add_argument("--scenario", required=True, help=f"one of: {', '.join(SCENARIOS)}")
    parser.add_argument("--config", default=None, help="JSON config file (defaults built in)")
    parser.add_argument("--out-dir", default="out", help="output directory")
    try:
        args = parser.parse_args(argv)
        return run_scenario(args.scenario, load_config(args.config), Path(args.out_dir))
    except ConfigError as exc:
        print(f"config error: {exc}")
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
