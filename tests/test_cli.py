import copy
import importlib.util
import json
import math
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sbskit import cli

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "perfbench" / "golden"
GOLDEN_SURFACE = GOLDEN / "surface" / "fig1_surface.csv"
GOLDEN_DISCRIMINATION = GOLDEN / "discriminate" / "discrimination.csv"
GOLDEN_CERTIFY = GOLDEN / "certify" / "verify.json"


def reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def read_json(path):
    """An artifact parsed as strict JSON: NaN and Infinity fail."""
    return json.loads(path.read_text(), parse_constant=reject_constant)


def run_cli(args):
    """cli.main on args; every manifest.json and verify.json it leaves must be strict JSON."""
    status = cli.main(args)
    out = Path(args[args.index("--out-dir") + 1])
    for name in ("manifest.json", "verify.json"):
        if (out / name).exists():
            read_json(out / name)
    return status


# each capped size field: its cap, and the largest value a default, a
# benchmark workload or a bath of 1e4 spins asks of it
SIZE_CAPS = {
    "samples": (cli.MAX_SAMPLES, 200),
    "fig1.samples": (cli.MAX_SAMPLES, 8),
    "discrimination.draws": (cli.MAX_SAMPLES, 600),
    "fig1.n_spins": (cli.MAX_SPINS, 10_000),
    "fig1.tau_points": (cli.MAX_TAU_POINTS, 40_001),
    "fig2.n_values": (cli.MAX_SPINS, 10_000),
    "fig2.t_points": (cli.MAX_TIME_POINTS, 121),
    "discrimination.n_mac": (cli.MAX_SPINS, 10_000),
    "discrimination.t_points": (cli.MAX_TIME_POINTS, 22),
    "verify.instances": (cli.MAX_INSTANCES, 600),
}


class TestConfig:
    def test_unknown_field_named(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"fig2": {"n_valuez": [3]}}))
        with pytest.raises(cli.ConfigError, match="fig2.n_valuez"):
            cli.load_config(str(cfg))

    def test_unknown_scenario_is_config_error(self, tmp_path):
        assert run_cli(["--scenario", "fig3", "--out-dir", str(tmp_path)]) == cli.EXIT_CONFIG

    def test_missing_file(self):
        with pytest.raises(cli.ConfigError, match="not found"):
            cli.load_config("/nonexistent/config.json")

    def test_invalid_json(self, tmp_path):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{not json")
        with pytest.raises(cli.ConfigError, match="valid JSON"):
            cli.load_config(str(cfg))

    def test_bad_measure_reported(self, tmp_path):
        cfg = tmp_path / "m.json"
        cfg.write_text(json.dumps({"measure": {"coupling": [2.0, 1.0]}}))
        out = tmp_path / "out"
        assert run_cli(["--scenario", "timescales", "--config", str(cfg), "--out-dir", str(out)]) == cli.EXIT_CONFIG

    def test_main_leaves_defaults_untouched(self, tmp_path):
        before = copy.deepcopy(cli.DEFAULT_CONFIG)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"samples": 3, "threads": 2, "fig1": {"samples": 3}, "discrimination": {"draws": 3}}))
        for name in ("a", "b"):
            out = tmp_path / name
            args = ["--scenario", "timescales", "--config", str(cfg), "--out-dir", str(out)]
            assert run_cli(args) == 0
            config = read_json(out / "manifest.json")["config"]
            assert config["fig1"]["samples"] == config["discrimination"]["draws"] == 3
        assert cli.DEFAULT_CONFIG == before

    def test_loaded_configs_share_no_lists(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"seed": 5}))
        for loaded in (cli.load_config(None), cli.load_config(str(cfg))):
            loaded["measure"]["coupling"].append(2.0)
            loaded["fig1"]["lambda_grid"].clear()
            loaded["timescales"]["cases"][0]["n_mac"] = 7
        assert cli.DEFAULT_CONFIG["measure"]["coupling"] == [0.0, 1.0]
        assert len(cli.DEFAULT_CONFIG["fig1"]["lambda_grid"]) == 6
        assert cli.DEFAULT_CONFIG["timescales"]["cases"][0]["n_mac"] == 100

    @pytest.mark.parametrize(
        "path, scenario",
        [
            ("discrimination.draws", "discrimination"),
            ("samples", "fig2"),
            ("fig1.samples", "fig1"),
            ("fig1.n_spins", "fig1"),
            ("fig1.tau_points", "fig1"),
            ("fig2.n_values", "fig2"),
            ("fig2.t_points", "fig2"),
            ("discrimination.n_mac", "discrimination"),
            ("discrimination.t_points", "discrimination"),
            ("verify.instances", "verify"),
        ],
    )
    def test_oversize_count_is_config_error(self, tmp_path, monkeypatch, path, scenario):
        # checked before the runner starts, so nothing is sampled or allocated;
        # each cap sits at least 10 times above what the field must allow
        cap, needed = SIZE_CAPS[path]
        assert cap >= 10 * needed and f" to {cap}" in cli.FIELDS[path][2]
        ran = []
        monkeypatch.setitem(cli.RUNNERS, scenario, lambda values, out_dir: ran.append(values[path]) or (0, [], {}))
        section, _, key = path.rpartition(".")
        config = cli.load_config(None)
        size = (lambda n: [30, n]) if path == "fig2.n_values" else (lambda n: n)
        (config[section] if section else config)[key] = size(10**12)
        requirement = f"{cli.FIELDS[path][2]}, got {size(10**12)!r}"
        with pytest.raises(cli.ConfigError, match=f"^{re.escape(path)}: {re.escape(requirement)}"):
            cli.run_scenario(scenario, config, tmp_path / "out")
        assert not (tmp_path / "out").exists()
        (config[section] if section else config)[key] = size(cap)
        assert cli.run_scenario(scenario, config, tmp_path / "out") == 0
        assert len(ran) == 1 and np.max(ran[0]) == cap

    def test_oversize_curve_point_count_is_config_error(self, tmp_path, monkeypatch):
        # samples x len(fig2.n_values) x fig2.t_points is checked before
        # fig2_curves runs, so nothing is sampled or allocated
        def never_called(*args, **kwargs):
            raise AssertionError("fig2_curves ran on an oversize curve point count")

        monkeypatch.setattr(cli, "fig2_curves", never_called)
        config = cli.load_config(None)
        config["samples"] = 1
        config["fig2"]["n_values"] = list(range(1, 20_001))
        config["fig2"]["t_points"] = cli.MAX_CURVE_POINTS // 20_000 + 1
        with pytest.raises(cli.ConfigError, match=rf"^fig2\.n_values: .* at most {cli.MAX_CURVE_POINTS}, got 100020000$"):
            cli.run_scenario("fig2", config, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("sign", ["", "-"], ids=["plus", "minus"])
    @pytest.mark.parametrize(
        "path, value",
        [
            ("measure.angles", [0.1, "HUGE", 0.2]),
            ("measure.lambda", "HUGE"),
            ("measure.coupling", "HUGE"),
            ("measure.coupling", [0.0, "HUGE"]),
            ("fig1.lambda_grid", [0.5, "HUGE"]),
            ("fig1.beta_grid", ["HUGE"]),
            ("fig1.tau", "HUGE"),
            ("fig2.t_min", "HUGE"),
            ("fig2.t_max", "HUGE"),
            ("timescales.cases", [{"n_mac": 100, "n_total": 200, "f": "HUGE"}]),
            ("discrimination.t_min", "HUGE"),
            ("discrimination.t_max", "HUGE"),
        ],
        ids=lambda v: v if isinstance(v, str) and v != "HUGE" else "list" if isinstance(v, list) else "number",
    )
    def test_overflowing_number_is_config_error(self, tmp_path, capsys, path, value, sign):
        # a JSON number too large for a float loads as +-inf; every scenario,
        # whether it reads the field or not, exits 1 naming it and writes nothing
        section, _, key = path.rpartition(".")
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({section: {key: value}}).replace('"HUGE"', f"{sign}1e999"))
        assert f"{sign}inf" in repr(cli.load_config(str(cfg))[section][key])
        for scenario in cli.SCENARIOS:
            out = tmp_path / scenario
            assert run_cli(["--scenario", scenario, "--config", str(cfg), "--out-dir", str(out)]) == cli.EXIT_CONFIG
            assert capsys.readouterr().out.startswith(f"config error: {path}")
            assert not out.exists()

    def test_override_merging(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"seed": 5, "fig2": {"t_points": 11}}))
        merged = cli.load_config(str(cfg))
        assert merged["seed"] == 5
        assert merged["fig2"]["t_points"] == 11
        assert merged["fig2"]["t_max"] == cli.DEFAULT_CONFIG["fig2"]["t_max"]


class TestFloatFormat:
    def test_round_trip_17_digits(self):
        for x in (1 / 3, math.pi, 1e-17, 0.8311290681345551, 2.0):
            assert float(cli.format_float(x)) == x


class TestTimescalesScenario:
    def test_output_values(self, tmp_path):
        assert run_cli(["--scenario", "timescales", "--out-dir", str(tmp_path)]) == 0
        lines = (tmp_path / "timescales.csv").read_text().splitlines()
        assert lines[0] == "N_m,N,f,g2bar,t_B,t_D,ratio_sq,B_at_tB,gamma2_at_tD"
        first = lines[1].split(",")
        assert first[0] == "100" and first[1] == "200"
        assert float(first[4]) == pytest.approx(0.8311290681345551, abs=1e-12)
        assert float(first[6]) == pytest.approx(4.0, abs=1e-12)
        assert float(first[7]) == pytest.approx(0.01, abs=1e-12)  # 1 / N_m

    def test_manifest_round_trip(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 77}))
        run_cli(["--scenario", "timescales", "--config", str(cfg), "--out-dir", str(tmp_path)])
        manifest = read_json(tmp_path / "manifest.json")
        assert manifest["scenario"] == "timescales"
        assert manifest["seed"] == 77
        assert manifest["outputs"] == ["timescales.csv"]
        assert manifest["config"]["seed"] == 77
        assert manifest["exit_status"] == 0

    def test_manifest_records_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setenv("OMP_NUM_THREADS", "2")
        assert run_cli(["--scenario", "timescales", "--out-dir", str(tmp_path)]) == 0
        env = read_json(tmp_path / "manifest.json")["environment"]
        assert env["python"] == platform.python_version()
        assert env["numpy"] == np.__version__
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert env["blas"] == {"name": blas["name"], "version": blas["version"]}
        assert env["num_threads"] == {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")}
        assert env["num_threads"]["OPENBLAS_NUM_THREADS"] == "1" and env["num_threads"]["OMP_NUM_THREADS"] == "2"


class TestFig2Scenario:
    def small_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {"samples": 20, "fig2": {"n_values": [10, 25], "t_points": 21, "t_max": 1.0}}
            )
        )
        return cfg

    def test_outputs_and_shape(self, tmp_path):
        cfg = self.small_config(tmp_path)
        out = tmp_path / "out"
        assert run_cli(["--scenario", "fig2", "--config", str(cfg), "--out-dir", str(out)]) == 0
        for n in (10, 25):
            lines = (out / f"fig2_curve_n{n}.csv").read_text().splitlines()
            assert lines[0] == "t,mean_bound,stderr"
            assert len(lines) == 22
            first = lines[1].split(",")
            assert float(first[0]) == 0.0
            assert float(first[1]) == 2.0

    def test_byte_identical_rerun(self, tmp_path):
        cfg = self.small_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_cli(["--scenario", "fig2", "--config", str(cfg), "--out-dir", str(out_a)])
        run_cli(["--scenario", "fig2", "--config", str(cfg), "--out-dir", str(out_b)])
        for n in (10, 25):
            name = f"fig2_curve_n{n}.csv"
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_curves_written_in_config_order(self, tmp_path):
        # one file per size, listed in config order; a size's curve does not
        # depend on where it stands in the list
        curves = []
        for order in ([50, 30], [30, 50]):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"samples": 20, "fig2": {"n_values": order, "t_points": 21, "t_max": 1.0}}))
            out = tmp_path / f"n{order[0]}-first"
            assert run_cli(["--scenario", "fig2", "--config", str(cfg), "--out-dir", str(out)]) == 0
            names = [f"fig2_curve_n{n}.csv" for n in order]
            assert read_json(out / "manifest.json")["outputs"] == names
            curves.append({name: (out / name).read_bytes() for name in names})
        assert curves[0] == curves[1]

    def test_nonpositive_size_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"fig2": {"n_values": [0, 10]}}))
        out = tmp_path / "out"
        assert run_cli(["--scenario", "fig2", "--config", str(cfg), "--out-dir", str(out)]) == cli.EXIT_CONFIG
        assert "fig2.n_values" in capsys.readouterr().out

    def test_seed_changes_output(self, tmp_path):
        cfg = self.small_config(tmp_path)
        reseeded = tmp_path / "reseeded.json"
        reseeded.write_text(json.dumps({**json.loads(cfg.read_text()), "seed": 1}))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_cli(["--scenario", "fig2", "--config", str(cfg), "--out-dir", str(out_a)])
        run_cli(["--scenario", "fig2", "--config", str(reseeded), "--out-dir", str(out_b)])
        assert (out_a / "fig2_curve_n10.csv").read_bytes() != (out_b / "fig2_curve_n10.csv").read_bytes()


class TestDiscriminationScenario:
    @pytest.mark.parametrize("field", ["n_mac", "draws", "t_points"])
    def test_nonpositive_size_is_config_error(self, tmp_path, capsys, field):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"discrimination": {field: 0}}))
        out = tmp_path / "out"
        status = run_cli(["--scenario", "discrimination", "--config", str(cfg), "--out-dir", str(out)])
        assert status == cli.EXIT_CONFIG
        assert f"discrimination.{field}" in capsys.readouterr().out
        assert not (out / "discrimination.csv").exists()

    def test_default_workload_matches_golden(self, tmp_path):
        # the batched closed forms must reproduce the benchmark's recorded table
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {"config_version": 1, "seed": 20260808, "threads": 1, "discrimination": {"n_mac": 51, "draws": 600}}
            )
        )
        out = tmp_path / "out"
        assert run_cli(["--scenario", "discrimination", "--config", str(cfg), "--out-dir", str(out)]) == 0
        got = (out / "discrimination.csv").read_text().splitlines()
        want = GOLDEN_DISCRIMINATION.read_text().splitlines()
        assert got[0] == want[0]
        assert len(got) == len(want)
        header = got[0].split(",")
        for line_got, line_want in zip(got[1:], want[1:]):
            for name, a, b in zip(header, map(float, line_got.split(",")), map(float, line_want.split(","))):
                assert abs(a - b) <= 1e-12 + 1e-9 * abs(b), (name, a, b)
            assert float(line_got.split(",")[header.index("ok_fraction")]) == 1.0

    def test_rows_equal_the_per_time_closed_forms(self, tmp_path):
        # the reference recomputes |delta|, the B coefficient and sin(g t) at
        # every time point and validates every drawn row, as the scenario did
        # before it computed the time-invariant factors once
        from sbskit.discrimination import chernoff_bound, kolmogorov_fuchs, majority_success_heterogeneous
        from sbskit.ensemble import draw_spin_arrays, sample_rows
        from sbskit.spin_model import SpinParams, delta, sin2_coefficients

        seed, n_mac, t_points, draws = 11, 9, 5, 13
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": seed, "discrimination": {"n_mac": n_mac, "t_points": t_points, "draws": draws}}))
        out = tmp_path / "out"
        assert run_cli(["--scenario", "discrimination", "--config", str(cfg), "--out-dir", str(out)]) == 0
        got = [list(map(float, line.split(","))) for line in (out / "discrimination.csv").read_text().splitlines()[1:]]
        measure = cli.parse_measure(cli.DEFAULT_CONFIG["measure"])
        spins = SpinParams(
            *sample_rows(seed, 20, range(draws), lambda rng: tuple(vars(SpinParams(*draw_spin_arrays(measure, rng, n_mac))).values()))
        )
        section = cli.DEFAULT_CONFIG["discrimination"]
        want = []
        for t in np.linspace(section["t_min"], section["t_max"], t_points):
            t = float(t)
            probs = 0.5 + np.abs(delta(spins)) * np.abs(np.sin(spins.g * t))
            a, _ = sin2_coefficients(spins)
            with np.errstate(divide="ignore"):
                b_vals = np.exp(0.5 * np.sum(np.log(1.0 + a * np.square(np.sin(spins.g * t))), axis=-1))
            p_het = majority_success_heterogeneous(probs)
            p_bar = float(np.mean(probs))
            exact = float(majority_success_heterogeneous(np.full(n_mac, p_bar)))
            lower = chernoff_bound(n_mac, min(max(p_bar - 0.5, 0.0), 0.5))
            k, limit, _ = kolmogorov_fuchs(exact, float(np.mean(b_vals)))
            ok = np.count_nonzero(kolmogorov_fuchs(p_het, b_vals)[2]) / draws
            want.append([t, p_bar, p_bar - 0.5, exact, lower, k, limit, float(np.mean(p_het)), float(np.mean(b_vals)), ok])
        assert got == want

    def test_chernoff_self_check_raises(self, tmp_path, monkeypatch):
        # an exact majority tail below its Chernoff lower bound is a bug, not a result
        from sbskit import discrimination

        exact = discrimination.majority_success_heterogeneous(np.full(51, 0.7))
        assert exact >= discrimination.chernoff_bound(51, 0.2)
        # every row of the scenario's one call, the mean-success row included, reads 0
        monkeypatch.setattr(discrimination, "majority_success_heterogeneous", lambda probs: np.zeros(np.shape(probs)[:-1]))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"discrimination": {"t_points": 3, "draws": 4}}))
        with pytest.raises(AssertionError, match="fell below its Chernoff bound"):
            cli.main(["--scenario", "discrimination", "--config", str(cfg), "--out-dir", str(tmp_path / "out")])

    def test_one_spin_record_per_run(self, tmp_path, monkeypatch):
        # the drawn rows are validated once, as one stacked record
        from sbskit.spin_model import SpinParams

        built = []
        post_init = SpinParams.__post_init__
        monkeypatch.setattr(SpinParams, "__post_init__", lambda self: built.append(np.shape(self.g)) or post_init(self))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"discrimination": {"n_mac": 5, "t_points": 2, "draws": 7}}))
        assert run_cli(["--scenario", "discrimination", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 0
        # the measure's own check builds a record of floats
        assert [shape for shape in built if shape] == [(7, 5)]

    def test_majority_near_certainty_stays_a_probability(self, tmp_path):
        # lam = 1 and beta = pi/2 near g t = pi/2: every spin succeeds with p
        # close to 1, where the summed majority tail can round above 1
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "measure": {"angles": [0.0, 1.5707963267948966, 0.0], "lambda": 1.0, "coupling": 1.0},
            "discrimination": {"n_mac": 51, "t_min": 1.45, "t_max": 1.69, "t_points": 25, "draws": 3},
        }))
        out = tmp_path / "out"
        assert run_cli(["--scenario", "discrimination", "--config", str(cfg), "--out-dir", str(out)]) == 0
        lines = (out / "discrimination.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert len(lines) == 26
        for line in lines[1:]:
            row = dict(zip(header, map(float, line.split(","))))
            for name in ("p_bar", "p_tilde_exact", "chernoff_lb", "K", "fuchs_limit", "p_tilde_het", "mean_B"):
                assert 0.0 <= row[name] <= 1.0, (name, row[name])
            assert row["ok_fraction"] == 1.0

    def test_bounds_hold_on_output(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"discrimination": {"n_mac": 21, "t_points": 6, "draws": 40}}))
        out = tmp_path / "out"
        assert run_cli(["--scenario", "discrimination", "--config", str(cfg), "--out-dir", str(out)]) == 0
        lines = (out / "discrimination.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header[:7] == ["t", "p_bar", "S_bar", "p_tilde_exact", "chernoff_lb", "K", "fuchs_limit"]
        for line in lines[1:]:
            row = dict(zip(header, map(float, line.split(","))))
            assert row["p_tilde_exact"] >= row["chernoff_lb"] - 1e-12
            assert row["ok_fraction"] == 1.0


class TestFig1Scenario:
    def test_small_grid_with_gate(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "fig1": {
                        "lambda_grid": [0.5, 1.0],
                        "beta_grid": [0.0, 1.5707963267948966],
                        "n_spins": 30,
                        "tau": 60.0,
                        "tau_points": 12001,
                        "samples": 4,
                    }
                }
            )
        )
        out = tmp_path / "out"
        assert run_cli(["--scenario", "fig1", "--config", str(cfg), "--out-dir", str(out)]) == 0
        lines = (out / "fig1_surface.csv").read_text().splitlines()
        assert lines[0] == "lambda_plus,beta,mean_B,mean_abs_gamma,stderr_B,stderr_gamma"
        rows = [list(map(float, l.split(","))) for l in lines[1:]]
        assert len(rows) == 4
        by_node = {(r[0], r[1]): r for r in rows}
        assert by_node[(0.5, 0.0)][2] == 1.0  # <B> on the lam = 1/2 ridge
        manifest = read_json(out / "manifest.json")
        assert manifest["gates"]["quadrature_rel_change"] < 1e-3


    def test_default_surface_matches_golden(self, tmp_path):
        # the fig1 hot path must reproduce the benchmark's recorded surface:
        # the same header and row count, and every value within 1e-14
        # (the angle-addition kernel moved the largest by 5.6e-17; its matmul
        # form moved values by at most 8.7e-19 more, the largest staying 5.6e-17)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({"config_version": 1, "seed": 20260808, "threads": 1, "fig1": {"samples": 1}})
        )
        out = tmp_path / "out"
        assert run_cli(["--scenario", "fig1", "--config", str(cfg), "--out-dir", str(out)]) == 0
        got = (out / "fig1_surface.csv").read_text().splitlines()
        want = GOLDEN_SURFACE.read_text().splitlines()
        assert got[0] == want[0]
        assert len(got) == len(want)
        for line_got, line_want in zip(got[1:], want[1:]):
            a, b = np.array(line_got.split(","), dtype=float), np.array(line_want.split(","), dtype=float)
            assert np.all(np.abs(a - b) <= 1e-14), (a, b)


class TestConvergenceGate:
    def test_coarse_quadrature_trips_exit_3(self, tmp_path):
        # 51 points over tau = 200 cannot resolve the early decay at (1, pi/2)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "fig1": {
                        "lambda_grid": [1.0],
                        "beta_grid": [1.5707963267948966],
                        "n_spins": 40,
                        "tau": 200.0,
                        "tau_points": 51,
                        "samples": 2,
                    }
                }
            )
        )
        out = tmp_path / "out"
        status = run_cli(["--scenario", "fig1", "--config", str(cfg), "--out-dir", str(out)])
        assert status == cli.EXIT_GATE
        manifest = read_json(out / "manifest.json")
        assert manifest["gates"]["quadrature_rel_change"] >= 1e-3
        assert manifest["exit_status"] == cli.EXIT_GATE


class TestVerifyScenario:
    def test_timed_spin_rows_validated_once(self, monkeypatch):
        from sbskit import verify
        from sbskit.spin_model import SpinParams

        built = []
        post_init = SpinParams.__post_init__
        monkeypatch.setattr(SpinParams, "__post_init__", lambda self: built.append(np.shape(self.g)) or post_init(self))
        spins, t = verify._timed_spin_rows(3, 15, 6, 4)
        # the measure's own check builds a record of floats
        assert [shape for shape in built if shape] == [(6, 4)]
        assert t.shape == (6, 1)

    def test_report_structure(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"verify": {"instances": 30}}))
        out = tmp_path / "out"
        status = run_cli(["--scenario", "verify", "--config", str(cfg), "--out-dir", str(out)])
        report = read_json(out / "verify.json")
        assert set(report) == {"suites", "all_passed", "failed_suites"}
        assert "convention_certification" in report["suites"]
        for suite in report["suites"].values():
            assert suite["checks"] > 0
        # the additive-bound suite is the only one allowed to fail; exit code
        # must track the report
        assert status == (cli.EXIT_OK if report["all_passed"] else cli.EXIT_VERIFY)
        assert set(report["failed_suites"]) <= {"prop1_as_stated"}

    def test_certify_workload_matches_golden(self, tmp_path, monkeypatch):
        # the oracle corpus must reproduce the benchmark's recorded report under
        # the benchmark's own rule, with every count exact
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"config_version": 1, "seed": 20260808, "threads": 1, "verify": {"instances": 600}}))
        out = tmp_path / "out"
        assert run_cli(["--scenario", "verify", "--config", str(cfg), "--out-dir", str(out)]) == cli.EXIT_VERIFY
        spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
        run = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, run)  # its dataclasses look the module up
        monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
        spec.loader.exec_module(run)
        assert run.compare_golden(out / "verify.json", GOLDEN_CERTIFY)[0]
        got, want = json.loads((out / "verify.json").read_text()), json.loads(GOLDEN_CERTIFY.read_text())
        assert got["failed_suites"] == want["failed_suites"] == ["prop1_as_stated"]
        assert {k: (v["checks"], v["failures"]) for k, v in got["suites"].items()} == {
            k: (v["checks"], v["failures"]) for k, v in want["suites"].items()
        }

    def test_suite_without_checks_does_not_pass(self):
        from sbskit.verify import SuiteResult

        empty = SuiteResult("empty")
        assert not empty.passed
        assert empty.as_dict()["passed"] is False
        assert empty.as_dict()["worst_margin"] is None
        empty.record(0.5)
        assert empty.passed

    def test_nan_margin_is_a_failure(self):
        from sbskit.verify import SuiteResult

        res = SuiteResult("x")
        res.record(float("nan"))
        assert (res.checks, res.failures, res.passed) == (1, 1, False)
        assert math.isnan(res.worst_margin)
        # it stays the worst margin, and a later finite one still counts
        res.record(-1.0, tol=0.1)
        res.record(0.5)
        assert (res.checks, res.failures) == (3, 2) and math.isnan(res.worst_margin)
        # verify.json is written with allow_nan=False
        assert json.loads(json.dumps(res.as_dict(), allow_nan=False))["worst_margin"] == "nan"
        # a NaN after finite margins also becomes the worst
        res = SuiteResult("y")
        res.record(0.5)
        res.record(float("nan"), tol=1e-9)
        assert res.failures == 1 and math.isnan(res.worst_margin)

    @pytest.mark.parametrize(
        "margins, tol",
        [
            ([0.5, 0.0, -0.0, 0.3], 0.0),
            ([0.5, -0.0, 0.0, 0.3], 0.0),
            ([0.2, float("nan"), -1.0, float("nan"), 0.0], 0.0),
            ([-0.1, 0.3, -0.1, 0.7], 0.05),
            # just inside and just outside the tolerance
            ([1e-3, -1e-9, math.nextafter(-1e-9, 0.0), math.nextafter(-1e-9, -1.0), -0.0], 1e-9),
            ([float("nan")], 1e-9),
            ([3.0], 0.0),
        ],
    )
    def test_array_record_is_one_record_per_margin(self, margins, tol):
        from sbskit.verify import SuiteResult

        def same(a, b):
            assert (a.checks, a.failures) == (b.checks, b.failures)
            # json writes the sign of a zero margin
            assert json.dumps(a.as_dict()) == json.dumps(b.as_dict())
            if math.isnan(b.worst_margin):
                assert math.isnan(a.worst_margin)
            else:
                assert a.worst_margin == b.worst_margin
                assert math.copysign(1.0, a.worst_margin) == math.copysign(1.0, b.worst_margin)

        # after a first check of +0.0 and of -0.0, so ties with the stored margin count too
        for first in (None, 0.0, -0.0):
            loop, whole, split = SuiteResult("x"), SuiteResult("x"), SuiteResult("x")
            for res in (loop, whole, split) if first is not None else ():
                res.record(first)
            for m in margins:
                loop.record(m, tol=tol)
            whole.record(np.array(margins), tol=tol)
            split.record(np.array(margins[:2]), tol=tol)
            split.record(np.array(margins[2:]).reshape(-1, 1), tol=tol)
            same(whole, loop)
            same(split, loop)

    def test_empty_array_records_nothing(self):
        from sbskit.verify import SuiteResult

        res = SuiteResult("empty")
        res.record(np.array([]))
        res.record(np.zeros((3, 0)), tol=1e-9)
        assert (res.checks, res.failures, res.passed) == (0, 0, False)
        assert res.as_dict()["worst_margin"] is None
        res.record(-0.0)
        res.record(np.array([]))
        assert (res.checks, res.failures, res.passed) == (1, 0, True)
        assert math.copysign(1.0, res.worst_margin) == -1.0


# a fig1 run of a few milliseconds, for rows that must fail fast where a check is missing
SMALL_FIG1 = {"lambda_grid": [0.5], "beta_grid": [0.0], "tau_points": 11, "samples": 1}

BAD_CONFIGS = [
    ("fig2", {"fig2": {"t_points": 1}}, "fig2.t_points"),
    ("fig1", {"fig1": {"tau_points": 1}}, "fig1.tau_points"),
    ("fig1", {"fig1": {"tau_points": 1000}}, "fig1.tau_points"),
    ("fig1", {"fig1": {"tau": 0.0, "tau_points": 11}}, "fig1.tau"),
    ("discrimination", {"seed": "abc"}, "seed"),
    ("timescales", {"seed": "abc"}, "seed"),
    ("timescales", {"measure": {"lambda": "abc"}}, "measure.lambda"),
    ("timescales", {"timescales": {"cases": [{"n_mac": 100, "n_total": 200, "f": "x"}]}}, "timescales.cases[0]"),
    ("fig2", {"threads": 0}, "threads"),
    # one above the core count; rejected before any pool starts
    ("fig2", {"threads": (os.cpu_count() or 1) + 1}, "threads"),
    # with no instances the oracle suites would check nothing and pass
    ("verify", {"verify": {"instances": 0}}, "verify.instances"),
    # a number where a list belongs
    ("fig1", {"fig1": {"lambda_grid": 0.5}}, "fig1.lambda_grid"),
    ("fig2", {"fig2": {"n_values": 5}}, "fig2.n_values"),
    ("timescales", {"timescales": {"cases": 5}}, "timescales.cases"),
    # the closed forms reject negative times
    ("discrimination", {"discrimination": {"t_min": -1.0}}, "discrimination.t_min"),
    ("fig1", {"fig1": {"n_spins": 0}}, "fig1.n_spins"),
    ("fig1", {"fig1": {"n_spins": -1}}, "fig1.n_spins"),
    # a grid value outside the SpinParams range, before any node is computed;
    # rows whose scenario-field id is taken carry their own id
    pytest.param(
        "fig1", {"fig1": {"lambda_grid": [1.5], "beta_grid": [0.0], "tau_points": 101}}, "fig1.lambda_grid",
        id="fig1-fig1.lambda_grid-range",
    ),
    ("fig1", {"fig1": {"beta_grid": [0.0, 7.0]}}, "fig1.beta_grid"),
    ("fig2", {"fig2": {"t_min": -1.0}}, "fig2.t_min"),
    pytest.param("discrimination", {"seed": -1}, "seed", id="discrimination-seed-negative"),
    ("fig2", {"seed": -1}, "seed"),
    ("fig1", {"measure": {"coupling": [2.0, 1.0]}}, "measure.coupling"),
    ("discrimination", {"measure": {"lambda": 1.5}}, "measure.lambda"),
    ("fig2", {"measure": {"angles": [0, 9, 0]}}, "measure.angles"),
    # the time scales divide by the coupling and by the bath size
    ("timescales", {"measure": {"coupling": 0.0}}, "measure.coupling"),
    pytest.param(
        "timescales", {"timescales": {"cases": [{"n_mac": 100, "n_total": 0, "f": 0.5}]}}, "timescales.cases[0]",
        id="timescales-timescales.cases[0]-no-bath",
    ),
    # the convergence gate needs an odd tau_points and tau > 0
    pytest.param("fig1", {"fig1": {"tau": -1.0, "tau_points": 11}}, "fig1.tau", id="fig1-fig1.tau-negative"),
    ("fig1", {"fig1": {"tau_points": 2}}, "fig1.tau_points"),
    # integer fields reject a fraction or a bool instead of truncating it
    pytest.param(
        "timescales", {"timescales": {"cases": [{"n_mac": 100.9, "n_total": 200, "f": 0.5}]}},
        "timescales.cases[0]", id="timescales-timescales.cases[0]-fraction",
    ),
    pytest.param("verify", {"verify": {"instances": 1.5}}, "verify.instances", id="verify-verify.instances-fraction"),
    pytest.param("fig1", {"fig1": {"n_spins": 2.7}}, "fig1.n_spins", id="fig1-fig1.n_spins-fraction"),
    pytest.param("timescales", {"seed": True}, "seed", id="timescales-seed-bool"),
    # one curve file per size
    pytest.param("fig2", {"fig2": {"n_values": [30, 50, 30]}}, "fig2.n_values", id="fig2-fig2.n_values-repeated"),
    # a bool is no number, for float fields as for integer ones
    pytest.param("timescales", {"measure": {"coupling": True}}, "measure.coupling", id="timescales-coupling-bool"),
    pytest.param("timescales", {"measure": {"lambda": False}}, "measure.lambda", id="timescales-lambda-bool"),
    pytest.param("timescales", {"measure": {"angles": [True, 0, 0]}}, "measure.angles", id="timescales-angles-bool"),
    pytest.param("fig1", {"fig1": {**SMALL_FIG1, "lambda_grid": [True]}}, "fig1.lambda_grid", id="fig1-lambda_grid-bool"),
    pytest.param("fig1", {"fig1": {**SMALL_FIG1, "beta_grid": [False]}}, "fig1.beta_grid", id="fig1-beta_grid-bool"),
    pytest.param("fig1", {"fig1": {**SMALL_FIG1, "tau": True}}, "fig1.tau", id="fig1-fig1.tau-bool"),
    pytest.param(
        "timescales", {"timescales": {"cases": [{"n_mac": 100, "n_total": 200, "f": False}]}}, "timescales.cases[0]",
        id="timescales-timescales.cases[0]-bool",
    ),
    # g t must stay finite at the longest time of any scenario, or sin(g t) is NaN
    pytest.param(
        "discrimination", {"measure": {"coupling": [0.0, 1e308]}, "discrimination": {"draws": 3, "t_points": 3}},
        "measure.coupling", id="discrimination-measure.coupling-overflow",
    ),
    pytest.param(
        "fig1", {"measure": {"coupling": [0.0, 1e300]}, "fig1": {**SMALL_FIG1, "tau": 1e10}}, "measure.coupling",
        id="fig1-measure.coupling-overflow",
    ),
    # the time scales divide by E[g^2], which must not overflow
    pytest.param("timescales", {"measure": {"coupling": [1e160, 1e200]}}, "measure.coupling",
                 id="timescales-measure.coupling-g2bar"),
    # a uniform law whose width overflows cannot be sampled
    pytest.param(
        "fig2", {"measure": {"coupling": [-1e308, 1e308]}, "fig1": {"tau": 0.5}, "fig2": {"t_max": 0.5},
                 "discrimination": {"t_max": 0.5}}, "measure.coupling", id="fig2-measure.coupling-width",
    ),
    # each field inside its cap, but draws x n_mac spins would take 372 GiB
    pytest.param(
        "discrimination", {"discrimination": {"n_mac": 100_000, "draws": 100_000}}, "discrimination.draws",
        id="discrimination-discrimination.draws-spins",
    ),
    # each field inside its cap, but samples x sizes x t_points curve points would take 14.9 GiB
    pytest.param(
        "fig2", {"samples": 1, "fig2": {"n_values": list(range(1, 20_001)), "t_points": 100_000}}, "fig2.n_values",
        id="fig2-fig2.n_values-points",
    ),
]


@pytest.mark.parametrize(
    "scenario,override,field", BAD_CONFIGS, ids=[getattr(c, "id", None) or f"{c[0]}-{c[2]}" for c in BAD_CONFIGS]
)
def test_bad_config_exits_1_naming_the_field(tmp_path, scenario, override, field):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(override))
    out = tmp_path / "out"
    args = ["--scenario", scenario, "--config", str(cfg), "--out-dir", str(out)]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-m", "sbskit.cli", *args], capture_output=True, text=True, env=env)
    assert proc.returncode == cli.EXIT_CONFIG, proc.stderr
    assert proc.stdout.startswith(f"config error: {field}: "), proc.stdout
    assert "Traceback" not in proc.stderr
    assert not out.exists()  # every check runs before any output is written


# bad invocations other than a bad field: (arguments, files written under the
# working directory first, text the message must hold)
BAD_INVOCATIONS = [
    # the parser: a malformed or missing option, and the override flags the config replaced
    pytest.param("--scenario timescales --seed abc", {}, "unrecognized arguments: --seed", id="seed-not-a-number"),
    pytest.param("--out-dir out", {}, "required: --scenario", id="scenario-missing"),
    pytest.param("--scenario timescales --seed 5", {}, "unrecognized arguments: --seed", id="seed-flag"),
    pytest.param("--scenario timescales --threads 1", {}, "unrecognized arguments: --threads", id="threads-flag"),
    pytest.param("--scenario fig2 --samples 3", {}, "unrecognized arguments: --samples", id="samples-flag"),
    # the config file
    pytest.param("--scenario timescales --config cfg", {"cfg/x": b""}, "config file cfg cannot be read",
                 id="config-is-a-directory"),
    pytest.param("--scenario timescales --config cfg.json", {"cfg.json": b"\xff\xfe\x00"}, "not valid JSON",
                 id="config-not-text"),
    pytest.param("--scenario timescales --config cfg.json", {"cfg.json": b'{"config_version": true}'},
                 "config_version: True", id="config-version-bool"),
    pytest.param("--scenario timescales --config cfg.json", {"cfg.json": b'{"config_version": 1.0}'},
                 "config_version: 1.0", id="config-version-float"),
    pytest.param("--scenario timescales --config cfg.json", {"cfg.json": b'{"config_version": "1"}'},
                 "config_version: '1'", id="config-version-string"),
    # the output directory
    pytest.param("--scenario timescales --out-dir taken", {"taken": b"x"}, "--out-dir taken", id="out-dir-is-a-file"),
    pytest.param("--scenario timescales --out-dir taken/out", {"taken": b"x"}, "--out-dir taken/out",
                 id="out-dir-beneath-a-file"),
]


@pytest.mark.parametrize("args,files,message", BAD_INVOCATIONS)
def test_bad_invocation_exits_1_writing_nothing(tmp_path, args, files, message):
    for name, data in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_bytes(data)
    before = sorted(tmp_path.rglob("*"))
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-m", "sbskit.cli", *args.split()], capture_output=True, text=True,
                          env=env, cwd=tmp_path)
    assert proc.returncode == cli.EXIT_CONFIG, proc.stdout + proc.stderr
    assert proc.stdout.startswith("config error: ") and message in proc.stdout, proc.stdout
    assert "Traceback" not in proc.stderr
    assert sorted(tmp_path.rglob("*")) == before


def test_help_exits_0():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-m", "sbskit.cli", "--help"], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "--scenario" in proc.stdout
