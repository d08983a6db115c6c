"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criterion 2 certifies a refutation: the additive discrimination-error
distance bound eps <= Gamma + sum p_E is evaluated faithfully against the
exact oracle and must be reported violated on the seeded corpus, and a
closed-form tilted-projector witness must refute it exactly, while the sound
disturbance form holds everywhere (see the README section "Known red check"
and the verify module docstring).  The ``verify`` scenario keeps reporting
``prop1_as_stated`` as its one failed suite.
"""

import json
import math
import sys
import time

import numpy as np
import pytest

from sbskit import cli, oracle, sbs_core, verify
from sbskit.sbs_core import CentralState, ProjectorFamily, cor2_bound
from sbskit.spin_model import SpinParams

SEED = cli.DEFAULT_CONFIG["seed"]
WITNESS_ANGLES = (0.1, math.pi / 6, math.pi / 4, math.pi / 3, 1.4)


def report(num, name, suite, elapsed=None, limit=None, passed=None):
    if passed is None:
        passed = suite.failures == 0
    status = "PASS" if passed else "FAIL"
    timing = f" [{elapsed:.1f}s < {limit:.0f}s]" if elapsed is not None else ""
    violated = f", {suite.failures} violated" if suite.failures else ""
    worst = "" if math.isinf(suite.worst_margin) else f", worst margin {suite.worst_margin:+.3e}"
    # bypass pytest capture: the gate must print one line per criterion
    print(
        f"ACCEPTANCE {num:>2} {status}: {name} ({suite.checks} checks{violated}{worst}){timing}",
        file=sys.__stdout__,
    )
    if suite.detail:
        print(f"              {suite.detail}", file=sys.__stdout__)


@pytest.fixture(scope="module")
def oracle_suites():
    start = time.time()
    suites = verify.oracle_inequalities(SEED, 200)
    suites["_elapsed"] = time.time() - start
    return suites


def test_acceptance_01_convention_certification():
    start = time.time()
    suite = verify.convention_certification(SEED)
    elapsed = time.time() - start
    report(1, "unitary-convention certification (dephasing factor and fidelity)", suite, elapsed, 5)
    assert suite.failures == 0, f"closed forms disagree with the oracle: {suite.worst_margin}"
    assert elapsed < 5.0


def tilted_witness(theta):
    """(eps, additive bound, disturbance bound) for a projector tilted by theta.

    A pure central state |0><0| with one observed spin in |0><0| at t = 0,
    measured by P_0 = |v><v| with v = (cos theta, sin theta): Gamma = 0,
    p_E = sin^2 theta and eps = |sin theta|, while the disturbance form is
    |sin theta| sqrt(1 + 3 cos^2 theta).
    """
    # a block of one instance
    spin = SpinParams(*np.array([0.0, 0.0, 0.0, 1.0, 1.0]).reshape(5, 1, 1))
    central = CentralState(np.diag([1.0, 0.0])[None])
    inst = oracle.OracleInstance(central, spin, SpinParams(*np.zeros((5, 1, 0))), [0.0])
    v = np.array([math.cos(theta), math.sin(theta)], dtype=complex)
    p0 = np.outer(v, v.conj())
    family = ProjectorFamily(((p0, np.eye(2) - p0),))
    branches, gamma_mags = oracle.branch_ensemble(inst)
    gamma = sbs_core.collective_gamma(inst.central, gamma_mags)
    pe = sbs_core.discrimination_error(inst.central.sigma[0], branches[0, 0], family.families[0])
    reduced = oracle.reduced_state_exact(oracle.full_joint_state(inst), inst)
    eps = oracle.exact_epsilon(reduced, sbs_core.build_sbs(inst.central, branches, family))
    disturbance = sbs_core.disturbance_bound(gamma, inst.central.sigma, branches, family.families)
    return eps[0], sbs_core.prop1_bound(gamma[0], [pe]), disturbance[0]


def test_acceptance_02_additive_bound_as_stated(oracle_suites):
    suite = oracle_suites["prop1_as_stated"]
    sound = oracle_suites["prop1_disturbance"]
    elapsed = oracle_suites["_elapsed"]
    witnesses = [(theta, *tilted_witness(theta)) for theta in WITNESS_ANGLES]
    refuted = sum(
        eps == pytest.approx(math.sin(theta), abs=1e-12)
        and bound == pytest.approx(math.sin(theta) ** 2, abs=1e-12)
        and bound < eps <= disturbance
        for theta, eps, bound, disturbance in witnesses
    )
    passed = (
        elapsed < 60.0
        and sound.failures == 0
        and suite.checks == 1000
        and suite.failures >= 1
        and suite.worst_margin < -1e-9
        and refuted == len(witnesses)
    )
    report(
        2,
        "additive bound eps <= Gamma + sum p_E refuted as stated; tilted-projector "
        f"witness eps = |sin th| > sin^2 th at {refuted}/{len(witnesses)} angles",
        suite,
        elapsed,
        60,
        passed=passed,
    )
    report(2, "  sound disturbance form of the same bound", sound)
    assert elapsed < 60.0
    assert sound.failures == 0, "the sound telescoping bound must hold"
    assert suite.checks == 1000
    assert suite.failures >= 1 and suite.worst_margin < -1e-9, (
        f"the additive bound eps <= Gamma + sum p_E is no longer reported "
        f"violated ({suite.failures}/{suite.checks} instance-family pairs, "
        f"worst margin {suite.worst_margin:+.4f}). The bound is unsound: its "
        f"derivation replaces ||rho - P rho P||_1 by Tr[rho (1 - P)], which "
        f"fails whenever the projector does not commute with the state, and "
        f"the oracle must keep reporting that. A pass here means the bound was "
        f"loosened or the oracle lost the refutation. See the README section "
        f"\"Known red check\" and the sbskit.verify module docstring."
    )
    for theta, eps, bound, disturbance in witnesses:
        s, c = math.sin(theta), math.cos(theta)
        assert eps == pytest.approx(s, abs=1e-12), f"theta {theta}: eps {eps} != |sin theta|"
        assert bound == pytest.approx(s * s, abs=1e-12), f"theta {theta}: bound {bound} != sin^2 theta"
        assert eps > bound, f"theta {theta}: the witness no longer refutes the additive bound"
        assert disturbance == pytest.approx(s * math.sqrt(1.0 + 3.0 * c * c), abs=1e-12)
        assert eps <= disturbance, f"theta {theta}: the disturbance form fails on the witness"


def test_acceptance_03_measurement_free_bound(oracle_suites):
    suite = oracle_suites["cor1"]
    report(3, "measurement-free bound eps_witness <= eta", suite)
    assert suite.failures == 0


def test_acceptance_04_information_gap_bound(oracle_suites):
    suite = oracle_suites["cor2"]
    report(4, "information gap |I - H_S| <= F(eps) when eps <= 1/4", suite)
    assert suite.failures == 0
    bound, valid = cor2_bound(0.25, 2)
    assert valid
    assert bound == pytest.approx(8.122556, abs=1e-6)
    print("              F(0.25, d_S=2) = "
          f"{bound:.9f} bits (expected 8.122556 +/- 1e-6)", file=sys.__stdout__)


def test_acceptance_05_measure_moments():
    start = time.time()
    suite = verify.moments_suite(SEED)
    elapsed = time.time() - start
    report(5, "angle and eigenvalue measure moments (2/3, 1/3, 3/5 +/- 0.01)", suite, elapsed, 5)
    assert suite.failures == 0
    assert elapsed < 5.0


def test_acceptance_06_short_time_exponents():
    suite = verify.short_time_suite(SEED)
    report(6, "Monte Carlo exponents vs (2/5) g2 t^2 and (4/5) g2 t^2 within 5%", suite)
    assert suite.failures == 0


def test_acceptance_07_time_scales():
    suite = verify.timescale_suite()
    report(7, "time-scale ratio identity and broadcast-time fidelity level", suite)
    assert suite.failures == 0


def test_acceptance_08_discrimination():
    start = time.time()
    helstrom = verify.helstrom_suite(SEED)
    local = verify.local_probability_suite(SEED)
    chernoff = verify.chernoff_suite()
    elapsed = time.time() - start
    report(8, "Helstrom error identity on 1000 random pairs", helstrom, elapsed, 60)
    report(8, "  success-probability formula vs Tr[P rho] (1e-12)", local)
    report(8, "  exact majority tail >= Chernoff bound on the grid", chernoff)
    from sbskit.discrimination import majority_success_heterogeneous

    assert helstrom.failures == 0
    assert local.failures == 0
    assert chernoff.failures == 0
    assert majority_success_heterogeneous([0.5] * 3) == 0.5
    print("              majority_success_heterogeneous([0.5] * 3) = 0.5 exactly", file=sys.__stdout__)


def test_acceptance_09_kolmogorov_fuchs():
    suite = verify.kolmogorov_fuchs_suite(SEED)
    report(9, "Kolmogorov distance vs fidelity limit on 500 instances (n=51)", suite)
    assert suite.failures == 0


def test_acceptance_10_surface_anchors():
    start = time.time()
    suite = verify.fig1_anchor_suite(SEED)
    elapsed = time.time() - start
    report(10, "time-averaged surface anchors (ridges at 1, center < 0.05)", suite, elapsed, 120)
    assert suite.failures == 0
    assert elapsed < 120.0


def test_acceptance_11_bound_curve_anchors():
    start = time.time()
    suite = verify.fig2_anchor_suite(SEED)
    elapsed = time.time() - start
    report(11, "bound curves: start at 2, small-n plateau > 1, ordered in n", suite, elapsed, 300)
    assert suite.failures == 0
    assert elapsed < 300.0


def test_acceptance_12_determinism(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "samples": 25,
                "fig2": {"n_values": [12, 40], "t_points": 31, "t_max": 1.0},
                "discrimination": {"n_mac": 15, "t_points": 5, "draws": 30},
            }
        )
    )
    identical = True
    for scenario, files in (
        ("fig2", ["fig2_curve_n12.csv", "fig2_curve_n40.csv"]),
        ("discrimination", ["discrimination.csv"]),
        ("timescales", ["timescales.csv"]),
    ):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / f"{scenario}_{name}"
            status = cli.main(
                ["--scenario", scenario, "--config", str(cfg), "--out-dir", str(out)]
            )
            assert status == 0
            outs.append(out)
        identical = identical and all(
            (outs[0] / f).read_bytes() == (outs[1] / f).read_bytes() for f in files
        )
    print(
        f"ACCEPTANCE 12 {'PASS' if identical else 'FAIL'}: byte-identical CSV on rerun",
        file=sys.__stdout__,
    )
    assert identical
