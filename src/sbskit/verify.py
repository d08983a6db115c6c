"""Certification suites: every closed form, bound and sampler property is
checked here against the brute-force oracle or an independent route.

Each suite returns a :class:`SuiteResult` with a check count, failure count
and the worst margin (bound minus value; negative means violated).  Every
suite is a fixed definition: it takes only the seed (the oracle corpus also
its instance count, the ``verify.instances`` config field), and its sizes
are literals in its body.  The CLI ``verify`` scenario and the acceptance
tests both run these functions with no other argument, so the shipped gate
and the test suite cannot drift apart.

Known red suite: ``prop1_as_stated``.  The additive bound
eps <= Gamma + sum p_E is numerically false for general projector
families: its derivation treats rho - P rho P as positive semidefinite
with trace Tr[rho (1 - P)], which only holds when the projector commutes
with the state.  A pure central state with one pure observed spin measured
by a projector tilted by angle theta gives eps = |sin theta| against a
claimed bound of sin^2 theta.  The sound form of the same telescoping
argument, with the full disturbance norm ||rho_i - P rho_i P||_1 per
branch, is checked as ``prop1_disturbance`` and holds on every instance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import densmat, oracle, sbs_core
from .discrimination import (
    chernoff_bound,
    helstrom_pair,
    helstrom_spin_analytic,
    kolmogorov_fuchs,
    local_success_probability,
    majority_success_heterogeneous,
)
from .ensemble import (
    MeasureSpec,
    draw_spin_arrays,
    fig1_node,
    fig2_curves,
    sample_rows,
    sample_stream,
)
from .spin_model import (
    SpinParams,
    decoherence_factor,
    delta,
    lln_exponents,
    macrofraction_fidelity,
    short_time_exponents,
    sin2_coefficients,
    sin_gt,
    time_scales,
)

# spins sampled by the moments and the short-time suites
MOMENT_SAMPLES = 100_000
# spins per lln_exponents call in the short-time suite
EXPONENT_BLOCK = 10_000


@dataclass
class SuiteResult:
    name: str
    checks: int = 0
    failures: int = 0
    worst_margin: float = math.inf
    detail: str = ""

    @property
    def passed(self) -> bool:
        """No failures among at least one check: a suite that checked nothing certifies nothing."""
        return self.checks > 0 and self.failures == 0

    def record(self, margins, tol: float = 0.0):
        """Count one check per margin of a float or an array; a NaN margin
        fails and stays the worst margin, and of equal margins the first is
        kept, as one call per margin in order would keep it."""
        margins = np.ravel(np.asarray(margins, dtype=float))
        if not margins.size:
            return
        self.checks += margins.size
        self.failures += int(np.count_nonzero(~(margins >= -tol)))
        # argmin picks the first NaN, or the first of equal minima
        worst = float(margins[np.argmin(margins)])
        if worst < self.worst_margin or math.isnan(worst):
            self.worst_margin = worst

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "checks": self.checks,
            "failures": self.failures,
            # a string, as verify.json allows no NaN
            "worst_margin": None if math.isinf(self.worst_margin) else "nan" if math.isnan(self.worst_margin) else self.worst_margin,
            "passed": self.passed,
            "detail": self.detail,
        }


def _timed_spin_rows(seed: int, label: int, rows: int, n: int) -> tuple[SpinParams, np.ndarray]:
    """rows x n spins of the default measure and one time per row, t of shape (rows, 1).

    Stream (label, i) draws the n spins of row i, then its time in [0, 2 pi).
    """
    measure = MeasureSpec()
    *spins, t = sample_rows(
        seed, label, range(rows), lambda rng: (*draw_spin_arrays(measure, rng, n), rng.uniform(0.0, 2.0 * math.pi))
    )
    return SpinParams(*spins), t[:, None]


def convention_certification(seed: int) -> SuiteResult:
    """Oracle matrix evolution vs the closed forms, per spin.

    Checks Tr[U_+ rho U_-^dagger] against the dephasing-factor formula and
    the oracle fidelity of the evolved branch pair against the fidelity
    formula, each within 1e-10, on 1000 draws.
    """
    res = SuiteResult("convention_certification")
    spins, t = _timed_spin_rows(seed, 10, 1000, 1)
    # per draw the pairs (i, j) = (0, 1), (0, 0), (1, 1)
    evolved = oracle.branch_state(spins, [0, 0, 1], [1, 0, 1], t, 2)
    gamma_oracle = np.trace(evolved[:, 0], axis1=-2, axis2=-1)
    b_oracle = densmat.fidelity(evolved[:, 1], evolved[:, 2])
    d = gamma_oracle - decoherence_factor(spins, t)
    # per draw the Gamma margin, then the fidelity margin
    b_closed = macrofraction_fidelity(sin2_coefficients(spins)[0], sin_gt(spins, t))
    gaps = np.stack([np.abs(d), np.abs(b_oracle - b_closed)], axis=-1)
    res.record(1e-10 - gaps)
    return res


def oracle_inequalities(seed: int, instances: int) -> dict[str, SuiteResult]:
    """Exact-distance suites over a seeded corpus of random instances.

    prop1_as_stated: eps <= Gamma + sum p_E per family (Helstrom witnesses
    and deliberately bad families).  Expected to fail; see module docstring.
    prop1_disturbance: the sound disturbance form, expected to pass.
    cor1: witness eps <= eta.  cor2: |I - H_S| <= F(eps) when eps <= 1/4.
    A degenerate family (no broadcast state) is not checked.  The corpus is
    evaluated in blocks of oracle.ORACLE_BLOCK instances, each recorded
    instance-major, in corpus order.
    """
    stated = SuiteResult("prop1_as_stated", detail="additive discrimination-error bound, known-unsound derivation")
    disturbance = SuiteResult("prop1_disturbance")
    cor1 = SuiteResult("cor1")
    cor2 = SuiteResult("cor2")
    cor2_applicable = 0
    for lo in range(0, instances, oracle.ORACLE_BLOCK):
        rows = range(lo, min(lo + oracle.ORACLE_BLOCK, instances))
        block = oracle.random_instance(seed, rows)
        # each instance's random family from its own stream
        n_env = block.observed.g.shape[-1]
        (draws,) = sample_rows(seed, 11, rows, lambda rng: (rng.normal(size=(n_env, 2, 2)),))
        rep = oracle.evaluate_instance(block, draws)
        checked = ~rep.degenerate.T
        stated.record((rep.prop1 - rep.epsilon).T[checked], tol=1e-9)
        disturbance.record((rep.disturbance - rep.epsilon).T[checked], tol=1e-9)
        cor1.record(rep.eta_cor1 - rep.epsilon_witness, tol=1e-9)
        cor2_applicable += int(np.count_nonzero(rep.cor2_applicable))
        cor2.record((rep.cor2 - rep.info_gap)[rep.cor2_applicable], tol=1e-9)
    cor2.detail = f"applicable on {cor2_applicable}/{instances} instances (eps <= 1/4)"
    return {suite.name: suite for suite in (stated, disturbance, cor1, cor2)}


def _random_qubit_state(rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _random_state_pairs(seed: int, label: int, pairs: int):
    """Stacks rho_p, rho_m (pairs, 2, 2) and a uniform prior weight w per
    pair, drawn in that order from stream (label, i) for pair i."""
    return sample_rows(
        seed, label, range(pairs), lambda rng: (_random_qubit_state(rng), _random_qubit_state(rng), rng.uniform(0.0, 1.0))
    )


def helstrom_suite(seed: int) -> SuiteResult:
    """Helstrom optimality identity on 1000 random qubit pairs.

    Achieved equal-prior error must equal (1/2)(1 - T/2) with T the trace
    norm of the difference, within 1e-10.
    """
    res = SuiteResult("helstrom_identity")
    rho_p, rho_m, _ = _random_state_pairs(seed, 12, 1000)
    tnorms = densmat.trace_norm(rho_p - rho_m)
    family = helstrom_pair(rho_p, rho_m)
    traces = np.trace(rho_m @ family[:, 0], axis1=-2, axis2=-1) + np.trace(rho_p @ family[:, 1], axis1=-2, axis2=-1)
    res.record(1e-10 - np.abs(0.5 * np.real(traces) - 0.5 * (1.0 - 0.5 * tnorms)))
    return res


def barnum_knill_suite(seed: int) -> SuiteResult:
    """Optimal two-state error <= sum_{i != j} sqrt(w_i w_j) B(rho_i, rho_j)
    on 1000 random weighted pairs."""
    res = SuiteResult("barnum_knill")
    rho_p, rho_m, w = _random_state_pairs(seed, 13, 1000)
    optimal = 0.5 * (1.0 - densmat.trace_norm(w[:, None, None] * rho_p - (1.0 - w)[:, None, None] * rho_m))
    fids = np.ones((len(w), 2, 2))
    fids[:, 0, 1] = fids[:, 1, 0] = densmat.fidelity(rho_p, rho_m)
    res.record(sbs_core.barnum_knill_bound(np.stack([w, 1.0 - w], axis=-1), fids) - optimal, tol=1e-9)
    return res


def local_probability_suite(seed: int) -> SuiteResult:
    """Closed-form success probability vs explicit Tr[P rho], within 1e-12, on 1000 draws."""
    res = SuiteResult("local_success_probability")
    spins, t = _timed_spin_rows(seed, 14, 1000, 1)
    # per draw both branch states
    evolved = oracle.branch_state(spins, [0, 1], [0, 1], t, 2)
    family, degenerate = helstrom_spin_analytic(spins, t)
    p_plus = np.real(np.trace(family[:, 0, 0] @ evolved[:, 0], axis1=-2, axis2=-1))
    p_minus = np.real(np.trace(family[:, 0, 1] @ evolved[:, 1], axis1=-2, axis2=-1))
    formula = local_success_probability(np.abs(delta(spins)), sin_gt(spins, t))
    # per informative draw the p_plus margin, then the p_minus margin
    margins = 1e-12 - np.abs(np.stack([p_plus, p_minus], axis=-1) - formula)
    res.record(margins[~degenerate[:, 0]])
    return res


def chernoff_suite() -> SuiteResult:
    """Exact strict-majority tail >= Chernoff lower bound on a fixed grid."""
    res = SuiteResult("chernoff_vs_exact")
    s_bars = np.arange(0.05, 0.46, 0.05)
    for n_mac in (11, 101, 1001):
        exact = majority_success_heterogeneous(np.repeat(0.5 + s_bars[:, None], n_mac, axis=-1))
        res.record(exact - [chernoff_bound(n_mac, float(s_bar)) for s_bar in s_bars], tol=1e-12)
    return res


def kolmogorov_fuchs_suite(seed: int) -> SuiteResult:
    """|2 p_tilde - 1| <= 1 - B^2/2 on 500 sampled 51-spin macrofractions.

    p_tilde is the exact majority probability for the realized per-spin
    success probabilities; B is the realized macrofraction fidelity.
    """
    res = SuiteResult("kolmogorov_fuchs")
    spins, t = _timed_spin_rows(seed, 15, 500, 51)
    s = sin_gt(spins, t)
    p_tilde = majority_success_heterogeneous(local_success_probability(np.abs(delta(spins)), s))
    k, limit, _ = kolmogorov_fuchs(p_tilde, macrofraction_fidelity(sin2_coefficients(spins)[0], s))
    res.record(limit - k, tol=1e-9)
    return res


def moments_suite(seed: int) -> SuiteResult:
    """Sampler moments over 100,000 spins: E[sin^2 beta] = 2/3,
    E[cos^2 beta] = 1/3, E[(2 lam - 1)^2] = 3/5, each within 0.01."""
    res = SuiteResult("measure_moments")
    spins = SpinParams(*draw_spin_arrays(MeasureSpec(), sample_stream(seed, 0, 16), MOMENT_SAMPLES))
    res.record(0.01 - abs(float(np.mean(np.sin(spins.beta) ** 2)) - 2.0 / 3.0))
    res.record(0.01 - abs(float(np.mean(np.cos(spins.beta) ** 2)) - 1.0 / 3.0))
    res.record(0.01 - abs(float(np.mean((2.0 * spins.lam - 1.0) ** 2)) - 3.0 / 5.0))
    return res


def short_time_suite(seed: int) -> SuiteResult:
    """Monte Carlo exponent means over the analytic small-t coefficients, on
    100,000 spins at t = 0.05.

    Both ratios must land in [0.95, 1.05].
    """
    res = SuiteResult("short_time_exponents")
    measure = MeasureSpec()
    t = 0.05
    spins = SpinParams(*draw_spin_arrays(measure, sample_stream(seed, 0, 17), MOMENT_SAMPLES))
    kappa, chi = np.empty(MOMENT_SAMPLES), np.empty(MOMENT_SAMPLES)
    # blocks keep the exponents' temporaries small next to the sampled arrays
    for lo in range(0, MOMENT_SAMPLES, EXPONENT_BLOCK):
        block = slice(lo, lo + EXPONENT_BLOCK)
        kappa[block], chi[block] = lln_exponents(SpinParams(*(v[block] for v in vars(spins).values())), t)
    kappa_short, chi_short = short_time_exponents(measure.g2bar(), t)
    r_kappa = float(np.mean(kappa)) / kappa_short
    r_chi = float(np.mean(chi)) / chi_short
    res.detail = f"kappa ratio {r_kappa:.4f}, chi ratio {r_chi:.4f}"
    res.record(0.05 - abs(r_kappa - 1.0))
    res.record(0.05 - abs(r_chi - 1.0))
    return res


def timescale_suite() -> SuiteResult:
    """Algebraic ratio identity plus the fidelity level at the broadcast time.

    (t_B/t_D)^2 must equal 4 (1-f) N / N_m to 1e-12 relative, and the
    short-time form must give exp(-N_m kappa(t_B)/2) within [0.5/N_m,
    2/N_m] for N_m in {100, 1000}.
    """
    res = SuiteResult("time_scales")
    g2bar = MeasureSpec().g2bar()
    for n_mac, n_total, f in ((100, 200, 0.5), (1000, 4000, 0.25), (100, 400, 0.0)):
        t_b, t_d, ratio_sq = time_scales(n_total, n_mac, f, g2bar)
        algebraic = 4.0 * (1.0 - f) * n_total / n_mac
        res.record(1e-12 - abs((t_b / t_d) ** 2 - algebraic) / algebraic)
        res.record(1e-12 - abs(ratio_sq - algebraic))
    for n_mac in (100, 1000):
        t_b, _, _ = time_scales(2 * n_mac, n_mac, 0.5, g2bar)
        kappa_bar, _ = short_time_exponents(g2bar, t_b)
        level = math.exp(-0.5 * n_mac * kappa_bar)
        res.record(level - 0.5 / n_mac)
        res.record(2.0 / n_mac - level)
    return res


def fig1_anchor_suite(seed: int) -> SuiteResult:
    """Anchor nodes of the time-averaged surface, 8 samples per node.

    <B> = 1 along lam = 1/2 and beta in {0, pi} and <|gamma|> = 1 at
    (1, 0), all to quadrature tolerance; both averages < 0.05 at
    (1, pi/2) for 100-spin macrofractions.
    """
    res = SuiteResult("fig1_anchors")
    quad_tol = 1e-9

    def node(lam, beta, with_gamma=True):
        return fig1_node(lam, beta, 100, 200.0, 40001, 8, seed, with_gamma=with_gamma)

    # the B ridges: the |gamma| curve is not read there
    for lam, beta in ((0.5, 1.0), (0.5, 2.5), (0.8, 0.0), (0.8, math.pi)):
        mean_b = node(lam, beta, with_gamma=False)[0]
        res.record(quad_tol - abs(mean_b - 1.0))
    mean_b, mean_g = node(1.0, 0.0)[:2]
    res.record(quad_tol - abs(mean_g - 1.0))
    mean_b, mean_g = node(1.0, math.pi / 2.0)[:2]
    res.detail = f"at (1, pi/2): <B> = {mean_b:.4g}, <|gamma|> = {mean_g:.4g}"
    res.record(0.05 - mean_b)
    res.record(0.05 - mean_g)
    return res


def fig2_anchor_suite(seed: int) -> SuiteResult:
    """Anchors of the averaged distance-bound curves for n in (30, 50, 200,
    500), 200 samples each.

    Every curve starts at exactly 2; the time-averaged bound over the
    post-initial window (0.1, 0.4) exceeds 1 for n in {30, 50}; the curves
    are ordered decreasing in n pointwise within 3 standard errors; the
    n=500 curve stays below 0.1 beyond twice its broadcast time.
    """
    res = SuiteResult("fig2_anchors")
    t = np.linspace(0.0, 1.2, 121)
    measure = MeasureSpec()
    # rows n = 30, 50, 200, 500
    mean, stderr = fig2_curves((30, 50, 200, 500), t, 200, seed, measure)
    res.record(1e-12 - np.abs(mean[:, 0] - 2.0))
    lo, hi = 0.1, 0.4
    window = (t >= lo) & (t <= hi)
    plateau = np.trapezoid(mean[:2, window], t[window]) / (hi - lo)
    res.record(plateau - 1.0)
    res.detail = f"plateau averages over {(lo, hi)}: n=30: {plateau[0]:.3f}, n=50: {plateau[1]:.3f}"
    sl = t > 0.05
    gap = mean[:-1, sl] - mean[1:, sl]
    slack = 3.0 * np.hypot(stderr[:-1, sl], stderr[1:, sl])
    res.record(np.min(gap + slack, axis=-1))
    t_b500, _, _ = time_scales(1000, 500, 0.5, measure.g2bar())
    res.record(0.1 - np.max(mean[3, t >= 2.0 * t_b500]))
    return res


def qutrit_prop1_suite(seed: int) -> SuiteResult:
    """Disturbance-form additive bound for a three-level central system, on
    40 instances.

    Families pair the two leading pointer branches by Helstrom and assign
    the third a rank-zero projector; the bound must dominate the exact
    distance for these and for coarse families.  The instances are
    evaluated in blocks of oracle.ORACLE_BLOCK and recorded in order.
    """
    res = SuiteResult("qutrit_prop1_disturbance")
    zero = np.zeros((2, 2), dtype=complex)
    eye = np.eye(2, dtype=complex)
    instances = 40
    for lo in range(0, instances, oracle.ORACLE_BLOCK):
        rows = range(lo, min(lo + oracle.ORACLE_BLOCK, instances))
        inst = oracle.random_instance(seed, rows, n_observed=2, n_unobserved=2, d_s=3)
        branches, gamma_mags = oracle.branch_ensemble(inst)
        pairwise = helstrom_pair(branches[..., 0, :, :], branches[..., 1, :, :])
        # the pairwise and the coarse family, stacked in that order
        families = sbs_core.ProjectorFamily(np.stack([
            np.concatenate([pairwise, np.zeros_like(branches[..., :1, :, :])], axis=-3),
            np.broadcast_to([eye, zero, zero], branches.shape),
        ]))
        reduced = oracle.reduced_state_exact(oracle.full_joint_state(inst), inst)
        gamma = sbs_core.collective_gamma(inst.central, gamma_mags)
        sbs = sbs_core.build_sbs(inst.central, branches, families)
        margins = sbs_core.disturbance_bound(gamma, inst.central.sigma, branches, families.families) - oracle.exact_epsilon(reduced, sbs)
        # instance by instance, each instance's families in order
        res.record(margins.T[~sbs.degenerate.T], tol=1e-9)
    return res


def run_all(seed: int, instances: int) -> dict[str, SuiteResult]:
    """Every suite, keyed by name; the CLI verify scenario serializes this."""
    suites = (convention_certification(seed), *oracle_inequalities(seed, instances).values(), helstrom_suite(seed),
              barnum_knill_suite(seed), local_probability_suite(seed), chernoff_suite(), kolmogorov_fuchs_suite(seed),
              moments_suite(seed), short_time_suite(seed), timescale_suite(), qutrit_prop1_suite(seed),
              fig1_anchor_suite(seed), fig2_anchor_suite(seed))
    return {suite.name: suite for suite in suites}
