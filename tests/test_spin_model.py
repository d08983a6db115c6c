import math

import numpy as np
import pytest

from sbskit import densmat, spin_model
from sbskit.oracle import branch_state
from sbskit.spin_model import SpinParams


def random_params(rng, **over):
    kw = dict(
        alpha=rng.uniform(0, 2 * np.pi),
        beta=rng.uniform(0, np.pi),
        gamma_euler=rng.uniform(0, 2 * np.pi),
        lam=rng.uniform(0, 1),
        g=rng.uniform(0, 1),
    )
    kw.update(over)
    return SpinParams(**kw)


def batch(records):
    """One record of the given records, of one shape, stacked along a new leading axis."""
    return SpinParams(*np.stack([np.broadcast_arrays(*vars(r).values()) for r in records], axis=1))


def spin_of(record, j):
    """Spin j of a record (an index into its arrays) as a record of floats."""
    return SpinParams(*(float(v[j]) for v in vars(record).values()))


def fidelity(record, t):
    """Macrofraction fidelity of a record at time t, from its B coefficient and sin(g t)."""
    return spin_model.macrofraction_fidelity(spin_model.sin2_coefficients(record)[0], spin_model.sin_gt(record, t))


def branch_pair(p, t):
    """Branch states (rho_plus, rho_minus) by explicit matrix evolution."""
    return branch_state(p, 0, 0, t, 2), branch_state(p, 1, 1, t, 2)


def fidelity_trace_det(p, t):
    """Single-spin branch fidelity via the 2x2 trace/determinant route.

    For a 2x2 PSD matrix M, tr sqrt(M) = sqrt(tr M + 2 sqrt(det M)); here
    tr M = lam^2 + (1-lam)^2 - (2 lam - 1)^2 sin^2(beta) sin^2(gt) and
    det M = lam^2 (1-lam)^2.
    """
    tr_m = (
        p.lam**2
        + (1.0 - p.lam) ** 2
        - (2.0 * p.lam - 1.0) ** 2 * math.sin(p.beta) ** 2 * math.sin(p.g * t) ** 2
    )
    det_m = p.lam**2 * (1.0 - p.lam) ** 2
    return math.sqrt(max(tr_m + 2.0 * math.sqrt(det_m), 0.0))


def evolve_oracle(p, t, sign):
    """Independent route: explicit unitary conjugation of R D R^dagger."""
    u = np.diag([np.exp(0.5j * sign * p.g * t), np.exp(-0.5j * sign * p.g * t)])
    return u @ spin_model.initial_spin_state(p) @ u.conj().T


class TestSpinParams:
    def test_range_validation(self):
        with pytest.raises(ValueError, match="beta"):
            SpinParams(0.0, 4.0, 0.0, 0.5, 1.0)
        with pytest.raises(ValueError, match="lam"):
            SpinParams(0.0, 1.0, 0.0, 1.5, 1.0)
        # whole arrays are checked, and the message names the field and a bad value
        lam = np.full(5, 0.5)
        lam[3] = -0.25
        with pytest.raises(ValueError, match=r"lam -0.25 outside"):
            SpinParams(0.0, np.ones(5), 0.0, lam, np.ones(5))
        with pytest.raises(ValueError, match="alpha nan"):
            SpinParams(np.array([0.1, np.nan]), 1.0, 0.0, 0.5, 1.0)

    def test_array_shapes_must_agree(self):
        with pytest.raises(ValueError, match="shapes differ"):
            SpinParams(0.0, np.ones(3), 0.0, np.full(4, 0.5), 1.0)
        # float fields hold for every spin of a batch
        SpinParams(0.0, np.ones((2, 3)), 0.0, 0.5, np.ones((2, 3)))

    def test_stacking_round_trip(self):
        rng = np.random.default_rng(20)
        spins = [random_params(rng) for _ in range(6)]
        record = batch([batch(spins[:3]), batch(spins[3:])])
        assert record.lam.shape == (2, 3)
        assert spin_of(record, (1, 2)) == spins[5]
        assert [spin_of(batch(spins), j) for j in range(6)] == spins


class TestInitialState:
    def test_pointer_eigenstate(self):
        rho = spin_model.initial_spin_state(SpinParams(0.0, 0.0, 0.0, 1.0, 1.0))
        np.testing.assert_allclose(rho, np.diag([1.0, 0.0]), atol=1e-14)

    def test_maximally_mixed_rotation_invariant(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            rho = spin_model.initial_spin_state(random_params(rng, lam=0.5))
            np.testing.assert_allclose(rho, np.eye(2) / 2, atol=1e-14)

    def test_equatorial_pure_state(self):
        rho = spin_model.initial_spin_state(SpinParams(0.0, np.pi / 2, 0.0, 1.0, 1.0))
        np.testing.assert_allclose(rho, np.full((2, 2), 0.5), atol=1e-14)

    def test_spectrum_is_lambda(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            p = random_params(rng)
            w = np.linalg.eigvalsh(spin_model.initial_spin_state(p))
            np.testing.assert_allclose(sorted(w), sorted([p.lam, 1 - p.lam]), atol=1e-12)

    def test_third_euler_angle_is_irrelevant(self):
        # R_z(gamma) commutes with diag(lam, 1-lam), so gamma drops out
        rng = np.random.default_rng(2)
        for _ in range(20):
            p = random_params(rng)
            q = SpinParams(p.alpha, p.beta, rng.uniform(0, 2 * np.pi), p.lam, p.g)
            np.testing.assert_allclose(
                spin_model.initial_spin_state(p), spin_model.initial_spin_state(q), atol=1e-14
            )

    def test_delta_and_pi_match_matrix_elements(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            p = random_params(rng)
            rho = spin_model.initial_spin_state(p)
            assert abs(spin_model.delta(p) - rho[0, 1]) < 1e-13
            # the upper-level population, which the sigma_z branch unitaries conserve
            assert abs(0.5 * (1.0 + (2.0 * p.lam - 1.0) * np.cos(p.beta)) - rho[0, 0].real) < 1e-13


class TestEvolvedBranchStates:
    def test_time_zero(self):
        rng = np.random.default_rng(4)
        p = random_params(rng)
        rho_p, rho_m = branch_pair(p, 0.0)
        ini = spin_model.initial_spin_state(p)
        np.testing.assert_allclose(rho_p, ini, atol=1e-14)
        np.testing.assert_allclose(rho_m, ini, atol=1e-14)

    def test_pointer_eigenstate_frozen(self):
        p = SpinParams(0.0, 0.0, 0.0, 1.0, 0.7)
        for t in (0.0, 1.3, 11.0):
            rho_p, rho_m = branch_pair(p, t)
            np.testing.assert_allclose(rho_p, np.diag([1.0, 0.0]), atol=1e-14)
            np.testing.assert_allclose(rho_m, np.diag([1.0, 0.0]), atol=1e-14)

    def test_matches_unitary_conjugation(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            p = random_params(rng)
            t = rng.uniform(0, 10)
            rho_p, rho_m = branch_pair(p, t)
            assert np.max(np.abs(rho_p - evolve_oracle(p, t, +1))) < 1e-12
            assert np.max(np.abs(rho_m - evolve_oracle(p, t, -1))) < 1e-12

    def test_equatorial_counter_rotation(self):
        p = SpinParams(0.0, np.pi / 2, 0.0, 1.0, 1.0)
        t = 0.9
        rho_p, rho_m = branch_pair(p, t)
        assert np.max(np.abs(rho_p - evolve_oracle(p, t, +1))) < 1e-12
        assert np.max(np.abs(rho_m - evolve_oracle(p, t, -1))) < 1e-12
        # both remain pure
        for rho in (rho_p, rho_m):
            assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-12)

    def test_spectrum_conserved(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            p = random_params(rng)
            rho_p, _ = branch_pair(p, rng.uniform(0, 5))
            w = np.linalg.eigvalsh(rho_p)
            np.testing.assert_allclose(sorted(w), sorted([p.lam, 1 - p.lam]), atol=1e-12)

    def test_negative_time_rejected(self):
        p = SpinParams(0, 0, 0, 1, 1)
        for form in (spin_model.decoherence_factor, spin_model.sin_gt, spin_model.lln_exponents):
            with pytest.raises(ValueError, match="t must be"):
                form(p, -1.0)
            with pytest.raises(ValueError, match="t must be"):
                form(p, np.array([[0.5], [-1.0]]))


class TestDecoherenceFactor:
    def test_time_zero(self):
        rng = np.random.default_rng(7)
        spins = [random_params(rng) for _ in range(5)]
        assert spin_model.decoherence_factor(batch(spins), 0.0) == pytest.approx(1.0 + 0.0j)

    def test_pointer_eigenstate_pure_phase(self):
        p = SpinParams(0.0, 0.0, 0.0, 1.0, 1.0)
        for t in (0.3, 1.7, 9.2):
            val = spin_model.decoherence_factor(batch([p]), t)
            assert abs(val) == pytest.approx(1.0, abs=1e-14)
            assert val == pytest.approx(np.exp(1j * p.g * t), abs=1e-12)

    def test_single_spin_value_and_oracle(self):
        # cos(pi/4) + i (0.5)(0.5) sin(pi/4)
        p = SpinParams(0.0, np.pi / 3, 0.0, 0.75, 1.0)
        t = np.pi / 4
        got = spin_model.decoherence_factor(batch([p]), t)
        assert got == pytest.approx(0.7071067811865476 + 0.17677669529663687j, abs=1e-12)
        # oracle route: Tr[U_+ rho U_-^dagger]
        u_p = np.diag([np.exp(0.5j * p.g * t), np.exp(-0.5j * p.g * t)])
        u_m = np.diag([np.exp(-0.5j * p.g * t), np.exp(0.5j * p.g * t)])
        oracle = np.trace(u_p @ spin_model.initial_spin_state(p) @ u_m.conj().T)
        assert got == pytest.approx(oracle, abs=1e-12)

    def test_modulus_bounded(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            spins = [random_params(rng) for _ in range(7)]
            assert abs(spin_model.decoherence_factor(batch(spins), rng.uniform(0, 20))) <= 1 + 1e-12

    def test_log_path_matches_direct(self):
        rng = np.random.default_rng(9)
        spins = [random_params(rng) for _ in range(70)]
        t = 0.4
        direct = np.prod(
            [spin_model.decoherence_factor(batch([s]), t) for s in spins]
        )
        assert spin_model.decoherence_factor(batch(spins), t) == pytest.approx(direct, rel=1e-12)

    def test_no_underflow_at_ten_thousand_spins(self):
        rng = np.random.default_rng(10)
        spins = [random_params(rng) for _ in range(10_000)]
        val = spin_model.decoherence_factor(batch(spins), 2.0)
        assert np.isfinite(val.real) and np.isfinite(val.imag)
        assert abs(val) <= 1.0

    def test_periodicity_single_spin(self):
        rng = np.random.default_rng(11)
        p = random_params(rng, g=0.8)
        period = 2 * np.pi / p.g
        for t in (0.3, 1.1):
            a = spin_model.decoherence_factor(batch([p]), t)
            b = spin_model.decoherence_factor(batch([p]), t + period)
            assert a == pytest.approx(b, abs=1e-10)


class TestMacrofractionFidelity:
    def test_time_zero(self):
        rng = np.random.default_rng(12)
        mac = batch([random_params(rng) for _ in range(4)])
        assert fidelity(mac, 0.0) == 1.0

    def test_one_shot_zero(self):
        p = SpinParams(0.0, np.pi / 2, 0.0, 1.0, 1.0)
        assert fidelity(batch([p]), np.pi / 2) == 0.0

    def test_single_spin_value(self):
        # sqrt(1 - 0.25 * 0.75 * 0.5) = sqrt(0.90625)
        p = SpinParams(0.0, np.pi / 3, 0.0, 0.75, 1.0)
        got = fidelity(batch([p]), np.pi / 4)
        assert got == pytest.approx(math.sqrt(0.90625), abs=1e-12)
        assert got == pytest.approx(0.9519716382329886, abs=1e-12)

    def test_three_routes_agree(self):
        rng = np.random.default_rng(13)
        for _ in range(1000):
            p = random_params(rng)
            t = rng.uniform(0, 2 * np.pi)
            closed = fidelity(batch([p]), t)
            trace_det = fidelity_trace_det(p, t)
            eigen = densmat.fidelity(*branch_pair(p, t))
            assert abs(closed - trace_det) < 1e-9
            assert abs(closed - eigen) < 1e-9

    def test_multiplicative_over_disjoint_unions(self):
        rng = np.random.default_rng(14)
        left = tuple(random_params(rng) for _ in range(3))
        right = tuple(random_params(rng) for _ in range(4))
        t = 0.8
        whole = fidelity(batch(left + right), t)
        parts = fidelity(
            batch(left), t
        ) * fidelity(batch(right), t)
        assert whole == pytest.approx(parts, abs=1e-12)

    def test_log_path_matches_direct(self):
        rng = np.random.default_rng(15)
        spins = tuple(random_params(rng) for _ in range(80))
        t = 0.3
        direct = np.prod(
            [fidelity(batch([s]), t) for s in spins]
        )
        got = fidelity(batch(spins), t)
        assert got == pytest.approx(direct, rel=1e-10)

    def test_periodicity_single_spin(self):
        rng = np.random.default_rng(16)
        p = random_params(rng, g=0.6)
        mac = batch([p])
        period = 2 * np.pi / p.g
        for t in (0.4, 2.0):
            assert fidelity(mac, t) == pytest.approx(
                fidelity(mac, t + period), abs=1e-10
            )


class TestLlnExponents:
    def test_time_zero(self):
        rng = np.random.default_rng(17)
        assert spin_model.lln_exponents(random_params(rng), 0.0) == (0.0, 0.0)

    def test_maximally_mixed_never_orthogonalizes(self):
        rng = np.random.default_rng(18)
        for t in (0.4, 2.2, 7.7):
            kappa, _ = spin_model.lln_exponents(random_params(rng, lam=0.5), t)
            assert kappa == 0.0

    def test_single_value(self):
        p = SpinParams(0.0, np.pi / 3, 0.0, 0.75, 1.0)
        kappa, _ = spin_model.lln_exponents(p, np.pi / 4)
        assert kappa == pytest.approx(-math.log(0.90625), abs=1e-12)
        assert kappa == pytest.approx(0.09844007281325252, abs=1e-12)

    def test_consistency_with_fidelity_and_gamma(self):
        rng = np.random.default_rng(19)
        spins = tuple(random_params(rng) for _ in range(6))
        t = 1.1
        kappas, chis = zip(*(spin_model.lln_exponents(s, t) for s in spins))
        b = fidelity(batch(spins), t)
        assert math.exp(-0.5 * sum(kappas)) == pytest.approx(b, abs=1e-10)
        gam = spin_model.decoherence_factor(batch(spins), t)
        assert math.exp(-sum(chis)) == pytest.approx(abs(gam) ** 2, abs=1e-10)

    def test_divergence_reported_as_infinity(self):
        p = SpinParams(0.0, np.pi / 2, 0.0, 1.0, 1.0)
        kappa, chi = spin_model.lln_exponents(p, np.pi / 2)
        assert kappa == math.inf
        assert chi == math.inf


class TestShortTimeExponents:
    def test_time_zero(self):
        assert spin_model.short_time_exponents(1.0, 0.0) == (0.0, 0.0)

    def test_uniform_coupling_values(self):
        kappa, chi = spin_model.short_time_exponents(1.0 / 3.0, 0.1)
        assert kappa == pytest.approx(0.4 / 3.0 * 0.01, abs=1e-15)
        assert chi == pytest.approx(0.8 / 3.0 * 0.01, abs=1e-15)


class TestTimeScales:
    def test_ratio_identity(self):
        t_b, t_d, ratio_sq = spin_model.time_scales(200, 100, 0.5, 1.0 / 3.0)
        assert ratio_sq == pytest.approx(4.0, abs=1e-14)
        assert (t_b / t_d) ** 2 == pytest.approx(ratio_sq, rel=1e-12)

    def test_broadcast_time_value(self):
        t_b, _, _ = spin_model.time_scales(200, 100, 0.5, 1.0 / 3.0)
        assert t_b == pytest.approx(math.sqrt(5.0 * math.log(100) * 3.0 / 100.0), abs=1e-14)
        assert t_b == pytest.approx(0.8311290681345551, abs=1e-12)

    def test_unobserved_count_enters_decoherence_time(self):
        _, t_d_half, _ = spin_model.time_scales(400, 100, 0.5, 1.0 / 3.0)
        _, t_d_all, _ = spin_model.time_scales(400, 100, 0.0, 1.0 / 3.0)
        # f = 0 leaves the whole environment unobserved: faster decoherence
        assert t_d_all == pytest.approx(t_d_half / math.sqrt(2.0), rel=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="n_mac"):
            spin_model.time_scales(10, 1, 0.0, 1.0)
        with pytest.raises(ValueError, match="f must"):
            spin_model.time_scales(10, 5, 1.0, 1.0)


EDGE_NODES = [(lam, beta) for lam in (0.0, 0.5, 1.0) for beta in (0.0, math.pi / 2, math.pi)]
EDGE_TIMES = (0.0, 0.7, math.pi / 2, 3.0)
# spin-by-spin references run over this many leading spins (63-spin period of the pattern)
CHECKED_SPINS = 1000


def edge_bath(n=10_000, seed=30):
    """n spins cycling through the lam x beta edge nodes; every 7th has g = 0."""
    rng = np.random.default_rng(seed)
    lam, beta = np.array([EDGE_NODES[j % len(EDGE_NODES)] for j in range(n)]).T
    g = rng.uniform(0.0, 1.0, n)
    g[::7] = 0.0
    return SpinParams(rng.uniform(0, 2 * np.pi, n), beta, rng.uniform(0, 2 * np.pi, n), lam, g)


def rows_of(record, width):
    """The record's spins regrouped into rows of `width` spins."""
    return SpinParams(*(v.reshape(-1, width) for v in vars(record).values()))


def row_of(record, r):
    """Row r of a two-axis record, as a record of its own."""
    return SpinParams(*(v[r] for v in vars(record).values()))


class TestEdgeCases:
    @pytest.mark.parametrize("t", EDGE_TIMES)
    def test_per_spin_forms_match_spin_by_spin(self, t):
        bath = edge_bath()
        spins = [spin_of(bath, j) for j in range(CHECKED_SPINS)]
        forms = {
            "delta": spin_model.delta,
            "b2 coefficient": lambda p: spin_model.sin2_coefficients(p)[0],
            "gamma coefficient": lambda p: spin_model.sin2_coefficients(p)[1],
            "kappa": lambda p: spin_model.lln_exponents(p, t)[0],
            "chi": lambda p: spin_model.lln_exponents(p, t)[1],
        }
        for name, form in forms.items():
            batched = form(bath)
            assert not np.any(np.isnan(batched)), name
            single = np.array([form(p) for p in spins])
            np.testing.assert_allclose(batched[:CHECKED_SPINS], single, rtol=1e-12, atol=1e-15, err_msg=name)

    @pytest.mark.parametrize("t", EDGE_TIMES)
    def test_products_match_rows_and_spin_by_spin(self, t):
        bath = edge_bath()
        rows = rows_of(bath, 100)
        for form in (spin_model.decoherence_factor, fidelity):
            batched = form(rows, t)
            # each row of a batch is reduced exactly as a record of its own
            np.testing.assert_array_equal(batched, [form(row_of(rows, r), t) for r in range(100)])
            per_spin = np.array([form(batch([spin_of(bath, j)]), t) for j in range(CHECKED_SPINS)])
            expected = np.prod(per_spin.reshape(-1, 100), axis=-1)
            np.testing.assert_allclose(batched[: len(expected)], expected, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("t", EDGE_TIMES)
    def test_ranges_on_a_ten_thousand_spin_bath(self, t):
        bath = edge_bath()
        for record in (bath, rows_of(bath, 100)):
            gamma = spin_model.decoherence_factor(record, t)
            b = fidelity(record, t)
            assert not np.any(np.isnan(gamma)) and not np.any(np.isnan(b))
            # a pointer spin's |gamma_j| = 1 can round to 1 + 2^-52 in the complex log
            assert np.all(np.abs(gamma) <= 1.0 + 1e-12)
            assert np.all((b >= 0.0) & (b <= 1.0))

    def test_exact_one_at_time_zero_and_for_uncoupled_spins(self):
        bath = edge_bath()
        assert spin_model.decoherence_factor(bath, 0.0) == 1.0 + 0.0j
        assert fidelity(bath, 0.0) == 1.0
        assert np.all(np.array(spin_model.lln_exponents(bath, 0.0)) == 0.0)
        uncoupled = SpinParams(*(v[::7] for v in vars(bath).values()))
        for t in EDGE_TIMES:
            assert spin_model.decoherence_factor(uncoupled, t) == 1.0 + 0.0j
            assert fidelity(uncoupled, t) == 1.0

    def test_float_record_squares_as_an_array_record(self):
        # ** 2 on a float calls pow: there the b coefficient rounds to ...964
        # against the array record's ...963
        lam, beta = 0.6746893954347775, 1.0
        one = spin_model.sin2_coefficients(SpinParams(0.0, beta, 0.0, lam, 0.0))
        array = spin_model.sin2_coefficients(SpinParams(0.0, np.full(1, beta), 0.0, np.full(1, lam), 0.0))
        assert one[0] == array[0][0] == -0.08643136381387963
        assert one[1] == array[1][0]
        spin = SpinParams(0.0, beta, 0.0, lam, 0.9)
        for t in EDGE_TIMES:
            assert spin_model.lln_exponents(spin, t) == tuple(e[0] for e in spin_model.lln_exponents(batch([spin]), t))

    def test_exact_zero_on_one_shot_orthogonalization(self):
        bath = edge_bath()
        for lam in (0.0, 1.0):
            # g t = pi/2 turns this pure equatorial spin's branches orthogonal
            shot = SpinParams(0.0, math.pi / 2, 0.0, lam, 1.0)
            record = batch([shot] + [spin_of(bath, j) for j in range(99)])
            assert fidelity(record, math.pi / 2) == 0.0
            rows = batch([record, batch([spin_of(bath, j) for j in range(100)])])
            b = fidelity(rows, math.pi / 2)
            assert b[0] == 0.0 and b[1] > 0.0
