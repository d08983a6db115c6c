import math

import numpy as np
import pytest

from sbskit import densmat
from sbskit.sbs_core import (
    CentralState,
    ProjectorFamily,
    barnum_knill_bound,
    build_sbs,
    collective_gamma,
    cor1_eta,
    cor2_bound,
    discrimination_error,
    mutual_information,
    prop1_bound,
)

KET0 = np.diag([1.0 + 0.0j, 0.0j])
KET1 = np.diag([0.0j, 1.0 + 0.0j])
EYE = np.eye(2, dtype=complex)


def pair(diag, off):
    """Symmetric 2 x 2 array with diag on the diagonal and off off it."""
    return np.array([[diag, off], [off, diag]])


def diagonal_central(*sigma):
    return CentralState(np.diag(sigma))


def pessimistic_qubit():
    return CentralState(np.full((2, 2), 0.5))


class TestCentralState:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum"):
            diagonal_central(0.6, 0.6)

    def test_excess_coherence_rejected(self):
        # |sigma_01| > sqrt(sigma_0 sigma_1) breaks positivity
        with pytest.raises(ValueError, match="negative eigenvalue"):
            CentralState(np.array([[0.9, 0.5], [0.5, 0.1]]))

    @pytest.mark.parametrize("w", [0.5, 2e-10])
    def test_negative_weight_rejected(self, w):
        # a diagonal entry is never below the smallest eigenvalue, so the
        # state check rejects a negative pointer weight at its own tolerance
        with pytest.raises(ValueError, match="negative eigenvalue"):
            diagonal_central(1.0 + w, -w)

    def test_weight_within_tolerance_accepted(self):
        assert diagonal_central(1.0 + 5e-11, -5e-11).sigma[1] == -5e-11

    def test_non_hermitian_matrix_rejected(self):
        # sigma_10 must be the conjugate of sigma_01
        with pytest.raises(ValueError, match="not Hermitian"):
            CentralState(np.array([[0.5, 0.2 + 0.1j], [0.2 + 0.1j, 0.5]]))

    def test_stored_read_only_with_real_weights(self):
        rho = np.array([[0.5, 0.2 + 0.1j], [0.2 - 0.1j, 0.5]])
        c = CentralState(rho)
        rho[0, 1] = 0.0  # the record keeps its own copy
        assert c.rho[0, 1] == 0.2 + 0.1j
        assert c.sigma.dtype == float and list(c.sigma) == [0.5, 0.5]
        with pytest.raises(ValueError, match="read-only"):
            c.rho[0, 0] = 1.0

    def test_shannon_entropy(self):
        c = diagonal_central(0.75, 0.25)
        assert c.shannon_entropy() == pytest.approx(0.8112781244591328, abs=1e-12)

    def test_stack_of_states(self):
        rhos = np.array([np.diag([0.75, 0.25]), np.full((2, 2), 0.5), np.diag([1.0, 0.0])])
        block = CentralState(rhos)
        assert block.d_s == 2 and block.sigma.shape == (3, 2)
        np.testing.assert_array_equal(block.shannon_entropy(), [CentralState(r).shannon_entropy() for r in rhos])
        # one bad matrix rejects the stack
        with pytest.raises(ValueError, match="negative eigenvalue"):
            CentralState(np.concatenate([rhos, [[[0.9, 0.5], [0.5, 0.1]]]]))
        with pytest.raises(ValueError, match="sum"):
            CentralState(np.concatenate([rhos, [np.diag([0.6, 0.6])]]))


class TestCollectiveGamma:
    def test_diagonal_central_state(self):
        c = diagonal_central(0.3, 0.7)
        assert collective_gamma(c, pair(1.0, 0.9)) == 0.0

    def test_two_term_sum(self):
        assert collective_gamma(pessimistic_qubit(), pair(1.0, 0.3)) == pytest.approx(0.3)

    def test_pessimistic_initial_value(self):
        assert collective_gamma(pessimistic_qubit(), pair(1.0, 1.0)) == pytest.approx(1.0)

    def test_diagonal_ignored(self):
        # only pairs i != j carry coherence weight
        assert collective_gamma(pessimistic_qubit(), pair(0.0, 0.3)) == pytest.approx(0.3)

    def test_magnitude_outside_unit_interval_rejected(self):
        for bad in (1.5, np.nan):
            with pytest.raises(ValueError, match="outside"):
                collective_gamma(pessimistic_qubit(), pair(1.0, bad))


class TestDiscriminationError:
    def test_orthogonal_supports(self):
        assert discrimination_error([0.5, 0.5], [KET0, KET1], [KET0, KET1]) == pytest.approx(
            0.0, abs=1e-14
        )

    def test_indistinguishable_states(self):
        rho = EYE / 2
        assert discrimination_error([0.5, 0.5], [rho, rho], [KET0, KET1]) == pytest.approx(0.5)

    def test_worst_measurement(self):
        assert discrimination_error([0.7, 0.3], [KET0, KET1], [KET1, KET0]) == pytest.approx(1.0)

    def test_incomplete_family_rejected(self):
        with pytest.raises(ValueError, match="identity"):
            discrimination_error([0.5, 0.5], [KET0, KET1], [KET0, KET0])


class TestBuildSbs:
    def test_supports_already_contained(self):
        central = diagonal_central(0.4, 0.6)
        branches = ((KET0, KET1),)
        family = ProjectorFamily(((KET0, KET1),))
        sbs = build_sbs(central, branches, family)
        assert sbs.weights == pytest.approx((0.4, 0.6))
        assert sbs.eta_norm == pytest.approx(1.0)
        np.testing.assert_allclose(sbs.states[0][0], KET0, atol=1e-14)

    def test_renormalization_arithmetic(self):
        # success probabilities (0.9, 0.6) at equal weights -> (0.6, 0.4)
        central = diagonal_central(0.5, 0.5)
        rho_0 = np.diag([0.9, 0.1]).astype(complex)
        rho_1 = np.diag([0.4, 0.6]).astype(complex)
        branches = ((rho_0, rho_1),)
        family = ProjectorFamily(((KET0, KET1),))
        sbs = build_sbs(central, branches, family)
        assert sbs.weights == pytest.approx((0.6, 0.4))
        assert sbs.eta_norm == pytest.approx(0.75)

    def test_block_diagonal_valid_state(self):
        rng = np.random.default_rng(55)
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rho_0 = g @ g.conj().T
        rho_0 /= np.trace(rho_0).real
        rho_1 = EYE / 2
        central = CentralState(pair(0.5, 0.25))
        branches = ((rho_0, rho_1),)
        family = ProjectorFamily(((KET0, KET1),))
        m = build_sbs(central, branches, family).to_matrix()
        densmat.check_density_matrix(m)
        # exactly block-diagonal across the pointer index
        np.testing.assert_allclose(m[:2, 2:], 0.0, atol=1e-14)

    def test_degenerate_family_reported(self):
        central = diagonal_central(0.5, 0.5)
        branches = ((KET0, KET1),)
        family = ProjectorFamily(((KET1, KET0),))  # orthogonal to both branches
        sbs = build_sbs(central, branches, family)
        assert sbs.degenerate and sbs.eta_norm == 0.0
        assert not np.any(sbs.weights) and not np.any(sbs.to_matrix())


class TestBounds:
    def test_prop1_bound_values(self):
        assert prop1_bound(0.0, []) == 0.0
        assert prop1_bound(0.1, [0.05, 0.02]) == pytest.approx(0.17)

    def test_barnum_knill_orthogonal(self):
        assert barnum_knill_bound([0.5, 0.5], pair(1.0, 0.0)) == 0.0

    def test_barnum_knill_identical(self):
        assert barnum_knill_bound([0.5, 0.5], pair(1.0, 1.0)) == pytest.approx(1.0)

    def test_cor1_eta_zero(self):
        c = diagonal_central(0.5, 0.5)
        assert cor1_eta(c, 0.0, np.array([pair(1.0, 0.0)])) == 0.0

    def test_cor1_eta_pessimistic_is_gamma_plus_b(self):
        # sigma_+- = 1/2, one observed macrofraction: eta = |gamma| + B
        gamma_mag, b = 0.37, 0.62
        got = cor1_eta(pessimistic_qubit(), collective_gamma(pessimistic_qubit(), pair(1.0, gamma_mag)), np.array([pair(1.0, b)]))
        assert got == pytest.approx(gamma_mag + b, abs=1e-12)

    def test_cor1_eta_sums_environments(self):
        # eta adds the pairwise-fidelity bound of the fidelities summed over k
        fids = np.array([pair(1.0, 0.2), pair(1.0, 0.3)])
        assert cor1_eta(pessimistic_qubit(), 0.1, fids) == pytest.approx(0.1 + barnum_knill_bound([0.5, 0.5], pair(2.0, 0.5)))


def scalar_cor2(x: float, d_s: int):
    """cor2_bound of one float through math.log2, term by term."""
    def h(v):
        return 0.0 if v in (0.0, 1.0) else float(-v * math.log2(v) - (1.0 - v) * math.log2(1.0 - v))

    if x > 0.5:
        return math.inf, False
    return 4.0 * h(2.0 * x) + 2.0 * h(x) + 10.0 * x * math.log2(d_s), x <= 0.25


class TestEntropyBounds:
    def test_binary_entropy_values(self):
        # the binary entropy h(x) of cor2_bound is entropy_bits of [x, 1 - x]
        def h(x):
            return densmat.entropy_bits(np.array([x, 1.0 - x]), 0.0)

        assert h(0.0) == 0.0
        assert h(1.0) == 0.0
        assert h(0.5) == pytest.approx(1.0)
        assert h(0.25) == pytest.approx(0.8112781244591328, abs=1e-12)
        # F(x) = 4 h(2x) + 2 h(x) on d_S = 1, where the dimension term vanishes
        assert cor2_bound(0.0, 1)[0] == 0.0
        assert cor2_bound(0.5, 1)[0] == pytest.approx(2.0)
        assert cor2_bound(0.25, 1)[0] == pytest.approx(4.0 + 2.0 * 0.8112781244591328, abs=1e-12)

    def test_cor2_rejects_negative_and_nan(self):
        for bad in (-0.1, math.nan, np.array([0.1, math.nan]), np.array([[0.2], [-1e-300]])):
            with pytest.raises(ValueError, match=">= 0"):
                cor2_bound(bad, 2)

    def test_cor2_array_matches_scalar_reference(self):
        rng = np.random.default_rng(41)
        special = [0.0, 0.25, 0.5, 0.5 + 2.0**-53, 0.75, 1.0, 3.0]
        x = np.concatenate([special, rng.uniform(0.0, 0.5, 2000), rng.uniform(0.0, 1e-6, 100)]).reshape(-1, 7)
        for d_s in (2, 3):
            bound, valid = cor2_bound(x, d_s)
            assert bound.shape == valid.shape == x.shape
            want = np.array([scalar_cor2(float(v), d_s) for v in x.flat], dtype=float).reshape(x.shape + (2,))
            assert np.array_equal(valid, want[..., 1] == 1.0)
            exact = np.isin(x, [0.0, 0.25, 0.5]) | (x > 0.5)
            assert np.array_equal(bound[exact], want[..., 0][exact])
            assert np.all(bound[x > 0.5] == math.inf)
            got, ref = bound[~exact], want[..., 0][~exact]
            assert np.max(np.abs(got - ref) / ref) <= 1e-15

    def test_cor2_bound_values(self):
        assert cor2_bound(0.0, 2) == (0.0, True)
        bound, valid = cor2_bound(0.25, 2)
        # 4 h(1/2) + 2 h(1/4) + 10 * 0.25 * log2(2)
        assert bound == pytest.approx(8.122556248918266, abs=1e-9)
        assert valid

    def test_cor2_validity_flag(self):
        assert cor2_bound(0.3, 2)[1].item() is False
        assert cor2_bound(0.75, 2) == (math.inf, False)

    def test_cor2_monotone_on_validity_range(self):
        xs = np.arange(0.0, 0.25 + 1e-12, 1e-3)
        vals = [cor2_bound(float(x), 2)[0] for x in xs]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestMutualInformation:
    def test_product_state(self):
        rho = densmat.tensor(np.diag([0.3, 0.7]), EYE / 2)
        assert mutual_information(rho, [2, 2]) == pytest.approx(0.0, abs=1e-10)

    def test_perfect_broadcast_one_bit(self):
        rho = 0.5 * densmat.tensor(KET0, KET0) + 0.5 * densmat.tensor(KET1, KET1)
        assert mutual_information(rho, [2, 2]) == pytest.approx(1.0, abs=1e-10)

    def test_bell_state_two_bits(self):
        psi = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)
        rho = np.outer(psi, psi).astype(complex)
        assert mutual_information(rho, [2, 2]) == pytest.approx(2.0, abs=1e-10)

    def test_nonnegative_on_random_states(self):
        rng = np.random.default_rng(77)
        for _ in range(30):
            g = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
            rho = g @ g.conj().T
            rho /= np.trace(rho).real
            assert mutual_information(rho, [2, 2, 2]) > -1e-9

    def test_split_validation(self):
        with pytest.raises(ValueError, match="split"):
            mutual_information(np.eye(2) / 2, [2])

