import math
import tracemalloc

import numpy as np
import pytest

from sbskit import ensemble
from sbskit.discrimination import local_success_probability
from sbskit.ensemble import (
    MeasureSpec,
    draw_spin_arrays,
    fig1_node,
    fig2_curves,
    sample_coupling_array,
    sample_rows,
    sample_stream,
    _product_curves,
)
from sbskit.spin_model import SpinParams, delta, lln_exponents, short_time_exponents, sin2_coefficients, sin_gt

# asymptotic two-sided Kolmogorov-Smirnov critical value at the 1% level
KS_CRIT_1PCT = 1.628


# Reference curves: the one-pass full-grid log-sum forms the angle-addition
# kernel replaced, kept verbatim; the kernel agrees with them to KERNEL_ATOL.
def _b_curve(lam, beta, g, t_grid) -> np.ndarray:
    """Macrofraction fidelity over a time grid, log-space product."""
    sin2 = np.sin(np.outer(g, t_grid)) ** 2
    b2 = 1.0 - ((2.0 * lam - 1.0) ** 2 * np.sin(beta) ** 2)[:, None] * sin2
    b2 = np.clip(b2, 0.0, None)
    with np.errstate(divide="ignore"):
        return np.exp(0.5 * np.sum(np.log(b2), axis=0))


def _abs_gamma_curve(lam, beta, g, t_grid) -> np.ndarray:
    """|collective dephasing factor| over a time grid, log-space product."""
    sin2 = np.sin(np.outer(g, t_grid)) ** 2
    g2 = 1.0 + sin2 * (((2.0 * lam - 1.0) ** 2 * np.cos(beta) ** 2) - 1.0)[:, None]
    g2 = np.clip(g2, 0.0, None)
    with np.errstate(divide="ignore"):
        return np.exp(0.5 * np.sum(np.log(g2), axis=0))


# the kernel's sin(g t) comes from the angle-addition identity, summed by a
# BLAS matmul, so it and the reference round differently; the largest
# difference seen is 2.7e-15 (2.66e-15, with and without the matmul)
KERNEL_ATOL = 1e-14


def coefficients(lam, beta):
    return sin2_coefficients(SpinParams(0.0, beta, 0.0, lam, 0.0))


def kernel_curves(lam, beta, g, t, counts):
    """(B, |gamma|) from the kernel over the linspace grid t, each of shape (len(counts), len(t))."""
    return product_curves(g, t, coefficients(lam, beta), counts)


def product_curves(g, t, coeffs, counts):
    """The kernel over the linspace grid t, passed as (t0, dt, n_t)."""
    return _product_curves(g, t[0], (t[-1] - t[0]) / (len(t) - 1), len(t), coeffs, counts)


def node_coefficients(lam_plus, beta):
    """One float per curve, as fig1_node passes them for a node's shared state."""
    return list(coefficients(lam_plus, beta))


def assert_matches_reference(lam, beta, g, t, counts):
    b, gam = kernel_curves(lam, beta, g, t, counts)
    for j, n in enumerate(counts):
        np.testing.assert_allclose(b[j], _b_curve(lam[:n], beta[:n], g[:n], t), rtol=0.0, atol=KERNEL_ATOL)
        np.testing.assert_allclose(gam[j], _abs_gamma_curve(lam[:n], beta[:n], g[:n], t), rtol=0.0, atol=KERNEL_ATOL)
    if np.all(lam == lam[0]) and np.all(beta == beta[0]):
        # every spin in one state: float coefficients give the same bits
        np.testing.assert_array_equal(product_curves(g, t, node_coefficients(lam[0], beta[0]), counts), [b, gam])


def reference_node(lam_plus, beta, n_spins, tau, tau_points, samples, seed):
    """fig1_node's (mean_B, mean_abs_gamma) from the reference curves."""
    t = np.linspace(0.0, tau, tau_points)
    lam, bet = np.full(n_spins, lam_plus), np.full(n_spins, beta)
    means = []
    for curve in (_b_curve, _abs_gamma_curve):
        vals = []
        for i in range(samples):
            g = sample_coupling_array(MeasureSpec(), sample_stream(seed, i, label=1), n_spins)
            vals.append(float(np.trapezoid(curve(lam, bet, g, t), t) / tau))
        means.append(float(np.mean(np.array(vals))))
    return tuple(means)


# grid lengths with full and partial last blocks at offset widths 1, 2, 11
# (fig2's 121 points), 22, 32, 45, 63 and 64 (the cap, from 4096 points on),
# up to the fig1 default
GRID_POINTS = (2, 3, 4, 5, 121, 511, 512, 513, 1025, 2047, 2048, 2049, 4095, 4096, 4097, 40001)
EDGE_NODES = [(lam, beta) for lam in (0.0, 0.5, 1.0) for beta in (0.0, math.pi / 2, math.pi)]


class TestProductCurves:
    @pytest.mark.parametrize("n_t", GRID_POINTS)
    def test_fig1_node_shape_matches_reference(self, n_t):
        rng = np.random.default_rng(n_t)
        g = rng.uniform(0.0, 1.0, 100)
        t = np.linspace(0.0, 200.0, n_t)
        for lam_plus, beta in ((0.7, 1.1), (0.95, 2.9)):
            assert_matches_reference(np.full(100, lam_plus), np.full(100, beta), g, t, [100])

    @pytest.mark.parametrize("n_t", GRID_POINTS)
    def test_per_spin_states_match_reference(self, n_t):
        rng = np.random.default_rng(n_t)
        s = SpinParams(*draw_spin_arrays(MeasureSpec(), rng, 500))
        t = np.linspace(0.0, 1.2, n_t)
        assert_matches_reference(s.lam, s.beta, s.g, t, [30, 50, 200, 500])

    def test_fig2_shape_and_count_order(self):
        rng = np.random.default_rng(4)
        s = SpinParams(*draw_spin_arrays(MeasureSpec(), rng, 500))
        t = np.linspace(0.0, 1.2, 121)
        assert_matches_reference(s.lam, s.beta, s.g, t, [500, 1, 2, 200, 50, 50])
        # the sizes run in increasing order, each multiplying the smaller
        # size's product by factors <= 1: the ordering in n holds exactly
        curves = kernel_curves(s.lam, s.beta, s.g, t, [1, 2, 50, 200, 500])
        assert np.all(curves[:, 1:] <= curves[:, :-1])

    def test_grid_not_starting_at_zero(self):
        rng = np.random.default_rng(12)
        s = SpinParams(*draw_spin_arrays(MeasureSpec(), rng, 200))
        assert_matches_reference(s.lam, s.beta, s.g, np.linspace(0.35, 1.2, 301), [20, 200])

    @pytest.mark.parametrize("lam_plus,beta", EDGE_NODES)
    def test_edge_nodes_match_reference_and_stay_in_range(self, lam_plus, beta):
        rng = np.random.default_rng(5)
        g = rng.uniform(0.0, 1.0, 40)
        g[:3] = 0.0  # sin(g t) = 0 for every t
        t = np.linspace(0.0, 50.0, 3001)  # t = 0 in the first column
        lam, bet = np.full(40, lam_plus), np.full(40, beta)
        assert_matches_reference(lam, bet, g, t, [1, 3, 40])
        curves = kernel_curves(lam, bet, g, t, [1, 3, 40])
        assert np.all(np.isfinite(curves))
        assert np.all((curves >= 0.0) & (curves <= 1.0))
        assert np.all(curves[:, :, 0] == 1.0)
        assert np.all(curves[:, :2] == 1.0)  # only spins with g = 0

    @pytest.mark.parametrize("lam_plus,beta", EDGE_NODES)
    def test_edge_nodes_fig1_node_matches_reference(self, lam_plus, beta):
        args = (lam_plus, beta, 40, 50.0, 3001, 2, 8)
        assert fig1_node(*args)[:2] == pytest.approx(reference_node(*args), rel=0.0, abs=KERNEL_ATOL)

    def test_zero_factor_gives_zero_not_nan(self):
        # lam = 1, beta = pi/2 gives a = -1; on t = 0, pi/2, pi, 3 pi/2 the
        # offset width is 2, and at g = 1 the identity gives sin(g t) = +-1
        # exactly at the two offset points, so the factor 1 + a sin^2 is 0
        g = np.array([1.0, 0.3, 0.0])
        lam, beta = np.ones(3), np.full(3, math.pi / 2)
        assert coefficients(lam, beta)[0][0] == -1.0
        curves = _product_curves(g, 0.0, math.pi / 2, 4, coefficients(lam, beta), [1, 2, 3])
        assert not np.any(np.isnan(curves))
        assert np.all(curves[0, :, 1::2] == 0.0) and np.all(curves[0, :, ::2] > 0.0)
        assert_matches_reference(lam, beta, g, np.linspace(0.0, 1.5 * math.pi, 4), [1, 2, 3])

    def test_factor_clamped_at_zero(self):
        # at this g the identity puts sin(g t) an ulp above 1 at t = 5 (anchor
        # 4, offset 1), so 1 - sin^2 rounds below 0; the clamp keeps the
        # product at 0, where an unclamped sqrt would give NaN
        g = 0.3141592653578698
        s = math.sin(4.0 * g) * math.cos(g) + math.cos(4.0 * g) * math.sin(g)
        assert 1.0 - s * s < 0.0
        b = _product_curves(np.array([g]), 0.0, 1.0, 6, [-1.0], [1])[0, 0]
        assert b[5] == 0.0 and np.all(b[:5] > 0.0)

    @pytest.mark.parametrize("beta", [math.pi / 3, math.pi / 2])
    def test_equal_coefficients_give_equal_curves(self, beta):
        # at lam = 1 these B and |gamma| coefficients are equal, so the
        # kernel computes one and copies it
        b_coeff, gamma_coeff = node_coefficients(1.0, beta)
        assert b_coeff == gamma_coeff
        g = np.random.default_rng(9).uniform(0.0, 1.0, 100)
        t = np.linspace(0.0, 200.0, 1025)
        assert_matches_reference(np.ones(100), np.full(100, beta), g, t, [100])
        b, gam = kernel_curves(np.ones(100), np.full(100, beta), g, t, [100])
        np.testing.assert_array_equal(b, gam)
        args = (1.0, beta, 100, 200.0, 1025, 2, 8)
        mean_b, mean_g, se_b, se_g, rel_b, rel_g = fig1_node(*args)
        assert (mean_b, se_b, rel_b) == (mean_g, se_g, rel_g)
        assert (mean_b, mean_g) == pytest.approx(reference_node(*args), rel=0.0, abs=KERNEL_ATOL)

    def test_repeated_coefficient_array_gives_equal_rows(self):
        rng = np.random.default_rng(10)
        s = SpinParams(*draw_spin_arrays(MeasureSpec(), rng, 200))
        t = np.linspace(0.0, 1.2, 1001)
        b_coeff, gamma_coeff = sin2_coefficients(s)
        once = product_curves(s.g, t, [b_coeff, gamma_coeff], [50, 200])
        twice = product_curves(s.g, t, [b_coeff, gamma_coeff, b_coeff.copy(), gamma_coeff], [50, 200])
        np.testing.assert_array_equal(twice[:2], once)
        np.testing.assert_array_equal(twice[2:], once)

    def test_negligible_coefficients_give_exact_ones(self):
        t = np.linspace(0.0, 200.0, 5001)
        g = np.random.default_rng(6).uniform(0.0, 1.0, 100)
        # lam = 1/2 zeroes every B coefficient; (1, 0) and (1, pi) leave
        # |gamma| coefficients of magnitude <= 2^-54
        for lam_plus, beta, skipped in ((0.5, 1.3, 0), (1.0, 0.0, 1), (1.0, math.pi, 1)):
            lam, bet = np.full(100, lam_plus), np.full(100, beta)
            coeffs = coefficients(lam, bet)
            assert np.max(np.abs(coeffs[skipped])) <= 2.0**-54
            curves = product_curves(g, t, coeffs, [100])
            assert np.all(curves[skipped] == 1.0)
            assert_matches_reference(lam, bet, g, t, [100])
        # a coefficient just above the cutoff is computed, and 1 + a s2 still rounds to 1
        tiny = np.full(100, 2.0**-53)
        np.testing.assert_array_equal(product_curves(g, t, [tiny], [100])[0, 0], np.ones(5001))

    # offset widths 1 (n_t = 2, 3), 2, 11, 22 and 64; an odd block count (3,
    # 5, 121 and 4097 points) leaves a one-block tail at two blocks a chunk,
    # and 121 points leave one at five
    @pytest.mark.parametrize("n_t", [2, 3, 5, 121, 513, 4097])
    def test_chunk_size_changes_no_bit(self, monkeypatch, n_t):
        # the anchor/offset split depends only on n_t, every chunk's matmul
        # has one shape, and each column's product runs over the spins in
        # one order whatever the chunk
        t = np.linspace(0.0, 30.0, n_t)
        for counts in ([1], [2, 1], [7, 300, 40]):
            n_spins = max(counts)
            s = SpinParams(*draw_spin_arrays(MeasureSpec(), np.random.default_rng(11), n_spins))
            coeffs = list(sin2_coefficients(s))
            monkeypatch.undo()  # the default CURVE_BLOCK
            want = product_curves(s.g, t, coeffs, counts)
            for cells in (1, n_spins * 64, 3 * n_spins * 64 + 1, 2**40):
                monkeypatch.setattr(ensemble, "CURVE_BLOCK", cells)
                np.testing.assert_array_equal(product_curves(s.g, t, coeffs, counts), want)

    def test_bath_of_ten_thousand_spins(self):
        t = np.linspace(0.0, 20.0, 401)
        g = sample_coupling_array(MeasureSpec(), sample_stream(3, 0, label=1), 10_000)
        for lam_plus, beta in ((1.0, math.pi / 2), (0.7, 1.1), (0.95, 0.2)):
            lam, bet = np.full(10_000, lam_plus), np.full(10_000, beta)
            curves = kernel_curves(lam, bet, g, t, [10_000])
            assert np.all(np.isfinite(curves)) and np.all((curves >= 0.0) & (curves <= 1.0))
            assert_matches_reference(lam, bet, g, t, [10_000])
        # at (1, pi/2) the B product falls below the smallest normal float
        # (a curve below about 1e-154), and keeps only its absolute size
        lam, bet = np.ones(10_000), np.full(10_000, math.pi / 2)
        b, ref = kernel_curves(lam, bet, g, t, [10_000])[0, 0], _b_curve(lam, bet, g, t)
        deep = (ref > 0.0) & (ref < 1e-154)
        assert np.any(deep) and np.max(np.abs(b - ref)[deep]) < 1e-154
        args = (1.0, math.pi / 2, 10_000, 20.0, 401, 1, 3)
        node = fig1_node(*args)
        assert np.all(np.isfinite(node)) and 0.0 <= node[0] <= 1.0 and 0.0 <= node[1] <= 1.0
        assert node[:2] == pytest.approx(reference_node(*args), rel=0.0, abs=KERNEL_ATOL)

    def test_memory_below_two_full_buffers(self):
        # one call at 20,000 spins x 2,049 points stays below the two
        # (spins, 410) float buffers a 512-point time block took
        g = np.random.default_rng(13).uniform(0.0, 1.0, 20_000)
        tracemalloc.start()
        try:
            _product_curves(g, 0.0, 0.1, 2049, node_coefficients(0.7, 1.1), [20_000])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 20_000 * 410 * 8


class TestMeasureSpec:
    def test_g2bar_uniform(self):
        assert MeasureSpec().g2bar() == pytest.approx(1.0 / 3.0)
        assert MeasureSpec(coupling=(1.0, 2.0)).g2bar() == pytest.approx(7.0 / 3.0)

    def test_g2bar_fixed(self):
        assert MeasureSpec(coupling=0.5).g2bar() == pytest.approx(0.25)

    def test_validation(self):
        with pytest.raises(ValueError, match="beta"):
            MeasureSpec(angles=(0.0, 9.0, 0.0))
        with pytest.raises(ValueError, match="a < b"):
            MeasureSpec(coupling=(1.0, 1.0))
        with pytest.raises(ValueError, match="lam"):
            MeasureSpec(lam=1.5)
        # every fixed angle is checked, since sampling builds a validated record
        with pytest.raises(ValueError, match="alpha"):
            MeasureSpec(angles=(7.0, 0.3, 0.0))


class TestSampling:
    def test_fixed_measure_returns_constants(self):
        measure = MeasureSpec(angles=(0.2, 0.3, 0.4), lam=0.6, coupling=0.9)
        spin = SpinParams(*draw_spin_arrays(measure, sample_stream(1, 0, 0), 1))
        assert tuple(float(v[0]) for v in vars(spin).values()) == (
            0.2,
            0.3,
            0.4,
            0.6,
            0.9,
        )

    def test_invariant_angle_moments(self):
        rng = sample_stream(7, 0, 0)
        s = SpinParams(*draw_spin_arrays(MeasureSpec(), rng, 20_000))
        assert np.mean(np.sin(s.beta) ** 2) == pytest.approx(2.0 / 3.0, abs=0.02)
        assert np.mean(np.cos(s.beta) ** 2) == pytest.approx(1.0 / 3.0, abs=0.02)
        assert np.mean((2 * s.lam - 1) ** 2) == pytest.approx(0.6, abs=0.02)

    def test_ks_distance_beta(self):
        n = 100_000
        rng = sample_stream(11, 0, 0)
        beta = SpinParams(*draw_spin_arrays(MeasureSpec(), rng, n)).beta
        # CDF of the invariant angle measure: (1 - cos beta) / 2
        grid = np.sort(beta)
        cdf = 0.5 * (1.0 - np.cos(grid))
        empirical = np.arange(1, n + 1) / n
        ks = np.max(
            np.maximum(np.abs(empirical - cdf), np.abs(empirical - 1.0 / n - cdf))
        )
        assert ks < KS_CRIT_1PCT / math.sqrt(n)

    def test_ks_distance_lambda(self):
        n = 100_000
        rng = sample_stream(13, 0, 0)
        lam = SpinParams(*draw_spin_arrays(MeasureSpec(), rng, n)).lam
        grid = np.sort(lam)
        cdf = 0.5 * ((2.0 * grid - 1.0) ** 3 + 1.0)
        empirical = np.arange(1, n + 1) / n
        ks = np.max(
            np.maximum(np.abs(empirical - cdf), np.abs(empirical - 1.0 / n - cdf))
        )
        assert ks < KS_CRIT_1PCT / math.sqrt(n)

    def test_streams_independent_of_consumption_order(self):
        measure = MeasureSpec()
        a = SpinParams(*draw_spin_arrays(measure, sample_stream(3, 5, 0), 10))
        b = SpinParams(*draw_spin_arrays(measure, sample_stream(3, 5, 0), 10))
        for x, y in zip(vars(a).values(), vars(b).values()):
            np.testing.assert_array_equal(x, y)


class TestSampleRows:
    @staticmethod
    def draw(rng):
        """A float matrix, a complex vector and a float, in that order."""
        return rng.normal(size=(2, 3)), rng.normal(size=4) + 1j * rng.normal(size=4), rng.uniform(0.0, 1.0)

    def test_rows_are_direct_draws_on_their_own_streams(self):
        indices = np.random.default_rng(5).permutation(40)[:17].tolist()
        out = sample_rows(9, 23, indices, self.draw)
        assert [column.shape for column in out] == [(17, 2, 3), (17, 4), (17,)]
        for b, i in enumerate(indices):
            for column, want in zip(out, self.draw(sample_stream(9, i, label=23))):
                assert np.array_equal(column[b], want)

    def test_dtypes_are_kept(self):
        matrix, vector, value = sample_rows(9, 23, range(3), self.draw)
        assert (matrix.dtype, vector.dtype, value.dtype) == (np.float64, np.complex128, np.float64)
        assert np.all(vector.imag != 0.0)

    def test_single_index(self):
        (value,) = sample_rows(4, 1, [6], lambda rng: (rng.uniform(0.0, 1.0),))
        assert value.shape == (1,)
        assert value[0] == sample_stream(4, 6, label=1).uniform(0.0, 1.0)


class TestTimeAverage:
    """The trapezoidal time average fig1_node takes of each curve."""

    def test_constant(self):
        # lam = 1/2 makes B identically 1
        assert fig1_node(0.5, 1.0, 3, 5.0, 101, samples=2, seed=1)[0] == pytest.approx(1.0)

    def test_rectified_cosine(self):
        # one spin at g = 1, lam = 1/2: |gamma(t)| = |cos t|, and
        # (1/tau) int_0^{8 pi} |cos t| dt = 2 / pi
        got = fig1_node(0.5, 0.0, 1, 8 * np.pi, 20001, samples=1, seed=1, measure=MeasureSpec(coupling=1.0))[1]
        assert got == pytest.approx(2.0 / np.pi, abs=1e-5)


class TestFig1Node:
    def test_maximally_mixed_row_is_exactly_one(self):
        mean_b, _, se_b, _, rel_b, _ = fig1_node(
            0.5, 1.3, 20, 50.0, 2001, samples=4, seed=5
        )
        assert mean_b == 1.0 and se_b == 0.0 and rel_b == 0.0

    def test_pointer_ridge_keeps_gamma_one(self):
        _, mean_g, _, se_g, _, rel_g = fig1_node(
            1.0, 0.0, 20, 50.0, 2001, samples=4, seed=5
        )
        assert mean_g == pytest.approx(1.0, abs=1e-9)
        assert se_g == pytest.approx(0.0, abs=1e-12)

    def test_thread_invariant(self):
        args = (0.8, 1.2, 100, 200.0, 40001)
        one = fig1_node(*args, samples=3, seed=21, threads=1)
        two = fig1_node(*args, samples=3, seed=21, threads=2)
        assert one == two

    def test_orthogonal_node_is_small(self):
        mean_b, mean_g, _, _, _, _ = fig1_node(
            1.0, np.pi / 2, 100, 100.0, 8001, samples=4, seed=5
        )
        assert mean_b < 0.05
        assert mean_g < 0.05


class TestFig2Curves:
    def make_config(self, **over):
        kw = dict(t=np.linspace(0.0, 1.0, 41), samples=40, seed=99, measure=MeasureSpec())
        kw.update(over)
        return kw

    def test_curves_start_at_two(self):
        mean, stderr = fig2_curves([10, 20], **self.make_config())
        for n in range(2):
            assert mean[n, 0] == pytest.approx(2.0, abs=1e-14)
            assert stderr[n, 0] == pytest.approx(0.0, abs=1e-14)

    def test_nested_sampling_orders_curves_pointwise(self):
        mean, _ = fig2_curves([10, 30, 60], **self.make_config())
        assert np.all(mean[0] >= mean[1] - 1e-12)
        assert np.all(mean[1] >= mean[2] - 1e-12)

    def test_deterministic_and_thread_invariant(self):
        a, _ = fig2_curves([15], **self.make_config())
        b, _ = fig2_curves([15], **self.make_config())
        np.testing.assert_array_equal(a, b)
        c, _ = fig2_curves([15], **self.make_config(threads=3))
        np.testing.assert_array_equal(a, c)
        d, _ = fig2_curves([15], **self.make_config(seed=100))
        assert np.any(a != d)

    def test_nonpositive_size_rejected(self, tmp_path, monkeypatch):
        # fig2_curves takes checked sizes; the fig2 config check rejects a
        # size < 1 before fig2_curves runs or any output is written
        from sbskit import cli

        def never_called(*args, **kwargs):
            raise AssertionError("fig2_curves ran on an unchecked size")

        monkeypatch.setattr(cli, "fig2_curves", never_called)
        config = cli.load_config(None)
        config["fig2"]["n_values"] = [0, 5]
        with pytest.raises(cli.ConfigError, match=r"^fig2\.n_values: .*integers from 1 to"):
            cli.run_scenario("fig2", config, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_curve_lengths(self):
        mean, stderr = fig2_curves([5, 2, 5], **self.make_config(t=np.linspace(0.0, 1.0, 17)))
        assert mean.shape == stderr.shape == (3, 17)
        # row j is the curve of n_values[j], a repeated size included
        np.testing.assert_array_equal(mean[0], mean[2])
        assert np.all(mean[1] >= mean[0] - 1e-12)


class TestExponentCheck:
    """Monte Carlo means of the per-spin exponents vs their small-t forms."""

    def exponent_means(self, t, samples, seed):
        kappa, chi = lln_exponents(SpinParams(*draw_spin_arrays(MeasureSpec(), sample_stream(seed, 0, label=3), samples)), t)
        return float(np.mean(kappa)), float(np.mean(chi)), short_time_exponents(MeasureSpec().g2bar(), t)

    def test_zero_time_rows(self):
        kappa_mc, chi_mc, (kappa_short, _) = self.exponent_means(0.0, 50, 2)
        assert kappa_mc == 0.0
        assert chi_mc == 0.0
        assert kappa_short == 0.0

    def test_short_time_ratios(self):
        kappa_mc, chi_mc, (kappa_short, chi_short) = self.exponent_means(0.05, 20_000, 3)
        assert kappa_mc / kappa_short == pytest.approx(1.0, abs=0.05)
        assert chi_mc / chi_short == pytest.approx(1.0, abs=0.05)


class TestMonteCarloScaling:
    def test_stderr_shrinks_as_root_n(self):
        def stderr(samples):
            spins = SpinParams(*draw_spin_arrays(MeasureSpec(), sample_stream(17, 0, label=4), samples))
            vals = local_success_probability(np.abs(delta(spins)), sin_gt(spins, 0.9))
            return np.std(vals, ddof=1) / math.sqrt(samples)

        ratio = stderr(400) / stderr(1600)
        assert abs(ratio - 2.0) < 0.4  # within 20% of the root-N factor

