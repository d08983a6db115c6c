import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from sbskit import densmat
from sbskit.discrimination import (
    chernoff_bound,
    helstrom_pair,
    helstrom_spin_analytic,
    kolmogorov_fuchs,
    local_success_probability,
    majority_success_heterogeneous,
)
from sbskit.ensemble import MeasureSpec, draw_spin_arrays, sample_stream
from sbskit.oracle import branch_state
from sbskit.spin_model import SpinParams, delta, sin_gt


def success(p, t):
    """Local success probability of record p at time t, from |delta| and sin(g t)."""
    return local_success_probability(np.abs(delta(p)), sin_gt(p, t))


def evolved_branch_states(p, t):
    """Branch states (rho_plus, rho_minus) by explicit matrix evolution."""
    return branch_state(p, 0, 0, t, 2), branch_state(p, 1, 1, t, 2)


def mean_success(measure, t, samples, seed):
    """(p_bar, s_bar, stderr) of the local success probability over sampled spins."""
    vals = success(SpinParams(*draw_spin_arrays(measure, sample_stream(seed, 0, label=4), samples)), t)
    p_bar = float(np.mean(vals))
    return p_bar, p_bar - 0.5, float(np.std(vals, ddof=1) / math.sqrt(samples))


def random_qubit_state(rng):
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def achieved_error(family, rho_plus, rho_minus):
    p_plus, p_minus = family
    return 0.5 * float(np.real(np.trace(rho_minus @ p_plus) + np.trace(rho_plus @ p_minus)))


def binomial_tail(n, p):
    """The strict-majority tail of n trials of equal probability p, from the DP."""
    return float(majority_success_heterogeneous(np.full(n, p)))


def exact_tail(n, p):
    """P[X > n / 2] for X ~ Binomial(n, p) as an exact Fraction, p a Fraction
    or a float (every float is a dyadic rational), in big-integer arithmetic."""
    p = Fraction(p)
    a, b = p.numerator, p.denominator - p.numerator
    if a == 0:
        return Fraction(0)
    # C(n, k) a^k b^(n - k) from k = n down to the majority; every step divides exactly
    term = total = a**n
    for k in range(n, n // 2 + 1, -1):
        term = term * k * b // ((n - k + 1) * a)
        total += term
    return Fraction(total, p.denominator**n)


def enumerate_majority(probs):
    """Brute-force strict-majority probability over all outcome strings."""
    n = len(probs)
    total = 0.0
    for outcome in itertools.product((0, 1), repeat=n):
        if sum(outcome) > n / 2:
            prob = 1.0
            for o, p in zip(outcome, probs):
                prob *= p if o else (1.0 - p)
            total += prob
    return total


class TestHelstromPair:
    def test_orthogonal_pure(self):
        family = helstrom_pair(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        np.testing.assert_allclose(family[0], np.diag([1.0, 0.0]), atol=1e-12)
        assert achieved_error(family, np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_identical_states_degenerate(self):
        rho = np.eye(2) / 2
        family = helstrom_pair(rho, rho)
        # no eigenvalue of the difference is positive, so P_plus is exactly 0
        assert np.all(family[0] == 0.0)
        np.testing.assert_array_equal(family[1], np.eye(2))
        assert achieved_error(family, rho, rho) == pytest.approx(0.5, abs=1e-12)

    def test_optimality_identity_1000_pairs(self):
        rng = np.random.default_rng(101)
        for _ in range(1000):
            rho_p, rho_m = random_qubit_state(rng), random_qubit_state(rng)
            err = achieved_error(helstrom_pair(rho_p, rho_m), rho_p, rho_m)
            t_norm = densmat.trace_norm(rho_p - rho_m)
            assert abs(err - 0.5 * (1.0 - 0.5 * t_norm)) < 1e-10

    def test_output_is_projective_and_complete(self):
        rng = np.random.default_rng(102)
        for _ in range(50):
            family = helstrom_pair(random_qubit_state(rng), random_qubit_state(rng))
            for p in family:
                assert np.max(np.abs(p @ p - p)) < 1e-10
            assert np.max(np.abs(family[0] + family[1] - np.eye(2))) < 1e-12

    def test_weighted_variant_optimal_for_priors(self):
        rng = np.random.default_rng(103)
        for _ in range(200):
            rho_p, rho_m = random_qubit_state(rng), random_qubit_state(rng)
            w = rng.uniform(0, 1)
            p_plus, p_minus = helstrom_pair(rho_p, rho_m, weights=(w, 1 - w))
            err = float(np.real(w * np.trace(rho_p @ p_minus) + (1 - w) * np.trace(rho_m @ p_plus)))
            optimal = 0.5 * (1.0 - densmat.trace_norm(w * rho_p - (1 - w) * rho_m))
            assert abs(err - optimal) < 1e-10


class TestHelstromSpinAnalytic:
    def test_perfect_discrimination(self):
        p = SpinParams(0.0, np.pi / 2, 0.0, 1.0, 1.0)
        t = np.pi / 2
        family, degenerate = helstrom_spin_analytic(p, t)
        assert not degenerate
        # rank-1 projectors
        assert np.linalg.matrix_rank(family[0]) == 1
        rho_p, rho_m = evolved_branch_states(p, t)
        assert achieved_error(family, rho_p, rho_m) == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_fallback(self):
        family, degenerate = helstrom_spin_analytic(SpinParams(0.0, 0.0, 0.0, 1.0, 1.0), 0.7)
        assert degenerate
        np.testing.assert_allclose(family[0], np.diag([1.0, 0.0]), atol=1e-14)
        assert helstrom_spin_analytic(SpinParams(0.0, np.pi / 2, 0.0, 1.0, 1.0), np.pi)[1]

    def test_agreement_with_numeric_helstrom(self):
        rng = np.random.default_rng(104)
        count = 0
        while count < 200:
            p = SpinParams(
                rng.uniform(0, 2 * np.pi),
                rng.uniform(0.1, np.pi - 0.1),
                rng.uniform(0, 2 * np.pi),
                rng.uniform(0, 0.45),
                rng.uniform(0.1, 1),
            )
            t = rng.uniform(0.1, 6)
            analytic, degenerate = helstrom_spin_analytic(p, t)
            if degenerate:
                continue
            numeric = helstrom_pair(*evolved_branch_states(p, t))
            assert np.max(np.abs(analytic[0] - numeric[0])) < 1e-10
            count += 1


class TestLocalSuccessProbability:
    def test_pointer_eigenstate_uninformative(self):
        p = SpinParams(0.3, 0.0, 0.1, 0.9, 1.0)
        for t in (0.0, 0.8, 3.0):
            assert success(p, t) == pytest.approx(0.5, abs=1e-14)

    def test_perfect_case(self):
        p = SpinParams(0.0, np.pi / 2, 0.0, 1.0, 1.0)
        assert success(p, np.pi / 2) == pytest.approx(1.0, abs=1e-14)

    def test_matches_matrix_trace(self):
        p = SpinParams(0.0, np.pi / 3, 0.0, 0.75, 1.0)
        t = np.pi / 8
        p_plus, p_minus = helstrom_spin_analytic(p, t)[0]
        rho_p, rho_m = evolved_branch_states(p, t)
        formula = success(p, t)
        assert abs(float(np.real(np.trace(p_plus @ rho_p))) - formula) < 1e-12
        assert abs(float(np.real(np.trace(p_minus @ rho_m))) - formula) < 1e-12

    def test_negative_time_rejected(self):
        p = SpinParams(0.3, 1.0, 0.1, 0.9, 1.0)
        for t in (-1.0, np.array([0.5, -1.0])):
            with pytest.raises(ValueError, match="t must be >= 0"):
                success(p, t)
            with pytest.raises(ValueError, match="t must be >= 0"):
                helstrom_spin_analytic(p, t)

    def test_time_zero_uninformative(self):
        p = SpinParams(0.3, 1.0, 0.1, 0.9, 1.0)
        assert success(p, 0.0) == 0.5
        assert helstrom_spin_analytic(p, 0.0)[1]

    def test_never_below_half(self):
        rng = np.random.default_rng(105)
        for _ in range(200):
            p = SpinParams(
                rng.uniform(0, 2 * np.pi),
                rng.uniform(0, np.pi),
                rng.uniform(0, 2 * np.pi),
                rng.uniform(0, 1),
                rng.uniform(0, 1),
            )
            val = success(p, rng.uniform(0, 10))
            assert 0.5 <= val <= 1.0 + 1e-12


class TestMeanSuccess:
    def test_degenerate_fixed_measure(self):
        measure = MeasureSpec(angles=(0.0, 0.0, 0.0), lam=1.0, coupling=1.0)
        p_bar, s_bar, stderr = mean_success(measure, 0.9, samples=10, seed=1)
        assert p_bar == 0.5 and s_bar == 0.0 and stderr == 0.0

    def test_perfect_fixed_measure(self):
        measure = MeasureSpec(angles=(0.0, np.pi / 2, 0.0), lam=1.0, coupling=1.0)
        p_bar, s_bar, _ = mean_success(measure, np.pi / 2, samples=10, seed=1)
        assert p_bar == pytest.approx(1.0, abs=1e-14)
        assert s_bar == pytest.approx(0.5, abs=1e-14)

    def test_deterministic_given_seed(self):
        measure = MeasureSpec()
        a = mean_success(measure, 0.7, samples=500, seed=42)
        b = mean_success(measure, 0.7, samples=500, seed=42)
        assert a == b
        c = mean_success(measure, 0.7, samples=500, seed=43)
        assert a != c


class TestMajoritySuccess:
    """The binomial tail: the DP with every probability equal."""

    def test_certain_success(self):
        assert binomial_tail(3, 1.0) == 1.0

    def test_three_coin_flips(self):
        # enumeration over the 8 outcomes gives 3/8 + 1/8 = 1/2
        assert enumerate_majority([0.5] * 3) == pytest.approx(0.5, abs=1e-15)
        assert binomial_tail(3, 0.5) == 0.5

    def test_against_enumeration(self):
        rng = np.random.default_rng(106)
        for n in (1, 2, 4, 5, 9):
            p = float(rng.uniform(0, 1))
            assert binomial_tail(n, p) == pytest.approx(enumerate_majority([p] * n), abs=1e-12)

    def test_ties_count_as_failure(self):
        # n = 2 requires both successes
        assert binomial_tail(2, 0.7) == pytest.approx(0.49, abs=1e-12)

    def test_monotone_in_p(self):
        vals = majority_success_heterogeneous(np.repeat(np.linspace(0.0, 1.0, 21)[:, None], 101, axis=-1))
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_monotone_in_n_odd(self):
        vals = [binomial_tail(n, 0.7) for n in (3, 5, 11, 101, 1001)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_large_n_against_exact_integer_arithmetic(self):
        # p = 1/2, even n: by symmetry the strict tail is (2^n - C(n, n/2)) / 2
        for n in (1000, 10_000):
            exact = Fraction(2**n - math.comb(n, n // 2), 2 ** (n + 1))
            assert exact_tail(n, 0.5) == exact
            assert binomial_tail(n, 0.5) == pytest.approx(float(exact), rel=1e-13)
        # 1.8e-15, 1.8e-14 and 1.9e-15 relative were seen
        for n, p in ((1001, Fraction(4, 5)), (10_000, Fraction(4, 5)), (10_000, Fraction(99, 100))):
            assert binomial_tail(n, float(p)) == pytest.approx(float(exact_tail(n, p)), rel=1e-13)


class TestMajorityHeterogeneous:
    def test_all_certain(self):
        assert majority_success_heterogeneous([1.0] * 5) == pytest.approx(1.0, abs=1e-14)

    def test_equal_probabilities_reduce_to_binomial(self):
        assert majority_success_heterogeneous([0.5] * 3) == pytest.approx(0.5, abs=1e-14)
        for n, p in ((7, 0.62), (101, 0.55)):
            assert majority_success_heterogeneous([p] * n) == pytest.approx(float(exact_tail(n, p)), rel=1e-13)

    def test_against_enumeration(self):
        rng = np.random.default_rng(107)
        probs = list(rng.uniform(0, 1, 9))
        assert majority_success_heterogeneous(probs) == pytest.approx(
            enumerate_majority(probs), abs=1e-12
        )

    def test_against_monte_carlo(self):
        rng = np.random.default_rng(108)
        probs = rng.uniform(0.4, 0.9, 15)
        exact = majority_success_heterogeneous(probs)
        trials = 1_000_000
        draws = rng.uniform(size=(trials, 15)) < probs[None, :]
        hits = float(np.mean(draws.sum(axis=1) > 7.5))
        stderr = math.sqrt(exact * (1 - exact) / trials)
        assert abs(hits - exact) < 3 * stderr + 1e-12

    def test_tail_near_certainty_stays_a_probability(self):
        # with every p close to 1 the summed tail rounds above 1 unless clamped
        probs = np.random.default_rng(110).uniform(1.0 - 1e-3, 1.0, size=(2000, 51))
        tails = majority_success_heterogeneous(probs)
        assert np.all((tails >= 0.0) & (tails <= 1.0))
        assert np.max(tails) == 1.0


class TestChernoffBound:
    def test_zero_advantage(self):
        assert chernoff_bound(100, 0.0) == 0.0

    def test_reference_value(self):
        assert chernoff_bound(100, 0.3) == pytest.approx(1.0 - math.exp(-4.5), abs=1e-15)
        assert chernoff_bound(100, 0.3) == pytest.approx(0.9888910034617577, abs=1e-12)
        assert chernoff_bound(100, 0.3) <= binomial_tail(100, 0.8)

    def test_monotone_in_n(self):
        vals = [chernoff_bound(n, 0.2) for n in (10, 100, 1000, 10000)]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert vals[-1] > 1 - 1e-10

    def test_lower_bounds_exact_tail_on_grid(self):
        for n in (11, 101, 1001):
            for s_bar in np.arange(0.05, 0.46, 0.05):
                s_bar = float(s_bar)
                assert chernoff_bound(n, s_bar) <= binomial_tail(n, 0.5 + s_bar) + 1e-12

    def test_range_validation(self):
        with pytest.raises(ValueError):
            chernoff_bound(10, 0.7)


class TestKolmogorovFuchs:
    def test_uninformative(self):
        k, limit, ok = kolmogorov_fuchs(0.5, 0.9)
        assert k == 0.0 and ok

    def test_saturation(self):
        k, limit, ok = kolmogorov_fuchs(1.0, 0.0)
        assert k == 1.0 and limit == 1.0 and ok

    def test_range_validation(self):
        with pytest.raises(ValueError):
            kolmogorov_fuchs(1.2, 0.5)

    def test_elementwise(self):
        p = [0.5, 1.0, 0.9, 0.2, 0.0]
        b = [0.9, 0.0, 0.3, 1.0, 0.1]
        k, limit, ok = kolmogorov_fuchs(np.array(p), np.array(b))
        assert k.shape == limit.shape == ok.shape == (5,)
        for i in range(5):
            assert k[i] == abs(2.0 * p[i] - 1.0)
            assert limit[i] == 1.0 - 0.5 * b[i] * b[i]
        assert ok.tolist() == [True, True, True, False, False]
        # a float broadcasts against an array
        k, limit, ok = kolmogorov_fuchs(np.array(p), 0.5)
        assert limit.shape == (5,) and np.all(limit == 0.875)
        # one entry out of range, or NaN, rejects the whole call
        for bad_p, bad_b in (([0.5, 1.0 + 1e-15], [0.5, 0.5]), ([0.5, 0.5], [-1e-300, 0.5]), ([math.nan], [0.5])):
            with pytest.raises(ValueError):
                kolmogorov_fuchs(np.array(bad_p), np.array(bad_b))


class TestBatchedForms:
    def test_local_success_on_edge_bath(self):
        # lam in {0, 1/2, 1} x beta in {0, pi/2, pi}, every 7th spin uncoupled
        n = 10_000
        rng = np.random.default_rng(109)
        nodes = [(lam, beta) for lam in (0.0, 0.5, 1.0) for beta in (0.0, np.pi / 2, np.pi)]
        lam, beta = np.array([nodes[j % 9] for j in range(n)]).T
        g = rng.uniform(0.0, 1.0, n)
        g[::7] = 0.0
        bath = SpinParams(rng.uniform(0, 2 * np.pi, n), beta, rng.uniform(0, 2 * np.pi, n), lam, g)
        for t in (0.0, 0.7, np.pi / 2, 3.0):
            probs = success(bath, t)
            assert not np.any(np.isnan(probs))
            assert np.all((probs >= 0.5) & (probs <= 1.0))
            single = [success(SpinParams(*(float(v[j]) for v in vars(bath).values())), t) for j in range(1000)]
            np.testing.assert_allclose(probs[:1000], single, rtol=1e-12, atol=0.0)
            assert np.all(probs[::7] == 0.5)  # sin(g t) = 0
        assert np.all(success(bath, 0.0) == 0.5)

    @pytest.mark.parametrize("n", (1, 2, 3, 51, 64, 65, 101, 1000))
    def test_batched_majority_equals_per_row(self, n):
        rng = np.random.default_rng(110 + n)
        probs = rng.uniform(0.0, 1.0, (5, n))
        probs[0] = 0.5
        probs[1, ::2] = 1.0
        batched = majority_success_heterogeneous(probs)
        assert batched.shape == (5,)
        np.testing.assert_array_equal(batched, [majority_success_heterogeneous(row) for row in probs])
        stacked = majority_success_heterogeneous(probs.reshape(5, 1, n))
        np.testing.assert_array_equal(stacked[:, 0], batched)
        # a trial-major buffer, read in place, gives the same bits and is left as it was
        trial_major = np.ascontiguousarray(probs.T)
        np.testing.assert_array_equal(majority_success_heterogeneous(trial_major.T), batched)
        np.testing.assert_array_equal(trial_major, probs.T)

    def test_majority_rejects_bad_input(self):
        with pytest.raises(ValueError, match="at least one"):
            majority_success_heterogeneous(np.zeros((3, 0)))
        for bad in ([[0.5, 0.5], [0.5, 1.5]], [0.6, math.nan, 0.7], [[0.5], [math.nan]]):
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                majority_success_heterogeneous(bad)


def loop_majority(probs):
    """The Poisson-binomial DP with the success count on the last axis: the
    row-major reference for majority_success_heterogeneous."""
    probs = np.asarray(probs, dtype=float)
    n = probs.shape[-1]
    dist = np.zeros(probs.shape[:-1] + (n + 1,))
    dist[..., 0] = 1.0
    for j in range(n):
        p = probs[..., j, None]
        dist[..., 1 : j + 2] = dist[..., 1 : j + 2] * (1.0 - p) + dist[..., : j + 1] * p
        dist[..., :1] *= 1.0 - p
    return np.minimum(np.sum(dist[..., n // 2 + 1 :], axis=-1), 1.0)


class TestMajorityLayout:
    """The count-leading DP gives the row-major reference's bits."""

    # odd and even n >= 51, where the DP skips the counts that can no longer reach the majority
    @pytest.mark.parametrize(
        "shape",
        [(1,), (2,), (9,), (64,), (1000, 1), (7, 3), (600, 51), (5, 4, 64), (2, 101), (3, 0, 4), (3, 52), (2, 200), (2, 201)],
    )
    def test_equals_row_major_reference(self, shape):
        rng = np.random.default_rng(sum(shape) + len(shape))
        probs = rng.uniform(0.0, 1.0, shape)
        # certain and impossible trials
        probs.reshape(-1)[::5] = 1.0
        probs.reshape(-1)[1::7] = 0.0
        got = majority_success_heterogeneous(probs)
        want = loop_majority(probs)
        assert np.shape(got) == np.shape(want)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("probs, exact", [([0.5] * 3, 0.5), ([0.0] * 4, 0.0), ([1.0] * 5, 1.0), ([0.0, 1.0, 1.0], 1.0), ([1.0, 0.0], 0.0)])
    def test_anchors(self, probs, exact):
        assert majority_success_heterogeneous(probs) == loop_majority(probs) == exact
