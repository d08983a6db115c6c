"""Random spin-parameter sampling and the Monte Carlo pipelines driven by
the CLI: one time-averaged fig1 surface node (fig1_node) and the fig2
distance-bound curves, both through one blocked kernel for the B(t) and
|gamma(t)| products.  The CLI checks every run parameter against its
config table before it calls them; they take plain values, not a config.

Reproducibility contract: every Monte Carlo sample draws from its own RNG
stream derived from (master seed, stream label, sample index) through
``numpy.random.SeedSequence``.  Results are therefore bit-identical for a
given config regardless of how samples are scheduled across workers, and
reductions run over arrays indexed by sample so the summation order is
fixed.  A stack of per-index draws, one row per index, goes through
``sample_rows``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .spin_model import TWO_PI, SpinParams, sin2_coefficients

# cells (spins x time points) in each of the B / |gamma| kernel's two chunk
# buffers, but at least two blocks of time points: 512 KiB each stay in L2
# cache, and fig2's 500 x 121 is one chunk
CURVE_BLOCK = 2**16
# |a| <= 2^-54 makes 1 + a sin^2(g t) round to exactly 1
EXACT_ONE_COEFF = 2.0**-54


@dataclass(frozen=True)
class MeasureSpec:
    """Distribution of one bath spin's parameters.

    angles: "haar" or a fixed (alpha, beta, gamma) triple.  The invariant
    angle measure has alpha, gamma uniform on [0, 2pi) and density
    sin(beta)/2 for beta.

    lam: "hilbert_schmidt" or a fixed value in [0, 1].  The flat-metric
    eigenvalue measure for a qubit has density 3 (2 lam - 1)^2, sampled by
    the closed-form inverse CDF ((2 lam - 1)^3 + 1) / 2.

    coupling: a fixed float, or an (a, b) pair for uniform couplings.
    """

    angles: object = "haar"
    lam: object = "hilbert_schmidt"
    coupling: object = (0.0, 1.0)

    def __post_init__(self):
        # the fixed values must form a valid spin; the record names a bad field
        alpha, beta, gamma = (0.0, 0.0, 0.0) if self.angles == "haar" else self.angles
        lam = 0.5 if self.lam == "hilbert_schmidt" else float(self.lam)
        SpinParams(float(alpha), float(beta), float(gamma), lam, 0.0)
        if not isinstance(self.coupling, (int, float)):
            a, b = self.coupling
            # numpy's uniform sampler cannot span a width that overflows
            if not (a < b and math.isfinite(b - a)):
                raise ValueError(f"uniform coupling bounds must satisfy a < b with b - a finite, got {self.coupling}")

    def g2bar(self) -> float:
        """Mean squared coupling E[g^2] implied by the coupling law."""
        if isinstance(self.coupling, (int, float)):
            return float(self.coupling) ** 2
        a, b = self.coupling
        return (a * a + a * b + b * b) / 3.0


def sample_stream(seed: int, index: int, label: int) -> np.random.Generator:
    """Independent counter-style RNG stream for one Monte Carlo sample."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(label, index))
    return np.random.default_rng(ss)


def sample_rows(seed: int, label: int, indices: Sequence[int], draw: Callable[[np.random.Generator], tuple]) -> list:
    """draw(sample_stream(seed, i, label)) for each i in indices (at least
    one), in order, stacked: entry k of row b is out[k][b].

    draw returns a tuple of arrays or floats of the same shapes and dtypes
    on every row.  out is preallocated from the first row, and each row is
    copied into it as soon as it is drawn, so the rows are never all held
    at once.
    """
    out = []
    for b, i in enumerate(indices):
        row = draw(sample_stream(seed, i, label))
        if not out:
            out = [np.empty((len(indices),) + np.shape(v), np.result_type(v)) for v in row]
        for column, v in zip(out, row):
            column[b] = v
    return out


def sample_coupling_array(measure: MeasureSpec, rng: np.random.Generator, n: int):
    if isinstance(measure.coupling, (int, float)):
        return np.full(n, float(measure.coupling))
    a, b = measure.coupling
    return rng.uniform(float(a), float(b), n)


def draw_spin_arrays(measure: MeasureSpec, rng: np.random.Generator, n: int) -> tuple:
    """Draw n spins at once as the five unvalidated length-n arrays of a
    record, in SpinParams field order; a caller stacking rows validates the
    stacked record once.

    Draw order is fixed (angles, eigenvalues, couplings) so a stream yields
    the same spins no matter how the caller consumes them.
    """
    if measure.angles == "haar":
        alpha = rng.uniform(0.0, TWO_PI, n)
        beta = np.arccos(1.0 - 2.0 * rng.uniform(0.0, 1.0, n))
        gamma = rng.uniform(0.0, TWO_PI, n)
    else:
        alpha, beta, gamma = (np.full(n, float(v)) for v in measure.angles)
    if measure.lam == "hilbert_schmidt":
        lam = 0.5 * (1.0 + np.cbrt(2.0 * rng.uniform(0.0, 1.0, n) - 1.0))
    else:
        lam = np.full(n, float(measure.lam))
    return alpha, beta, gamma, lam, sample_coupling_array(measure, rng, n)


def map_indexed(fn: Callable[[int], object], n: int, threads: int = 1) -> list:
    """Evaluate fn(0..n-1), optionally in a thread pool, ordered by index."""
    if threads <= 1 or n <= 1:
        return [fn(i) for i in range(n)]
    # imported here so a single-threaded run never loads concurrent.futures
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, range(n)))


def _mean_stderr(values: np.ndarray):
    """Mean and standard error over the first axis (samples); a zero error for one sample."""
    n = len(values)
    mean = np.mean(values, axis=0)
    if n > 1:
        return mean, np.std(values, axis=0, ddof=1) / math.sqrt(n)
    return mean, np.zeros_like(mean)


def _product_curves(g, t0, dt, n_t, coeffs, counts) -> np.ndarray:
    """sqrt(prod_{k < n} (1 + a_k sin^2(g_k t))) on the uniform grid (as
    np.linspace builds it) t = t0 + j dt, 0 <= j < n_t, with no log.

    One curve per coefficient a in coeffs (in [-1, 0], a float for every
    spin or one per spin) and spin count n in counts (1 <= n <= len(g)), the
    product running over the first n spins; returns shape (len(coeffs),
    len(counts), n_t).  With j = w b + m, w = min(64, isqrt(n_t)) and anchor
    T = t0 + w b dt, sin(g t) = sin(g T) cos(g m dt) + cos(g T) sin(g m dt),
    so sin and cos run once per spin and anchor or offset m, and t = 0 or
    g = 0 still give a factor of exactly 1.  Each chunk of anchors takes
    that sum as one batched matmul, [sin(g T), cos(g T)] times a (2, w)
    table of the offsets' cos and sin, so its last bits are BLAS dgemm's.
    Every matmul of a call has one shape, of at least two blocks for
    n_t >= 2: the last chunk moves back to full length, since a one-row
    matmul goes to gemv, which rounds differently.  The identity can put
    sin^2 an ulp above 1, so sin^2 is clamped at 1 once per chunk, and with
    a in [-1, 0] every factor 1 + a sin^2 is >= 0.  The sizes run in
    increasing order, each multiplying the smaller size's product by
    factors <= 1, so a larger n never gives a larger curve.  A curve below
    about 1e-154 (a subnormal product) may read 0: it is accurate only to
    about 1e-154.  Coefficients all of magnitude <= 2^-54 give exactly 1
    (1 + a rounds to 1) uncomputed, and a repeated coefficient copies its
    curve.
    """
    n_spins = len(g)
    out = np.ones((len(coeffs), len(counts), n_t))
    live = [k for k, a in enumerate(coeffs) if np.max(np.abs(a)) > EXACT_ONE_COEFF]
    # equal coefficients give equal curves: only the first of them is computed
    first = [next(j for j in live if np.array_equal(coeffs[j], coeffs[k])) for k in live]
    if live:
        sizes = sorted(set(counts))
        rows = [sizes.index(n) for n in counts]
        width = min(64, math.isqrt(n_t))
        # per spin, the (2, width) rows cos(g m dt) and sin(g m dt)
        table = np.repeat(np.multiply.outer(g, dt * np.arange(width))[:, None], 2, axis=1)
        np.cos(table[:, 0], out=table[:, 0])
        np.sin(table[:, 1], out=table[:, 1])
        # the anchors run in chunks of step >= 2 blocks, about CURVE_BLOCK cells each
        n_blocks = -(-n_t // width)
        step = min(n_blocks, max(2, CURVE_BLOCK // (n_spins * width)))
        s, f = np.empty((2, n_spins, step * width))
        for lo in range(0, n_blocks, step):
            lo = min(lo, n_blocks - step)
            anchors = np.multiply.outer(g, t0 + dt * np.arange(lo * width, (lo + step) * width, width))
            np.matmul(np.stack([np.sin(anchors), np.cos(anchors)], axis=-1), table,
                      out=s.reshape(n_spins, step, width))
            np.square(s, out=s)
            np.minimum(s, 1.0, out=s)
            cols = slice(lo * width, min((lo + step) * width, n_t))
            for k in sorted(set(first)):
                np.multiply(np.reshape(coeffs[k], (-1, 1)), s, out=f)
                np.add(1.0, f, out=f)
                products = [np.multiply.reduce(f[: sizes[0]], axis=0)]
                for below, n in zip(sizes, sizes[1:]):
                    products.append(products[-1] * np.multiply.reduce(f[below:n], axis=0))
                out[k, :, cols] = np.array(products)[rows, : cols.stop - cols.start]
        out[live] = out[first]
    return np.sqrt(out, out=out)


def fig1_node(
    lam_plus: float,
    beta: float,
    n_spins: int,
    tau: float,
    tau_points: int,
    samples: int,
    seed: int,
    measure: MeasureSpec = MeasureSpec(),
    threads: int = 1,
    *,
    with_gamma: bool = True,
):
    """Time-averaged <B> and <|gamma|> for one (lam_plus, beta) surface node.

    All spins share the node's initial state; only the coupling law of
    measure is sampled, afresh per Monte Carlo sample.  Returns (mean_B,
    mean_abs_gamma, stderr_B, stderr_gamma, rel_change_B, rel_change_gamma)
    where the rel_change values compare against the half-resolution
    quadrature on every second point (convergence gate), so tau_points must
    be odd.  With with_gamma=False the |gamma| curve is not computed and its
    three entries are NaN.
    """
    t, dt = np.linspace(0.0, tau, tau_points, retstep=True)
    coarse = slice(None, None, 2)
    coeffs = list(sin2_coefficients(SpinParams(0.0, beta, 0.0, lam_plus, 0.0)))
    coeffs = coeffs[: 2 if with_gamma else 1]

    def one(i: int):
        rng = sample_stream(seed, i, 1)
        g = sample_coupling_array(measure, rng, n_spins)
        vals = []
        for curve in _product_curves(g, 0.0, dt, tau_points, coeffs, [n_spins])[:, 0]:
            fine = float(np.trapezoid(curve, t) / tau)
            cs = float(np.trapezoid(curve[coarse], t[coarse]) / tau)
            vals.append((fine, abs(fine - cs) / max(abs(fine), 1e-12)))
        return vals

    results = map_indexed(one, samples, threads)
    out = [math.nan] * 6
    for c in range(len(coeffs)):
        mean, se = _mean_stderr(np.array([r[c][0] for r in results]))
        out[c], out[2 + c], out[4 + c] = float(mean), float(se), max(r[c][1] for r in results)
    return tuple(out)


def fig2_curves(
    n_values: Sequence[int],
    t: np.ndarray,
    samples: int,
    seed: int,
    measure: MeasureSpec,
    threads: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Mean distance bound |gamma(t)| + B(t) over the np.linspace grid t and
    its standard error, each of shape (len(n_values), len(t)): row j is the
    curve of size n_values[j] (each >= 1).

    Each curve uses n observed and n unobserved freshly sampled spins per
    Monte Carlo sample.  Samples are nested: size n uses the first n spins
    of the same per-sample stream, so larger-n curves lie below smaller-n
    ones pointwise for every draw, not just on average.
    """
    n_max = max(n_values)
    dt = (t[-1] - t[0]) / max(len(t) - 1, 1)  # the step np.linspace takes

    def one(i: int):
        rng = sample_stream(seed, i, 2)
        observed = SpinParams(*draw_spin_arrays(measure, rng, n_max))
        unobserved = SpinParams(*draw_spin_arrays(measure, rng, n_max))
        b_coeff, _ = sin2_coefficients(observed)
        _, gamma_coeff = sin2_coefficients(unobserved)
        b = _product_curves(observed.g, t[0], dt, len(t), [b_coeff], n_values)[0]
        ag = _product_curves(unobserved.g, t[0], dt, len(t), [gamma_coeff], n_values)[0]
        return ag + b

    return _mean_stderr(np.stack(map_indexed(one, samples, threads)))

