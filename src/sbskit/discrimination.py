"""Two-state discrimination: Helstrom measurements, majority votes over a
macrofraction, and the Chernoff / Kolmogorov bounds on their performance.

The Helstrom kernels take stacks: ``helstrom_pair`` one pair of matching
stacks of states, ``helstrom_spin_analytic`` a spin record with its times.
Each returns projector families {P_plus, P_minus} of shape (..., 2, n, n),
the per-environment layout of ``sbs_core.ProjectorFamily``, and a stacked
call gives, bit for bit, the families of one call per item.
"""

from __future__ import annotations

import math
import numpy as np

from . import densmat
from .spin_model import SpinParams, delta, sin_gt

# eigenvalues of the weighted difference below this count as ties
TIE_TOLERANCE = 1e-12


def helstrom_pair(
    rho_plus: np.ndarray,
    rho_minus: np.ndarray,
    weights: tuple[float, float] | None = None,
) -> np.ndarray:
    """Minimum-error projective measurement for two states, or per pair of
    matching stacks (..., n, n), as the family {P_plus, P_minus} of shape
    (..., 2, n, n).

    P_plus projects on the strictly positive eigenspace of
    w_plus rho_plus - w_minus rho_minus (equal weights by default) and
    P_minus is its complement.  With equal weights the achieved error is
    (1/2)(1 - ||rho_plus - rho_minus||_1 / 2); identical states yield
    P_plus = 0 and error 1/2.  A stacked call gives, bit for bit, the
    families of one call per matrix.
    """
    rho_plus = densmat.check_square(rho_plus)
    rho_minus = densmat.check_square(rho_minus)
    if rho_plus.shape != rho_minus.shape:
        raise ValueError(f"dimension mismatch: {rho_plus.shape} vs {rho_minus.shape}")
    w_p, w_m = (0.5, 0.5) if weights is None else weights
    w, v = np.linalg.eigh(w_p * rho_plus - w_m * rho_minus)
    pos = v * (w > TIE_TOLERANCE)[..., None, :]
    p_plus = pos @ np.swapaxes(pos.conj(), -1, -2)
    return np.stack([p_plus, np.eye(rho_plus.shape[-1], dtype=complex) - p_plus], axis=-3)


def helstrom_spin_analytic(p: SpinParams, t) -> tuple[np.ndarray, np.ndarray | bool]:
    """Closed-form Helstrom measurements for the evolved branch states of
    each spin, as (family, degenerate): the family {P_plus, P_minus} of shape
    (..., 2, 2, 2) and a bool (array) marking the fallback pairs.

    The branch difference at time t is purely off-diagonal with entry
    2 i sin(gt) delta, so for sin(gt) delta != 0 the optimal projectors are

        P_+/- = [[1/2, +/- sgn(sin gt) i delta / (2 |delta|)],
                 [-/+ sgn(sin gt) i delta* / (2 |delta|), 1/2]].

    Degenerate inputs (delta = 0 or sin(gt) = 0), which carry no
    information, fall back to the canonical pair P_plus = diag(1, 0).  The
    record and t (>= 0) broadcast together to the stack's leading shape.
    """
    d, s = np.broadcast_arrays(delta(p), sin_gt(p, t))
    mag = np.abs(d)
    # the branch difference has eigenvalues +/- 2 |sin(gt)| |delta|; below the
    # tie tolerance the measurement carries no information
    degenerate = 2.0 * mag * np.abs(s) <= TIE_TOLERANCE
    u = 1j * np.copysign(1.0, s) * d / (2.0 * np.where(degenerate, 1.0, mag))
    p_plus = np.stack([np.full_like(u, 0.5), u, np.conj(u), np.full_like(u, 0.5)], axis=-1).reshape(u.shape + (2, 2))
    p_plus[degenerate] = np.diag([1.0, 0.0])
    return np.stack([p_plus, np.eye(2, dtype=complex) - p_plus], axis=-3), degenerate[()]


def local_success_probability(abs_delta, s):
    """Helstrom success probability per spin, 1/2 + |delta| |sin(gt)|.

    Takes each spin's |delta| (``np.abs(delta(p))``, fixed in time) and
    s = sin(g t) (``spin_model.sin_gt(p, t)``, which rejects t < 0), so a
    caller that scans times computes |delta| once and shares s with
    ``spin_model.macrofraction_fidelity``.  Identical for either branch;
    equals Tr[P_s rho_s(t)] with the analytic projectors.  Elementwise over
    inputs that broadcast together.
    """
    return 0.5 + abs_delta * np.abs(s)


def majority_success_heterogeneous(probs):
    """Exact strict-majority probability for independent unequal trials.

    Dynamic-programming convolution over the success count, O(n^2), over
    the last axis of probs; leading axes are independent batches, each
    reduced exactly as a row of its own.  The count distribution keeps the
    success count as its leading axis, so each step updates one contiguous
    block of (count, batch) entries in place; the tail is summed in the
    (batch, count) layout, which fixes the summation order.  Probabilities
    already stored trial-major (as the transpose of a C-contiguous (n,
    batch) array) are read in place, others copied into that layout once.
    Equal probabilities give the binomial tail P[X > n / 2], within 1.9e-14
    relative of the exact tail up to n = 1e4.  A probability outside
    [0, 1], or NaN, raises.
    """
    probs = np.asarray(probs, dtype=float)
    if probs.ndim < 1 or probs.shape[-1] < 1:
        raise ValueError("need at least one probability")
    if not np.all((probs >= 0.0) & (probs <= 1.0)):  # also false for NaN
        raise ValueError("probabilities must lie in [0, 1]")
    n = probs.shape[-1]
    majority = n // 2 + 1
    p = np.ascontiguousarray(np.moveaxis(probs, -1, 0))
    q = 1.0 - p
    dist = np.zeros((n + 1,) + probs.shape[:-1])
    dist[0] = 1.0
    up = np.empty_like(p)
    for j in range(n):
        # count k after trial j: dist[k] q_j + dist[k - 1] p_j; dist[j + 1] is still 0.
        # Counts below lo cannot reach the majority in the n - 1 - j trials
        # left and feed only such counts, so they are not updated.
        lo = max(majority - (n - 1 - j), 0)
        feed = max(lo - 1, 0)
        np.multiply(dist[feed : j + 1], p[j], out=up[feed : j + 1])
        dist[lo : j + 1] *= q[j]
        dist[feed + 1 : j + 2] += up[feed : j + 1]
    # the summed tail can round above 1 when every p is close to 1
    tail = np.ascontiguousarray(np.moveaxis(dist[majority:], 0, -1))
    return np.minimum(np.sum(tail, axis=-1), 1.0)


def chernoff_bound(n_mac: int, s_bar: float) -> float:
    """Lower bound 1 - exp(-n_mac s_bar^2 / 2) on the majority success."""
    if not (0.0 <= s_bar <= 0.5):
        raise ValueError(f"s_bar {s_bar} outside [0, 1/2]")
    return 1.0 - math.exp(-0.5 * n_mac * s_bar * s_bar)


def kolmogorov_fuchs(p_tilde, b_mac):
    """Kolmogorov distance of the majority outcome vs the fidelity limit.

    The two outcome distributions are (p, 1-p) and (1-p, p), so
    K = |2 p_tilde - 1|; no measurement can exceed 1 - b_mac^2 / 2.
    Returns (K, limit, K <= limit + 1e-9), elementwise over inputs that
    broadcast together (two floats and a bool for two floats).
    """
    p_tilde, b_mac = np.broadcast_arrays(np.asarray(p_tilde, dtype=float), np.asarray(b_mac, dtype=float))
    if not (np.all((p_tilde >= 0.0) & (p_tilde <= 1.0)) and np.all((b_mac >= 0.0) & (b_mac <= 1.0))):
        raise ValueError("p_tilde and b_mac must lie in [0, 1]")
    k = np.abs(2.0 * p_tilde - 1.0)
    limit = 1.0 - 0.5 * b_mac * b_mac
    return k[()], limit[()], (k <= limit + 1e-9)[()]
