"""Closed-form dynamics of a central spin dephased by a bath of spins.

Each bath spin j couples to the central spin through sigma_z with strength
g_j, so conditional on the central pointer branch s = +/- the spin evolves
under the branch unitary

    U_s(t) = exp(+i s (g_j t / 2) sigma_z).

This sign and angle convention is normative for the whole package; under it
the single-spin dephasing factor is exactly

    gamma_j(t) = cos(g_j t) + i (2 lambda_j - 1) cos(beta_j) sin(g_j t)

and the branch-pair fidelity is exactly

    b_j(t) = sqrt(1 - (2 lambda_j - 1)^2 sin^2(beta_j) sin^2(g_j t)).

The brute-force simulator in :mod:`sbskit.oracle` certifies both closed
forms against explicit matrix evolution.

Initial spin states are parametrized by z-y-z Euler angles and an
eigenvalue lambda: rho(0) = R D R^dagger with D = diag(lambda, 1-lambda).
The third Euler angle rotates within the eigenbasis of D and therefore
drops out of rho(0); it is kept in :class:`SpinParams` only so sampled
parameter records are complete.

Every closed form takes one :class:`SpinParams` record, of one spin or of
a batch: per-spin forms act elementwise, and products over spins are log
sums along the last axis of the record.  The macrofraction fidelity takes
the record's time-invariant coefficient and ``sin_gt`` instead, so a scan
over times computes each per-spin factor once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

# field, upper bound, printed range; every lower bound is 0
_RANGES = (
    ("alpha", TWO_PI + 1e-12, "[0, 2pi)"),
    ("beta", math.pi + 1e-12, "[0, pi]"),
    ("gamma_euler", TWO_PI + 1e-12, "[0, 2pi)"),
    ("lam", 1.0, "[0, 1]"),
)


@dataclass(frozen=True)
class SpinParams:
    """Bath spins: Euler angles, eigenvalue and coupling constant.

    Each field is a float or an array, and all arrays in one record share a
    shape whose last axis runs over spins; a float field holds for every
    spin.  alpha, gamma_euler in [0, 2*pi); beta in [0, pi]; lam in [0, 1];
    g is the sigma_z coupling in inverse-time units.
    """

    alpha: float | np.ndarray
    beta: float | np.ndarray
    gamma_euler: float | np.ndarray
    lam: float | np.ndarray
    g: float | np.ndarray

    def __post_init__(self):
        shapes = {getattr(v, "shape", ()) for v in vars(self).values()} - {()}
        if len(shapes) > 1:
            raise ValueError(f"field shapes differ: {sorted(shapes)}")
        for name, upper, shown in _RANGES:
            v = np.asarray(getattr(self, name), dtype=float)
            if not (0.0 <= v.min(initial=np.inf) and v.max(initial=-np.inf) <= upper):  # also false for NaN
                raise ValueError(f"{name} {v[~((v >= 0.0) & (v <= upper))].flat[0]} outside {shown}")


def initial_spin_state(p: SpinParams) -> np.ndarray:
    """rho(0) = R diag(lam, 1-lam) R^dagger, shape (record shape) + (2, 2).

    R = R_z(alpha) R_y(beta) R_z(gamma_euler) is the z-y-z Euler rotation in
    SU(2); the eigenvalues of each spin's state are {lam, 1-lam}.
    """
    alpha, beta, gamma, lam = np.broadcast_arrays(p.alpha, p.beta, p.gamma_euler, p.lam)
    c, s = np.cos(beta / 2.0), np.sin(beta / 2.0)
    r = np.empty(alpha.shape + (2, 2), dtype=complex)
    r[..., 0, 0] = np.exp(-0.5j * (alpha + gamma)) * c
    r[..., 0, 1] = -np.exp(-0.5j * (alpha - gamma)) * s
    r[..., 1, 0] = np.exp(0.5j * (alpha - gamma)) * s
    r[..., 1, 1] = np.exp(0.5j * (alpha + gamma)) * c
    return (r * np.stack([lam, 1.0 - lam], axis=-1)[..., None, :]) @ np.swapaxes(r.conj(), -1, -2)


def delta(p: SpinParams):
    """Initial off-diagonal element, (1/2) sin(beta) e^{-i alpha} (2 lam - 1)."""
    return 0.5 * np.sin(p.beta) * np.exp(-1j * p.alpha) * (2.0 * p.lam - 1.0)


def sin2_coefficients(p: SpinParams):
    """Per-spin coefficients a of the factors 1 + a sin^2(g t).

    The squared branch fidelity b_j^2 takes a = -(2 lam - 1)^2 sin^2 beta and
    |gamma_j|^2 takes a = (2 lam - 1)^2 cos^2 beta - 1; both lie in [-1, 0].
    Negation is exact and x - y is x + (-y) in IEEE arithmetic, so 1 + a s2
    for b_j^2 is bitwise 1 - c s2.  np.square multiplies for a float as for
    an array (** 2 on a float calls pow, which can round differently), so a
    float record and a one-spin array record give the same bits.
    """
    r2 = np.square(2.0 * p.lam - 1.0)
    return -(r2 * np.square(np.sin(p.beta))), r2 * np.square(np.cos(p.beta)) - 1.0


def _check_time(t) -> None:
    if np.any(np.less(t, 0.0)):
        raise ValueError("t must be >= 0")


def sin_gt(p: SpinParams, t):
    """sin(g t) per spin, for t >= 0 (a negative t raises).

    The one time-dependent factor of the fidelity, success-probability and
    exponent forms; the record and t broadcast together.
    """
    _check_time(t)
    return np.sin(p.g * t)


def decoherence_factor(unobserved: SpinParams, t):
    """Collective dephasing factor over the unobserved spins at time t.

    Product of the per-spin factors gamma_j(t) along the record's last axis,
    as exp of a sum of complex logs (log moduli plus phases) so the product
    of thousands of sub-unit moduli does not underflow; |result| <= 1 up to
    rounding, result(0) = 1 exactly and a zero factor gives 0.
    """
    _check_time(t)
    gt = unobserved.g * t
    factors = np.cos(gt) + 1j * (2.0 * unobserved.lam - 1.0) * np.cos(unobserved.beta) * np.sin(gt)
    with np.errstate(divide="ignore"):
        return np.exp(np.sum(np.log(factors), axis=-1))


def macrofraction_fidelity(a, s):
    """Fidelity between the two branch states of a whole macrofraction.

    Takes each spin's coefficient a = ``sin2_coefficients(spins)[0]``
    (fixed in time) and s = ``sin_gt(spins, t)``, so a caller that scans
    times computes a once.  Product of the per-spin fidelities
    sqrt(1 + a s^2) along the last axis, as exp of half a log sum.  Exactly
    1 at t = 0 and exactly 0 when any spin reaches a fidelity zero
    (one-shot distinguishability).
    """
    with np.errstate(divide="ignore"):
        return np.exp(0.5 * np.sum(np.log(1.0 + a * np.square(s)), axis=-1))


def lln_exponents(p: SpinParams, t):
    """Per-spin exponents (kappa, chi) of the large-bath exponential forms.

    kappa = -log(1 - (2 lam - 1)^2 sin^2 beta sin^2(gt)) so that the
    macrofraction fidelity is exp(-sum kappa_j / 2); chi = -log|gamma_j|^2
    so that |gamma|^2 = exp(-sum chi_j).  An exact zero of the fidelity or
    of |gamma| is reported as +inf.
    """
    s2 = np.square(sin_gt(p, t))
    a_b, a_gamma = sin2_coefficients(p)
    with np.errstate(divide="ignore"):
        return -np.log1p(a_b * s2), -np.log1p(a_gamma * s2)


def short_time_exponents(g2bar: float, t: float) -> tuple[float, float]:
    """Leading small-t means of the exponents: (2/5) g2bar t^2, (4/5) g2bar t^2.

    Valid for Haar-distributed angles, quadratically tilted eigenvalue
    measure and i.i.d. couplings with mean square g2bar.
    """
    if t < 0 or g2bar < 0:
        raise ValueError("t and g2bar must be >= 0")
    base = g2bar * t * t
    return 0.4 * base, 0.8 * base


def time_scales(
    n_total: int, n_mac: int, f: float, g2bar: float
) -> tuple[float, float, float]:
    """Broadcasting time t_B, decoherence time t_D and (t_B/t_D)^2.

    t_B = sqrt(5 ln(n_mac) / (g2bar n_mac)) is when the macrofraction
    fidelity reaches ~1/n_mac under the short-time exponent; t_D =
    sqrt(5 ln(n_mac) / (4 g2bar (1-f) n_total)) is the matching scale for
    |gamma|^2 over the (1-f) n_total unobserved spins.  The squared ratio
    4 (1-f) n_total / n_mac is returned in exact algebraic form.
    """
    if n_mac < 2:
        raise ValueError("n_mac must be >= 2 so that ln(n_mac) > 0")
    if not (0.0 <= f < 1.0):
        raise ValueError("f must lie in [0, 1)")
    if g2bar <= 0:
        raise ValueError("g2bar must be > 0")
    log_nm = math.log(n_mac)
    t_b = math.sqrt(5.0 * log_nm / (g2bar * n_mac))
    t_d = math.sqrt(5.0 * log_nm / (4.0 * g2bar * (1.0 - f) * n_total))
    ratio_sq = 4.0 * (1.0 - f) * n_total / n_mac
    return t_b, t_d, ratio_sq
