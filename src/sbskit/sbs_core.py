"""Model-independent spectrum-broadcast-structure machinery.

Given a central state, per-branch environment states and a family of
local projective measurements, this module builds the ideal broadcast
state obtained by cutting the coherent part and projecting each branch,
and evaluates the distance bounds that control how far the actual state
is from it:

* the collective dephasing weight Gamma plus the summed discrimination
  errors (the additive bound certified instance-by-instance by the
  oracle),
* its measurement-free form eta = Gamma + sum sqrt(sigma_i sigma_j) B_ij
  through the pairwise-fidelity bound on optimal discrimination,
* the information gap bound |I - H_S| <= F(eps) with
  F(x) = 4 h(2x) + 2 h(x) + 10 x log2(d_S), valid for eps <= 1/4.

Every pointer-pair quantity is a d_S x d_S array indexed [i, j]: the
central density matrix (weights sigma_i on its diagonal, coherences
sigma_ij off it), the dephasing magnitudes |gamma_ij| and the pairwise
branch fidelities B_ij; the pair sums run over the off-diagonal entries.

Every per-environment array is complex of shape (n_env, d_S, dim, dim),
indexed [k, i]: the branch states, the projectors of a ProjectorFamily and
the projected branches of an SBSState.  A branch of zero weight holds a
zero matrix, and the constructions and checks run over whole arrays, never
per environment or per branch.

Every record may also carry a block of instances on a leading axis: a
CentralState of shape (B, d_S, d_S), pointer-pair arrays (B, d_S, d_S) and
branch states (B, n_env, d_S, dim, dim), and a ProjectorFamily may stack
several families in front of that, (F, B, n_env, d_S, dim, dim).  The
leading axes broadcast as in numpy, so build_sbs, SBSState.to_matrix,
prop1_bound and the bounds give one result per family and instance, bit
for bit the result of one call per item.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import densmat

PROJECTOR_TOL = 1e-10
COR2_VALIDITY = 0.25


@dataclass(frozen=True)
class CentralState:
    """Density matrix of the central system in the pointer basis.

    rho is a d_S x d_S complex array with the pointer weights sigma_i on
    its diagonal and the coherences sigma_ij off it, or a stack of them
    (B, d_S, d_S), one per instance of a block.  It is stored as a
    read-only copy and every matrix must be a valid state.
    """

    rho: np.ndarray

    def __post_init__(self):
        rho = densmat.check_square(np.array(self.rho, dtype=complex))
        rho.setflags(write=False)
        object.__setattr__(self, "rho", rho)
        total = np.sum(self.sigma, axis=-1)
        off = total[np.abs(total - 1.0) > 1e-12]
        if off.size:
            raise ValueError(f"pointer weights sum to {off[0]}, not 1")
        densmat.check_density_matrix(rho)

    @property
    def sigma(self) -> np.ndarray:
        """Pointer weights sigma_i, the real diagonal of rho, shape (..., d_S)."""
        return np.diagonal(self.rho, axis1=-2, axis2=-1).real

    @property
    def d_s(self) -> int:
        return self.rho.shape[-1]

    def shannon_entropy(self):
        """Shannon entropy H[{sigma_i}] of the pointer weights, in bits, per
        matrix of a stack (a float for one)."""
        return densmat.entropy_bits(self.sigma, 1e-15)


def _environment_array(a, what: str) -> np.ndarray:
    """a as a read-only complex array (..., n_env, d_S, dim, dim)."""
    try:
        a = np.array(a, dtype=complex)
    except ValueError:  # ragged nesting
        a = np.empty(0)
    if a.ndim < 4 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"every environment needs one {what} per pointer index")
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class ProjectorFamily:
    """One complete projector set per observed environment.

    families[k, i] is the projector P_i of environment k, stored as one
    read-only array (n_env, d_S, dim, dim), or (..., n_env, d_S, dim, dim)
    for a stack of families checked at once; each set is Hermitian,
    idempotent, mutually orthogonal and sums to the identity (rank-zero
    members are allowed).
    """

    families: np.ndarray

    def __post_init__(self):
        fams = _environment_array(self.families, "projector")
        object.__setattr__(self, "families", fams)
        densmat.check_hermitian(fams, PROJECTOR_TOL, "projector")
        if np.max(np.abs(fams @ fams - fams), initial=0.0) > PROJECTOR_TOL:
            raise ValueError("projector is not idempotent")
        _check_complete(fams)


def _check_complete(projectors: np.ndarray) -> None:
    """Each set of projectors along axis -3 sums to the identity."""
    identity = np.eye(projectors.shape[-1])
    if np.max(np.abs(np.sum(projectors, axis=-3) - identity), initial=0.0) > PROJECTOR_TOL:
        raise ValueError("projector family does not sum to the identity")


@dataclass(frozen=True)
class SBSState:
    """Ideal broadcast state: weights, projected branch states, normalization.

    states[k, i] is the renormalized projected branch, an array
    (n_env, d_S, dim, dim) holding a zero matrix where the branch carries
    zero weight; eta_norm is the total projected weight
    sum_i sigma_i prod_k p_i^(k) before renormalization.  Built from a stack
    of families or a block of instances, every field carries those axes in
    front.  Where eta_norm is 0 the family is degenerate: it is orthogonal
    to every branch, there is no broadcast state, and its weights are 0.
    """

    weights: np.ndarray
    states: np.ndarray
    eta_norm: float | np.ndarray

    @property
    def degenerate(self):
        """Whether the projected weight vanishes, per family (a bool for one)."""
        return (np.asarray(self.eta_norm) <= 0.0)[()]

    def to_matrix(self) -> np.ndarray:
        """sum_i w_i |i><i| (x) states[0, i] (x) ... (x) states[n_env - 1, i],
        one matrix per family; a zero matrix for a degenerate family."""
        d_s = self.weights.shape[-1]
        env = densmat.tensor(self.weights[..., None, None], *np.moveaxis(self.states, -4, 0))
        i = np.arange(d_s)
        units = np.zeros((d_s, d_s, d_s), dtype=complex)
        units[i, i, i] = 1.0
        return np.sum(densmat.tensor(units, env), axis=-3)


def _off_diagonal(a: np.ndarray) -> np.ndarray:
    """Entries a[..., i, j], i != j, of square arrays in row-major order."""
    return a[..., ~np.eye(a.shape[-1], dtype=bool)]


def collective_gamma(central: CentralState, gamma_mags: np.ndarray):
    """Coherence weight Gamma = sum_{i != j} |sigma_ij| prod_k |gamma_ij^(k)|,
    per instance of a block (a float for one).

    gamma_mags[..., i, j] is the product of dephasing magnitudes over the
    unobserved environments for the pair (i, j), a number in [0, 1]; only
    i != j is used.
    """
    mags = np.asarray(gamma_mags, dtype=float)
    bad = mags[~((mags >= -1e-12) & (mags <= 1.0 + 1e-12))]  # NaN too
    if bad.size:
        raise ValueError(f"dephasing magnitude {bad[0]} outside [0, 1]")
    return np.sum(_off_diagonal(np.abs(central.rho) * gamma_mags), axis=-1)[()]


def discrimination_error(weights, states, projectors):
    """Cumulative error sum_i w_i Tr[rho_i (1 - P_i)] of local measurements.

    states and projectors are (..., d_S, dim, dim) and weights (..., d_S),
    one pointer index per last entry of weights, with leading axes that
    broadcast; one error per leading index (a float for one environment).
    Zero iff each projector contains the support of its branch state.
    """
    w = np.asarray(weights, dtype=float)
    states = np.asarray(states, dtype=complex)
    projectors = np.asarray(projectors, dtype=complex)
    if states.shape[-3:] != projectors.shape[-3:] or states.shape[-3:-2] != w.shape[-1:]:
        raise ValueError("weights, states and projectors must have matching lengths")
    _check_complete(projectors)
    miss = np.real(np.trace(states @ (np.eye(states.shape[-1]) - projectors), axis1=-2, axis2=-1))
    return np.maximum(np.sum(w * miss, axis=-1), 0.0)[()]


def build_sbs(central: CentralState, branches, projectors: ProjectorFamily) -> SBSState:
    """Cut the coherences and project each branch on its measurement sector.

    Weights come out proportional to sigma_i prod_k p_i^(k) with
    p_i^(k) = Tr[P_i rho_i^(k)]; each surviving branch state is
    P rho P / p_i^(k), where branches[..., k, i] is the state of observed
    environment k conditional on pointer index i.  When the projectors
    already contain the branch supports this returns the branches unchanged
    with weights sigma_i.  A stack of families or a block of instances gives
    one broadcast state each; a family orthogonal to every branch is marked
    degenerate.
    """
    fams, states = projectors.families, _environment_array(branches, "branch state")
    if fams.shape[-4] != states.shape[-4]:
        raise ValueError("one projector family per observed environment required")
    if fams.shape[-3:] != states.shape[-3:] or states.shape[-3] != central.d_s:
        raise ValueError("need one branch state and one projector per pointer index")
    cut = fams @ states @ fams
    # rounding can leave a branch orthogonal to its projector with a tiny
    # negative trace; treat anything at that scale as zero
    succ = np.maximum(np.real(np.trace(cut, axis1=-2, axis2=-1)), 0.0)
    succ[succ < PROJECTOR_TOL] = 0.0
    projected = np.zeros_like(cut)
    np.divide(cut, succ[..., None, None], out=projected, where=succ[..., None, None] > 0.0)

    weighted = central.sigma * np.prod(succ, axis=-2)
    eta_norm = np.sum(weighted, axis=-1)
    # a degenerate family keeps weight 0 on every branch
    weights = np.zeros_like(weighted)
    np.divide(weighted, eta_norm[..., None], out=weights, where=eta_norm[..., None] > 0.0)
    return SBSState(weights, projected, eta_norm)


def prop1_bound(gamma, pe):
    """Additive distance bound Gamma + sum_k p_E^(k).

    pe[..., k] is the discrimination error of environment k and gamma
    broadcasts with pe[..., 0]; one bound per leading index (a float for
    one family).
    """
    pe = np.asarray(pe, dtype=float)
    if np.any(np.asarray(gamma) < 0) or np.any(pe < 0):
        raise ValueError("bound ingredients must be nonnegative")
    return (gamma + np.sum(pe, axis=-1))[()]


def disturbance_bound(gamma, sigma, branches, projectors):
    """Sound telescoping bound: Gamma + sum_k sum_i sigma_i ||rho_i - P rho_i P||_1.

    branches[..., k, i] are the branch states of one instance or a block,
    with its Gamma (...) and weights sigma (..., d_S), and
    projectors[..., k, i] the projectors of one family, or of a stack of
    families in front (one bound per family and instance).
    """
    pieces = sigma[..., None, :] * densmat.trace_norm(branches - projectors @ branches @ projectors)
    return (gamma + np.sum(pieces, axis=(-2, -1)))[()]


def barnum_knill_bound(weights: Sequence[float], pairwise_fidelities: np.ndarray):
    """Pairwise-fidelity bound sum_{i != j} sqrt(w_i w_j) B(rho_i, rho_j)
    on the optimal discrimination error of an ensemble, per ensemble of a
    stack (a float for one).

    pairwise_fidelities[..., i, j] is B(rho_i, rho_j) and weights[..., i]
    the weight of rho_i.
    """
    w = np.asarray(weights, dtype=float)
    outer = w[..., :, None] * w[..., None, :]
    return np.sum(_off_diagonal(np.sqrt(outer) * pairwise_fidelities), axis=-1)[()]


def cor1_eta(central: CentralState, gamma, pair_fidelities: np.ndarray):
    """Measurement-free bound eta = Gamma + sum_{i!=j} sqrt(sigma_i sigma_j)
    sum_k B[rho_i^(k), rho_j^(k)], per instance of a block (a float for one).

    pair_fidelities[..., k, i, j] is the fidelity of branches i and j of
    observed environment k.
    """
    return gamma + barnum_knill_bound(central.sigma, np.sum(pair_fidelities, axis=-3))


def cor2_bound(eps_or_eta, d_s: int):
    """Information-gap bound F(x) = 4 h(2x) + 2 h(x) + 10 x log2(d_S),
    elementwise, with h the binary entropy in bits.

    Returns (F(x), x <= 1/4), arrays of the shape of x (floats for a
    float); the bound is only asserted where the validity flag is set.
    Beyond x = 1/2 the h(2x) term leaves its domain and the bound
    degenerates to +inf.
    """
    x = np.asarray(eps_or_eta, dtype=float)
    if not np.all(x >= 0.0):  # also false for NaN
        raise ValueError("argument must be >= 0")
    # h(2x) and h(x), each row [v, 1 - v] summed as on its own
    v = np.stack([2.0 * x, x])
    h2x, hx = densmat.entropy_bits(np.stack([v, 1.0 - v], axis=-1), 0.0)
    bound = 4.0 * h2x + 2.0 * hx + 10.0 * x * math.log2(d_s)
    return np.where(x > 0.5, math.inf, bound)[()], (x <= COR2_VALIDITY)[()]


def mutual_information(rho: np.ndarray, factor_dims: Sequence[int]):
    """Quantum mutual information I = S(rho_S) + S(rho_rest) - S(rho), in
    bits, per matrix of a stack (a float for one matrix).

    The system is the first tensor factor, factor_dims[0], and the
    remaining factors (at least one) form the observed fraction.
    """
    if len(factor_dims) < 2:
        raise ValueError("split must leave factors on both sides")
    rho_s = densmat.partial_trace(rho, factor_dims, [0])
    rho_f = densmat.partial_trace(rho, factor_dims, range(1, len(factor_dims)))
    return (
        densmat.von_neumann_entropy(rho_s)
        + densmat.von_neumann_entropy(rho_f)
        - densmat.von_neumann_entropy(rho)
    )
