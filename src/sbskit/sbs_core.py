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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import densmat

CENTRAL_TOL = 1e-10
PROJECTOR_TOL = 1e-10
COR2_VALIDITY = 0.25


class DegenerateSBSError(ValueError):
    """Raised when every branch is orthogonal to its projector (all r_i = 0)."""


@dataclass(frozen=True)
class CentralState:
    """Density matrix of the central system in the pointer basis.

    rho is a d_S x d_S complex array with the pointer weights sigma_i on
    its diagonal and the coherences sigma_ij off it.  It is stored as a
    read-only copy and must be a valid state.
    """

    rho: np.ndarray

    def __post_init__(self):
        rho = densmat.check_square(np.array(self.rho, dtype=complex))
        rho.setflags(write=False)
        object.__setattr__(self, "rho", rho)
        sigma = self.sigma
        if np.any(sigma < -CENTRAL_TOL):
            raise ValueError("pointer weights must be nonnegative")
        if abs(float(np.sum(sigma)) - 1.0) > 1e-12:
            raise ValueError(f"pointer weights sum to {np.sum(sigma)}, not 1")
        densmat.check_density_matrix(rho)

    def __eq__(self, other):
        return isinstance(other, CentralState) and np.array_equal(self.rho, other.rho)

    @property
    def sigma(self) -> np.ndarray:
        """Pointer weights sigma_i, the real diagonal of rho."""
        return self.rho.diagonal().real

    @property
    def d_s(self) -> int:
        return self.rho.shape[0]

    def shannon_entropy(self) -> float:
        """Shannon entropy H[{sigma_i}] of the pointer weights, in bits."""
        s = self.sigma[self.sigma > 1e-15]
        return float(-np.sum(s * np.log2(s)))


@dataclass(frozen=True)
class BranchEnsemble:
    """Branch states per observed environment plus dephasing magnitudes.

    branches[k][i] is the state of observed environment k conditional on
    pointer index i.  gamma_mags[i, j] is the product over the unobserved
    environments of the per-environment dephasing-factor magnitudes for
    the pair (i, j), a number in [0, 1]; only i != j is used.
    """

    branches: tuple  # tuple over k of tuple over i of ndarray
    gamma_mags: np.ndarray

    def __post_init__(self):
        counts = {len(b) for b in self.branches}
        if len(counts) > 1:
            raise ValueError("every environment needs one branch state per pointer index")
        mags = np.asarray(self.gamma_mags, dtype=float)
        bad = mags[~((mags >= -1e-12) & (mags <= 1.0 + 1e-12))]  # NaN too
        if bad.size:
            raise ValueError(f"dephasing magnitude {bad[0]} outside [0, 1]")

    @property
    def n_env(self) -> int:
        return len(self.branches)


@dataclass(frozen=True)
class ProjectorFamily:
    """One complete projector set per observed environment.

    families[k] lists projectors P_i, one per pointer index, Hermitian
    idempotent, mutually orthogonal and summing to the identity (rank-zero
    members are allowed).
    """

    families: tuple  # tuple over k of sequence of ndarray

    def __post_init__(self):
        for fam in self.families:
            dim = fam[0].shape[0]
            total = np.zeros((dim, dim), dtype=complex)
            for p in fam:
                if densmat.hermiticity_defect(p) > PROJECTOR_TOL:
                    raise ValueError("projector is not Hermitian")
                if np.max(np.abs(p @ p - p)) > PROJECTOR_TOL:
                    raise ValueError("projector is not idempotent")
                total += p
            if np.max(np.abs(total - np.eye(dim))) > PROJECTOR_TOL:
                raise ValueError("projector family does not sum to the identity")


@dataclass(frozen=True)
class SBSState:
    """Ideal broadcast state: weights, projected branch states, normalization.

    states[k][i] is the renormalized projected branch (None when the branch
    carries zero weight); eta_norm is the total projected weight
    sum_i sigma_i prod_k p_i^(k) before renormalization.
    """

    weights: tuple
    states: tuple
    eta_norm: float

    def to_matrix(self) -> np.ndarray:
        d_s = len(self.weights)
        blocks = None
        for i, w in enumerate(self.weights):
            if w <= 0.0:
                continue
            env = np.array([[1.0 + 0.0j]])
            for k in range(len(self.states)):
                if self.states[k][i] is None:
                    raise ValueError(f"branch {i} has weight {w} but no state for environment {k}")
                env = densmat.tensor(env, self.states[k][i])
            proj = np.zeros((d_s, d_s), dtype=complex)
            proj[i, i] = 1.0
            term = w * densmat.tensor(proj, env)
            blocks = term if blocks is None else blocks + term
        return blocks


def _off_diagonal(a: np.ndarray) -> np.ndarray:
    """Entries a[i, j], i != j, of a square array in row-major order."""
    return a[~np.eye(a.shape[0], dtype=bool)]


def collective_gamma(central: CentralState, gamma_mags: np.ndarray) -> float:
    """Coherence weight Gamma = sum_{i != j} |sigma_ij| prod_k |gamma_ij^(k)|.

    gamma_mags[i, j] is the product of dephasing magnitudes over the
    unobserved environments for the pair (i, j).
    """
    return float(np.sum(_off_diagonal(np.abs(central.rho) * gamma_mags)))


def discrimination_error(
    weights: Sequence[float],
    states: Sequence[np.ndarray],
    projectors: Sequence[np.ndarray],
) -> float:
    """Cumulative error sum_i w_i Tr[rho_i (1 - P_i)] of one local measurement.

    Zero iff each projector contains the support of its branch state.
    """
    if not (len(weights) == len(states) == len(projectors)):
        raise ValueError("weights, states and projectors must have matching lengths")
    dim = states[0].shape[0]
    total_proj = np.zeros((dim, dim), dtype=complex)
    for p in projectors:
        total_proj += p
    if np.max(np.abs(total_proj - np.eye(dim))) > PROJECTOR_TOL:
        raise ValueError("projector family does not sum to the identity")
    err = 0.0
    for w, rho, p in zip(weights, states, projectors):
        err += float(w) * float(np.real(np.trace(rho @ (np.eye(dim) - p))))
    return max(err, 0.0)


def build_sbs(
    central: CentralState, branches: BranchEnsemble, projectors: ProjectorFamily
) -> SBSState:
    """Cut the coherences and project each branch on its measurement sector.

    Weights come out proportional to sigma_i prod_k p_i^(k) with
    p_i^(k) = Tr[P_i rho_i^(k)]; each surviving branch state is
    P rho P / p_i^(k).  When the projectors already contain the branch
    supports this returns the branches unchanged with weights sigma_i.
    """
    if len(projectors.families) != branches.n_env:
        raise ValueError("one projector family per observed environment required")
    d_s = central.d_s
    succ = np.ones((branches.n_env, d_s))
    projected = []
    for k, (branch_k, fam_k) in enumerate(zip(branches.branches, projectors.families)):
        if len(branch_k) != d_s or len(fam_k) != d_s:
            raise ValueError("need one branch state and one projector per pointer index")
        row = []
        for i in range(d_s):
            p = fam_k[i]
            cut = p @ branch_k[i] @ p
            # rounding can leave a branch orthogonal to its projector with a
            # tiny negative trace; treat anything at that scale as zero
            prob = max(float(np.real(np.trace(cut))), 0.0)
            if prob < PROJECTOR_TOL:
                prob = 0.0
            succ[k, i] = prob
            row.append(cut / prob if prob > 0.0 else None)
        projected.append(tuple(row))

    r = np.prod(succ, axis=0)
    sigma = np.asarray(central.sigma, dtype=float)
    eta_norm = float(np.sum(sigma * r))
    if eta_norm <= 0.0:
        raise DegenerateSBSError(
            "all projected branch weights vanish; the measurement family is "
            "orthogonal to every branch"
        )
    weights = sigma * r / eta_norm
    return SBSState(tuple(float(w) for w in weights), tuple(projected), eta_norm)


def prop1_bound(gamma: float, pe_list: Sequence[float]) -> float:
    """Additive distance bound Gamma + sum_k p_E^(k)."""
    if gamma < 0 or any(p < 0 for p in pe_list):
        raise ValueError("bound ingredients must be nonnegative")
    return float(gamma + sum(pe_list))


def barnum_knill_bound(weights: Sequence[float], pairwise_fidelities: np.ndarray) -> float:
    """Pairwise-fidelity bound sum_{i != j} sqrt(w_i w_j) B(rho_i, rho_j)
    on the optimal discrimination error of an ensemble.

    pairwise_fidelities[i, j] is B(rho_i, rho_j).
    """
    w = np.asarray(weights, dtype=float)
    return float(np.sum(_off_diagonal(np.sqrt(np.outer(w, w)) * pairwise_fidelities)))


def cor1_eta(central: CentralState, gamma: float, pair_fidelities: np.ndarray) -> float:
    """Measurement-free bound eta = Gamma + sum_{i!=j} sqrt(sigma_i sigma_j)
    sum_k B[rho_i^(k), rho_j^(k)].

    pair_fidelities[k, i, j] is the fidelity of branches i and j of
    observed environment k.
    """
    return float(gamma) + barnum_knill_bound(central.sigma, np.sum(pair_fidelities, axis=0))


def binary_entropy(x: float) -> float:
    """h(x) = -x log2 x - (1-x) log2(1-x) with h(0) = h(1) = 0."""
    if not (0.0 <= x <= 1.0):
        raise ValueError(f"binary entropy argument {x} outside [0, 1]")
    if x == 0.0 or x == 1.0:
        return 0.0
    return float(-x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x))


def cor2_bound(eps_or_eta: float, d_s: int) -> tuple[float, bool]:
    """Information-gap bound F(x) = 4 h(2x) + 2 h(x) + 10 x log2(d_S).

    Returns (F(x), x <= 1/4); the bound is only asserted when the validity
    flag is set.  Beyond x = 1/2 the h(2x) term leaves its domain and the
    bound degenerates to +inf.
    """
    if eps_or_eta < 0:
        raise ValueError("argument must be >= 0")
    valid = eps_or_eta <= COR2_VALIDITY
    if eps_or_eta > 0.5:
        return math.inf, False
    bound = (
        4.0 * binary_entropy(2.0 * eps_or_eta)
        + 2.0 * binary_entropy(eps_or_eta)
        + 10.0 * eps_or_eta * math.log2(d_s)
    )
    return bound, valid


def mutual_information(
    rho: np.ndarray, factor_dims: Sequence[int], system_factors: Sequence[int]
) -> float:
    """Quantum mutual information I = S(rho_S) + S(rho_rest) - S(rho), in bits.

    system_factors selects which tensor factors make up the system; the
    remaining factors form the observed fraction.
    """
    system_factors = sorted(set(int(k) for k in system_factors))
    rest = [k for k in range(len(factor_dims)) if k not in system_factors]
    if not system_factors or not rest:
        raise ValueError("split must leave factors on both sides")
    rho_s = densmat.partial_trace(rho, factor_dims, system_factors)
    rho_f = densmat.partial_trace(rho, factor_dims, rest)
    return (
        densmat.von_neumann_entropy(rho_s)
        + densmat.von_neumann_entropy(rho_f)
        - densmat.von_neumann_entropy(rho)
    )


def fifty_fifty_error(trace_dist: float) -> float:
    """Best error probability for equal-prior global discrimination,
    (1/2)(1 - ||difference||_1 / 2), from the full trace norm in [0, 2]."""
    if not (0.0 <= trace_dist <= 2.0 + 1e-12):
        raise ValueError(f"trace norm {trace_dist} outside [0, 2]")
    return 0.5 * (1.0 - 0.5 * trace_dist)
