"""Brute-force exact simulator on small instances.

Everything here works with explicit matrices: the joint state of the
central system and every bath spin is built, evolved by the exact branch
unitaries and partially traced numerically.  No closed form from
:mod:`sbskit.spin_model` enters the computation, so agreement between the
two routes certifies the closed forms and the unitary convention, and the
assembled states provide exact trace-distance and mutual-information
checks for every bound in :mod:`sbskit.sbs_core`.

The oracle works on blocks of instances that share d_s and their spin
counts: every step is one stacked call over instances, spins, environments
and pointer pairs, and one instance is a block of one.  A block of B
instances gives, bit for bit, the results of B blocks of one.

Convention: the interaction couples the central pointer observable
A = sum_i a_i |i><i| to sum_k g_k sigma_z^(k) / 2, giving branch unitaries
U_i^(k)(t) = exp(-i a_i g_k t sigma_z / 2).  A d_s-level pointer has the
eigenvalues a = linspace(-1, 1, d_s): (-1, +1) for a qubit, under which
branch index 0 evolves by exp(+i g t sigma_z / 2) as required by the
closed forms, and (-1, 0, +1) for a qutrit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import densmat, sbs_core
from .discrimination import helstrom_pair
from .ensemble import MeasureSpec, draw_spin_arrays, sample_rows
from .sbs_core import CentralState, ProjectorFamily, SBSState
from .spin_model import SpinParams, initial_spin_state

DIMENSION_CAP = 4096
# instances per evaluate_instance call over a corpus: a block of 8 qubit
# instances with 6 spins holds one 2 MiB stack of joint states
ORACLE_BLOCK = 8


def env_unitary(i, g, t, d_s: int) -> np.ndarray:
    """exp(-i a_i g t sigma_z / 2) for the pointer eigenvalues
    a = linspace(-1, 1, d_s); i, g and t broadcast to a stack (..., 2, 2)."""
    a = np.linspace(-1.0, 1.0, d_s)[i]
    phase = -0.5j * a * g * t
    u = np.zeros(np.shape(phase) + (2, 2), dtype=complex)
    u[..., 0, 0] = np.exp(phase)
    u[..., 1, 1] = np.exp(-phase)
    return u


@dataclass(frozen=True)
class OracleInstance:
    """A block of exactly solvable configurations: central states, spins, times.

    The B instances of a block share d_s and their spin counts:
    central.rho is (B, d_s, d_s), observed and unobserved are spin records
    whose fields have shape (B, n), one observed environment per observed
    spin, and t is (B,).  One instance is a block of one.
    """

    central: CentralState
    observed: SpinParams
    unobserved: SpinParams
    t: np.ndarray

    def __post_init__(self):
        t = np.array(self.t, dtype=float)
        t.setflags(write=False)
        object.__setattr__(self, "t", t)
        spins = [np.shape(v)[:-1] for r in (self.observed, self.unobserved) for v in vars(r).values()]
        if t.ndim != 1 or any(shape != t.shape for shape in [self.central.rho.shape[:-2]] + spins):
            raise ValueError("a block needs one central state, one row of spins per record and one time per instance")

    @property
    def n_spins(self) -> int:
        return self.observed.g.shape[-1] + self.unobserved.g.shape[-1]

    @property
    def factor_dims(self) -> list[int]:
        return [self.central.d_s] + [2] * self.n_spins


def _rows(spins: SpinParams) -> SpinParams:
    """The record (B, n) as (B, 1, n): per instance one row of spins that
    broadcasts over pointer indices."""
    return SpinParams(*(v[:, None] for v in vars(spins).values()))


def full_joint_state(inst: OracleInstance) -> np.ndarray:
    """U(t) rho(0) U(t)^dagger for the full system-plus-bath product state,
    shape (B, dim, dim).

    The conditional unitaries are all diagonal, so U is a diagonal phase
    vector applied entrywise, in place on the one stack of product states.
    """
    d_s = inst.central.d_s
    dim = d_s * 2 ** inst.n_spins
    if dim > DIMENSION_CAP:
        raise ValueError(f"joint dimension {dim} exceeds cap {DIMENSION_CAP}")
    spins = np.concatenate([initial_spin_state(inst.observed), initial_spin_state(inst.unobserved)], axis=1)
    rho = densmat.tensor(inst.central.rho, *np.swapaxes(spins, 0, 1))
    # per instance and spin, the diagonals of U_0 .. U_{d_s - 1} as a stack
    # of 1 x 2 rows; their tensor product from a unit row is the phase
    # vector of each U_i
    g = np.concatenate([inst.observed.g, inst.unobserved.g], axis=-1)
    u = env_unitary(np.arange(d_s), g[..., None], inst.t[:, None, None], d_s)
    diagonals = np.diagonal(u, axis1=-2, axis2=-1)[..., None, :]
    phases = densmat.tensor(np.ones((d_s, 1, 1)), *np.swapaxes(diagonals, 0, 1)).reshape(-1, dim)
    # the products of (phases[:, None] * rho) * conj(phases)[None, :], in that order
    np.multiply(phases[..., :, None], rho, out=rho)
    np.multiply(rho, phases.conj()[..., None, :], out=rho)
    return rho


def reduced_state_exact(joint: np.ndarray, inst: OracleInstance) -> np.ndarray:
    """Trace out the unobserved spins of the evolved joint states."""
    keep = list(range(1 + inst.observed.g.shape[-1]))
    return densmat.partial_trace(joint, inst.factor_dims, keep)


def branch_state(spin: SpinParams, i, j, t, d_s: int) -> np.ndarray:
    """Cross-branch evolved spin matrix U_i rho(0) U_j^dagger (i = j: a state)
    of a d_s-level pointer.

    A record of one spin gives one 2 x 2 matrix.  A record of spin arrays,
    and pointer indices and times given as arrays, broadcast together to a
    stack of shape (...) + (2, 2).
    """
    u_i = env_unitary(i, spin.g, t, d_s)
    u_j = env_unitary(j, spin.g, t, d_s)
    return u_i @ initial_spin_state(spin) @ np.swapaxes(u_j.conj(), -1, -2)


def gamma_products(inst: OracleInstance) -> np.ndarray:
    """d_s x d_s products over the unobserved spins of Tr[U_i rho U_j^dagger],
    shape (B, d_s, d_s).

    The diagonal is exactly 1: a branch does not dephase against itself.
    """
    d_s = inst.central.d_s
    i, j = np.array(list(itertools.permutations(range(d_s), 2))).reshape(-1, 2).T
    # per instance one row of spins per ordered pair (i, j)
    crossed = branch_state(_rows(inst.unobserved), i[:, None], j[:, None], inst.t[:, None, None], d_s)
    traces = np.trace(crossed, axis1=-2, axis2=-1)
    out = np.ones((len(inst.t), d_s, d_s), dtype=complex)
    out[:, i, j] = np.prod(traces, axis=-1)
    return out


def analytic_reduced_state(inst: OracleInstance) -> np.ndarray:
    """Assemble the partially traced state from branch matrices directly.

    Independent of the partial-trace route: diagonal blocks are products of
    branch states weighted by sigma_i, off-diagonal blocks carry the
    coherence sigma_ij times the unobserved dephasing product times the
    cross-branch matrices U_i rho U_j^dagger.
    """
    d_s = inst.central.d_s
    i, j = np.indices((d_s, d_s)).reshape(2, -1)
    coeff = (inst.central.rho * gamma_products(inst)).reshape(-1, d_s * d_s, 1, 1)
    # per pair (i, j): |i><j| and the cross-branch matrices of every observed spin
    unit = np.zeros((d_s * d_s, d_s, d_s), dtype=complex)
    unit[np.arange(d_s * d_s), i, j] = 1.0
    crossed = branch_state(_rows(inst.observed), i[:, None], j[:, None], inst.t[:, None, None], d_s)
    env = densmat.tensor(np.ones((d_s * d_s, 1, 1)), *np.moveaxis(crossed, -3, 0))
    return np.sum(coeff * densmat.tensor(unit, env), axis=-3)


def branch_ensemble(inst: OracleInstance) -> tuple[np.ndarray, np.ndarray]:
    """(branches, gamma_mags): the observed branch states, a read-only array
    (B, n_observed, d_s, 2, 2) indexed [b, k, i], and the magnitudes of
    gamma_products, (B, d_s, d_s)."""
    gammas = gamma_products(inst)
    i = np.arange(inst.central.d_s)
    spins = SpinParams(*(v[..., None] for v in vars(inst.observed).values()))
    branches = branch_state(spins, i, i, inst.t[:, None, None], inst.central.d_s)
    branches.setflags(write=False)
    return branches, np.abs(gammas)


def exact_epsilon(reduced: np.ndarray, sbs: SBSState):
    """Half trace norm of (actual reduced state - ideal broadcast state),
    one distance per family and instance of sbs (a float for one); NaN for
    a degenerate family, which has no broadcast state."""
    sbs_matrix = sbs.to_matrix()
    if reduced.shape[-2:] != sbs_matrix.shape[-2:]:
        raise ValueError(f"dimension mismatch: {reduced.shape} vs {sbs_matrix.shape}")
    return np.where(sbs.degenerate, np.nan, 0.5 * densmat.trace_norm(reduced - sbs_matrix))[()]


# ---------------------------------------------------------------------------
# projector families for the bound checks

# the family axis of qubit_families; the two Helstrom families come first
QUBIT_FAMILIES = ("helstrom", "helstrom_weighted", "swapped", "coarse", "random")


def qubit_families(central: CentralState, branches: np.ndarray, draws: np.ndarray) -> ProjectorFamily:
    """Two-outcome projector families for a block of qubit central systems,
    stacked along a leading axis in the order of QUBIT_FAMILIES, shape
    (5, B, n_env, 2, 2, 2).

    branches[b, k, i] is the state of observed environment k of instance b
    on pointer branch i.  "helstrom" and "helstrom_weighted" are the
    witnesses; "swapped", "coarse" and "random" are deliberately bad
    measurements the additive bound must still dominate.  draws[b, k] holds
    the normal draws of the random projector of environment k: a real and
    an imaginary pair, in stream order.
    """
    if central.d_s != 2:
        raise ValueError("qubit_families requires a two-level central system")
    rho_0, rho_1 = branches[..., 0, :, :], branches[..., 1, :, :]
    plain = helstrom_pair(rho_0, rho_1)
    # each instance's pointer weights, broadcast over its environments
    weighted = helstrom_pair(rho_0, rho_1, weights=tuple(central.sigma.T[..., None, None, None]))
    eye = np.eye(2, dtype=complex)
    coarse = np.broadcast_to([eye, np.zeros_like(eye)], plain.shape)
    v = draws[..., 0, :] + 1j * draws[..., 1, :]
    v = v / np.linalg.norm(v, axis=-1, keepdims=True)
    p = v[..., :, None] * v.conj()[..., None, :]
    return ProjectorFamily(np.stack([plain, weighted, plain[..., ::-1, :, :], coarse, np.stack([p, eye - p], axis=-3)]))


@dataclass(frozen=True)
class InstanceReport:
    """Exact distances and bounds of a block of B instances.

    epsilon, prop1, disturbance and degenerate are (5, B): one entry per
    family of the stacked families, in the order of QUBIT_FAMILIES, and
    instance; prop1 is the additive bound and disturbance its sound form.
    A degenerate family has no broadcast state and a NaN epsilon.
    eta_cor1, epsilon_witness, info_gap, cor2 and cor2_applicable are (B,):
    cor2 is the bound F(epsilon_witness) on the information gap |I - H_S|,
    asserted where cor2_applicable (epsilon_witness <= 1/4).
    """

    eta_cor1: np.ndarray
    degenerate: np.ndarray
    epsilon: np.ndarray
    prop1: np.ndarray
    disturbance: np.ndarray
    epsilon_witness: np.ndarray
    info_gap: np.ndarray
    cor2: np.ndarray
    cor2_applicable: np.ndarray


def evaluate_instance(inst: OracleInstance, draws: np.ndarray) -> InstanceReport:
    """Run every bound check on a block of qubit instances with exact matrices.

    draws[b] are the normal draws of instance b's random family (see
    qubit_families).  The witness epsilon for the measurement-free bound is
    the smaller of the plain and prior-weighted Helstrom family distances.
    The plain family can be degenerate (a pure pointer state whose branches
    coincide on an environment); the prior-weighted one cannot, up to the
    tie tolerance (it would need sigma_0 rho_0 <= sigma_1 rho_1 on one
    environment and the reverse on another), so the witness is finite.
    """
    # the joint states are dropped as soon as they are traced
    reduced = reduced_state_exact(full_joint_state(inst), inst)
    central = inst.central
    branches, gamma_mags = branch_ensemble(inst)
    gamma = sbs_core.collective_gamma(central, gamma_mags)

    d_s = central.d_s
    i, j = np.triu_indices(d_s, 1)
    fids = np.ones(branches.shape[:-3] + (d_s, d_s))
    fids[..., i, j] = fids[..., j, i] = densmat.fidelity(branches[..., i, :, :], branches[..., j, :, :])
    eta = sbs_core.cor1_eta(central, gamma, fids)

    # one stacked call each over every family and instance: broadcast states, distances, errors
    families = qubit_families(central, branches, draws)
    sbs = sbs_core.build_sbs(central, branches, families)
    eps = exact_epsilon(reduced, sbs)
    pe = sbs_core.discrimination_error(central.sigma[:, None, :], branches, families.families)
    witness = np.fmin(eps[0], eps[1])

    info = sbs_core.mutual_information(reduced, inst.factor_dims[: 1 + inst.observed.g.shape[-1]])
    gap = np.abs(info - central.shannon_entropy())
    cor2, applicable = sbs_core.cor2_bound(witness, d_s)
    prop1 = sbs_core.prop1_bound(gamma, pe)
    disturbance = sbs_core.disturbance_bound(gamma, central.sigma, branches, families.families)
    return InstanceReport(eta, sbs.degenerate, eps, prop1, disturbance, witness, gap, cor2, applicable)


# ---------------------------------------------------------------------------
# random instance generation


def random_central(rng: np.random.Generator, d_s: int = 2) -> np.ndarray:
    """Random central density matrix with coherences c sqrt(sigma_i sigma_j).

    Mixing diag(sigma) with the matching pure superposition keeps the
    result PSD for any c in [0, 1] and any dimension.
    """
    if d_s == 2:
        s0 = float(rng.uniform(0.0, 1.0))
        sigma = np.array([s0, 1.0 - s0])
    else:
        draws = rng.uniform(0.0, 1.0, d_s)
        sigma = -np.log(np.clip(draws, 1e-300, None))
        sigma = sigma / np.sum(sigma)
    c = float(rng.uniform(0.0, 1.0))
    rho = c * np.sqrt(np.outer(sigma, sigma))
    np.fill_diagonal(rho, sigma)
    return rho


def random_instance(
    seed: int, indices: Sequence[int], n_observed: int = 3, n_unobserved: int = 3, d_s: int = 2
) -> OracleInstance:
    """Instances indices[0], indices[1], ... of a seeded corpus as one block.

    Instance i draws from its own stream (label 5, i): its central state,
    then its spins, then its time in [0, 2 pi).
    """
    measure = MeasureSpec()

    def draw(rng: np.random.Generator) -> tuple:
        rho = random_central(rng, d_s)
        return (rho, *draw_spin_arrays(measure, rng, n_observed + n_unobserved), rng.uniform(0.0, 2.0 * math.pi))

    rho, *spins, t = sample_rows(seed, 5, indices, draw)
    return OracleInstance(
        CentralState(rho),
        SpinParams(*(v[:, :n_observed] for v in spins)),
        SpinParams(*(v[:, n_observed:] for v in spins)),
        t,
    )
