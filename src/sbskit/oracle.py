"""Brute-force exact simulator on small instances.

Everything here works with explicit matrices: the joint state of the
central system and every bath spin is built, evolved by the exact branch
unitaries and partially traced numerically.  No closed form from
:mod:`sbskit.spin_model` enters the computation, so agreement between the
two routes certifies the closed forms and the unitary convention, and the
assembled states provide exact trace-distance and mutual-information
checks for every bound in :mod:`sbskit.sbs_core`.  An instance holds its
observed and its unobserved spins as one spin record each, and every step
is one stacked call over spins, environments and pointer pairs.

Convention: the interaction couples the central pointer observable
A = sum_i a_i |i><i| to sum_k g_k sigma_z^(k) / 2, giving branch unitaries
U_i^(k)(t) = exp(-i a_i g_k t sigma_z / 2).  The default qubit pointer
eigenvalues are a = (-1, +1), under which branch index 0 evolves by
exp(+i g t sigma_z / 2) as required by the closed forms.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import densmat, sbs_core
from .discrimination import helstrom_pair
from .ensemble import MeasureSpec, sample_spin_arrays, sample_stream
from .sbs_core import BranchEnsemble, CentralState, ProjectorFamily, SBSState
from .spin_model import SpinParams, initial_spin_state

DIMENSION_CAP = 4096


@dataclass(frozen=True)
class InteractionSpec:
    """Pointer eigenvalues of the central observable.

    Per-environment coupling operators are fixed to g_k sigma_z / 2 with
    g_k taken from each spin record; branch unitaries are
    exp(-i a_i g_k t sigma_z / 2), so under the default eigenvalues index 0
    advances by exp(+i g t sigma_z / 2).
    """

    pointer_eigenvalues: tuple = (-1.0, 1.0)

    @property
    def d_s(self) -> int:
        return len(self.pointer_eigenvalues)

    def env_unitary(self, i, g, t) -> np.ndarray:
        """exp(-i a_i g t sigma_z / 2); i, g and t broadcast to a stack (..., 2, 2)."""
        a = np.asarray(self.pointer_eigenvalues)[i]
        phase = -0.5j * a * g * t
        u = np.zeros(np.shape(phase) + (2, 2), dtype=complex)
        u[..., 0, 0] = np.exp(phase)
        u[..., 1, 1] = np.exp(-phase)
        return u


@dataclass(frozen=True)
class OracleInstance:
    """One exactly solvable configuration: central state, spins, time.

    observed and unobserved are spin records whose fields have shape (n,):
    one observed environment per observed spin.
    """

    central: CentralState
    observed: SpinParams
    unobserved: SpinParams
    t: float
    interaction: InteractionSpec = field(default_factory=InteractionSpec)

    @property
    def n_spins(self) -> int:
        return len(self.observed.g) + len(self.unobserved.g)

    @property
    def factor_dims(self) -> list[int]:
        return [self.central.d_s] + [2] * self.n_spins


def full_joint_state(inst: OracleInstance) -> np.ndarray:
    """U(t) rho(0) U(t)^dagger for the full system-plus-bath product state.

    The conditional unitaries are all diagonal, so U is a diagonal phase
    vector applied entrywise.
    """
    d_s = inst.central.d_s
    dim = d_s * 2 ** inst.n_spins
    if dim > DIMENSION_CAP:
        raise ValueError(f"joint dimension {dim} exceeds cap {DIMENSION_CAP}")
    rho0 = densmat.tensor(inst.central.rho, *initial_spin_state(inst.observed), *initial_spin_state(inst.unobserved))
    # per spin, the diagonals of U_0 .. U_{d_s - 1} as a stack of 1 x 2 rows;
    # their tensor product from a unit row is the phase vector of each U_i
    g = np.concatenate([inst.observed.g, inst.unobserved.g])
    diagonals = np.diagonal(inst.interaction.env_unitary(np.arange(d_s), g[:, None], inst.t), axis1=-2, axis2=-1)
    phases = densmat.tensor(np.ones((d_s, 1, 1)), *diagonals[:, :, None]).reshape(dim)
    return (phases[:, None] * rho0) * phases.conj()[None, :]


def reduced_state_exact(joint: np.ndarray, inst: OracleInstance) -> np.ndarray:
    """Trace out the unobserved spins of the evolved joint state."""
    keep = list(range(1 + len(inst.observed.g)))
    return densmat.partial_trace(joint, inst.factor_dims, keep)


def branch_state(spin: SpinParams, inter: InteractionSpec, i, j, t) -> np.ndarray:
    """Cross-branch evolved spin matrix U_i rho(0) U_j^dagger (i = j: a state).

    A record of one spin gives one 2 x 2 matrix.  A record of spin arrays,
    and pointer indices and times given as arrays, broadcast together to a
    stack of shape (...) + (2, 2).
    """
    u_i = inter.env_unitary(i, spin.g, t)
    u_j = inter.env_unitary(j, spin.g, t)
    return u_i @ initial_spin_state(spin) @ np.swapaxes(u_j.conj(), -1, -2)


def gamma_products(inst: OracleInstance) -> np.ndarray:
    """d_s x d_s products over the unobserved spins of Tr[U_i rho U_j^dagger].

    The diagonal is exactly 1: a branch does not dephase against itself.
    """
    d_s = inst.central.d_s
    i, j = np.array(list(itertools.permutations(range(d_s), 2))).reshape(-1, 2).T
    # one row of spins per ordered pair (i, j)
    traces = np.trace(branch_state(inst.unobserved, inst.interaction, i[:, None], j[:, None], inst.t), axis1=-2, axis2=-1)
    out = np.ones((d_s, d_s), dtype=complex)
    # a running product from 1 along each contiguous row of spins rounds as a
    # loop over the spins does; an elementwise product of rows may not
    out[i, j] = np.multiply.reduce(traces, axis=-1, initial=1.0 + 0.0j)
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
    coeff = (inst.central.rho * gamma_products(inst)).reshape(-1, 1, 1)
    # per pair (i, j): |i><j| and the cross-branch matrices of every observed spin
    unit = np.zeros((d_s * d_s, d_s, d_s), dtype=complex)
    unit[np.arange(d_s * d_s), i, j] = 1.0
    crossed = branch_state(inst.observed, inst.interaction, i[:, None], j[:, None], inst.t)
    env = densmat.tensor(np.ones((d_s * d_s, 1, 1)), *np.swapaxes(crossed, 0, 1))
    return np.sum(coeff * densmat.tensor(unit, env), axis=0)


def observed_branches(inst: OracleInstance) -> np.ndarray:
    """Branch states of the observed environments, shape (n_observed, d_s, 2, 2)."""
    i = np.arange(inst.central.d_s)[:, None]
    return np.swapaxes(branch_state(inst.observed, inst.interaction, i, i, inst.t), 0, 1)


def branch_ensemble(inst: OracleInstance) -> BranchEnsemble:
    gammas = gamma_products(inst)
    # hypot per entry, as Python's abs of a complex number: np.abs of a
    # complex array can differ from it in the last bit
    return BranchEnsemble(observed_branches(inst), np.hypot(gammas.real, gammas.imag))


def exact_epsilon(reduced: np.ndarray, sbs: SBSState):
    """Half trace norm of (actual reduced state - ideal broadcast state),
    one distance per family of sbs (a float for one family)."""
    sbs_matrix = sbs.to_matrix()
    if reduced.shape != sbs_matrix.shape[-2:]:
        raise ValueError(f"dimension mismatch: {reduced.shape} vs {sbs_matrix.shape}")
    return 0.5 * densmat.trace_norm(reduced - sbs_matrix)


# ---------------------------------------------------------------------------
# projector families for the bound checks

# the family axis of qubit_families; the two Helstrom families come first
QUBIT_FAMILIES = ("helstrom", "helstrom_weighted", "swapped", "coarse", "random")


def qubit_families(central: CentralState, branches: np.ndarray, rng: np.random.Generator) -> ProjectorFamily:
    """Two-outcome projector families for a qubit central system, stacked
    along a leading axis in the order of QUBIT_FAMILIES.

    branches[k, i] is the state of observed environment k on pointer
    branch i.  "helstrom" and "helstrom_weighted" are the witnesses;
    "swapped", "coarse" and "random" (drawn from rng) are deliberately bad
    measurements the additive bound must still dominate.
    """
    if central.d_s != 2:
        raise ValueError("qubit_families requires a two-level central system")
    sigma = central.sigma
    n_env = len(branches)
    plain = helstrom_pair(branches[:, 0], branches[:, 1]).family()
    weighted = helstrom_pair(branches[:, 0], branches[:, 1], weights=(float(sigma[0]), float(sigma[1]))).family()
    eye = np.eye(2, dtype=complex)
    coarse = np.broadcast_to([eye, np.zeros_like(eye)], (n_env, 2, 2, 2))
    # per environment a real and an imaginary normal pair, in stream order
    draws = rng.normal(size=(n_env, 2, 2))
    v = draws[:, 0] + 1j * draws[:, 1]
    # the dot products np.linalg.norm takes for one complex vector
    v = v / np.sqrt(np.vecdot(v.real, v.real) + np.vecdot(v.imag, v.imag))[:, None]
    p = v[:, :, None] * v.conj()[:, None, :]
    return ProjectorFamily(np.stack([plain, weighted, plain[:, ::-1], coarse, np.stack([p, eye - p], axis=1)]))


@dataclass(frozen=True)
class InstanceReport:
    """Exact distances and bounds of one instance.

    epsilon and prop1 hold one entry per family of the stacked families,
    in the order of QUBIT_FAMILIES; cor2 is (F(epsilon_witness), whether
    epsilon_witness <= 1/4) for the information gap |I - H_S|.
    """

    gamma: float
    eta_cor1: float
    families: ProjectorFamily
    epsilon: np.ndarray
    prop1: np.ndarray
    epsilon_witness: float
    info_gap: float
    cor2: tuple
    branches: np.ndarray  # observed branch states, indexed [k, i]

    @property
    def cor1_margin(self) -> float:
        """eta - witness epsilon; the measurement-free bound holds iff >= 0."""
        return self.eta_cor1 - self.epsilon_witness


def evaluate_instance(inst: OracleInstance, rng: np.random.Generator) -> InstanceReport:
    """Run every bound check on one instance with exact matrices.

    The witness epsilon for the measurement-free bound is the smaller of
    the plain and prior-weighted Helstrom family distances.
    """
    joint = full_joint_state(inst)
    reduced = reduced_state_exact(joint, inst)
    ensemble = branch_ensemble(inst)
    gamma = sbs_core.collective_gamma(inst.central, ensemble.gamma_mags)

    branches = ensemble.branches
    d_s = inst.central.d_s
    i, j = np.triu_indices(d_s, 1)
    fids = np.ones((len(branches), d_s, d_s))
    fids[:, i, j] = fids[:, j, i] = densmat.fidelity(branches[:, i], branches[:, j])
    eta = sbs_core.cor1_eta(inst.central, gamma, fids)

    # one stacked call each over every family: broadcast states, distances, errors
    families = qubit_families(inst.central, branches, rng)
    eps = exact_epsilon(reduced, sbs_core.build_sbs(inst.central, ensemble, families))
    pe = sbs_core.discrimination_error(inst.central.sigma, branches, families.families)
    eps_witness = min(eps[:2].tolist())

    info = sbs_core.mutual_information(reduced, inst.factor_dims[: 1 + len(inst.observed.g)], [0])
    gap = abs(info - inst.central.shannon_entropy())
    cor2 = sbs_core.cor2_bound(eps_witness, inst.central.d_s)
    return InstanceReport(gamma, eta, families, eps, sbs_core.prop1_bound(gamma, pe), eps_witness, gap, cor2, branches)


# ---------------------------------------------------------------------------
# random instance generation


def random_central(rng: np.random.Generator, d_s: int = 2) -> CentralState:
    """Random central state with coherences c sqrt(sigma_i sigma_j).

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
    return CentralState(rho)


def random_instance(
    seed: int,
    index: int,
    n_observed: int = 3,
    n_unobserved: int = 3,
    t_max: float = 2.0 * math.pi,
    d_s: int = 2,
    measure: MeasureSpec | None = None,
) -> OracleInstance:
    """Instance index of a seeded corpus: random central state, spins, time."""
    rng = sample_stream(seed, index, label=5)
    measure = measure or MeasureSpec()
    central = random_central(rng, d_s)
    batch = vars(sample_spin_arrays(measure, rng, n_observed + n_unobserved)).values()
    t = float(rng.uniform(0.0, t_max))
    eigs = (-1.0, 1.0) if d_s == 2 else tuple(float(a) for a in np.linspace(-1.0, 1.0, d_s))
    return OracleInstance(
        central,
        SpinParams(*(v[:n_observed] for v in batch)),
        SpinParams(*(v[n_observed:] for v in batch)),
        t,
        InteractionSpec(eigs),
    )
