"""Array SBS records and the stacked oracle against the loop versions they
replaced.

The reference functions below are the per-environment, per-branch and
per-matrix loops of the earlier tuple records, kept verbatim apart from
taking their record fields as arguments and spelling densmat.tensor as the
np.kron chain it was.  The array code is held to exact equality with them.
"""

import itertools

import numpy as np
import pytest

from sbskit import densmat, oracle, sbs_core, verify
from sbskit.discrimination import helstrom_pair
from sbskit.sbs_core import BranchEnsemble, CentralState, DegenerateSBSError, ProjectorFamily, build_sbs
from sbskit.spin_model import initial_spin_state

SEED = verify.DEFAULT_SEED


def _loop_to_matrix(weights, states) -> np.ndarray:
    """SBSState.to_matrix over states[k][i], skipping zero-weight branches."""
    d_s = len(weights)
    blocks = None
    for i, w in enumerate(weights):
        if w <= 0.0:
            continue
        env = np.array([[1.0 + 0.0j]])
        for k in range(len(states)):
            env = np.kron(env, states[k][i])
        proj = np.zeros((d_s, d_s), dtype=complex)
        proj[i, i] = 1.0
        term = w * np.kron(proj, env)
        blocks = term if blocks is None else blocks + term
    return blocks


def _loop_env_unitary(inter, i, g, t) -> np.ndarray:
    a = inter.pointer_eigenvalues[i]
    phase = -0.5j * a * g * t
    return np.diag([np.exp(phase), np.exp(-phase)])


def _loop_branch_state(spin, inter, i, j, t) -> np.ndarray:
    u_i = _loop_env_unitary(inter, i, spin.g, t)
    u_j = _loop_env_unitary(inter, j, spin.g, t)
    return u_i @ initial_spin_state(spin) @ u_j.conj().T


def _loop_branch_ensemble(inst):
    """(branches[k][i], |gamma| products) one spin and one pair at a time."""
    d_s = inst.central.d_s
    gammas = np.ones((d_s, d_s), dtype=complex)
    for i, j in itertools.permutations(range(d_s), 2):
        for spin in inst.unobserved:
            gammas[i, j] *= np.trace(_loop_branch_state(spin, inst.interaction, i, j, inst.t))
    branches = [[_loop_branch_state(spin, inst.interaction, i, i, inst.t) for i in range(d_s)] for spin in inst.observed]
    return branches, np.array([[abs(complex(v)) for v in row] for row in gammas])


def _loop_full_joint_state(inst) -> np.ndarray:
    """full_joint_state through np.kron, one pointer index at a time."""
    d_s = inst.central.d_s
    dim = d_s * 2 ** inst.n_spins
    rho0 = inst.central.rho
    for spin in inst.spins:
        rho0 = np.kron(rho0, initial_spin_state(spin))
    phases = np.empty(dim, dtype=complex)
    block = 2 ** inst.n_spins
    for i in range(d_s):
        u = np.array([1.0 + 0.0j])
        for spin in inst.spins:
            u = np.kron(u, np.diag(_loop_env_unitary(inst.interaction, i, spin.g, inst.t)))
        phases[i * block : (i + 1) * block] = u
    return (phases[:, None] * rho0) * phases.conj()[None, :]


def _loop_hermiticity_defect(a) -> float:
    return float(np.max(np.abs(a - a.conj().T))) if a.size else 0.0


def _loop_trace_norm(a) -> float:
    a = densmat.check_square(a)
    if _loop_hermiticity_defect(a) <= densmat.STATE_TOL:
        return float(np.sum(np.abs(np.linalg.eigvalsh(a))))
    return float(np.sum(np.linalg.svd(a, compute_uv=False)))


def _loop_disturbance_sum(gamma, sigma, branches, families) -> float:
    """Gamma + sum_k sum_i sigma_i ||rho_i - P rho_i P||_1, one family."""
    total = gamma
    for k, fam_k in enumerate(families):
        for i, p in enumerate(fam_k):
            cut = p @ branches[k][i] @ p
            total += sigma[i] * _loop_trace_norm(branches[k][i] - cut)
    return total


def assert_identical(got, want):
    """Equal values and equal signs of zero, entry by entry."""
    got, want = np.asarray(got), np.asarray(want)
    np.testing.assert_array_equal(got, want)
    for part in (np.real, np.imag):
        np.testing.assert_array_equal(np.signbit(part(got)), np.signbit(part(want)))


def qubit_cases():
    """The first 200 instances of the default corpus with their families."""
    for index in range(200):
        inst = oracle.random_instance(SEED, index)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=SEED, spawn_key=(11, index)))
        ens = oracle.branch_ensemble(inst)
        yield inst, ens, oracle.qubit_families(inst.central, ens.branches, rng)


def qutrit_cases():
    """The qutrit suite's instances with its pairwise and coarse families."""
    zero, eye = np.zeros((2, 2), dtype=complex), np.eye(2, dtype=complex)
    for index in range(40):
        inst = oracle.random_instance(SEED, index, n_observed=2, n_unobserved=2, d_s=3)
        ens = oracle.branch_ensemble(inst)
        families = {
            "pairwise": ProjectorFamily([(*helstrom_pair(row[0], row[1]).family(), zero) for row in ens.branches]),
            "coarse": ProjectorFamily([(eye, zero, zero)] * len(ens.branches)),
        }
        yield inst, ens, families


def check_against_loops(inst, ens, families):
    assert_identical(oracle.full_joint_state(inst), _loop_full_joint_state(inst))
    branches, mags = _loop_branch_ensemble(inst)
    assert_identical(ens.branches, branches)
    assert_identical(ens.gamma_mags, mags)
    gamma = sbs_core.collective_gamma(inst.central, ens.gamma_mags)
    sigma = inst.central.sigma
    stacked = verify._disturbance_sum(gamma, sigma, ens.branches, np.stack([f.families for f in families.values()]))
    for family, bound in zip(families.values(), stacked):
        want = _loop_disturbance_sum(gamma, sigma, ens.branches, family.families)
        assert verify._disturbance_sum(gamma, sigma, ens.branches, family.families) == want
        assert bound == want
        try:
            sbs = build_sbs(inst.central, ens, family)
        except DegenerateSBSError:
            continue
        assert_identical(sbs.to_matrix(), _loop_to_matrix(tuple(float(w) for w in sbs.weights), sbs.states))


class TestAgainstLoopVersions:
    def test_qubit_corpus(self):
        families_seen = set()
        for inst, ens, families in qubit_cases():
            check_against_loops(inst, ens, families)
            families_seen.update(families)
        assert families_seen == {"helstrom", "helstrom_weighted", "swapped", "coarse", "random"}

    def test_qutrit_suite_instances(self):
        for inst, ens, families in qutrit_cases():
            check_against_loops(inst, ens, families)

    def test_coarse_family_has_zero_weight_branches(self):
        # a rank-zero projector leaves its branch a zero matrix of weight 0
        inst, ens, families = next(qubit_cases())
        sbs = build_sbs(inst.central, ens, families["coarse"])
        assert sbs.weights[1] == 0.0
        assert not np.any(sbs.states[:, 1])
        assert_identical(sbs.to_matrix(), _loop_to_matrix(tuple(float(w) for w in sbs.weights), sbs.states))

    def test_degenerate_family(self):
        inst, ens, _ = next(qubit_cases())
        eye, zero = np.eye(2, dtype=complex), np.zeros((2, 2), dtype=complex)
        # every projector of the family is zero on the branch that carries weight
        central = CentralState(np.diag([1.0, 0.0]))
        family = ProjectorFamily([(zero, eye)] * len(ens.branches))
        with pytest.raises(DegenerateSBSError):
            build_sbs(central, ens, family)
        gamma = sbs_core.collective_gamma(central, ens.gamma_mags)
        got = verify._disturbance_sum(gamma, central.sigma, ens.branches, family.families)
        assert got == _loop_disturbance_sum(gamma, central.sigma, ens.branches, family.families)

    def test_trace_norm_route_per_matrix(self):
        rng = np.random.default_rng(91)
        stack = []
        for n in range(24):
            a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            # every other matrix Hermitian: eigvalsh there, svd elsewhere
            stack.append(a + a.conj().T if n % 2 else a)
        stack = np.array(stack)
        hermitian = densmat.hermiticity_defect(stack) <= densmat.STATE_TOL
        assert hermitian.any() and not hermitian.all()
        np.testing.assert_array_equal(densmat.trace_norm(stack), [_loop_trace_norm(a) for a in stack])
        # one matrix gives the loop's float
        assert densmat.trace_norm(stack[0]) == _loop_trace_norm(stack[0])

    def test_stacked_fidelity_matches_pairs(self):
        rng = np.random.default_rng(92)
        g = rng.normal(size=(2, 30, 2, 2)) + 1j * rng.normal(size=(2, 30, 2, 2))
        states = g @ np.swapaxes(g.conj(), -1, -2)
        states /= np.trace(states, axis1=-2, axis2=-1).real[..., None, None]
        got = densmat.fidelity(states[0], states[1])
        np.testing.assert_array_equal(got, [densmat.fidelity(a, b) for a, b in zip(states[0], states[1])])


class TestRecords:
    def test_records_are_read_only_arrays(self):
        inst, ens, families = next(qubit_cases())
        assert ens.branches.shape == (3, 2, 2, 2)
        assert families["helstrom"].families.shape == (3, 2, 2, 2)
        for record in (ens.branches, families["helstrom"].families):
            with pytest.raises(ValueError, match="read-only"):
                record[0, 0, 0, 0] = 1.0

    def test_ragged_branches_rejected(self):
        ket0 = np.diag([1.0 + 0.0j, 0.0j])
        with pytest.raises(ValueError, match="one branch state per pointer index"):
            BranchEnsemble(((ket0, ket0), (ket0,)), np.ones((2, 2)))

    @pytest.mark.parametrize(
        "bad,message",
        [
            (np.array([[0.0, 1.0], [0.0, 0.0]]), "not Hermitian"),
            (np.diag([2.0, 0.0]), "not idempotent"),
            (np.diag([1.0, 1.0]), "identity"),
        ],
    )
    def test_invalid_projector_rejected(self, bad, message):
        good = np.diag([0.0, 1.0])
        with pytest.raises(ValueError, match=message):
            ProjectorFamily([(good, np.eye(2) - good), (bad, good)])
