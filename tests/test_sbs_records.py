"""Array SBS records, the stacked oracle and the stacked kernels against the
loop versions they replaced.

The reference functions below are the per-spin, per-environment,
per-branch and per-matrix loops of the earlier tuple records and one-item
kernels, kept verbatim apart from taking their record fields as arguments,
reading one spin of a record through _spins, reading instance b of a block
and spelling densmat.tensor as the np.kron chain it was.  The array code,
run on blocks of instances, is held within LOOP_ATOL of them: it sums and
multiplies in numpy's order, not the loops'.  A stacked call is held to
exact equality, signs of zero included, with one call per item.
"""

import itertools
import math

import numpy as np
import pytest

from sbskit import cli, densmat, oracle, sbs_core
from sbskit.discrimination import TIE_TOLERANCE, helstrom_pair, helstrom_spin_analytic
from sbskit.sbs_core import CentralState, ProjectorFamily, build_sbs
from sbskit.spin_model import SpinParams, delta, initial_spin_state

SEED = cli.DEFAULT_CONFIG["seed"]
# the array code against the loop references: a few ulps of the order-one entries
LOOP_ATOL = 1e-14


def _spins(record, *row):
    """The spins of a record with fields of shape (n,), or of row b of a
    record (B, n) given b, one record of floats each."""
    return [SpinParams(*(float(v[(*row, j)]) for v in vars(record).values())) for j in range(record.g.shape[-1])]


def _loop_euler_rotation(alpha: float, beta: float, gamma: float) -> np.ndarray:
    c, s = math.cos(beta / 2.0), math.sin(beta / 2.0)
    return np.array(
        [
            [np.exp(-0.5j * (alpha + gamma)) * c, -np.exp(-0.5j * (alpha - gamma)) * s],
            [np.exp(0.5j * (alpha - gamma)) * s, np.exp(0.5j * (alpha + gamma)) * c],
        ]
    )


def _loop_initial_spin_state(p) -> np.ndarray:
    r = _loop_euler_rotation(p.alpha, p.beta, p.gamma_euler)
    return (r * np.array([p.lam, 1.0 - p.lam])) @ r.conj().T


def _loop_helstrom_pair(rho_plus, rho_minus, weights=None) -> np.ndarray:
    rho_plus = densmat.check_square(rho_plus)
    rho_minus = densmat.check_square(rho_minus)
    w_p, w_m = (0.5, 0.5) if weights is None else weights
    diff = w_p * rho_plus - w_m * rho_minus
    w, v = np.linalg.eigh(diff)
    pos = v[:, w > TIE_TOLERANCE]
    p_plus = pos @ pos.conj().T
    dim = rho_plus.shape[0]
    return np.stack([p_plus, np.eye(dim, dtype=complex) - p_plus])


def _loop_helstrom_spin_analytic(p, t: float) -> tuple[np.ndarray, bool]:
    d = delta(p)
    s = math.sin(p.g * t)
    if 2.0 * abs(d) * abs(s) <= TIE_TOLERANCE:
        return np.stack([np.diag([1.0 + 0.0j, 0.0j]), np.diag([0.0j, 1.0 + 0.0j])]), True
    u = 1j * math.copysign(1.0, s) * d / (2.0 * abs(d))
    p_plus = np.array([[0.5, u], [np.conj(u), 0.5]])
    return np.stack([p_plus, np.eye(2, dtype=complex) - p_plus]), False


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


# the pointer eigenvalues of a d_s-level central system, written out
_POINTER_EIGENVALUES = {2: (-1.0, 1.0), 3: (-1.0, 0.0, 1.0)}


def _loop_env_unitary(d_s, i, g, t) -> np.ndarray:
    a = _POINTER_EIGENVALUES[d_s][i]
    phase = -0.5j * a * g * t
    return np.diag([np.exp(phase), np.exp(-phase)])


def _loop_branch_state(spin, d_s, i, j, t) -> np.ndarray:
    u_i = _loop_env_unitary(d_s, i, spin.g, t)
    u_j = _loop_env_unitary(d_s, j, spin.g, t)
    return u_i @ _loop_initial_spin_state(spin) @ u_j.conj().T


def _loop_branch_ensemble(inst, b):
    """(branches[k][i], |gamma| products) of instance b, one spin and one pair at a time."""
    d_s = inst.central.d_s
    t = float(inst.t[b])
    gammas = np.ones((d_s, d_s), dtype=complex)
    for i, j in itertools.permutations(range(d_s), 2):
        for spin in _spins(inst.unobserved, b):
            gammas[i, j] *= np.trace(_loop_branch_state(spin, d_s, i, j, t))
    branches = [[_loop_branch_state(spin, d_s, i, i, t) for i in range(d_s)] for spin in _spins(inst.observed, b)]
    return branches, np.array([[abs(complex(v)) for v in row] for row in gammas])


def _loop_full_joint_state(inst, b) -> np.ndarray:
    """full_joint_state of instance b through np.kron, one pointer index at a time."""
    d_s = inst.central.d_s
    dim = d_s * 2 ** inst.n_spins
    t = float(inst.t[b])
    rho0 = inst.central.rho[b]
    spins = _spins(inst.observed, b) + _spins(inst.unobserved, b)
    for spin in spins:
        rho0 = np.kron(rho0, _loop_initial_spin_state(spin))
    phases = np.empty(dim, dtype=complex)
    block = 2 ** inst.n_spins
    for i in range(d_s):
        u = np.array([1.0 + 0.0j])
        for spin in spins:
            u = np.kron(u, np.diag(_loop_env_unitary(d_s, i, spin.g, t)))
        phases[i * block : (i + 1) * block] = u
    return (phases[:, None] * rho0) * phases.conj()[None, :]


def _loop_hermiticity_defect(a) -> float:
    return float(np.max(np.abs(a - a.conj().T))) if a.size else 0.0


def _loop_trace_norm(a) -> float:
    a = densmat.check_square(a)
    assert _loop_hermiticity_defect(a) <= densmat.STATE_TOL
    return float(np.sum(np.abs(np.linalg.eigvalsh(a))))


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


def assert_close(got, want):
    """Equal shapes and values within LOOP_ATOL, entry by entry."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=0.0, atol=LOOP_ATOL)


def family_draws(indices, n_env=3):
    """The random-family draws of the default corpus instances, each from its own stream."""
    streams = [np.random.default_rng(np.random.SeedSequence(entropy=SEED, spawn_key=(11, i))) for i in indices]
    return np.stack([rng.normal(size=(n_env, 2, 2)) for rng in streams])


def corpus_block(indices, **kw):
    return oracle.random_instance(SEED, indices, **kw)


def qubit_cases():
    """The first 200 instances of the default corpus in blocks of
    oracle.ORACLE_BLOCK, with their stacked families (5, B, ...)."""
    for lo in range(0, 200, oracle.ORACLE_BLOCK):
        indices = range(lo, lo + oracle.ORACLE_BLOCK)
        block = corpus_block(indices)
        branches, mags = oracle.branch_ensemble(block)
        yield block, branches, mags, oracle.qubit_families(block.central, branches, family_draws(indices))


def qutrit_cases():
    """The qutrit suite's instances in blocks with its pairwise and coarse
    families, stacked in that order, (2, B, ...)."""
    zero, eye = np.zeros((2, 2), dtype=complex), np.eye(2, dtype=complex)
    for lo in range(0, 40, oracle.ORACLE_BLOCK):
        block = corpus_block(range(lo, lo + oracle.ORACLE_BLOCK), n_observed=2, n_unobserved=2, d_s=3)
        branches, mags = oracle.branch_ensemble(block)
        pairwise = [[(*_loop_helstrom_pair(row[0], row[1]), zero) for row in rows] for rows in branches]
        coarse = [[(eye, zero, zero)] * branches.shape[1]] * len(block.t)
        yield block, branches, mags, ProjectorFamily([pairwise, coarse])


def one_instance(block, branches, b):
    """Instance b of a block as its own central state and branch states, with no block axis."""
    return CentralState(block.central.rho[b]), branches[b]


def loop_to_matrix(sbs):
    """The loop reference of one family's SBSState."""
    return _loop_to_matrix(tuple(float(w) for w in sbs.weights), sbs.states)


def check_against_loops(block, branches, mags, families):
    """families stacks the families along a leading axis, then the
    instances of the block; each family and instance is built on its own."""
    joint = oracle.full_joint_state(block)
    gamma = sbs_core.collective_gamma(block.central, mags)
    sigma = block.central.sigma
    stacked = sbs_core.disturbance_bound(gamma, sigma, branches, families.families)
    for b in range(len(block.t)):
        assert_identical(joint[b], _loop_full_joint_state(block, b))
        loop_branches, loop_mags = _loop_branch_ensemble(block, b)
        assert_identical(branches[b], loop_branches)
        assert_close(mags[b], loop_mags)
        central, branches_b = one_instance(block, branches, b)
        for family, bound in zip(families.families[:, b], stacked[:, b]):
            one = sbs_core.disturbance_bound(gamma[b], sigma[b], branches[b], family)
            assert bound == one
            assert_close(one, _loop_disturbance_sum(gamma[b], sigma[b], branches[b], family))
            sbs = build_sbs(central, branches_b, ProjectorFamily(family))
            if not sbs.degenerate:
                assert_close(sbs.to_matrix(), loop_to_matrix(sbs))


def report_rows(rep):
    """The arrays of an InstanceReport with the instance axis first."""
    return {
        "eta_cor1": rep.eta_cor1,
        "degenerate": rep.degenerate.T.astype(float),
        "epsilon": rep.epsilon.T,
        "prop1": rep.prop1.T,
        "disturbance": rep.disturbance.T,
        "epsilon_witness": rep.epsilon_witness,
        "info_gap": rep.info_gap,
        "cor2": np.stack([rep.cor2, rep.cor2_applicable], axis=-1).astype(float),
    }


@pytest.fixture(scope="module")
def blocks_of_one():
    """Report rows of the first 43 corpus instances, one instance per call."""
    rows = [report_rows(oracle.evaluate_instance(oracle.random_instance(SEED, [i]), family_draws([i]))) for i in range(43)]
    return {name: np.concatenate([r[name] for r in rows]) for name in rows[0]}


class TestAgainstLoopVersions:
    def test_qubit_corpus(self):
        for block, branches, mags, families in qubit_cases():
            check_against_loops(block, branches, mags, families)
            for b, sigma in enumerate(block.central.sigma):
                for name, weights in (("helstrom", None), ("helstrom_weighted", (float(sigma[0]), float(sigma[1])))):
                    want = [_loop_helstrom_pair(x[0], x[1], weights) for x in branches[b]]
                    assert_close(families.families[oracle.QUBIT_FAMILIES.index(name), b], want)
            assert families.families.shape[0] == len(oracle.QUBIT_FAMILIES)

    def test_qubit_corpus_stacked_families(self):
        # one build_sbs over the family and instance axes gives every family's
        # loop matrix, signs of zero included
        for block, branches, _, families in qubit_cases():
            sbs = build_sbs(block.central, branches, families)
            matrices = sbs.to_matrix()
            assert matrices.shape == (len(oracle.QUBIT_FAMILIES), oracle.ORACLE_BLOCK, 16, 16)
            for b in range(oracle.ORACLE_BLOCK):
                central, branches_b = one_instance(block, branches, b)
                for f, family in enumerate(families.families[:, b]):
                    one = build_sbs(central, branches_b, ProjectorFamily(family))
                    assert_identical(sbs.weights[f, b], one.weights)
                    assert_identical(sbs.states[f, b], one.states)
                    assert sbs.eta_norm[f, b] == one.eta_norm
                    assert_identical(matrices[f, b], one.to_matrix())
                    assert_close(matrices[f, b], loop_to_matrix(one))

    @pytest.mark.parametrize("size", (1, 3, 8))
    def test_blocks_match_blocks_of_one(self, size, blocks_of_one):
        # 43 instances: the last block is ragged for 3 and 8
        rows = []
        for lo in range(0, 43, size):
            indices = range(lo, min(lo + size, 43))
            rows.append(report_rows(oracle.evaluate_instance(corpus_block(indices), family_draws(indices))))
        for name, want in blocks_of_one.items():
            assert_identical(np.concatenate([r[name] for r in rows]), want)

    def test_qutrit_suite_instances(self):
        for block, branches, mags, families in qutrit_cases():
            check_against_loops(block, branches, mags, families)
            # the suite's one stacked call gives the families of one call per environment
            stacked = helstrom_pair(branches[..., 0, :, :], branches[..., 1, :, :])
            assert_identical(stacked, [[helstrom_pair(x[0], x[1]) for x in rows] for rows in branches])
            assert_close(stacked, families.families[0, ..., :2, :, :])

    def test_coarse_family_has_zero_weight_branches(self):
        # a rank-zero projector leaves its branch a zero matrix of weight 0,
        # in a family of its own and within the stack
        block, branches, _, families = next(qubit_cases())
        coarse = oracle.QUBIT_FAMILIES.index("coarse")
        one = build_sbs(*one_instance(block, branches, 0), ProjectorFamily(families.families[coarse, 0]))
        assert one.weights[1] == 0.0
        assert not np.any(one.states[:, 1])
        assert_close(one.to_matrix(), loop_to_matrix(one))
        stacked = build_sbs(block.central, branches, families)
        assert stacked.weights[coarse, 0, 1] == 0.0
        assert_identical(stacked.to_matrix()[coarse, 0], one.to_matrix())

    def test_degenerate_family(self):
        _, branches, mags, _ = next(qubit_cases())
        branches, mags = branches[0], mags[0]
        eye, zero = np.eye(2, dtype=complex), np.zeros((2, 2), dtype=complex)
        # every projector of the family is zero on the branch that carries weight
        central = CentralState(np.diag([1.0, 0.0]))
        family = ProjectorFamily([(zero, eye)] * len(branches))
        sbs = build_sbs(central, branches, family)
        assert sbs.degenerate and not np.any(sbs.weights)
        gamma = sbs_core.collective_gamma(central, mags)
        got = sbs_core.disturbance_bound(gamma, central.sigma, branches, family.families)
        assert_close(got, _loop_disturbance_sum(gamma, central.sigma, branches, family.families))

    def test_trace_norm_route_per_matrix(self):
        rng = np.random.default_rng(91)
        a = rng.normal(size=(24, 4, 4)) + 1j * rng.normal(size=(24, 4, 4))
        # Hermitian matrices, the only ones trace_norm takes
        stack = a + np.swapaxes(a.conj(), -1, -2)
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


def edge_record(n=600, seed=93):
    """Spins cycling through lam in {0, 1/2, 1} x beta in {0, pi/2, pi}; every 7th has g = 0."""
    rng = np.random.default_rng(seed)
    nodes = [(lam, beta) for lam in (0.0, 0.5, 1.0) for beta in (0.0, math.pi / 2, math.pi)]
    lam, beta = np.array([nodes[j % len(nodes)] for j in range(n)]).T
    # every other spin off the nodes, at a random state
    lam[1::2], beta[1::2] = rng.uniform(0.0, 1.0, n // 2), rng.uniform(0.0, math.pi, n // 2)
    g = rng.uniform(0.0, 1.0, n)
    g[::7] = 0.0
    return SpinParams(rng.uniform(0, 2 * np.pi, n), beta, rng.uniform(0, 2 * np.pi, n), lam, g)


def random_states(rng, count, dim, rank):
    """count random density matrices of the given dimension and rank."""
    g = rng.normal(size=(count, dim, rank)) + 1j * rng.normal(size=(count, dim, rank))
    rho = g @ np.swapaxes(g.conj(), -1, -2)
    return rho / np.trace(rho, axis1=-2, axis2=-1).real[:, None, None]


class TestStackedKernels:
    def test_initial_spin_state_per_spin(self):
        record = edge_record()
        got = initial_spin_state(record)
        assert got.shape == (600, 2, 2)
        assert_identical(got, [_loop_initial_spin_state(spin) for spin in _spins(record)])
        # a two-axis record and a record of floats give the same matrices
        rows = SpinParams(*(v.reshape(20, 30) for v in vars(record).values()))
        assert_identical(initial_spin_state(rows), got.reshape(20, 30, 2, 2))
        spin = _spins(record)[5]
        assert_identical(initial_spin_state(spin), _loop_initial_spin_state(spin))

    @pytest.mark.parametrize("dim", (2, 4))
    def test_helstrom_pair_per_pair(self, dim):
        rng = np.random.default_rng(94 + dim)
        # identical, pure-against-mixed and random pairs, each 10 times
        same = random_states(rng, 10, dim, dim)
        rho_p = np.concatenate([same, random_states(rng, 10, dim, 1), random_states(rng, 10, dim, dim)])
        rho_m = np.concatenate([same, random_states(rng, 10, dim, dim), random_states(rng, 10, dim, dim)])
        ranks = set()
        for weights in (None, (0.7, 0.3), (0.3, 0.7)):
            w_p, w_m = (0.5, 0.5) if weights is None else weights
            rank = np.count_nonzero(np.linalg.eigvalsh(w_p * rho_p - w_m * rho_m) > TIE_TOLERANCE, axis=-1)
            assert len(set(rank.tolist())) >= 2  # every stack mixes ranks
            ranks.update(rank.tolist())
            got = helstrom_pair(rho_p, rho_m, weights)
            assert_identical(got, [helstrom_pair(p, m, weights) for p, m in zip(rho_p, rho_m)])
            assert_close(got, [_loop_helstrom_pair(p, m, weights) for p, m in zip(rho_p, rho_m)])
            # no positive eigenvalue: P_plus is 0 and P_minus the identity
            assert not np.any(got[rank == 0, 0])
        assert {0, 1, 2} <= ranks
        # one pair gives the one-pair result
        assert_close(helstrom_pair(rho_p[12], rho_m[12]), _loop_helstrom_pair(rho_p[12], rho_m[12]))

    def test_psd_sqrt_per_matrix(self):
        rng = np.random.default_rng(97)
        # 2 x 2 and 4 x 4 states of every rank, rank-deficient ones with eigenvalues clamped at 0
        for dim in (2, 4):
            states = np.concatenate([random_states(rng, 8, dim, rank) for rank in range(1, dim + 1)])
            rng.shuffle(states)
            roots = densmat.psd_sqrt(states)
            assert_identical(roots, [densmat.psd_sqrt(rho) for rho in states])
            assert_identical(densmat.psd_sqrt(states.reshape(dim, 8, dim, dim)), roots.reshape(dim, 8, dim, dim))
            np.testing.assert_allclose(roots @ roots, states, rtol=0.0, atol=1e-12)

    def test_partial_trace_and_entropies_per_matrix(self):
        rng = np.random.default_rng(96)
        # 2 x 2 x 4 states of every rank: each row keeps its own number of
        # eigenvalues, and full-rank rows sum 16 of them
        states = np.concatenate([random_states(rng, 6, 16, rank) for rank in (1, 3, 9, 16)])
        rng.shuffle(states)
        for keep in ([0], [1, 2], [0, 2]):
            got = densmat.partial_trace(states, [2, 2, 4], keep)
            assert_identical(got, [densmat.partial_trace(rho, [2, 2, 4], keep) for rho in states])
        entropies = densmat.von_neumann_entropy(states)
        assert entropies.shape == (24,)
        assert_identical(entropies, [densmat.von_neumann_entropy(rho) for rho in states])
        info = sbs_core.mutual_information(states.reshape(4, 6, 16, 16), [2, 2, 4])
        assert_identical(info.ravel(), [sbs_core.mutual_information(rho, [2, 2, 4]) for rho in states])

    def test_helstrom_spin_analytic_per_spin(self):
        record = edge_record()
        rng = np.random.default_rng(95)
        t = rng.uniform(0.0, 2.0 * np.pi, 600)
        t[::5] = 0.0
        for times in (t, 0.0, 1.3):
            got, degenerate = helstrom_spin_analytic(record, times)
            pairs = list(zip(_spins(record), np.broadcast_to(times, (600,)).tolist()))
            want = [_loop_helstrom_spin_analytic(spin, t_j) for spin, t_j in pairs]
            assert_close(got, [family for family, _ in want])
            np.testing.assert_array_equal(degenerate, [flag for _, flag in want])
            # a stacked call gives the families of one call per spin
            assert_identical(got, [helstrom_spin_analytic(spin, t_j)[0] for spin, t_j in pairs])
        # both kinds of degeneracy occur: delta = 0 at lam = 1/2 or beta in {0, pi},
        # and sin(gt) = 0 at g = 0 or t = 0
        flags = helstrom_spin_analytic(record, t)[1]
        assert flags[record.lam == 0.5].all() and flags[record.beta == 0.0].all() and flags[record.beta == np.pi].all()
        assert flags[record.g == 0.0].all() and flags[t == 0.0].all()
        assert not flags.all()


class TestRecords:
    def test_records_are_read_only_arrays(self):
        _, branches, _, families = next(qubit_cases())
        assert branches.shape == (oracle.ORACLE_BLOCK, 3, 2, 2, 2)
        assert families.families.shape == (5, oracle.ORACLE_BLOCK, 3, 2, 2, 2)
        for record in (branches, families.families):
            with pytest.raises(ValueError, match="read-only"):
                record[0, 0, 0, 0] = 1.0

    def test_ragged_branches_rejected(self):
        ket0 = np.diag([1.0 + 0.0j, 0.0j])
        family = ProjectorFamily([(ket0, np.eye(2) - ket0)] * 2)
        with pytest.raises(ValueError, match="one branch state per pointer index"):
            build_sbs(CentralState(ket0), ((ket0, ket0), (ket0,)), family)

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

    def test_stack_with_one_bad_family_rejected(self):
        *_, families = next(qubit_cases())
        # Hermitian and complete, but P^2 != P
        half = np.diag([0.5, 0.0])
        stack = np.array(families.families)
        stack[2] = np.broadcast_to([half, np.eye(2) - half], stack[2].shape)
        with pytest.raises(ValueError, match="not idempotent"):
            ProjectorFamily(stack)
        # the same stack without it passes
        ProjectorFamily(np.delete(stack, 2, axis=0))
