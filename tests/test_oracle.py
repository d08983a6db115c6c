import itertools
import math
import tracemalloc

import numpy as np
import pytest

from sbskit import densmat, oracle, sbs_core, spin_model
from sbskit.oracle import (
    OracleInstance,
    analytic_reduced_state,
    branch_state,
    env_unitary,
    evaluate_instance,
    exact_epsilon,
    full_joint_state,
    gamma_products,
    qubit_families,
    random_central,
    random_instance,
    reduced_state_exact,
)
from sbskit.sbs_core import CentralState, ProjectorFamily
from sbskit.spin_model import SpinParams

# the pointer eigenvalues of a d_s-level central system, written out
POINTER_EIGENVALUES = {2: (-1.0, 1.0), 3: (-1.0, 0.0, 1.0)}


def record(*spins):
    """The given one-spin records as one row of a block of one, fields of shape (1, len(spins))."""
    return SpinParams(*np.array([list(vars(s).values()) for s in spins], dtype=float).reshape(-1, 5).T[:, None])


def spin_of(record, j, b=0):
    """Spin j of row b of a record (an index into its arrays) as a record of floats."""
    return SpinParams(*(float(v[b, j]) for v in vars(record).values()))


def central(rho):
    """The central state of a block of one."""
    return CentralState(np.asarray(rho)[None])


def same_instance(a, b):
    """Field-by-field equality of two instances, arrays by np.array_equal."""
    spins = [
        np.array_equal(x, y)
        for r, q in ((a.observed, b.observed), (a.unobserved, b.unobserved))
        for x, y in zip(vars(r).values(), vars(q).values())
    ]
    return np.array_equal(a.central.rho, b.central.rho) and np.array_equal(a.t, b.t) and all(spins)


def instance_of(block, b):
    """Instance b of a block as a block of one."""
    rows = slice(b, b + 1)
    spins = [SpinParams(*(v[rows] for v in vars(r).values())) for r in (block.observed, block.unobserved)]
    return OracleInstance(CentralState(block.central.rho[rows]), *spins, block.t[rows])


def make_instance(seed=0, n_obs=2, n_unobs=2, t=None):
    inst = random_instance(seed, [0], n_observed=n_obs, n_unobserved=n_unobs)
    if t is not None:
        inst = OracleInstance(inst.central, inst.observed, inst.unobserved, [t])
    return inst


def corpus_block(indices, seed=8, **kw):
    """Instances of a seeded corpus as one block, with family draws from stream 30 + i."""
    block = random_instance(seed, indices, **kw)
    draws = np.stack([np.random.default_rng(30 + i).normal(size=(len(block.observed.g[0]), 2, 2)) for i in indices])
    return block, draws


def orthogonal_branches_instance(instances=1):
    """An exact broadcast structure: pure spins at beta = pi/2 reach
    orthogonal branches at g t = pi/2, with a coherence-free central state;
    a block of `instances` copies."""
    spins = [record(*(SpinParams(0.0, np.pi / 2, 0.0, 1.0, 1.0) for _ in range(2))), record()]
    rows = [SpinParams(*(np.repeat(v, instances, axis=0) for v in vars(r).values())) for r in spins]
    rho = np.repeat(np.diag([0.6, 0.4])[None], instances, axis=0)
    return OracleInstance(CentralState(rho), *rows, [np.pi / 2] * instances)


class TestEnvUnitary:
    def test_unitarity(self):
        for d_s in POINTER_EIGENVALUES:
            for i in range(d_s):
                u = env_unitary(i, 0.7, 2.3, d_s)
                assert np.max(np.abs(u @ u.conj().T - np.eye(2))) < 1e-12

    def test_index_zero_advances_positively(self):
        # branch 0 must evolve by exp(+i g t sigma_z / 2)
        g, t = 0.9, 1.7
        expected = np.diag([np.exp(0.5j * g * t), np.exp(-0.5j * g * t)])
        np.testing.assert_allclose(env_unitary(0, g, t, 2), expected, atol=1e-14)

    def test_pointer_eigenvalues_follow_the_central_dimension(self):
        # exp(-i a_i g t sigma_z / 2) with a_i read from the table, exactly
        g, t = 0.9, 1.7
        for d_s, eigenvalues in POINTER_EIGENVALUES.items():
            for i, a in enumerate(eigenvalues):
                phase = -0.5j * a * g * t
                assert np.array_equal(env_unitary(i, g, t, d_s), np.diag([np.exp(phase), np.exp(-phase)]))
        # the qutrit's middle branch does not evolve
        assert np.array_equal(env_unitary(1, g, t, 3), np.eye(2))

    def test_qutrit_branch_state(self):
        rng = np.random.default_rng(12)
        spin = SpinParams(*rng.uniform(0.0, 1.0, (5, 4)))
        t = 2.1
        rho0 = spin_model.initial_spin_state(spin)

        def u(a):
            # exp(-i a g t sigma_z / 2) = cos(a g t / 2) - i sin(a g t / 2) sigma_z, per spin
            half = 0.5 * a * spin.g[:, None, None] * t
            return np.cos(half) * np.eye(2) - 1j * np.sin(half) * np.diag([1.0, -1.0])

        for i, j in itertools.product(range(3), repeat=2):
            a_i, a_j = POINTER_EIGENVALUES[3][i], POINTER_EIGENVALUES[3][j]
            expected = u(a_i) @ rho0 @ np.swapaxes(u(a_j).conj(), -1, -2)
            np.testing.assert_allclose(branch_state(spin, i, j, t, 3), expected, rtol=0.0, atol=1e-14)


class TestFullJointState:
    def test_time_zero_is_product_state(self):
        inst = make_instance(seed=1, t=0.0)
        joint = full_joint_state(inst)
        expected = inst.central.rho[0]
        for spins in (inst.observed, inst.unobserved):
            for j in range(spins.g.shape[-1]):
                expected = densmat.tensor(expected, spin_model.initial_spin_state(spin_of(spins, j)))
        np.testing.assert_allclose(joint[0], expected, atol=1e-13)

    def test_valid_state(self):
        inst = make_instance(seed=2)
        joint = full_joint_state(inst)
        densmat.check_density_matrix(joint)

    def test_diagonal_central_stays_block_diagonal(self):
        base = make_instance(seed=3)
        dropped = central(np.diag(base.central.sigma[0]))  # coherences dropped
        inst = OracleInstance(dropped, base.observed, base.unobserved, [1.3])
        joint = full_joint_state(inst)[0]
        half = joint.shape[0] // 2
        assert np.max(np.abs(joint[:half, half:])) < 1e-14

    def test_dimension_cap(self):
        spins = record(*(SpinParams(0, 1, 0, 0.5, 1.0) for _ in range(12)))
        inst = OracleInstance(central(np.eye(2) / 2), spins, record(), [1.0])
        with pytest.raises(ValueError, match="cap"):
            full_joint_state(inst)

    def test_block_shapes_checked(self):
        inst = make_instance(seed=1)
        with pytest.raises(ValueError, match="one time per instance"):
            OracleInstance(inst.central, inst.observed, inst.unobserved, [1.0, 2.0])
        with pytest.raises(ValueError, match="one time per instance"):
            OracleInstance(inst.central, spin_of(inst.observed, 0), inst.unobserved, [1.0])


class TestConventionCertification:
    def test_offdiagonal_block_trace_is_gamma_times_coherence(self):
        # single environment spin: the (0,1) block trace of the evolved joint
        # state must equal the closed-form dephasing factor times sigma_01
        rng = np.random.default_rng(10)
        for _ in range(50):
            one = random_central(rng)
            spin = SpinParams(
                rng.uniform(0, 2 * np.pi),
                rng.uniform(0, np.pi),
                rng.uniform(0, 2 * np.pi),
                rng.uniform(0, 1),
                rng.uniform(0, 1),
            )
            t = rng.uniform(0, 2 * np.pi)
            inst = OracleInstance(central(one), record(), record(spin), [t])
            joint = full_joint_state(inst)[0]
            block_trace = np.trace(joint[:2, 2:])
            expected = one[0, 1] * spin_model.decoherence_factor(SpinParams(*(np.array([v]) for v in vars(spin).values())), t)
            assert abs(block_trace - expected) < 1e-12

    def test_branch_purity_conserved(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            spin = SpinParams(
                rng.uniform(0, 2 * np.pi),
                rng.uniform(0, np.pi),
                rng.uniform(0, 2 * np.pi),
                rng.uniform(0, 1),
                rng.uniform(0, 1),
            )
            t = rng.uniform(0, 5)
            initial = spin_model.initial_spin_state(spin)
            evolved = branch_state(spin, 0, 0, t, 2)
            p0 = np.trace(initial @ initial).real
            pt = np.trace(evolved @ evolved).real
            assert abs(p0 - pt) < 1e-12


class TestReducedState:
    def test_two_routes_agree(self):
        for seed in range(5):
            inst = random_instance(seed, [0], n_observed=3, n_unobserved=3)
            reduced = reduced_state_exact(full_joint_state(inst), inst)
            assembled = analytic_reduced_state(inst)
            assert np.max(np.abs(reduced - assembled)) < 1e-10
        # and instance by instance over a block of qutrit instances
        inst = random_instance(9, range(5), n_observed=2, n_unobserved=2, d_s=3)
        reduced = reduced_state_exact(full_joint_state(inst), inst)
        assert reduced.shape == (5, 12, 12)
        assert np.max(np.abs(reduced - analytic_reduced_state(inst))) < 1e-10

    def test_nothing_discarded_returns_joint(self):
        inst = make_instance(seed=4, n_obs=3, n_unobs=0)
        joint = full_joint_state(inst)
        np.testing.assert_allclose(reduced_state_exact(joint, inst), joint, atol=1e-13)

    def test_gamma_products_pair_array(self):
        gammas = gamma_products(random_instance(6, [0], n_observed=0, n_unobserved=2, d_s=3))[0]
        assert gammas.shape == (3, 3)
        np.testing.assert_array_equal(np.diag(gammas), 1.0)
        # Tr[U_j rho U_i^dagger] = conj Tr[U_i rho U_j^dagger]
        np.testing.assert_allclose(gammas.T, gammas.conj(), atol=1e-14)

    def test_everything_discarded_dephases_central(self):
        inst = make_instance(seed=5, n_obs=0, n_unobs=3)
        reduced = reduced_state_exact(full_joint_state(inst), inst)[0]
        gam = gamma_products(inst)[0, 0, 1]
        expected = np.diag(inst.central.sigma[0]).astype(complex)
        expected[0, 1] = inst.central.rho[0, 0, 1] * gam
        expected[1, 0] = np.conj(expected[0, 1])
        np.testing.assert_allclose(reduced, expected, atol=1e-12)


class TestExactEpsilon:
    def test_zero_for_exact_broadcast_structure(self):
        # pure spins at beta = pi/2 reach orthogonal branches at g t = pi/2:
        # the reduced state of a coherence-free central system is then an
        # exact broadcast state and the Helstrom family reproduces it
        inst = orthogonal_branches_instance()
        reduced = reduced_state_exact(full_joint_state(inst), inst)
        branches, _ = oracle.branch_ensemble(inst)
        fams = qubit_families(inst.central, branches, np.random.default_rng(0).normal(size=(1, 2, 2, 2)))
        helstrom = ProjectorFamily(fams.families[oracle.QUBIT_FAMILIES.index("helstrom")])
        sbs = sbs_core.build_sbs(inst.central, branches, helstrom)
        assert exact_epsilon(reduced, sbs)[0] < 1e-10

    def test_positive_at_time_zero_with_coherence(self):
        spins = record(*(SpinParams(0.0, np.pi / 2, 0.0, 1.0, 1.0) for _ in range(2)))
        inst = OracleInstance(central(np.full((2, 2), 0.5)), spins, record(spin_of(spins, 0)), [0.0])
        reduced = reduced_state_exact(full_joint_state(inst), inst)
        branches, _ = oracle.branch_ensemble(inst)
        fams = qubit_families(inst.central, branches, np.random.default_rng(0).normal(size=(1, 2, 2, 2)))
        helstrom = ProjectorFamily(fams.families[oracle.QUBIT_FAMILIES.index("helstrom")])
        sbs = sbs_core.build_sbs(inst.central, branches, helstrom)
        assert exact_epsilon(reduced, sbs)[0] > 0.1

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            # one pointer branch with one 2 x 2 environment: a 2 x 2 matrix
            exact_epsilon(np.eye(4) / 4, sbs_core.SBSState(np.ones(1), np.full((1, 1, 2, 2), 0.5), 1.0))


class TestMutualInfoCheck:
    """The information gap |I - H_S| against F(eps), as evaluate_instance checks it."""

    def test_perfect_broadcast_means_info_equals_entropy(self):
        central = CentralState(np.eye(2) / 2)
        spins = record(SpinParams(0.0, np.pi / 2, 0.0, 1.0, 1.0))
        inst = OracleInstance(CentralState(central.rho[None]), spins, record(), [np.pi / 2])
        reduced = reduced_state_exact(full_joint_state(inst), inst)[0]
        info = sbs_core.mutual_information(reduced, [2, 2])
        assert info == pytest.approx(1.0, abs=1e-10)
        assert central.shannon_entropy() == pytest.approx(1.0, abs=1e-12)
        gap = abs(info - central.shannon_entropy())
        assert gap == pytest.approx(0.0, abs=1e-10)
        f_bound, valid = sbs_core.cor2_bound(0.0, central.d_s)
        assert valid and gap <= f_bound + 1e-9

    def test_product_state_gap_equals_entropy_bound_inapplicable(self):
        central = CentralState(np.eye(2) / 2)
        spins = record(SpinParams(0.0, 0.0, 0.0, 1.0, 1.0))  # frozen pointer spin
        inst = OracleInstance(CentralState(central.rho[None]), spins, record(), [1.0])
        reduced = reduced_state_exact(full_joint_state(inst), inst)[0]
        info = sbs_core.mutual_information(reduced, [2, 2])
        assert info == pytest.approx(0.0, abs=1e-10)
        assert abs(info - central.shannon_entropy()) == pytest.approx(1.0, abs=1e-10)
        # eps = 0.6 is beyond the bound's hypothesis eps <= 1/4: nothing is asserted
        f_bound, valid = sbs_core.cor2_bound(0.6, central.d_s)
        assert not valid and f_bound == math.inf


class TestInstanceGeneration:
    def test_random_central_coherence_rule(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            c = CentralState(random_central(rng))
            sigma = c.sigma
            coh = abs(c.rho[0, 1])
            assert coh <= math.sqrt(sigma[0] * sigma[1]) + 1e-12
            densmat.check_density_matrix(c.rho)

    def test_qutrit_central_valid(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            c = CentralState(random_central(rng, d_s=3))
            assert c.d_s == 3
            densmat.check_density_matrix(c.rho)

    def test_instances_reproducible(self):
        a = random_instance(5, [3])
        b = random_instance(5, [3])
        assert same_instance(a, b)
        assert not same_instance(a, random_instance(5, [4]))
        assert a.observed.g.shape == (1, 3) and a.unobserved.g.shape == (1, 3) and a.t.shape == (1,)

    @pytest.mark.parametrize(
        "indices, kw",
        [([0, 5, 3, 599], {}), ([7, 2, 39, 0, 11], dict(n_observed=2, n_unobserved=2, d_s=3))],
    )
    def test_block_is_its_instances_in_index_order(self, indices, kw):
        block = random_instance(20260808, indices, **kw)
        assert block.t.shape == (len(indices),)
        for b, i in enumerate(indices):
            assert same_instance(instance_of(block, b), random_instance(20260808, [i], **kw))

    def test_one_central_state_per_block(self, monkeypatch):
        built = []
        post_init = CentralState.__post_init__
        monkeypatch.setattr(CentralState, "__post_init__", lambda self: built.append(1) or post_init(self))
        random_instance(20260808, range(oracle.ORACLE_BLOCK))
        assert len(built) == 1

    def test_one_validation_per_spin_record(self, monkeypatch):
        # the observed and the unobserved stack, not one record per drawn row
        built = []
        post_init = SpinParams.__post_init__
        monkeypatch.setattr(SpinParams, "__post_init__", lambda self: built.append(np.shape(self.g)) or post_init(self))
        random_instance(20260808, range(oracle.ORACLE_BLOCK), n_observed=2, n_unobserved=4)
        assert [shape for shape in built if shape] == [(oracle.ORACLE_BLOCK, 2), (oracle.ORACLE_BLOCK, 4)]


class TestEvaluateInstance:
    def test_report_structure_and_sound_bounds(self):
        inst, draws = corpus_block(range(oracle.ORACLE_BLOCK))
        rep = evaluate_instance(inst, draws)
        n = oracle.ORACLE_BLOCK
        assert oracle.QUBIT_FAMILIES == ("helstrom", "helstrom_weighted", "swapped", "coarse", "random")
        # the families and branches the report was built from
        branches, gamma_mags = oracle.branch_ensemble(inst)
        families = qubit_families(inst.central, branches, draws)
        gamma = sbs_core.collective_gamma(inst.central, gamma_mags)
        assert families.families.shape == (5, n, 3, 2, 2, 2)
        assert rep.epsilon.shape == rep.prop1.shape == rep.disturbance.shape == rep.degenerate.shape == (5, n)
        assert not rep.degenerate.any()
        pe = sbs_core.discrimination_error(inst.central.sigma[:, None, :], branches, families.families)
        np.testing.assert_array_equal(rep.prop1, sbs_core.prop1_bound(gamma, pe))
        # the information gap and its bound at the witness distance
        reduced = reduced_state_exact(full_joint_state(inst), inst)
        info = sbs_core.mutual_information(reduced, [2, 2, 2, 2])
        for b in range(n):
            for f in range(5):
                assert rep.prop1[f, b] == sbs_core.prop1_bound(gamma[b], pe[f, b].tolist())
                assert rep.prop1[f, b] == pytest.approx(gamma[b] + sum(pe[f, b]), abs=1e-12)
            assert np.all((rep.epsilon[:, b] >= 0.0) & (rep.epsilon[:, b] <= 1.0 + 1e-9))
            assert rep.eta_cor1[b] - rep.epsilon_witness[b] >= -1e-9
            # the witness is the better of the two Helstrom families
            assert rep.epsilon_witness[b] == min(rep.epsilon[:2, b])
            assert rep.info_gap[b] == abs(info[b] - inst.central.shannon_entropy()[b])
            assert (rep.cor2[b], rep.cor2_applicable[b]) == sbs_core.cor2_bound(rep.epsilon_witness[b], 2)

    def test_report_carries_the_families_and_branches_it_used(self):
        inst, draws = corpus_block(range(1, 4))
        rep = evaluate_instance(inst, draws)
        # the sound bound of families and branch states rebuilt from scratch, bit for bit
        branches, gamma_mags = oracle.branch_ensemble(inst)
        rebuilt = qubit_families(inst.central, branches, draws)
        gamma = sbs_core.collective_gamma(inst.central, gamma_mags)
        want = sbs_core.disturbance_bound(gamma, inst.central.sigma, branches, rebuilt.families)
        np.testing.assert_array_equal(rep.disturbance, want)
        assert rep.disturbance.tobytes() == want.tobytes()

    def test_one_family_stack_per_instance(self, monkeypatch):
        # one validation, one build_sbs and one to_matrix for a whole block
        counts = {"validate": 0, "build_sbs": 0, "to_matrix": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(ProjectorFamily, "__post_init__", counted("validate", ProjectorFamily.__post_init__))
        monkeypatch.setattr(sbs_core, "build_sbs", counted("build_sbs", sbs_core.build_sbs))
        monkeypatch.setattr(sbs_core.SBSState, "to_matrix", counted("to_matrix", sbs_core.SBSState.to_matrix))
        evaluate_instance(*corpus_block(range(4, 4 + oracle.ORACLE_BLOCK)))
        assert counts == {"validate": 1, "build_sbs": 1, "to_matrix": 1}

    def test_branch_states_built_once(self, monkeypatch):
        real = oracle.branch_state
        built = []
        monkeypatch.setattr(oracle, "branch_state", lambda *args: built.append(real(*args)) or built[-1])
        evaluate_instance(*corpus_block(range(2, 5)))
        # per instance 3 observed spins x 2 branches, then 3 unobserved spins x 2 ordered pairs
        assert sum(m.size // 4 for m in built) == 3 * (3 * 2 + 3 * 2)
        assert len(built) == 2

    def test_calls_per_instance_do_not_grow_with_the_spins(self, monkeypatch):
        post_init = SpinParams.__post_init__
        records, pairs = [], []
        monkeypatch.setattr(SpinParams, "__post_init__", lambda self: records.append(1) or post_init(self))
        real = oracle.helstrom_pair
        monkeypatch.setattr(oracle, "helstrom_pair", lambda *args, **kw: pairs.append(1) or real(*args, **kw))
        built = []
        for n in (3, 5):
            inst, draws = corpus_block(range(3, 3 + oracle.ORACLE_BLOCK), n_observed=n, n_unobserved=n)
            records.clear()
            pairs.clear()
            evaluate_instance(inst, draws)
            built.append(len(records))
            # one stacked call each for the plain and the prior-weighted family
            assert len(pairs) == 2
        # no spin record is built per spin
        assert built[0] == built[1]

    def test_block_peak_memory(self):
        # one block holds one stack of joint states, multiplied in place
        inst, draws = corpus_block(range(oracle.ORACLE_BLOCK))
        evaluate_instance(inst, draws)  # first calls may allocate caches
        tracemalloc.start()
        try:
            evaluate_instance(inst, draws)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_orthogonal_branches_mark_swapped_degenerate(self):
        # the swapped family puts zero weight on every branch of an exact
        # broadcast structure; the other four give the one-family distances
        inst = orthogonal_branches_instance()
        draws = np.random.default_rng(35).normal(size=(1, 2, 2, 2))
        rep = evaluate_instance(inst, draws)
        swapped = oracle.QUBIT_FAMILIES.index("swapped")
        assert rep.degenerate[:, 0].tolist() == [f == swapped for f in range(5)]
        assert math.isnan(rep.epsilon[swapped, 0])
        reduced = reduced_state_exact(full_joint_state(inst), inst)
        branches, _ = oracle.branch_ensemble(inst)
        families = qubit_families(inst.central, branches, draws)
        for f in range(5):
            one = sbs_core.build_sbs(inst.central, branches, ProjectorFamily(families.families[f]))
            assert one.degenerate[0] == (f == swapped)
            if f != swapped:
                eps = exact_epsilon(reduced, one)
                assert np.isfinite(eps[0])
                assert np.array_equal(rep.epsilon[f], eps)
                assert np.signbit(rep.epsilon[f, 0]) == np.signbit(eps[0])
        assert rep.epsilon_witness[0] < 1e-10 and rep.cor2_applicable[0]

    def test_witness_passes_over_a_degenerate_helstrom_family(self):
        # at t = 0 the branches coincide: the plain Helstrom family projects
        # nothing, and a pure pointer state then has no broadcast state for it
        base = random_instance(8, [5])
        inst = OracleInstance(central(np.diag([1.0, 0.0])), base.observed, base.unobserved, [0.0])
        rep = evaluate_instance(inst, np.random.default_rng(36).normal(size=(1, 3, 2, 2)))
        assert rep.degenerate[:2, 0].tolist() == [True, False]
        assert rep.epsilon_witness[0] == rep.epsilon[1, 0] < 1e-10

    def test_degenerate_family_records_no_check(self, monkeypatch):
        from sbskit import verify

        monkeypatch.setattr(
            oracle, "random_instance", lambda seed, indices, **kw: orthogonal_branches_instance(len(indices))
        )
        suites = verify.oracle_inequalities(20260808, 3)
        # per instance the four families that are not degenerate
        assert suites["prop1_as_stated"].checks == suites["prop1_disturbance"].checks == 3 * 4
        assert suites["prop1_disturbance"].failures == 0
        assert suites["cor1"].checks == 3

    def test_qutrit_prop1_disturbance_suite(self):
        from sbskit.verify import qutrit_prop1_suite

        res = qutrit_prop1_suite(3)
        assert res.failures == 0
        assert res.checks > 0
