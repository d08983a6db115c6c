import numpy as np
import pytest

from sbskit import densmat


def random_qubit_state(rng):
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_hermitian(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2


class TestHermitianEigensystem:
    """The Hermitian eigen route of psd_sqrt, the one eigendecomposition in densmat."""

    def test_diagonal(self):
        root = densmat.psd_sqrt(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(root, np.diag([np.sqrt(3.0), 1.0]), atol=1e-14)

    def test_pauli_x_spectrum(self):
        # eigenvalues 1 and -1: the -1 is reported
        sx = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match=r"not PSD: eigenvalue -1\.000e\+00"):
            densmat.psd_sqrt(sx)

    def test_reconstruction_random(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            h = random_hermitian(rng, 6)
            psd = h @ h
            root = densmat.psd_sqrt(psd)
            assert np.max(np.abs(root @ root - psd)) < 1e-10
            assert np.max(np.abs(root - root.conj().T)) < 1e-10
            # the root of h^2 is |h|: the eigenvectors of h with absolute eigenvalues
            w, v = np.linalg.eigh(h)
            assert np.max(np.abs(root - (v * np.abs(w)) @ v.conj().T)) < 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            densmat.psd_sqrt(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejection_reports_asymmetry(self):
        bad = np.array([[0.0, 1.0], [0.5, 0.0]])
        with pytest.raises(ValueError, match="5"):
            densmat.psd_sqrt(bad)


class TestPsdSqrt:
    def test_maximally_mixed(self):
        root = densmat.psd_sqrt(np.eye(2) / 2)
        np.testing.assert_allclose(root, np.eye(2) / np.sqrt(2), atol=1e-14)

    def test_projector_is_own_root(self):
        p = np.diag([1.0, 0.0])
        np.testing.assert_allclose(densmat.psd_sqrt(p), p, atol=1e-14)

    def test_squares_back(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            rho = random_qubit_state(rng)
            root = densmat.psd_sqrt(rho)
            assert np.max(np.abs(root @ root - rho)) < 1e-10
            assert densmat.hermiticity_defect(root) < 1e-12

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="not PSD"):
            densmat.psd_sqrt(np.diag([1.1, -0.1]))


class TestTraceNorm:
    def test_identity(self):
        assert densmat.trace_norm(np.eye(2)) == pytest.approx(2.0, abs=1e-14)

    def test_hermitian_absolute_sum(self):
        assert densmat.trace_norm(np.diag([1.0, -1.0])) == pytest.approx(2.0, abs=1e-14)

    def test_nilpotent_jordan_block(self):
        # [[0,1],[0,0]] is not Hermitian: its trace norm (1, the sum of its
        # singular values) is not a sum of |eigenvalues|, so it is refused
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match=r"not Hermitian: max \|A - A†\| = 1\.000e\+00"):
            densmat.trace_norm(a)
        # in a stack too, whatever the other matrices are
        with pytest.raises(ValueError, match="not Hermitian"):
            densmat.trace_norm(np.stack([np.eye(2), a]))

    def test_matches_svd_on_random(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            a = a + a.conj().T
            expected = np.linalg.svd(a, compute_uv=False).sum()
            assert densmat.trace_norm(a) == pytest.approx(expected, abs=1e-10)


class TestFidelity:
    def test_self_fidelity(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            rho = random_qubit_state(rng)
            assert densmat.fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)

    def test_orthogonal_pure(self):
        assert densmat.fidelity(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_commuting_diagonal(self):
        got = densmat.fidelity(np.diag([1.0, 0.0]), np.eye(2) / 2)
        assert got == pytest.approx(1.0 / np.sqrt(2), abs=1e-12)

    def test_symmetry_1000_pairs(self):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            rho, sigma = random_qubit_state(rng), random_qubit_state(rng)
            assert abs(densmat.fidelity(rho, sigma) - densmat.fidelity(sigma, rho)) < 1e-10

    def test_fuchs_van_de_graaf_sandwich(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            rho, sigma = random_qubit_state(rng), random_qubit_state(rng)
            f = densmat.fidelity(rho, sigma)
            d = 0.5 * densmat.trace_norm(rho - sigma)
            assert 1.0 - f <= d + 1e-9
            assert d <= np.sqrt(max(1.0 - f * f, 0.0)) + 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            densmat.fidelity(np.eye(2) / 2, np.eye(4) / 4)


class TestTensor:
    def test_identity(self):
        np.testing.assert_allclose(densmat.tensor(np.eye(2), np.eye(2)), np.eye(4))

    def test_first_argument_major(self):
        a = np.diag([1.0, 0.0])
        b = np.diag([2.0, 3.0])
        np.testing.assert_allclose(densmat.tensor(a, b), np.diag([2.0, 3.0, 0.0, 0.0]))

    def test_trace_multiplicative(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            lhs = np.trace(densmat.tensor(a, b))
            assert abs(lhs - np.trace(a) * np.trace(b)) < 1e-12

    def test_mixed_product_property(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            a, b, c, d = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(4))
            lhs = densmat.tensor(a, b) @ densmat.tensor(c, d)
            rhs = densmat.tensor(a @ c, b @ d)
            assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestPartialTrace:
    def test_product_state_recovery(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            rho_a, rho_b = random_qubit_state(rng), random_qubit_state(rng)
            joint = densmat.tensor(rho_a, rho_b)
            np.testing.assert_allclose(
                densmat.partial_trace(joint, [2, 2], [0]), rho_a, atol=1e-12
            )
            np.testing.assert_allclose(
                densmat.partial_trace(joint, [2, 2], [1]), rho_b, atol=1e-12
            )

    def test_bell_state(self):
        bell = np.zeros((4, 4), dtype=complex)
        psi = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)
        bell = np.outer(psi, psi)
        for keep in ([0], [1]):
            np.testing.assert_allclose(
                densmat.partial_trace(bell, [2, 2], keep), np.eye(2) / 2, atol=1e-14
            )

    def test_trace_preserved(self):
        rng = np.random.default_rng(17)
        g = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        red = densmat.partial_trace(rho, [2, 2, 2], [1])
        assert np.trace(red).real == pytest.approx(1.0, abs=1e-12)

    def test_composition(self):
        rng = np.random.default_rng(19)
        g = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        joint = densmat.partial_trace(rho, [2, 2, 2], [0])
        stepwise = densmat.partial_trace(
            densmat.partial_trace(rho, [2, 2, 2], [0, 1]), [2, 2], [0]
        )
        assert np.max(np.abs(joint - stepwise)) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="factor dims"):
            densmat.partial_trace(np.eye(4) / 4, [2, 3], [0])

    def test_must_keep_something(self):
        with pytest.raises(ValueError, match="at least one"):
            densmat.partial_trace(np.eye(4) / 4, [2, 2], [])


class TestEntropy:
    def test_pure_state(self):
        assert densmat.von_neumann_entropy(np.diag([1.0, 0.0])) == 0.0

    def test_maximally_mixed_qubit(self):
        assert densmat.von_neumann_entropy(np.eye(2) / 2) == pytest.approx(1.0, abs=1e-12)

    def test_binary_mixture(self):
        # h(1/4) = -(1/4) log2(1/4) - (3/4) log2(3/4)
        expected = 0.8112781244591328
        got = densmat.von_neumann_entropy(np.diag([0.75, 0.25]))
        assert got == pytest.approx(expected, abs=1e-12)

    def test_additive_on_products(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            rho_a, rho_b = random_qubit_state(rng), random_qubit_state(rng)
            joint = densmat.tensor(rho_a, rho_b)
            lhs = densmat.von_neumann_entropy(joint)
            rhs = densmat.von_neumann_entropy(rho_a) + densmat.von_neumann_entropy(rho_b)
            assert abs(lhs - rhs) < 1e-10


    def test_dropped_entries_add_nothing(self):
        # a row of 2 with one entry at or below the cutoff gives, bit for bit,
        # the sum over its kept entry alone; a row that keeps none gives +0.0
        rng = np.random.default_rng(24)
        kept = np.concatenate([rng.uniform(0.0, 1.0, 40), [1.0, 0.5]])
        for rows in (np.stack([kept, np.zeros(42)], axis=-1), np.stack([np.full(42, 1e-16), kept], axis=-1)):
            got = densmat.entropy_bits(rows, 1e-15)
            want = [-np.sum(row[row > 1e-15] * np.log2(row[row > 1e-15])) for row in rows]
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(np.signbit(got), np.signbit(want))
        none = densmat.entropy_bits(np.array([[0.0, 0.0], [1e-16, 0.0], [0.0, -1e-17]]), 1e-15)
        assert none.tolist() == [0.0, 0.0, 0.0] and not np.signbit(none).any()
        assert not np.signbit(densmat.entropy_bits(np.zeros(2), 0.0))


class TestStateValidation:
    def test_accepts_valid(self):
        densmat.check_density_matrix(np.eye(2) / 2)

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            densmat.check_density_matrix(np.eye(2))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="negative eigenvalue"):
            densmat.check_density_matrix(np.diag([1.5, -0.5]))
