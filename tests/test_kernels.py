import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from effridge import (
    Dataset,
    DuplicateRowError,
    GramMatrix,
    InvalidInputError,
    KernelSpec,
    NumericError,
    gram_matrix,
    inv_kernel_norm_sq,
    spectral_decompose,
    sqrt_gram,
)
from effridge.kernels import apply_inverse


def random_spd(n, seed):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n))
    return A @ A.T + 0.5 * np.eye(n)


class TestKernelSpec:
    def test_rbf_requires_positive_lengthscale(self):
        with pytest.raises(InvalidInputError):
            KernelSpec("rbf", lengthscale=0.0)
        with pytest.raises(InvalidInputError):
            KernelSpec("rbf")

    def test_unknown_kind(self):
        with pytest.raises(InvalidInputError):
            KernelSpec("matern", lengthscale=1.0)


class TestGramMatrix:
    def test_zero_distance_gives_one(self):
        k = KernelSpec("rbf", lengthscale=2.0)
        G = gram_matrix(k, np.array([[1.0, 2.0], [1.0, 2.0] ]), np.array([[1.0, 2.0]]))
        assert G[0, 0] == pytest.approx(1.0)

    def test_unit_exponent(self):
        # squared distance 2 with lengthscale 2 forces exp(-1)
        k = KernelSpec("rbf", lengthscale=2.0)
        G = gram_matrix(k, np.array([[0.0, 0.0]]), np.array([[1.0, 1.0]]))
        assert G[0, 0] == pytest.approx(np.exp(-1.0), rel=1e-12)

    def test_far_points(self):
        k = KernelSpec("rbf", lengthscale=1.0)
        G = gram_matrix(k, np.array([[0.0]]), np.array([[3.0]]))
        assert G[0, 0] == pytest.approx(np.exp(-9.0), rel=1e-12)

    def test_symmetric_when_single_argument(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(7, 3))
        G = gram_matrix(KernelSpec("rbf", 1.5), X)
        assert isinstance(G, GramMatrix)
        assert np.array_equal(G.entries, G.entries.T)
        assert np.all(np.diag(G.entries) == 1.0)

    def test_rejects_nonfinite(self):
        k = KernelSpec("rbf", 1.0)
        with pytest.raises(InvalidInputError):
            gram_matrix(k, np.array([[np.nan]]))
        with pytest.raises(InvalidInputError):
            gram_matrix(k, np.array([[0.0]]), np.array([[np.inf]]))

    def test_rejects_column_mismatch(self):
        k = KernelSpec("rbf", 1.0)
        with pytest.raises(InvalidInputError):
            gram_matrix(k, np.zeros((2, 2)), np.zeros((2, 3)))

    def test_rejects_asymmetric_entries(self):
        with pytest.raises(InvalidInputError):
            GramMatrix(np.array([[1.0, 0.3], [0.2, 1.0]]))


class TestSpectralDecompose:
    def test_identity(self):
        spec = spectral_decompose(GramMatrix(np.eye(2)))
        assert np.allclose(spec.eigenvalues, [1.0, 1.0])

    def test_already_diagonal(self):
        spec = spectral_decompose(GramMatrix(np.diag([2.0, 1.0])))
        assert np.allclose(spec.eigenvalues, [2.0, 1.0])
        # eigenvectors are signed unit vectors
        assert np.allclose(np.abs(spec.eigenvectors), np.eye(2))

    def test_reconstruction_oracle(self):
        G = random_spd(5, seed=1)
        spec = spectral_decompose(GramMatrix(G))
        U = spec.eigenvectors
        assert np.max(np.abs((U * spec.eigenvalues) @ U.T - G)) < 1e-8

    def test_orthogonality(self):
        spec = spectral_decompose(GramMatrix(random_spd(6, seed=2)))
        U = spec.eigenvectors
        assert np.max(np.abs(U.T @ U - np.eye(6))) < 1e-8

    def test_clamps_tiny_negatives(self):
        v = np.array([1.0, 1.0]) / np.sqrt(2)
        G = np.outer(v, v)  # rank one, exact zero eigenvalue up to rounding
        spec = spectral_decompose(GramMatrix(G))
        assert spec.eigenvalues[-1] >= 0.0

    def test_rejects_indefinite(self):
        # nonnegative diagonal but eigenvalues 3 and -1
        with pytest.raises(NumericError):
            spectral_decompose(GramMatrix(np.array([[1.0, 2.0], [2.0, 1.0]])))

    def test_negative_diagonal_is_invalid_gram(self):
        with pytest.raises(InvalidInputError):
            GramMatrix(np.diag([1.0, -0.5]))


class TestSqrtGram:
    def test_identity(self):
        spec = spectral_decompose(GramMatrix(np.eye(3)))
        assert np.allclose(sqrt_gram(spec), np.eye(3))

    def test_diagonal(self):
        spec = spectral_decompose(GramMatrix(np.diag([4.0, 1.0])))
        assert np.allclose(sqrt_gram(spec), np.diag([2.0, 1.0]))

    def test_squaring_oracle(self):
        G = random_spd(4, seed=3)
        spec = spectral_decompose(GramMatrix(G))
        R = sqrt_gram(spec)
        assert np.array_equal(R, R.T)
        assert np.max(np.abs(R @ R - G)) < 1e-8 * np.max(np.abs(G))


class TestInvKernelNormSq:
    def test_identity_kernel(self):
        spec = spectral_decompose(GramMatrix(np.eye(3)))
        y = np.array([1.0, -2.0, 0.5])
        assert inv_kernel_norm_sq(spec, y) == pytest.approx(float(y @ y))

    def test_zero_labels(self):
        spec = spectral_decompose(GramMatrix(np.eye(2)))
        assert inv_kernel_norm_sq(spec, np.zeros(2)) == 0.0

    def test_diag_two_by_two(self):
        spec = spectral_decompose(GramMatrix(np.diag([2.0, 1.0])))
        assert inv_kernel_norm_sq(spec, np.array([1.0, 1.0])) == pytest.approx(1.5)

    def test_pseudoinverse_fallback_restricts_to_range(self):
        v = np.array([1.0, 0.0])
        spec = spectral_decompose(GramMatrix(np.outer(v, v)))
        q = inv_kernel_norm_sq(spec, np.array([1.0, 1.0]))
        # only the rank-one direction contributes: (v.y)^2 / 1
        assert q == pytest.approx(1.0)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(2, 8), st.integers(0, 10_000))
    def test_bounded_by_extreme_eigenvalues(self, n, seed):
        G = random_spd(n, seed)
        spec = spectral_decompose(GramMatrix(G))
        rng = np.random.default_rng(seed + 1)
        y = rng.normal(size=n)
        q = inv_kernel_norm_sq(spec, y)
        ysq = float(y @ y)
        d = spec.eigenvalues
        assert q >= ysq / d[0] - 1e-9 * ysq
        assert q <= ysq / d[-1] + 1e-9 * ysq / d[-1]


class TestApplyInverse:
    def test_invertible_spectrum_gets_the_plain_inverse_bits(self):
        spec = spectral_decompose(GramMatrix(random_spd(5, 3)))
        V = np.random.default_rng(4).normal(size=(5, 3))
        U, d = spec.eigenvectors, spec.eigenvalues
        assert np.array_equal(apply_inverse(spec, V), U @ ((U.T @ V).T / d).T)
        assert np.array_equal(apply_inverse(spec, V[:, 0]), U @ ((U.T @ V[:, 0]) / d))

    def test_singular_spectrum_gets_the_pseudoinverse(self):
        # rank two in three dimensions; the floor drops the zero eigenvalue
        A = np.random.default_rng(5).normal(size=(3, 2))
        K = A @ A.T
        v = np.array([1.0, -2.0, 0.5])
        assert np.allclose(apply_inverse(spectral_decompose(GramMatrix(K)), v), np.linalg.pinv(K) @ v,
                           rtol=1e-10, atol=1e-12)


class TestDataset:
    def test_duplicate_rows_rejected(self):
        with pytest.raises(DuplicateRowError):
            Dataset(X=np.array([[1.0, 2.0], [1.0, 2.0]]), y=np.array([0.0, 1.0]))

    def test_near_duplicate_rejected(self):
        X = np.array([[1.0, 2.0], [1.0, 2.0 + 1e-9]])
        with pytest.raises(DuplicateRowError):
            Dataset(X=X, y=np.array([0.0, 1.0]))

    def test_distinct_rows_pass(self):
        ds = Dataset(X=np.array([[1.0], [2.0]]), y=np.array([0.0, 1.0]))
        assert ds.n == 2 and ds.dim == 1

    def test_nonfinite_labels_rejected(self):
        with pytest.raises(InvalidInputError):
            Dataset(X=np.array([[0.0], [1.0]]), y=np.array([0.0, np.nan]))
