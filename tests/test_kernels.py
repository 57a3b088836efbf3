import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from effridge import (
    Dataset,
    DuplicateRowError,
    GramSpectrum,
    InvalidInputError,
    KernelSpec,
    NumericError,
    Spectrum,
    coordinates,
    gram_matrix,
    solve_effective_ridge,
    spectral_decompose,
    spectral_sum,
    sqrt_gram,
    theta_norm_theory,
)
from effridge.kernels import RANK_FLOOR_REL, apply_inverse
from effridge.predictors import fit_rf_stacked


def inv_kernel_norm_sq(spec, y):
    """``y^T K^+ y``, the squared inverse-kernel norm of the labels: the sum of ``w w / d`` over the range."""
    w = coordinates(spec, y)
    return float(spectral_sum(spec, w, w))


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
        assert type(G) is np.ndarray and G.shape == (7, 7)
        assert np.array_equal(G, G.T)
        assert np.all(np.diag(G) == 1.0)

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


class TestSpectralDecompose:
    def test_identity(self):
        spec = spectral_decompose(np.eye(2))
        assert np.allclose(spec.eigenvalues, [1.0, 1.0])

    def test_already_diagonal(self):
        spec = spectral_decompose(np.diag([2.0, 1.0]))
        assert np.allclose(spec.eigenvalues, [2.0, 1.0])
        # eigenvectors are signed unit vectors
        assert np.allclose(np.abs(spec.eigenvectors), np.eye(2))

    def test_reconstruction_oracle(self):
        G = random_spd(5, seed=1)
        spec = spectral_decompose(G)
        U = spec.eigenvectors
        assert np.max(np.abs((U * spec.eigenvalues) @ U.T - G)) < 1e-8

    def test_orthogonality(self):
        spec = spectral_decompose(random_spd(6, seed=2))
        U = spec.eigenvectors
        assert np.max(np.abs(U.T @ U - np.eye(6))) < 1e-8

    def test_clamps_tiny_negatives(self):
        v = np.array([1.0, 1.0]) / np.sqrt(2)
        G = np.outer(v, v)  # rank one, exact zero eigenvalue up to rounding
        spec = spectral_decompose(G)
        assert spec.eigenvalues[-1] >= 0.0

    def test_rejects_indefinite(self):
        # nonnegative diagonal but eigenvalues 3 and -1
        with pytest.raises(NumericError):
            spectral_decompose(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_rejects_all_negative(self):
        # passes the diagonal check, within 1e-12 of zero, but has no nonnegative eigenvalue
        with pytest.raises(NumericError):
            spectral_decompose(np.array([[-1e-13]]))

    def test_returns_a_checked_spectrum(self):
        spec = spectral_decompose(np.diag([1.0, 3.0]))
        assert isinstance(spec, GramSpectrum) and isinstance(spec, Spectrum)
        assert (spec.n, spec.trace_mean) == (2, 2.0)
        with pytest.raises(ValueError):
            spec.eigenvalues[0] = -1.0

    def test_empty_gram_is_an_input_error(self):
        with pytest.raises(InvalidInputError):
            spectral_decompose(np.zeros((0, 0)))

    # spectral_decompose is where a Gram is checked: one case per check.
    def test_rejects_non_square(self):
        for bad in (np.ones((2, 3)), np.ones(3)):
            with pytest.raises(InvalidInputError, match="must be square"):
                spectral_decompose(bad)

    def test_rejects_nonfinite_entries(self):
        for bad in (np.array([[1.0, np.nan], [np.nan, 1.0]]), np.diag([1.0, np.inf])):
            with pytest.raises(InvalidInputError, match="non-finite entries"):
                spectral_decompose(bad)

    def test_rejects_asymmetric_entries(self):
        with pytest.raises(InvalidInputError, match="not symmetric"):
            spectral_decompose(np.array([[1.0, 0.3], [0.2, 1.0]]))

    def test_negative_diagonal_is_invalid_gram(self):
        with pytest.raises(InvalidInputError, match="negative diagonal"):
            spectral_decompose(np.diag([1.0, -0.5]))


class TestSqrtGram:
    def test_identity(self):
        spec = spectral_decompose(np.eye(3))
        assert np.allclose(sqrt_gram(spec), np.eye(3))

    def test_diagonal(self):
        spec = spectral_decompose(np.diag([4.0, 1.0]))
        assert np.allclose(sqrt_gram(spec), np.diag([2.0, 1.0]))

    def test_squaring_oracle(self):
        G = random_spd(4, seed=3)
        spec = spectral_decompose(G)
        R = sqrt_gram(spec)
        assert np.array_equal(R, R.T)
        assert np.max(np.abs(R @ R - G)) < 1e-8 * np.max(np.abs(G))


class TestInvKernelNormSq:
    def test_identity_kernel(self):
        spec = spectral_decompose(np.eye(3))
        y = np.array([1.0, -2.0, 0.5])
        assert inv_kernel_norm_sq(spec, y) == pytest.approx(float(y @ y))

    def test_zero_labels(self):
        spec = spectral_decompose(np.eye(2))
        assert inv_kernel_norm_sq(spec, np.zeros(2)) == 0.0

    def test_diag_two_by_two(self):
        spec = spectral_decompose(np.diag([2.0, 1.0]))
        assert inv_kernel_norm_sq(spec, np.array([1.0, 1.0])) == pytest.approx(1.5)

    def test_pseudoinverse_fallback_restricts_to_range(self):
        v = np.array([1.0, 0.0])
        spec = spectral_decompose(np.outer(v, v))
        q = inv_kernel_norm_sq(spec, np.array([1.0, 1.0]))
        # only the rank-one direction contributes: (v.y)^2 / 1
        assert q == pytest.approx(1.0)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(2, 8), st.integers(0, 10_000))
    def test_bounded_by_extreme_eigenvalues(self, n, seed):
        G = random_spd(n, seed)
        spec = spectral_decompose(G)
        rng = np.random.default_rng(seed + 1)
        y = rng.normal(size=n)
        q = inv_kernel_norm_sq(spec, y)
        ysq = float(y @ y)
        d = spec.eigenvalues
        assert q >= ysq / d[0] - 1e-9 * ysq
        assert q <= ysq / d[-1] + 1e-9 * ysq / d[-1]


class TestSpectralSum:
    def test_each_term_is_weight_times_a_times_b_over_the_shifted_power(self):
        spec = spectral_decompose(random_spd(5, 3))
        rng = np.random.default_rng(8)
        A, B = rng.normal(size=(3, 5)), rng.normal(size=5)
        d = spec.eigenvalues
        assert np.array_equal(spectral_sum(spec, A, B, 0.3, 2, d), np.sum(d * A * B / (d + 0.3) ** 2, axis=-1))
        assert spectral_sum(spec, B, B) == np.sum(B * B / d)

    def test_zero_shift_sums_over_the_range_only(self):
        # 1e-11 lies below the rank floor: it drops out at shift 0 and divides at any positive shift.
        spec = spectral_decompose(np.diag([1.0, 1e-11]))
        a = np.array([1.0, 1.0])
        assert spectral_sum(spec, a, a) == 1.0
        assert spectral_sum(spec, a, a, 1.0) == 0.5 + 1.0 / (1.0 + 1e-11)

    def test_denominator_past_the_float_range_gives_zero_without_a_warning(self):
        spec = spectral_decompose(np.eye(2))
        a = np.ones(2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert spectral_sum(spec, a, a, 1e160, 2, spec.eigenvalues) == 0.0


class TestApplyInverse:
    def test_invertible_spectrum_gets_the_plain_inverse_bits(self):
        spec = spectral_decompose(random_spd(5, 3))
        V = np.random.default_rng(4).normal(size=(5, 3))
        U, d = spec.eigenvectors, spec.eigenvalues
        assert np.array_equal(apply_inverse(spec, V), U @ ((U.T @ V).T / d).T)
        assert np.array_equal(apply_inverse(spec, V[:, 0]), U @ ((U.T @ V[:, 0]) / d))

    def test_singular_spectrum_gets_the_pseudoinverse(self):
        # rank two in three dimensions; the floor drops the zero eigenvalue
        A = np.random.default_rng(5).normal(size=(3, 2))
        K = A @ A.T
        v = np.array([1.0, -2.0, 0.5])
        assert np.allclose(apply_inverse(spectral_decompose(K), v), np.linalg.pinv(K) @ v,
                           rtol=1e-10, atol=1e-12)


class TestOneRank:
    # 1e-11 lies below the floor RANK_FLOOR_REL times the largest eigenvalue, 1e-3 above it.
    D = np.array([1.0, 1e-3, 1e-11, 0.0])

    def test_every_reader_of_a_computed_gram_counts_rank_two(self):
        assert 1e-11 <= RANK_FLOOR_REL <= 1e-3
        rng = np.random.default_rng(3)
        U = np.linalg.qr(rng.normal(size=(4, 4)))[0]
        G = (U * self.D) @ U.T
        spec = spectral_decompose(0.5 * (G + G.T))
        assert spec.rank == 2 and spec.in_range.tolist() == [True, True, False, False]
        U2 = U[:, :2]
        assert np.allclose(apply_inverse(spec, np.eye(4)), (U2 / self.D[:2]) @ U2.T, rtol=1e-9, atol=0)
        y = U @ np.ones(4)
        assert inv_kernel_norm_sq(spec, y) == pytest.approx(1001.0, rel=1e-9)
        eff = solve_effective_ridge(spec, 2.0, 0.0)
        assert eff.lambda_tilde == 0.0 and eff.effective_dimension == 2.0
        # 1 / (1 - rank / (N gamma)) at gamma = 2
        assert eff.d_lambda_tilde == 4 / 3
        assert theta_norm_theory(spec, y, eff) == pytest.approx(4 / 3 * 1001.0, rel=1e-9)
        with pytest.raises(InvalidInputError, match="full-rank"):
            solve_effective_ridge(spec, 0.5, 0.0)
        # Features with the matching singular values: F F^T = G, so the ridgeless fit
        # interpolates on the same two directions, with the same norm.
        V = np.linalg.qr(rng.normal(size=(6, 4)))[0]
        F = (U * np.sqrt(self.D)) @ V.T
        theta = fit_rf_stacked(F[None], y, [0.0])[0, 0]
        assert np.allclose(F @ theta, U2 @ np.ones(2), rtol=0, atol=1e-9)
        assert float(theta @ theta) == pytest.approx(1001.0, rel=1e-9)

    def test_given_eigenvalues_are_exact(self):
        spectrum = Spectrum(self.D)
        assert spectrum.rank == 3 and spectrum.in_range.tolist() == [True, True, True, False]
        eff = solve_effective_ridge(spectrum, 2.0, 0.0)
        assert eff.effective_dimension == 3.0
        assert eff.d_lambda_tilde == 1 / (1 - 3 / 8)


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

    def test_nonfinite_f_star_rejected(self):
        with pytest.raises(InvalidInputError, match="f_star contains non-finite values"):
            Dataset(X=np.array([[0.0], [1.0]]), y=np.array([0.0, 1.0]), f_star=[np.nan])
