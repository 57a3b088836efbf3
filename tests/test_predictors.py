import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from effridge import (
    InvalidInputError,
    KernelSpec,
    SeedPolicy,
    apply_inverse,
    coordinates,
    generate_sinusoid,
    gram_matrix,
    run_trials,
    spectral_decompose,
    spectral_sum,
    sqrt_gram,
)
from effridge.features import gaussian_features, normal_chunks
from effridge.kernels import RANK_FLOOR_REL
from effridge.predictors import fit_rf_stacked


def posterior_kernel_diag(spec, k_cross, k_xx):
    """Posterior variances ``k(x, x) - K(x, X) K^+ K(X, x)`` of the feature process, clipped at zero."""
    C = coordinates(spec, np.atleast_2d(k_cross).T)
    return np.maximum(k_xx - spectral_sum(spec, C, C), 0.0)


def fit_one(F, y, lam):
    """Ridge parameters of one feature block: the one-draw, one-ridge case of the stacked fit."""
    return fit_rf_stacked(F[None], y, [lam])[0, 0]


def engine_run(lam, trials, y=None):
    """``run_trials`` at P = 5 on four sinusoid points (labels ``y`` if given) and five test points.

    Returns the data, the joint features of every trial, stacked, and the run's stats.
    """
    data, test_X = generate_sinusoid(4, 5, seed=1)
    if y is not None:
        data = type(data)(X=data.X, y=y, f_star=data.f_star)
    kernel = KernelSpec("rbf", 2.0)
    stats = run_trials(data, test_X, kernel, [5], [lam], trials, 3)[5][0]
    root = sqrt_gram(spectral_decompose(gram_matrix(kernel, np.vstack([data.X, test_X]))))
    ((_, W),) = normal_chunks(SeedPolicy(3, 0), trials, (5, 9))
    return data, gaussian_features(root, W), stats


class TestFitRF:
    def test_overparameterized_ridgeless_interpolates(self):
        rng = np.random.default_rng(0)
        F = rng.normal(size=(3, 6))
        y = rng.normal(size=3)
        theta = fit_one(F, y, 0.0)
        assert np.max(np.abs(F @ theta - y)) < 1e-8

    def test_huge_ridge_shrinks_to_zero(self):
        rng = np.random.default_rng(1)
        F = rng.normal(size=(4, 4))
        y = rng.normal(size=4)
        theta = fit_one(F, y, 1e12)
        assert np.linalg.norm(theta) < 1e-9 * np.linalg.norm(F.T @ y)

    def test_two_by_two_hand_solve(self):
        theta = fit_one(np.eye(2), np.array([1.0, 2.0]), 1.0)
        assert np.allclose(theta, [0.5, 1.0], atol=1e-12)

    def test_theta_norm_sq_field(self):
        # A two-trial run reports the mean squared norm of its two draws' fitted parameters.
        data, F, stats = engine_run(0.3, 2)
        norms = [float(theta @ theta) for theta in (fit_one(f[:4], data.y, 0.3) for f in F)]
        assert stats.mean_theta_norm_sq == pytest.approx(np.mean(norms), rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 7), st.integers(1, 7), st.floats(1e-6, 1e3), st.integers(0, 1000))
    def test_dual_primal_equivalence(self, n, p, lam, seed):
        rng = np.random.default_rng(seed)
        F = rng.normal(size=(n, p))
        y = rng.normal(size=n)
        dual = F.T @ np.linalg.solve(F @ F.T + lam * np.eye(n), y)
        primal = np.linalg.solve(F.T @ F + lam * np.eye(p), F.T @ y)
        theta = fit_one(F, y, lam)
        scale = max(np.linalg.norm(dual), 1e-30)
        assert np.linalg.norm(dual - primal) < 1e-8 * scale
        assert np.linalg.norm(theta - dual) < 1e-8 * scale

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 6), st.integers(2, 8), st.floats(1e-4, 10.0), st.integers(0, 1000))
    def test_theta_norm_resolvent_identity(self, n, p, lam, seed):
        # ||theta||^2 = y^T (FF^T + lam I)^{-1} FF^T (FF^T + lam I)^{-1} y
        rng = np.random.default_rng(seed)
        F = rng.normal(size=(n, p))
        y = rng.normal(size=n)
        theta = fit_one(F, y, lam)
        G = F @ F.T
        # evaluate the resolvent quadratic form in the eigenbasis of G, where
        # it is free of cancellation, so the oracle itself is accurate
        w, V = np.linalg.eigh(G)
        w = np.where(w > 1e-12 * np.max(w), w, 0.0)  # exact zeros for rank junk
        c = V.T @ y
        expected = float(np.sum(w * c * c / (w + lam) ** 2))
        assert float(theta @ theta) == pytest.approx(expected, rel=1e-10, abs=1e-14)


class TestPredictRF:
    """The trial engine predicts with ``root W^T theta / sqrt(P)``, never forming the joint feature block."""

    def test_train_consistency(self):
        # The first trial's joint predictions, train rows then test rows, are its features times its parameters.
        data, F, stats = engine_run(0.5, 2, y=np.array([0.3, -1.0, 0.5, 2.0]))
        theta = fit_one(F[0, :4], data.y, 0.5)
        assert np.allclose(stats.samples[0], F[0] @ theta, rtol=1e-12, atol=1e-14)

    def test_zero_parameters(self):
        _, _, stats = engine_run(1.0, 3, y=np.zeros(4))
        assert np.all(stats.samples == 0.0)


class TestKRR:
    """Kernel ridge regression is the spectral solve ``apply_inverse(spec, y, lam)``, predicted as ``k_cross @ alpha``."""

    def test_identity_gram(self):
        y = np.array([2.0, -4.0])
        alpha = apply_inverse(spectral_decompose(np.eye(2)), y, 1.0)
        assert np.allclose(alpha, y / 2)
        assert np.allclose(np.eye(2) @ alpha, y / 2)

    def test_ridgeless_interpolation(self):
        K = np.array([[2.0, 0.5], [0.5, 1.0]])
        y = np.array([1.0, -1.0])
        alpha = apply_inverse(spectral_decompose(K), y, 0.0)
        assert np.max(np.abs(K @ alpha - y)) < 1e-8

    def test_diag_hand_solve(self):
        alpha = apply_inverse(spectral_decompose(np.diag([2.0, 1.0])), np.array([1.0, 1.0]), 1.0)
        assert np.allclose(alpha, [1.0 / 3.0, 0.5], atol=1e-12)

    @pytest.mark.parametrize("lam", [1e-12, 0.1, 7.3])
    @pytest.mark.parametrize("singular", [False, True])
    def test_positive_ridge_is_the_eigenbasis_division(self, lam, singular):
        # At lam > 0 every eigenvalue divides, those below the rank floor included, bit for bit.
        A = np.random.default_rng(6).normal(size=(5, 3 if singular else 5))
        spec = spectral_decompose(A @ A.T)
        assert (spec.rank < spec.n) == singular
        y = np.random.default_rng(7).normal(size=5)
        U = spec.eigenvectors
        assert np.array_equal(apply_inverse(spec, y, lam), U @ ((U.T @ y) / (spec.eigenvalues + lam)))

    def test_negative_ridge_is_refused(self):
        with pytest.raises(InvalidInputError, match="ridge must be nonnegative"):
            apply_inverse(spectral_decompose(np.eye(2)), np.array([1.0, 1.0]), -0.1)

    def test_solve_checks_the_vector_length(self):
        with pytest.raises(InvalidInputError, match="does not match the spectrum"):
            apply_inverse(spectral_decompose(np.eye(2)), np.ones(3), 1.0)

    def test_singular_ridgeless_is_the_pseudoinverse(self):
        # K = v v^T has K^+ = v v^T / 4, so K^+ y = (0.5, 0.5) for y = v.
        v = np.array([1.0, 1.0])
        spec = spectral_decompose(np.outer(v, v))
        assert np.allclose(apply_inverse(spec, v, 0.0), [0.5, 0.5], atol=1e-12)

    def test_invertible_ridgeless_keeps_the_plain_inverse_bits(self):
        spec = spectral_decompose(np.array([[2.0, 0.5], [0.5, 1.0]]))
        y = np.array([1.0, -1.0])
        U = spec.eigenvectors
        assert np.array_equal(apply_inverse(spec, y, 0.0), U @ ((U.T @ y) / spec.eigenvalues))


class TestPosteriorKernel:
    def test_vanishes_at_training_point(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(5, 2))
        kernel = KernelSpec("rbf", 2.0)
        spec = spectral_decompose(gram_matrix(kernel, X))
        k_cross = gram_matrix(kernel, X[2:3], X)
        assert posterior_kernel_diag(spec, k_cross, 1.0)[0] == pytest.approx(0.0, abs=1e-8)

    def test_far_point_keeps_prior_variance(self):
        spec = spectral_decompose(np.eye(3))
        assert posterior_kernel_diag(spec, np.zeros((1, 3)), 1.0)[0] == pytest.approx(1.0)

    def test_scalar_case(self):
        spec = spectral_decompose(np.array([[1.0]]))
        assert posterior_kernel_diag(spec, np.array([[0.5]]), 1.0)[0] == pytest.approx(0.75)


class TestConditionalMoments:
    """Given the features on the training set, the predictor is a Gaussian process.

    Its mean at ``x`` is ``K(x, X) K(X, X)^{-1} yhat``, with ``yhat`` the train
    predictions, and its covariance ``(||theta||^2 / P) * Ktilde(x, x')``.
    """

    def _setup(self, lam=0.1, P=6, seed=0):
        data, test_X = generate_sinusoid(4, 25, seed=3)
        kernel = KernelSpec("rbf", 2.0)
        X_all = np.vstack([data.X, test_X])
        spec_all = spectral_decompose(gram_matrix(kernel, X_all))
        ((_, W),) = normal_chunks(SeedPolicy(seed, 0), 1, (P, X_all.shape[0]))
        F_train = gaussian_features(sqrt_gram(spec_all), W)[0, : data.n]
        theta = fit_one(F_train, data.y, lam)
        spec = spectral_decompose(gram_matrix(kernel, data.X))
        k_cross = gram_matrix(kernel, test_X, data.X)
        return data, test_X, kernel, spec, F_train, theta, k_cross

    def test_mean_at_training_points_is_yhat(self):
        data, _, kernel, spec, F_train, theta, _ = self._setup()
        k_self = gram_matrix(kernel, data.X)
        mean = k_self @ apply_inverse(spec, F_train @ theta)
        assert np.max(np.abs(mean - F_train @ theta)) < 1e-8

    def test_zero_parameters_degenerate(self):
        data, test_X, kernel, spec, F_train, theta, k_cross = self._setup()
        zero_theta = fit_one(F_train, np.zeros(data.n), 0.5)
        assert np.all(k_cross @ apply_inverse(spec, F_train @ zero_theta) == 0.0)
        assert zero_theta @ zero_theta / zero_theta.size == 0.0

    def test_conditional_resampling_oracle(self):
        # given fixed features on the training set, resample the feature process
        # at test points from its Gaussian conditional; empirical mean and
        # variance of the resulting predictor match the stated moments
        data, test_X, kernel, spec, F_train, theta, k_cross = self._setup(lam=0.1, P=6, seed=1)
        mean, cov_scale = k_cross @ apply_inverse(spec, F_train @ theta), theta @ theta / theta.size
        ktilde = posterior_kernel_diag(spec, k_cross, 1.0)

        K_inv_cross = np.linalg.solve(gram_matrix(kernel, data.X), k_cross.T)
        cond_mean_map = K_inv_cross.T  # maps train feature values to conditional means
        K_tt = gram_matrix(kernel, test_X)
        cond_cov = K_tt - k_cross @ K_inv_cross
        w, V = np.linalg.eigh(cond_cov)
        root = (V * np.sqrt(np.maximum(w, 0.0))) @ V.T

        rng = np.random.default_rng(42)
        P = theta.size
        n_rep = 4000
        preds = np.empty((n_rep, test_X.shape[0]))
        train_vals = np.sqrt(P) * F_train  # feature values before 1/sqrt(P)
        for r in range(n_rep):
            test_feats = cond_mean_map @ train_vals + root @ rng.normal(size=(test_X.shape[0], P))
            preds[r] = (test_feats / np.sqrt(P)) @ theta
        emp_mean = preds.mean(axis=0)
        emp_var = preds.var(axis=0, ddof=1)
        theo_var = cov_scale * ktilde
        se_mean = np.sqrt(theo_var / n_rep)
        assert np.all(np.abs(emp_mean - mean) <= 3.0 * se_mean + 1e-12)
        se_var = theo_var * np.sqrt(2.0 / (n_rep - 1))
        assert np.all(np.abs(emp_var - theo_var) <= 4.0 * se_var + 1e-12)


class TestRidgelessUnbiasedness:
    def test_mean_matches_ridgeless_krr(self):
        # overparameterized ridgeless sampled predictor averages to the
        # ridgeless kernel predictor within Monte Carlo error
        data, test_X = generate_sinusoid(4, 20, seed=5)
        kernel = KernelSpec("rbf", 2.0)
        X_all = np.vstack([data.X, test_X])
        root = sqrt_gram(spectral_decompose(gram_matrix(kernel, X_all)))
        P, trials = 16, 400
        acc = np.zeros((trials, test_X.shape[0]))
        for t0, W in normal_chunks(SeedPolicy(17, 0), trials, (P, X_all.shape[0])):
            F = gaussian_features(root, W)
            thetas = fit_rf_stacked(F[:, : data.n], data.y, [0.0])[0]
            acc[t0 : t0 + len(W)] = [f[data.n :] @ theta for f, theta in zip(F, thetas)]
        gram = gram_matrix(kernel, data.X)
        krr_pred = gram_matrix(kernel, test_X, data.X) @ apply_inverse(spectral_decompose(gram), data.y, 0.0)
        band = 3.0 * acc.std(axis=0, ddof=1) / np.sqrt(trials)
        assert np.all(np.abs(acc.mean(axis=0) - krr_pred) <= band + 1e-12)


class TestStackedFit:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 4),
        st.integers(1, 7),
        st.integers(-3, 3),
        st.sampled_from([0.0, 1e-2, 1.0, 1e3]),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_lstsq_and_normal_equations(self, B, N, dP, lam, seed):
        # Shapes with N < P, N = P and N > P; some draws rank-deficient, so the
        # ridgeless cutoff decides.  Nonzero singular values lie in [0.5, 2] and
        # the normal equations' condition number is at most (4 + lam) / lam <= 401,
        # so both sides are accurate to well within 1e-10 relative.
        P = max(1, N + dP)
        k = min(N, P)
        rng = np.random.default_rng(seed)
        F = np.empty((B, N, P))
        for b in range(B):
            rank = rng.integers(1, k + 1)
            U = np.linalg.qr(rng.standard_normal((N, k)))[0]
            V = np.linalg.qr(rng.standard_normal((P, k)))[0]
            s = np.where(np.arange(k) < rank, rng.uniform(0.5, 2.0, k), 0.0)
            F[b] = (U * s) @ V.T
        y = rng.standard_normal(N)
        thetas = fit_rf_stacked(F, y, [lam])[0]
        for f, theta in zip(F, thetas):
            if lam == 0.0:
                ref = np.linalg.lstsq(f, y, rcond=np.sqrt(RANK_FLOOR_REL))[0]
            else:
                ref = np.linalg.solve(f.T @ f + lam * np.eye(P), f.T @ y)
            assert np.linalg.norm(theta - ref) <= 1e-10 * max(np.linalg.norm(ref), 1e-300)

    @pytest.mark.parametrize("N, P", [(6, 3), (3, 6)], ids=["tall", "wide"])
    def test_mixed_ridges_equal_one_ridge_calls(self, N, P):
        # Zero ridges between positive ones: the batched solve and the shared
        # eigh must give each ridge the bits of its own call, in order.
        rng = np.random.default_rng(8)
        F = rng.standard_normal((4, N, P))
        y = rng.standard_normal(N)
        lams = [0.3, 0.0, 1.0, 0.0]
        thetas = fit_rf_stacked(F, y, lams)
        assert thetas.shape == (4, 4, P)
        for lam, theta in zip(lams, thetas):
            assert np.array_equal(fit_rf_stacked(F, y, [lam])[0], theta)
        assert fit_rf_stacked(F, y, []).shape == (0, 4, P)

    @pytest.mark.parametrize("N, P", [(5, 4), (4, 5)])
    def test_one_draw_equals_its_slice_of_a_stack(self, N, P):
        rng = np.random.default_rng(6)
        F = rng.standard_normal((3, N, P))
        y = rng.standard_normal(N)
        thetas = fit_rf_stacked(F, y, [0.0, 0.3])
        for i, lam in enumerate([0.0, 0.3]):
            for f, theta in zip(F, thetas[i]):
                assert np.array_equal(fit_one(f, y, lam), theta)
