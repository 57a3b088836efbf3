import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from effridge import (
    InvalidInputError,
    KernelSpec,
    Spectrum,
    generate_sinusoid,
    gram_matrix,
    run_trials,
    solve_effective_ridge,
    spectral_decompose,
    theta_norm_theory,
)
from effridge.montecarlo import _merge


KERNEL = KernelSpec("rbf", 2.0)


def sinusoid_stats(P=8, lam=0.1, trials=50, seed=0, n=4, n_test=20):
    data, test_X = generate_sinusoid(n, n_test, seed=1)
    stats = run_trials(data, test_X, KERNEL, [P], [lam], trials, seed)[P][0]
    return data, test_X, stats


class TestMoments:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=60), st.integers(1, 7))
    def test_matches_numpy(self, values, chunk):
        mean = m2 = 0.0
        for i in range(0, len(values), chunk):
            mean, m2 = _merge(mean, m2, i, np.array(values[i : i + chunk]))
        assert float(mean) == pytest.approx(np.mean(values), rel=1e-10, abs=1e-9)
        assert float(m2 / (len(values) - 1)) == pytest.approx(np.var(values, ddof=1), rel=1e-8, abs=1e-9)


    @pytest.mark.parametrize("layout", ["contiguous", "transposed"])
    def test_same_bits_as_the_mean_and_squared_deviation_formula(self, layout):
        # The formula _merge replaced; joint predictions arrive as a transposed view.
        def reference(mean, m2, count, chunk):
            n = len(chunk)
            chunk_mean = np.mean(chunk, axis=0)
            chunk_m2 = np.sum((chunk - chunk_mean) ** 2, axis=0)
            delta = chunk_mean - mean
            total = count + n
            return mean + delta * (n / total), m2 + chunk_m2 + delta * delta * (count * n / total)

        rng = np.random.default_rng(4)
        got = want = (0.0, 0.0)
        count = 0
        for n in (19, 19, 1, 7):
            if layout == "contiguous":
                chunk = rng.standard_normal((n, 3, 104)) * 5.0 + 2.0
            else:
                chunk = (rng.standard_normal((3, n, 104)) * 5.0 + 2.0).transpose(1, 0, 2)
            got, want = _merge(*got, count, chunk), reference(*want, count, chunk)
            for a, b in zip(got, want):
                assert np.array_equal(a, b)
            count += n


class TestRunTrials:
    def test_two_trial_mean_is_the_sample_mean(self):
        data, test_X = generate_sinusoid(4, 10, seed=1)
        stats = run_trials(data, test_X, KERNEL, [6], [0.1], 2, 3)[6][0]
        stats3 = run_trials(data, test_X, KERNEL, [6], [0.1], 3, 3)[6][0]
        assert np.array_equal(stats.mean_prediction, (stats.samples[0, data.n :] + stats.samples[1, data.n :]) / 2)
        # the first trials contribute identically in both runs
        assert np.array_equal(stats3.samples[:2], stats.samples)

    def test_one_trial_is_refused(self):
        data, test_X = generate_sinusoid(4, 10, seed=1)
        with pytest.raises(InvalidInputError, match="trials must be at least 2"):
            run_trials(data, test_X, KERNEL, [6], [0.1], 1, 3)

    def test_interpolation_when_overparameterized_ridgeless(self):
        data, test_X = generate_sinusoid(4, 10, seed=1)
        for trials in (2, 3, 7):
            stats = run_trials(data, test_X, KERNEL, [8], [0.0], trials, 0)[8][0]
            assert np.max(np.abs(stats.mean_train_prediction - data.y)) < 1e-6

    def test_reproducible_bit_identical(self):
        _, _, a = sinusoid_stats(trials=12, seed=9)
        _, _, b = sinusoid_stats(trials=12, seed=9)
        assert np.array_equal(a.mean_prediction, b.mean_prediction)
        assert np.array_equal(a.var_prediction, b.var_prediction)
        assert a.mean_theta_norm_sq == b.mean_theta_norm_sq

    def test_mean_close_to_ridgeless_krr(self):
        # small-ridge mean curve at large P tracks the matched kernel
        # predictor within the Monte Carlo band at each of 100 test points;
        # the comparison to the ridgeless kernel predictor additionally
        # allows the deterministic small-ridge offset, since near training
        # points the band collapses below that offset
        from effridge import apply_inverse

        data, test_X = generate_sinusoid(4, 100, seed=1)
        stats = run_trials(data, test_X, KERNEL, [100], [1e-4], 500, 0)[100][0]
        gram = gram_matrix(KERNEL, data.X)
        k_cross = gram_matrix(KERNEL, test_X, data.X)
        spec = spectral_decompose(gram)
        eff = solve_effective_ridge(Spectrum(spec.eigenvalues), 25.0, 1e-4)
        pred_eff = k_cross @ apply_inverse(spec, data.y, eff.lambda_tilde)
        pred_zero = k_cross @ apply_inverse(spec, data.y, 0.0)
        band = 3.0 * np.sqrt(stats.var_prediction / 500)
        assert np.all(np.abs(stats.mean_prediction - pred_eff) <= band + 1e-12)
        offset = np.abs(pred_eff - pred_zero)
        assert np.all(np.abs(stats.mean_prediction - pred_zero) <= band + offset + 1e-12)

    def test_variance_dominates_theory_term(self):
        # far from the interpolation threshold (P >= 4N) and with a healthy
        # ridge, the sampled-predictor variance clears half the leading
        # theoretical term at every test point
        from effridge import coordinates, spectral_sum

        data, test_X = generate_sinusoid(4, 50, seed=1)
        spec = spectral_decompose(gram_matrix(KERNEL, data.X))
        C = coordinates(spec, gram_matrix(KERNEL, test_X, data.X).T)
        ktilde = np.maximum(1.0 - spectral_sum(spec, C, C), 0.0)
        for lam in (0.1, 0.5):
            P = 16
            stats = run_trials(data, test_X, KERNEL, [P], [lam], 1500, 0)[P][0]
            eff = solve_effective_ridge(Spectrum(spec.eigenvalues), P / 4, lam)
            theory = theta_norm_theory(spec, data.y, eff) / P * ktilde
            assert np.all(stats.var_prediction >= 0.5 * theory)

    def test_doubling_features_tightens_agreement(self):
        # paired comparison at P and 2P against the matched kernel predictor;
        # from P = N upward the bias shrinks like 1/P so the larger P wins
        from effridge import apply_inverse

        data, test_X = generate_sinusoid(4, 30, seed=1)
        gram = gram_matrix(KERNEL, data.X)
        spec = spectral_decompose(gram)
        k_cross = gram_matrix(KERNEL, test_X, data.X)
        wins = 0
        reps = 5
        for rep in range(reps):
            gaps = []
            for P in (4, 8):
                stats = run_trials(data, test_X, KERNEL, [P], [0.1], 3000, 100 + rep)[P][0]
                eff = solve_effective_ridge(Spectrum(spec.eigenvalues), P / 4, 0.1)
                krr_pred = k_cross @ apply_inverse(spec, data.y, eff.lambda_tilde)
                gaps.append(np.max(np.abs(stats.mean_prediction - krr_pred)))
            wins += gaps[1] < gaps[0]
        assert wins >= 4

    def test_rejects_bad_inputs(self):
        data, test_X = generate_sinusoid(4, 10, seed=1)
        with pytest.raises(InvalidInputError):
            run_trials(data, test_X, KERNEL, [0], [0.1], 3, 0)
        with pytest.raises(InvalidInputError):
            run_trials(data, test_X, KERNEL, [4], [0.1], 0, 0)


class TestThetaNormCheck:
    """The sampled mean of ||theta||^2 against its deterministic prediction, which ``theta_norm_theory`` gives."""

    def test_zero_labels(self):
        data, test_X = generate_sinusoid(4, 10, seed=1)
        zero_data = type(data)(X=data.X, y=np.zeros(4), f_star=data.f_star)
        stats = run_trials(zero_data, test_X, KERNEL, [4], [0.1], 5, 0)[4][0]
        spec = spectral_decompose(gram_matrix(KERNEL, data.X))
        eff = solve_effective_ridge(Spectrum(spec.eigenvalues), 1.0, 0.1)
        emp, theo = stats.mean_theta_norm_sq, theta_norm_theory(spec, np.zeros(4), eff)
        assert emp == 0.0 and theo == 0.0

    def test_equal_spectrum_frozen_value(self):
        spec = spectral_decompose(np.eye(2))
        eff = solve_effective_ridge(Spectrum(np.ones(2)), 1.0, 0.1)
        theo = theta_norm_theory(spec, np.ones(2), eff)
        assert theo == pytest.approx(2.2796489996607274, rel=1e-9)

    def test_empirical_approaches_theory(self):
        data, test_X = generate_sinusoid(4, 10, seed=1)
        gram = gram_matrix(KERNEL, data.X)
        spec = spectral_decompose(gram)
        P = 64
        stats = run_trials(data, test_X, KERNEL, [P], [0.5], 600, 0)[P][0]
        eff = solve_effective_ridge(Spectrum(spec.eigenvalues), P / 4, 0.5)
        theo = theta_norm_theory(spec, data.y, eff)
        gap = abs(stats.mean_theta_norm_sq - theo)
        noise = 3 * np.sqrt(stats.var_theta_norm_sq / 600)
        assert gap <= noise + 0.1 * theo


class TestRunTrialsRidges:
    """One draw per trial serves every ridge, with the results of one-ridge calls."""

    FIELDS = (
        "mean_prediction", "var_prediction", "mean_theta_norm_sq", "var_theta_norm_sq",
        "mean_train_prediction", "var_train_prediction", "samples",
    )

    @pytest.mark.parametrize(
        "P, lams, trials",
        [
            (8, [0.1, 1.0], 45),  # 19-draw chunks: 19 + 19 + 7
            (3, [0.0, 0.5], 12),
            (8, [0.5, 0.0, 0.1], 45),  # a zero ridge between positive ones
        ],
        ids=["8-lams0-45-gaussian", "3-lams1-12-gaussian", "8-lams2-45-gaussian"],
    )
    def test_ridges_equal_one_ridge_calls(self, P, lams, trials):
        data, test_X = generate_sinusoid(4, 100, seed=1)
        joint = run_trials(data, test_X, KERNEL, [P], lams, trials, 5)[P]
        assert len(joint) == len(lams)
        for lam, stats in zip(lams, joint):
            (single,) = run_trials(data, test_X, KERNEL, [P], [lam], trials, 5)[P]
            for field in self.FIELDS:
                a, b = getattr(stats, field), getattr(single, field)
                assert np.array_equal(a, b), field

    @pytest.mark.parametrize("bad", [-0.1, float("nan"), float("inf")])
    def test_every_ridge_checked_before_sampling(self, bad, monkeypatch):
        import effridge.montecarlo as mc

        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before checking the ridges")

        monkeypatch.setattr(mc, "normal_chunks", no_sampling)
        data, test_X = generate_sinusoid(4, 10, seed=1)
        with pytest.raises(InvalidInputError, match="ridge") as info:
            run_trials(data, test_X, KERNEL, [4], [0.1, bad], 3, 0)
        assert "trial" not in str(info.value)

    def test_fit_failure_names_ridge_and_trial(self, monkeypatch):
        import effridge.montecarlo as mc
        from effridge import NumericError
        from effridge.montecarlo import fit_rf_stacked

        calls = []

        def fit_once(F, y, lams):
            calls.append(len(F))
            if len(calls) == 3:
                raise NumericError("synthetic")
            return fit_rf_stacked(F, y, lams)

        monkeypatch.setattr(mc, "fit_rf_stacked", fit_once)
        data, test_X = generate_sinusoid(4, 10, seed=1)
        # P = 4 runs one chunk of 3 trials; P = 400 runs chunks of 2 and 1 (5,600 normals a draw).
        with pytest.raises(NumericError, match=r"^P 400, ridges \[0\.1, 1\.0\], trials 2-2: synthetic$"):
            run_trials(data, test_X, KERNEL, [4, 400], [0.1, 1.0], 3, 0)
        assert calls == [3, 2, 1]

    def test_feature_counts_equal_one_count_calls(self):
        # One call over several P (repeats included) gives each P the stats of its own call.
        data, test_X = generate_sinusoid(4, 20, seed=1)
        joint = run_trials(data, test_X, KERNEL, [8, 3, 8], [0.0, 0.5], 25, 2)
        assert list(joint) == [8, 3]
        for P, stats in joint.items():
            for a, b in zip(stats, run_trials(data, test_X, KERNEL, [P], [0.0, 0.5], 25, 2)[P]):
                for field in self.FIELDS:
                    assert np.array_equal(getattr(a, field), getattr(b, field)), field
