from dataclasses import astuple, fields, is_dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from effridge import (
    AtThresholdError,
    InfeasibleTargetError,
    InvalidInputError,
    NumericError,
    SeedPolicy,
    Spectrum,
    calibrate_ridge,
    empirical_expected_A,
    empirical_stieltjes,
    expected_A_theoretical,
    generate_spectrum,
    sample_wishart,
    solve_effective_ridge,
    spectral_decompose,
    theoretical_stieltjes,
    theta_norm_theory,
)
from effridge.effective_ridge import RESIDUAL_TOL

# Closed forms for the equal spectrum d_i = 1: the defining equation becomes
# the quadratic t^2 - (lam + 1/gamma - 1) t - lam = 0 ... solved directly below.
EQUAL_LT_G1_L01 = (0.1 + np.sqrt(0.41)) / 2  # gamma=1, lam=0.1


def bisect_effective_ridge(d, gamma, lam, iters=200):
    """Independent oracle: plain bisection on the defining equation."""
    d = np.asarray(d, dtype=float)
    T = float(np.mean(d))
    g = lambda t: t - lam - (t / gamma) * float(np.mean(d / (t + d)))
    lo, hi = lam, lam + T / gamma + 1e-30
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def fd_derivative(d, gamma, lam, h=None):
    """Independent oracle: central finite difference of the solver."""
    if h is None:
        h = 1e-6 * max(lam, 1e-2)
    up = solve_effective_ridge(Spectrum(d), gamma, lam + h).lambda_tilde
    dn = solve_effective_ridge(Spectrum(d), gamma, lam - h).lambda_tilde
    return (up - dn) / (2 * h)


def random_spectrum(rng, kind, n):
    i = np.arange(1, n + 1, dtype=float)
    if kind == "exponential":
        return np.exp(-(i - 1) / 2)
    if kind == "polynomial":
        return 1.0 / i
    return rng.uniform(0.05, 3.0, size=n)


class TestSolve:
    def test_zero_spectrum_collapses(self):
        eff = solve_effective_ridge(Spectrum(np.zeros(3)), 2.0, 0.7)
        assert eff.lambda_tilde == 0.7
        assert eff.effective_dimension == 0.0

    def test_equal_spectrum_quadratic(self):
        eff = solve_effective_ridge(Spectrum(np.ones(5)), 1.0, 0.1)
        assert eff.lambda_tilde == pytest.approx(EQUAL_LT_G1_L01, rel=1e-14)
        assert eff.lambda_tilde == pytest.approx(0.3701562118716424, rel=1e-12)
        # bisection oracle agrees
        assert eff.lambda_tilde == pytest.approx(
            bisect_effective_ridge(np.ones(5), 1.0, 0.1), rel=1e-12
        )

    def test_ridgeless_underparameterized_closed_form(self):
        eff = solve_effective_ridge(Spectrum(np.ones(4)), 0.5, 0.0)
        assert eff.lambda_tilde == pytest.approx(1.0, rel=1e-12)

    def test_ridgeless_overparameterized_is_zero(self):
        eff = solve_effective_ridge(Spectrum(np.ones(4)), 2.0, 0.0)
        assert eff.lambda_tilde == 0.0
        assert eff.d_lambda_tilde == pytest.approx(2.0)

    def test_overparameterized_ridge_bound(self):
        rng = np.random.default_rng(0)
        d = rng.uniform(0.1, 2.0, size=12)
        eff = solve_effective_ridge(Spectrum(d), 2.0, 0.05)
        assert eff.lambda_tilde <= 0.05 * 2.0 / (2.0 - 1.0) + 1e-15

    def test_threshold_rejected(self):
        with pytest.raises(AtThresholdError):
            solve_effective_ridge(Spectrum(np.ones(3)), 1.0, 0.0)

    def test_negative_ridge_rejected(self):
        with pytest.raises(InvalidInputError):
            solve_effective_ridge(Spectrum(np.ones(3)), 1.0, -0.1)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2, 40),
        st.floats(0.1, 10.0),
        st.floats(1e-4, 10.0),
        st.integers(0, 10_000),
    )
    def test_bracketing_and_residual(self, n, gamma, lam, seed):
        rng = np.random.default_rng(seed)
        d = rng.uniform(0.0, 4.0, size=n)
        eff = solve_effective_ridge(Spectrum(d), gamma, lam)
        T = float(np.mean(d))
        assert lam < eff.lambda_tilde + 1e-300
        if T > 0:
            assert eff.lambda_tilde > lam
        assert eff.lambda_tilde <= lam + T / gamma + 1e-12 * (lam + T / gamma)
        assert abs(eff.residual) < 1e-12 * max(eff.lambda_tilde, 1.0)

    def test_monotone_in_gamma(self):
        d = random_spectrum(np.random.default_rng(1), "exponential", 20)
        gammas = np.linspace(0.2, 5.0, 15)
        lts = [solve_effective_ridge(Spectrum(d), g, 0.3).lambda_tilde for g in gammas]
        assert all(a > b for a, b in zip(lts, lts[1:]))


NAN = float("nan")


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(
            lambda: calibrate_ridge(Spectrum(np.array([NAN, 2.0])), 1.0, 0.5),
            id="calibrate-nan-eigenvalue",
        ),
        pytest.param(lambda: calibrate_ridge(Spectrum(np.array([])), 1.0, 0.5), id="calibrate-empty"),
        pytest.param(
            lambda: solve_effective_ridge(Spectrum(np.array([-0.5, 1.0])), 2.0, 0.3),
            id="solve-negative-eigenvalue",
        ),
        pytest.param(
            lambda: solve_effective_ridge(Spectrum(np.array([NAN, 1.0])), 0.5, 0.0),
            id="ridgeless-nan-eigenvalue",
        ),
        pytest.param(
            lambda: theoretical_stieltjes(Spectrum(np.array([np.inf, 1.0])), 0.5, -0.1 + 0.2j),
            id="stieltjes-inf-eigenvalue",
        ),
        pytest.param(lambda: theoretical_stieltjes(Spectrum(np.ones(3)), 0.5, -np.inf), id="stieltjes-inf-real-z"),
        pytest.param(lambda: theoretical_stieltjes(Spectrum(np.ones(3)), 0.5, complex(-1.0, np.inf)),
                     id="stieltjes-inf-imag-z"),
        pytest.param(lambda: theoretical_stieltjes(Spectrum(np.ones(3)), 0.5, complex(-1.0, NAN)),
                     id="stieltjes-nan-imag-z"),
        pytest.param(lambda: empirical_stieltjes(np.ones(2), 4, NAN), id="empirical-stieltjes-nan-z"),
        pytest.param(lambda: empirical_stieltjes(np.ones(2), 4, complex(-1.0, np.inf)),
                     id="empirical-stieltjes-inf-imag-z"),
        pytest.param(lambda: solve_effective_ridge(Spectrum(np.zeros(0)), 2.0, 0.1), id="solve-empty"),
        pytest.param(lambda: solve_effective_ridge(Spectrum(np.ones(3)), np.inf, 0.1), id="solve-inf-gamma"),
        pytest.param(lambda: solve_effective_ridge(Spectrum(np.ones(3)), 1.0, NAN), id="solve-nan-ridge"),
        pytest.param(lambda: calibrate_ridge(Spectrum(np.ones(3)), NAN, 0.5), id="calibrate-nan-gamma"),
        pytest.param(lambda: calibrate_ridge(Spectrum(np.ones(3)), 1.0, NAN), id="calibrate-nan-target"),
        pytest.param(lambda: calibrate_ridge(Spectrum(np.ones(3)), 0.5, np.inf), id="calibrate-inf-target"),
        pytest.param(lambda: solve_effective_ridge(Spectrum(np.ones(3)), 1.0, np.inf), id="solve-inf-ridge"),
        # At lambda = 0 a gamma that is NaN or infinite would otherwise fall
        # through to the overparameterized closed forms.
        pytest.param(lambda: solve_effective_ridge(Spectrum(np.ones(3)), -1.0, 0.0), id="ridgeless-negative-gamma"),
        pytest.param(lambda: solve_effective_ridge(Spectrum(np.ones(3)), NAN, 0.0), id="ridgeless-nan-gamma"),
        pytest.param(lambda: solve_effective_ridge(Spectrum(np.ones(3)), np.inf, 0.0), id="ridgeless-inf-gamma"),
    ],
)
def test_malformed_input_is_an_input_error(call):
    with pytest.raises(InvalidInputError):
        call()


def test_spectrum_keeps_its_checked_eigenvalues():
    d = np.array([[2.0, 1.0], [0.5, 0.0]])
    spectrum = Spectrum(d)
    d[0, 0] = NAN
    assert spectrum.eigenvalues.tolist() == [2.0, 1.0, 0.5, 0.0]
    assert (spectrum.n, spectrum.trace_mean) == (4, 0.875)
    with pytest.raises(ValueError):
        spectrum.eigenvalues[0] = -1.0


def test_the_solve_is_the_one_effective_ridge_entry_point():
    # The derivative, effective dimension and ridgeless limit are fields of
    # one solve, not functions of their own.
    import effridge
    import effridge.effective_ridge as er
    from effridge import StieltjesSolution

    for name in ("ridgeless_limit", "effective_ridge_derivative", "effective_dimension", "_check_lambda_tilde"):
        assert not hasattr(effridge, name) and not hasattr(er, name)
    assert "z" not in {f.name for f in fields(StieltjesSolution)}


def test_each_rule_has_one_home():
    # Every root of the effective-ridge equation, the Stieltjes point included,
    # comes from one root finder, every Philox key comes from
    # features._stream_keys, the trial engine returns moments only, every
    # kernel ridge solve is kernels.apply_inverse, and every kernel-side theory
    # sum is kernels.spectral_sum.
    import importlib.util

    import effridge
    import effridge.effective_ridge
    import effridge.kernels
    import effridge.montecarlo
    import effridge.stieltjes

    assert not hasattr(effridge, "estimate_risk") and not hasattr(effridge.montecarlo, "estimate_risk")
    # The ridge fit lives with its one caller, the trial engine.
    assert importlib.util.find_spec("effridge.predictors") is None
    assert not hasattr(effridge, "fit_rf_stacked")
    assert not hasattr(SeedPolicy, "stream_seed")
    assert not hasattr(effridge.effective_ridge, "_ridgeless_newton")
    for name in ("solve_effective_ridge", "_newton", "_fixed_point", "RESIDUAL_TOL"):
        assert not hasattr(effridge.stieltjes, name)
    for name in ("fit_krr", "predict_krr", "conditional_moments"):
        assert not hasattr(effridge, name) and not hasattr(effridge.montecarlo, name)
    assert effridge.apply_inverse is effridge.kernels.apply_inverse
    for name in ("inv_kernel_norm_sq", "posterior_kernel_diag"):
        for module in (effridge, effridge.kernels, effridge.montecarlo):
            assert not hasattr(module, name)
    assert effridge.spectral_sum is effridge.kernels.spectral_sum
    # The range rule, which eigenvalues a zero shift divides by, is read in kernels only.
    package = Path(effridge.__file__).parent
    assert [p.name for p in sorted(package.glob("*.py")) if "in_range" in p.read_text()] == ["kernels.py"]


SPECTRUM_READERS = {
    "solve_effective_ridge": lambda s: solve_effective_ridge(s, 0.5, 0.1),
    "solve_effective_ridge-ridgeless": lambda s: solve_effective_ridge(s, 0.5, 0.0),
    "solve_effective_ridge-overparameterized-ridgeless": lambda s: solve_effective_ridge(s, 2.0, 0.0),
    "calibrate_ridge": lambda s: calibrate_ridge(s, 2.0, 0.5),
    "theoretical_stieltjes": lambda s: theoretical_stieltjes(s, 0.5, complex(-0.4, 0.8)),
    "sample_wishart": lambda s: sample_wishart(s, 4, SeedPolicy(3), 5),
    "expected_A_theoretical": lambda s: expected_A_theoretical(s, 0.3),
    "empirical_expected_A": lambda s: empirical_expected_A(s, 4, [0.1, 0.5], 5, SeedPolicy(3)),
}


@pytest.mark.parametrize("name", list(SPECTRUM_READERS))
def test_a_decomposition_reads_as_its_eigenvalues(name):
    # A Gram's decomposition is a checked Spectrum: every reader takes it as it
    # is and gives the bits it gives on a Spectrum of the same eigenvalues.
    rng = np.random.default_rng(4)
    A = rng.normal(size=(6, 6))
    spec = spectral_decompose(A @ A.T + 0.5 * np.eye(6))
    got, want = SPECTRUM_READERS[name](spec), SPECTRUM_READERS[name](Spectrum(spec.eigenvalues))
    assert type(got) is type(want)
    if is_dataclass(got):
        got, want = astuple(got), astuple(want)
    np.testing.assert_array_equal(got, want, strict=True)


class TestDerivative:
    def test_overparameterized_ridgeless_limit(self):
        d = random_spectrum(np.random.default_rng(2), "uniform", 10)
        eff = solve_effective_ridge(Spectrum(d), 2.0, 1e-8)
        assert eff.d_lambda_tilde == pytest.approx(2.0, abs=1e-4)

    @pytest.mark.parametrize("gamma", [1.5, 2.0, 4.0])
    def test_ridgeless_overparameterized_counts_only_positive_eigenvalues(self, gamma):
        # Zero eigenvalues drop out of the defining equation, so the derivative at
        # lambda = 0 is 1 / (1 - r / (N gamma)) with r = 2 positive eigenvalues of N = 4.
        spec, h = Spectrum([1.0, 0.5, 0.0, 0.0]), 1e-7
        eff = solve_effective_ridge(spec, gamma, 0.0)
        assert eff.d_lambda_tilde == 1.0 / (1.0 - 2 / 4 / gamma)
        assert eff.d_lambda_tilde == pytest.approx(solve_effective_ridge(spec, gamma, h).lambda_tilde / h, rel=1e-5)

    def test_large_ridge_limit(self):
        d = random_spectrum(np.random.default_rng(3), "uniform", 10)
        eff = solve_effective_ridge(Spectrum(d), 10.0, 1e5)
        assert eff.d_lambda_tilde == pytest.approx(1.0, abs=1e-4)

    def test_equal_spectrum_value(self):
        eff = solve_effective_ridge(Spectrum(np.ones(2)), 1.0, 0.1)
        assert eff.d_lambda_tilde == pytest.approx(2.139824499830364, rel=1e-10)
        assert eff.d_lambda_tilde == pytest.approx(fd_derivative(np.ones(2), 1.0, 0.1), rel=1e-7)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 30), st.floats(0.2, 8.0), st.floats(1e-3, 10.0), st.integers(0, 10_000))
    def test_matches_finite_differences(self, n, gamma, lam, seed):
        rng = np.random.default_rng(seed)
        d = rng.uniform(0.01, 3.0, size=n)
        eff = solve_effective_ridge(Spectrum(d), gamma, lam)
        assert eff.d_lambda_tilde == pytest.approx(fd_derivative(d, gamma, lam), rel=1e-6)


class TestEffectiveDimension:
    def test_infinite_ridge_kills_dimension(self):
        assert solve_effective_ridge(Spectrum(np.ones(5)), 2.0, 1e12).effective_dimension < 1e-9 * 5

    def test_identity_with_feature_count(self):
        N, gamma, lam = 2, 1.0, 0.1
        eff = solve_effective_ridge(Spectrum(np.ones(N)), gamma, lam)
        P = gamma * N
        lhs = eff.effective_dimension
        rhs = P * (1 - lam / eff.lambda_tilde)
        assert lhs == pytest.approx(1.4596875762567152, rel=1e-10)
        assert abs(lhs - rhs) < 1e-9 * P

    def test_ridgeless_underparameterized_equals_P(self):
        d = random_spectrum(np.random.default_rng(4), "polynomial", 20)
        gamma = 0.4
        eff = solve_effective_ridge(Spectrum(d), gamma, 0.0)
        P = gamma * 20
        assert abs(eff.effective_dimension - P) < 1e-9 * P

    @settings(max_examples=50, deadline=None)
    @given(st.integers(2, 40), st.floats(0.1, 10.0), st.floats(1e-4, 10.0), st.integers(0, 10_000))
    def test_never_exceeds_min_N_P(self, n, gamma, lam, seed):
        rng = np.random.default_rng(seed)
        d = rng.uniform(0.01, 4.0, size=n)
        eff = solve_effective_ridge(Spectrum(d), gamma, lam)
        assert eff.effective_dimension <= min(n, gamma * n) + 1e-9 * n


class TestRidgelessLimit:
    def test_overparameterized(self):
        assert solve_effective_ridge(Spectrum(np.ones(3)), 2.0, 0.0).lambda_tilde == 0.0

    def test_equal_spectrum(self):
        assert solve_effective_ridge(Spectrum(np.ones(3)), 0.5, 0.0).lambda_tilde == pytest.approx(1.0, rel=1e-12)

    def test_lower_bound(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            d = rng.uniform(0.05, 2.0, size=10)
            gamma = rng.uniform(0.1, 0.9)
            lt0 = solve_effective_ridge(Spectrum(d), gamma, 0.0).lambda_tilde
            assert lt0 >= np.min(d) * (1 - np.sqrt(gamma)) / np.sqrt(gamma) - 1e-12

    def test_threshold(self):
        with pytest.raises(AtThresholdError):
            solve_effective_ridge(Spectrum(np.ones(3)), 1.0, 0.0)

    @pytest.mark.parametrize("gamma", [0.5, 0.9, 0.95])
    def test_spectrum_spanning_hundreds_of_decades(self, gamma):
        # d_min = exp(-499.5) ~ 1.2e-217: the root sits far below most
        # eigenvalues and (t + d)^2 underflows near the start
        d = generate_spectrum("exponential", 1000)
        eff = solve_effective_ridge(Spectrum(d), gamma, 0.0)
        assert eff.effective_dimension == pytest.approx(gamma * 1000, rel=1e-9)

    @pytest.mark.parametrize("gamma", [0.05, 0.5, 0.9])
    @pytest.mark.parametrize("n", [1480, 1491])
    def test_subnormal_smallest_eigenvalue(self, n, gamma):
        # d_min = exp(-(n - 1) / 2) is subnormal, but every root is a normal number
        d = generate_spectrum("exponential", n)
        assert 0.0 < d.min() < np.finfo(float).tiny
        eff = solve_effective_ridge(Spectrum(d), gamma, 0.0)
        assert eff.effective_dimension == pytest.approx(gamma * n, rel=1e-9)

    @pytest.mark.parametrize("gamma", [0.05, 0.4, 0.9])
    @pytest.mark.parametrize(
        "kind, n", [("polynomial", 20), ("polynomial", 2000), ("exponential", 50), ("exponential", 200)]
    )
    def test_matches_bisection(self, kind, n, gamma):
        d = generate_spectrum(kind, n)
        lt = solve_effective_ridge(Spectrum(d), gamma, 0.0).lambda_tilde
        assert lt == pytest.approx(bisect_effective_ridge(d, gamma, 0.0), rel=1e-12)

    def test_unsettled_newton_raises(self, monkeypatch):
        import effridge.effective_ridge as er

        monkeypatch.setattr(er, "MAX_NEWTON_ITERS", 1)
        with pytest.raises(NumericError):
            solve_effective_ridge(Spectrum(np.ones(5)), 1.0, 0.1)
        with pytest.raises(NumericError):
            solve_effective_ridge(Spectrum(generate_spectrum("polynomial", 20)), 0.4, 0.0)


def textbook_residual(t, d, gamma, lam):
    return t - lam - (t / gamma) * np.mean(d / (t + d)).item()


def textbook_slope(t, d, gamma):
    s1 = np.mean(d / (t + d)).item()
    s2 = np.mean(d / (t + d) / (t + d)).item()
    return 1.0 - s1 / gamma + t * s2 / gamma


def textbook_newton(func, slope, t):
    """Newton with a separate residual and slope pass per step; root and step count."""
    r = func(t)
    for steps in range(200):
        s = slope(t)
        t_next = t - r / s if s else t
        r_next = func(t_next)
        if not abs(r_next) < abs(r):
            return t, steps
        t, r = t_next, r_next
    raise AssertionError("textbook Newton did not settle")


def textbook_solve(d, gamma, lam):
    """The solve's fields from separate three-quotient passes, and the Newton step count."""
    lt, steps = textbook_newton(
        lambda t: textbook_residual(t, d, gamma, lam), lambda t: textbook_slope(t, d, gamma),
        lam + float(np.mean(d)) / gamma,
    )
    positive = d > 0
    out = np.zeros_like(d)
    out[positive] = d[positive] / (lt + d[positive])
    return dict(
        lambda_tilde=lt,
        d_lambda_tilde=1.0 / textbook_slope(lt, d, gamma),
        effective_dimension=float(np.sum(out)),
        residual=textbook_residual(lt, d, gamma, lam),
    ), steps


POLY_2000 = generate_spectrum("polynomial", 2000)
WITH_ZEROS = np.r_[np.zeros(7), generate_spectrum("polynomial", 50), np.zeros(3)]
SOLVE_CASES = [
    (POLY_2000, 0.5, 1e-3),
    (POLY_2000, 0.05, 1.0),
    (POLY_2000, 2.0, 0.1),
    (POLY_2000, 20.0, 1e-4),
    (WITH_ZEROS, 0.8, 0.1),  # zero eigenvalues: the effective dimension's mask
    (WITH_ZEROS, 3.0, 1e-4),
    (POLY_2000, 0.4, 0.0),  # ridgeless, gamma < 1
    (generate_spectrum("exponential", 1000), 0.9, 0.0),
]


class TestOnePassSolve:
    """The one-quotient solve keeps the bits of the separate residual, slope and dimension passes."""

    @pytest.mark.parametrize("d, gamma, lam", SOLVE_CASES)
    def test_every_field_matches_textbook_passes(self, d, gamma, lam):
        eff = solve_effective_ridge(Spectrum(d), gamma, lam)
        expected, _ = textbook_solve(d, gamma, lam)
        assert {f: getattr(eff, f) for f in expected} == expected

    @pytest.mark.parametrize("d, gamma, lam", SOLVE_CASES)
    def test_iterations_are_the_newton_steps(self, d, gamma, lam):
        eff = solve_effective_ridge(Spectrum(d), gamma, lam)
        assert eff.iterations == textbook_solve(d, gamma, lam)[1] > 0

    def test_closed_forms_take_no_steps(self):
        assert solve_effective_ridge(Spectrum(np.zeros(3)), 2.0, 0.7).iterations == 0
        assert solve_effective_ridge(Spectrum(np.ones(4)), 2.0, 0.0).iterations == 0

    @pytest.mark.parametrize(
        "z, gamma",
        [
            (complex(-0.1, 0.3), 0.2),
            (complex(-1e-3, -2.0), 2.0),
            (complex(-0.01, 0.01), 0.2),
            (complex(-2.0, 1e-4), 0.5),
        ],
    )
    def test_complex_stieltjes_matches_textbook_passes(self, z, gamma):
        d = POLY_2000
        t, steps = textbook_newton(
            lambda t: textbook_residual(t, d, gamma, -z), lambda t: textbook_slope(t, d, gamma),
            -z + float(np.mean(d)) / gamma,
        )
        sol = theoretical_stieltjes(Spectrum(d), gamma, z)
        assert sol.m_tilde == complex(1.0 / t)
        assert sol.residual == abs(textbook_residual(t, d, gamma, -z)) / (abs(t) + abs(z))
        assert sol.iterations == steps

    # Sizes on both sides of numpy's 8192-element reduction buffer.
    @pytest.mark.parametrize("size", [1, 7, 2000, 8191, 8192, 8193, 70000])
    @pytest.mark.parametrize("t", [0.37, 1e-6, complex(0.2, -0.3), complex(-1e-3, 2.0)])
    def test_one_reduction_keeps_the_bits_of_separate_sums(self, size, t):
        import effridge.effective_ridge as er

        d = np.random.default_rng(size).random(size) ** 3
        s = t + d
        q = d / s
        assert er._quotient_sums(t, d).tobytes() == np.array([q.sum(), (q / s).sum()]).tobytes()

    def test_real_stieltjes_reports_solver_steps(self):
        sol = theoretical_stieltjes(Spectrum(POLY_2000), 0.5, -1e-3)
        eff = solve_effective_ridge(Spectrum(POLY_2000), 0.5, 1e-3)
        assert sol.iterations == eff.iterations > 0
        assert sol.m_tilde == complex(1.0 / eff.lambda_tilde)

    @pytest.mark.parametrize("gamma, lam", [(0.5, 1e-3), (0.05, 1.0), (20.0, 1e-4)])
    def test_one_quotient_pass_per_iterate(self, monkeypatch, gamma, lam):
        import effridge.effective_ridge as er

        calls = []
        one_pass = er._quotient_sums
        monkeypatch.setattr(er, "_quotient_sums", lambda t, d: calls.append(t) or one_pass(t, d))
        eff = er.solve_effective_ridge(Spectrum(POLY_2000), gamma, lam)
        # the start, one per accepted step, and the rejected step only if it moved the iterate
        t = eff.lambda_tilde
        moved = t - textbook_residual(t, POLY_2000, gamma, lam) / textbook_slope(t, POLY_2000, gamma) != t
        assert len(calls) == eff.iterations + 1 + moved

    @pytest.mark.parametrize(
        "solve",
        [
            lambda: solve_effective_ridge(Spectrum(POLY_2000), 0.5, 1e-3),
            lambda: solve_effective_ridge(Spectrum(POLY_2000), 0.5, 0.0),
            lambda: theoretical_stieltjes(Spectrum(POLY_2000), 0.2, complex(-0.1, 0.3)),
        ],
        ids=["positive-ridge", "ridgeless", "complex-stieltjes"],
    )
    def test_no_newton_run_evaluates_one_point_twice(self, monkeypatch, solve):
        import effridge.effective_ridge as er

        runs = []
        newton = er._newton

        def recorded(func, t):
            points = []
            runs.append(points)
            return newton(lambda t: points.append(t) or func(t), t)

        monkeypatch.setattr(er, "_newton", recorded)
        solve()
        assert len(runs) == 1
        assert len(set(runs[0])) == len(runs[0]) > 2

    @pytest.mark.parametrize(
        "fault",
        [
            lambda t, lam, g, slope: (g, -slope),
            lambda t, lam, g, slope: (2 * RESIDUAL_TOL * (t + lam), slope),
        ],
        ids=["flipped-slope", "residual-twice-the-bound"],
    )
    @pytest.mark.parametrize(
        "solve, lam",
        [
            (lambda: solve_effective_ridge(Spectrum(np.ones(3)), 0.5, 1.0), 1.0),
            (lambda: solve_effective_ridge(Spectrum(np.ones(3)), 0.5, 0.0), 0.0),
            (lambda: theoretical_stieltjes(Spectrum(np.ones(3)), 0.5, -1.0 + 0j), 1.0),
        ],
        ids=["positive-ridge", "ridgeless", "real-stieltjes"],
    )
    def test_every_caller_refuses_a_failed_check(self, monkeypatch, solve, lam, fault):
        # g' > 0 at a real root and |g| < RESIDUAL_TOL (|t| + |lam|) there, so a
        # root reported otherwise is refused, whichever caller asked for it.
        import effridge.effective_ridge as er

        newton = er._newton

        def faulty(func, t):
            root, (g, slope, s1), steps = newton(func, t)
            return root, (*fault(root, lam, g, slope), s1), steps

        solve()
        monkeypatch.setattr(er, "_newton", faulty)
        with pytest.raises(NumericError, match="did not converge"):
            solve()

    def test_a_complex_slope_has_no_sign_to_check(self, monkeypatch):
        import effridge.effective_ridge as er

        newton = er._newton

        def flipped(func, t):
            root, (g, slope, s1), steps = newton(func, t)
            return root, (g, -slope, s1), steps

        monkeypatch.setattr(er, "_newton", flipped)
        assert theoretical_stieltjes(Spectrum(np.ones(3)), 0.5, -1.0 + 1j).in_cone


class TestCalibrate:
    def test_inverse_of_solver_example(self):
        lam = calibrate_ridge(Spectrum(np.ones(2)), 1.0, EQUAL_LT_G1_L01)
        assert lam == pytest.approx(0.1, rel=1e-10)

    def test_infinite_features_limit(self):
        lam = calibrate_ridge(Spectrum(np.ones(4)), 1e9, 0.42)
        assert lam == pytest.approx(0.42, rel=1e-6)

    def test_infeasible_target(self):
        with pytest.raises(InfeasibleTargetError):
            calibrate_ridge(Spectrum(np.ones(3)), 0.5, 0.5)  # ridgeless limit is 1.0

    def test_target_whose_t_over_gamma_overflows_is_a_numeric_failure(self):
        # 1e308 / 0.25 overflows; the ridgeless effective ridge, 3.0, is far below the target.
        with pytest.raises(NumericError, match=r"^the t/gamma term of the effective-ridge equation overflows "
                                               r"at gamma 0\.25$"):
            calibrate_ridge(Spectrum(np.ones(3)), 0.25, 1e308)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 30), st.floats(0.2, 8.0), st.floats(1e-3, 5.0), st.integers(0, 10_000))
    def test_round_trip(self, n, gamma, lam_star, seed):
        rng = np.random.default_rng(seed)
        d = rng.uniform(0.01, 3.0, size=n)
        try:
            lam = calibrate_ridge(Spectrum(d), gamma, lam_star)
        except InfeasibleTargetError:
            # infeasible iff the target cannot exceed the ridgeless limit
            if gamma < 1:
                assert lam_star <= solve_effective_ridge(Spectrum(d), gamma, 0.0).lambda_tilde + 1e-12
            return
        eff = solve_effective_ridge(Spectrum(d), gamma, lam)
        assert eff.lambda_tilde == pytest.approx(lam_star, rel=1e-10)


class TestVarianceTerm:
    def test_zero_labels(self):
        spec = spectral_decompose(np.eye(2))
        eff = solve_effective_ridge(Spectrum(np.ones(2)), 1.0, 0.1)
        assert theta_norm_theory(spec, np.zeros(2), eff) * 0.5 / 2 == 0.0

    def test_equal_spectrum_composition(self):
        # composition of the solved ridge, its derivative, and the quadratic form
        spec = spectral_decompose(np.eye(2))
        eff = solve_effective_ridge(Spectrum(np.ones(2)), 1.0, 0.1)
        val = theta_norm_theory(spec, np.ones(2), eff) * 0.5 / 2
        lt = EQUAL_LT_G1_L01
        deriv = fd_derivative(np.ones(2), 1.0, 0.1)
        expected = deriv * (2.0 / (lt + 1.0) ** 2) / 2 * 0.5
        assert val == pytest.approx(expected, rel=1e-7)
        assert val == pytest.approx(0.5699122499151819, rel=1e-9)

    def test_theta_norm_theory_scalar(self):
        spec = spectral_decompose(np.eye(2))
        eff = solve_effective_ridge(Spectrum(np.ones(2)), 1.0, 0.1)
        val = theta_norm_theory(spec, np.ones(2), eff)
        assert val == pytest.approx(2.2796489996607274, rel=1e-9)
