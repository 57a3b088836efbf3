"""Acceptance suite: one test per verification criterion, each printing a
pass/fail line.  Run with ``pytest tests/test_acceptance.py -v -s``.

Monte Carlo criteria use fixed base seeds; tolerances are stated inline and
never adjusted at runtime.
"""

import time

import numpy as np
import pytest

import effridge as e

KERNEL_SIN = e.KernelSpec("rbf", 2.0)
KERNEL_CLU = e.KernelSpec("rbf", 5.0)


def _report(num, ok, detail):
    print(f"[ACCEPTANCE {num:02d}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num}: {detail}"


def _random_instance(rng, i):
    n = int(rng.integers(2, 101))
    kind = ("exponential", "polynomial", "uniform")[i % 3]
    if kind == "exponential":
        d = np.exp(-(np.arange(1, n + 1) - 1) / 2.0)
    elif kind == "polynomial":
        d = 1.0 / np.arange(1, n + 1)
    else:
        d = rng.uniform(0.01, 4.0, size=n)
    lam = 10.0 ** rng.uniform(-4, 1)
    gamma = 10.0 ** rng.uniform(-1, 1)
    return d, gamma, lam


@pytest.fixture(scope="module")
def solver_suite():
    """1,000 random solved instances shared by criteria 1-3."""
    rng = np.random.default_rng(20240817)
    out = []
    for i in range(1000):
        d, gamma, lam = _random_instance(rng, i)
        eff = e.solve_effective_ridge(e.Spectrum(d), gamma, lam)
        out.append((d, gamma, lam, eff))
    return out


def test_criterion_01_solver_residual_and_bounds(solver_suite):
    t0 = time.monotonic()
    rng = np.random.default_rng(7)
    violations = 0
    for d, gamma, lam, eff in solver_suite:
        T = float(np.mean(d))
        lt = eff.lambda_tilde
        if not abs(eff.residual) < 1e-12 * max(lt, 1.0):
            violations += 1
        if not (lam < lt <= lam + T / gamma + 1e-12 * (lam + T / gamma)):
            violations += 1
        # monotonicity in gamma, checked against a strictly larger ratio
        g2 = gamma * (1.0 + rng.uniform(0.1, 1.0))
        lt2 = e.solve_effective_ridge(e.Spectrum(d), g2, lam).lambda_tilde
        if not lt2 < lt:
            violations += 1
        if gamma > 1 and not lt <= gamma / (gamma - 1.0) * lam + 1e-12:
            violations += 1
        if gamma < 1 and not lt >= (1 - np.sqrt(gamma)) / np.sqrt(gamma) * np.min(d) - 1e-12:
            violations += 1
    elapsed = time.monotonic() - t0
    _report(
        1,
        violations == 0 and elapsed < 5.0,
        f"1000 instances, {violations} bound/residual violations, {elapsed:.2f}s (< 5s)",
    )


def test_criterion_02_derivative_identity(solver_suite):
    worst = 0.0
    for d, gamma, lam, eff in solver_suite:
        h = 1e-6 * max(lam, 1e-2)
        up = e.solve_effective_ridge(e.Spectrum(d), gamma, lam + h).lambda_tilde
        dn = e.solve_effective_ridge(e.Spectrum(d), gamma, lam - h).lambda_tilde
        fd = (up - dn) / (2 * h)
        worst = max(worst, abs(eff.d_lambda_tilde - fd) / fd)
    # the ridgeless limit is approached at rate lambda / min(d), so the check
    # needs a spectrum whose smallest eigenvalue dwarfs lambda = 1e-8
    d20 = np.random.default_rng(3).uniform(0.05, 3.0, size=20)
    lim_over = e.solve_effective_ridge(e.Spectrum(d20), 2.0, 1e-8).d_lambda_tilde
    lim_large = e.solve_effective_ridge(e.Spectrum(d20), 2.0, 5e5).d_lambda_tilde
    ok = worst < 1e-6 and abs(lim_over - 2.0) < 1e-4 and abs(lim_large - 1.0) < 1e-4
    _report(
        2,
        ok,
        f"max FD mismatch {worst:.2e} (< 1e-6); limits {lim_over:.6f}->2, {lim_large:.6f}->1 (tol 1e-4)",
    )


def test_criterion_03_effective_dimension(solver_suite):
    worst = 0.0
    for d, gamma, lam, eff in solver_suite:
        P = gamma * d.size
        gap = abs(eff.effective_dimension - P * (1 - lam / eff.lambda_tilde)) / P
        worst = max(worst, gap)
    rng = np.random.default_rng(11)
    worst_ridgeless = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 60))
        d = rng.uniform(0.05, 3.0, size=n)
        gamma = rng.uniform(0.1, 0.95)
        eff = e.solve_effective_ridge(e.Spectrum(d), gamma, 0.0)
        P = gamma * n
        worst_ridgeless = max(worst_ridgeless, abs(eff.effective_dimension - P) / P)
    ok = worst < 1e-9 and worst_ridgeless < 1e-9
    _report(
        3,
        ok,
        f"identity gap {worst:.2e}, ridgeless gap {worst_ridgeless:.2e} (both < 1e-9 relative to P)",
    )


def test_criterion_04_calibration_round_trip():
    rng = np.random.default_rng(13)
    worst = 0.0
    count = 0
    while count < 100:
        n = int(rng.integers(2, 60))
        d = rng.uniform(0.05, 3.0, size=n)
        gamma = 10.0 ** rng.uniform(-1, 1)
        lam = 10.0 ** rng.uniform(-4, 1)
        # a feasible target is any value in the image of the forward map
        lam_star = e.solve_effective_ridge(e.Spectrum(d), gamma, lam).lambda_tilde
        lam_back = e.calibrate_ridge(e.Spectrum(d), gamma, lam_star)
        lt = e.solve_effective_ridge(e.Spectrum(d), gamma, lam_back).lambda_tilde
        worst = max(worst, abs(lt - lam_star) / lam_star)
        count += 1
    infeasible_raises = 0
    for _ in range(20):
        n = int(rng.integers(2, 40))
        d = rng.uniform(0.2, 3.0, size=n)
        gamma = rng.uniform(0.1, 0.8)
        low_target = 0.5 * e.solve_effective_ridge(e.Spectrum(d), gamma, 0.0).lambda_tilde
        try:
            e.calibrate_ridge(e.Spectrum(d), gamma, low_target)
        except e.InfeasibleTargetError:
            infeasible_raises += 1
    ok = worst < 1e-10 and infeasible_raises == 20
    _report(
        4,
        ok,
        f"100 round trips, worst rel err {worst:.2e} (< 1e-10); {infeasible_raises}/20 infeasible targets raised",
    )


def test_criterion_05_hat_matrix_eigenvalues():
    t0 = time.monotonic()
    n = 10
    lam = 1e-2
    d = e.generate_spectrum("exponential", n)
    gaps = []
    for P in (10, 50, 200):
        eff = e.solve_effective_ridge(e.Spectrum(d), P / n, lam)
        (emp,) = e.empirical_expected_A(e.Spectrum(d), P, [lam], trials=500, policy=e.SeedPolicy(0, 0))
        gaps.append(float(np.max(np.abs(emp - d / (d + eff.lambda_tilde)))))
    elapsed = time.monotonic() - t0
    ok = gaps[0] > gaps[1] > gaps[2] and gaps[2] < 0.02 and elapsed < 30.0
    _report(
        5,
        ok,
        f"max gaps {['%.4f' % g for g in gaps]} monotone decreasing, final < 0.02, {elapsed:.1f}s (< 30s)",
    )


def test_criterion_06_stieltjes_concentration():
    t0 = time.monotonic()
    n = 50
    d = e.generate_spectrum("exponential", n)
    z = complex(-1.0, 0.0)
    Ps = (50, 100, 200, 400)
    variances, gaps, residuals, recip_errs, m_form_errs = [], [], [], [], []
    for P in Ps:
        vals = e.empirical_stieltjes(e.sample_wishart(e.Spectrum(d), P, e.SeedPolicy(0), 200), P, z).real
        sol = e.theoretical_stieltjes(e.Spectrum(d), P / n, z)
        eff = e.solve_effective_ridge(e.Spectrum(d), P / n, 1.0)
        variances.append(float(np.var(vals, ddof=1)))
        gaps.append(abs(float(np.mean(vals)) - sol.m_tilde.real))
        residuals.append(sol.residual)
        recip_errs.append(abs(sol.m_tilde.real * eff.lambda_tilde - 1.0))
        # The solver's root checked against the fixed point itself, in its m-form
        # gamma = mean(d m / (1 + d m)) + gamma lam m at m = 1 / lambda_tilde.
        gamma, m = P / n, 1.0 / eff.lambda_tilde
        m_form_errs.append(abs(gamma - np.mean(d * m / (1.0 + d * m)) - gamma * 1.0 * m) / gamma)
    lp = np.log(Ps)
    # At fixed N with P >= N the P - N zero eigenvalues of F^T F are deterministic;
    # only N terms of the trace fluctuate, each with variance O(1/P).  Hence
    # Var(m_P) ~ 2 sum d^2/(d+lam)^4 / P^3 and the unnormalized trace has
    # Var(P m_P) = P^2 Var(m_P) ~ P^-1: the -1 window applies to the latter.
    var_slope = float(np.polyfit(lp, np.log(variances), 1)[0])
    gap_slope = float(np.polyfit(lp, np.log(gaps), 1)[0])
    trace_var_slope = float(np.polyfit(lp, np.log(np.array(variances) * np.array(Ps) ** 2), 1)[0])
    elapsed = time.monotonic() - t0
    detail = (
        f"Var(P*m_P) slope {trace_var_slope:.2f} (required -1 +/- 0.3; Var(m_P) slope "
        f"{var_slope:.2f}, derived -3), mean-gap slope {gap_slope:.2f} (<= -0.8), "
        f"max residual {max(residuals):.1e} (< 1e-10), max reciprocal-identity err "
        f"{max(recip_errs):.1e} (< 1e-10), max m-form residual at 1/lambda_tilde "
        f"{max(m_form_errs):.1e} (< 1e-10), {elapsed:.1f}s (< 60s)"
    )
    ok = (
        -1.3 <= trace_var_slope <= -0.7
        and gap_slope <= -0.8
        and max(residuals) < 1e-10
        and max(recip_errs) < 1e-10
        and max(m_form_errs) < 1e-10
        and elapsed < 60.0
    )
    _report(6, ok, detail)


def _agreement_grid(data, test_X, kernel, trials, seed):
    gram = e.gram_matrix(kernel, data.X)
    spec = e.spectral_decompose(gram)
    k_cross = e.gram_matrix(kernel, test_X, data.X)
    lams = [0.1, 1.0]
    Ps = {gamma: max(1, round(gamma * data.n)) for gamma in (0.5, 1.0, 2.0, 4.0)}
    # One call: each trial's draw at each P serves both ridges.
    runs = e.run_trials(data, test_X, kernel, list(Ps.values()), lams, trials, seed)
    spectrum = e.Spectrum(spec.eigenvalues)
    failures = []
    for j, lam in enumerate(lams):
        for gamma, P in Ps.items():
            stats = runs[P][j]
            eff = e.solve_effective_ridge(spectrum, P / data.n, lam)
            pred = k_cross @ e.apply_inverse(spec, data.y, eff.lambda_tilde)
            rmse = float(np.sqrt(np.mean((stats.mean_prediction - pred) ** 2)))
            band = 3.0 * float(np.sqrt(np.mean(stats.var_prediction) / trials))
            if rmse > band:
                failures.append((gamma, lam, rmse, band))
    return failures


def test_criterion_07_average_predictor_agreement():
    t0 = time.monotonic()
    sdata, stest = e.generate_sinusoid(4, 100, seed=1)
    cdata, ctest = e.generate_clusters(100, 100, dim=5, separation=3.0, seed=1)
    failures = _agreement_grid(sdata, stest, KERNEL_SIN, 500, 0)
    failures += _agreement_grid(cdata, ctest, KERNEL_CLU, 500, 0)

    # paired feature-count check: from P = N up, doubling P tightens agreement
    gram = e.gram_matrix(KERNEL_SIN, sdata.X)
    spec = e.spectral_decompose(gram)
    k_cross = e.gram_matrix(KERNEL_SIN, stest, sdata.X)
    wins = 0
    for rep in range(5):
        max_abs = []
        for P in (4, 8):
            stats = e.run_trials(sdata, stest, KERNEL_SIN, [P], [0.1], 6000, 100 + rep)[P][0]
            eff = e.solve_effective_ridge(e.Spectrum(spec.eigenvalues), P / 4, 0.1)
            pred = k_cross @ e.apply_inverse(spec, sdata.y, eff.lambda_tilde)
            max_abs.append(float(np.max(np.abs(stats.mean_prediction - pred))))
        wins += max_abs[1] < max_abs[0]
    elapsed = time.monotonic() - t0
    ok = not failures and wins >= 4 and elapsed < 180.0
    _report(
        7,
        ok,
        f"16/16 grid points within 3-sigma band ({len(failures)} failures), paired-P wins {wins}/5 "
        f"(>= 4), {elapsed:.0f}s (< 180s)",
    )


def test_criterion_08_ridgeless_unbiasedness():
    data, test_X = e.generate_sinusoid(4, 100, seed=1)
    stats = e.run_trials(data, test_X, KERNEL_SIN, [16], [0.0], 500, 0)[16][0]
    spec = e.spectral_decompose(e.gram_matrix(KERNEL_SIN, data.X))
    pred0 = e.gram_matrix(KERNEL_SIN, test_X, data.X) @ e.apply_inverse(spec, data.y, 0.0)
    band = 3.0 * np.sqrt(stats.var_prediction / 500)
    worst = float(np.max(np.abs(stats.mean_prediction - pred0) / band))
    _report(8, worst <= 1.0, f"max |mean RF - ridgeless KRR| / (3-sigma band) = {worst:.2f} (<= 1)")


def test_criterion_09_parameter_norm_rate():
    lam = 0.05
    gaps = []
    for P in (20, 80, 320):
        n = P // 2
        data, test_X = e.generate_sinusoid(n, 5, seed=1)
        stats = e.run_trials(data, test_X, KERNEL_SIN, [P], [lam], 300, 3)[P][0]
        spec = e.spectral_decompose(e.gram_matrix(KERNEL_SIN, data.X))
        eff = e.solve_effective_ridge(e.Spectrum(spec.eigenvalues), P / n, lam)
        gaps.append(abs(stats.mean_theta_norm_sq - e.theta_norm_theory(spec, data.y, eff)))
    slope = float(np.polyfit(np.log([20, 80, 320]), np.log(gaps), 1)[0])
    _report(9, slope <= -0.5, f"theta-norm gap slope {slope:.2f} (<= -0.5) over P in (20, 80, 320)")


def test_criterion_10_double_descent():
    data, test_X = e.generate_sinusoid(4, 100, seed=1)
    variances = {}
    for lam in (1e-4, 0.5):
        for gamma in (0.25, 1.0, 4.0):
            P = max(1, round(gamma * 4))
            stats = e.run_trials(data, test_X, KERNEL_SIN, [P], [lam], 2000, 0)[P][0]
            variances[(lam, gamma)] = float(np.mean(stats.var_prediction))
    peak_ridgeless = (
        variances[(1e-4, 1.0)] > variances[(1e-4, 0.25)]
        and variances[(1e-4, 1.0)] > variances[(1e-4, 4.0)]
    )
    ratio_ridge = variances[(0.5, 1.0)] / max(variances[(0.5, 0.25)], variances[(0.5, 4.0)])

    # scalar derivative check against a central finite difference of the solver
    lam0, h = 1e-4, 1e-8
    up = e.solve_effective_ridge(e.Spectrum(np.ones(10)), 1.0, lam0 + h).lambda_tilde
    dn = e.solve_effective_ridge(e.Spectrum(np.ones(10)), 1.0, lam0 - h).lambda_tilde
    fd = (up - dn) / (2 * h)
    ok = peak_ridgeless and ratio_ridge < 2.0 and abs(fd - 50.50) <= 0.05
    _report(
        10,
        ok,
        f"ridgeless variance peak at gamma=1 ({peak_ridgeless}), ridge peak ratio {ratio_ridge:.2f} "
        f"(< 2), derivative FD {fd:.4f} (= 50.50 +/- 0.05)",
    )


def test_criterion_11_reproducibility(tmp_path):
    from effridge.cli import cmd_run, load_config

    results = []
    for experiment, overrides in (
        ("solve", dict(trials=1)),
        ("average-rf", dict(trials=10, gamma_grid=[0.5, 2.0], lambda_list=[0.1],
                            dataset={"type": "sinusoid", "n": 4, "n_test": 16})),
    ):
        cfg = load_config(experiment, None, output_dir=str(tmp_path / experiment), **overrides)
        first = cmd_run(cfg)["results"].read_bytes()
        rerun_cfg = load_config(
            experiment,
            tmp_path / experiment / "config.json",
            output_dir=str(tmp_path / f"{experiment}-rerun"),
        )
        second = cmd_run(rerun_cfg)["results"].read_bytes()
        results.append(first == second)
    _report(11, all(results), f"bit-identical results.csv on rerun from config.json echo: {results}")
