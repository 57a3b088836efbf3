import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from effridge import (
    InvalidInputError,
    SeedPolicy,
    Spectrum,
    empirical_expected_A,
    empirical_stieltjes,
    expected_A_theoretical,
    generate_spectrum,
    sample_wishart,
    solve_effective_ridge,
    stieltjes_moments,
    theoretical_stieltjes,
)
from effridge.features import StreamSampler


class TestEmpiricalStieltjes:
    def test_all_zero_eigenvalues(self):
        # Stored zeros and zeros counted in closed form give the same transform.
        assert empirical_stieltjes(np.zeros(4), 4, -1.0 + 0j) == pytest.approx(1.0)
        assert empirical_stieltjes(np.zeros(0), 4, -1.0 + 0j) == pytest.approx(1.0)

    def test_two_point_spectrum(self):
        assert empirical_stieltjes(np.array([1.0, 3.0]), 2, -1.0 + 0j) == pytest.approx(0.375)

    def test_distance_bound(self):
        rng = np.random.default_rng(0)
        s = rng.uniform(0, 5, size=10)
        for z in (-0.5 + 0j, -1 + 2j, 0.3 + 1j, 2 - 0.7j):
            # distance from z to the nonnegative real axis
            d_plus = abs(z.imag) if z.real >= 0 else abs(z)
            for P in (10, 25):
                m = empirical_stieltjes(s, P, z)
                assert abs(m) <= 1.0 / d_plus + 1e-12

    def test_rejects_nonnegative_real_axis(self):
        s = np.ones(2)
        with pytest.raises(InvalidInputError):
            empirical_stieltjes(s, 2, 1.0 + 0j)
        with pytest.raises(InvalidInputError):
            empirical_stieltjes(s, 2, 0.0 + 0j)
        # strictly negative real axis is fine, however close to zero
        empirical_stieltjes(s, 2, -1e-6 + 0j)
        empirical_stieltjes(s, 2, -1e-13 + 0j)

    def test_rejects_more_eigenvalues_than_features(self):
        with pytest.raises(InvalidInputError):
            empirical_stieltjes(np.ones(3), 2, -1.0 + 0j)

    @pytest.mark.parametrize("P", [3, 8, 50, 200])
    def test_closed_form_zeros_equal_the_padded_mean(self, P):
        # The transform over the full P x P spectrum, zero padding included.
        d = generate_spectrum("exponential", 8)
        spectra = sample_wishart(Spectrum(d), P, SeedPolicy(6), 20)
        for z in (-1.0 + 0j, -0.3 + 0.8j):
            got = empirical_stieltjes(spectra, P, z)
            for s, m in zip(spectra, got):
                ref = complex(np.mean(1.0 / (np.concatenate([s, np.zeros(P - s.size)]) - z)))
                if P < d.size:
                    assert m == ref
                else:
                    assert abs(m - ref) <= 1e-15 * abs(ref)


class TestSampleWishart:
    def test_eigenvalue_count_and_sign(self):
        d = generate_spectrum("exponential", 6)
        for P in (3, 6, 11):
            s = sample_wishart(Spectrum(d), P, SeedPolicy(0, 0), 1)
            assert s.shape == (1, min(6, P))
            assert np.all(s >= 0)

    def test_matches_direct_construction(self):
        # same stream, explicit P x P matrix build
        d = np.array([2.0, 1.0, 0.5])
        P = 4
        policy = SeedPolicy(3, 1)
        (s,) = sample_wishart(Spectrum(d), P, policy, 1)
        W = StreamSampler(policy).normal((P, 3))
        M = (W * d) @ W.T / P
        direct = np.sort(np.linalg.eigvalsh(M))[::-1]
        # The P - N = 1 remaining eigenvalue of the P x P matrix is zero.
        assert np.allclose(np.concatenate([s, [0.0]]), np.maximum(direct, 0), atol=1e-10)

    @pytest.mark.parametrize("d, P, trials", [([], 5, 2), ([1.0, -0.5], 5, 2), ([1.0], 0, 2), ([1.0], 5, 0)])
    def test_rejects_bad_input(self, d, P, trials):
        with pytest.raises(InvalidInputError):
            sample_wishart(Spectrum(d), P, SeedPolicy(0), trials)

    def test_trace_statistic(self):
        # E[Tr F^T F] = N * mean(d)
        d = np.array([1.0, 0.5])
        traces = np.sum(sample_wishart(Spectrum(d), 40, SeedPolicy(1), 300), axis=1)
        assert np.mean(traces) == pytest.approx(np.sum(d), abs=0.05)


class TestTheoreticalStieltjes:
    def test_equal_spectrum_real_ray(self):
        sol = theoretical_stieltjes(Spectrum(np.ones(6)), 1.0, -0.1 + 0j)
        assert sol.m_tilde.real == pytest.approx(2.7015621187164243, rel=1e-10)
        assert sol.m_tilde.imag == 0.0
        assert sol.in_cone

    def test_zero_spectrum(self):
        for z in (-0.5 + 0j, -1 + 1j):
            sol = theoretical_stieltjes(Spectrum(np.zeros(3)), 1.5, z)
            assert sol.m_tilde == pytest.approx(-1.0 / z)

    def test_reciprocal_of_effective_ridge(self):
        d = generate_spectrum("polynomial", 12)
        for lam, gamma in ((0.05, 0.5), (1.0, 2.0), (0.3, 1.0)):
            eff = solve_effective_ridge(Spectrum(d), gamma, lam)
            sol = theoretical_stieltjes(Spectrum(d), gamma, complex(-lam, 0))
            assert sol.m_tilde.real * eff.lambda_tilde == pytest.approx(1.0, abs=1e-10)

    def test_rejects_nonnegative_real_part(self):
        with pytest.raises(InvalidInputError):
            theoretical_stieltjes(Spectrum(np.ones(3)), 1.0, 0.5 + 1j)
        with pytest.raises(InvalidInputError):
            theoretical_stieltjes(Spectrum(np.ones(3)), 1.0, 0.0 + 1j)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(2, 20),
        st.floats(0.2, 6.0),
        st.floats(-4.0, -0.05),
        st.floats(-3.0, 3.0),
        st.integers(0, 2**32 - 1),
    )
    def test_residual_cone_and_lower_bound(self, n, gamma, re, im, seed):
        rng = np.random.default_rng(seed)
        d = rng.uniform(0.0, 3.0, size=n)
        z = complex(re, im)
        sol = theoretical_stieltjes(Spectrum(d), gamma, z)
        assert sol.residual < 1e-10
        assert sol.in_cone
        T = float(np.mean(d))
        assert abs(sol.m_tilde) >= 1.0 / (abs(z) + T / gamma) - 1e-12

    def test_damping_schedule_invariance(self):
        # rerun the fixed point with a different damping factor by hand
        d = generate_spectrum("exponential", 10)
        gamma = 1.3
        z = complex(-0.4, 0.8)
        sol = theoretical_stieltjes(Spectrum(d), gamma, z)

        def f(m):
            return -(1.0 / z) * (1.0 - np.mean(d * m / (1.0 + d * m)) / gamma)

        m = -1.0 / z
        for _ in range(200_000):
            m_next = 0.8 * m + 0.2 * f(m)
            if abs(m_next - m) <= 1e-16 * abs(m_next):
                m = m_next
                break
            m = m_next
        assert abs(m - sol.m_tilde) < 2e-10

    def test_fixed_point_equation_form(self):
        # gamma = mean(d m / (1 + d m)) - gamma z m at the returned point
        d = np.array([0.3, 1.2, 2.2])
        gamma, z = 0.7, complex(-1.5, 0.6)
        m = theoretical_stieltjes(Spectrum(d), gamma, z).m_tilde
        lhs = np.mean(d * m / (1 + d * m)) - gamma * z * m
        assert lhs == pytest.approx(gamma, abs=1e-9)

    @pytest.mark.parametrize("z", [complex(-1e-7, 1e-7), complex(-1e-6, 5e-7)])
    def test_tiny_z_off_axis(self, z):
        # The residual is checked on the t = 1/m equation, whose rounding error
        # does not grow like 1/|z|.
        d = np.array([0.3, 1.2, 2.2])
        gamma = 0.5
        sol = theoretical_stieltjes(Spectrum(d), gamma, z)
        assert sol.in_cone
        m = sol.m_tilde
        lhs = np.mean(d * m / (1 + d * m)) - gamma * z * m
        assert lhs == pytest.approx(gamma, abs=1e-9)

    def test_complex_plane_monte_carlo_oracle(self):
        # off the real axis the deterministic value must still match the
        # sampled transform; simulation is the independent oracle here
        d_base = generate_spectrum("polynomial", 40)
        for gamma, z in ((0.5, complex(-0.8, 0.9)), (2.0, complex(-0.2, -1.1))):
            P = int(round(gamma * 40))
            vals = empirical_stieltjes(sample_wishart(Spectrum(d_base), P, SeedPolicy(21), 300), P, z)
            mean = np.mean(vals)
            sol = theoretical_stieltjes(Spectrum(d_base), gamma, z)
            se = 3.0 * np.std(vals) / np.sqrt(len(vals))
            assert abs(mean - sol.m_tilde) <= se + 2.0 / P


class TestExpectedATheory:
    def test_symmetry_point(self):
        d = np.full(4, 0.7)
        assert np.allclose(expected_A_theoretical(Spectrum(d), 0.7), 0.5)

    def test_infinite_ridge(self):
        d = generate_spectrum("exponential", 5)
        assert np.all(expected_A_theoretical(Spectrum(d), 1e12) < 1e-11)

    def test_exponential_spectrum_formula(self):
        d = generate_spectrum("exponential", 10)
        eff = solve_effective_ridge(Spectrum(d), 2.0, 0.01)
        vals = expected_A_theoretical(Spectrum(d), eff.lambda_tilde)
        assert np.allclose(vals, d / (d + eff.lambda_tilde))
        assert np.all(np.diff(vals) <= 0)

    @pytest.mark.parametrize(
        "d, lambda_tilde",
        [([np.nan, 1.0], 0.5), ([-0.5, 1.0], 0.3), ([], 0.5), ([1.0], np.nan)],
        ids=["nan-eigenvalue", "negative-eigenvalue", "empty", "nan-lambda-tilde"],
    )
    def test_rejects_bad_input(self, d, lambda_tilde):
        with pytest.raises(InvalidInputError):
            expected_A_theoretical(Spectrum(d), lambda_tilde)


class TestEmpiricalExpectedA:
    def test_rank_bound_single_feature(self):
        (vals,) = empirical_expected_A(Spectrum([1.0, 0.5]), P=1, lams=[0.1], trials=1, policy=SeedPolicy(0, 0))
        assert vals.shape == (2,)
        assert abs(vals[1]) < 1e-12  # rank of A is at most P = 1

    def test_deterministic(self):
        d = generate_spectrum("exponential", 4)
        a = empirical_expected_A(Spectrum(d), 8, [0.1], 20, SeedPolicy(5, 0))
        b = empirical_expected_A(Spectrum(d), 8, [0.1], 20, SeedPolicy(5, 0))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("P", [3, 8, 40])
    def test_each_draw_serves_every_ridge(self, P):
        d = generate_spectrum("exponential", 6)
        both = empirical_expected_A(Spectrum(d), P, [0.1, 0.02], 30, SeedPolicy(4, 2))
        for lam, vals in zip([0.1, 0.02], both):
            (alone,) = empirical_expected_A(Spectrum(d), P, [lam], 30, SeedPolicy(4, 2))
            assert np.array_equal(vals, alone)

    def test_three_ridges_equal_one_ridge_calls(self):
        # P = 3, N = 6: chunks of 910 draws are cut into stacks of 455 Grams.
        d = generate_spectrum("exponential", 6)
        lams = [0.02, 0.5, 0.1]
        joint = empirical_expected_A(Spectrum(d), 3, lams, 1000, SeedPolicy(6, 1))
        assert len(joint) == len(lams)
        for lam, vals in zip(lams, joint):
            (alone,) = empirical_expected_A(Spectrum(d), 3, [lam], 1000, SeedPolicy(6, 1))
            assert np.array_equal(vals, alone)

    def test_rejects_a_zero_ridge(self):
        with pytest.raises(InvalidInputError):
            empirical_expected_A(Spectrum([1.0, 0.5]), 4, [0.1, 0.0], 2, SeedPolicy(0))

    def test_converges_to_theory_at_large_P(self):
        d = generate_spectrum("exponential", 5)
        P = 200 * 5
        eff = solve_effective_ridge(Spectrum(d), P / 5, 0.05)
        (emp,) = empirical_expected_A(Spectrum(d), P, [0.05], trials=100, policy=SeedPolicy(2, 0))
        assert np.max(np.abs(emp - expected_A_theoretical(Spectrum(d), eff.lambda_tilde))) < 0.02

    def test_primal_dual_forms_agree(self):
        d = generate_spectrum("polynomial", 6)
        (a,) = empirical_expected_A(Spectrum(d), P=6, lams=[0.2], trials=5, policy=SeedPolicy(7, 0))
        # compare against the dual form evaluated by hand from the contract draws
        root = np.diag(np.sqrt(d))
        acc = np.zeros((6, 6))
        for t in range(5):
            F = root @ StreamSampler(SeedPolicy(7, t)).normal((6, 6)).T / np.sqrt(6)
            G = F @ F.T
            acc += np.linalg.solve(G + 0.2 * np.eye(6), G).T
        acc /= 5
        b = np.linalg.eigvalsh(0.5 * (acc + acc.T))[::-1]
        assert np.allclose(a, b, atol=1e-10)

    def test_off_diagonal_mean_shrinks_with_trials(self):
        # symmetry argument: E[A] is diagonal in the Gram eigenbasis
        d = generate_spectrum("exponential", 4)
        root = np.diag(np.sqrt(d))

        def mean_offdiag(trials, seed):
            acc = np.zeros((4, 4))
            for t in range(trials):
                F = root @ StreamSampler(SeedPolicy(seed, t)).normal((8, 4)).T / np.sqrt(8)
                G = F @ F.T
                acc += np.linalg.solve(G + 0.1 * np.eye(4), G).T
            acc /= trials
            off = acc - np.diag(np.diag(acc))
            return np.max(np.abs(off))

        small = mean_offdiag(30, seed=11)
        large = mean_offdiag(3000, seed=11)
        assert large < small


class TestMoments:
    def test_moments_deterministic_and_finite(self):
        d = generate_spectrum("exponential", 8)
        m1, v1 = stieltjes_moments(sample_wishart(Spectrum(d), 12, SeedPolicy(1), 25), 12, -1 + 0j)
        m2, v2 = stieltjes_moments(sample_wishart(Spectrum(d), 12, SeedPolicy(1), 25), 12, -1 + 0j)
        assert m1 == m2 and v1 == v2
        assert v1 > 0


class TestBatchedDraws:
    """The chunked Wishart and hat-matrix loops equal per-trial reference loops.

    Wishart spectra agree bit for bit.  The hat matrix takes the ``N x N``
    kernel-eigenbasis form for every shape and sums a stack at a time, while
    the reference takes the primal form when ``P <= N`` and adds one trial at
    a time, so the two agree to rounding.
    """

    @pytest.mark.parametrize("P, trials", [(5, 70), (50, 13), (200, 3)])
    def test_wishart_batch_equals_single_draws(self, P, trials):
        # N = 50: at P = 5 a 65-draw chunk is split into groups of 6 stacked Grams
        d = generate_spectrum("exponential", 50)
        policy = SeedPolicy(4, 2)
        batch = sample_wishart(Spectrum(d), P, policy, trials)
        assert len(batch) == trials
        for t, spectrum in enumerate(batch):
            W = StreamSampler(policy.shifted(t)).normal((P, 50))
            Y = W * np.sqrt(d / P)
            S = Y.T @ Y
            evals = np.maximum(np.linalg.eigvalsh(0.5 * (S + S.T))[::-1], 0.0)
            assert np.array_equal(spectrum, evals[:P])
        (single,) = sample_wishart(Spectrum(d), P, policy, 1)
        assert np.array_equal(single, batch[0])

    @pytest.mark.parametrize("P, trials", [(3, 40), (10, 40), (50, 40)])
    def test_expected_A_equals_per_trial_loop(self, P, trials):
        d = generate_spectrum("exponential", 10)
        lam, policy = 0.05, SeedPolicy(9, 1)
        root = np.diag(np.sqrt(d))
        acc = np.zeros((10, 10))
        for t in range(trials):
            W = StreamSampler(policy.shifted(t)).normal((P, 10))
            F = (root @ W.T) / np.sqrt(P)
            if P > 10:
                G = F @ F.T
                acc += np.linalg.solve(G + lam * np.eye(10), G).T
            else:
                acc += F @ np.linalg.solve(F.T @ F + lam * np.eye(P), F.T)
        acc /= trials
        ref = np.linalg.eigvalsh(0.5 * (acc + acc.T))[::-1]
        # Eigenvalues lie in [0, 1] and each reference solve has condition
        # number at most (max s^2 + lam) / lam, about 1e3 here.
        (emp,) = empirical_expected_A(Spectrum(d), P, [lam], trials, policy)
        assert np.max(np.abs(emp - ref)) <= 1e-12
