import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from effridge import (
    InvalidInputError,
    KernelSpec,
    SeedPolicy,
    Spectrum,
    derive_stream_seed,
    empirical_expected_A,
    generate_sinusoid,
    run_trials,
    sample_wishart,
)
from effridge.features import (
    CHUNK_ELEMENTS,
    MAX_ELEMENTS,
    StreamSampler,
    _box_muller,
    _mix64,
    _stream_keys,
    gaussian_features,
    normal_chunks,
)


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_stream_seed(7, 3) == derive_stream_seed(7, 3)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**64 - 1), st.integers(0, 10_000), st.integers(0, 10_000))
    def test_distinct_trials_distinct_streams(self, base, i, j):
        if i == j:
            return
        assert derive_stream_seed(base, i) != derive_stream_seed(base, j)

    def test_rejects_negative_trial(self):
        with pytest.raises(InvalidInputError):
            SeedPolicy(1, -1)

    def test_shifted(self):
        p = SeedPolicy(5, 2)
        assert p.shifted(3) == SeedPolicy(5, 5)


class TestStreamSampler:
    def test_golden_stream_values(self):
        # locks the published randomness stack (SplitMix64 -> Philox raw ->
        # 53-bit uniforms -> Box-Muller); these values must never change
        assert derive_stream_seed(0, 0) == 16294208416658607535
        assert derive_stream_seed(7, 3) == 10753165928301472203
        u = StreamSampler(SeedPolicy(0, 0)).uniform(3)
        assert u.tolist() == [0.25620661797964894, 0.3094821202847663, 0.4961865059303662]
        z = StreamSampler(SeedPolicy(0, 0)).normal(3)
        assert z.tolist() == [-0.7691841020129928, 0.5864130153756398, 0.018433863497830744]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**64 - 1), st.integers(0, 2**63))
    @example(0, 0)
    @example(7, 3)
    @example(2**63 + 5, 499)
    @example(1, 2**62)
    def test_stream_is_keyed_by_derive_stream_seed(self, base, trial):
        # Philox keyed [seed, mix64(seed)] from the published scalar derivation gives the sampler's raw stream.
        seed = derive_stream_seed(base, trial)
        raw = np.random.Philox(key=np.array([seed, _mix64(seed)], dtype=np.uint64)).random_raw(4)
        u = StreamSampler(SeedPolicy(base, trial)).uniform(4)
        assert np.array_equal(u, (raw >> np.uint64(11)) * (2.0 ** -53))

    def test_uniform_range_and_determinism(self):
        u1 = StreamSampler(SeedPolicy(1, 0)).uniform(1000)
        u2 = StreamSampler(SeedPolicy(1, 0)).uniform(1000)
        assert np.array_equal(u1, u2)
        assert np.all((u1 >= 0) & (u1 < 1))

    def test_normal_moments(self):
        z = StreamSampler(SeedPolicy(2, 0)).normal(200_000)
        assert abs(np.mean(z)) < 0.01
        assert abs(np.std(z) - 1.0) < 0.01

    def test_normal_odd_count(self):
        z = StreamSampler(SeedPolicy(3, 0)).normal((3, 5))
        assert z.shape == (3, 5)


def feature_draws(root, P, trials, policy):
    """Feature entries of ``trials`` consecutive draws from ``policy`` on, stacked on the first axis."""
    chunks = normal_chunks(policy, trials, (P, root.shape[0]))
    return np.concatenate([gaussian_features(root, W) for _, W in chunks])


class TestGaussianFeatures:
    def test_shapes_and_split(self):
        # The train block is the first rows of the joint root: the same features on the same points.
        root = np.eye(6)
        ((_, W),) = normal_chunks(SeedPolicy(0, 0), 1, (4, 6))
        F = gaussian_features(root, W)
        assert F.shape == (1, 6, 4)
        assert np.array_equal(gaussian_features(root[:4], W), F[:, :4])

    def test_rejects_zero_features(self):
        with pytest.raises(InvalidInputError, match="at least one feature"):
            next(normal_chunks(SeedPolicy(0, 0), 1, (0, 2)))

    def test_rejects_zero_trials(self):
        with pytest.raises(InvalidInputError, match="at least one trial"):
            next(normal_chunks(SeedPolicy(0, 0), 0, (4, 2)))

    def test_bit_identical_for_same_policy(self):
        root = np.eye(3)
        a = feature_draws(root, 5, 1, SeedPolicy(7, 3))
        b = feature_draws(root, 5, 1, SeedPolicy(7, 3))
        assert np.array_equal(a, b)

    def test_law_of_large_numbers_identity_gram(self):
        # with joint Gram = I, (1/P-normalized) F F^T estimates the identity
        M, P = 5, 100_000
        (F,) = feature_draws(np.eye(M), P, 1, SeedPolicy(11, 0))
        est = F @ F.T
        assert np.max(np.abs(est - np.eye(M))) < 0.02

    def test_covariance_matches_target_gram(self):
        # E[F F^T] = K for a non-trivial square root
        K = np.array([[1.0, 0.6], [0.6, 1.0]])
        w, V = np.linalg.eigh(K)
        root = (V * np.sqrt(w)) @ V.T
        (F,) = feature_draws(root, 200_000, 1, SeedPolicy(12, 0))
        assert np.max(np.abs(F @ F.T - K)) < 0.02

    def test_entry_means_vanish_over_trials(self):
        # centered features: per-entry averages across trials go to zero
        trials = 900
        acc = feature_draws(np.eye(3), 2, trials, SeedPolicy(13, 0)).mean(axis=0)
        # entry std is 1/sqrt(P) = 0.71, so the mean carries 3/sqrt(trials) error
        assert np.max(np.abs(acc)) < 3.0 / np.sqrt(trials)

    def test_entry_pair_covariance_matches_gram(self):
        # across trials, P * Cov(entry (i,a), entry (j,a)) = K_ij
        K = np.array([[1.0, 0.4], [0.4, 1.0]])
        w, V = np.linalg.eigh(K)
        root = (V * np.sqrt(w)) @ V.T
        trials, P = 2000, 3
        draws = feature_draws(root, P, trials, SeedPolicy(14, 0))
        same_col = draws[:, :, 0]  # entries (0, 0) and (1, 0) across trials
        cov = np.cov(same_col.T, ddof=1) * P
        assert np.max(np.abs(cov - K)) < 3.0 / np.sqrt(trials) * P


class TestEmpiricalKernel:
    def test_gaussian_rate_fit(self):
        # max-abs error to the target Gram decreases about like P^{-1/2}
        rng = np.random.default_rng(6)
        A = rng.normal(size=(8, 8))
        K = A @ A.T / 8 + np.eye(8)
        w, V = np.linalg.eigh(K)
        root = (V * np.sqrt(w)) @ V.T
        errs = []
        for P in (100, 1000, 10_000):
            (F,) = feature_draws(root, P, 1, SeedPolicy(8, 0))
            errs.append(np.max(np.abs(F @ F.T - K)))
        slope = np.polyfit(np.log([100, 1000, 10_000]), np.log(errs), 1)[0]
        assert -0.9 < slope < -0.2


class TestNormalChunks:
    """The chunked generator yields exactly the per-trial draws of the randomness contract."""

    def _check(self, policy, trials, shape):
        # The bulk keys against the published scalar derivation, then each draw
        # against its own StreamSampler's.
        seeds = [derive_stream_seed(policy.base_seed, policy.trial_index + t) for t in range(trials)]
        keys = _stream_keys(policy, 0, trials)
        assert keys[:, 0].tolist() == seeds
        assert keys[:, 1].tolist() == [_mix64(s) for s in seeds]
        sizes = []
        for t0, W in normal_chunks(policy, trials, shape):
            assert t0 == sum(sizes)
            assert W.shape[1:] == shape
            for b in range(W.shape[0]):
                ref = StreamSampler(policy.shifted(t0 + b)).normal(shape)
                assert np.array_equal(W[b], ref)
            sizes.append(W.shape[0])
        assert sum(sizes) == trials
        return sizes

    def test_chunk_boundaries_with_a_partial_last_chunk(self):
        # 8 * 104 normals per draw give chunks of 2**14 // 832 = 19 draws
        sizes = self._check(SeedPolicy(3, 0), 45, (8, 104))
        assert sizes == [19, 19, 7]

    def test_odd_element_count(self):
        # 15 normals per draw: the last Box-Muller pair is cut in half
        sizes = self._check(SeedPolicy(11, 4), 1100, (3, 5))
        assert sizes == [CHUNK_ELEMENTS // 15, 1100 - CHUNK_ELEMENTS // 15]

    def test_largest_base_seed(self):
        # base_seed 2^64 - 1: every stream seed's SplitMix64 state wraps modulo 2^64
        sizes = self._check(SeedPolicy(2**64 - 1, 0), 20, (8, 104))
        assert sizes == [19, 1]

    def test_offset_policy_across_a_chunk_boundary(self):
        sizes = self._check(SeedPolicy(9, 1000), 40, (8, 104))
        assert sizes == [19, 19, 2]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**64 - 1), st.integers(0, 10**6), st.integers(1, 3))
    def test_chunk_streams_are_keyed_by_derive_stream_seed(self, base, offset, trials):
        # The chunk's stream seeds are derived in bulk; each must equal
        # derive_stream_seed's and key the stream of its own StreamSampler.
        self._check(SeedPolicy(base, offset), trials, (1, 2))

    def test_more_trials_than_one_key_block(self):
        # Keys are derived a block of whole 19-draw chunks at a time (4085 trials);
        # 4111 trials run two chunks past the block, and 19 does not divide 4096.
        sizes = self._check(SeedPolicy(17, 3), 4111, (8, 104))
        assert sizes == [19] * 216 + [7]

    def test_draws_beyond_the_budget_come_one_per_chunk(self):
        sizes = self._check(SeedPolicy(2**63 + 5, 7), 3, (130, 127))
        assert sizes == [1, 1, 1]

    def test_chunked_features_equal_single_products(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((12, 12))
        root = A @ A.T
        for P in (1, 3, 8, 17):
            for t0, W in normal_chunks(SeedPolicy(5, 0), 30, (P, 12)):
                entries = gaussian_features(root, W)
                for b in range(W.shape[0]):
                    assert np.array_equal(entries[b], (root @ W[b].T) / np.sqrt(P))

    def test_draw_above_the_limit_is_refused_before_sampling(self):
        # two normals over the limit; the refusal names P and the shape
        P = MAX_ELEMENTS // 2 + 1
        with pytest.raises(InvalidInputError, match=rf"P = {P}: one draw of shape \({P}, 2\)"):
            next(normal_chunks(SeedPolicy(0, 0), 2, (P, 2)))


def elementwise_box_muller(u):
    """Box-Muller as every element was computed before bucket order: ``r * cos(theta)``, ``r * sin(theta)`` in place."""
    u, out = u.copy(), np.empty_like(u)
    pairs = u.shape[-1] // 2
    r, theta = u[..., :pairs], u[..., pairs:]
    np.negative(r, out=r)
    np.log1p(r, out=r)
    np.multiply(-2.0, r, out=r)
    np.sqrt(r, out=r)
    np.multiply(2.0 * np.pi, theta, out=theta)
    cos, sin = out[..., :pairs], out[..., pairs:]
    np.multiply(r, np.cos(theta, out=cos), out=cos)
    np.multiply(r, np.sin(theta, out=sin), out=sin)
    return out


class TestBoxMuller:
    """cos and sin in bucket order, a block of angles at a time, give the elementwise bits."""

    BLOCK = CHUNK_ELEMENTS // 2

    def _check(self, u):
        assert _box_muller(u.copy()).tobytes() == elementwise_box_muller(u).tobytes()

    def test_one_stream(self):
        self._check(np.random.default_rng(0).random(2 * 1000))

    def test_stacked_chunk(self):
        # 700 draws of 15 pairs: 10,500 angles, two blocks whose edge falls inside a draw
        self._check(np.random.default_rng(1).random((700, 30)))

    def test_one_draw_spanning_three_blocks(self):
        # the last block holds 100 angles
        self._check(np.random.default_rng(2).random((1, 2 * (2 * self.BLOCK + 100))))

    def test_angles_on_every_bucket_edge(self):
        # u = k/32 puts the angle on an edge of the 32 buckets, and just below
        # it; u = 1 gives an angle of exactly 2 pi, the only one in bucket 32.
        edges = np.arange(33) / 32
        angles = np.concatenate([edges, np.nextafter(edges[1:], 0.0)])
        keys = (2.0 * np.pi * angles * (16 / np.pi)).astype(np.uint8)
        assert set(keys.tolist()) == set(range(33))
        radii = np.random.default_rng(3).random(angles.size)
        self._check(np.concatenate([radii, angles]))
        self._check(np.stack([np.concatenate([radii, angles])] * 3))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 3 * BLOCK), st.integers(0, 2**32 - 1))
    def test_any_stack(self, rows, pairs, seed):
        u = np.random.default_rng(seed).random((rows, 2 * pairs))
        self._check(u)
        self._check(u[0])


def draw_with(sampler, P, trials):
    """One call of a library sampler at feature count ``P`` and ``trials`` trials."""
    if sampler == "run_trials":
        data, test_X = generate_sinusoid(4, 10, seed=1)
        return run_trials(data, test_X, KernelSpec("rbf", 2.0), [P], [0.1], trials, 0)
    if sampler == "sample_wishart":
        return sample_wishart(Spectrum([1.0, 0.5]), P, SeedPolicy(0), trials)
    return empirical_expected_A(Spectrum([1.0, 0.5]), P, [0.1], trials, SeedPolicy(0))


class TestCounts:
    """Feature and trial counts are positive integers; any other count is refused by name, before numpy sees it."""

    @pytest.mark.parametrize("sampler", ["sample_wishart", "empirical_expected_A", "run_trials"])
    @pytest.mark.parametrize(
        "P, trials, named",
        [(2.5, 3, "P = 2.5"), (True, 3, "P = True"), (-1, 3, "P = -1"), (4, 2.5, "trials = 2.5")],
    )
    def test_count_that_is_not_a_positive_integer_is_refused(self, sampler, P, trials, named):
        with pytest.raises(InvalidInputError, match=named):
            draw_with(sampler, P, trials)

    @pytest.mark.parametrize("sampler", ["sample_wishart", "empirical_expected_A", "run_trials"])
    def test_numpy_integer_counts_are_accepted(self, sampler):
        a, b = draw_with(sampler, np.int64(3), np.int64(4)), draw_with(sampler, 3, 4)
        if sampler == "run_trials":
            a, b = a[3][0].mean, b[3][0].mean
        assert np.array_equal(a, b)
