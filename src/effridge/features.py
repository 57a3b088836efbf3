"""Reproducible sampling of Gaussian random feature matrices.

Features have covariance equal to a kernel Gram matrix and are realized as
``(1/sqrt(P)) * Kbar^{1/2} W^T`` for a standard normal ``W``.

Randomness contract
-------------------
Every draw is a pure function of a :class:`SeedPolicy`.  The per-trial stream
seed is the ``(trial_index + 1)``-th output of the SplitMix64 generator seeded
with ``base_seed``; that seed keys a Philox4x64 counter-based generator, and
uniforms/normals are produced from its raw 64-bit outputs by ``(r >> 11) *
2^-53`` and the Box-Muller transform.  All three pieces are published, fixed
algorithms, so identical seeds give bit-identical matrices on any platform.
``normal_chunks`` stacks consecutive trials' streams into one Box-Muller call
and returns, for each trial, the same bits as its own ``StreamSampler``.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

_MASK64 = (1 << 64) - 1
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15

# Normals per chunk of draws.  A fixed element budget, independent of the core
# count, so the chunking, and with it every result, is the same on any machine.
CHUNK_ELEMENTS = 2**14
# Entries of one feature draw, spectrum or joint Gram at most (2^26 float64 take
# 512 MiB).  A larger array is an input error, reported before it is allocated.
MAX_ELEMENTS = 2**26


def _mix64(x: int) -> int:
    """SplitMix64 finalizer (Steele, Lea & Flood 2014)."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def derive_stream_seed(base_seed: int, trial_index: int) -> int:
    """64-bit stream seed for one trial: SplitMix64 output #``trial_index`` of ``base_seed``."""
    if trial_index < 0:
        raise InvalidInputError("trial_index must be nonnegative")
    state = (base_seed + (trial_index + 1) * _SPLITMIX_GAMMA) & _MASK64
    return _mix64(state)


@dataclass(frozen=True)
class SeedPolicy:
    """Base seed plus trial index; the unit of reproducibility.

    Distinct trial indices give independent streams; the same pair is
    bit-reproducible.  Multi-trial drivers shift ``trial_index`` by the trial
    number, so a policy also acts as an offset into a family of streams.
    """

    base_seed: int
    trial_index: int = 0

    def __post_init__(self):
        if not (0 <= self.base_seed <= _MASK64):
            raise InvalidInputError("base_seed must fit in 64 unsigned bits")
        if self.trial_index < 0:
            raise InvalidInputError("trial_index must be nonnegative")

    def shifted(self, offset: int) -> "SeedPolicy":
        return SeedPolicy(self.base_seed, self.trial_index + offset)

    def stream_seed(self) -> int:
        return derive_stream_seed(self.base_seed, self.trial_index)


class StreamSampler:
    """Uniform and normal variates from a Philox stream keyed by a SeedPolicy."""

    def __init__(self, policy: SeedPolicy):
        seed = policy.stream_seed()
        # Philox4x64 takes a 128-bit key; the upper word is a mix of the lower.
        key = np.array([seed, _mix64(seed)], dtype=np.uint64)
        self._bitgen = np.random.Philox(key=key)

    def uniform(self, n: int) -> np.ndarray:
        """n uniforms in [0, 1), each from the top 53 bits of one raw draw."""
        raw = self._bitgen.random_raw(n)
        return (raw >> np.uint64(11)) * (2.0 ** -53)

    def normal(self, shape) -> np.ndarray:
        """Standard normals via Box-Muller on consecutive uniform pairs."""
        n = int(np.prod(shape))
        return _box_muller(self.uniform(2 * ((n + 1) // 2)))[:n].reshape(shape)


def _box_muller(u: np.ndarray) -> np.ndarray:
    """Normals from the uniforms on the last axis: its first half gives radii, its second half angles.

    Every operation is elementwise along that axis, so a stack of streams
    gives the same bits as each stream on its own.
    """
    pairs = u.shape[-1] // 2
    u1, u2 = u[..., :pairs], u[..., pairs:]
    # 1 - u1 lies in (0, 1], so the log is finite.
    r = np.sqrt(-2.0 * np.log1p(-u1))
    theta = 2.0 * np.pi * u2
    return np.concatenate([r * np.cos(theta), r * np.sin(theta)], axis=-1)


def check_draw(shape: tuple[int, int]) -> None:
    """Refuse, naming P, a draw of shape ``(P, cols)`` with no features or above ``MAX_ELEMENTS`` normals."""
    rows, cols = shape
    if rows < 1:
        raise InvalidInputError("need at least one feature")
    if rows * cols > MAX_ELEMENTS:
        raise InvalidInputError(
            f"P = {rows}: one draw of shape ({rows}, {cols}) has {rows * cols} normals, "
            f"above the limit of {MAX_ELEMENTS}"
        )


def normal_chunks(policy: SeedPolicy, trials: int, shape: tuple[int, int]) -> Iterator[tuple[int, np.ndarray]]:
    """Standard normal draws of ``trials`` consecutive streams, a chunk at a time.

    Yields ``(t0, W)`` with ``W`` of shape ``(B, rows, cols)``, where
    ``W[b]`` equals ``StreamSampler(policy.shifted(t0 + b)).normal(shape)``
    bit for bit.  ``B = max(1, CHUNK_ELEMENTS // (rows * cols))`` depends on
    the shape only; the last chunk holds the remaining trials.  ``rows`` is
    the feature count P; a shape that ``check_draw`` refuses raises
    :class:`InvalidInputError`.
    """
    check_draw(shape)
    rows, cols = shape
    n = rows * cols
    size = max(1, CHUNK_ELEMENTS // n)
    pairs = (n + 1) // 2
    for t0 in range(0, trials, size):
        u = np.stack(
            [StreamSampler(policy.shifted(t)).uniform(2 * pairs) for t in range(t0, min(t0 + size, trials))]
        )
        yield t0, _box_muller(u)[:, :n].reshape(-1, rows, cols)


def gaussian_features(joint_sqrt: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Feature entries ``joint_sqrt @ W[b].T / sqrt(P)`` of every draw in a chunk ``W`` of shape (B, P, M).

    The broadcast product runs one GEMM per draw, which gives the same bits as
    the single-draw product; one ``(M x M) @ (M x B*P)`` GEMM would not.
    """
    return np.matmul(joint_sqrt, W.transpose(0, 2, 1)) / np.sqrt(W.shape[1])
