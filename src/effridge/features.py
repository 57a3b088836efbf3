"""Reproducible sampling of Gaussian random feature matrices.

Features have covariance equal to a kernel Gram matrix and are realized as
``(1/sqrt(P)) * Kbar^{1/2} W^T`` for a standard normal ``W``.

Randomness contract
-------------------
Every draw is a pure function of a :class:`SeedPolicy`.  The per-trial stream
seed is the ``(trial_index + 1)``-th output of the SplitMix64 generator seeded
with ``base_seed``; that seed keys a Philox4x64 counter-based generator.  Its
raw 64-bit outputs ``r`` become uniforms ``(r >> 11) * 2^-53`` through numpy's
``Generator.random``, and the uniforms become normals through the Box-Muller
transform.  The seed derivation, the raw Philox stream and the uniforms are
published, fixed integer algorithms, so they are the same bits on any platform.
The normals are not: Box-Muller's ``log1p``, ``sqrt``, ``cos`` and ``sin`` are
numpy's, and numpy picks its float64 ``log1p`` by the CPU's SIMD level (its
AVX-512 loop and libm's differ by one ulp on some inputs).  So identical seeds
give a bit-identical ``W`` on one numpy build, CPU SIMD level and libm.
``StreamSampler`` draws one such stream and ``normal_chunks`` draws many; both
take their Philox keys from ``_stream_keys``, a SplitMix64 over uint64 arrays.
``normal_chunks`` derives the keys of a block of chunks at once, re-keys one
Philox per trial by assigning its state (a fresh stream: the key,
a zero counter, an empty buffer), writes the uniforms into one preallocated
array and runs one Box-Muller per chunk.  Each trial gets the same bits as
its own ``StreamSampler``.  Box-Muller takes cos and sin in bucket order of
the angles, per block; each element's operations, and so its bits, are unchanged.
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
# Entries of any one array a configuration sizes, at most (2^26 float64 take
# 512 MiB); ``check_size`` refuses a larger one before it is allocated.
MAX_ELEMENTS = 2**26


def _mix64(x):
    """SplitMix64 finalizer (Steele, Lea & Flood 2014) of a Python int or, elementwise, a uint64 array."""
    x = x & _MASK64
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


class StreamSampler:
    """Uniform and normal variates from a Philox stream keyed by a SeedPolicy."""

    def __init__(self, policy: SeedPolicy):
        self._gen = np.random.Generator(np.random.Philox(key=_stream_keys(policy, 0, 1)[0]))

    def uniform(self, n: int) -> np.ndarray:
        """n uniforms in [0, 1), each from the top 53 bits of one raw draw."""
        return self._gen.random(n)

    def normal(self, shape) -> np.ndarray:
        """Standard normals via Box-Muller on consecutive uniform pairs."""
        n = int(np.prod(shape))
        return _box_muller(self.uniform(2 * ((n + 1) // 2)))[:n].reshape(shape)


def _box_muller(u: np.ndarray) -> np.ndarray:
    """A new array of normals from the uniforms on the last axis of ``u``, which is overwritten.

    The first half of that axis gives radii, its second half angles.  Every
    operation is elementwise along that axis, so a stack of streams gives the
    same bits as each stream on its own.  cos and sin, whose libm cost depends
    on the angle's range, run on blocks of at most ``CHUNK_ELEMENTS // 2`` angles
    sorted into 32 buckets of [0, 2 pi] and scattered back, which changes no bit.
    """
    out = np.empty_like(u)
    pairs = u.shape[-1] // 2
    r, theta = u[..., :pairs], u[..., pairs:]
    # 1 - u lies in (0, 1], so the log is finite.
    np.negative(r, out=r)
    np.log1p(r, out=r)
    np.multiply(-2.0, r, out=r)
    np.sqrt(r, out=r)
    np.multiply(2.0 * np.pi, theta, out=theta)
    # One stream reads u's halves and writes out's, viewed flat; a stack goes through one flat buffer.
    one = u.size == 2 * pairs
    flat = u.reshape(2, pairs) if one else u.reshape(-1, 2, pairs).swapaxes(0, 1).reshape(2, -1)
    dest = out.reshape(2, pairs) if one else flat
    step = CHUNK_ELEMENTS // 2
    for s in range(0, flat.shape[1], step):
        r, theta = flat[:, s : s + step]
        order = np.argsort((theta * (16 / np.pi)).astype(np.uint8), kind="stable")
        r, theta = r[order], theta[order]
        cos = np.cos(theta)
        dest[0, s : s + step][order] = np.multiply(r, cos, out=cos)
        dest[1, s : s + step][order] = np.multiply(r, np.sin(theta, out=theta), out=theta)
    if not one:
        out.reshape(-1, 2, pairs).swapaxes(0, 1)[...] = flat.reshape(2, -1, pairs)
    return out


def chunk_draws(rows: int, cols: int) -> int:
    """Draws of shape ``(rows, cols)`` per chunk: as many as ``CHUNK_ELEMENTS`` entries hold, and at least one."""
    return max(1, CHUNK_ELEMENTS // (rows * cols))


def check_size(field: str, what: str, elements: int) -> None:
    """Refuse, naming the field, an array of more than ``MAX_ELEMENTS`` entries, before it is allocated."""
    if elements > MAX_ELEMENTS:
        raise InvalidInputError(f"{field}: {what} of {elements} elements is above the limit of {MAX_ELEMENTS}")


def _check_count(name: str, value, what: str) -> None:
    """Refuse, naming it, a count that is not a positive Python or numpy integer (a bool is not one)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise InvalidInputError(f"{name} = {value!r}: need an integer count of at least one {what}")


def check_draw(shape: tuple[int, int]) -> None:
    """Refuse, naming P, a draw of shape ``(P, cols)`` whose P is not a positive integer, or of too many normals."""
    rows, cols = shape
    _check_count("P", rows, "feature")
    check_size(f"P = {rows}", f"one draw of shape ({rows}, {cols})", rows * cols)


def _stream_keys(policy: SeedPolicy, start: int, stop: int) -> np.ndarray:
    """Philox keys ``[seed, _mix64(seed)]`` of the trials ``start`` to ``stop - 1`` of ``policy``, one per row.

    Philox4x64 takes a 128-bit key; the upper word is a mix of the lower.  The
    seeds are ``derive_stream_seed`` vectorized: uint64 arithmetic wraps
    modulo 2^64, as the masked Python ints do.  Every stream, a
    ``StreamSampler``'s or a ``normal_chunks`` trial's, is keyed here.
    """
    first = (policy.base_seed + (policy.trial_index + start + 1) * _SPLITMIX_GAMMA) & _MASK64
    states = np.uint64(first) + np.arange(stop - start, dtype=np.uint64) * np.uint64(_SPLITMIX_GAMMA)
    seeds = _mix64(states)
    return np.stack([seeds, _mix64(seeds)], axis=1)


def normal_chunks(policy: SeedPolicy, trials: int, shape: tuple[int, int]) -> Iterator[tuple[int, np.ndarray]]:
    """Standard normal draws of ``trials`` consecutive streams, a chunk at a time.

    Yields ``(t0, W)`` with ``W`` of shape ``(B, rows, cols)``, where
    ``W[b]`` equals ``StreamSampler(policy.shifted(t0 + b)).normal(shape)``
    bit for bit.  ``B = chunk_draws(rows, cols)`` depends on the shape only;
    the last chunk holds the remaining trials.  ``rows`` is the feature count
    P; a shape that ``check_draw`` refuses, or a trial count that is not an
    integer of at least one, raises :class:`InvalidInputError`.

    One Philox serves the whole call.  The keys of the trials' own
    ``StreamSampler`` are derived a block of whole chunks, about 4096 trials,
    at a time.  Each trial re-keys the Philox with its key and a fresh state,
    and ``Generator.random`` writes that trial's uniforms into one row of a
    buffer shared by every chunk.
    Each chunk's normals go to a new array, so a yielded ``W`` is never
    overwritten.
    """
    check_draw(shape)
    _check_count("trials", trials, "trial")
    rows, cols = shape
    n = rows * cols
    size = chunk_draws(rows, cols)
    block = size * max(1, 4096 // size)  # trials per key derivation: whole chunks
    pairs = (n + 1) // 2
    bitgen = np.random.Philox(0)
    gen = np.random.Generator(bitgen)
    # The state of a new Philox(key=key): a zero counter and an empty buffer.
    fresh = {"bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": None},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    u = np.empty((min(size, trials), 2 * pairs))
    for t0 in range(0, trials, size):
        if t0 % block == 0:
            keys = iter(_stream_keys(policy, t0, min(t0 + block, trials)).tolist())
        chunk = u[: min(size, trials - t0)]
        # Rows first: zip stops at the chunk's end without taking the next chunk's key.
        for row, key in zip(chunk, keys):
            fresh["state"]["key"] = key
            bitgen.state = fresh
            gen.random(out=row)
        yield t0, _box_muller(chunk)[:, :n].reshape(-1, rows, cols)


def gaussian_features(joint_sqrt: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Feature entries ``joint_sqrt @ W[b].T / sqrt(P)`` of every draw in a chunk ``W`` of shape (B, P, M).

    The broadcast product runs one GEMM per draw, which gives the same bits as
    the single-draw product; one ``(M x M) @ (M x B*P)`` GEMM would not.
    """
    return np.matmul(joint_sqrt, W.transpose(0, 2, 1)) / np.sqrt(W.shape[1])
