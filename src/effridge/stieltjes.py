"""Stieltjes transforms of the sample covariance of random features.

For a feature matrix ``F`` with ``E[F F^T] = K``, the matrix ``F^T F`` is a
generalized Wishart matrix ``(1/P) W K W^T``.  Its empirical Stieltjes
transform ``m_P(z) = (1/P) Tr (F^T F - z I)^{-1}`` concentrates, as ``P``
grows, around the deterministic ``m_tilde(z)`` solving

    gamma = mean_i( d_i * m / (1 + d_i * m) ) - gamma * z * m,

the unique solution inside the cone spanned by ``1`` and ``-1/z`` for
``Re(z) < 0``.  On the negative real axis it is the reciprocal of the
effective ridge: ``m_tilde(-lambda) = 1 / lambda_tilde(lambda, gamma)``.

Rate of concentration at ``z = -lambda``.  Resampling one feature is a
rank-two change of ``F F^T``, so the Efron-Stein inequality gives the general
bound ``Var m_P(-lambda) <= 2 / (P lambda^2)``.  This is only an upper bound.
At fixed ``N`` with ``P >= N`` the ``P - N`` zero eigenvalues are
deterministic, ``m_P(-lambda) = (1 - N/P)/lambda + (1/P) sum_{i<=N} 1/(s_i + lambda)``
with ``s_i`` the eigenvalues of the ``N x N`` matrix
``diag(d)^{1/2} (W^T W / P) diag(d)^{1/2}``, and to first order in
``W^T W / P - I``

    Var m_P(-lambda) ~= 2 * sum_i d_i^2 / (d_i + lambda)^4 / P^3,

a ``P^-3`` decay; the unnormalized trace ``P m_P`` decays as ``P^-1``.

The module also compares the averaged hat matrix
``A = F (F^T F + lambda I)^{-1} F^T`` against its deterministic limit
``K (K + lambda_tilde I)^{-1}`` through the eigenvalues of both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NumericError
from .features import CHUNK_ELEMENTS, SeedPolicy, gaussian_features, normal_chunks
from .kernels import GramSpectrum, sqrt_gram
from .effective_ridge import RESIDUAL_TOL, SpectrumInput, solve_effective_ridge
from .effective_ridge import _fixed_point_residual, _fixed_point_slope, _newton


@dataclass(frozen=True)
class WishartSample:
    """Eigenvalues of one draw of ``F^T F`` plus the stream seed that produced it."""

    eigenvalues: np.ndarray
    seed: int

    def __post_init__(self):
        d = np.asarray(self.eigenvalues, dtype=float).ravel()
        object.__setattr__(self, "eigenvalues", d)
        dmax = float(np.max(d)) if d.size else 0.0
        if np.any(d < -1e-10 * max(dmax, 1.0)):
            raise InvalidInputError("Wishart eigenvalues must be nonnegative")

    @property
    def n_features(self) -> int:
        return self.eigenvalues.size


@dataclass(frozen=True)
class StieltjesSolution:
    """Fixed point of the deterministic Stieltjes equation at one complex point.

    ``in_cone`` records membership in the cone spanned by ``1`` and ``-1/z``
    where the fixed point is unique; ``residual`` is the relative residual
    ``|g(t)| / (|t| + |z|)`` of the equation solved for ``t = 1/m``,
    ``g(t) = t + z - (t/gamma) mean(d / (t + d))``.
    """

    z: complex
    m_tilde: complex
    residual: float
    iterations: int
    in_cone: bool


def sample_wishart(
    kernel_eigenvalues: np.ndarray, P: int, policy: SeedPolicy, trials: int | None = None
) -> WishartSample | list[WishartSample]:
    """Draw ``F^T F = (1/P) W diag(d) W^T`` and return its full spectrum.

    Only the kernel eigenvalues matter (Gaussian invariance under rotation),
    so sampling happens in the eigenbasis: the nonzero spectrum of the P x P
    matrix equals that of the small ``N x N`` Gram of ``(1/sqrt(P)) W sqrt(d)``,
    padded with ``P - N`` zeros when overparameterized.

    Without ``trials`` this returns the draw at ``policy``; with it, the list
    of draws at ``policy`` shifted by ``0, ..., trials - 1``, computed a chunk
    of stacked Grams at a time and equal to the single draws bit for bit.
    """
    d = np.asarray(kernel_eigenvalues, dtype=float).ravel()
    if np.any(d < 0) or not np.all(np.isfinite(d)):
        raise InvalidInputError("kernel eigenvalues must be finite and nonnegative")
    if P < 1:
        raise InvalidInputError("need at least one feature")
    count = 1 if trials is None else trials
    if count < 1:
        raise InvalidInputError("need at least one trial")
    N = d.size
    scale = np.sqrt(d / P)
    # Stack no more N x N Grams than fit the chunk budget, which matters when P < N.
    step = max(1, CHUNK_ELEMENTS // (N * N))
    samples = []
    for t0, W in normal_chunks(policy, count, (P, N)):
        for k in range(0, len(W), step):
            Y = W[k : k + step] * scale
            S = Y.transpose(0, 2, 1) @ Y
            spectra = np.linalg.eigvalsh(0.5 * (S + S.transpose(0, 2, 1)))[:, ::-1]
            for b, evals in enumerate(np.maximum(spectra, 0.0), start=t0 + k):
                out = np.concatenate([evals, np.zeros(P - N)]) if P >= N else evals[:P]
                samples.append(WishartSample(eigenvalues=out, seed=policy.shifted(b).stream_seed()))
    return samples[0] if trials is None else samples


def empirical_stieltjes(sample: WishartSample, z: complex) -> complex:
    """``m_P(z) = (1/P) sum_p 1 / (lambda_p - z)`` for one sampled spectrum."""
    z = complex(z)
    if abs(z.imag) <= 1e-12 and z.real >= -1e-12:
        raise InvalidInputError("z must stay off the nonnegative real axis")
    return complex(np.mean(1.0 / (sample.eigenvalues - z)))


def _cone_membership(m: complex, z: complex) -> bool:
    """Whether m = u * 1 + v * (-1/z) with u, v >= 0 (up to rounding slack)."""
    w = -1.0 / z
    tol = 1e-9 * max(abs(m), 1e-300)
    if w.imag == 0.0:
        # Real negative z: the cone degenerates to the nonnegative real axis.
        return abs(m.imag) <= tol and m.real >= -tol
    v = m.imag / w.imag
    u = m.real - v * w.real
    slack = 1e-9 * (abs(m) + abs(v) * abs(w) + abs(u)) + 1e-300
    return u >= -slack and v * abs(w) >= -slack


def theoretical_stieltjes(
    kernel_eigenvalues: np.ndarray, gamma: float, z: complex
) -> StieltjesSolution:
    """Solve the deterministic fixed point for ``m_tilde(z)`` with ``Re(z) < 0``.

    With ``t = 1 / m`` the fixed point is the effective-ridge equation
    ``t = lam + (t/gamma) mean(d / (t + d))`` at the complex ridge
    ``lam = -z``.  On the real ray ``z = -lambda`` the real effective-ridge
    solver is used and reciprocated, which is exact to machine precision.  Off
    the axis the same Newton iteration runs at complex ``t`` from the real
    solver's start with ``lam = -z``, ``-z + T/gamma`` (``T`` the mean
    eigenvalue), and lands on the solution inside the cone; plain
    damped fixed-point iteration on ``m``, in contrast, can stall or converge
    to a fixed point outside the cone for gamma < 1.  Both paths check the
    ``t`` equation relative to ``|t| + |z|``, which bounds the size of its
    terms at the root, so the check holds at machine precision however small
    ``|z|`` is.  Points with ``Re(z) >= 0`` are rejected.
    """
    d = np.asarray(kernel_eigenvalues, dtype=float).ravel()
    if np.any(d < 0) or not np.all(np.isfinite(d)):
        raise InvalidInputError("kernel eigenvalues must be finite and nonnegative")
    if not np.isfinite(gamma) or gamma <= 0:
        raise InvalidInputError("gamma must be positive")
    z = complex(z)
    if not z.real < 0:
        raise InvalidInputError("the fixed point is solved on Re(z) < 0 only")

    inp = SpectrumInput(eigenvalues=d, gamma=gamma, lam=-z.real)
    if z.imag == 0.0:
        t, iterations = solve_effective_ridge(inp).lambda_tilde, 0
    else:
        t, iterations = _newton(
            lambda t: _fixed_point_residual(t, d, gamma, -z),
            lambda t: _fixed_point_slope(t, d, gamma),
            -z + inp.trace_mean / gamma,
        )
    residual = abs(_fixed_point_residual(t, d, gamma, -z)) / (abs(t) + abs(z))
    if not residual < RESIDUAL_TOL:
        raise NumericError(
            f"Stieltjes fixed point did not converge at z={z}: residual {residual:.3e}"
        )
    m = complex(1.0 / t)
    return StieltjesSolution(
        z=z,
        m_tilde=m,
        residual=float(residual),
        iterations=iterations,
        in_cone=_cone_membership(m, z),
    )


def expected_A_theoretical(kernel_eigenvalues: np.ndarray, lambda_tilde: float) -> np.ndarray:
    """Eigenvalues ``d_i / (d_i + lambda_tilde)`` of ``K (K + lambda_tilde I)^{-1}``, descending."""
    d = np.sort(np.asarray(kernel_eigenvalues, dtype=float).ravel())[::-1]
    if lambda_tilde <= 0:
        raise InvalidInputError("lambda_tilde must be positive")
    return d / (d + lambda_tilde)


def empirical_expected_A(
    spec: GramSpectrum, P: int, lam: float, trials: int, policy: SeedPolicy
) -> np.ndarray:
    """Monte Carlo eigenvalues of the averaged hat matrix ``E[F (F^T F + lam I)^{-1} F^T]``.

    Trials use consecutive stream seeds starting at ``policy`` and are drawn
    a chunk at a time.  Whatever the shape, each draw's hat matrix is taken
    in the ``N x N`` dual form ``(G + lam I)^{-1} G`` with ``G = F F^T``
    (equal to ``G (G + lam I)^{-1}``); the chunks' sums are accumulated in
    order, averaged, symmetrized, and eigendecomposed.
    """
    if trials < 1:
        raise InvalidInputError("need at least one trial")
    if lam <= 0:
        raise InvalidInputError("ridge must be positive")
    N = spec.n
    root = sqrt_gram(spec)
    acc = np.zeros((N, N))
    for _, W in normal_chunks(policy, trials, (P, N)):
        F = gaussian_features(root, W)
        G = F @ F.transpose(0, 2, 1)
        acc += np.sum(np.linalg.solve(G + lam * np.eye(N), G), axis=0)
    acc /= trials
    acc = 0.5 * (acc + acc.T)
    return np.linalg.eigvalsh(acc)[::-1]


def stieltjes_moments(samples: list[WishartSample], z: complex) -> tuple[complex, float]:
    """Mean and variance of ``m_P(z)`` over independent Wishart draws.

    ``samples`` are the draws, e.g. ``sample_wishart`` at consecutive trial
    indices; the caller draws them once and may evaluate several ``z``.
    Variance is the scalar sample variance of the complex values,
    ``mean(|m - mean|^2)`` with the ``1/(trials-1)`` normalization.

    At ``z = -lambda`` the variance is at most ``2 / (P lambda^2)`` for any
    ``P``; with the kernel size ``N`` fixed and ``P >= N`` it is close to
    ``2 * sum_i d_i^2 / (d_i + lambda)^4 / P^3`` (see the module docstring).
    """
    if len(samples) < 2:
        raise InvalidInputError("need at least two trials for a variance")
    vals = np.array([empirical_stieltjes(s, z) for s in samples])
    mean = complex(np.mean(vals))
    var = float(np.sum(np.abs(vals - mean) ** 2) / (len(samples) - 1))
    return mean, var
