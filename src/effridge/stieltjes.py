"""Stieltjes transforms of the sample covariance of random features.

For a feature matrix ``F`` with ``E[F F^T] = K``, the matrix ``F^T F`` is a
generalized Wishart matrix ``(1/P) W K W^T``.  Its empirical Stieltjes
transform ``m_P(z) = (1/P) Tr (F^T F - z I)^{-1}`` concentrates, as ``P``
grows, around the deterministic ``m_tilde(z)`` solving

    gamma = mean_i( d_i * m / (1 + d_i * m) ) - gamma * z * m,

the unique solution inside the cone spanned by ``1`` and ``-1/z`` for
``Re(z) < 0``.  On the negative real axis it is the reciprocal of the
effective ridge: ``m_tilde(-lambda) = 1 / lambda_tilde(lambda, gamma)``.

Sampling happens in the kernel eigenbasis: ``W`` is Gaussian, so only the
kernel eigenvalues ``d`` matter, and each draw reduces to the ``N x N`` Gram
``G = Y^T Y`` with ``Y = W diag(d / P)^{1/2}``.  One sampler yields these
Grams for the Stieltjes transform, which reads their ``r = min(N, P)``
eigenvalues ``s_i`` and counts the other ``P - r`` exact zeros in closed form,

    m_P(z) = ((P - r) / (-z) + sum_{i<=r} 1 / (s_i - z)) / P,

and for the averaged hat matrix ``A = F (F^T F + lambda I)^{-1} F^T``, read as
``(G + lambda I)^{-1} G`` at every ridge and compared with its deterministic
limit ``K (K + lambda_tilde I)^{-1}`` through the eigenvalues of both.

Rate of concentration at ``z = -lambda``.  Resampling one feature is a
rank-two change of ``F F^T``, so the Efron-Stein inequality gives the general
bound ``Var m_P(-lambda) <= 2 / (P lambda^2)``.  This is only an upper bound.
At fixed ``N`` with ``P >= N`` only the ``N`` terms ``1/(s_i + lambda)`` of
``m_P(-lambda)`` fluctuate, and to first order in ``W^T W / P - I``

    Var m_P(-lambda) ~= 2 * sum_i d_i^2 / (d_i + lambda)^4 / P^3,

a ``P^-3`` decay; the unnormalized trace ``P m_P`` decays as ``P^-1``.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NumericError
from .features import CHUNK_ELEMENTS, SeedPolicy, normal_chunks
from .effective_ridge import RESIDUAL_TOL, Spectrum, _check_gamma, _fixed_point, _newton, solve_effective_ridge


@dataclass(frozen=True)
class StieltjesSolution:
    """Fixed point of the deterministic Stieltjes equation at one complex point.

    ``in_cone`` records membership in the cone spanned by ``1`` and ``-1/z``
    where the fixed point is unique; ``residual`` is the relative residual
    ``|g(t)| / (|t| + |z|)`` of the equation solved for ``t = 1/m``,
    ``g(t) = t + z - (t/gamma) mean(d / (t + d))``; ``iterations`` counts the
    accepted Newton steps, those of the real solver on the real axis.
    """

    z: complex
    m_tilde: complex
    residual: float
    iterations: int
    in_cone: bool


def _wishart_grams(spectrum: Spectrum, P: int, policy: SeedPolicy, trials: int) -> Iterator[np.ndarray]:
    """Stacked ``N x N`` Grams ``G = Y^T Y``, ``Y = W diag(d / P)^{1/2}``, of consecutive draws.

    The draws are those of ``normal_chunks(policy, trials, (P, N))``, in order;
    a stack holds at most ``max(1, CHUNK_ELEMENTS // N^2)`` Grams, which matters when ``P < N``.
    """
    d = spectrum.eigenvalues
    if P < 1:
        raise InvalidInputError("need at least one feature")
    if trials < 1:
        raise InvalidInputError("need at least one trial")
    N = d.size
    scale = np.sqrt(d / P)
    step = max(1, CHUNK_ELEMENTS // (N * N))
    for _, W in normal_chunks(policy, trials, (P, N)):
        for k in range(0, len(W), step):
            Y = W[k : k + step] * scale
            yield Y.transpose(0, 2, 1) @ Y


def sample_wishart(spectrum: Spectrum, P: int, policy: SeedPolicy, trials: int) -> np.ndarray:
    """Nonzero spectra of ``trials`` draws of ``F^T F = (1/P) W diag(d) W^T``.

    Row ``t`` of the ``(trials, min(N, P))`` result holds the eigenvalues of
    the draw at ``policy.shifted(t)``'s ``N x N`` Gram, descending, clamped at
    zero and cut to ``P``; the other eigenvalues of ``F^T F`` are exact zeros.
    """
    spectra = [
        np.linalg.eigvalsh(0.5 * (G + G.transpose(0, 2, 1)))[:, ::-1]
        for G in _wishart_grams(spectrum, P, policy, trials)
    ]
    return np.maximum(np.concatenate(spectra), 0.0)[:, :P]


def empirical_stieltjes(spectra: np.ndarray, P: int, z: complex) -> np.ndarray:
    """``m_P(z) = (1/P) Tr (F^T F - z I)^{-1}`` of each draw, from its nonzero spectrum.

    ``spectra`` holds ``r <= P`` eigenvalues per draw on its last axis, as
    ``sample_wishart`` returns them; the other ``P - r`` eigenvalues are zero,
    so ``m_P(z) = ((P - r) / (-z) + sum_i 1 / (s_i - z)) / P``.
    """
    z = complex(z)
    if z.imag == 0 and z.real >= 0:
        raise InvalidInputError("z must stay off the nonnegative real axis")
    s = np.asarray(spectra, dtype=float)
    r = s.shape[-1]
    if r > P:
        raise InvalidInputError(f"a spectrum of {r} eigenvalues does not fit P = {P} features")
    return ((P - r) / -z + np.sum(1.0 / (s - z), axis=-1)) / P


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


def theoretical_stieltjes(spectrum: Spectrum, gamma: float, z: complex) -> StieltjesSolution:
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
    _check_gamma(gamma)
    z = complex(z)
    if not z.real < 0:
        raise InvalidInputError("the fixed point is solved on Re(z) < 0 only")

    if z.imag == 0.0:
        eff = solve_effective_ridge(spectrum, gamma, -z.real)
        t, g, iterations = eff.lambda_tilde, eff.residual, eff.iterations
    else:
        d = spectrum.eigenvalues
        t, (g, *_), iterations = _newton(lambda t: _fixed_point(t, d, gamma, -z), -z + spectrum.trace_mean / gamma)
    residual = abs(g) / (abs(t) + abs(z))
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


def expected_A_theoretical(spectrum: Spectrum, lambda_tilde: float) -> np.ndarray:
    """Eigenvalues ``d_i / (d_i + lambda_tilde)`` of ``K (K + lambda_tilde I)^{-1}``, descending."""
    if not 0.0 < lambda_tilde < math.inf:
        raise InvalidInputError("lambda_tilde must be finite and positive")
    d = np.sort(spectrum.eigenvalues)[::-1]
    return d / (d + lambda_tilde)


def empirical_expected_A(
    spectrum: Spectrum, P: int, lams: list[float], trials: int, policy: SeedPolicy
) -> list[np.ndarray]:
    """Monte Carlo eigenvalues of the averaged hat matrix ``E[F (F^T F + lam I)^{-1} F^T]`` per ridge.

    Trials use consecutive stream seeds starting at ``policy``, and each draw
    serves every ridge of ``lams`` through its Gram ``G``: the hat matrix is
    ``(G + lam I)^{-1} G`` in the kernel eigenbasis, one batched solve per
    stack for every ridge.  Per ridge, the stacks' sums are accumulated in
    order, averaged, symmetrized and eigendecomposed.
    """
    if not all(lam > 0 for lam in lams):
        raise InvalidInputError("ridges must be positive")
    N = spectrum.n
    acc = np.zeros((len(lams), N, N))
    ridges = np.asarray(lams, dtype=float)[:, None, None, None] * np.eye(N)
    for G in _wishart_grams(spectrum, P, policy, trials):
        acc += np.sum(np.linalg.solve(G + ridges, G[None]), axis=1)
    acc /= trials
    return [np.linalg.eigvalsh(0.5 * (a + a.T))[::-1] for a in acc]


def stieltjes_moments(spectra: np.ndarray, P: int, z: complex) -> tuple[complex, float]:
    """Mean and variance of ``m_P(z)`` over independent Wishart draws.

    ``spectra`` are the draws' nonzero spectra, one per row, as
    ``sample_wishart`` returns them; the caller draws them once and may
    evaluate several ``z``.  Variance is the scalar sample variance of the
    complex values, ``mean(|m - mean|^2)`` with the ``1/(trials-1)``
    normalization.

    At ``z = -lambda`` the variance is at most ``2 / (P lambda^2)`` for any
    ``P``; with the kernel size ``N`` fixed and ``P >= N`` it is close to
    ``2 * sum_i d_i^2 / (d_i + lambda)^4 / P^3`` (see the module docstring).
    """
    if np.ndim(spectra) != 2 or len(spectra) < 2:
        raise InvalidInputError("need the spectra of at least two draws for a variance")
    vals = empirical_stieltjes(spectra, P, z)
    mean = complex(np.mean(vals))
    var = float(np.sum(np.abs(vals - mean) ** 2) / (len(vals) - 1))
    return mean, var
