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
kernel eigenvalues ``d`` matter, and each draw reduces to
``Y = W diag(d / P)^{1/2}`` and its ``N x N`` Gram ``G = Y^T Y``.  Each
consumer scales the chunks of ``normal_chunks`` in place and forms its own
Gram: the Stieltjes transform reads the ``r = min(N, P)`` eigenvalues ``s_i``
of ``G`` or ``Y Y^T``, whichever is smaller, and the other ``P - r`` zeros in
closed form,

    m_P(z) = ((P - r) / (-z) + sum_{i<=r} 1 / (s_i - z)) / P,

and the averaged hat matrix ``A = F (F^T F + lambda I)^{-1} F^T`` is read as
``I - lambda (G + lambda I)^{-1}``, or as ``Y^T (Y Y^T + lambda I)^{-1} Y`` when
``P < N``, at every ridge and compared with its deterministic limit
``K (K + lambda_tilde I)^{-1}`` through the eigenvalues of both.

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
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NumericError
from .features import SeedPolicy, check_draw, check_size, chunk_draws, normal_chunks
from .effective_ridge import Spectrum, _check_gamma, _root


@dataclass(frozen=True)
class StieltjesSolution:
    """Fixed point of the deterministic Stieltjes equation at one complex point.

    ``in_cone`` records membership in the cone spanned by ``1`` and ``-1/z``
    where the fixed point is unique; ``residual`` is the relative residual
    ``|g(t)| / (|t| + |z|)`` of the equation solved for ``t = 1/m``,
    ``g(t) = t + z - (t/gamma) mean(d / (t + d))``, as the effective-ridge
    root finder checks it; ``iterations`` counts the accepted Newton steps,
    equal to the effective-ridge solve's on the real axis.
    """

    m_tilde: complex
    residual: float
    iterations: int
    in_cone: bool


def sample_wishart(spectrum: Spectrum, P: int, policy: SeedPolicy, trials: int) -> np.ndarray:
    """Nonzero spectra of ``trials`` draws of ``F^T F = (1/P) W diag(d) W^T``.

    Row ``t`` of the ``(trials, min(N, P))`` result holds the eigenvalues of the
    smaller Gram, ``Y^T Y`` or ``Y Y^T``, of the draw at ``policy.shifted(t)``,
    descending and clamped at zero; the other eigenvalues of ``F^T F`` are zeros.
    One ``eigvalsh`` takes a whole chunk's Grams, unsymmetrized: a stacked
    ``Y^T Y`` or ``Y Y^T`` is exactly symmetric.
    """
    d = spectrum.eigenvalues
    spectra = []
    for _, Y in normal_chunks(policy, trials, (P, d.size)):
        Y *= np.sqrt(d / P)
        Yt = Y.transpose(0, 2, 1)
        spectra.append(np.linalg.eigvalsh(Y @ Yt if P < d.size else Yt @ Y)[:, ::-1])
    return np.maximum(np.concatenate(spectra), 0.0)


def empirical_stieltjes(spectra: np.ndarray, P: int, z: complex) -> np.ndarray:
    """``m_P(z) = (1/P) Tr (F^T F - z I)^{-1}`` of each draw, from its nonzero spectrum.

    ``spectra`` holds ``r <= P`` eigenvalues per draw on its last axis, as
    ``sample_wishart`` returns them; the other ``P - r`` eigenvalues are zero,
    so ``m_P(z) = ((P - r) / (-z) + sum_i 1 / (s_i - z)) / P``; one that leaves the float range is a NumericError.
    """
    z = complex(z)
    if not np.isfinite(z) or (z.imag == 0 and z.real >= 0):
        raise InvalidInputError(f"z = {z}: z must be finite and off the nonnegative real axis")
    s = np.asarray(spectra, dtype=float)
    r = s.shape[-1]
    if r > P:
        raise InvalidInputError(f"a spectrum of {r} eigenvalues does not fit P = {P} features")
    with np.errstate(over="ignore", invalid="ignore"):
        m = ((P - r) / -z + np.sum(1.0 / (s - z), axis=-1)) / P
    if not np.all(np.isfinite(m)):
        raise NumericError(f"m_P(z) leaves the float range at z = {z}")
    return m


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
    ``t = lam + (t/gamma) mean(d / (t + d))`` at the ridge ``lam = -z``, solved
    by the solve's own root finder: one Newton run from ``lam + T/gamma``
    (``T`` the mean eigenvalue) and one check, of the residual relative to
    ``|t| + |z|`` and, on the real ray, of the slope's sign.  On the real ray
    ``lam`` and ``t`` stay real and take the solve's steps, so ``m_tilde`` is
    the reciprocal of its ``lambda_tilde`` bit for bit.  Off the axis ``t`` is
    complex and lands on the solution inside the cone; plain damped
    fixed-point iteration on ``m``, in contrast, can stall or converge to a
    fixed point outside the cone for gamma < 1.  A ``z`` that is not finite
    or has ``Re(z) >= 0`` is rejected.
    """
    _check_gamma(gamma)
    z = complex(z)
    if not (np.isfinite(z) and z.real < 0):
        raise InvalidInputError(f"z = {z}: the fixed point is solved at finite z with Re(z) < 0 only")

    lam = -z.real if z.imag == 0.0 else -z
    t, _, iterations, residual = _root(spectrum, gamma, lam)
    m = complex(1.0 / t)
    return StieltjesSolution(m_tilde=m, residual=float(residual), iterations=iterations,
                             in_cone=_cone_membership(m, z))


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
    ``Y`` serves every ridge of ``lams``, one batched solve per stack for every
    ridge.  At ``P >= N`` the hat matrix in the kernel eigenbasis is
    ``I - lam (G + lam I)^{-1}``, ``G = Y^T Y``: a tiny ridge leaves ``G + lam I``
    ill-conditioned, and solved against ``G`` it pushes eigenvalues above 1.
    At ``P < N`` it is singular to working precision, so the solve runs on the
    ``P x P`` Gram through the push-through identity ``Y^T (Y Y^T + lam I)^{-1} Y``.
    A stack holds at most ``chunk_draws(N, N)`` draws, so that its ``N x N``
    hat matrices fit one chunk at ``P < N``.  Per ridge, the stacks' sums are
    accumulated in order, averaged, symmetrized and eigendecomposed; the
    draw's shape and their size, every ridge's at once, are checked first.
    """
    N = spectrum.n
    check_draw((P, N))
    if not all(lam > 0 for lam in lams):
        raise InvalidInputError("ridges must be positive")
    step = chunk_draws(N, N)  # draws per stack
    stack = min(trials, chunk_draws(max(N, P), N))  # the draws of the largest stack
    check_size("lambda_list", f"the hat matrices at N = {N} of {len(lams)} ridge(s)", len(lams) * stack * N * N)
    acc = np.zeros((len(lams), N, N))
    lam = np.asarray(lams, dtype=float)[:, None, None, None]
    ridges = lam * np.eye(min(N, P))
    for _, W in normal_chunks(policy, trials, (P, N)):
        W *= np.sqrt(spectrum.eigenvalues / P)
        for Y in np.split(W, range(step, len(W), step)):
            Yt = Y.transpose(0, 2, 1)
            if P < N:
                acc += np.sum(Yt @ np.linalg.solve(Y @ Yt + ridges, Y[None]), axis=1)
            else:
                acc += np.sum(np.eye(N) - lam * np.linalg.inv(Yt @ Y + ridges), axis=1)
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
