"""Effective ridge of random-feature regression.

Drawing ``P = gamma * N`` random features instead of using the full kernel
implicitly increases the ridge: the average random-feature predictor with
ridge ``lambda`` behaves like kernel ridge regression with the larger
*effective ridge* ``lambda_tilde``, the unique positive root of

    t = lambda + (t / gamma) * (1/N) * sum_i d_i / (t + d_i)

where ``d_i`` are the Gram eigenvalues.  This module solves that fixed point,
differentiates it in ``lambda``, evaluates the associated effective dimension,
handles the ridgeless limits on both sides of ``gamma = 1``, inverts the map
(ridge calibration), and predicts the mean squared parameter norm.  Each
function reads the eigenvalues as a checked :class:`Spectrum` (defined in
``kernels``, importable from here); the ``GramSpectrum`` that
``spectral_decompose`` returns is one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AtThresholdError, InfeasibleTargetError, InvalidInputError, NumericError
from .kernels import GramSpectrum, Spectrum

MAX_NEWTON_ITERS = 200
# Contractual residual bound on the defining equation; the solver actually
# polishes to machine precision.
RESIDUAL_TOL = 1e-12


def _check_gamma(gamma: float) -> None:
    if not 0.0 < gamma < math.inf:
        raise InvalidInputError("gamma must be positive")


def _check_lambda_tilde(lambda_tilde: float) -> None:
    if not 0.0 <= lambda_tilde < math.inf:
        raise InvalidInputError("lambda_tilde must be finite and nonnegative")


@dataclass(frozen=True)
class EffectiveRidge:
    """Solved effective ridge and the derived quantities used everywhere else.

    ``residual`` is the defining-equation residual at the returned root;
    ``effective_dimension`` equals ``sum_i d_i / (lambda_tilde + d_i)``, which
    coincides with ``P (1 - lambda / lambda_tilde)``; ``iterations`` counts the
    accepted Newton steps (0 where a closed form gives the root).
    """

    lambda_tilde: float
    d_lambda_tilde: float
    effective_dimension: float
    residual: float
    gamma: float
    lam: float
    iterations: int


def _quotient_sums(t: float | complex, d: np.ndarray) -> np.ndarray:
    """``[sum(q), sum(q / (t + d))]`` with ``q = d / (t + d)``, as one length-2 array.

    Every ``mean(d / (t + d))`` of this module comes from this one pass.  The
    square ``d / (t + d)^2`` is taken as two divisions so it cannot underflow
    for tiny ``t + d``.  The two quotients fill the rows of one block, which
    one ``np.add.reduce`` sums row by row: each row is summed as ``.sum()``
    sums a vector, so the sums keep its bits, and the fixed cost of a
    reduction call is paid once per pass, not twice.  ``t`` may be complex.
    """
    s = t + d
    q = np.empty((2, d.size), s.dtype)
    np.divide(d, s, out=q[0])
    np.divide(q[0], s, out=q[1])
    return np.add.reduce(q, axis=1)


def _fixed_point(t: float | complex, d: np.ndarray, gamma: float, lam: float | complex):
    """``(g(t), g'(t), sum(d / (t + d)))`` for ``g(t) = t - lam - (t/gamma) mean(d / (t + d))``.

    The root of ``g`` is the effective ridge, and ``1 / g'`` there its
    derivative in ``lam``.  ``t`` and ``lam`` may be complex: with
    ``lam = -z`` the root is ``1 / m_tilde(z)``.  The sums are divided as
    ``np.mean`` divides them, so the means keep its bits: a real sum as a
    Python float, whose division rounds as numpy's does, and a complex one in
    numpy, whose complex division rounds differently from Python's.
    """
    sums = _quotient_sums(t, d)
    s1, s2 = sums.tolist()
    m1, m2 = (sums / d.size).tolist() if isinstance(t, complex) else (s1 / d.size, s2 / d.size)
    return t - lam - (t / gamma) * m1, 1.0 - m1 / gamma + t * m2 / gamma, s1


def _newton(func, t):
    """Newton's method from ``t``, where ``func(t)`` returns ``(g(t), g'(t), ...)``.

    Returns the iterate of least ``|g|``, ``func``'s values there, and the
    accepted step count.  Iterates until the residual stops shrinking, which
    leaves the root at machine precision so downstream identities (derivative,
    effective dimension, calibration round trips) inherit full accuracy.  A
    step that leaves ``t`` where it is (it rounds away, or ``g`` or ``g'`` is
    zero) also stops the run, without evaluating ``func`` again: ``func`` is
    pure, so it would give the same values, and the step would be rejected.  No
    bracket is needed: each real caller starts on the side of its root from
    which Newton runs monotonically to it (a convex increasing function from
    above, a concave increasing one from below).  Raises
    :class:`NumericError` if the residual still shrinks after
    ``MAX_NEWTON_ITERS`` steps.
    """
    values = func(t)
    for steps in range(MAX_NEWTON_ITERS):
        r, s = values[:2]
        t_next = t - r / s if s else t
        if t_next == t:
            return t, values, steps
        values_next = func(t_next)
        if not abs(values_next[0]) < abs(r):
            return t, values, steps
        t, values = t_next, values_next
    raise NumericError(f"Newton iteration did not settle in {MAX_NEWTON_ITERS} steps: last iterate {t:.6e}")


def solve_effective_ridge(spectrum: Spectrum, gamma: float, lam: float) -> EffectiveRidge:
    """Solve the defining fixed point for the effective ridge at ``gamma = P/N`` and ridge ``lam``.

    For ``lam > 0`` the residual ``g`` is convex, because ``t d / (t + d)``
    is concave, and nonnegative at the upper bound ``lam + T/gamma`` with
    ``T`` the mean eigenvalue (an all-zero spectrum starts on the root
    ``lam``), so Newton started there falls monotonically to the root.  The
    residual, derivative and effective dimension are read at the last
    accepted iterate.  For ``lam = 0`` the ridgeless limits apply:
    zero in the overparameterized regime (gamma > 1), the positive root of
    ``gamma = mean(d / (t + d))`` in the underparameterized regime
    (gamma < 1), and no finite answer exactly at gamma = 1.
    """
    _check_gamma(gamma)
    if not 0.0 <= lam < math.inf:
        raise InvalidInputError("ridge must be nonnegative")
    d = spectrum.eigenvalues
    if lam > 0.0:
        start = lam + spectrum.trace_mean / gamma
        lambda_tilde, values, iterations = _newton(lambda t: _fixed_point(t, d, gamma, lam), start)
    else:
        lambda_tilde, iterations = _ridgeless_newton(spectrum, gamma)
        if lambda_tilde == 0.0:
            # Overparameterized ridgeless: the defining equation is satisfied
            # identically at t = 0; zero eigenvalues drop out of its derivative.
            return EffectiveRidge(0.0, effective_ridge_derivative(spectrum, gamma, 0.0),
                                  effective_dimension(spectrum, 0.0), 0.0, gamma, 0.0, iterations)
        values = _fixed_point(lambda_tilde, d, gamma, 0.0)

    residual, slope, dimension = values
    # g' > 0 at a root of g, so a nonpositive slope is a failed solve too.
    if not (abs(residual) < RESIDUAL_TOL * max(lambda_tilde, 1.0) and slope > 0):
        raise NumericError(f"effective-ridge solve did not converge: residual {residual:.3e}, "
                           f"slope {slope:.3e} at {lambda_tilde:.6e}")
    return EffectiveRidge(lambda_tilde=float(lambda_tilde), d_lambda_tilde=1.0 / slope,
                          effective_dimension=dimension, residual=float(residual), gamma=gamma, lam=lam,
                          iterations=iterations)


def effective_ridge_derivative(spectrum: Spectrum, gamma: float, lambda_tilde: float) -> float:
    """Closed-form derivative of the effective ridge with respect to the ridge.

    Differentiating the defining equation gives

        d(lambda_tilde)/d(lambda)
            = 1 / (1 - (1/gamma) mean(d/(t+d)) + (t/gamma) mean(d/(t+d)^2))

    at ``t = lambda_tilde``, which does not involve the ridge itself.  The
    denominator is positive whenever ``t`` solves the equation, so a
    nonpositive value signals an inconsistent input.
    """
    _check_gamma(gamma)
    _check_lambda_tilde(lambda_tilde)
    d = spectrum.eigenvalues
    if lambda_tilde == 0.0:
        denom = 1.0 - float(np.mean(d > 0)) / gamma
    else:
        denom = _fixed_point(lambda_tilde, d, gamma, 0.0)[1]
    if denom <= 0:
        raise NumericError("derivative denominator is nonpositive; lambda_tilde does not solve the fixed point")
    return 1.0 / denom


def effective_dimension(spectrum: Spectrum, lambda_tilde: float) -> float:
    """Effective dimension ``sum_i d_i / (lambda_tilde + d_i)``.

    Zero eigenvalues contribute nothing, including in the ridgeless limit
    ``lambda_tilde = 0`` where each positive eigenvalue contributes one.
    """
    _check_lambda_tilde(lambda_tilde)
    d = spectrum.eigenvalues
    if lambda_tilde == 0.0:
        return float(np.count_nonzero(d > 0))
    return _quotient_sums(lambda_tilde, d)[0].item()


def ridgeless_limit(spectrum: Spectrum, gamma: float) -> float:
    """Limit of the effective ridge as the explicit ridge vanishes.

    Overparameterized (gamma > 1): 0.  Underparameterized (gamma < 1): the
    unique positive root of ``gamma = mean(d / (t + d))``, which requires a
    strictly positive spectrum.  gamma = 1 sits at the interpolation
    threshold, where no finite limit exists.  ``gamma - mean(d / (t + d))``
    is concave and increasing, so Newton rises monotonically to its root from
    below; the root is checked on this equation, because the defining one at
    ``lam = 0`` is scaled by ``t`` and cannot see a wrong tiny root.
    """
    _check_gamma(gamma)
    return _ridgeless_newton(spectrum, gamma)[0]


def _ridgeless_newton(spectrum: Spectrum, gamma: float) -> tuple[float, int]:
    """``ridgeless_limit`` and its Newton step count, for a checked ``gamma``."""
    if gamma == 1.0:
        raise AtThresholdError("ridgeless effective ridge is degenerate at gamma = 1")
    if gamma > 1.0:
        return 0.0, 0
    d = spectrum.eigenvalues
    if np.any(d <= 0):
        raise InvalidInputError("underparameterized ridgeless limit needs a strictly positive spectrum")

    def func(t):
        s1, s2 = _quotient_sums(t, d).tolist()
        return gamma - s1 / d.size, s2 / d.size

    # Analytic lower bound dmin * (1 - sqrt(gamma)) / sqrt(gamma), shrunk
    # slightly so the start sits below the root.
    lo = float(np.min(d)) * (1.0 - np.sqrt(gamma)) / np.sqrt(gamma) * (1.0 - 1e-9)
    t, (residual, _), steps = _newton(func, lo)
    if not abs(residual) <= RESIDUAL_TOL * gamma:
        raise NumericError(
            f"ridgeless effective ridge did not converge: residual {residual:.3e} at {t:.6e}"
        )
    return float(t), steps


def calibrate_ridge(spectrum: Spectrum, gamma: float, lambda_star: float) -> float:
    """Explicit ridge whose effective ridge equals the target ``lambda_star``.

    Inverts the defining equation directly:

        lambda = lambda_star - (lambda_star / gamma) * mean(d / (lambda_star + d)).

    A nonpositive result means the target sits at or below the ridgeless
    effective ridge for this gamma and cannot be reached.
    """
    _check_gamma(gamma)
    if not 0.0 < lambda_star < math.inf:
        raise InvalidInputError("target effective ridge must be positive")
    d = spectrum.eigenvalues
    lam = lambda_star - (lambda_star / gamma) * (_quotient_sums(lambda_star, d)[0].item() / d.size)
    if lam <= 0:
        raise InfeasibleTargetError(
            f"target {lambda_star:.6g} is below the ridgeless effective ridge for gamma={gamma:.6g}"
        )
    return float(lam)


def theta_norm_theory(spec: GramSpectrum, y: np.ndarray, eff: EffectiveRidge) -> float:
    """Predicted mean squared parameter norm, ``d(lt)/d(l) * y^T K (K + lt I)^{-2} y``."""
    y = np.asarray(y, dtype=float).ravel()
    if y.shape[0] != spec.n:
        raise InvalidInputError("label vector length does not match the spectrum")
    w = spec.eigenvectors.T @ y
    d = spec.eigenvalues
    return eff.d_lambda_tilde * float(np.sum(d * w * w / (eff.lambda_tilde + d) ** 2))
