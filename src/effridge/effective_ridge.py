"""Effective ridge of random-feature regression.

Drawing ``P = gamma * N`` random features instead of using the full kernel
implicitly increases the ridge: the average random-feature predictor with
ridge ``lambda`` behaves like kernel ridge regression with the larger
*effective ridge* ``lambda_tilde``, the unique positive root of

    t = lambda + (t / gamma) * (1/N) * sum_i d_i / (t + d_i)

where ``d_i`` are the Gram eigenvalues.  One solve,
:func:`solve_effective_ridge`, returns that fixed point together with its
derivative in ``lambda`` and the effective dimension, at ``lambda = 0`` too,
where the ridgeless limits on both sides of ``gamma = 1`` apply.  Every root
of the equation, the Stieltjes point at a complex ``lambda = -z`` included,
comes from one Newton run from ``lambda + T/gamma`` and one relative residual
check.  The module also inverts the map (ridge calibration) and predicts the
mean squared parameter norm.  Each function reads the eigenvalues as a checked
:class:`Spectrum` (defined in ``kernels``, importable from here); the
``GramSpectrum`` that ``spectral_decompose`` returns is one.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import AtThresholdError, InfeasibleTargetError, InvalidInputError, NumericError
from .kernels import GramSpectrum, Spectrum, coordinates, spectral_sum

MAX_NEWTON_ITERS = 200
# Contractual bound on the defining equation's residual relative to
# ``|t| + |lambda|``; the solver actually polishes to machine precision.
RESIDUAL_TOL = 1e-12


def _check_gamma(gamma: float) -> None:
    if not 0.0 < gamma < math.inf:
        raise InvalidInputError("gamma must be positive")


@dataclass(frozen=True)
class EffectiveRidge:
    """Solved effective ridge and its derived quantities; gamma and the ridge stay with the caller.

    ``residual`` is the defining-equation residual at the returned root;
    ``effective_dimension`` equals ``sum_i d_i / (lambda_tilde + d_i)``, which
    coincides with ``P (1 - lambda / lambda_tilde)``; ``iterations`` counts the
    accepted Newton steps (0 where a closed form gives the root).
    """

    lambda_tilde: float
    d_lambda_tilde: float
    effective_dimension: float
    residual: float
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
    numpy, whose complex division rounds differently from Python's.  A ``t``
    whose ``t/gamma`` overflows, a Newton start or a calibration target, is refused.
    """
    t_over_gamma = t / gamma
    if not abs(t_over_gamma) < math.inf:
        raise NumericError(f"the t/gamma term of the effective-ridge equation overflows at gamma {gamma:.6g}")
    sums = _quotient_sums(t, d)
    s1, s2 = sums.tolist()
    m1, m2 = (sums / d.size).tolist() if isinstance(t, complex) else (s1 / d.size, s2 / d.size)
    return t - lam - t_over_gamma * m1, 1.0 - m1 / gamma + t * m2 / gamma, s1


def _newton(func, t):
    """Newton's method from ``t``, where ``func(t)`` returns ``(g(t), g'(t), ...)``.

    Returns the iterate of least ``|g|``, ``func``'s values there, and the
    accepted step count.  Iterates until the residual stops shrinking, which
    leaves the root at machine precision so downstream identities (derivative,
    effective dimension, calibration round trips) inherit full accuracy.  A
    step that leaves ``t`` where it is (it rounds away, or ``g`` or ``g'`` is
    zero) also stops the run, without evaluating ``func`` again: ``func`` is
    pure, so it would give the same values, and the step would be rejected.  No
    bracket is needed: on the real axis the caller's function is convex and
    starts above its largest root, from which Newton falls monotonically to
    it.  Raises :class:`NumericError` if the residual still shrinks after
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


def _root(spectrum: Spectrum, gamma: float, lam: float | complex):
    """Largest root ``t`` of ``g`` at ridge ``lam``: ``(t, _fixed_point values, steps, relative residual)``.

    ``g`` is convex on the real axis, because ``t d / (t + d)`` is concave,
    and nonnegative at ``lam + T/gamma`` with ``T`` the mean eigenvalue: there
    ``mean(d / (t + d)) <= T / t``.  That holds at ``lam = 0`` too, so Newton
    started there falls monotonically to the largest root, the positive one
    of a ridgeless full-rank spectrum at gamma < 1 (an all-zero spectrum
    starts on the root ``lam``).  The check is relative to ``|t| + |lam|``,
    which bounds the size of the terms of ``g`` at the root; at ``lam = 0`` it
    reads ``|gamma - mean(d / (t + d))| < RESIDUAL_TOL * gamma``.  ``g' > 0`` at
    a real root, so a nonpositive slope there is a failed solve too; a
    complex ``lam`` gives a complex slope, which has no sign to check.
    """
    d = spectrum.eigenvalues
    t, values, steps = _newton(lambda t: _fixed_point(t, d, gamma, lam), lam + spectrum.trace_mean / gamma)
    g, slope = values[:2]
    residual = abs(g) / (abs(t) + abs(lam))
    if not (residual < RESIDUAL_TOL and (isinstance(lam, complex) or slope > 0)):
        raise NumericError(f"effective-ridge fixed point did not converge at ridge {lam:.6g}: "
                           f"relative residual {residual:.3e}, slope {slope:.3e} at {t:.6e}")
    return t, values, steps, residual


def solve_effective_ridge(spectrum: Spectrum, gamma: float, lam: float) -> EffectiveRidge:
    """Solve the defining fixed point for the effective ridge at ``gamma = P/N`` and ridge ``lam``.

    The root comes from :func:`_root`, and the residual, derivative and
    effective dimension are read at its last accepted iterate.  For
    ``lam = 0`` the ridgeless limits apply: zero in the overparameterized
    regime (gamma > 1), in closed form, the positive root of
    ``gamma = mean(d / (t + d))`` in the underparameterized regime
    (gamma < 1), which needs a full-rank spectrum, and no finite answer
    exactly at gamma = 1.
    """
    _check_gamma(gamma)
    if not 0.0 <= lam < math.inf:
        raise InvalidInputError("ridge must be nonnegative")
    if lam == 0.0:
        if gamma == 1.0:
            raise AtThresholdError("ridgeless effective ridge is degenerate at gamma = 1")
        if gamma > 1.0:
            # Overparameterized ridgeless: the defining equation is satisfied
            # identically at t = 0; zero eigenvalues drop out of its derivative
            # and its effective dimension, which is the spectrum's rank.
            return EffectiveRidge(0.0, 1.0 / (1.0 - spectrum.rank / spectrum.n / gamma),
                                  float(spectrum.rank), 0.0, 0)
        if spectrum.rank < spectrum.n:
            raise InvalidInputError("underparameterized ridgeless limit needs a full-rank spectrum")
    # Iterates stay >= lam and the sums <= N / lam, so only so small a ridge can overflow them; numpy only warns.
    if lam < spectrum.n / sys.float_info.max:
        try:
            with np.errstate(over="raise"):
                root = _root(spectrum, gamma, lam)
        except FloatingPointError as exc:
            raise NumericError(f"effective ridge is below the float range: {exc}") from exc
    else:
        root = _root(spectrum, gamma, lam)
    lambda_tilde, (residual, slope, dimension), iterations, _ = root
    return EffectiveRidge(lambda_tilde=float(lambda_tilde), d_lambda_tilde=1.0 / slope,
                          effective_dimension=dimension, residual=float(residual), iterations=iterations)


def calibrate_ridge(spectrum: Spectrum, gamma: float, lambda_star: float) -> float:
    """Explicit ridge whose effective ridge equals the target ``lambda_star``.

    Inverts the defining equation directly: the ridge is the residual of the
    ridgeless equation at the target, ``g(lambda_star)`` at ``lam = 0``.  A
    nonpositive result means the target sits at or below the ridgeless
    effective ridge for this gamma and cannot be reached.
    """
    _check_gamma(gamma)
    if not 0.0 < lambda_star < math.inf:
        raise InvalidInputError("target effective ridge must be positive")
    lam = _fixed_point(lambda_star, spectrum.eigenvalues, gamma, 0.0)[0]
    if lam <= 0:
        raise InfeasibleTargetError(
            f"target {lambda_star:.6g} is below the ridgeless effective ridge for gamma={gamma:.6g}"
        )
    return float(lam)


def theta_norm_theory(spec: GramSpectrum, y: np.ndarray, eff: EffectiveRidge) -> float:
    """Predicted mean squared parameter norm, ``d(lt)/d(l) * y^T K (K + lt I)^{-2} y``, over range(K) at ``lt = 0``."""
    w = coordinates(spec, np.ravel(y))
    return eff.d_lambda_tilde * float(spectral_sum(spec, w, w, eff.lambda_tilde, 2, spec.eigenvalues))
