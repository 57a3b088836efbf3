"""Closed-form ridge predictors: random-feature regression and kernel ridge regression.

A random-feature fit solves its ridge system on the Gram of the feature block's
shorter side, ``F F^T`` (dual) or ``F^T F`` (primal), which agree by the
push-through identity; one Gram per draw serves every ridge, and one batched
solve every positive ridge.  Ridgeless fits (``lambda = 0``) take the
minimum-norm least-squares solution through the Gram's eigendecomposition,
with a relative eigenvalue cutoff ``RIDGELESS_CUTOFF`` so the limit is
deterministic.  Kernel
ridge regression is a spectral filter on the Gram's eigendecomposition
``K = U diag(d) U^T``, which every caller already holds:
``alpha = U diag(1 / (d + lambda)) U^T y``.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError, NumericError, SingularGramError
from .kernels import GramSpectrum, apply_inverse, range_mask

RIDGELESS_CUTOFF = 1e-10


def fit_rf_stacked(F_train: np.ndarray, y: np.ndarray, lams: list[float]) -> np.ndarray:
    """Ridge parameters of every draw in a stack ``F_train`` of shape (B, N, P), at every ridge.

    Returns ``theta`` of shape ``(len(lams), B, P)``.  Each draw's Gram on its
    shorter side, ``G = F F^T`` (N <= P) or ``F^T F`` (N > P), is formed once
    and serves every ridge: ``theta = F^T (G + lam I)^{-1} y`` or
    ``(G + lam I)^{-1} F^T y``.  One batched solve serves every positive
    ridge and one batched ``eigh`` every zero ridge: at ``lam = 0`` the
    inverse is the pseudoinverse ``U diag(1/e) U^T`` of ``G = U diag(e) U^T``
    with eigenvalues at or below ``RIDGELESS_CUTOFF`` times the largest
    counted as zero, which gives the minimum-norm least-squares solution.
    The solves and products are batched, one per draw and ridge, so a draw
    gets the same bits in any stack and with any other ridges.
    """
    Ft = F_train.transpose(0, 2, 1)
    tall = F_train.shape[1] > F_train.shape[2]
    G = Ft @ F_train if tall else F_train @ Ft
    b = Ft @ y[:, None] if tall else y[None, :, None]
    ridged = [lam for lam in lams if lam != 0.0]
    try:
        # b[None] has the stack's rank: numpy before 2.0 reads one rank less as vectors.
        if ridged or len(lams) == 0:
            z = np.linalg.solve(G + np.multiply.outer(ridged, np.eye(G.shape[-1]))[:, None], b[None])
        if len(ridged) < len(lams):
            e, U = np.linalg.eigh(G)
            h = np.divide(1.0, e, out=np.zeros_like(e), where=e > RIDGELESS_CUTOFF * e[:, -1:])
            z0, solved = U @ (h[:, :, None] * (U.transpose(0, 2, 1) @ b)), iter(z if ridged else ())
            z = np.array([z0 if lam == 0.0 else next(solved) for lam in lams])
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"ridge fit failed: {exc}") from exc
    return (z if tall else Ft @ z)[..., 0]


def fit_krr(spec: GramSpectrum, y: np.ndarray, lam: float) -> np.ndarray:
    """Solve ``(K + lam I) alpha = y`` through the Gram's spectrum; returns ``alpha = U diag(1 / (d + lam)) U^T y``.

    With ``lam = 0`` a numerically singular spectrum (an eigenvalue at or
    below ``SINGULAR_FLOOR_REL`` times the largest) raises SingularGramError.
    """
    if lam < 0:
        raise InvalidInputError("ridge must be nonnegative")
    y = np.asarray(y, dtype=float).ravel()
    if y.shape[0] != spec.n:
        raise InvalidInputError("label vector length does not match the Gram")
    if lam == 0.0 and not np.all(range_mask(spec)):
        raise SingularGramError("ridgeless kernel regression on a numerically singular Gram")
    U = spec.eigenvectors
    return U @ ((U.T @ y) / (spec.eigenvalues + lam))


def predict_krr(alpha: np.ndarray, k_cross: np.ndarray) -> np.ndarray:
    """Predictions ``k_cross @ alpha`` at points with cross-kernel rows ``k_cross``, from ``fit_krr``'s ``alpha``."""
    k_cross = np.atleast_2d(np.asarray(k_cross, dtype=float))
    if k_cross.shape[1] != alpha.shape[0]:
        raise InvalidInputError("k_cross column count does not match the training set size")
    return k_cross @ alpha


def posterior_kernel_diag(
    spec: GramSpectrum, k_cross: np.ndarray, k_xx_diag: np.ndarray | float
) -> np.ndarray:
    """Posterior variances ``K(x, x) - K(x, X) K(X, X)^{-1} K(X, x)`` of the feature process.

    They are conditioned on the process's values on the data, so they vanish
    at training points.  ``k_cross`` holds one cross-kernel row per
    evaluation point and ``k_xx_diag`` the matching prior variances (a scalar
    broadcasts).  Values are clipped at zero: exact zeros at training points
    otherwise round to tiny negatives.
    """
    k_cross = np.atleast_2d(np.asarray(k_cross, dtype=float))
    if k_cross.shape[1] != spec.n:
        raise InvalidInputError("k_cross column count does not match the spectrum")
    quad = np.sum(k_cross * apply_inverse(spec, k_cross.T).T, axis=1)
    return np.maximum(np.broadcast_to(np.asarray(k_xx_diag, dtype=float), quad.shape) - quad, 0.0)


def conditional_moments(
    spec: GramSpectrum, k_cross: np.ndarray, train_predictions: np.ndarray, theta: np.ndarray
) -> tuple[np.ndarray, float]:
    """Mean and covariance scale of the predictor given the sampled features on the training set.

    Conditioned on the feature values on the training set, the predictor with
    parameters ``theta`` and train predictions ``yhat`` is a Gaussian process
    with mean ``K(x, X) K(X, X)^{-1} yhat`` and covariance
    ``(||theta||^2 / P) * Ktilde(x, x')``; this returns the mean vector at the
    rows of ``k_cross`` and the scalar ``||theta||^2 / P``.
    """
    k_cross = np.atleast_2d(np.asarray(k_cross, dtype=float))
    if k_cross.shape[1] != spec.n or len(train_predictions) != spec.n:
        raise InvalidInputError("k_cross columns and train predictions must match the spectrum")
    return k_cross @ apply_inverse(spec, train_predictions), float(theta @ theta / len(theta))
