"""Closed-form ridge predictors: random-feature regression and kernel ridge regression.

Both predictors are linear solves.  Random-feature fits use whichever of the
primal ``(F^T F + lambda I)^{-1} F^T y`` and dual ``F^T (F F^T + lambda I)^{-1} y``
forms is cheaper; they agree to rounding.  Ridgeless fits (``lambda = 0``) take
the minimum-norm least-squares solution through an SVD pseudoinverse with
relative cutoff ``1e-10`` so the limit is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .errors import InvalidInputError, SingularGramError
from .features import FeatureMatrix
from .kernels import GramMatrix, GramSpectrum, SINGULAR_FLOOR_REL, apply_inverse

RIDGELESS_CUTOFF = 1e-10


def _sym_solve(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve symmetric positive definite ``A x = b`` by Cholesky plus one refinement step.

    Gram matrices here are ill-conditioned by design (fast-decaying spectra),
    so a single iterative-refinement pass buys back most of the lost digits.
    LAPACK ``dpotrf``/``dpotrs`` are called directly: they are the routines
    scipy's ``cho_factor``/``cho_solve`` wrap, without the wrappers' cost on
    the small systems of a Monte Carlo fit.
    """
    factor, info = dpotrf(A, lower=1, clean=0)
    if info > 0:
        raise SingularGramError(
            f"symmetric solve failed: {info}-th leading minor of the array is not positive definite"
        )
    x = dpotrs(factor, b, lower=1)[0]
    r = b - A @ x
    return x + dpotrs(factor, r, lower=1)[0]


@dataclass(frozen=True)
class RFModel:
    """Fitted random-feature regression: parameters, ridge, and train predictions."""

    theta_hat: np.ndarray
    lam: float
    train_predictions: np.ndarray
    theta_norm_sq: float

    @property
    def n_features(self) -> int:
        return self.theta_hat.shape[0]


@dataclass(frozen=True)
class KRRModel:
    """Kernel ridge regression coefficients ``alpha = (K + lambda I)^{-1} y``."""

    coefficients: np.ndarray
    lam: float


def fit_rf(F_train: np.ndarray, y: np.ndarray, lam: float) -> RFModel:
    """Minimize ``||F theta - y||^2 + lam * ||theta||^2`` in closed form.

    For ``lam = 0`` returns the minimum-norm least-squares solution (SVD
    pseudoinverse, relative cutoff ``RIDGELESS_CUTOFF``); in the
    overparameterized full-rank case this interpolates the labels.
    """
    F = np.asarray(F_train, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    if F.ndim != 2 or F.shape[0] != y.shape[0]:
        raise InvalidInputError("F_train and y have incompatible shapes")
    if not np.all(np.isfinite(F)) or not np.all(np.isfinite(y)):
        raise InvalidInputError("non-finite values in the fit inputs")
    if lam < 0:
        raise InvalidInputError("ridge must be nonnegative")
    N, P = F.shape
    if lam == 0.0:
        theta, *_ = np.linalg.lstsq(F, y, rcond=RIDGELESS_CUTOFF)
    elif N <= P:
        alpha = _sym_solve(F @ F.T + lam * np.eye(N), y)
        theta = F.T @ alpha
    else:
        theta = _sym_solve(F.T @ F + lam * np.eye(P), F.T @ y)
    yhat = F @ theta
    return RFModel(
        theta_hat=theta,
        lam=float(lam),
        train_predictions=yhat,
        theta_norm_sq=float(theta @ theta),
    )


def predict_rf(model: RFModel, F_eval: np.ndarray) -> np.ndarray:
    """Evaluate the fitted model on new feature rows: ``F_eval @ theta_hat``."""
    F_eval = np.asarray(F_eval, dtype=float)
    if F_eval.ndim != 2 or F_eval.shape[1] != model.n_features:
        raise InvalidInputError("feature count mismatch between model and F_eval")
    return F_eval @ model.theta_hat


def fit_krr(gram: GramMatrix, y: np.ndarray, lam: float, pseudoinverse: bool = False) -> KRRModel:
    """Solve ``(K + lam I) alpha = y``.

    With ``lam = 0`` a strictly positive spectrum is required unless
    ``pseudoinverse=True``, in which case the spectral pseudoinverse provides
    the residual-optimal coefficients for a singular Gram.
    """
    if lam < 0:
        raise InvalidInputError("ridge must be nonnegative")
    y = np.asarray(y, dtype=float).ravel()
    K = gram.entries
    if y.shape[0] != K.shape[0]:
        raise InvalidInputError("label vector length does not match the Gram")
    if lam == 0.0:
        d = np.linalg.eigvalsh(K)  # ascending
        dmin, dmax = float(d[0]), float(d[-1])
        if dmax <= 0 or dmin <= SINGULAR_FLOOR_REL * dmax:
            if not pseudoinverse:
                raise SingularGramError(
                    "ridgeless kernel regression on a numerically singular Gram; pass pseudoinverse=True"
                )
            alpha, *_ = np.linalg.lstsq(K, y, rcond=RIDGELESS_CUTOFF)
            return KRRModel(coefficients=alpha, lam=0.0)
        alpha = _sym_solve(K, y)
        return KRRModel(coefficients=alpha, lam=0.0)
    alpha = _sym_solve(K + lam * np.eye(K.shape[0]), y)
    return KRRModel(coefficients=alpha, lam=float(lam))


def predict_krr(model: KRRModel, k_cross: np.ndarray) -> np.ndarray:
    """Predictions ``k_cross @ alpha`` at points with cross-kernel rows ``k_cross``."""
    k_cross = np.atleast_2d(np.asarray(k_cross, dtype=float))
    if k_cross.shape[1] != model.coefficients.shape[0]:
        raise InvalidInputError("k_cross column count does not match the training set size")
    return k_cross @ model.coefficients


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
    F: FeatureMatrix, spec: GramSpectrum, k_cross: np.ndarray, model: RFModel
) -> tuple[np.ndarray, float]:
    """Mean and covariance scale of the predictor given the sampled features.

    Conditioned on the feature values on the training set, the predictor is a
    Gaussian process with mean ``K(x, X) K(X, X)^{-1} yhat`` and covariance
    ``(||theta_hat||^2 / P) * Ktilde(x, x')``; this returns the mean vector at
    the rows of ``k_cross`` and the scalar ``||theta_hat||^2 / P``.
    """
    if model.n_features != F.n_features:
        raise InvalidInputError("model was not fitted on these features")
    k_cross = np.atleast_2d(np.asarray(k_cross, dtype=float))
    if k_cross.shape[1] != spec.n:
        raise InvalidInputError("k_cross column count does not match the spectrum")
    mean = k_cross @ apply_inverse(spec, model.train_predictions)
    cov_scale = model.theta_norm_sq / F.n_features
    return mean, float(cov_scale)
