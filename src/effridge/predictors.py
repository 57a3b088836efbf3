"""Closed-form random-feature ridge fits.

A random-feature fit solves its ridge system on the Gram of the feature block's
shorter side, ``F F^T`` (dual) or ``F^T F`` (primal), which agree by the
push-through identity; one Gram per draw serves every ridge, and one batched
solve every positive ridge.  Ridgeless fits (``lambda = 0``) take the
minimum-norm least-squares solution through the Gram's eigendecomposition,
on the range that ``kernels.numerical_range`` keeps: the same floor decides
the rank of the feature Grams, of the kernel Gram and of the theory.  Kernel
ridge regression has no function here: its coefficients are the one spectral
solve ``kernels.apply_inverse(spec, y, lambda)``, and the posterior variances of
the feature process are one ``kernels.spectral_sum``.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError
from .kernels import numerical_range


def fit_rf_stacked(F_train: np.ndarray, y: np.ndarray, lams: list[float]) -> np.ndarray:
    """Ridge parameters of every draw in a stack ``F_train`` of shape (B, N, P), at every ridge.

    Returns ``theta`` of shape ``(len(lams), B, P)``.  Each draw's Gram on its
    shorter side, ``G = F F^T`` (N <= P) or ``F^T F`` (N > P), is formed once
    and serves every ridge: ``theta = F^T (G + lam I)^{-1} y`` or
    ``(G + lam I)^{-1} F^T y``.  One batched solve serves every positive
    ridge and one batched ``eigh`` every zero ridge: at ``lam = 0`` the
    inverse is the pseudoinverse ``U diag(1/e) U^T`` of ``G = U diag(e) U^T``
    on its range (``numerical_range``), which gives the minimum-norm
    least-squares solution.
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
            h = np.divide(1.0, e, out=np.zeros_like(e), where=numerical_range(e))
            z0, solved = U @ (h[:, :, None] * (U.transpose(0, 2, 1) @ b)), iter(z if ridged else ())
            z = np.array([z0 if lam == 0.0 else next(solved) for lam in lams])
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"ridge fit failed: {exc}") from exc
    return (z if tall else Ft @ z)[..., 0]

