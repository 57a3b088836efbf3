"""Kernel evaluation and symmetric Gram-matrix linear algebra.

Everything downstream (feature sampling, ridge predictors, effective-ridge
theory) is driven by the eigendecomposition of a kernel Gram matrix, so this
module owns the numerically delicate parts: PSD-safe eigendecomposition,
matrix square roots, and inverse-kernel norms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DuplicateRowError, InvalidInputError, NumericError

# Eigenvalues in [-EIG_CLAMP_REL * max(d), 0) are rounded up to zero; symmetric
# eigensolvers routinely emit such values for PSD inputs.  Anything more
# negative means the input was not PSD.
EIG_CLAMP_REL = 1e-10

# Relative floor below which an eigenvalue is treated as zero when inverting.
SINGULAR_FLOOR_REL = 1e-12


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family plus its parameters.

    kind
        ``"rbf"`` for the Gaussian kernel ``exp(-||x - x'||^2 / lengthscale)``,
        the only kind.
    lengthscale
        Positive squared-distance scale; required.
    """

    kind: str
    lengthscale: float | None = None

    def __post_init__(self):
        if self.kind != "rbf":
            raise InvalidInputError(f"unknown kernel kind {self.kind!r}")
        if self.lengthscale is None or not np.isfinite(self.lengthscale) or self.lengthscale <= 0:
            raise InvalidInputError("rbf kernel requires a positive finite lengthscale")


@dataclass(frozen=True)
class Dataset:
    """Training inputs and labels, with optional ground truth at companion test points.

    ``f_star``, when present, holds true regression values on a held-out test
    grid that travels alongside the dataset (it is *not* indexed by the
    training rows).
    """

    X: np.ndarray
    y: np.ndarray
    f_star: np.ndarray | None = None

    def __post_init__(self):
        X = np.atleast_2d(np.asarray(self.X, dtype=float))
        y = np.asarray(self.y, dtype=float).ravel()
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        if self.f_star is not None:
            object.__setattr__(self, "f_star", np.asarray(self.f_star, dtype=float).ravel())
        if X.shape[0] < 1:
            raise InvalidInputError("dataset needs at least one row")
        if X.shape[0] != y.shape[0]:
            raise InvalidInputError("X and y row counts differ")
        if not np.all(np.isfinite(X)) or not np.all(np.isfinite(y)):
            raise InvalidInputError("dataset contains non-finite values")
        check_distinct_rows(X)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def dim(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True)
class GramMatrix:
    """Symmetric kernel matrix over one set of points."""

    entries: np.ndarray

    def __post_init__(self):
        G = np.asarray(self.entries, dtype=float)
        object.__setattr__(self, "entries", G)
        if G.ndim != 2 or G.shape[0] != G.shape[1]:
            raise InvalidInputError("Gram matrix must be square")
        scale = np.max(np.abs(G)) if G.size else 0.0
        if not np.all(np.isfinite(G)):
            raise InvalidInputError("Gram matrix contains non-finite entries")
        if scale > 0 and np.max(np.abs(G - G.T)) > 1e-12 * scale:
            raise InvalidInputError("Gram matrix is not symmetric within 1e-12 relative")
        if np.any(np.diag(G) < -1e-12 * max(scale, 1.0)):
            raise InvalidInputError("Gram matrix has a negative diagonal entry")

    @property
    def n(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class GramSpectrum:
    """Eigendecomposition ``U diag(d) U^T`` of a Gram matrix.

    eigenvalues
        Sorted descending, clamped to be nonnegative.
    eigenvectors
        Orthogonal matrix whose columns match ``eigenvalues``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]


def check_distinct_rows(X: np.ndarray) -> None:
    """Raise :class:`DuplicateRowError` if two rows coincide within tolerance.

    Two rows closer than ``1e-12 * n_columns`` in squared distance make the
    RBF Gram matrix numerically singular, so they are rejected up front.
    """
    n, d = X.shape
    if n < 2:
        return
    sq = _pairwise_sq_dists(X, X)
    np.fill_diagonal(sq, np.inf)
    i, j = np.unravel_index(np.argmin(sq), sq.shape)
    if sq[i, j] < 1e-12 * max(d, 1):
        raise DuplicateRowError(f"rows {i} and {j} coincide within tolerance")


def _pairwise_sq_dists(X: np.ndarray, X2: np.ndarray) -> np.ndarray:
    sq = (
        np.sum(X * X, axis=1)[:, None]
        + np.sum(X2 * X2, axis=1)[None, :]
        - 2.0 * (X @ X2.T)
    )
    return np.maximum(sq, 0.0)


def gram_matrix(kernel: KernelSpec, X: np.ndarray, X2: np.ndarray | None = None):
    """Evaluate the kernel on all point pairs.

    With ``X2`` omitted the result is a :class:`GramMatrix` (symmetric, unit
    diagonal for RBF); otherwise a plain ``(N, M)`` array of cross evaluations.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if not np.all(np.isfinite(X)):
        raise InvalidInputError("non-finite coordinates in X")
    if X2 is None:
        sq = _pairwise_sq_dists(X, X)
        G = np.exp(-sq / kernel.lengthscale)
        G = 0.5 * (G + G.T)
        np.fill_diagonal(G, 1.0)
        return GramMatrix(G)
    X2 = np.atleast_2d(np.asarray(X2, dtype=float))
    if not np.all(np.isfinite(X2)):
        raise InvalidInputError("non-finite coordinates in X2")
    if X2.shape[1] != X.shape[1]:
        raise InvalidInputError("X and X2 must have the same number of columns")
    return np.exp(-_pairwise_sq_dists(X, X2) / kernel.lengthscale)


def spectral_decompose(gram: GramMatrix | np.ndarray) -> GramSpectrum:
    """Eigendecompose a PSD Gram matrix, eigenvalues sorted descending.

    Tiny negative eigenvalues (within ``EIG_CLAMP_REL`` of zero relative to the
    largest) are clamped to 0; larger negative eigenvalues are an error since
    the input was supposed to be PSD.
    """
    if not isinstance(gram, GramMatrix):
        gram = GramMatrix(np.asarray(gram, dtype=float))
    try:
        d, U = np.linalg.eigh(gram.entries)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigendecomposition failed: {exc}") from exc
    order = np.argsort(d)[::-1]
    d = d[order]
    U = U[:, order]
    dmax = float(d[0]) if d.size else 0.0
    if dmax < 0:
        raise NumericError("all eigenvalues negative; input is not PSD")
    floor = -EIG_CLAMP_REL * max(dmax, 0.0)
    if np.any(d < floor):
        raise NumericError(
            f"eigenvalue {d.min():.3e} below PSD clamp tolerance {floor:.3e}"
        )
    d = np.maximum(d, 0.0)
    return GramSpectrum(eigenvalues=d, eigenvectors=U)


def sqrt_gram(spec: GramSpectrum) -> np.ndarray:
    """Symmetric PSD square root ``U diag(sqrt(d)) U^T``."""
    d = spec.eigenvalues
    if np.any(d < 0):
        raise NumericError("negative eigenvalue; cannot take a real square root")
    U = spec.eigenvectors
    R = (U * np.sqrt(d)) @ U.T
    return 0.5 * (R + R.T)


def range_mask(spec: GramSpectrum) -> np.ndarray:
    """Eigenvalues that span range(K): those above ``SINGULAR_FLOOR_REL`` times the largest.

    The others count as zero; a spectrum that keeps them all is invertible.
    """
    d = spec.eigenvalues
    return d > SINGULAR_FLOOR_REL * d.max(initial=0.0)


def inv_kernel_norm_sq(spec: GramSpectrum, y: np.ndarray) -> float:
    """Squared inverse-kernel norm of the labels, ``y^T K^{-1} y``, or ``y^T K^+ y`` on a singular spectrum.

    Computed in the eigenbasis as ``sum_i (U^T y)_i^2 / d_i`` over the
    eigenvalues that span range(K) (see ``range_mask``), which is every one of
    an invertible spectrum; on a singular one the true inverse norm is
    infinite unless the labels avoid the null space.  The (unsquared) norm is
    the square root of this value; both conventions appear in reported error
    bounds, so the squared form is the primitive.
    """
    y = np.asarray(y, dtype=float).ravel()
    if y.shape[0] != spec.n:
        raise InvalidInputError("label vector length does not match the spectrum")
    keep = range_mask(spec)
    w = spec.eigenvectors.T @ y
    d = spec.eigenvalues
    return float(np.sum(w[keep] * w[keep] / d[keep]))


def apply_inverse(spec: GramSpectrum, v: np.ndarray) -> np.ndarray:
    """Apply ``K^{-1}`` through the eigendecomposition, or on a numerically singular spectrum the pseudoinverse.

    The pseudoinverse acts on range(K) (see ``range_mask``) and maps the rest
    to zero.  It divides only where an eigenvalue is kept, so an invertible
    spectrum gets the bits of the plain inverse.
    """
    U = spec.eigenvectors
    w = (U.T @ np.asarray(v, dtype=float)).T
    return U @ np.divide(w, spec.eigenvalues, out=np.zeros_like(w), where=range_mask(spec)).T
