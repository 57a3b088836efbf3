"""Kernel evaluation and symmetric Gram-matrix linear algebra.

Everything downstream (feature sampling, ridge predictors, effective-ridge
theory) is driven by the eigendecomposition of a kernel Gram matrix, so this
module owns the numerically delicate parts: PSD-safe eigendecomposition,
matrix square roots, inverse-kernel norms, the one spectral solve of
``(K + lam I) x = v`` (kernel ridge regression's), and the one rule for which
eigenvalues count as zero, which the kernel side, the theory and the ridgeless
random-feature fit share.  It also owns the one spectrum type,
:class:`Spectrum`, which the theory reads; a decomposition is one, with its
eigenvectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DuplicateRowError, InvalidInputError, NumericError

# An eigenvalue of a computed Gram at or below RANK_FLOOR_REL times the largest
# counts as zero.  Eigensolvers emit values that small, negative ones included,
# for PSD inputs; anything more negative means the input was not PSD.
RANK_FLOOR_REL = 1e-10


def numerical_range(e: np.ndarray) -> np.ndarray:
    """Mask of the computed Gram eigenvalues that span its range, per spectrum on the last axis of ``e``."""
    return e > RANK_FLOOR_REL * e.max(axis=-1, keepdims=True)


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
        if self.f_star is not None and not np.all(np.isfinite(self.f_star)):
            raise InvalidInputError("f_star contains non-finite values")
        check_distinct_rows(X)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def dim(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Gram eigenvalues, checked once: nonempty, finite and nonnegative.

    Every function of the effective-ridge and Stieltjes theory that reads a
    spectrum takes one, so a grid of solves or draws on the same eigenvalues
    checks them, and takes their mean and range, only when the spectrum is
    built.  ``in_range`` marks the eigenvalues that span range(K), every
    positive one of exact ones as these are, and ``rank`` counts them.  The
    arrays are read-only copies, which keeps them as checked.
    """

    eigenvalues: np.ndarray
    n: int = field(init=False)
    trace_mean: float = field(init=False)
    in_range: np.ndarray = field(init=False)
    rank: int = field(init=False)

    def __post_init__(self):
        d = np.array(self.eigenvalues, dtype=float).ravel()
        if d.size < 1 or not np.all(np.isfinite(d)) or np.any(d < 0):
            raise InvalidInputError("eigenvalues must be a nonempty array of finite nonnegative numbers")
        keep = self._range(d)
        d.flags.writeable = keep.flags.writeable = False
        object.__setattr__(self, "eigenvalues", d)
        object.__setattr__(self, "n", d.size)
        object.__setattr__(self, "trace_mean", float(np.mean(d)))
        object.__setattr__(self, "in_range", keep)
        object.__setattr__(self, "rank", int(np.count_nonzero(keep)))

    _range = staticmethod(lambda d: d > 0)


@dataclass(frozen=True, eq=False)
class GramSpectrum(Spectrum):
    """Eigendecomposition ``U diag(d) U^T`` of a Gram matrix: a checked :class:`Spectrum` with its eigenvectors.

    eigenvalues
        Sorted descending, clamped to be nonnegative; computed, so the range
        keeps those above the floor (``numerical_range``).
    eigenvectors
        Orthogonal matrix whose columns match ``eigenvalues``.
    """

    eigenvectors: np.ndarray
    _range = staticmethod(numerical_range)


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
    """Squared distances between the rows of finite ``X`` and ``X2``, refused if one overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        sq = (
            np.sum(X * X, axis=1)[:, None]
            + np.sum(X2 * X2, axis=1)[None, :]
            - 2.0 * (X @ X2.T)
        )
    if not np.all(np.isfinite(sq)):
        raise InvalidInputError("squared distances between input rows overflow")
    return np.maximum(sq, 0.0)


def gram_matrix(kernel: KernelSpec, X: np.ndarray, X2: np.ndarray | None = None) -> np.ndarray:
    """Evaluate the kernel on all point pairs.

    With ``X2`` omitted the result is the ``(N, N)`` Gram of ``X``, symmetric
    with a unit diagonal by construction; otherwise the ``(N, M)`` array of
    cross evaluations.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if not np.all(np.isfinite(X)):
        raise InvalidInputError("non-finite coordinates in X")
    if X2 is None:
        sq = _pairwise_sq_dists(X, X)
        G = np.exp(-sq / kernel.lengthscale)
        G = 0.5 * (G + G.T)
        np.fill_diagonal(G, 1.0)
        return G
    X2 = np.atleast_2d(np.asarray(X2, dtype=float))
    if not np.all(np.isfinite(X2)):
        raise InvalidInputError("non-finite coordinates in X2")
    if X2.shape[1] != X.shape[1]:
        raise InvalidInputError("X and X2 must have the same number of columns")
    return np.exp(-_pairwise_sq_dists(X, X2) / kernel.lengthscale)


def spectral_decompose(gram: np.ndarray) -> GramSpectrum:
    """Eigendecompose a PSD Gram matrix, eigenvalues sorted descending.

    This is where a Gram is checked: it must be square, finite, symmetric
    within 1e-12 relative to its largest entry, and free of negative diagonal
    entries.  Tiny negative eigenvalues (within ``RANK_FLOOR_REL`` of zero
    relative to the largest) are clamped to 0; larger negative eigenvalues are
    an error since the input was supposed to be PSD.  Tiny positive ones keep
    their values, which ``sqrt_gram`` reads, though the range leaves them out.
    """
    G = np.asarray(gram, dtype=float)
    if G.ndim != 2 or G.shape[0] != G.shape[1]:
        raise InvalidInputError("Gram matrix must be square")
    scale = np.max(np.abs(G)) if G.size else 0.0
    if not np.all(np.isfinite(G)):
        raise InvalidInputError("Gram matrix contains non-finite entries")
    if scale > 0 and np.max(np.abs(G - G.T)) > 1e-12 * scale:
        raise InvalidInputError("Gram matrix is not symmetric within 1e-12 relative")
    if np.any(np.diag(G) < -1e-12 * max(scale, 1.0)):
        raise InvalidInputError("Gram matrix has a negative diagonal entry")
    try:
        d, U = np.linalg.eigh(G)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigendecomposition failed: {exc}") from exc
    order = np.argsort(d)[::-1]
    d, U = d[order], U[:, order]
    floor = -RANK_FLOOR_REL * d.max(initial=0.0)
    if np.any(d < floor):
        raise NumericError(f"eigenvalue {d.min():.3e} below PSD clamp tolerance {floor:.3e}")
    return GramSpectrum(eigenvalues=np.maximum(d, 0.0), eigenvectors=U)


def sqrt_gram(spec: GramSpectrum) -> np.ndarray:
    """Symmetric PSD square root ``U diag(sqrt(d)) U^T``."""
    U = spec.eigenvectors
    R = (U * np.sqrt(spec.eigenvalues)) @ U.T
    return 0.5 * (R + R.T)


def inv_kernel_norm_sq(spec: GramSpectrum, y: np.ndarray) -> float:
    """Squared inverse-kernel norm of the labels, ``y^T K^{-1} y``, or ``y^T K^+ y`` on a singular spectrum.

    Computed in the eigenbasis as ``sum_i (U^T y)_i^2 / d_i`` over the
    eigenvalues that span range(K) (``spec.in_range``), which is every one of
    an invertible spectrum; on a singular one the true inverse norm is
    infinite unless the labels avoid the null space.  The (unsquared) norm is
    the square root of this value; both conventions appear in reported error
    bounds, so the squared form is the primitive.
    """
    y = np.asarray(y, dtype=float).ravel()
    if y.shape[0] != spec.n:
        raise InvalidInputError("label vector length does not match the spectrum")
    w, d = (spec.eigenvectors.T @ y)[spec.in_range], spec.eigenvalues[spec.in_range]
    return float(np.sum(w * w / d))


def apply_inverse(spec: GramSpectrum, v: np.ndarray, lam: float = 0.0) -> np.ndarray:
    """Apply ``(K + lam I)^{-1}`` to a vector ``v``, or to each column of ``v``, in the Gram's eigenbasis.

    It divides by ``d + lam``.  At ``lam = 0`` it divides only where an
    eigenvalue spans range(K) (``spec.in_range``) and maps the rest to zero:
    the pseudoinverse of a numerically singular spectrum, with the plain
    inverse's bits on an invertible one.  Kernel ridge regression's
    coefficients are ``apply_inverse(spec, y, lam)``.
    """
    if lam < 0:
        raise InvalidInputError("ridge must be nonnegative")
    v = np.asarray(v, dtype=float)
    if v.shape[0] != spec.n:
        raise InvalidInputError("vector length does not match the spectrum")
    U = spec.eigenvectors
    w = (U.T @ v).T
    keep = spec.in_range if lam == 0.0 else True
    return U @ np.divide(w, spec.eigenvalues + lam, out=np.zeros_like(w), where=keep).T
