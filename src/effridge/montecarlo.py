"""Monte Carlo trial engine: repeated random-feature fits and the moments of their predictions.

Each trial draws a fresh Gaussian feature matrix (jointly over train and test
points) at every requested feature count, fits the ridge solution at every
requested ridge, and evaluates it on the test grid.  Draws come in chunks
whose size depends on the draw's shape only, and ``fit_rf_stacked`` forms each
draw's feature Gram once for every ridge.  Each chunk's mean and sum of
squared deviations merge into the running moments by the pairwise update of
Chan, Golub & LeVeque (1979), in fixed chunk order, so results are
deterministic, numerically stable, and reproducible from the configuration
alone.  The module returns moments only; the risk, bias-variance and band
columns compared to theory are formed from them where the CLI writes them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EffridgeError, InvalidInputError, NumericError
from .features import SeedPolicy, check_draw, check_size, chunk_draws, gaussian_features, normal_chunks
from .kernels import Dataset, KernelSpec, gram_matrix, numerical_range, spectral_decompose, sqrt_gram

# Leading trials whose joint predictions TrialStats keeps as individual draws.
_FAN_SAMPLES = 10


@dataclass(frozen=True)
class TrialStats:
    """Running moments of the sampled predictor across the trials of one ``run_trials`` call.

    Variance fields hold sample variances (``ddof=1``).  ``samples`` holds the
    joint ``[train; test]`` predictions of the first
    ``min(_FAN_SAMPLES, trials)`` trials, one row per trial.  The trial count
    stays with the caller.
    """

    mean_prediction: np.ndarray
    var_prediction: np.ndarray
    mean_theta_norm_sq: float
    var_theta_norm_sq: float
    mean_train_prediction: np.ndarray
    var_train_prediction: np.ndarray
    samples: np.ndarray


def _merge(mean, m2, count: int, chunk: np.ndarray):
    """Merge a chunk of samples, stacked on the first axis, into a running mean and sum of squared deviations.

    ``mean`` and ``m2`` summarize ``count`` earlier samples; the update is the
    pairwise one of Chan, Golub & LeVeque (1979).
    """
    n = len(chunk)
    chunk_mean = chunk.sum(axis=0) / n
    dev = chunk - chunk_mean
    chunk_m2 = np.square(dev, out=dev).sum(axis=0)
    delta = chunk_mean - mean
    total = count + n
    return mean + delta * (n / total), m2 + chunk_m2 + delta * delta * (count * n / total)


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


def run_trials(
    dataset: Dataset,
    test_X: np.ndarray,
    kernel: KernelSpec,
    Ps: list[int],
    lams: list[float],
    trials: int,
    base_seed: int,
) -> dict[int, list[TrialStats]]:
    """Fit the random-feature predictor over two or more seeds and accumulate its moments per feature count and ridge.

    Trial ``t`` uses the stream derived from ``(base_seed, t)``; at each
    feature count ``P`` of ``Ps`` its one feature draw is fitted at every
    ridge of ``lams``, and one broadcast product per chunk of draws gives the
    joint predictions at all of them.  The result maps each distinct ``P`` to
    one ``TrialStats`` per ridge, in order, each equal to that of a one-ridge,
    one-``P`` call.  Every feature count shares one joint Gram square root,
    computed up front, once every ridge, every draw's size and the size of a
    chunk's fits at every ridge are checked.
    """
    if trials < 2:
        raise InvalidInputError(f"trials must be at least 2 for sample variances, got {trials}")
    Ps = list(dict.fromkeys(Ps))
    if len(Ps) == 0:
        raise InvalidInputError("need at least one feature")
    if len(lams) == 0:
        raise InvalidInputError("need at least one ridge")
    for lam in lams:
        if not (np.isfinite(lam) and lam >= 0):
            raise InvalidInputError(f"ridge {lam}: ridge must be finite and nonnegative")
    test_X = np.atleast_2d(np.asarray(test_X, dtype=float))
    if test_X.shape[1] != dataset.dim:
        raise InvalidInputError("test points and training points have different dimension")
    N = dataset.n
    X_all = np.vstack([dataset.X, test_X])
    M = X_all.shape[0]
    for P in Ps:
        check_draw((P, M))
        draws = min(trials, chunk_draws(P, M))  # a chunk, as normal_chunks sizes it
        check_size("lambda_list", f"the fits at P = {P} of {len(lams)} ridge(s)",
                   len(lams) * draws * max(min(N, P) ** 2, P, M))
    joint_root = sqrt_gram(spectral_decompose(gram_matrix(kernel, X_all)))
    out = {}
    for P in Ps:
        joint_mean = joint_m2 = norm_mean = norm_m2 = 0.0
        kept = []
        for t0, W in normal_chunks(SeedPolicy(base_seed), trials, (P, M)):
            try:
                thetas = fit_rf_stacked(gaussian_features(joint_root[:N], W), dataset.y, lams)
            except EffridgeError as exc:
                raise type(exc)(f"P {P}, ridges {lams}, trials {t0}-{t0 + len(W) - 1}: {exc}") from exc
            # Joint predictions (draw, ridge, point) F_joint theta = root W^T theta / sqrt(P),
            # which needs no joint feature block; one broadcast product over every ridge.
            joint = (joint_root @ (W.transpose(0, 2, 1) @ thetas[..., None]))[..., 0].transpose(1, 0, 2)
            joint /= np.sqrt(P)
            joint_mean, joint_m2 = _merge(joint_mean, joint_m2, t0, joint)
            norm_mean, norm_m2 = _merge(norm_mean, norm_m2, t0, np.sum(thetas * thetas, axis=2).T)
            if t0 < _FAN_SAMPLES:
                kept.append(joint[: _FAN_SAMPLES - t0])
        var_joint, var_norm = joint_m2 / (trials - 1), norm_m2 / (trials - 1)
        samples = np.concatenate(kept)
        out[P] = [
            TrialStats(
                mean_prediction=joint_mean[i, N:],
                var_prediction=var_joint[i, N:],
                mean_theta_norm_sq=float(norm_mean[i]),
                var_theta_norm_sq=float(var_norm[i]),
                mean_train_prediction=joint_mean[i, :N],
                var_train_prediction=var_joint[i, :N],
                samples=samples[:, i],
            )
            for i in range(len(lams))
        ]
    return out

