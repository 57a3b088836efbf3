"""Monte Carlo harness: repeated random-feature fits and the statistics compared to theory.

Each trial draws a fresh Gaussian feature matrix (jointly over train and test
points), fits the ridge solution at every requested ridge, and evaluates it on
the test grid.  Draws come in fixed-size chunks, one per numpy call, and each
serves every ridge.  Moments are accumulated with Welford updates in fixed
trial order, so results are deterministic, numerically stable, and
reproducible from the configuration alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .effective_ridge import EffectiveRidge, theta_norm_theory
from .errors import EffridgeError, InvalidInputError
from .features import SeedPolicy, gaussian_features, normal_chunks
from .kernels import Dataset, GramSpectrum, KernelSpec, gram_matrix, spectral_decompose, sqrt_gram
from .predictors import fit_rf, predict_rf

# Leading trials whose joint predictions TrialStats keeps as individual draws.
_FAN_SAMPLES = 10


@dataclass(frozen=True)
class TrialStats:
    """Running moments of the sampled predictor across trials.

    Variance fields hold sample variances (``ddof=1``) and are ``None`` when
    only one trial was run.  ``samples`` holds the joint ``[train; test]``
    predictions of the first ``min(_FAN_SAMPLES, trials)`` trials, one row per
    trial.
    """

    mean_prediction: np.ndarray
    var_prediction: np.ndarray | None
    mean_theta_norm_sq: float
    var_theta_norm_sq: float | None
    mean_train_prediction: np.ndarray
    trials: int
    var_train_prediction: np.ndarray | None = None
    samples: np.ndarray | None = None


@dataclass(frozen=True)
class RiskReport:
    """Bias-variance split of the expected test risk over feature sampling.

    ``expected_risk`` is the sum of the risk of the mean predictor and the
    mean predictor variance.
    """

    risk_of_mean: float
    mean_variance: float
    expected_risk: float


class _Welford:
    """Streaming mean / second central moment for scalars or fixed-shape vectors."""

    def __init__(self, shape):
        self.count = 0
        self.mean = np.zeros(shape)
        self.m2 = np.zeros(shape)

    def add(self, value):
        self.count += 1
        delta = value - self.mean
        self.mean = self.mean + delta / self.count
        self.m2 = self.m2 + delta * (value - self.mean)

    def variance(self):
        if self.count < 2:
            return None
        return self.m2 / (self.count - 1)


def run_trials(
    dataset: Dataset,
    test_X: np.ndarray,
    kernel: KernelSpec,
    P: int,
    lams: list[float],
    trials: int,
    base_seed: int,
) -> list[TrialStats]:
    """Fit the random-feature predictor across seeds and accumulate its moments, per ridge.

    Trial ``t`` uses the stream derived from ``(base_seed, t)``; its one
    feature draw is fitted at every ridge of ``lams``, and the result holds
    one ``TrialStats`` per ridge, in order, each equal to that of a one-ridge
    call.  The features share one joint Gram square root computed up front
    and are drawn a chunk at a time.
    """
    if trials < 1:
        raise InvalidInputError("need at least one trial")
    if P < 1:
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
    joint_root = sqrt_gram(spectral_decompose(gram_matrix(kernel, X_all)))
    draws = (
        entries
        for _, W in normal_chunks(SeedPolicy(base_seed), trials, (P, M))
        for entries in gaussian_features(joint_root, W)
    )

    joint_accs = [_Welford(M) for _ in lams]
    norm_accs = [_Welford(()) for _ in lams]
    samples = [[] for _ in lams]
    for t, entries in enumerate(draws):
        for lam, joint_acc, norm_acc, kept in zip(lams, joint_accs, norm_accs, samples):
            try:
                model = fit_rf(entries[:N], dataset.y, lam)
                preds = predict_rf(model, entries[N:])
            except EffridgeError as exc:
                raise type(exc)(f"ridge {lam}, trial {t}: {exc}") from exc
            joint = np.concatenate([model.train_predictions, preds])
            joint_acc.add(joint)
            norm_acc.add(model.theta_norm_sq)
            if t < _FAN_SAMPLES:
                kept.append(joint)

    out = []
    for lam, joint_acc, norm_acc, kept in zip(lams, joint_accs, norm_accs, samples):
        var_joint = joint_acc.variance()
        var_norm = norm_acc.variance()
        if var_joint is not None:
            var_joint = np.maximum(var_joint, 0.0)
        out.append(
            TrialStats(
                mean_prediction=joint_acc.mean[N:],
                var_prediction=None if var_joint is None else var_joint[N:],
                mean_theta_norm_sq=float(norm_acc.mean),
                var_theta_norm_sq=None if var_norm is None else float(max(var_norm, 0.0)),
                mean_train_prediction=joint_acc.mean[:N],
                trials=trials,
                var_train_prediction=None if var_joint is None else var_joint[:N],
                samples=np.array(kept),
            )
        )
    return out


def estimate_risk(predictions: np.ndarray, targets: np.ndarray) -> float:
    """Mean squared error over the empirical test measure."""
    predictions = np.asarray(predictions, dtype=float).ravel()
    targets = np.asarray(targets, dtype=float).ravel()
    if predictions.shape != targets.shape:
        raise InvalidInputError("prediction and target lengths differ")
    return float(np.mean((predictions - targets) ** 2))


def bias_variance_decompose(stats: TrialStats, f_star: np.ndarray) -> RiskReport:
    """Split the expected risk into the risk of the mean predictor plus mean variance.

    The identity ``expected_risk = risk_of_mean + mean_variance`` holds by
    construction on the empirical moments.
    """
    f_star = np.asarray(f_star, dtype=float).ravel()
    if f_star.shape != stats.mean_prediction.shape:
        raise InvalidInputError("f_star length does not match the test grid")
    if not np.all(np.isfinite(f_star)):
        raise InvalidInputError("f_star contains non-finite values")
    if stats.var_prediction is None:
        raise InvalidInputError("variance undefined with fewer than two trials")
    risk_of_mean = estimate_risk(stats.mean_prediction, f_star)
    mean_variance = float(np.mean(stats.var_prediction))
    return RiskReport(
        risk_of_mean=risk_of_mean,
        mean_variance=mean_variance,
        expected_risk=risk_of_mean + mean_variance,
    )


def compare_average_to_krr(stats: TrialStats, krr_predictions: np.ndarray) -> tuple[float, float]:
    """Max-abs and RMS discrepancy between the mean sampled predictor and a kernel predictor."""
    krr_predictions = np.asarray(krr_predictions, dtype=float).ravel()
    if krr_predictions.shape != stats.mean_prediction.shape:
        raise InvalidInputError("prediction vectors have different lengths")
    diff = stats.mean_prediction - krr_predictions
    return float(np.max(np.abs(diff))), float(np.sqrt(np.mean(diff**2)))


def theta_norm_check(
    stats: TrialStats, spec: GramSpectrum, y: np.ndarray, eff: EffectiveRidge
) -> tuple[float, float, float]:
    """Empirical mean squared parameter norm against its deterministic prediction.

    Returns ``(empirical, theoretical, gap)`` where the theoretical value is
    ``d(lt)/d(l) * y^T K (K + lt I)^{-2} y``; the gap shrinks like ``1/P``.
    """
    theoretical = theta_norm_theory(spec, y, eff)
    empirical = stats.mean_theta_norm_sq
    return empirical, theoretical, abs(empirical - theoretical)


def monte_carlo_band(stats: TrialStats, sigmas: float = 3.0) -> np.ndarray:
    """Pointwise uncertainty of the Monte Carlo mean: ``sigmas * std / sqrt(trials)``."""
    if stats.var_prediction is None:
        raise InvalidInputError("variance undefined with fewer than two trials")
    return sigmas * np.sqrt(stats.var_prediction / stats.trials)
