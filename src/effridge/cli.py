"""Config-driven experiment runner with CSV/JSON/SVG artifacts.

Every experiment writes three things into its output directory:

* ``results.csv`` with fixed leading columns
  ``experiment,N,P,gamma,lambda,seed,trials`` followed by per-experiment
  metric columns (documented in the README); the header is the key order of
  the rows a runner returns, so each column is named once, where its value is
  computed;
* ``config.json``, the fully resolved configuration, sufficient to reproduce
  ``results.csv`` byte for byte;
* ``plot_*.svg`` line plots rendered purely from ``results.csv``.

Numbers are written in shortest round-trip decimal form and files are written
atomically (temp file plus rename).  Exit codes: 0 success, 1 invalid
configuration or input, 2 I/O failure, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .datasets import generate_clusters, generate_sinusoid, generate_spectrum, read_csv_table
from .effective_ridge import Spectrum, calibrate_ridge, solve_effective_ridge, theta_norm_theory
from .errors import EffridgeError, InfeasibleTargetError, InvalidInputError, NumericError
from . import features
from .features import SeedPolicy, check_draw, check_size
from .kernels import Dataset, KernelSpec, apply_inverse, coordinates, gram_matrix, spectral_decompose, spectral_sum
from .montecarlo import run_trials
from .stieltjes import empirical_expected_A, expected_A_theoretical, sample_wishart, stieltjes_moments
from .svgplot import line_plot

PREFIX_COLUMNS = ["experiment", "N", "P", "gamma", "lambda", "seed", "trials"]

# Experiments that sample features and therefore need at least two trials for
# variance columns; those that read gamma_grid sample on a data-backed dataset.
_MC_EXPERIMENTS = {"average-rf", "double-descent", "stieltjes", "expected-a", "predictor-fan"}


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment run, fully resolved; JSON keys match the field names."""

    experiment: str
    dataset: dict
    lambda_list: list
    trials: int
    base_seed: int
    output_dir: str
    kernel: dict | None = None
    gamma_grid: list | None = None
    p_grid: list | None = None


# Each experiment's defaults set exactly the fields it reads, one grid among them.
_DEFAULTS: dict[str, dict] = {
    "solve": dict(
        dataset={"type": "spectrum", "kind": "exponential", "n": 20},
        gamma_grid=[0.1, 0.16, 0.25, 0.4, 0.63, 0.8, 1.0, 1.25, 1.6, 2.5, 4.0, 6.3, 10.0],
        lambda_list=[1e-4, 1e-3, 1e-2, 1e-1, 0.5, 1.0],
        trials=1,
    ),
    "calibrate": dict(
        dataset={"type": "spectrum", "kind": "exponential", "n": 20},
        gamma_grid=[0.25, 0.5, 1.0, 2.0, 4.0],
        lambda_list=[0.1, 0.5, 1.0, 2.0],
        trials=1,
    ),
    "average-rf": dict(
        dataset={"type": "sinusoid", "n": 4, "n_test": 100},
        kernel={"kind": "rbf", "lengthscale": 2.0},
        gamma_grid=[0.5, 1.0, 2.0, 4.0],
        lambda_list=[0.1, 1.0],
        trials=500,
    ),
    "double-descent": dict(
        dataset={"type": "sinusoid", "n": 4, "n_test": 100},
        kernel={"kind": "rbf", "lengthscale": 2.0},
        gamma_grid=[0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 4.0],
        lambda_list=[1e-4, 0.5],
        trials=1000,
    ),
    "stieltjes": dict(
        dataset={"type": "spectrum", "kind": "exponential", "n": 50},
        p_grid=[50, 100, 200, 400],
        lambda_list=[1.0],
        trials=200,
    ),
    "expected-a": dict(
        dataset={"type": "spectrum", "kind": "exponential", "n": 10},
        p_grid=[10, 50, 200],
        lambda_list=[1e-2],
        trials=500,
    ),
    "predictor-fan": dict(
        dataset={"type": "sinusoid", "n": 4, "n_test": 100},
        kernel={"kind": "rbf", "lengthscale": 2.0},
        gamma_grid=[0.5, 1.0, 2.5, 25.0],
        lambda_list=[1e-4, 0.1],
        trials=500,
    ),
}

EXPERIMENTS = tuple(_DEFAULTS)


def default_config(experiment: str) -> ExperimentConfig:
    if experiment not in EXPERIMENTS:
        raise InvalidInputError(f"unknown experiment {experiment!r}; choose from {EXPERIMENTS}")
    return ExperimentConfig(
        experiment=experiment,
        base_seed=0,
        output_dir=os.path.join("results", experiment),
        **_DEFAULTS[experiment],
    )


def load_config(experiment: str, path=None, **overrides) -> ExperimentConfig:
    """Merge defaults, an optional JSON config file, and flag overrides."""
    cfg = default_config(experiment)
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise InvalidInputError(f"config {path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise InvalidInputError(f"config {path}: config must be a JSON object")
        known = set(cfg.__dataclass_fields__)
        unknown = set(raw) - known
        if unknown:
            raise InvalidInputError(f"config {path}: unknown keys {sorted(unknown)}")
        if raw.get("experiment", experiment) != experiment:
            raise InvalidInputError(
                f"config {path}: experiment {raw['experiment']!r} does not match {experiment!r}"
            )
        cfg = replace(cfg, **{k: v for k, v in raw.items() if k != "experiment"})
    cfg = replace(cfg, **{k: v for k, v in overrides.items() if v is not None})
    validate_config(cfg)
    return cfg


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_real(v) -> bool:
    # NaN, infinities and integers beyond the float range all fail the bound.
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


# The keys each descriptor accepts (README, "Configuration JSON"), each with
# the check its value must pass and the requirement a failure message states.
_COUNT = (lambda v: _is_int(v) and v >= 1, "a positive integer")
_PAIR = (lambda v: _is_int(v) and v >= 2, "an integer >= 2")
_REAL = (_is_real, "a finite number")
_TEXT = (lambda v: isinstance(v, str), "a string")
_DATASET_KEYS = {
    "sinusoid": {"n": _COUNT, "n_test": _COUNT},
    "clusters": {"n": _PAIR, "n_test": _PAIR, "dim": _COUNT, "separation": _REAL},
    "spectrum": {"kind": _TEXT, "n": _COUNT},
    "csv": {"path": _TEXT, "n_test": (lambda v: _is_int(v) and v >= 0, "a nonnegative integer")},
}
_KERNEL_KEYS = {"kind": _TEXT, "lengthscale": _REAL}


def validate_config(cfg: ExperimentConfig) -> None:
    """Reject, naming the field, a value of the wrong type or out of range, or a field the experiment does not read."""
    if cfg.experiment not in EXPERIMENTS:
        raise InvalidInputError(f"unknown experiment {cfg.experiment!r}")
    if not isinstance(cfg.dataset, dict) or "type" not in cfg.dataset:
        raise InvalidInputError("dataset must be a descriptor object with a 'type' key")
    kind = cfg.dataset["type"]
    if not isinstance(kind, str) or kind not in _DATASET_KEYS:
        raise InvalidInputError(f"unknown dataset type {kind!r}")
    _check_descriptor("dataset", cfg.dataset, {"type": _TEXT, **_DATASET_KEYS[kind]})
    if kind == "csv" and "path" not in cfg.dataset:
        raise InvalidInputError("a csv dataset needs dataset.path")
    uses_p = "p_grid" in _DEFAULTS[cfg.experiment]
    if kind == "spectrum" and cfg.experiment in _MC_EXPERIMENTS and not uses_p:
        raise InvalidInputError(f"experiment {cfg.experiment!r} needs a data-backed dataset, not {kind!r}")
    if kind == "spectrum" and cfg.kernel is not None:
        raise InvalidInputError("kernel is not read with a spectrum dataset; leave it unset")
    if cfg.kernel is not None:
        if not isinstance(cfg.kernel, dict):
            raise InvalidInputError("kernel must be a descriptor object or null")
        _check_descriptor("kernel", cfg.kernel, _KERNEL_KEYS)
    if kind != "spectrum":
        _kernel_from(cfg)
    grid, unread = ("p_grid", "gamma_grid") if uses_p else ("gamma_grid", "p_grid")
    if getattr(cfg, unread) is not None:
        raise InvalidInputError(f"{cfg.experiment} reads {grid}, not {unread}; leave {unread} unset")
    _check_numbers("gamma_grid", cfg.gamma_grid, lambda v: v > 0, "positive finite numbers")
    _check_numbers("p_grid", cfg.p_grid, lambda v: v > 0 and v == int(v), "positive integers")
    if uses_p or cfg.experiment == "calibrate":
        # The spectral experiments evaluate at z = -lambda, which must stay off zero,
        # and calibrate reads each value as a target effective ridge, which is positive.
        _check_numbers("lambda_list", cfg.lambda_list, lambda v: v > 0, "positive finite numbers")
    else:
        _check_numbers("lambda_list", cfg.lambda_list, lambda v: v >= 0, "nonnegative finite numbers")
    if not cfg.lambda_list:
        raise InvalidInputError("lambda_list must be nonempty")
    if not getattr(cfg, grid):
        raise InvalidInputError(f"{grid} must be nonempty")
    least = 2 if cfg.experiment in _MC_EXPERIMENTS else 1
    if not (_is_int(cfg.trials) and cfg.trials >= least):
        raise InvalidInputError(f"{cfg.experiment} needs trials to be an integer >= {least}, got {cfg.trials!r}")
    if not (_is_int(cfg.base_seed) and 0 <= cfg.base_seed < 2**64):
        raise InvalidInputError(f"base_seed must be an integer in [0, 2**64), got {cfg.base_seed!r}")
    if not (isinstance(cfg.output_dir, str) and cfg.output_dir):
        # An empty path would be the current directory.
        raise InvalidInputError(f"output_dir must be a nonempty string, got {cfg.output_dir!r}")


def _check_descriptor(field: str, descriptor: dict, accepted: dict) -> None:
    """A descriptor holds only ``accepted`` keys, each with a value that passes its check."""
    unknown = set(descriptor) - set(accepted)
    if unknown:
        raise InvalidInputError(
            f"{field} has unknown keys {sorted(unknown, key=str)}; it accepts {sorted(accepted)}"
        )
    for key, (valid, requirement) in accepted.items():
        if key in descriptor and not valid(descriptor[key]):
            raise InvalidInputError(f"{field}.{key} must be {requirement}, got {descriptor[key]!r}")


def _check_numbers(field: str, values, valid, requirement: str) -> None:
    """A grid field is absent or a list of finite real numbers (not booleans) that pass ``valid``."""
    if values is None:
        return
    if not isinstance(values, list):
        raise InvalidInputError(f"{field} must be a list of {requirement}")
    for v in values:
        if not (_is_real(v) and valid(v)):
            raise InvalidInputError(f"{field} values must be {requirement}, got {v!r}")


def _kernel_from(cfg: ExperimentConfig) -> KernelSpec:
    if not cfg.kernel:
        raise InvalidInputError(f"experiment {cfg.experiment!r} needs a kernel")
    return KernelSpec(kind=cfg.kernel.get("kind", "rbf"), lengthscale=cfg.kernel.get("lengthscale"))


def _resolve_data(cfg: ExperimentConfig) -> tuple[Dataset, np.ndarray]:
    """Materialize a data-backed dataset plus its test grid, once the size of their joint Gram is checked."""
    ds = cfg.dataset
    kind = ds["type"]
    if kind != "csv":
        n, n_test = ds.get("n", 4 if kind == "sinusoid" else 100), ds.get("n_test", 100)
        check_size("dataset.n + dataset.n_test", "the joint Gram", (n + n_test) ** 2)
        if kind == "sinusoid":
            return generate_sinusoid(n=n, n_test=n_test, seed=cfg.base_seed)
        dim = ds.get("dim", 5)
        check_size("dataset.dim", f"the {n + n_test} x {dim} cluster data", (n + n_test) * dim)
        return generate_clusters(n=n, n_test=n_test, dim=dim, separation=ds.get("separation", 3.0),
                                 seed=cfg.base_seed)
    # A csv file, as validate_config refuses a spectrum here.  Hold out the trailing rows as the test grid when
    # requested, else test on the training rows.  Checked before the Dataset exists, whose duplicate-row check
    # forms an n x n distance matrix, and before the file is read past the first row too many.
    n_test = ds.get("n_test", 0)
    copies = 1 if n_test else 2
    table = read_csv_table(ds["path"], max_rows=math.isqrt(features.MAX_ELEMENTS) // copies + 1)
    check_size("dataset.path", "the joint Gram", (copies * len(table)) ** 2)
    # Without held-out rows the training rows are the test grid, and their labels its true values.
    data = Dataset(X=table[:, :-1], y=table[:, -1], f_star=None if n_test else table[:, -1])
    if n_test:
        if n_test >= data.n:
            raise InvalidInputError("n_test must leave at least one training row")
        train = Dataset(X=data.X[: data.n - n_test], y=data.y[: data.n - n_test],
                        f_star=data.y[data.n - n_test :])
        return train, data.X[data.n - n_test :]
    return data, data.X


def _resolve_spectrum(cfg: ExperimentConfig) -> Spectrum:
    """The checked, descending spectrum of theory-side experiments: a decay law, or a dataset's Gram decomposed."""
    ds = cfg.dataset
    if ds["type"] == "spectrum":
        n = ds.get("n", 20)
        check_size("dataset.n", "a spectrum", n)
        return Spectrum(generate_spectrum(ds.get("kind", "exponential"), n))
    data, _ = _resolve_data(cfg)
    return spectral_decompose(gram_matrix(_kernel_from(cfg), data.X))


def _prefix(cfg: ExperimentConfig, N, P, gamma, lam):
    return dict(zip(PREFIX_COLUMNS, (cfg.experiment, N, P, gamma, lam, cfg.base_seed, cfg.trials)))


def _feature_counts(cfg: ExperimentConfig, N: int) -> list[float]:
    """``gamma * N`` for every gamma of the grid, refused up front if one overflows."""
    for gamma in cfg.gamma_grid:
        if not np.isfinite(gamma * N):
            raise InvalidInputError(f"gamma_grid value {gamma} times N = {N} overflows the feature count")
    return [gamma * N for gamma in cfg.gamma_grid]


class _row_context:
    """Attach the grid point to a package error, keeping its type and so its exit code.

    A class, not a generator-based ``contextmanager``: it is entered once per
    solved row, and a ``with`` on it costs under half of one on a generator.
    """

    __slots__ = ("keys",)

    def __init__(self, **keys):
        self.keys = keys

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, traceback):
        if isinstance(exc, EffridgeError):
            ctx = ", ".join(f"{k}={v}" for k, v in self.keys.items())
            raise type(exc)(f"{exc} [at {ctx}]") from exc
        return False


# ---------------------------------------------------------------------------
# Experiment implementations.  Each returns its rows; the key order of a row
# is the CSV column order.
# ---------------------------------------------------------------------------


def _run_solve(cfg: ExperimentConfig):
    spectrum = _resolve_spectrum(cfg)
    N = spectrum.n
    Ps = _feature_counts(cfg, N)
    rows = []
    for lam in cfg.lambda_list:
        for gamma, P in zip(cfg.gamma_grid, Ps):
            with _row_context(gamma=gamma, ridge=lam):
                eff = solve_effective_ridge(spectrum, gamma, lam)
            row = _prefix(cfg, N, P, gamma, lam)
            row.update(
                lambda_tilde=eff.lambda_tilde,
                d_lambda_tilde=eff.d_lambda_tilde,
                effective_dimension=eff.effective_dimension,
                residual=abs(eff.residual),
            )
            rows.append(row)
    return rows


def _run_calibrate(cfg: ExperimentConfig):
    spectrum = _resolve_spectrum(cfg)
    N = spectrum.n
    Ps = _feature_counts(cfg, N)
    rows = []
    for lam_star in cfg.lambda_list:
        for gamma, P in zip(cfg.gamma_grid, Ps):
            try:
                lam = calibrate_ridge(spectrum, gamma, lam_star)
            except InfeasibleTargetError as exc:
                print(f"note: skipping infeasible target: {exc}", file=sys.stderr)
                continue
            with _row_context(gamma=gamma, target=lam_star):
                eff = solve_effective_ridge(spectrum, gamma, lam)
            row = _prefix(cfg, N, P, gamma, lam)
            row.update(
                lambda_star=lam_star,
                roundtrip_lambda_tilde=eff.lambda_tilde,
                roundtrip_rel_error=abs(eff.lambda_tilde - lam_star) / lam_star,
            )
            rows.append(row)
    if not rows:
        raise InvalidInputError("every calibration target was infeasible for every gamma")
    return rows


def _sampled_grid(cfg: ExperimentConfig):
    """Training data, test grid, kernel and grid points ``(lam, P)``, ridge-major as the rows are written."""
    data, test_X = _resolve_data(cfg)
    Ps = [int(round(P)) for P in _feature_counts(cfg, data.n)]
    if 0 in Ps:
        raise InvalidInputError(f"gamma_grid value {cfg.gamma_grid[Ps.index(0)]} times N = {data.n} rounds to P = 0")
    return data, test_X, _kernel_from(cfg), [(lam, P) for lam in cfg.lambda_list for P in Ps]


def _sample(cfg: ExperimentConfig, data: Dataset, test_X: np.ndarray, kernel: KernelSpec, points):
    """The ``TrialStats`` of each grid point, in order; one ``run_trials`` call fits each draw at every point."""
    stats = run_trials(data, test_X, kernel, [P for _, P in points], cfg.lambda_list, cfg.trials, cfg.base_seed)
    return [stats[P][cfg.lambda_list.index(lam)] for lam, P in points]


def _krr_points(cfg: ExperimentConfig, note: str, ridgeless_note: str):
    """Data, train spectrum, ``w = U^T y``, ``C = K(x, X) U`` and ``(lam, P, eff, krr_pred, stats)`` per grid point.

    Every point's effective ridge and KRR test predictions come before the
    first draw, so a point that theory rejects fails at once.  A singular train
    Gram gets a note naming the columns that use its pseudoinverse (``note``,
    and ``ridgeless_note`` if a point has effective ridge 0).
    """
    data, test_X, kernel, points = _sampled_grid(cfg)
    spec = spectral_decompose(gram_matrix(kernel, data.X))
    k_cross = gram_matrix(kernel, test_X, data.X)
    theory = []
    for lam, P in points:
        with _row_context(gamma=P / data.n, ridge=lam, P=P):
            eff = solve_effective_ridge(spec, P / data.n, lam)
            theory.append((lam, P, eff, k_cross @ apply_inverse(spec, data.y, eff.lambda_tilde)))
    if spec.rank < spec.n:
        if any(eff.lambda_tilde == 0.0 for _, _, eff, _ in theory):
            note += f"; at lambda_tilde = 0 the pseudoinverse also gives {ridgeless_note}"
        print(f"note: Gram matrix numerically singular; {note}", file=sys.stderr)
    stats = _sample(cfg, data, test_X, kernel, points)
    w, C = coordinates(spec, data.y), coordinates(spec, k_cross.T)
    return data, spec, w, C, [(*point, s) for point, s in zip(theory, stats)]


def _test_risk(pred: np.ndarray, f_star: np.ndarray) -> float:
    """Mean squared error of test predictions against the true values: every risk column."""
    return float(np.mean((pred - f_star) ** 2))


def _run_average_rf(cfg: ExperimentConfig):
    data, spec, w, _, points = _krr_points(
        cfg, "bound_scale_norm and bound_scale_norm_sq use the pseudoinverse label norm",
        "krr_risk, mean_rf_vs_krr_rmse, mean_rf_vs_krr_max_abs and theta_norm_theory")
    N = data.n
    q_norm_sq = float(spectral_sum(spec, w, w))
    rows = []
    for lam, P, eff, krr_pred, stats in points:
        gap = stats.mean_prediction - krr_pred
        mean_variance = float(np.mean(stats.var_prediction))
        row = _prefix(cfg, N, P, P / N, lam)
        # The bound scales carry a factor sqrt(k(x, x)), which is one for the RBF kernel.
        row.update(
            lambda_tilde=eff.lambda_tilde,
            rf_mean_risk=_test_risk(stats.mean_prediction, data.f_star),
            krr_risk=_test_risk(krr_pred, data.f_star),
            mean_rf_vs_krr_rmse=float(np.sqrt(np.mean(gap**2))),
            mean_rf_vs_krr_max_abs=float(np.max(np.abs(gap))),
            mc_band_rmse=3.0 * float(np.sqrt(mean_variance / cfg.trials)),
            mean_variance=mean_variance,
            theta_norm_mean=stats.mean_theta_norm_sq,
            theta_norm_theory=theta_norm_theory(spec, data.y, eff),
            bound_scale_norm=np.sqrt(q_norm_sq) / P,
            bound_scale_norm_sq=q_norm_sq / P,
        )
        rows.append(row)
    return rows


def _run_double_descent(cfg: ExperimentConfig):
    data, spec, _, C, points = _krr_points(cfg, "variance_theory uses the pseudoinverse posterior variance",
                                           "krr_risk and the parameter norm in variance_theory")
    N = data.n
    # Posterior variances k(x, x) - K(x, X) K^+ K(X, x), k(x, x) = 1 for RBF; zeros at train points round below 0.
    ktilde_diag = np.maximum(1.0 - spectral_sum(spec, C, C), 0.0)
    rows = []
    for lam, P, eff, krr_pred, stats in points:
        risk_of_mean = _test_risk(stats.mean_prediction, data.f_star)
        mean_variance = float(np.mean(stats.var_prediction))
        var_theory = theta_norm_theory(spec, data.y, eff) / P * float(np.mean(ktilde_diag))
        row = _prefix(cfg, N, P, P / N, lam)
        row.update(
            lambda_tilde=eff.lambda_tilde,
            expected_risk=risk_of_mean + mean_variance,
            risk_of_mean=risk_of_mean,
            mean_variance=mean_variance,
            krr_risk=_test_risk(krr_pred, data.f_star),
            variance_theory=var_theory,
        )
        rows.append(row)
    return rows


def _spectral_theory(cfg: ExperimentConfig):
    """The checked spectrum, the feature counts and each ``(P, lam)``'s effective ridge, before the first draw."""
    Ps = [int(P) for P in cfg.p_grid]
    spectrum = _resolve_spectrum(cfg)
    effs = {}
    for P in Ps:
        check_draw((P, spectrum.n))
        for lam in cfg.lambda_list:
            with _row_context(P=P, ridge=lam):
                effs[P, lam] = solve_effective_ridge(spectrum, P / spectrum.n, lam)
    return spectrum, Ps, effs


def _run_stieltjes(cfg: ExperimentConfig):
    spectrum, Ps, effs = _spectral_theory(cfg)
    d, N = spectrum.eigenvalues, spectrum.n
    check_size("trials", f"the spectra of {cfg.trials} draws at P = {max(Ps)}", cfg.trials * min(N, max(Ps)))
    rows = []
    for P in Ps:
        # Drawn once per P and shared by every ridge.
        spectra = sample_wishart(spectrum, P, SeedPolicy(cfg.base_seed), cfg.trials)
        for lam in cfg.lambda_list:
            with _row_context(P=P, ridge=lam):
                mean, var = stieltjes_moments(spectra, P, complex(-lam, 0.0))
            gamma = P / N
            m_tilde = 1.0 / effs[P, lam].lambda_tilde
            # The m-form of the fixed point, gamma = mean(d m / (1 + d m)) + gamma lam m, at m = m_tilde.
            residual = gamma - np.mean(d * m_tilde / (1.0 + d * m_tilde)) - gamma * lam * m_tilde
            row = _prefix(cfg, N, P, gamma, lam)
            row.update(
                m_p_mean=mean.real,
                m_p_var=var,
                m_tilde=m_tilde,
                abs_gap=abs(mean - m_tilde),
                recip_identity_err=abs(residual) / gamma,
            )
            rows.append(row)
    return rows


def _run_expected_a(cfg: ExperimentConfig):
    spectrum, Ps, effs = _spectral_theory(cfg)
    d, N = spectrum.eigenvalues, spectrum.n
    # Drawn once per P and shared by every ridge.
    emps = [empirical_expected_A(spectrum, P, cfg.lambda_list, cfg.trials, SeedPolicy(cfg.base_seed)) for P in Ps]
    rows = []
    for j, lam in enumerate(cfg.lambda_list):
        for P, emp in zip(Ps, emps):
            theory = expected_A_theoretical(spectrum, effs[P, lam].lambda_tilde)
            for i in range(N):
                row = _prefix(cfg, N, P, P / N, lam)
                row.update(
                    idx=i + 1,
                    d=d[i],
                    d_tilde=emp[j][i],
                    d_theory=theory[i],
                    abs_gap=abs(emp[j][i] - theory[i]),
                )
                rows.append(row)
    return rows


def _run_predictor_fan(cfg: ExperimentConfig):
    data, test_X, kernel, points = _sampled_grid(cfg)
    if data.dim != 1:
        raise InvalidInputError("predictor-fan needs one-dimensional inputs")
    N = data.n
    X_all = np.vstack([data.X, test_X])
    truths = np.concatenate([data.y, data.f_star])
    rows = []
    for (lam, P), stats in zip(points, _sample(cfg, data, test_X, kernel, points)):
        mean = np.concatenate([stats.mean_train_prediction, stats.mean_prediction])
        std = np.sqrt(np.concatenate([stats.var_train_prediction, stats.var_prediction]))
        for i in range(X_all.shape[0]):
            row = _prefix(cfg, N, P, P / N, lam)
            row.update(
                role=int(i < N),
                x=X_all[i, 0],
                f_star=truths[i],
                mean_prediction=mean[i],
                std_prediction=std[i],
            )
            row.update((f"sample_{k}", s) for k, s in enumerate(stats.samples[:, i]))
            rows.append(row)
    return rows


_RUNNERS = {
    "solve": _run_solve,
    "calibrate": _run_calibrate,
    "average-rf": _run_average_rf,
    "double-descent": _run_double_descent,
    "stieltjes": _run_stieltjes,
    "expected-a": _run_expected_a,
    "predictor-fan": _run_predictor_fan,
}


# ---------------------------------------------------------------------------
# CSV / JSON io
# ---------------------------------------------------------------------------


def format_number(v) -> str:
    """Shortest decimal that round-trips to the same value; booleans and integers as integers."""
    if not isinstance(v, float):
        if isinstance(v, str):
            return v
        if isinstance(v, (int, np.integer, np.bool_)):
            return str(int(v))
    f = float(v)
    if not math.isfinite(f):
        raise NumericError(f"refusing to write non-finite value {f!r}")
    return repr(f)


def _write_text_atomic(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def write_results_csv(path: Path, columns: list[str], rows: list[dict]) -> None:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(format_number(row[c]) for c in columns))
    _write_text_atomic(path, "\n".join(lines) + "\n")


def _parsed_row(columns: list[str], values) -> dict:
    """One results row as ``parse_results_csv`` returns it: every column except ``experiment`` as float.

    ``values`` are the row's cells, or the values they were written from:
    ``format_number`` writes the shortest decimal that round-trips, so
    ``float`` of a value equals ``float`` of its cell.
    """
    return {c: v if c == "experiment" else float(v) for c, v in zip(columns, values)}


def parse_results_csv(path) -> tuple[list[str], list[dict]]:
    """Read a results file back; every column except ``experiment`` parses as float."""
    text = Path(path).read_text(encoding="utf-8")
    lines = [ln for ln in text.splitlines() if ln]
    columns = lines[0].split(",")
    return columns, [_parsed_row(columns, ln.split(",")) for ln in lines[1:]]


# ---------------------------------------------------------------------------
# Plot rendering (pure functions of the results rows as parsed from results.csv)
# ---------------------------------------------------------------------------


def _groups(rows, key) -> dict:
    """The rows of each ``key`` value, in order of first appearance, from one pass."""
    groups = {}
    for r in rows:
        groups.setdefault(r[key], []).append(r)
    return groups


def _series_by(rows, group_key, x_key, y_key, label_fmt, marker=False):
    return [
        {
            "label": label_fmt.format(g),
            "x": [r[x_key] for r in sub],
            "y": [r[y_key] for r in sub],
            "marker": marker,
        }
        for g, sub in _groups(rows, group_key).items()
    ]


def _tag(v: float) -> str:
    return format_number(v).replace(".", "p").replace("-", "m")


# Each experiment's plot files, each drawn by ``_draw`` from ``(x column, group column, blocks,
# title, x label, y label, log x, log y)``.  A block is a list of layers ``(y column, label
# format, marker)``; each layer gives one series per group.
_GAMMA = "gamma = P/N"
_PLOTS = {
    "solve": {
        f"plot_{y}.svg": ("gamma", "lambda", [[(y, "ridge {}", False)]], f"{y} vs gamma", _GAMMA, y, True, logy)
        for y, logy in (("lambda_tilde", True), ("d_lambda_tilde", True), ("effective_dimension", False))
    },
    "calibrate": {
        "plot_calibrated_ridge.svg": ("gamma", "lambda_star", [[("lambda", "target {}", True)]],
                                      "explicit ridge reaching each target effective ridge", _GAMMA,
                                      "calibrated ridge", True, True),
    },
    "average-rf": {
        "plot_risk.svg": ("gamma", "lambda", [[("rf_mean_risk", "mean-RF risk, ridge {}", True),
                                               ("krr_risk", "KRR risk at eff. ridge {}", False)]],
                          "test risk: mean sampled predictor vs matched kernel predictor", _GAMMA,
                          "mean squared error", True, True),
        "plot_agreement.svg": ("gamma", "lambda", [[("mean_rf_vs_krr_rmse", "rmse, ridge {}", True)],
                                                   [("mc_band_rmse", "3 sigma band, ridge {}", False)]],
                               "mean predictor vs kernel predictor discrepancy", _GAMMA,
                               "rmse over the test grid", True, True),
    },
    "double-descent": {
        f"plot_{y}.svg": ("gamma", "lambda", [[(y, "ridge {}", True)]], f"{y} vs gamma", _GAMMA, y, True, True)
        for y in ("expected_risk", "mean_variance", "risk_of_mean")
    },
    "stieltjes": {
        "plot_mp_variance.svg": ("P", "lambda", [[("m_p_var", "z = -{}", True)]],
                                 "variance of the empirical Stieltjes transform", "P", "var m_P", True, True),
        "plot_mp_mean_gap.svg": ("P", "lambda", [[("abs_gap", "z = -{}", True)]],
                                 "mean of m_P vs deterministic limit", "P", "|mean m_P - m_tilde|", True, True),
    },
}


def _draw(rows, x, group, blocks, title, xlabel, ylabel, logx=False, logy=False) -> str:
    """One plot: the blocks one after another, the layers of a block alternating group by group."""
    series = []
    for layers in blocks:
        per_layer = [_series_by(rows, group, x, y, label, marker) for y, label, marker in layers]
        series += [s for per_group in zip(*per_layer) for s in per_group]
    return line_plot(series, title=title, xlabel=xlabel, ylabel=ylabel, logx=logx, logy=logy)


def _render_expected_a(rows):
    layers = [("d_tilde", "sampled, P = {:.0f}", True), ("d_theory", "limit, P = {:.0f}", False)]
    return {
        f"plot_hat_eigenvalues_ridge_{_tag(lam)}.svg": _draw(
            sub, "idx", "P", [layers], f"eigenvalues of the averaged hat matrix, ridge {lam}",
            "eigenvalue index", "eigenvalue")
        for lam, sub in _groups(rows, "lambda").items()
    }


def _render_predictor_fan(rows):
    plots = {}
    for lam, ridge_rows in _groups(rows, "lambda").items():
        for sub in _groups(ridge_rows, "gamma").values():
            test = sorted((r for r in sub if r["role"] == 0), key=lambda r: r["x"])
            train = [r for r in sub if r["role"] == 1]
            n_samples = len([c for c in test[0] if c.startswith("sample_")])
            series = [
                {
                    "label": f"sample {k}",
                    "x": [r["x"] for r in test],
                    "y": [r[f"sample_{k}"] for r in test],
                }
                for k in range(min(3, n_samples))
            ]
            series.append(
                {"label": "mean", "x": [r["x"] for r in test], "y": [r["mean_prediction"] for r in test]}
            )
            for sgn, lab in ((2.0, "mean + 2 std"), (-2.0, "mean - 2 std")):
                series.append(
                    {
                        "label": lab,
                        "x": [r["x"] for r in test],
                        "y": [r["mean_prediction"] + sgn * r["std_prediction"] for r in test],
                    }
                )
            series.append(
                {
                    "label": "training data",
                    "x": [r["x"] for r in train],
                    "y": [r["f_star"] for r in train],
                    "marker": True,
                }
            )
            P = int(sub[0]["P"])
            plots[f"plot_fan_P{P}_ridge_{_tag(lam)}.svg"] = line_plot(
                series,
                title=f"sampled predictors, P = {P}, ridge {lam}",
                xlabel="x",
                ylabel="prediction",
            )
    return plots


def render_plots(experiment: str, rows: list[dict]) -> dict[str, str]:
    """SVG documents keyed by filename, computed from results rows only.

    ``rows`` are as ``parse_results_csv`` returns them, so the plots are a
    pure function of ``results.csv``; ``cmd_run`` passes its rows in that
    form without reading the file back.
    """
    if experiment == "expected-a":
        return _render_expected_a(rows)
    if experiment == "predictor-fan":
        return _render_predictor_fan(rows)
    return {name: _draw(rows, *spec) for name, spec in _PLOTS[experiment].items()}


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def cmd_run(cfg: ExperimentConfig) -> dict[str, Path]:
    """Execute one experiment, write all artifacts, return their paths.

    The plots are drawn from the rows in memory, each converted as
    ``parse_results_csv`` would read it back from ``results.csv``, so they
    equal the plots of the written file without reading it.
    """
    validate_config(cfg)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    rows = _RUNNERS[cfg.experiment](cfg)
    columns = list(rows[0])
    results_path = out / "results.csv"
    write_results_csv(results_path, columns, rows)
    config_path = out / "config.json"
    _write_text_atomic(config_path, json.dumps(asdict(cfg), indent=2, sort_keys=True, default=float) + "\n")

    parsed = [_parsed_row(columns, [row[c] for c in columns]) for row in rows]
    artifacts = {"results": results_path, "config": config_path}
    for name, svg in render_plots(cfg.experiment, parsed).items():
        _write_text_atomic(out / name, svg)
        artifacts[name] = out / name
    return artifacts


class _Parser(argparse.ArgumentParser):
    """Usage errors are invalid input (exit 1), not argparse's exit 2."""

    def error(self, message):
        raise InvalidInputError(message)


def _number_list(kind):
    """An argparse type: comma-separated ``kind`` values, so an empty flag is a bad value."""
    def parse(text):
        return [kind(v) for v in text.split(",")]
    parse.__name__ = f"comma-separated {kind.__name__}"
    return parse


def report_failure(exc: EffridgeError | OSError) -> int:
    """Print ``error: ...`` for a failed run to stderr and return its exit code.

    1 for invalid configuration or input, 2 for an I/O failure, 3 for any
    other package error, which is numeric.
    """
    if isinstance(exc, InvalidInputError):
        kind, code = "invalid configuration", 1
    elif isinstance(exc, OSError):
        kind, code = "I/O failure", 2
    else:
        kind, code = "numeric failure", 3
    print(f"error: {kind}: {exc}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = _Parser(
        prog="effridge",
        description="Random-feature regression experiments: effective-ridge theory vs Monte Carlo.",
    )
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--config", help="JSON config file; flags override its values")
    parser.add_argument("--gamma", dest="gamma_grid", metavar="GAMMA", type=_number_list(float),
                        help="comma-separated gamma grid override")
    parser.add_argument("--p", dest="p_grid", type=_number_list(int),
                        help="comma-separated feature-count grid override")
    parser.add_argument("--lambda", dest="lambda_list", type=_number_list(float),
                        help="comma-separated ridge list override")
    parser.add_argument("--trials", type=int, help="Monte Carlo trials override")
    parser.add_argument("--seed", dest="base_seed", metavar="SEED", type=int, help="base seed override")
    parser.add_argument("--out", dest="output_dir", metavar="OUT", help="output directory override")

    try:
        overrides = vars(parser.parse_args(argv))
        cfg = load_config(overrides.pop("experiment"), overrides.pop("config"), **overrides)
        artifacts = cmd_run(cfg)
    except (EffridgeError, OSError) as exc:
        return report_failure(exc)
    for name, path in artifacts.items():
        print(f"{name}: {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
