"""The experiment configs each benchmark workload runs, generated from the workload seed.

The configs are frozen here rather than read from ``scripts/configs`` so that
an edit to those files, or to the CLI defaults, does not silently change what
the benchmark measures.  The workload seed becomes every config's
``base_seed``; the grids themselves are fixed, so the same seed always gives
the same inputs.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from effridge.cli import ExperimentConfig, load_config

SINUSOID = {"type": "sinusoid", "n": 4, "n_test": 100}
RBF_2 = {"kind": "rbf", "lengthscale": 2.0}

# The seven configs of scripts/configs/*.json as shipped when the benchmark
# was defined; `scripts/run_all_experiments.py` runs exactly these.
SWEEP = [
    ("solve", dict(
        dataset={"type": "spectrum", "kind": "exponential", "n": 20},
        gamma_grid=[0.1, 0.16, 0.25, 0.4, 0.63, 0.8, 1.0, 1.25, 1.6, 2.5, 4.0, 6.3, 10.0],
        lambda_list=[1e-4, 1e-3, 1e-2, 1e-1, 0.5, 1.0],
        trials=1,
    )),
    ("calibrate", dict(
        dataset={"type": "spectrum", "kind": "exponential", "n": 20},
        gamma_grid=[0.25, 0.5, 1.0, 2.0, 4.0],
        lambda_list=[0.1, 0.5, 1.0, 2.0],
        trials=1,
    )),
    ("average-rf", dict(
        dataset=SINUSOID, kernel=RBF_2, gamma_grid=[0.5, 1.0, 2.0, 4.0],
        lambda_list=[0.1, 1.0], trials=500,
    )),
    ("double-descent", dict(
        dataset=SINUSOID, kernel=RBF_2, gamma_grid=[0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 4.0],
        lambda_list=[1e-4, 0.5], trials=1000,
    )),
    ("stieltjes", dict(
        dataset={"type": "spectrum", "kind": "exponential", "n": 50},
        p_grid=[50, 100, 200, 400], lambda_list=[1.0], trials=200,
    )),
    ("expected-a", dict(
        dataset={"type": "spectrum", "kind": "exponential", "n": 10},
        p_grid=[10, 50, 200], lambda_list=[1e-2], trials=500,
    )),
    ("predictor-fan", dict(
        dataset=SINUSOID, kernel=RBF_2, gamma_grid=[0.5, 1.0, 2.5, 25.0],
        lambda_list=[1e-4, 0.1], trials=500,
    )),
]

# Clusters with N=100 train and 100 test points (M=200 in the joint Gram) and
# P=50..400: the same layers as the sweep, but arithmetic-bound.
CLUSTERS = {"type": "clusters", "n": 100, "n_test": 100, "dim": 5}
RBF_5 = {"kind": "rbf", "lengthscale": 5.0}
MC_LARGE = [
    ("average-rf", dict(
        dataset=CLUSTERS, kernel=RBF_5, gamma_grid=[0.5, 1.0, 2.0, 4.0],
        lambda_list=[0.1, 1.0], trials=200,
    )),
    ("double-descent", dict(
        dataset=CLUSTERS, kernel=RBF_5, gamma_grid=[0.5, 1.0, 2.0, 4.0],
        lambda_list=[0.1], trials=200,
    )),
]

# Only effective-ridge solves, nothing sampled: a 40 x 40 solve grid and 40
# gammas x 25 calibration targets on a 2000-eigenvalue polynomial spectrum.
POLY_2000 = {"type": "spectrum", "kind": "polynomial", "n": 2000}
THEORY_GRID = [
    ("solve", dict(
        dataset=POLY_2000,
        gamma_grid=np.geomspace(0.05, 20.0, 40).tolist(),
        lambda_list=np.geomspace(1e-4, 1.0, 40).tolist(),
        trials=1,
    )),
    ("calibrate", dict(
        dataset=POLY_2000,
        gamma_grid=np.geomspace(0.05, 20.0, 40).tolist(),
        lambda_list=np.geomspace(1e-2, 2.0, 25).tolist(),
        trials=1,
    )),
]

WORKLOADS = {"sweep": SWEEP, "mc-large": MC_LARGE, "theory-grid": THEORY_GRID}

# (P, M) shapes of feature draws whose randomness contract each workload
# checks: the sinusoid joint Gram (M=104) at its largest P's, the Wishart
# draws (P x N=50) of the Stieltjes experiment, and the clusters joint Gram.
CONTRACT_SHAPES = {
    "sweep": [(16, 104), (100, 104), (400, 50)],
    "mc-large": [(50, 200), (400, 200)],
    "theory-grid": [],
}


def configs(workload: str, seed: int, out_root: Path) -> list[ExperimentConfig]:
    """Resolved configs of one workload, each writing under ``out_root/<experiment>``."""
    return [
        load_config(experiment, None, base_seed=seed, output_dir=str(out_root / experiment), **fields)
        for experiment, fields in WORKLOADS[workload]
    ]


def grid_points(cfg: ExperimentConfig) -> int:
    """Grid points an experiment attempts: one per (ridge, gamma or P) pair."""
    grid = cfg.p_grid if cfg.experiment in ("stieltjes", "expected-a") else cfg.gamma_grid
    return len(grid) * len(cfg.lambda_list)


def feature_draws(cfg: ExperimentConfig) -> int:
    """Feature matrices an experiment samples (the Stieltjes draws are shared across ridges)."""
    if cfg.experiment in ("solve", "calibrate"):
        return 0
    if cfg.experiment == "stieltjes":
        return cfg.trials * len(cfg.p_grid)
    return cfg.trials * grid_points(cfg)
