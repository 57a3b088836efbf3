"""Correctness checks of the benchmark: per-grid-point identities, the randomness
contract, and byte-for-byte reproducibility of ``results.csv``.

Every check is one attempt; ``failed / attempted`` is the run's
``check_fail_frac``.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np

from effridge.cli import ExperimentConfig, parse_results_csv
from effridge.features import SeedPolicy, StreamSampler, derive_stream_seed

# Fixed (base_seed, trial) pairs whose draws must never change.
CONTRACT_PAIRS = [(0, 0), (7, 3), (2**63 + 5, 499)]


class Tally:
    """Attempted and failed check counts plus the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)


def _point_ok(experiment: str, row: dict) -> bool:
    if experiment == "solve":
        lt = row["lambda_tilde"]
        return row["residual"] < 1e-12 * max(lt, 1.0) and lt >= row["lambda"]
    if experiment == "calibrate":
        return row["roundtrip_rel_error"] <= 1e-10
    if experiment == "average-rf":
        return row["mean_rf_vs_krr_rmse"] <= row["mc_band_rmse"]
    if experiment == "double-descent":
        total = row["risk_of_mean"] + row["mean_variance"]
        return abs(row["expected_risk"] - total) <= 1e-12 * max(abs(total), 1.0)
    if experiment == "stieltjes":
        return row["recip_identity_err"] <= 1e-12
    if experiment == "expected-a":
        # Eigenvalues of an averaged hat matrix and of its limit lie in [0, 1].
        return -1e-12 <= row["d_tilde"] <= 1.0 + 1e-12 and 0.0 < row["d_theory"] < 1.0
    if experiment == "predictor-fan":
        return row["std_prediction"] >= 0.0
    raise ValueError(f"no check for experiment {experiment!r}")


def check_results(cfg: ExperimentConfig, tally: Tally) -> int:
    """Check every grid point of one experiment's results.csv; returns its row count.

    Experiments that write one row per grid point are checked row by row;
    expected-a (one row per eigenvalue) and predictor-fan (one row per
    evaluation point) fail a grid point when any of its rows fails.
    """
    _, rows = parse_results_csv(Path(cfg.output_dir) / "results.csv")
    rows_per_point = cfg.experiment in ("expected-a", "predictor-fan")
    points: dict[tuple, bool] = defaultdict(lambda: True)
    for i, row in enumerate(rows):
        key = (row["P"], row["gamma"], row["lambda"]) if rows_per_point else (i,)
        points[key] = points[key] and _point_ok(cfg.experiment, row)
    for key, ok in points.items():
        tally.record(ok, f"{cfg.experiment}: grid point {key} failed its check")
    return len(rows)


def csv_digest(cfg: ExperimentConfig) -> str:
    return hashlib.sha256((Path(cfg.output_dir) / "results.csv").read_bytes()).hexdigest()


def _philox_raw(seed_pair: tuple[int, int], n: int) -> np.ndarray:
    """Raw Philox4x64 outputs of one trial stream, keyed as the contract publishes."""
    seed = derive_stream_seed(*seed_pair)
    mask = (1 << 64) - 1
    x = seed
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & mask
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & mask
    x = x ^ (x >> 31)
    key = np.array([seed, x], dtype=np.uint64)
    return np.random.Philox(key=key).random_raw(n)


def contract_digests(shapes: list[tuple[int, int]]) -> dict[str, dict[str, str]]:
    """sha256 of the raw stream and of ``W`` (shape P x M) for every fixed pair and shape."""
    out = {}
    for P, M in shapes:
        for pair in CONTRACT_PAIRS:
            n = P * M
            raw = _philox_raw(pair, 2 * ((n + 1) // 2))
            W = StreamSampler(SeedPolicy(*pair)).normal((P, M))
            out[f"P={P},M={M},seed={pair[0]},trial={pair[1]}"] = {
                "raw": hashlib.sha256(raw.astype("<u8").tobytes()).hexdigest(),
                "W": hashlib.sha256(W.astype("<f8").tobytes()).hexdigest(),
            }
    return out


def check_contract(shapes, recorded: dict, tally: Tally) -> None:
    for name, got in contract_digests(shapes).items():
        want = recorded.get(name)
        for part in ("raw", "W"):
            ok = want is not None and want[part] == got[part]
            tally.record(ok, f"randomness contract: {part} digest changed at {name}")


def source_fingerprint(src: Path) -> str:
    """Digest of the package source and numeric stack; reruns compare csv digests only within it."""
    h = hashlib.sha256(f"{np.__version__}|{sys.version}".encode())
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


class DigestLedger:
    """results.csv digests of earlier runs in this checkout, keyed by code, workload and seed."""

    def __init__(self, path: Path, prefix: str):
        self.path = path
        self.prefix = prefix
        self.entries = json.loads(path.read_text()) if path.exists() else {}

    def check(self, experiment: str, digest: str, tally: Tally) -> None:
        key = f"{self.prefix}:{experiment}"
        if key in self.entries:
            tally.record(
                self.entries[key] == digest,
                f"{experiment}: results.csv differs from an earlier run with the same code and seed",
            )
        else:
            self.entries[key] = digest

    def save(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_name(self.path.name + f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(self.entries, indent=1, sort_keys=True))
        os.replace(tmp, self.path)
