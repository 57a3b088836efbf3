"""Per-layer spans recorded from outside the package.

Layers are effridge's modules.  A traced pass wraps every function that
``cli``, ``montecarlo`` and ``stieltjes`` import from another effridge module,
plus ``cli``'s own entry point and CSV writer/reader and
``features.StreamSampler.__init__``/``.normal``; each call through a wrapper
becomes a span ``(name, start, end, parent, experiment, note)`` kept in
memory.  A span's self time is its duration minus that of its child spans
(spans of one caller nest strictly, so children never overlap).  The package
source is untouched: wrappers are installed on the module attributes for the
pass and removed after it.
"""

from __future__ import annotations

import inspect
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

import effridge.cli
import effridge.features
import effridge.montecarlo
import effridge.stieltjes

CALLERS = (effridge.cli, effridge.montecarlo, effridge.stieltjes)
CLI_OWN = ("cmd_run", "write_results_csv", "parse_results_csv")

# A call to spectral_decompose longer than this multiple of the run's median
# counts as an eigh stall.
STALL_FACTOR = 10.0

# Every per-layer metric with its unit, in the order of BENCHMARK.json.
PER_LAYER = [
    ("features.streams", "count"),
    ("features.stream_s", "s"),
    ("features.normals", "count"),
    ("features.boxmuller_s", "s"),
    ("features.gemm_s", "s"),
    ("features.gemm_gflop", "Gflop"),
    ("features.self_s", "s"),
    ("predictors.fit_calls", "count"),
    ("predictors.fit_s", "s"),
    ("predictors.fit_us_p50", "us"),
    ("predictors.fit_us_p99", "us"),
    ("predictors.ridgeless_fits", "count"),
    ("predictors.dual_fits", "count"),
    ("predictors.self_s", "s"),
    ("montecarlo.trials", "count"),
    ("montecarlo.self_s", "s"),
    ("kernels.gram_s", "s"),
    ("kernels.eigh_calls", "count"),
    ("kernels.eigh_s", "s"),
    ("kernels.eigh_ms_p50", "ms"),
    ("kernels.eigh_ms_max", "ms"),
    ("kernels.eigh_stalls", "count"),
    ("kernels.sqrt_s", "s"),
    ("kernels.self_s", "s"),
    ("effective_ridge.solves", "count"),
    ("effective_ridge.solve_s", "s"),
    ("effective_ridge.solve_us_p50", "us"),
    ("effective_ridge.solve_us_p99", "us"),
    ("effective_ridge.calibrate_s", "s"),
    ("effective_ridge.self_s", "s"),
    ("stieltjes.wishart_draws", "count"),
    ("stieltjes.wishart_s", "s"),
    ("stieltjes.expected_a_s", "s"),
    ("stieltjes.self_s", "s"),
    *[(f"cli.run_s.{name}", "s") for name in effridge.cli.EXPERIMENTS],
    ("cli.self_s", "s"),
    ("cli.rows", "count"),
    ("cli.csv_s", "s"),
    ("cli.csv_bytes", "bytes"),
    ("cli.svg_s", "s"),
    ("cli.svg_bytes", "bytes"),
    ("datasets.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.passes", "count"),
    ("trace.spans", "count"),
]

# Layers whose self time sums, with trace.unattributed_s, to trace.wall_s.
SELF_TIME_PARTS = [
    "features.self_s", "predictors.self_s", "montecarlo.self_s", "kernels.self_s",
    "effective_ridge.self_s", "stieltjes.self_s", "datasets.self_s",
    "cli.self_s", "cli.csv_s", "cli.svg_s",
]


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _fit_path(args, kwargs):
    F = _arg(args, kwargs, 0, "F_train")
    if _arg(args, kwargs, 2, "lam") == 0:
        return "ridgeless"
    return "dual" if F.shape[0] <= F.shape[1] else "primal"


# Per-call quantities kept with a span, keyed by span name.
NOTES = {
    # (M x M) @ (M x P): 2 M^2 P flops, computed from the shapes.
    "features.sample_gaussian_features": lambda a, k: (
        2.0 * np.shape(_arg(a, k, 0, "joint_sqrt"))[0] ** 2 * _arg(a, k, 1, "P")
    ),
    "features.StreamSampler.normal": lambda a, k: int(np.prod(_arg(a, k, 1, "shape"))),
    "predictors.fit_rf": _fit_path,
    "montecarlo.run_trials": lambda a, k: _arg(a, k, 5, "trials"),
}


class Tracer:
    """Span recorder for one traced pass; ``experiment`` tags the spans that follow."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.experiment = -1
        self._stack: list[int] = []

    def wrap(self, name, fn):
        spans, stack, clock, note = self.spans, self._stack, time.perf_counter, NOTES.get(name)

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.experiment,
                                note(args, kwargs) if note else None)

        return traced

    @contextmanager
    def installed(self):
        """Wrap the traced names for the duration of the block."""
        targets = []
        for module in CALLERS:
            for attr, obj in list(vars(module).items()):
                home = getattr(obj, "__module__", "") or ""
                if inspect.isfunction(obj) and home.startswith("effridge.") and home != module.__name__:
                    targets.append((module, attr, f"{home.split('.')[1]}.{obj.__name__}"))
        targets += [(effridge.cli, attr, f"cli.{attr}") for attr in CLI_OWN]
        sampler = effridge.features.StreamSampler
        targets += [(sampler, attr, f"features.StreamSampler.{attr}") for attr in ("__init__", "normal")]
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in targets]
        try:
            for owner, attr, name in targets:
                setattr(owner, attr, self.wrap(name, owner.__dict__[attr]))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def _part(name: str) -> str:
    """The self-time metric a span's self time is booked to."""
    if name == "cli.cmd_run":
        return "cli.self_s"
    if name in ("cli.write_results_csv", "cli.parse_results_csv"):
        return "cli.csv_s"
    layer = name.split(".")[0]
    return "cli.svg_s" if layer == "svgplot" else f"{layer}.self_s"


def summarize(spans: list[tuple], experiments: list[str], wall: float):
    """Additive per-layer metrics of one traced pass, plus per-call durations for percentiles."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    self_by = defaultdict(float)
    calls = defaultdict(int)
    notes = defaultdict(list)
    durations = defaultdict(list)
    m = defaultdict(float)
    root_total = 0.0
    for i, (name, start, end, parent, experiment, note) in enumerate(spans):
        own = end - start - child[i]
        self_by[name] += own
        calls[name] += 1
        m[_part(name)] += own
        if note is not None:
            notes[name].append(note)
        if name in ("predictors.fit_rf", "effective_ridge.solve_effective_ridge", "kernels.spectral_decompose"):
            durations[name].append(end - start)
        if parent < 0:
            root_total += end - start
            m[f"cli.run_s.{experiments[experiment]}"] += end - start

    m["features.streams"] = calls["features.StreamSampler.__init__"]
    m["features.stream_s"] = self_by["features.StreamSampler.__init__"]
    m["features.normals"] = sum(notes["features.StreamSampler.normal"])
    m["features.boxmuller_s"] = self_by["features.StreamSampler.normal"]
    m["features.gemm_s"] = self_by["features.sample_gaussian_features"]
    m["features.gemm_gflop"] = sum(notes["features.sample_gaussian_features"]) / 1e9
    m["predictors.fit_calls"] = calls["predictors.fit_rf"]
    m["predictors.fit_s"] = self_by["predictors.fit_rf"]
    m["predictors.ridgeless_fits"] = notes["predictors.fit_rf"].count("ridgeless")
    m["predictors.dual_fits"] = notes["predictors.fit_rf"].count("dual")
    m["montecarlo.trials"] = sum(notes["montecarlo.run_trials"])
    m["kernels.gram_s"] = self_by["kernels.gram_matrix"]
    m["kernels.eigh_calls"] = calls["kernels.spectral_decompose"]
    m["kernels.eigh_s"] = self_by["kernels.spectral_decompose"]
    m["kernels.sqrt_s"] = self_by["kernels.sqrt_gram"]
    m["effective_ridge.solves"] = calls["effective_ridge.solve_effective_ridge"]
    m["effective_ridge.solve_s"] = self_by["effective_ridge.solve_effective_ridge"]
    m["effective_ridge.calibrate_s"] = self_by["effective_ridge.calibrate_ridge"]
    m["stieltjes.wishart_draws"] = calls["stieltjes.sample_wishart"]
    m["stieltjes.wishart_s"] = self_by["stieltjes.sample_wishart"]
    m["stieltjes.expected_a_s"] = self_by["stieltjes.empirical_expected_A"]
    m["trace.wall_s"] = wall
    m["trace.unattributed_s"] = wall - root_total
    m["trace.spans"] = len(spans)
    return dict(m), durations


def percentile_metrics(durations: dict[str, list[float]]) -> dict[str, float]:
    """Per-call percentiles pooled over every traced pass of the run (0 where nothing was called)."""

    def pct(name, q, scale):
        d = durations.get(name)
        return float(np.percentile(d, q)) * scale if d else 0.0

    eigh = np.asarray(durations.get("kernels.spectral_decompose", []))
    p50 = float(np.median(eigh)) if eigh.size else 0.0
    return {
        "predictors.fit_us_p50": pct("predictors.fit_rf", 50, 1e6),
        "predictors.fit_us_p99": pct("predictors.fit_rf", 99, 1e6),
        "effective_ridge.solve_us_p50": pct("effective_ridge.solve_effective_ridge", 50, 1e6),
        "effective_ridge.solve_us_p99": pct("effective_ridge.solve_effective_ridge", 99, 1e6),
        "kernels.eigh_ms_p50": p50 * 1e3,
        "kernels.eigh_ms_max": float(eigh.max()) * 1e3 if eigh.size else 0.0,
        "kernels.eigh_stalls": int(np.sum(eigh > STALL_FACTOR * p50)) if eigh.size else 0,
    }
