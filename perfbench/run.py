#!/usr/bin/env python3
"""effridge benchmark: whole experiments through ``effridge.cli.cmd_run``.

Usage, from the repository root:

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 36 --trace 0

One process runs the workload's experiments in sequence (a closed loop with
one caller) and repeats that pass until ``--seconds`` is spent; BLAS threads
stay as found.  The first pass is a warm-up and is not timed.  Untraced passes
run the calibration kernel (calibration.py) before every experiment, for
CALIBRATION_SHARE of the experiment's time in the previous pass; ``wall_cal``
is the mean pass time over the mean kernel-run time, both over the run's
timed passes.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics.
Every pass is checked (see checks.py).  Human-readable lines come first; the
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Artifacts, spans and the environment record go
to ``.bench_runs/<workload>/``.  ``--record-contract`` rewrites
``contract_digests.json`` from the current code and exits.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import calibration

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"
CONTRACT_FILE = BENCH / "contract_digests.json"
WORKLOADS = ("sweep", "mc-large", "theory-grid")
# Calibration time before an experiment, as a share of its time in the previous pass.
CALIBRATION_SHARE = 0.1
# Fresh processes timed for setup_s; the median is reported.
SETUP_PROBES = 7
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, default="sweep")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-contract", action="store_true")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in 64 unsigned bits")
    return args


def measure_setup(workload: str, seed: int) -> list[float]:
    times = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.split()[-1]) - start)
    return times


def _blas(module) -> str:
    try:
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')}"


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas(numpy),
        "scipy_blas": _blas(scipy),
        "cpu_count": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "thread_vars_as_found": {v: os.environ.get(v) for v in THREAD_VARS},
        "loadavg_at_start": list(os.getloadavg()),
        "pinning": "cores and CPU frequency not pinned; machine settings are off-limits",
    }


class Runner:
    """Runs and checks passes of one workload."""

    def __init__(self, cli, checks, workloads, cfgs, tally, ledger):
        self.cli, self.checks, self.workloads = cli, checks, workloads
        self.cfgs, self.tally, self.ledger = cfgs, tally, ledger
        self.first_digests: dict[str, str] | None = None
        self.rows: dict[str, int] = {}
        self.experiment_walls: list[list[float]] = []

    def run_pass(self, tracer=None) -> tuple[float, float]:
        """One pass over every experiment, then checks of its outputs.

        Returns the pass time (the experiments only) and, for an untraced
        pass after the first, the mean time of one calibration kernel run
        (0.0 otherwise).
        """
        failed = set()
        times, cal_s, cal_runs = [], 0.0, 0
        last = self.experiment_walls[-1] if self.experiment_walls else None
        for i, cfg in enumerate(self.cfgs):
            if tracer is not None:
                tracer.experiment = i
            elif last is not None:
                spent, runs = calibration.calibrate(CALIBRATION_SHARE * last[i])
                cal_s += spent
                cal_runs += runs
            start = time.perf_counter()
            try:
                self.cli.cmd_run(cfg)
            except Exception:  # a raising experiment fails its grid points; the run goes on
                traceback.print_exc()
                failed.add(i)
            times.append(time.perf_counter() - start)
        if tracer is None:
            self.experiment_walls.append(times)
        self._check(failed)
        return sum(times), cal_s / cal_runs if cal_runs else 0.0

    def _check(self, failed: set[int]) -> None:
        digests = {}
        for i, cfg in enumerate(self.cfgs):
            if i in failed:
                for _ in range(self.workloads.grid_points(cfg)):
                    self.tally.record(False, f"{cfg.experiment}: experiment raised")
                continue
            self.rows[cfg.experiment] = self.checks.check_results(cfg, self.tally)
            digests[cfg.experiment] = self.checks.csv_digest(cfg)
        if self.first_digests is None:
            self.first_digests = digests
            for name, digest in digests.items():
                self.ledger.check(name, digest, self.tally)
            return
        for name, digest in digests.items():
            self.tally.record(
                self.first_digests.get(name) == digest,
                f"{name}: results.csv differs between passes of one run",
            )

    def output_sizes(self) -> dict[str, int]:
        csv_bytes = svg_bytes = 0
        for cfg in self.cfgs:
            out = Path(cfg.output_dir)
            csv_bytes += (out / "results.csv").stat().st_size
            svg_bytes += sum(p.stat().st_size for p in out.glob("*.svg"))
        return {"cli.rows": sum(self.rows.values()), "cli.csv_bytes": csv_bytes, "cli.svg_bytes": svg_bytes}


def end_to_end(runner, walls, cals, setup_times) -> tuple[dict, dict]:
    """Metrics gated by BENCHMARK.json, and the raw pass time and throughput, which are only printed."""
    wall = statistics.median(walls)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        # Means, not medians: numerator and denominator then average the same stretch of time.
        "wall_cal": (statistics.mean(walls) / statistics.mean(cals), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    printed = {"wall_s": (wall, "s"), "calibration_s": (statistics.median(cals), "s")}
    # A workload that samples is measured in feature draws; one that does not, in solves.
    draws = sum(runner.workloads.feature_draws(cfg) for cfg in runner.cfgs)
    if draws:
        return metrics, {**printed, "trials_per_s": (draws / wall, "1/s")}
    solves = runner.rows.get("solve", 0) + runner.rows.get("calibrate", 0)
    return metrics, {**printed, "solves_per_s": (solves / wall, "1/s")}


def per_layer(runner, tracing, tracers, traced_walls, untraced_walls) -> dict:
    passes, durations = [], {}
    for tracer, wall in zip(tracers, traced_walls):
        summary, calls = tracing.summarize(tracer.spans, [c.experiment for c in runner.cfgs], wall)
        passes.append(summary)
        for name, values in calls.items():
            durations.setdefault(name, []).extend(values)
    metrics = {}
    for name, unit in tracing.PER_LAYER:
        values = [p.get(name, 0.0) for p in passes]
        metrics[name] = (statistics.median(values), unit)
    for name, value in tracing.percentile_metrics(durations).items():
        metrics[name] = (value, metrics[name][1])
    for name, value in runner.output_sizes().items():
        metrics[name] = (value, metrics[name][1])
    metrics["trace.overhead_s"] = (statistics.median(traced_walls) - statistics.median(untraced_walls), "s")
    metrics["trace.passes"] = (len(traced_walls), "count")
    # Trace integrity: the layers' self times and the unattributed gap make up the traced wall.
    for p in passes:
        total = sum(p.get(part, 0.0) for part in tracing.SELF_TIME_PARTS) + p["trace.unattributed_s"]
        runner.tally.record(
            abs(total - p["trace.wall_s"]) <= 1e-6 * max(1.0, p["trace.wall_s"]),
            f"trace integrity: self times sum to {total:.6f} s, traced wall is {p['trace.wall_s']:.6f} s",
        )
    return metrics


def write_spans(path: Path, tracers) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("pass,index,name,start,end,parent,experiment,note\n")
        for k, tracer in enumerate(tracers):
            for i, (name, start, end, parent, experiment, note) in enumerate(tracer.spans):
                fh.write(f"{k},{i},{name},{start!r},{end!r},{parent},{experiment},{'' if note is None else note}\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "effridge" / "__init__.py").is_file():
        print(f"error: no effridge package under {SRC}; run from a full source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    setup_times = [] if args.trace or args.record_contract else measure_setup(args.workload, args.seed)

    import effridge.cli as cli

    import checks
    import tracing
    import workloads

    if args.record_contract:
        shapes = sorted({s for shapes in workloads.CONTRACT_SHAPES.values() for s in shapes})
        CONTRACT_FILE.write_text(json.dumps(checks.contract_digests(shapes), indent=1, sort_keys=True) + "\n")
        print(f"wrote {CONTRACT_FILE}")
        return 0

    out_root = RUNS / args.workload
    shutil.rmtree(out_root, ignore_errors=True)
    out_root.mkdir(parents=True)
    cfgs = workloads.configs(args.workload, args.seed, out_root)
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))

    tally = checks.Tally()
    recorded = json.loads(CONTRACT_FILE.read_text())
    checks.check_contract(workloads.CONTRACT_SHAPES[args.workload], recorded, tally)
    prefix = f"{checks.source_fingerprint(SRC / 'effridge')}:{args.workload}:{args.seed}"
    ledger = checks.DigestLedger(RUNS / "csv_digests.json", prefix)
    runner = Runner(cli, checks, workloads, cfgs, tally, ledger)

    walls, cals, traced_walls, tracers, rounds = [], [], [], [], []
    start = time.perf_counter()
    warmup, _ = runner.run_pass()
    print(f"pass warm-up wall_s={warmup!r}", flush=True)
    while True:
        round_start = time.perf_counter()
        wall, cal = runner.run_pass()
        walls.append(wall)
        cals.append(cal)
        print(f"pass untraced wall_s={wall!r} calibration_s={cal!r}", flush=True)
        if args.trace:
            tracer = tracing.Tracer()
            with tracer.installed():
                traced_walls.append(runner.run_pass(tracer)[0])
            tracers.append(tracer)
            print(f"pass traced wall_s={traced_walls[-1]!r}", flush=True)
        now = time.perf_counter()
        rounds.append(now - round_start)
        # Stop when another round, checks and calibration included, would overrun --seconds.
        if now - start + statistics.median(rounds) > args.seconds:
            break
    ledger.save()

    if args.trace:
        metrics = per_layer(runner, tracing, tracers, traced_walls, walls)
        write_spans(out_root / "spans.csv", tracers)
        shown = metrics
    else:
        metrics, extra = end_to_end(runner, walls, cals, setup_times)
        shown = {**metrics, **extra}
    check_fail_frac = tally.failed / tally.attempted
    for name, (value, unit) in shown.items():
        print(f"metric {name} = {value!r} {unit}")
    print(f"metric check_fail_frac = {check_fail_frac!r} ratio ({tally.failed} of {tally.attempted} checks)")
    for message in tally.messages:
        print(f"check failed: {message}", file=sys.stderr)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "env": env, "setup_s_samples": setup_times, "warmup_wall": warmup, "untraced_walls": walls,
        "calibrations": cals, "traced_walls": traced_walls,
        "experiment_walls": runner.experiment_walls,
        "loadavg_at_end": list(os.getloadavg()), "check_fail_frac": check_fail_frac,
        "failures": tally.messages, "metrics": {k: v for k, (v, _) in shown.items()},
    }
    (out_root / "run.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
