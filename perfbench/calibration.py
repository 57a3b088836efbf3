"""A fixed calibration kernel that measures how fast the machine is right now.

On a shared host the speed of a core drifts by tens of percent, in phases that
last from under a second to minutes.  Before every experiment of an untraced
pass the benchmark runs this kernel for a share of the experiment's time, and
it reports the mean pass time divided by the mean time of one kernel run.  The
passes and the kernel run on the same core a moment apart, so the drift
cancels in the ratio, while a change to the package moves it in full.

The kernel never calls effridge, so no change to the package moves it.  It
mixes three kinds of work the workloads are bound by, all single-threaded: a
pure Python loop (interpreter speed), many numpy calls on small arrays
(per-call overhead) and Box-Muller-style transcendental math on an array that
fits in cache (vector arithmetic).  It allocates nothing large, so the
placement of big arrays in memory, which differs from process to process,
does not move it.  Its inputs are fixed, not drawn from ``--seed``.
"""

from __future__ import annotations

import time

import numpy as np

_SMALL = np.linspace(-1.0, 1.0, 16)
_UNIFORM = np.linspace(1e-3, 1.0, 4096)


def _kernel() -> float:
    acc = 0.0
    for i in range(30000):
        acc += i * i % 7
    x = _SMALL
    for _ in range(1000):
        acc += float(np.dot(x, np.sqrt(np.abs(x) + 1.0)))
    u = _UNIFORM
    for _ in range(40):
        acc += float((np.sqrt(-2.0 * np.log(u)) * np.cos(u)).sum())
    return acc


def calibrate(budget: float) -> tuple[float, int]:
    """Run the kernel until ``budget`` seconds have passed, at least once.

    Returns the seconds spent and the number of kernel runs; one run takes
    about 10 ms on a 2-CPU Xeon VM.
    """
    start = time.perf_counter()
    runs = 0
    while True:
        _kernel()
        runs += 1
        spent = time.perf_counter() - start
        if spent >= budget:
            return spent, runs
