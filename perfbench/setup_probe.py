"""Set-up of one benchmark process: import the package and resolve a workload's configs.

Usage: python3 perfbench/setup_probe.py <workload> <seed>

Prints ``time.monotonic()`` once set-up is done.  The caller reads the clock
just before starting this process, so the difference is the set-up time from
process start, excluding interpreter teardown.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (needs the package path above)

workloads.configs(sys.argv[1], int(sys.argv[2]), ROOT / ".bench_runs" / sys.argv[1])
print(repr(time.monotonic()))
