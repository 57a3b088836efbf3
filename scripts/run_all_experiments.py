#!/usr/bin/env python3
"""Run every experiment at desk scale into results/.

Each experiment runs its default configuration, which its output directory
echoes as config.json.  Pass --quick to cap the trial count of every
experiment at 20 for a fast smoke run.  A failure ends the run with
the exit codes of the ``effridge`` command: 1 for invalid configuration or
input (a malformed flag included), 2 for an I/O failure, 3 for a numeric
failure, each with an ``error: ...`` line on stderr.
"""

import sys
import time
from pathlib import Path

from effridge.cli import EXPERIMENTS, _Parser, cmd_run, default_config, load_config, report_failure
from effridge.errors import EffridgeError


def main() -> int:
    parser = _Parser(description=__doc__)
    parser.add_argument("--out", default="results", help="base output directory")
    parser.add_argument("--seed", type=int, default=None, help="base seed override")
    parser.add_argument("--quick", action="store_true", help="cap trial counts at 20")

    try:
        args = parser.parse_args()
        for experiment in EXPERIMENTS:
            overrides = dict(output_dir=str(Path(args.out) / experiment), base_seed=args.seed)
            if args.quick:
                overrides["trials"] = min(default_config(experiment).trials, 20)
            cfg = load_config(experiment, None, **overrides)
            t0 = time.monotonic()
            artifacts = cmd_run(cfg)
            print(f"{experiment}: {len(artifacts)} artifacts in {artifacts['results'].parent} "
                  f"({time.monotonic() - t0:.1f}s)")
    except (EffridgeError, OSError) as exc:
        return report_failure(exc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
