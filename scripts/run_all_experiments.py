#!/usr/bin/env python3
"""Run every experiment at desk scale into results/.

Each experiment gets its default configuration unless a JSON file with the
same name exists under scripts/configs/, in which case that file is used.
Pass --quick to shrink trial counts for a fast smoke run.  A failure ends the
run with the exit codes of the ``effridge`` command: 1 for invalid
configuration or input (a malformed flag included), 2 for an I/O failure, 3
for a numeric failure, each with an ``error: ...`` line on stderr.
"""

import sys
import time
from pathlib import Path

from effridge.cli import EXPERIMENTS, _Parser, cmd_run, load_config, report_failure
from effridge.errors import EffridgeError

CONFIG_DIR = Path(__file__).resolve().parent / "configs"


def main() -> int:
    parser = _Parser(description=__doc__)
    parser.add_argument("--out", default="results", help="base output directory")
    parser.add_argument("--seed", type=int, default=None, help="base seed override")
    parser.add_argument("--quick", action="store_true", help="cut trial counts to 20")

    try:
        args = parser.parse_args()
        for experiment in EXPERIMENTS:
            config_path = CONFIG_DIR / f"{experiment}.json"
            overrides = dict(output_dir=str(Path(args.out) / experiment), base_seed=args.seed)
            if args.quick and experiment not in ("solve", "calibrate"):
                overrides["trials"] = 20
            cfg = load_config(
                experiment,
                config_path if config_path.exists() else None,
                **overrides,
            )
            t0 = time.monotonic()
            artifacts = cmd_run(cfg)
            print(f"{experiment}: {len(artifacts)} artifacts in {artifacts['results'].parent} "
                  f"({time.monotonic() - t0:.1f}s)")
    except (EffridgeError, OSError) as exc:
        return report_failure(exc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
