"""Command-line entry point.

    optimize --config <path> [--mode simulate|run] [--out <dir>] [--seed <u64>]

Exit codes: 0 success, 1 configuration error, 2 numerical divergence,
3 a worker of a ``--mode run`` experiment failed.
"""

from __future__ import annotations

import argparse
import sys

from .errors import ConfigError, DivergenceError, WorkerError
from .experiments import load_config, run_experiment


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="optimize",
        description="Run simulated or shared-memory asynchronous optimization experiments.",
    )
    parser.add_argument("--config", required=True, help="path to a JSON experiment config")
    parser.add_argument("--mode", choices=["simulate", "run"], help="override the config's mode")
    parser.add_argument("--out", help="output directory for traces and the summary")
    parser.add_argument("--seed", type=int, help="override the base seed")
    args = parser.parse_args(argv)

    overrides = {}
    if args.mode:
        overrides["mode"] = args.mode
    if args.seed is not None:
        overrides["base_seed"] = args.seed
    try:
        cfg = load_config(args.config, overrides)
        summary = run_experiment(cfg, out_dir=args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except DivergenceError as exc:
        print(f"numerical divergence: {exc}", file=sys.stderr)
        return 2
    except WorkerError as exc:
        print(f"worker failed: {exc}", file=sys.stderr)
        return 3
    algos = ", ".join(summary["algorithms"])
    print(f"done: mode={summary['mode']} algorithms=[{algos}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
