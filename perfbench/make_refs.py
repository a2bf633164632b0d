"""Regenerate perfbench/references.json.

    python3 perfbench/make_refs.py [--seeds 40] [--workload NAME ...]

For each workload and each benchmark ``--seed`` in ``range(seeds)``, runs
every sub-seed once through the library with the workload's configuration
and stores the output record the benchmark compares against.  Records are
keyed by a fingerprint of the configuration, so a changed configuration
simply has no stored reference.  Regenerate only for a change that is
meant to alter trajectories, and say so in that change.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import HERE, OUT, SRC, _pin_threads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=40)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args(argv)
    _pin_threads()
    sys.path.insert(0, str(SRC))
    import workloads as wk

    path = HERE / "references.json"
    refs = json.loads(path.read_text()) if path.exists() else {}
    OUT.mkdir(exist_ok=True)
    for name in args.workload or list(wk.WORKLOADS):
        wl = wk.WORKLOADS[name]
        ctx = wl.setup(wl.params, str(OUT))
        runs = {}
        for seed in range(args.seeds * wl.subseeds):
            out = wl.run(ctx, seed)
            runs[str(seed)] = out.record
            print(f"{name} sub-seed {seed}: {out.error or 'ok'}", flush=True)
        refs[name] = {"fingerprint": wk.fingerprint(wl.params), "runs": runs}
    path.write_text(json.dumps(refs, separators=(",", ":"), sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
