"""asqn benchmark: one workload per call, or every workload briefly.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke

Runs from the root of a source checkout and imports ``asqn`` from its
``src/``.  Human-readable lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``).  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

REF_ITERS = 20_000
# setup_s is quoted at a nominal host whose reference loop takes this long
NOMINAL_REF_US = 5.0
MAX_TRACED_REPS = 4  # bounds the spans kept in memory


def _pin_threads():
    # one BLAS thread per process, so W worker threads never exceed nproc
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("ASQN_THREADS", None)


def _ref_loop(a, v, threads=1, iters=REF_ITERS) -> float:
    """Wall microseconds per iteration of a fixed numpy loop, the host
    yardstick, shared out over as many threads as the workload runs."""

    def loop():
        for _ in range(iters // threads):
            (a.T @ (a @ v)).sum()

    pool = [threading.Thread(target=loop) for _ in range(threads - 1)]
    t0 = time.perf_counter()
    for th in pool:
        th.start()
    loop()
    for th in pool:
        th.join()
    return (time.perf_counter() - t0) * 1e6 / iters


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _tail(values):
    """Highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n <= 10:
        return None, None
    p = 1.0 - 10.0 / n
    return 100 * p, sorted(values)[int(p * n)]


class Run:
    """Reference checks and failure counts of one benchmark run."""

    def __init__(self, refs, compare, rtol):
        self.refs = refs  # stored records by sub-seed
        self.compare = compare
        self.rtol = rtol
        self.seen: dict = {}
        self.quality: dict = {}
        self.attempted = self.failed = self.diverged = 0
        self.identical = self.tolerated = 0
        self.mismatches: list = []

    def check(self, seed, outcome):
        """Count one operation; compare its record with the stored
        reference on first sight and bit-for-bit with that first
        occurrence afterwards."""
        self.attempted += 1
        reason = None
        first = self.seen.setdefault(seed, outcome)
        if first is not outcome:
            if first.record != outcome.record:
                reason = self.compare(first.record, outcome.record, 0.0) or "hash differs"
        elif str(seed) in self.refs:
            stored = self.refs[str(seed)]
            if stored == outcome.record:
                self.identical += 1
            else:
                reason = self.compare(stored, outcome.record, self.rtol)
                self.tolerated += reason is None
        if first is outcome:
            self.quality[seed] = {} if outcome.error else outcome.quality
        if reason:
            self.mismatches.append(f"sub-seed {seed}: {reason}")
        if outcome.error or reason:
            self.failed += 1
            self.diverged += bool(outcome.error and outcome.error.startswith("DivergenceError"))


def bench(wl, seed, seconds, trace, emit=print):
    from asqn import __file__ as asqn_file
    import numpy as np
    import tracer as tr
    import workloads as wk

    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"tmp-{os.getpid()}"
    scratch.mkdir(exist_ok=True)
    subseeds = [seed * wl.subseeds + i for i in range(wl.subseeds)]
    refs = {}
    ref_path = HERE / "references.json"
    if ref_path.exists():
        stored = json.loads(ref_path.read_text()).get(wl.name, {})
        if stored.get("fingerprint") == wk.fingerprint(wl.params):
            refs = stored["runs"]
    run = Run(refs, wk.compare, wk.RTOL)

    emit(f"# workload {wl.name}  seed {seed}  sub-seeds {subseeds}  trace {trace}  "
         f"asqn {Path(asqn_file).parent}")
    emit(f"# references stored for {sum(str(s) in refs for s in subseeds)} of "
         f"{len(subseeds)} sub-seeds (rtol {wk.RTOL:g})")

    yard = np.random.default_rng(12345).standard_normal((40, 100)), np.ones(100)

    def timed_setup():
        # a short single-threaded reference loop right before each set-up
        # scales its wall time to the nominal host
        ref = _ref_loop(*yard, iters=REF_ITERS // 10)
        t0 = time.perf_counter()
        ctx = wl.setup(wl.params, str(scratch))
        wall = time.perf_counter() - t0
        setup_raw.append(wall)
        setup_times.append(wall * NOMINAL_REF_US / ref)
        return ctx

    # one set-up before the first update, then one before each repetition,
    # so the median samples the whole run rather than its first moments
    setup_times, setup_raw = [], []
    ctx = timed_setup()
    tracer = tr.Tracer() if trace else None
    if tracer:
        with tracer:
            ctx = wl.setup(wl.params, str(scratch))
    warm = wl.run(ctx, subseeds[0])  # warm caches and lazy set-up; not timed
    run.check(subseeds[0], warm)

    reps = []  # (traced, ref_us, us_per_update, outcomes)
    cursor = 0
    ref_us = _ref_loop(*yard, wl.threads)
    t_start = time.perf_counter()
    while True:
        batch = [subseeds[(cursor + i) % len(subseeds)] for i in range(wl.batch)]
        cursor += wl.batch
        traced = bool(tracer) and len(reps) % 2 == 1 and \
            sum(r[0] for r in reps) < MAX_TRACED_REPS
        outcomes = []
        for s in batch:
            if traced:
                tracer.run_id = len(reps)
                with tracer:
                    out = wl.run(ctx, s)
            else:
                out = wl.run(ctx, s)
            run.check(s, out)
            outcomes.append((s, out))
        # the yardstick is the mean of the reference loops just before and
        # just after the repetition; the latter also opens the next one
        ref_before, ref_us = ref_us, _ref_loop(*yard, wl.threads)
        # a diverged run's updates up to the divergence are real work: time them too
        done = [o for _, o in outcomes if o.updates]
        if done:
            us = sum(o.seconds for o in done) * 1e6 / sum(o.updates for o in done)
            reps.append((traced, (ref_before + ref_us) / 2, us, outcomes))
        timed_setup()
        elapsed = time.perf_counter() - t_start
        # stop only after whole cycles, so every sub-seed has run equally often
        whole_cycles = cursor % len(subseeds) == 0
        enough = not tracer or (any(r[0] for r in reps) and any(not r[0] for r in reps))
        if (whole_cycles and enough and elapsed >= seconds) or elapsed > 5 * max(seconds, 10):
            break

    plain = [r for r in reps if not r[0]]
    costs = [us / ref for _, ref, us, _ in plain]
    raw = [us for _, _, us, _ in plain]
    refs_us = [ref for _, ref, _, _ in reps]
    quality = {key: wk.median([q.get(key) for q in run.quality.values()])
               for key in ("time_to_eps_vt", "final_rel_gap", "final_rmse")}
    setup_s = statistics.median(setup_times)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def line(name, value, unit, note=""):
        shown = "n/a" if value is None else f"{value:.6g}"
        emit(f"{name:<34} {shown:>12} {unit:<16} {note}")

    q1, q3 = _quartiles(costs) if costs else (None, None)
    tail_p, tail_v = _tail(costs)
    tail = f", p{tail_p:.0f} {tail_v:.4g}" if tail_p else ""
    line("update_cost_ref", statistics.median(costs) if costs else None, "ref-iter/update",
         f"median of {len(costs)} reps; p25 {q1:.4g}, p75 {q3:.4g}{tail}" if costs else "")
    line("host.us_per_update_raw", statistics.median(raw) if raw else None, "us")
    line("host.ref_loop_us", statistics.median(refs_us) if refs_us else None, "us",
         f"{REF_ITERS} x (A.T @ (A @ v)).sum(), A 40x100, on {wl.threads} thread(s)")
    line("setup_s", setup_s, "s",
         f"median of {len(setup_times)}, at {NOMINAL_REF_US:g} us per reference iteration")
    line("host.setup_s_raw", statistics.median(setup_raw), "s", "wall, median")
    line("time_to_eps_vt", quality["time_to_eps_vt"], "vt",
         f"median over sub-seeds, (U-U*)/U* <= {wk.EPS:g}")
    line("final_rel_gap", quality["final_rel_gap"], "1", "median over sub-seeds")
    line("final_rmse", quality["final_rmse"], "1", "median over sub-seeds")
    line("failed_frac", run.failed / run.attempted, "1",
         f"{run.failed} failed of {run.attempted} attempted ({run.diverged} diverged, "
         f"{len(run.mismatches)} mismatched)")
    line("peak_rss_mb", rss_mb, "MB")
    emit(f"# reference check: {run.identical} bit-identical, {run.tolerated} within rtol, "
         f"{len(run.mismatches)} mismatched")
    for reason in run.mismatches[:5]:
        emit(f"# mismatch {reason}")

    correct = not run.mismatches
    if not trace:
        if not costs:
            raise SystemExit(f"{wl.name}: no run completed; nothing to report")
        metrics = {
            "update_cost_ref": (statistics.median(costs), "ref-iter/update"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
    else:
        traced_reps = [r for r in reps if r[0]]
        traced_cost = statistics.median(us / ref for _, ref, us, _ in traced_reps)
        layer = tr.layer_metrics(tracer.spans)
        layer.update(tr.runtime_metrics(tracer.spans))
        w1 = [us / o.extra["w1_us_per_update"] for _, _, us, outs in plain for _, o in outs
              if "w1_us_per_update" in o.extra]
        staleness = [s for _, _, _, outs in reps for _, o in outs
                     for s in o.extra.get("staleness", ())]
        layer.update({
            "runtime.w2_over_w1": statistics.median(w1) if w1 else 0.0,
            "runtime.staleness_p50": tr._pct(staleness, 0.50),
            "runtime.staleness_p99": tr._pct(staleness, 0.99),
            "runtime.staleness_max": float(max(staleness, default=0)),
            "host.ref_loop_us": statistics.median(refs_us),
            "host.us_per_update_raw": statistics.median(raw),
            "trace.overhead_frac": traced_cost / statistics.median(costs) - 1.0,
        })
        units = {m["name"]: m["unit"] for m in
                 json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
        metrics = {name: (float(layer[name]), units[name]) for name in units}
        for name, (value, unit) in metrics.items():
            line(name, value, unit)
        spans_path = OUT / f"spans-{wl.name}-seed{seed}.tsv.gz"
        tracer.write(spans_path)
        emit(f"# {len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")

    scratch.rmdir()
    return {"correct": correct, "attempted": run.attempted, "failed": run.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def environment() -> str:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"# env nproc={os.cpu_count()} affinity={len(os.sched_getaffinity(0))} "
            f"python={platform.python_version()} numpy={np.__version__} "
            f"blas={blas.get('name')} {blas.get('version')} "
            f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']} "
            f"benchmark threads<=2 (main + W=2 runtime workers)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload briefly, untraced and traced")
    args = parser.parse_args(argv)

    if not (SRC / "asqn" / "__init__.py").is_file():
        print(f"error: no asqn sources under {SRC}", file=sys.stderr)
        return 2
    _pin_threads()
    sys.path.insert(0, str(SRC))
    import asqn
    import workloads as wk

    if Path(asqn.__file__).resolve().parent != SRC / "asqn":
        print(f"error: imported asqn from {asqn.__file__}, not {SRC}", file=sys.stderr)
        return 2
    print(environment())
    if args.smoke:
        ok = True
        for wl in wk.WORKLOADS.values():
            for trace in (0, 1):
                result = bench(wk.smoke(wl), 0, 0.0, trace)
                ok &= result["correct"]
                print(json.dumps({"workload": wl.name, **result}))
        return 0 if ok else 1
    if args.workload not in wk.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(wk.WORKLOADS)}")
    result = bench(wk.WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
