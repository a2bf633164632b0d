"""In-memory span tracer installed from outside the library.

Wrappers go where each name is bound: a function is replaced in every
``asqn`` module that holds it (``asqn.simulator`` and ``asqn.runtime``
import ``compute_update`` and friends by name, ``asqn.sampler`` imports the
gradient helpers), and methods are replaced on their classes.  A span is
``(span_id, parent_id, run_id, name, start_ns, end_ns, note)``; the parent
stack is per thread, so worker threads of ``asqn.runtime`` start their own
trees.  Wrappers only read arguments and results, so they draw nothing
from any generator and leave the iterates alone.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import threading
import time
from collections import defaultdict

import asqn
from asqn import experiments, lbfgs, model, runtime, sampler, simulator

MODULES = (asqn, model, lbfgs, sampler, simulator, runtime, experiments)

ENGINES = ("simulator.run_async", "simulator.run_sync_mb", "experiments.run_sgld_serial",
           "runtime.run")


def _rows(args, result):
    indices = args[2] if len(args) > 2 else None
    return args[0].n_records if indices is None else len(indices)


def _steady_worker(args, result):
    # compute_update(cfg, worker, ...) leaves local_iter alone;
    # post_send_memory_update(worker, ...) has just incremented it.
    return args[1].local_iter >= 1


def _steady_post_send(args, result):
    return args[0].local_iter >= 2


# (defining module, attribute, span name, note(args, result) or None)
FUNCTIONS = (
    (model, "draw_subsample", "model.draw_subsample", None),
    (model, "combined_gradient", "model.combined_gradient", None),
    (model, "stochastic_gradient", "model.stochastic_gradient", None),
    (model, "potential", "model.potential", None),
    (model, "rmse", "model.rmse", None),
    (sampler, "compute_update", "sampler.compute_update", _steady_worker),
    (sampler, "post_send_memory_update", "sampler.post_send_memory_update", _steady_post_send),
    (sampler, "master_apply", "sampler.master_apply", None),
    (sampler, "asgd_step", "sampler.asgd_step", None),
    (sampler, "sgld_step", "sampler.sgld_step", None),
    (simulator, "run_async", "simulator.run_async", None),
    (simulator, "run_sync_mb", "simulator.run_sync_mb", None),
    (simulator, "time_to_epsilon", "simulator.time_to_epsilon", None),
    (simulator, "write_trace_csv", "experiments.write_trace_csv", lambda a, r: len(a[0])),
    (runtime, "run", "runtime.run", lambda a, r: a[0]),
    (experiments, "run_experiment", "experiments.run_experiment", None),
    (experiments, "validate_config", "experiments.validate_config", None),
    (experiments, "build_problem", "experiments.build_problem", None),
    (experiments, "synth_linear_gaussian", "experiments.synth_linear_gaussian", None),
    (experiments, "synth_matrix_factorization", "experiments.synth_matrix_factorization", None),
    (experiments, "run_sgld_serial", "experiments.run_sgld_serial", None),
)

METHODS = (
    (model.LinearGaussianModel, "likelihood_grad_sum", "model.likelihood_grad_sum", _rows),
    (model.MatrixFactorizationModel, "likelihood_grad_sum", "model.likelihood_grad_sum", _rows),
    (lbfgs.LbfgsMemory, "apply", "lbfgs.apply", lambda a, r: len(a[0]) / a[0].capacity),
    (lbfgs.LbfgsMemory, "try_add", "lbfgs.try_add", lambda a, r: r),
    (sampler.MbLbfgsMaster, "round", "sampler.mb_round", None),
    (sampler.ParameterState, "copy", "sampler.state_copy", None),
    (runtime.SharedMasterState, "snapshot", "runtime.snapshot", None),
    (runtime.SharedMasterState, "apply", "runtime.apply", None),
)


def bindings():
    """Every (owner, attribute) -> object the tracer may replace; used to
    check that a traced run restores all of them."""
    out = {}
    for mod, attr, _, _ in FUNCTIONS:
        fn = getattr(mod, attr)
        for m in MODULES:
            for name, value in vars(m).items():
                if value is fn:
                    out[(m.__name__, name)] = value
    for cls, attr, _, _ in METHODS:
        out[(cls.__qualname__, attr)] = cls.__dict__[attr]
    return out


class Tracer:
    """Records spans while installed (``with tracer:``) and restores every
    replaced binding on exit."""

    def __init__(self):
        self.spans: list = []
        self.run_id = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: list = []

    def _wrap(self, fn, name, note):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            local = tracer._local
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else 0
            sid = next(tracer._ids)
            stack.append(sid)
            extra = None
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    extra = note(args, result)
                return result
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                tracer.spans.append((sid, parent, tracer.run_id, name, t0, t1, extra))

        return wrapper

    def __enter__(self):
        for mod, attr, name, note in FUNCTIONS:
            fn = getattr(mod, attr)
            wrapper = self._wrap(fn, name, note)
            for m in MODULES:
                for bound, value in list(vars(m).items()):
                    if value is fn:
                        self._saved.append((m, bound, fn))
                        setattr(m, bound, wrapper)
        for cls, attr, name, note in METHODS:
            fn = cls.__dict__[attr]
            self._saved.append((cls, attr, fn))
            setattr(cls, attr, self._wrap(fn, name, note))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)
        return False

    def write(self, path):
        """Write every span as one tab-separated line (gzip)."""
        with gzip.open(path, "wt") as fh:
            fh.write("run\tspan\tparent\tname\tstart_ns\tend_ns\tnote\n")
            for sid, parent, run, name, t0, t1, extra in self.spans:
                fh.write(f"{run}\t{sid}\t{parent}\t{name}\t{t0}\t{t1}\t{extra}\n")


def _pct(values, q):
    if not values:
        return 0.0
    ordered = sorted(values)
    return float(ordered[min(len(ordered) - 1, int(q * len(ordered)))])


# one span per master update, whichever engine applies it
UPDATE_SPANS = ("sampler.master_apply", "runtime.apply", "sampler.mb_round", "sampler.sgld_step")


def layer_metrics(spans) -> dict:
    """Per-layer figures from the spans of the traced repetitions.

    Per-update figures divide by the master updates those repetitions
    applied; a layer that does no work on a workload reports 0.  Per-update
    counts of the worker hot path are taken over steady-state as-lbfgs
    worker updates: each worker's first update has no previous curvature
    pair, so it is left out of both numerator and denominator.
    """
    info = {sid: (parent, name, extra) for sid, parent, _, name, _, _, extra in spans}
    child_ns: dict = defaultdict(int)
    for sid, parent, _, _, t0, t1, _ in spans:
        if parent:
            child_ns[parent] += t1 - t0
    total = defaultdict(int)
    self_ns = defaultdict(int)
    count = defaultdict(int)
    for sid, _, _, name, t0, t1, _ in spans:
        total[name] += t1 - t0
        self_ns[name] += t1 - t0 - child_ns[sid]
        count[name] += 1
    updates = sum(count[name] for name in UPDATE_SPANS)

    def ancestor(sid, names):
        parent = info[sid][0]
        while parent:
            p_parent, p_name, p_extra = info[parent]
            if p_name in names:
                return p_name, p_extra
            parent = p_parent
        return None, None

    worker_spans = ("sampler.compute_update", "sampler.post_send_memory_update")
    steady = sum(1 for _, name, extra in info.values()
                 if name == "sampler.compute_update" and extra)

    def per_update(name, weight=lambda extra: 1):
        """Count (or summed note) of ``name`` per update."""
        if steady:
            acc = 0
            for sid, (_, n, extra) in info.items():
                if n == name and ancestor(sid, worker_spans)[1]:
                    acc += weight(extra)
            return acc / steady
        acc = sum(weight(extra) for _, n, extra in info.values() if n == name)
        return acc / updates if updates else 0.0

    def us_per_update(*names, self_time=False):
        src = self_ns if self_time else total
        return sum(src[n] for n in names) / 1e3 / updates if updates else 0.0

    def mean_us(*names):
        c = sum(count[n] for n in names)
        return sum(total[n] for n in names) / 1e3 / c if c else 0.0

    # trace evaluation: potential/rmse calls made by an engine, per sample
    eval_ns, eval_samples = 0, 0
    for sid, _, _, name, t0, t1, _ in spans:
        if name in ("model.potential", "model.rmse") and ancestor(sid, ENGINES)[0]:
            eval_ns += t1 - t0
            eval_samples += name == "model.potential"

    def under_mb(name):
        return sum(1 for p, n, _ in info.values()
                   if n == name and p and info[p][1] == "simulator.run_sync_mb")

    # gradients a synchronous round aggregated / subsamples its workers drew
    mb_drawn, mb_used = under_mb("model.draw_subsample"), under_mb("model.combined_gradient")
    attempted = count["lbfgs.try_add"]
    admitted = sum(1 for _, n, extra in info.values() if n == "lbfgs.try_add" and extra)
    fills = [extra for _, n, extra in info.values() if n == "lbfgs.apply" and extra is not None]

    builds = [t1 - t0 for sid, parent, _, name, t0, t1, _ in spans
              if name in ("experiments.build_problem", "experiments.synth_linear_gaussian",
                          "experiments.synth_matrix_factorization")
              and not (parent and info[parent][1] == "experiments.build_problem")]
    csv_rows = sum(extra or 0 for _, n, extra in info.values()
                   if n == "experiments.write_trace_csv")
    engine_in_experiment = sum(
        t1 - t0 for sid, parent, _, name, t0, t1, _ in spans
        if name in ENGINES and ancestor(sid, ("experiments.run_experiment",))[0])

    return {
        "model.grad_calls_per_update": per_update("model.likelihood_grad_sum"),
        "model.grad_us_per_update": us_per_update("model.likelihood_grad_sum"),
        "model.grad_rows_per_update": per_update("model.likelihood_grad_sum", lambda e: e or 0),
        "model.subsample_us_per_update": us_per_update("model.draw_subsample"),
        "model.trace_eval_us_per_sample": eval_ns / 1e3 / eval_samples if eval_samples else 0.0,
        "lbfgs.apply_calls_per_update": per_update("lbfgs.apply"),
        "lbfgs.apply_us_per_update": us_per_update("lbfgs.apply"),
        "lbfgs.try_add_us_per_update": us_per_update("lbfgs.try_add"),
        "lbfgs.admit_ratio": admitted / attempted if attempted else 0.0,
        "lbfgs.admitted": admitted,
        "lbfgs.attempted": attempted,
        "lbfgs.fill_mean": sum(fills) / len(fills) if fills else 0.0,
        "sampler.compute_self_us_per_update": us_per_update("sampler.compute_update",
                                                            self_time=True),
        "sampler.post_send_self_us_per_update": us_per_update("sampler.post_send_memory_update",
                                                              self_time=True),
        "sampler.master_apply_us_per_update": us_per_update("sampler.master_apply"),
        "sampler.mb_round_us_per_round": mean_us("sampler.mb_round"),
        "sampler.baseline_step_us": mean_us("sampler.asgd_step", "sampler.sgld_step"),
        "simulator.loop_self_us_per_update": us_per_update(
            "simulator.run_async", "simulator.run_sync_mb", "experiments.run_sgld_serial",
            self_time=True),
        "simulator.state_copies_per_update": count["sampler.state_copy"] / updates
        if updates else 0.0,
        "simulator.mb_included_ratio": mb_used / mb_drawn if mb_drawn else 0.0,
        "experiments.build_problem_s": sum(builds) / 1e9 / len(builds) if builds else 0.0,
        "experiments.trace_csv_us_per_row": total["experiments.write_trace_csv"] / 1e3 / csv_rows
        if csv_rows else 0.0,
        "experiments.engine_share": engine_in_experiment / total["experiments.run_experiment"]
        if total["experiments.run_experiment"] else 0.0,
    }


def runtime_metrics(spans) -> dict:
    """Snapshot/apply latency percentiles of the W=2 passes and the
    inflation of compute_update time from W=1 to W=2.

    Worker threads start their own span trees, so spans are assigned to a
    ``runtime.run`` call by time interval; ``runtime.run`` notes its
    worker count."""
    passes = [(extra, t0, t1) for _, _, _, name, t0, t1, extra in spans
              if name == "runtime.run"]
    by_workers = defaultdict(lambda: defaultdict(list))
    for _, _, _, name, t0, t1, _ in spans:
        if name in ("runtime.snapshot", "runtime.apply", "sampler.compute_update"):
            for workers, p0, p1 in passes:
                if p0 <= t0 <= p1:
                    by_workers[workers][name].append((t1 - t0) / 1e3)
                    break
    w1, w2 = by_workers[1], by_workers[2]
    c1, c2 = w1["sampler.compute_update"], w2["sampler.compute_update"]
    return {
        "runtime.snapshot_us_p50": _pct(w2["runtime.snapshot"], 0.50),
        "runtime.snapshot_us_p99": _pct(w2["runtime.snapshot"], 0.99),
        "runtime.apply_us_p50": _pct(w2["runtime.apply"], 0.50),
        "runtime.apply_us_p99": _pct(w2["runtime.apply"], 0.99),
        "runtime.compute_inflation_w2": (sum(c2) / len(c2)) / (sum(c1) / len(c1))
        if c1 and c2 else 0.0,
    }
