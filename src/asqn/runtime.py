"""Real shared-memory asynchronous execution with W worker threads.

The master node of the message-passing formulation degenerates, on shared
memory, to a mutually exclusive apply section guarded by a lock.  Reads go
through a seqlock-style versioned snapshot: the version counter is bumped
before and after every apply, and a snapshot retries until it observes the
same even version on both sides of its copy, so no reader ever sees a torn
(theta, u, n) triple.
"""

from __future__ import annotations

import json
import os
import threading
import time as _time
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DivergenceError
from .model import MatrixFactorizationModel, draw_subsample, potential
from .model import rmse as model_rmse
from .sampler import (
    ParameterState,
    WorkerState,
    asgd_step,
    compute_update,
    post_send_memory_update,
)
from .simulator import TraceRecord


class SharedMasterState:
    """The master's (theta, u, n) with lock-exclusive applies and
    seqlock-consistent snapshots."""

    def __init__(self, theta0, u0=None):
        self.theta = np.array(theta0, dtype=float)
        self.u = np.zeros_like(self.theta) if u0 is None else np.array(u0, dtype=float)
        self.n = 0
        self.version = 0
        self.lock = threading.Lock()
        self.staleness_log: list = []
        self.stop = threading.Event()

    def snapshot(self):
        """Consistent (theta copy, u copy, n); never blocks applies."""
        while True:
            v1 = self.version
            if v1 & 1:
                continue
            theta = self.theta.copy()
            u = self.u.copy()
            n = self.n
            if self.version == v1:
                return theta, u, n

    def apply(self, upd, n_read, sample_every=0):
        """Exclusive accumulation; returns (n, staleness, sampled theta copy
        or None).  The copy is taken inside the critical section so sampled
        iterates are exact."""
        with self.lock:
            self.version += 1
            self.theta += upd.d_theta
            self.u += upd.d_u
            self.n += 1
            n = self.n
            staleness = n - 1 - n_read
            self.staleness_log.append((n, staleness))
            sampled = None
            if sample_every and n % sample_every == 0:
                sampled = self.theta.copy()
            ok = bool(np.isfinite(self.theta).all() and np.isfinite(self.u).all())
            self.version += 1
        if not ok:
            raise DivergenceError(f"non-finite iterate after update {n}", iteration=n)
        return n, staleness, sampled


@dataclass
class RunReport:
    wall_ms: float
    iterations: int
    max_staleness: int
    final_potential: float
    trace: list
    final_state: ParameterState
    staleness_log: list
    error: str | None = None

    def summary_json(self) -> str:
        return json.dumps(
            {
                "wall_ms": self.wall_ms,
                "iters": self.iterations,
                "max_staleness": self.max_staleness,
                "final_potential": self.final_potential,
            }
        )


def _thread_cap() -> int | None:
    cap = os.environ.get("ASQN_THREADS")
    return int(cap) if cap else None


def run(workers, sampler_cfg, model, algo="as-lbfgs", max_updates=1000, theta0=None,
        seed=0, sample_every=0, max_wall_s=None, staleness_limit=None) -> RunReport:
    """Run W worker threads against a shared master state.

    Each worker loops snapshot -> compute_update -> exclusive apply ->
    post-send memory update.  Stops after ``max_updates`` applies or
    ``max_wall_s`` seconds, or when any worker raises; the first such
    exception is reported as ``"<ExcType>: <message>"`` in ``error``.
    ``staleness_limit`` enables optional back-pressure: an update whose
    staleness would exceed the limit is discarded and recomputed from a
    fresh snapshot.
    """
    if workers < 1:
        raise ConfigError(f"need at least one worker, got {workers}")
    if algo not in ("as-lbfgs", "a-sgd"):
        raise ConfigError(f"unknown asynchronous algorithm {algo!r}")
    cap = _thread_cap()
    if cap is not None:
        workers = min(workers, cap)

    dim = model.dim
    master = SharedMasterState(np.zeros(dim) if theta0 is None else theta0)
    sampled: list = []  # (wall time, n, staleness, theta copy)
    sampled_lock = threading.Lock()
    errors: list = []
    t0 = _time.perf_counter()

    def worker_loop(w):
        rng = np.random.default_rng(seed + w)
        ws = WorkerState(sampler_cfg, dim)
        try:
            while not master.stop.is_set():
                theta, u, n_read = master.snapshot()
                snap = ParameterState(theta=theta, u=u, iteration=n_read)
                if algo == "as-lbfgs":
                    upd, ctx = compute_update(sampler_cfg, ws, snap, model, rng)
                else:
                    sub = draw_subsample(rng, model.n_records, sampler_cfg.n_s, sampler_cfg.n_o)
                    upd, ctx = asgd_step(theta, sampler_cfg.step, model, sub.combined), None
                if staleness_limit is not None and master.n - n_read > staleness_limit:
                    continue  # discard; recompute from a fresh snapshot
                if master.stop.is_set():
                    break
                n, staleness, theta_s = master.apply(upd, n_read, sample_every)
                if theta_s is not None:
                    with sampled_lock:
                        sampled.append((_time.perf_counter() - t0, n, staleness, theta_s))
                if ctx is not None:
                    post_send_memory_update(ws, ctx, model)
                if n >= max_updates:
                    master.stop.set()
                if max_wall_s is not None and _time.perf_counter() - t0 > max_wall_s:
                    master.stop.set()
        except Exception as exc:
            # the thread's boundary: any failure stops every worker and is
            # reported, so a broken run cannot pass for a finished one
            errors.append(f"{type(exc).__name__}: {exc}")
            master.stop.set()

    threads = [threading.Thread(target=worker_loop, args=(w,), daemon=True)
               for w in range(workers)]
    for th in threads:
        th.start()
    for th in threads:
        th.join(timeout=60.0)
    master.stop.set()
    wall_ms = (_time.perf_counter() - t0) * 1e3

    include_rmse = isinstance(model, MatrixFactorizationModel)
    trace = [
        TraceRecord(time=t, iteration=n, staleness=l,
                    potential=potential(model, th),
                    rmse=model_rmse(model, th) if include_rmse else None)
        for t, n, l, th in sorted(sampled, key=lambda rec: rec[1])
    ]
    final = ParameterState(theta=master.theta.copy(), u=master.u.copy(), iteration=master.n)
    return RunReport(
        wall_ms=wall_ms,
        iterations=master.n,
        max_staleness=max((l for _, l in master.staleness_log), default=0),
        final_potential=potential(model, final.theta),
        trace=trace,
        final_state=final,
        staleness_log=list(master.staleness_log),
        error=errors[0] if errors else None,
    )
