"""Deterministic discrete-event simulator of (a)synchronous distributed
optimization.

The simulator is single-threaded: it only decides WHICH snapshot each
worker computes on and at what virtual time each update lands at the
master.  The parameter trajectory is therefore exactly the serial
trajectory induced by that interleaving, and identical (cfg, seed) pairs
produce bit-identical traces.

Compute times are log-normal with the distribution's mean and standard
deviation given directly by (mu, sigma); communication costs tau per
message leg; the master is a serial FIFO resource charging mu_master per
applied update.
"""

from __future__ import annotations

import heapq
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, check_count
from .model import rmse as model_rmse
from .model import (
    MatrixFactorizationModel,
    Subsample,
    combined_gradient,
    draw_subsample,
    potential,
)
from .sampler import WORKER_UPDATES, MbLbfgsMaster, ParameterState, WorkerState, master_apply


@dataclass
class SimConfig:
    """Timing parameters of the simulated cluster (generic base time units)."""

    workers: int = 1
    mu_master: float = 0.0
    mu_worker: float = 1.0
    sigma_worker: float = 0.0
    comm_time: float = 0.0
    timeout: float = math.inf  # synchronous-round timeout, mb-L-BFGS only
    max_updates: int = 1000
    max_time: float = math.inf
    seed: int = 0
    sample_every: int = 1
    wait_for_stragglers: bool = True  # mb only; see run_sync_mb

    def __post_init__(self):
        check_count("workers", self.workers)
        check_count("max_updates", self.max_updates, minimum=0)
        check_count("sample_every", self.sample_every)
        if self.mu_master < 0 or self.mu_worker < 0 or self.comm_time < 0:
            raise ConfigError("times must be nonnegative")
        if self.sigma_worker < 0:
            raise ConfigError("sigma_worker must be nonnegative")
        if self.max_updates == 0:
            if math.isinf(self.max_time):
                raise ConfigError("horizon required: set max_updates or max_time")
            if self.mu_worker == self.mu_master == self.comm_time == 0:
                # virtual time would never advance, so max_time never passes
                raise ConfigError("a time-only horizon needs a positive mu_worker, "
                                  "mu_master or comm_time")

    @property
    def update_limit(self) -> float:
        """The update count at which an engine stops: ``max_updates``, or no
        limit when it is 0 and ``max_time`` alone is the horizon."""
        return self.max_updates or math.inf


@dataclass
class TraceRecord:
    time: float
    iteration: int
    staleness: int
    potential: float
    rmse: float | None = None


@dataclass
class SimResult:
    """What every engine returns: the simulators and :func:`asqn.runtime.run`."""

    trace: list
    final_state: ParameterState
    staleness_log: list  # (iteration, staleness) for every applied update
    truncated: bool = False
    included_log: list = field(default_factory=list)  # workers aggregated per mb round
    final_potential: float | None = None  # potential(model, final_state.theta)
    wall_ms: float | None = None  # run mode only
    error: str | None = None  # run mode only: "<ExcType>: <message>" of the first failure

    @property
    def iterations(self) -> int:
        return self.final_state.iteration

    @property
    def max_staleness(self) -> int:
        return max((l for _, l in self.staleness_log), default=0)

    @property
    def final_time(self) -> float:
        return self.trace[-1].time if self.trace else 0.0


def sample_compute_time(rng, mu: float, sigma: float) -> float:
    """Log-normal draw with mean mu and standard deviation sigma."""
    if mu < 0:
        raise ValueError(f"mu must be nonnegative, got {mu}")
    if mu == 0.0:
        return 0.0
    if sigma == 0.0:
        return float(mu)
    s2 = math.log(1.0 + (sigma / mu) ** 2)
    m = math.log(mu) - 0.5 * s2
    return float(rng.lognormal(mean=m, sigma=math.sqrt(s2)))


def _record(trace, model, state, time, staleness, include_rmse):
    trace.append(
        TraceRecord(
            time=time,
            iteration=state.iteration,
            staleness=staleness,
            potential=potential(model, state.theta),
            rmse=model_rmse(model, state.theta) if include_rmse else None,
        )
    )


class Recorder:
    """Records one engine run and returns its :class:`SimResult`.

    It decides whether records carry the RMSE, keeps the staleness log and
    applies the sampling rule: :meth:`apply` logs every apply and records
    the state every ``sample_every`` applies.  The simulators also record
    the initial state and :meth:`close` the trace at the final one; the
    runtime's parent records the rows its workers sampled with
    :meth:`sample`."""

    def __init__(self, model, sample_every):
        self.model = model
        self.sample_every = sample_every
        self.include_rmse = isinstance(model, MatrixFactorizationModel)
        self.trace: list = []
        self.staleness_log: list = []

    def sample(self, state, time, staleness):
        _record(self.trace, self.model, state, time, staleness, self.include_rmse)

    def apply(self, state, time, staleness):
        """Log the apply that produced ``state``; record every
        ``sample_every``-th."""
        self.staleness_log.append((state.iteration, staleness))
        if state.iteration % self.sample_every == 0:
            self.sample(state, time, staleness)

    def result(self, state, **fields) -> SimResult:
        return SimResult(trace=self.trace, final_state=state, staleness_log=self.staleness_log,
                         final_potential=potential(self.model, state.theta), **fields)

    def close(self, state, time, **fields) -> SimResult:
        """Record ``state`` unless the trace already ends there, with the
        last apply's staleness; return the result."""
        if self.trace[-1].iteration != state.iteration:
            self.sample(state, time, self.staleness_log[-1][1] if self.staleness_log else 0)
        return self.result(state, **fields)


def run_async(sim_cfg: SimConfig, sampler_cfg, model, algo="as-lbfgs", theta0=None) -> SimResult:
    """Event loop for the asynchronous algorithms (as-L-BFGS, a-SGD and SGLD).

    Each worker cycles receive -> compute -> send; the master serializes
    applies FIFO by arrival with the (time, worker, sequence) tie-break.
    A worker gets its fresh snapshot only in reply to its own send, so its
    staleness accrues from the other workers' applies in between.  Every
    update comes from :data:`~asqn.sampler.WORKER_UPDATES`, which also
    advances an as-L-BFGS worker's memory before the master applies the
    update, the order the runtime's workers follow too.  At W = 1 with
    ``sigma_worker`` 0 and the SGLD update this is serial SGLD: update n
    lands at n * (mu_worker + 2 * comm_time + mu_master).

    Every receive schedules an arrive and every arrive a receive, so the
    event heap always holds one event per worker and the loop ends only at
    the update or time horizon.  An arrive whose apply would end after
    ``max_time`` is not applied, and the run is truncated there.  Master
    states are never mutated, so a reply carries the post-apply state
    itself rather than a copy.

    The schedule depends only on the timing generators, so a popped
    receive draws its compute time and schedules its arrive at once, but
    its update is computed later: the first arrive whose update is not yet
    computed computes every such deferred receive in one stacked call.
    Only receives already popped are computed, each worker on its own
    generator and memory, so traces are bit-identical to computing each
    receive at its pop, given a numpy/BLAS build whose stacked kernels
    match the one-dimensional ones (the tests check this).  Errors keep
    event order: a failing deferred compute raises the error of the
    earliest receive, a failing apply first computes the receives popped
    before it (whose error comes first), and the receives still deferred
    at the horizon are computed before returning.
    """
    if algo not in WORKER_UPDATES:
        raise ConfigError(f"unknown asynchronous algorithm {algo!r}")
    worker_updates = WORKER_UPDATES[algo]
    dim = model.dim
    state = ParameterState.zeros(dim)
    if theta0 is not None:
        state.theta = np.asarray(theta0, dtype=float).copy()

    time_rngs = [np.random.default_rng((sim_cfg.seed, w, 1)) for w in range(sim_cfg.workers)]
    samp_rngs = [np.random.default_rng(sim_cfg.seed + w) for w in range(sim_cfg.workers)]
    workers = [WorkerState(sampler_cfg, dim) for _ in range(sim_cfg.workers)]

    rec = Recorder(model, sim_cfg.sample_every)
    rec.sample(state, 0.0, 0)

    # heap entries: (time, worker, seq, kind, payload)
    heap: list = []
    seq = 0
    master_busy_until = 0.0
    deferred: list = []  # (worker, snapshot) of popped receives not yet computed, in pop order
    ready: list = [None] * sim_cfg.workers  # computed update of each worker's pending arrive

    def push(time, worker, kind, payload):
        nonlocal seq
        heapq.heappush(heap, (time, worker, seq, kind, payload))
        seq += 1

    def compute_deferred():
        if not deferred:
            return
        batch, snapshots = zip(*deferred)
        deferred.clear()
        updates = worker_updates(sampler_cfg, [workers[w] for w in batch], snapshots, model,
                                 [samp_rngs[w] for w in batch])
        for w, upd in zip(batch, updates):
            ready[w] = upd

    for w in range(sim_cfg.workers):
        push(sim_cfg.comm_time, w, "receive", state.copy())

    truncated = False
    while True:
        t, w, _, kind, payload = heapq.heappop(heap)
        if t > sim_cfg.max_time:
            truncated = True
            break
        if kind == "receive":
            c = sample_compute_time(time_rngs[w], sim_cfg.mu_worker, sim_cfg.sigma_worker)
            deferred.append((w, payload))
            push(t + c + sim_cfg.comm_time, w, "arrive", payload.iteration)
        elif kind == "arrive":
            # the master serves arrivals one at a time, in event order
            done = max(t, master_busy_until) + sim_cfg.mu_master
            if done > sim_cfg.max_time:  # the apply would end past the horizon
                truncated = True
                break
            if ready[w] is None:
                compute_deferred()
            upd, ready[w] = ready[w], None
            upd.staleness = state.iteration - payload
            try:
                state = master_apply(state, upd)
                master_busy_until = done
                rec.apply(state, master_busy_until, upd.staleness)
            except Exception:
                compute_deferred()  # the receives popped before this apply fail first
                raise
            push(master_busy_until + sim_cfg.comm_time, w, "receive", state)
            if state.iteration >= sim_cfg.update_limit:
                break
    compute_deferred()
    return rec.close(state, master_busy_until, truncated=truncated)


def run_sync_mb(sim_cfg: SimConfig, mb_master: MbLbfgsMaster, sampler_cfg, model,
                theta0=None) -> SimResult:
    """Synchronous multi-batch rounds.

    Per round the master broadcasts theta (tau), each worker draws a
    compute time and a subsample, and only gradients whose compute time is
    within the round timeout are aggregated; stragglers' work is discarded.
    All gradients of a round are taken at the same theta, so the kept
    subsamples are stacked in worker order and evaluated in one call.

    With ``wait_for_stragglers`` (default) the next broadcast waits for the
    whole cohort, so round wall time is max(compute) + mu_master + 2*tau;
    otherwise the round closes at the timeout and the wall time is
    min(timeout, max compute) + mu_master + 2*tau.  A round that would end
    after ``max_time`` is not applied, and the run is truncated there.
    """
    if not math.isfinite(sim_cfg.timeout):
        raise ConfigError("run_sync_mb requires a finite timeout")
    # a compute time is exactly mu_worker when sigma_worker is 0 and positive
    # otherwise; if none can meet the timeout, no round ever aggregates
    if sim_cfg.mu_worker > sim_cfg.timeout and (sim_cfg.sigma_worker == 0
                                                or sim_cfg.timeout <= 0):
        raise ConfigError(
            f"no worker can meet the round timeout {sim_cfg.timeout:g} "
            f"(mu_worker {sim_cfg.mu_worker:g}, sigma_worker {sim_cfg.sigma_worker:g})")
    dim = model.dim
    theta = np.zeros(dim) if theta0 is None else np.asarray(theta0, dtype=float).copy()
    time_rngs = [np.random.default_rng((sim_cfg.seed, w, 1)) for w in range(sim_cfg.workers)]
    samp_rngs = [np.random.default_rng(sim_cfg.seed + w) for w in range(sim_cfg.workers)]

    rec = Recorder(model, sim_cfg.sample_every)
    state = ParameterState(theta=theta, u=np.zeros(dim), iteration=0)
    rec.sample(state, 0.0, 0)

    t = 0.0
    n = 0
    truncated = False
    included_log: list = []

    while n < sim_cfg.update_limit:
        times = [
            sample_compute_time(time_rngs[w], sim_cfg.mu_worker, sim_cfg.sigma_worker)
            for w in range(sim_cfg.workers)
        ]
        # every worker draws its subsample, kept or not, so each stream
        # advances as it would on a real cluster
        subs = [draw_subsample(rng, model.n_records, sampler_cfg.n_s, sampler_cfg.n_o)
                for rng in samp_rngs]
        kept = [sub for sub, c in zip(subs, times) if c <= sim_cfg.timeout]
        if sim_cfg.wait_for_stragglers:
            wait = max(times)
        else:
            wait = min(sim_cfg.timeout, max(times))
        if kept:
            end = t + (2 * sim_cfg.comm_time + wait + sim_cfg.mu_master)
        else:
            end = t + (2 * sim_cfg.comm_time + wait)
        if end > sim_cfg.max_time:  # the round would close past the horizon
            truncated = True
            break
        t = end
        included_log.append(len(kept))
        if not kept:
            continue
        stacked = Subsample(s_indices=np.stack([sub.s_indices for sub in kept]),
                            o_indices=np.stack([sub.o_indices for sub in kept]))
        grads = combined_gradient(model, state.theta, stacked)
        theta = mb_master.round(state.theta, grads, stacked.o_indices.ravel(), model)
        n += 1
        state = ParameterState(theta=theta, u=state.u, iteration=n)
        rec.apply(state, t, 0)
    return rec.close(state, t, truncated=truncated, included_log=included_log)


def time_to_epsilon(trace, u_star: float, eps: float):
    """First virtual time at which (U - U*)/U* <= eps, or None.

    When U* = 0 the relative criterion is undefined; falls back to the
    absolute criterion U <= eps with a warning."""
    if u_star == 0.0:
        warnings.warn("U* is zero; using absolute criterion U <= eps", stacklevel=2)
        for rec in trace:
            if rec.potential <= eps:
                return rec.time
        return None
    for rec in trace:
        if (rec.potential - u_star) / u_star <= eps:
            return rec.time
    return None


def write_trace_csv(trace, path):
    """CSV trace: header time,n,staleness,potential[,rmse], 12 significant
    digits, '.' decimal separator."""
    with_rmse = any(rec.rmse is not None for rec in trace)
    with open(path, "w") as fh:
        fh.write("time,n,staleness,potential,rmse\n" if with_rmse
                 else "time,n,staleness,potential\n")
        for rec in trace:
            row = f"{rec.time:.12g},{rec.iteration},{rec.staleness},{rec.potential:.12g}"
            if with_rmse:
                row += f",{rec.rmse:.12g}"
            fh.write(row + "\n")
