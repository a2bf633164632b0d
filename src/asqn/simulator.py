"""Deterministic discrete-event simulator of (a)synchronous distributed
optimization.

The schedule decides which snapshot each worker computes on and at what
virtual time each update lands at the master, so the trajectory is the
serial one of that interleaving and identical (cfg, seed) pairs give
bit-identical traces.  Compute times are log-normal with mean and
standard deviation (mu, sigma); communication costs tau per message leg;
the master is a serial FIFO resource charging mu_master per applied
update.  A :func:`replay` computes its workers' updates through
:class:`asqn.owners.WorkerOwners`, which may split them across processes
with the results of one process, bit for bit.
"""

from __future__ import annotations

import heapq
import math
import warnings
from collections.abc import Sized
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, check_count
from .model import Subsample, combined_gradient, draw_subsample
from .owners import WorkerOwners
from .sampler import WORKER_UPDATES, MbLbfgsMaster, ParameterState, master_apply, worker_draws_noise


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
        if not (self.mu_master >= 0 and self.mu_worker >= 0 and self.comm_time >= 0):
            raise ConfigError("times must be nonnegative")
        if not self.sigma_worker >= 0:
            raise ConfigError("sigma_worker must be nonnegative")
        if not self.max_time > 0:  # no update would run, and the run would pass as truncated
            raise ConfigError(f"max_time must be positive, got {self.max_time}")
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
    # run mode only: each worker's (n_read, n or None) per compute; None if its report was lost
    compute_logs: list | None = None

    @property
    def iterations(self) -> int:
        return self.final_state.iteration

    @property
    def max_staleness(self) -> int:
        return max((l for _, l in self.staleness_log), default=0)

    @property
    def final_time(self) -> float:
        return self.trace[-1].time if self.trace else 0.0

    @property
    def schedule(self) -> list | None:
        """Run mode: the events for :func:`replay`, apply n followed by the
        starts that read its state; an apply carries no time (None).  Raises
        ``ValueError`` where a worker's report, and so its applies, was
        lost."""
        if self.compute_logs is None:
            return None
        slots = [[] for _ in range(2 * self.iterations + 2)]  # apply n, then its readers
        for w, log in enumerate(self.compute_logs):
            if log is None:
                raise ValueError(f"no schedule: the report of worker {w} was lost")
            for n_read, n in log:
                slots[2 * n_read + 1].append(("start", w, n_read))
                if n is not None:
                    slots[2 * n].append(("apply", w, None))
        return [event for slot in slots for event in slot] + [("end", False, None)]


def _log_normal(mu: float, sigma: float):
    """Mean and standard deviation of the normal whose exponential has mean
    mu and standard deviation sigma."""
    s2 = math.log(1.0 + (sigma / mu) ** 2)
    return math.log(mu) - 0.5 * s2, math.sqrt(s2)


# A worker's draws come in blocks: at most BLOCK_ROWS rows per generator
# call, and no more rows than keep a block within BLOCK_DRAWS draws.
BLOCK_ROWS = 64
BLOCK_DRAWS = 2**16


def block_rows(row_size: int) -> int:
    """Rows per block when each row holds ``row_size`` draws."""
    return max(1, min(BLOCK_ROWS, BLOCK_DRAWS // row_size))


class ComputeTimes:
    """Every worker's compute times, log-normal with mean ``mu_worker`` and
    standard deviation ``sigma_worker``, drawn from the worker's own
    generator, seeded ``(seed, worker, 1)``, in blocks of ``rows``.

    numpy's log-normal draws read the generator one value at a time and
    buffer nothing between calls, so a worker's times are, value for value
    and in order, those of one single-value ``lognormal`` call each.  Where
    ``mu_worker`` or ``sigma_worker`` is 0 every time is ``mu_worker`` and
    no generator is built (``rngs`` is empty).  Only the state a generator
    is left in after its last block differs, and the generators are
    private to one engine call.
    """

    def __init__(self, sim_cfg: SimConfig, rows: int = BLOCK_ROWS):
        mu, sigma = sim_cfg.mu_worker, sim_cfg.sigma_worker
        self.rows = rows
        self.constant = float(mu) if mu == 0.0 or sigma == 0.0 else None
        self.rngs = []
        if self.constant is None:
            self.log_mean, self.log_sigma = _log_normal(mu, sigma)
            self.rngs = [np.random.default_rng((sim_cfg.seed, w, 1))
                         for w in range(sim_cfg.workers)]
        self.pending: list = [[] for _ in self.rngs]  # each worker's unused times, last first

    def block(self, w: int) -> np.ndarray:
        """The next ``rows`` compute times of worker ``w``."""
        if self.constant is not None:
            return np.full(self.rows, self.constant)
        return self.rngs[w].lognormal(self.log_mean, self.log_sigma, size=self.rows)

    def next(self, w: int) -> float:
        """The next compute time of worker ``w``."""
        if self.constant is not None:
            return self.constant
        pending = self.pending[w]
        if not pending:
            pending.extend(self.block(w)[::-1].tolist())
        return pending.pop()


class WorkerDraws:
    """One run's draw streams: worker w draws from its own generator,
    seeded ``seed + w``, its subsamples and, where ``algo`` draws any
    (:func:`~asqn.sampler.worker_draws_noise`; none without ``algo``), its
    noise.  Run mode builds them before it forks; each worker draws its own.

    :meth:`next` gives a worker's ``(subsample, noise or None)`` for one
    update.  Without noise a worker draws ``rows`` subsamples per
    :meth:`block`, in one ``integers`` call that holds, value for value,
    the subsamples of one :func:`~asqn.model.draw_subsample` call each:
    numpy reads bounded integers below 2**32 one value at a time and
    buffers nothing between calls, so only a generator's end state
    differs.  With noise it draws a subsample, then its noise, per update,
    as drawing subsamples ahead would change which values each draw takes.
    """

    def __init__(self, seed, workers, sampler_cfg, model, algo=None):
        self.rngs = [np.random.default_rng(seed + w) for w in range(workers)]
        self.n_records, self.n_s, self.n_o = model.n_records, sampler_cfg.n_s, sampler_cfg.n_o
        self.noise_dim = model.dim if algo and worker_draws_noise(algo, sampler_cfg) else 0
        self.rows = block_rows(self.n_s + self.n_o)
        self.pending: list = [[] for _ in self.rngs]  # each worker's unused rows, last first

    def block(self, w: int) -> np.ndarray:
        """The next ``rows`` subsamples of worker ``w``, S and O side by side."""
        return self.rngs[w].integers(0, self.n_records, size=(self.rows, self.n_s + self.n_o))

    def next(self, w: int):
        """Worker ``w``'s subsample and noise (None without) for its next update."""
        if self.noise_dim:
            rng = self.rngs[w]
            sub = draw_subsample(rng, self.n_records, self.n_s, self.n_o)
            return sub, rng.standard_normal(self.noise_dim)
        pending = self.pending[w]
        if not pending:
            pending.extend(self.block(w)[::-1])
        row = pending.pop()
        return Subsample(s_indices=row[:self.n_s], o_indices=row[self.n_s:]), None


def check_round_timeout(sim_cfg: SimConfig):
    """Raise :class:`ConfigError` unless a synchronous round can aggregate:
    the round timeout must be finite and some worker able to meet it."""
    mu, sigma, timeout = sim_cfg.mu_worker, sim_cfg.sigma_worker, sim_cfg.timeout
    if not math.isfinite(timeout):
        raise ConfigError("run_sync_mb requires a finite timeout")
    # a compute time is exactly mu_worker when mu_worker or sigma_worker is 0
    # and log-normal otherwise; a timeout that a round's W workers meet less
    # than once in 2**20 rounds is unmeetable, as each aggregated round
    # would cost more than about a million empty ones
    meets = mu <= timeout
    if mu > 0 and sigma > 0 and timeout > 0:
        m, s = _log_normal(mu, sigma)
        p = 0.5 * math.erfc(-(math.log(timeout) - m) / (s * math.sqrt(2.0)))
        meets = sim_cfg.workers * p >= 2.0**-20
    if not meets:
        raise ConfigError(f"no worker can meet the round timeout {timeout:g} "
                          f"(mu_worker {mu:g}, sigma_worker {sigma:g})")


class Recorder:
    """Records one engine run and returns its :class:`SimResult`.

    It keeps the staleness log and applies the sampling rule: :meth:`apply`
    logs every apply and records the state every ``sample_every`` applies.
    The simulators also :meth:`start` the trace at the start state and
    :meth:`close` it at the final one; the runtime's parent records the
    rows its workers sampled with :meth:`sample`.  The model evaluates each
    record: its ``evaluate`` gives the potential and the RMSE (None where
    the model has none) with the bits of :func:`~asqn.model.potential` and
    :func:`~asqn.model.rmse`."""

    def __init__(self, model, sample_every):
        self.model = model
        self.sample_every = sample_every
        self.trace: list = []
        self.staleness_log: list = []

    def start(self, theta0) -> ParameterState:
        """The run's start state (:meth:`ParameterState.start`), recorded at time 0."""
        state = ParameterState.start(self.model.dim, theta0)
        self.sample(state, 0.0, 0)
        return state

    def sample(self, state, time, staleness):
        value, error = self.model.evaluate(state.theta)
        self.trace.append(TraceRecord(time, state.iteration, staleness, value, error))

    def apply(self, state, time, staleness):
        """Log the apply that produced ``state``; record every
        ``sample_every``-th."""
        self.staleness_log.append((state.iteration, staleness))
        if state.iteration % self.sample_every == 0:
            self.sample(state, time, staleness)

    def result(self, state, **fields) -> SimResult:
        """The result ending at ``state``; its potential is the last record's
        when that record holds ``state``, sparing a full-data pass."""
        last = self.trace[-1] if self.trace else None
        final = (last.potential if last and last.iteration == state.iteration
                 else self.model.evaluate(state.theta)[0])
        return SimResult(trace=self.trace, final_state=state, staleness_log=self.staleness_log,
                         final_potential=final, **fields)

    def close(self, state, time, **fields) -> SimResult:
        """Record ``state`` unless the trace already ends there, with the
        last apply's staleness; return the result."""
        if self.trace[-1].iteration != state.iteration:
            self.sample(state, time, self.staleness_log[-1][1] if self.staleness_log else 0)
        return self.result(state, **fields)


def async_schedule(sim_cfg: SimConfig):
    """The asynchronous protocol's events in event order, from the timing
    generators alone: ``("start", w, n_read)`` when worker w receives the
    state after n_read applies, ``("apply", w, time)`` when the master has
    applied w's update at ``time``, and last ``("end", truncated, time)``,
    with the last apply's time (0.0 without one).

    Each worker cycles receive -> compute -> send, and gets its fresh
    snapshot only in reply to its own send; the master applies FIFO by
    arrival, ties broken by worker.  The heap holds one event per worker,
    so the schedule ends only at the update or time horizon; an apply that
    would end after ``max_time`` truncates it."""
    comm, update_limit, max_time = sim_cfg.comm_time, sim_cfg.update_limit, sim_cfg.max_time
    compute_times = ComputeTimes(sim_cfg)
    heap = [(comm, w, 0) for w in range(sim_cfg.workers)]  # (time, worker, n_read or None)
    n, busy = 0, 0.0
    while n < update_limit:
        t, w, n_read = heapq.heappop(heap)
        if n_read is None:  # an arrive; the master applies one at a time
            t = max(t, busy) + sim_cfg.mu_master
        if t > max_time:
            break
        if n_read is None:
            n, busy = n + 1, t
            yield "apply", w, t
            heapq.heappush(heap, (t + comm, w, n))
        else:
            yield "start", w, n_read
            heapq.heappush(heap, (t + compute_times.next(w) + comm, w, None))
    yield "end", n < update_limit, busy


def replay(schedule, sim_cfg: SimConfig, sampler_cfg, model, algo="as-lbfgs",
           theta0=None) -> SimResult:
    """Compute and apply, in order, the updates of ``schedule``: the events
    of :func:`async_schedule` or a run's ``SimResult.schedule``.

    Worker w draws from the run's :class:`WorkerDraws` and computes,
    memory update included, through :data:`~asqn.sampler.WORKER_UPDATES`.
    An apply whose update is not yet computed computes every start before
    it not yet computed, in one batch of stacked calls with the bits of
    one worker at a time (the tests check this on the numpy/BLAS build),
    so errors keep event order; the end marker computes the starts left.
    A long replay splits its batches across helper processes
    (:class:`~asqn.owners.WorkerOwners`, which says when), with the results
    of one process bit for bit; no helper outlives the call.  Its horizon
    there is the count of apply events of a sized schedule, such as a
    run's, and ``sim_cfg.update_limit`` otherwise.  A worker's
    second start before its apply (an update the runtime did not apply)
    computes and drops the first.  Each worker holds one state, the one it
    read and, after its apply, the one that apply made; a start reads it
    if its iteration matches (the reply to a send) and the current state
    otherwise (shared memory).  States are never mutated, so none is
    copied.  A malformed event, an apply time before the last apply's (a
    time of None is not compared), an event after the end marker, or no
    end marker raises ``ValueError``."""
    if algo not in WORKER_UPDATES:
        raise ConfigError(f"unknown asynchronous algorithm {algo!r}")
    rec = Recorder(model, sim_cfg.sample_every)
    state = rec.start(theta0)
    ids = range(sim_cfg.workers)
    held = [state] * sim_cfg.workers  # each worker's read state; after its apply, the one it made
    starts, ready = [], {}  # workers started, not yet computed; computed updates awaiting apply
    last_time = -math.inf  # the last apply's time that is not None
    events = iter(schedule)

    draws = WorkerDraws(sim_cfg.seed, sim_cfg.workers, sampler_cfg, model, algo)
    horizon = (sum(kind == "apply" for kind, _, _ in schedule) if isinstance(schedule, Sized)
               else sim_cfg.update_limit)
    with WorkerOwners(sampler_cfg, model, algo, draws, horizon) as owners:
        def compute():
            if starts:
                ready.update(owners.compute(starts, held))
                starts.clear()

        for kind, a, b in events:
            if kind == "start":
                if a in starts:
                    compute()
                elif a not in ids:
                    raise ValueError(f"schedule event {(kind, a, b)!r} names no worker of {ids}")
                if held[a].iteration != b:
                    if state.iteration != b:
                        raise ValueError(f"worker {a} starts on state {b}, not its own or "
                                         f"the current")
                    held[a] = state
                ready.pop(a, None)
                starts.append(a)
            elif kind == "apply":
                if b is not None:
                    if b < last_time:
                        raise ValueError(f"schedule event {(kind, a, b)!r} applies before the "
                                         f"last apply's time {last_time!r}")
                    last_time = b
                if a not in ready:
                    compute()
                    if a not in ready:
                        raise ValueError(f"schedule event {(kind, a, b)!r} applies no started "
                                         f"update")
                try:
                    state = master_apply(state, ready.pop(a))
                    rec.apply(state, b, state.iteration - 1 - held[a].iteration)
                except Exception:
                    compute()  # the starts before this apply fail first
                    raise
                held[a] = state
            elif kind == "end":
                trailing = list(events)
                if trailing:
                    raise ValueError(f"schedule event {trailing[0]!r} comes after the end "
                                     f"marker")
                compute()
                return rec.close(state, b, truncated=a)
            else:
                raise ValueError(f"schedule event {(kind, a, b)!r} is of no known kind")
    raise ValueError("schedule has no ('end', truncated, time) event")


def run_async(sim_cfg: SimConfig, sampler_cfg, model, algo="as-lbfgs", theta0=None) -> SimResult:
    """The asynchronous algorithms (as-L-BFGS, a-SGD and SGLD) on a
    simulated cluster: :func:`replay` of :func:`async_schedule`.  At W = 1
    with ``sigma_worker`` 0 and the SGLD update this is serial SGLD:
    update n lands at n * (mu_worker + 2 * comm_time + mu_master)."""
    return replay(async_schedule(sim_cfg), sim_cfg, sampler_cfg, model, algo, theta0)


def _sync_rounds(sim_cfg: SimConfig, sampler_cfg, model):
    """Yield every synchronous round's ``(wait, kept)``: how long the round
    waits for compute, and the ``(k, n_s + n_o)`` subsample indices of the
    k workers that met the timeout, in worker order.

    Every worker draws its compute times and indices for a block of rounds
    in one call per generator (:class:`ComputeTimes`, :class:`WorkerDraws`),
    kept or not, so each stream advances as it would on a real cluster."""
    draws = WorkerDraws(sim_cfg.seed, sim_cfg.workers, sampler_cfg, model)
    compute_times = ComputeTimes(sim_cfg, draws.rows)
    while True:
        times = np.stack([compute_times.block(w) for w in range(sim_cfg.workers)])
        indices = np.stack([draws.block(w) for w in range(sim_cfg.workers)])
        met = times <= sim_cfg.timeout
        waits = times.max(axis=0)
        if not sim_cfg.wait_for_stragglers:
            waits = np.minimum(sim_cfg.timeout, waits)
        for j, (wait, k) in enumerate(zip(waits.tolist(), met.sum(axis=0).tolist())):
            yield wait, indices[:, j] if k == sim_cfg.workers else indices[met[:, j], j]


def run_sync_mb(sim_cfg: SimConfig, mb_master: MbLbfgsMaster, sampler_cfg, model,
                theta0=None) -> SimResult:
    """Synchronous multi-batch rounds.

    Per round the master broadcasts theta (tau), each worker draws a
    compute time and a subsample, and only gradients whose compute time is
    within the round timeout are aggregated; stragglers' work is discarded.
    All gradients of a round are taken at the same theta, so the kept
    subsamples are stacked in worker order and evaluated in one call.
    Each worker draws its compute times and subsamples for a block of
    rounds at once (see :func:`block_rows`); the draws, and so the
    iterates, are those of one draw per worker per round.

    With ``wait_for_stragglers`` (default) the next broadcast waits for the
    whole cohort, so round wall time is max(compute) + mu_master + 2*tau;
    otherwise the round closes at the timeout and the wall time is
    min(timeout, max compute) + mu_master + 2*tau.  A round that would end
    after ``max_time`` is not applied, and the run is truncated there.
    """
    check_round_timeout(sim_cfg)
    n_s = sampler_cfg.n_s
    rounds = _sync_rounds(sim_cfg, sampler_cfg, model)

    rec = Recorder(model, sim_cfg.sample_every)
    state = rec.start(theta0)
    t = 0.0
    truncated = False
    included_log: list = []

    while state.iteration < sim_cfg.update_limit:
        wait, kept = next(rounds)
        if len(kept):
            end = t + (2 * sim_cfg.comm_time + wait + sim_cfg.mu_master)
        else:
            end = t + (2 * sim_cfg.comm_time + wait)
        if end > sim_cfg.max_time:  # the round would close past the horizon
            truncated = True
            break
        t = end
        included_log.append(len(kept))
        if not len(kept):
            continue
        stacked = Subsample(s_indices=kept[:, :n_s], o_indices=kept[:, n_s:])
        grads = combined_gradient(model, state.theta, stacked)
        theta = mb_master.round(state.theta, grads, stacked.o_indices.ravel(), model)
        state = ParameterState(theta=theta, u=state.u, iteration=state.iteration + 1)
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
