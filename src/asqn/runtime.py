"""Real asynchronous execution: W forked worker processes over a shared mapping.

The master node of the message-passing formulation degenerates, on shared
memory, to a mutually exclusive apply section.  The master's ``(n, version,
stop)`` header and its ``theta`` and ``u``, the two rows of one ``(2, d)``
block at byte offset 32, live in one anonymous ``mmap`` mapping that the
``fork`` start method shares with every worker process, and applies are
guarded by a process-shared lock.  An apply lands its update, a ``(2, d)``
array (d_theta, d_u) laid out as that block, in the block through
:func:`asqn.sampler.master_apply`, the simulator's apply rule, so a replay
of the run applies every update alike.  Reads go through a seqlock-style
versioned snapshot: the version counter is bumped before and after every
apply, and a snapshot retries until it observes the same even version on
both sides of its copy, so no reader ever sees a torn ``(theta, u, n)``
triple.  Each worker is pinned to one CPU by
:func:`asqn.owners.fork_children` (see :func:`run`).

Linux only: anonymous shared mappings reach the workers through ``fork``.
Forking a process that runs other threads is unsafe, and :func:`run` does
not check for them as a replay does (:func:`asqn.owners._other_threads`).
"""

from __future__ import annotations

import mmap
import multiprocessing
import multiprocessing.connection
import os
import time as _time

import numpy as np

from . import owners
from .errors import ConfigError, DivergenceError, check_count
from .sampler import WORKER_UPDATES, ParameterState, WorkerState, master_apply
from .simulator import Recorder, SimResult, WorkerDraws

# a worker still running this long after the stop word is set is terminated
_STOP_GRACE_S = 60.0
# how often the parent looks at the stop word and the wall-clock limit
# while it waits for worker reports
_POLL_S = 0.05


class _StopWord:
    """The stop flag as the third word of the shared header, with the
    ``is_set()``/``set()`` of an Event: a plain load and store that every
    process sharing the mapping sees, without a semaphore."""

    def __init__(self, header):
        self._header = header

    def is_set(self) -> bool:
        return self._header[2] != 0

    def set(self):
        self._header[2] = 1


class SharedMasterState:
    """The master's (theta, u, n) with lock-exclusive applies and
    seqlock-consistent snapshots, shared with forked worker processes.

    ``theta`` and ``u`` are the two rows of one ``(2, d)`` array over the
    shared mapping; ``n`` and ``version`` read its header, and ``stop``
    (``is_set()``/``set()``) its third word, which any process sharing the
    mapping may set.  Once it is set every apply is refused.  The run's
    limits are given once: the apply that reaches ``max_updates`` sets
    ``stop``, and every ``sample_every``-th state is copied (none when 0).
    """

    def __init__(self, theta0, max_updates=float("inf"), sample_every=0):
        theta0 = np.asarray(theta0, dtype=float)
        dim = theta0.size
        self._map = mmap.mmap(-1, 32 + 16 * dim)  # the state block stays 32-byte aligned
        self._header = memoryview(self._map)[:24].cast("q")  # (n, version, stop)
        self._state = np.frombuffer(self._map, dtype=float, count=2 * dim,
                                    offset=32).reshape(2, dim)
        self.theta, self.u = self._state
        self.theta[:] = theta0
        self.lock = multiprocessing.get_context("fork").Lock()
        self.stop = _StopWord(self._header)
        self.max_updates = max_updates
        self.sample_every = sample_every

    @property
    def n(self) -> int:
        return self._header[0]

    @property
    def version(self) -> int:
        return self._header[1]

    def snapshot(self):
        """Consistent (theta copy, u copy, n); never blocks applies.

        Across processes this relies on x86-64 load ordering: loads are not
        reordered with other loads, so a reader that sees the same even
        version before and after its copies saw no apply in between.
        """
        header = self._header
        while True:
            v1 = header[1]
            if v1 & 1:
                continue
            # two row copies: at small d one copy of the block plus two
            # row views of it costs more
            theta = self.theta.copy()
            u = self.u.copy()
            n = header[0]
            if header[1] == v1:
                return theta, u, n

    def apply(self, upd, n_read):
        """Exclusive accumulation through :func:`~asqn.sampler.master_apply`
        into the shared block; returns (n, staleness, sampled theta copy or
        None).  The copy is taken inside the critical section so sampled
        iterates are exact.  Under the lock, an update is refused, leaving
        the state untouched and returning None, if and only if ``stop`` is
        set.  The apply that reaches ``max_updates`` sets it, and so does
        an apply that diverges: that one raises :class:`DivergenceError`
        after it lands, and is a run's last."""
        header = self._header
        with self.lock:
            if self.stop.is_set():
                return None
            n = header[0]
            staleness = n - n_read
            header[1] += 1
            try:
                master_apply(ParameterState(self.theta, self.u, n), upd, out=self._state)
            except DivergenceError:
                self.stop.set()
                raise
            finally:
                n += 1
                header[0] = n
                if n >= self.max_updates:
                    self.stop.set()
                header[1] += 1
            if self.sample_every and n % self.sample_every == 0:
                return n, staleness, self.theta.copy()
        return n, staleness, None


def _worker_main(w, master, draws, sampler_cfg, model, algo, t0):
    """One worker process: loops snapshot -> update from ``draws.next(w)``
    (with the memory update) -> exclusive apply until ``stop`` is set or
    an apply is refused, then returns its report: its sampled ``(time, n,
    staleness, theta)`` rows, its log of ``(n_read, n or None)`` per update
    it computed (None: refused, and so its last; an apply that diverged is
    logged with its n) and its first error (or None)."""
    sampled, log = [], []
    error = None
    ws = WorkerState(sampler_cfg, model.dim)
    worker_updates = WORKER_UPDATES[algo]
    try:
        while not master.stop.is_set():
            theta, u, n_read = master.snapshot()
            snap = ParameterState(theta=theta, u=u, iteration=n_read)
            upd = next(worker_updates(sampler_cfg, [ws], [snap], model, [draws.next(w)]))
            try:
                applied = master.apply(upd, n_read)
            except DivergenceError as exc:  # the update landed: a replay must apply it too
                log.append((n_read, exc.iteration))
                raise
            log.append((n_read, applied[0] if applied else None))
            if applied is None:  # the run is done
                break
            n, staleness, theta_s = applied
            if theta_s is not None:
                sampled.append((_time.perf_counter() - t0, n, staleness, theta_s))
    except Exception as exc:
        # the process boundary: any failure stops every worker and is
        # reported, so a broken run cannot pass for a finished one
        error = f"{type(exc).__name__}: {exc}"
        master.stop.set()
    return sampled, log, error


def _collect(procs, conns, master, t0, max_wall_s):
    """Wait on every worker's pipe at once; return the sampled rows, each
    worker's compute log (None without a report) and the errors seen.  The
    first error, a worker that exits without reporting, or the wall-clock
    limit sets ``stop``; a worker still running ``_STOP_GRACE_S`` after
    ``stop`` is reported, and left for ``fork_children`` to terminate."""
    pending = {conn: w for w, conn in enumerate(conns)}
    sampled, logs, errors = [], [None] * len(conns), []
    stopped_at = None
    while pending:
        now = _time.perf_counter()
        if max_wall_s is not None and now - t0 > max_wall_s:
            master.stop.set()
        if stopped_at is None and master.stop.is_set():
            stopped_at = now
        if stopped_at is not None and now - stopped_at > _STOP_GRACE_S:
            errors += [f"WorkerError: worker {w} still running {_STOP_GRACE_S:g} s after "
                       f"stop; terminated" for w in pending.values()]
            break
        for conn in multiprocessing.connection.wait(list(pending), timeout=_POLL_S):
            w = pending.pop(conn)
            report, died = owners.receive_report(conn, procs[w])
            rows, logs[w], error = report or ([], None, f"{type(died).__name__}: {died}")
            sampled += rows
            if error is not None:
                errors.append(error)
                master.stop.set()
    return sampled, logs, errors


def check_run(workers, algo="as-lbfgs", max_updates=1000, sample_every=0):
    """Raise :class:`ConfigError` unless :func:`run` accepts these arguments;
    it checks them before it forks.  SGLD and mb-L-BFGS do not run here."""
    check_count("workers", workers)
    if algo not in ("as-lbfgs", "a-sgd"):
        raise ConfigError(f"{algo} is not available in run mode")
    # max_updates 0 would still apply one update
    check_count("max_updates", max_updates)
    check_count("sample_every", sample_every, minimum=0)


def run(workers, sampler_cfg, model, algo="as-lbfgs", max_updates=1000, theta0=None,
        seed=0, sample_every=0, max_wall_s=None) -> SimResult:
    """Run exactly ``workers`` forked worker processes against a shared
    master state.

    Worker ``w`` runs on the ``(w mod n)``-th of the n CPUs this process may
    run on (:func:`~asqn.owners.fork_children` pins it); this process stays
    unpinned.  Each worker loops snapshot -> update -> exclusive apply until
    the shared stop word is set, computing its update, memory update
    included, through :data:`~asqn.sampler.WORKER_UPDATES` from its stream
    of the run's :class:`~asqn.simulator.WorkerDraws`, built before the
    fork, as the simulator does.  Stops after exactly ``max_updates``
    applies, once this process sees ``max_wall_s`` seconds pass, or when any
    worker fails; the first failure is reported as
    ``"<ExcType>: <message>"`` in ``error``, a worker that dies without
    reporting as ``"WorkerError: worker exited with code N"``.  The stop
    word is the one reason an apply is refused, and a worker whose apply is
    refused logs that compute unapplied and stops, so its log holds at
    most one unapplied compute, its last.  The trace holds the state after
    every ``sample_every``-th apply (none when it is 0), ``wall_ms`` the wall
    time of the call, and ``compute_logs`` the workers' logs (None for a
    worker whose report was lost), whose ``schedule``
    :func:`~asqn.simulator.replay` recomputes the run from, bit for bit,
    a diverging apply included.  No worker outlives the call.
    """
    check_run(workers, algo, max_updates, sample_every)
    master = SharedMasterState(ParameterState.start(model.dim, theta0).theta, max_updates,
                               sample_every)
    draws = WorkerDraws(seed, workers, sampler_cfg, model, algo)
    t0 = _time.perf_counter()
    args = (master, draws, sampler_cfg, model, algo, t0)
    cpus = sorted(os.sched_getaffinity(0))
    cpu_sets = [{cpus[w % len(cpus)]} for w in range(workers)]
    with owners.fork_children(cpu_sets, _worker_main, args) as (procs, conns):
        sampled, logs, errors = _collect(procs, conns, master, t0, max_wall_s)
    wall_ms = (_time.perf_counter() - t0) * 1e3

    rec = Recorder(model, sample_every)
    for t, n, staleness, theta in sorted(sampled, key=lambda row: row[1]):
        rec.sample(ParameterState(theta=theta, u=None, iteration=n), t, staleness)  # theta only
    rec.staleness_log = sorted((n, n - 1 - n_read) for log in logs if log is not None
                               for n_read, n in log if n is not None)
    final = ParameterState(theta=master.theta.copy(), u=master.u.copy(), iteration=master.n)
    return rec.result(final, wall_ms=wall_ms, error=errors[0] if errors else None,
                      compute_logs=logs)
