"""Real asynchronous execution: W forked worker processes over a shared mapping.

The master node of the message-passing formulation degenerates, on shared
memory, to a mutually exclusive apply section.  The master's ``(n, version)``
header, ``theta`` and ``u`` live in one anonymous ``mmap`` mapping that the
``fork`` start method shares with every worker process, and applies are
guarded by a process-shared lock.  Reads go through a seqlock-style versioned
snapshot: the version counter is bumped before and after every apply, and a
snapshot retries until it observes the same even version on both sides of its
copy, so no reader ever sees a torn ``(theta, u, n)`` triple.

Linux only: anonymous shared mappings reach the workers through ``fork``.
Forking a process that runs other threads is unsafe, so call :func:`run`
from a process whose other threads are idle or joined.
"""

from __future__ import annotations

import contextlib
import mmap
import multiprocessing
import multiprocessing.connection
import os
import time as _time

import numpy as np

from .errors import ConfigError, DivergenceError, check_count
from .sampler import WORKER_UPDATES, ParameterState, WorkerState
from .simulator import Recorder, SimResult

# a worker still running this long after the stop event is terminated
_STOP_GRACE_S = 60.0
# how often the parent looks at the stop event and the wall-clock limit
# while it waits for worker reports
_POLL_S = 0.05


class SharedMasterState:
    """The master's (theta, u, n) with lock-exclusive applies and
    seqlock-consistent snapshots, shared with forked worker processes.

    ``theta`` and ``u`` are arrays over the shared mapping; ``n`` and
    ``version`` read its header.  ``staleness_log`` is private to each
    process: it lists the applies made by that process.
    """

    def __init__(self, theta0):
        theta0 = np.asarray(theta0, dtype=float)
        dim = theta0.size
        self._map = mmap.mmap(-1, 16 + 16 * dim)
        self._header = memoryview(self._map)[:16].cast("q")  # (n, version)
        self.theta = np.frombuffer(self._map, dtype=float, count=dim, offset=16)
        self.u = np.frombuffer(self._map, dtype=float, count=dim, offset=16 + 8 * dim)
        self.theta[:] = theta0
        fork = multiprocessing.get_context("fork")
        self.lock = fork.Lock()
        self.stop = fork.Event()
        self.staleness_log: list = []

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
            theta = self.theta.copy()
            u = self.u.copy()
            n = header[0]
            if header[1] == v1:
                return theta, u, n

    def apply(self, upd, n_read, sample_every=0, staleness_limit=None):
        """Exclusive accumulation; returns (n, staleness, sampled theta copy
        or None).  The copy is taken inside the critical section so sampled
        iterates are exact.  With ``staleness_limit``, an update whose
        staleness would exceed it is discarded under the lock, leaving the
        state untouched, and ``None`` is returned."""
        header = self._header
        with self.lock:
            staleness = header[0] - n_read
            if staleness_limit is not None and staleness > staleness_limit:
                return None
            header[1] += 1
            self.theta += upd.d_theta
            self.u += upd.d_u
            n = header[0] + 1
            header[0] = n
            self.staleness_log.append((n, staleness))
            sampled = None
            if sample_every and n % sample_every == 0:
                sampled = self.theta.copy()
            ok = bool(np.isfinite(self.theta).all() and np.isfinite(self.u).all())
            header[1] += 1
        if not ok:
            raise DivergenceError(f"non-finite iterate after update {n}", iteration=n)
        return n, staleness, sampled


def worker_cap() -> int | None:
    """The process cap set by ``ASQN_THREADS``, or None when it is unset."""
    cap = os.environ.get("ASQN_THREADS")
    if not cap:
        return None
    if not cap.isdigit() or int(cap) < 1:
        raise ConfigError(f"ASQN_THREADS must be a positive integer, got {cap!r}")
    return int(cap)


@contextlib.contextmanager
def fork_children(count, target, args):
    """Fork ``count`` children, child ``i`` running ``target(i, conn, *args)``
    with ``conn`` the only send end of its own one-way Pipe; yields the
    processes and the receive ends, in child order.

    On exit every child still alive is terminated, and every child is
    joined, so none outlives the block.  Linux only (``fork``)."""
    fork = multiprocessing.get_context("fork")
    procs, conns = [], []
    try:
        for i in range(count):
            recv_end, send_end = fork.Pipe(duplex=False)
            proc = fork.Process(target=target, args=(i, send_end, *args), daemon=True)
            conns.append(recv_end)
            proc.start()
            procs.append(proc)
            send_end.close()  # the child's copy is the only writer: EOF means it exited
        yield procs, conns
    finally:
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
            proc.join()
        for conn in conns:
            conn.close()


def receive_report(conn, proc):
    """Receive the one report a child sends before it exits, then join it.

    Returns ``(report, None)``, or ``(None, "WorkerError: worker exited with
    code N")`` when the child closed its pipe without reporting."""
    try:
        report = conn.recv()
    except EOFError:
        report = None
    conn.close()
    proc.join()
    if report is None:
        return None, f"WorkerError: worker exited with code {proc.exitcode}"
    return report, None


def _worker_main(w, conn, master, sampler_cfg, model, algo, max_updates, seed,
                 sample_every, max_wall_s, staleness_limit, t0):
    """One worker process: loops snapshot -> update (with the memory
    update) -> exclusive apply, then sends its sampled
    ``(time, n, staleness, theta)`` rows, its staleness log and its first
    error (or None) to the parent."""
    sampled: list = []
    error = None
    rng = np.random.default_rng(seed + w)
    ws = WorkerState(sampler_cfg, model.dim)
    worker_updates = WORKER_UPDATES[algo]
    try:
        while not master.stop.is_set():
            theta, u, n_read = master.snapshot()
            snap = ParameterState(theta=theta, u=u, iteration=n_read)
            upd = worker_updates(sampler_cfg, [ws], [snap], model, [rng])[0]
            if master.stop.is_set():
                break
            applied = master.apply(upd, n_read, sample_every, staleness_limit)
            if applied is None:
                continue  # too stale: discarded; recompute from a fresh snapshot
            n, staleness, theta_s = applied
            if theta_s is not None:
                sampled.append((_time.perf_counter() - t0, n, staleness, theta_s))
            if n >= max_updates:
                master.stop.set()
            if max_wall_s is not None and _time.perf_counter() - t0 > max_wall_s:
                master.stop.set()
    except Exception as exc:
        # the process boundary: any failure stops every worker and is
        # reported, so a broken run cannot pass for a finished one
        error = f"{type(exc).__name__}: {exc}"
        master.stop.set()
    conn.send((sampled, master.staleness_log, error))
    conn.close()


def _collect(procs, conns, master, t0, max_wall_s):
    """Wait on every worker's pipe at once; return the reports received and
    the errors seen.  The first error, a worker that exits without
    reporting, or the wall-clock limit sets ``stop``; a worker still running
    ``_STOP_GRACE_S`` after ``stop`` is terminated."""
    pending = {conn: w for w, conn in enumerate(conns)}
    reports, errors = [], []
    stopped_at = None
    while pending:
        now = _time.perf_counter()
        if max_wall_s is not None and now - t0 > max_wall_s:
            master.stop.set()
        if stopped_at is None and master.stop.is_set():
            stopped_at = now
        if stopped_at is not None and now - stopped_at > _STOP_GRACE_S:
            for w in pending.values():
                procs[w].terminate()
                procs[w].join()
                errors.append(f"WorkerError: worker {w} still running "
                              f"{_STOP_GRACE_S:g} s after stop; terminated")
            break
        for conn in multiprocessing.connection.wait(list(pending), timeout=_POLL_S):
            w = pending.pop(conn)
            report, died = receive_report(conn, procs[w])
            sampled, log, error = report or ([], [], died)
            reports.append((sampled, log))
            if error is not None:
                errors.append(error)
                master.stop.set()
    return reports, errors


def check_run(workers, algo="as-lbfgs", max_updates=1000, sample_every=0,
              staleness_limit=None):
    """Raise :class:`ConfigError` unless :func:`run` accepts these arguments;
    it checks them before it forks.  SGLD and mb-L-BFGS do not run here."""
    check_count("workers", workers)
    if algo not in ("as-lbfgs", "a-sgd"):
        raise ConfigError(f"{algo} is not available in run mode")
    # a worker applies once before it looks at max_updates, and a negative
    # limit would discard every update
    check_count("max_updates", max_updates)
    check_count("sample_every", sample_every, minimum=0)
    if staleness_limit is not None and staleness_limit < 0:
        raise ConfigError(f"staleness_limit must be nonnegative, got {staleness_limit}")


def run(workers, sampler_cfg, model, algo="as-lbfgs", max_updates=1000, theta0=None,
        seed=0, sample_every=0, max_wall_s=None, staleness_limit=None) -> SimResult:
    """Run W forked worker processes against a shared master state.

    Each worker loops snapshot -> update -> exclusive apply, computing its
    update through :data:`~asqn.sampler.WORKER_UPDATES` one worker at a
    time; an as-L-BFGS worker's memory takes its post-send update there,
    before the apply, as in the simulator.  Stops after ``max_updates``
    applies or ``max_wall_s`` seconds, or when any worker fails; the first
    failure is reported as ``"<ExcType>: <message>"`` in the result's
    ``error``, a worker that dies without reporting as ``"WorkerError:
    worker exited with code N"``.  ``staleness_limit`` enables optional back-pressure: an
    update whose staleness would exceed the limit is discarded and
    recomputed from a fresh snapshot, so every applied update has
    staleness at most the limit.  A discarded update has still advanced
    its worker's memory, so the curvature pair it formed stays.  The trace
    holds the state after every ``sample_every``-th apply (none when it is
    0) and ``wall_ms`` the wall time of the call.  No worker process
    outlives the call.
    """
    check_run(workers, algo, max_updates, sample_every, staleness_limit)
    cap = worker_cap()
    if cap is not None:
        workers = min(workers, cap)

    master = SharedMasterState(np.zeros(model.dim) if theta0 is None else theta0)
    t0 = _time.perf_counter()
    args = (master, sampler_cfg, model, algo, max_updates, seed, sample_every, max_wall_s,
            staleness_limit, t0)
    with fork_children(workers, _worker_main, args) as (procs, conns):
        reports, errors = _collect(procs, conns, master, t0, max_wall_s)
    wall_ms = (_time.perf_counter() - t0) * 1e3

    rec = Recorder(model, sample_every)
    sampled = sorted((row for rows, _ in reports for row in rows), key=lambda row: row[1])
    for t, n, staleness, theta in sampled:  # a worker samples theta alone
        rec.sample(ParameterState(theta=theta, u=None, iteration=n), t, staleness)
    rec.staleness_log = sorted((entry for _, log in reports for entry in log),
                               key=lambda entry: entry[0])
    final = ParameterState(theta=master.theta.copy(), u=master.u.copy(), iteration=master.n)
    return rec.result(final, wall_ms=wall_ms, error=errors[0] if errors else None)
