"""Worker-owning processes: every process asqn forks is created, pinned and
reported here (Linux only: ``fork`` and CPU affinity).

The workers of :func:`asqn.runtime.run`, the point processes of a simulate
sweep and the helpers of a split :func:`asqn.simulator.replay`
(:class:`WorkerOwners`) are all forked by :func:`fork_children`, which pins
each to its own CPU set and sends what the child's function returns, its
one report, to the parent; :func:`receive_report`, the one reader of a
child's pipe, takes that report or the :class:`~asqn.errors.WorkerError`
of its exit, and :func:`pinned` narrows the calling process for a block.
A split replay's caller and each helper pass a batch through a shared
mapping and signal each message on one of two semaphores, on which the
waiting side spins before it blocks (:func:`_wait`); a helper's failure
and its death both reach the caller through its one report pipe.
"""

from __future__ import annotations

import contextlib
import mmap
import multiprocessing
import os
import time as _time

import numpy as np

from .errors import WorkerError
from .sampler import WORKER_UPDATES, ParameterState, WorkerState


@contextlib.contextmanager
def pinned(cpus):
    """Run the block on ``cpus``, a subset of this process's CPU set, which
    comes back on exit, also on failure."""
    before = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    try:
        yield
    finally:
        os.sched_setaffinity(0, before)


# The send end of this process's own report pipe where fork_children
# forked it, and None elsewhere: state of the process, not of a caller.
_report_end = None


def _child_main(cpus, conn, target, i, *args):
    global _report_end
    # a child of a child inherits its parent's send end: closed here, the
    # parent's pipe reaches EOF when the parent exits, whatever its
    # children still run
    if _report_end is not None:
        _report_end.close()
    _report_end = conn
    # a child only narrows the set it inherited, so the pin needs no
    # handler: a failure would end the child without a report
    os.sched_setaffinity(0, cpus)
    conn.send(target(i, *args))
    conn.close()


@contextlib.contextmanager
def fork_children(cpu_sets, target, args):
    """Fork one child per CPU set: child ``i`` pins itself to
    ``cpu_sets[i]``, runs ``target(i, *args)`` and sends what it returns,
    its one report, through the only send end of its own one-way Pipe;
    yields the processes and the receive ends, in child order.

    A child may fork children of its own, which close the send end of
    its pipe that they inherit, so a child's exit reaches its reader as
    EOF even while its own children run.  On exit every child still
    alive is terminated, and every child is joined, so none outlives the
    block."""
    fork = multiprocessing.get_context("fork")
    procs, conns = [], []
    try:
        for i, cpus in enumerate(cpu_sets):
            recv_end, send_end = fork.Pipe(duplex=False)
            proc = fork.Process(target=_child_main, args=(cpus, send_end, target, i, *args))
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

    Returns ``(report, None)``, or ``(None, WorkerError("worker exited with
    code N"))`` when the child closed its pipe without reporting."""
    try:
        report = conn.recv()
    except EOFError:
        report = None
    conn.close()
    proc.join()
    if report is None:
        return None, WorkerError(f"worker exited with code {proc.exitcode}")
    return report, None


# A replay decides once whether to fork its helpers: at its first batch
# after its computes in one process have taken FORK_AFTER_S, and then only
# if the updates left to its horizon are at least FORK_AHEAD times those
# computed so far.  At a steady rate four times the computes already made
# then lie ahead, so a run whose computes total less than about
# 5 * FORK_AFTER_S never forks; FORK_AFTER_S = 0 forks at the first batch.
# One helper of a 38 MB process costs about 2 ms on a 2-core host: 0.8 ms
# to fork it through fork_children, 0.5 ms to terminate and join it
# (medians of 30), and about 1 ms before it answers its first request.  On
# a loaded 2-core host lg-async-sim's 600-update runs compute for a little
# over FORK_AFTER_S: forked on elapsed time alone, 20 of 20 split for
# their last tenth to fifth of updates and ran slower (benchmark
# update_cost_ref 15.2-16.3 in 10 runs); under FORK_AHEAD none forks
# (12.4-13.1).  mf-async-sim's 3,000-update runs still fork at the same
# batch, after 272-316 updates.
FORK_AFTER_S = 0.02
FORK_AHEAD = 4
# How long a waiting owner spins on its semaphore before it blocks, and
# each step of the block: longer than the calling process's work between
# two batches (about 50 us per batch of mf-async-sim), so a steady run does
# not sleep and wake between batches, and short enough that no process
# spins for long and a blocked one soon sees its peer gone.
SPIN_S = 300e-6


def _wait(sem, gone) -> bool:
    """Take one release of ``sem``: spin on non-blocking acquires for
    ``SPIN_S``, then block in steps of ``SPIN_S``.  False when a step takes
    nothing and ``gone()`` holds: the peer is gone.

    Each release follows its writer's writes and each acquire precedes its
    reader's reads, and the semaphore orders memory, so a reader sees the
    data of the message it takes.  Spinning makes no system call while the
    peer answers within ``SPIN_S``, as a steady split run's peers do."""
    deadline = _time.perf_counter() + SPIN_S
    while not sem.acquire(False):
        if _time.perf_counter() > deadline:
            if sem.acquire(timeout=SPIN_S):
                return True
            if gone():
                return False
    return True


def _other_threads() -> bool:
    """Whether this process runs any thread besides the calling one, a
    Python thread or a native one such as those of a BLAS thread pool
    (``OPENBLAS_NUM_THREADS`` above 1): Linux lists every thread under
    /proc.  Forking a process that runs threads is unsafe, and helpers
    beside a BLAS pool that already uses the CPUs would only contend for
    them (on a 2-core host a split ML-1M preset run took 31.8 s in place
    of 2.5 s)."""
    try:
        return len(os.listdir("/proc/self/task")) > 1
    except OSError:
        return True


class WorkerOwners(contextlib.ExitStack):
    """The workers of one :func:`~asqn.simulator.replay`, each with its
    :class:`~asqn.sampler.WorkerState` and its stream of ``draws`` (the
    run's :class:`~asqn.simulator.WorkerDraws`), and the processes that own
    them; an ExitStack of what a split opens, so no helper outlives it.

    :meth:`compute` gives the updates of a batch of distinct workers,
    split into the shares of the P owning processes, in start order:
    process i of the P (the calling process is 0) owns the workers w = i
    (mod P).  P is 1, the calling process alone, until its computes have
    taken ``FORK_AFTER_S``.  At the first batch after that, if the updates
    left to ``horizon`` (the updates the replay applies; inf where time
    alone ends it) are at least ``FORK_AHEAD`` times the updates computed
    so far, it forks P - 1 helper processes, P = min(CPUs this process may
    run on, W), and otherwise it owns them all to the end.  The helpers
    inherit the workers' states and pending draws.  Per batch the calling
    process writes each helper's starts and their snapshots into one
    shared anonymous mapping, releases the helper's request semaphore and
    computes its own share while the helpers compute theirs, which each
    writes into its workers' own result slots before it releases its reply
    semaphore.
    Owner i runs on the i-th of the CPUs until the replay ends.  One
    process owns all where P is 1 (W = 1, or one-CPU affinity
    such as ``taskset -c 0`` or a simulate sweep's one-CPU share), and
    where the process runs other threads when its computes reach
    ``FORK_AFTER_S``, BLAS threads included (:func:`_other_threads`): set
    ``OPENBLAS_NUM_THREADS=1`` to let a run split.

    Every update depends only on its worker's state, draws and snapshot,
    and a stacked compute of a share has the bits of one worker at a time,
    so the split gives the updates of one process bit for bit.  A batch
    whose shares fail raises the error of its first failing start, as one
    process would: each owner reports the first failure of its share and
    its position.  A helper whose share fails ends, and that failure is
    its report; a helper that exits without one raises
    :class:`WorkerError` with its exit code.  A helper whose calling
    process is gone ends too."""

    def __init__(self, sampler_cfg, model, algo, draws, horizon):
        super().__init__()
        self.update = WORKER_UPDATES[algo]
        self.cfg, self.model, self.draws = sampler_cfg, model, draws
        self.workers = [WorkerState(sampler_cfg, model.dim) for _ in draws.rngs]
        self.may_fork = len(self.workers) > 1
        self.procs = 1  # owners: this process and its helpers
        self.compute_s = 0.0  # wall time of the computes before the fork decision
        self.computed = 0  # updates computed before the fork decision
        self.horizon = horizon  # updates the replay applies; inf where time alone ends it

    def compute(self, starts, held):
        """``(worker, update)`` of each of the distinct workers ``starts``,
        each at its state in ``held``, after its memory update."""
        if self.may_fork and self.compute_s >= FORK_AFTER_S:
            self.may_fork = False
            if self.horizon - self.computed >= FORK_AHEAD * self.computed:
                self._fork()
        t0 = _time.perf_counter()
        shares = [[w for w in starts if w % self.procs == i] for i in range(self.procs)]
        for h, share in enumerate(shares[1:]):
            if share:
                self._request(h, share, held)
        results, failures = [], []
        for i, share in enumerate(shares):
            if not share:
                continue
            if i == 0:
                updates, failure = self._share(share, [held[w] for w in share])
            else:
                failure = self._reply(i - 1)
                updates = None if failure else [self.slots[w, 1] for w in share]
            if failure:
                failures.append((starts.index(share[failure[0]]), failure[1]))
            else:
                results += zip(share, updates)
        if failures:
            raise min(failures, key=lambda failure: failure[0])[1]
        if self.may_fork:
            self.compute_s += _time.perf_counter() - t0
            self.computed += len(starts)
        return results

    def _share(self, share, snapshots):
        """``(updates, None)`` of the workers ``share``, or ``(None, (i,
        error))`` with ``i`` the position of the first that fails: the
        entry yields its updates in worker order, so ``i`` is the number it
        gave before it raised."""
        updates = []
        try:
            for upd in self.update(self.cfg, [self.workers[w] for w in share], snapshots,
                                   self.model, [self.draws.next(w) for w in share]):
                updates.append(upd)
        except Exception as exc:
            return None, (len(updates), exc)
        return updates, None

    def _fork(self):
        """Fork the helpers, unless P is 1 or this process runs other
        threads, and map the words and slots they share.

        Helper h (owner h + 1) has its share's size in word ``[h *
        stride]`` and its workers and their snapshots' iterations in the
        next 2W words; slot ``[w, 0]`` holds worker w's snapshot (theta, u)
        and ``[w, 1]`` its ``(2, d)`` update (d_theta, d_u), as the worker
        computed it: W * 4 * d floats.  The calling process applies each
        update from its slot, which a helper writes again only at the
        worker's next start, after that apply.  Each helper has a request
        and a reply semaphore, released once per message after its data
        are written."""
        cpus = sorted(os.sched_getaffinity(0))
        procs = min(len(cpus), len(self.workers))
        if procs == 1 or _other_threads():
            return
        self.procs = procs
        workers, dim = len(self.workers), self.model.dim
        self.stride = 1 + 2 * workers
        ints = (procs - 1) * self.stride
        shared = mmap.mmap(-1, 8 * ints + 32 * workers * dim)
        self.words = memoryview(shared)[:8 * ints].cast("q")
        self.slots = np.frombuffer(shared, dtype=float, offset=8 * ints).reshape(
            workers, 2, 2, dim)
        fork = multiprocessing.get_context("fork")
        # (request, reply) of each helper
        self.links = [(fork.Semaphore(0), fork.Semaphore(0)) for _ in range(procs - 1)]
        # (process, report connection) of each helper
        self.helpers = list(zip(*self.enter_context(fork_children(
            [{cpu} for cpu in cpus[1:procs]], self.serve, (os.getpid(),)))))
        self.enter_context(pinned({cpus[0]}))

    def _request(self, h, share, held):
        """Send helper h its share, each worker at its state in ``held``."""
        words, base, workers = self.words, h * self.stride, len(self.workers)
        words[base] = len(share)
        for j, w in enumerate(share):
            words[base + 1 + j] = w
            words[base + 1 + workers + j] = held[w].iteration
            snapshot = self.slots[w, 0]
            snapshot[0] = held[w].theta
            snapshot[1] = held[w].u
        self.links[h][0].release()

    def _reply(self, h):
        """Wait for helper h's reply: None, or, once it has reported or
        exited, its report, the (position, error) of its share's first
        failure.  Raises WorkerError if it exited without one."""
        proc, conn = self.helpers[h]
        if _wait(self.links[h][1], conn.poll):
            return None
        failure, died = receive_report(conn, proc)
        if died:
            raise WorkerError(f"replay helper process {h + 1} exited with code {proc.exitcode}")
        return failure

    def serve(self, h, parent):
        """Helper h's loop, the target :func:`fork_children` runs in it:
        compute each request and reply, until the calling process, pid
        ``parent``, is gone (None), or until a share fails: then return the
        failure's ``(position, error)``, its report."""
        words, base, workers = self.words, h * self.stride, len(self.workers)
        request, reply = self.links[h]
        while _wait(request, lambda: os.getppid() != parent):
            share = [words[base + 1 + j] for j in range(words[base])]
            # a worker keeps its snapshot's theta as its previous iterate,
            # so theta is copied out of the slot; u is read in the compute alone
            snapshots = [ParameterState(self.slots[w, 0, 0].copy(), self.slots[w, 0, 1],
                                        words[base + 1 + workers + j])
                         for j, w in enumerate(share)]
            updates, failure = self._share(share, snapshots)
            if failure:
                return failure
            for w, upd in zip(share, updates):
                self.slots[w, 1] = upd
            reply.release()
        return None
