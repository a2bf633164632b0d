"""Worker-owning processes: every process asqn forks is created, pinned and
reported here (Linux only: ``fork`` and CPU affinity).

The workers of :func:`asqn.runtime.run`, the point processes of a simulate
sweep and the helpers of a split :func:`asqn.simulator.replay`
(:class:`WorkerOwners`) are all forked by :func:`fork_children`, which pins
each to its own CPU set and sends what the child's function returns, its
one report, to the parent; :func:`receive_report`, the one reader of a
child's pipe, takes that report or the :class:`~asqn.errors.WorkerError`
of its exit, and :func:`pinned` narrows the calling process for a block.
"""

from __future__ import annotations

import contextlib
import mmap
import multiprocessing
import os
import time as _time

import numpy as np

from .errors import WorkerError
from .sampler import WORKER_UPDATES, ParameterState, UpdateVector, WorkerState


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


def _child_main(cpus, conn, target, i, *args):
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

    A child may fork children of its own.  On exit every child still
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
# How long a waiting owner spins on a sequence word before it blocks on its
# pipe: longer than the calling process's work between two batches (about
# 50 us per batch of mf-async-sim), so a steady run does not sleep and wake
# between batches, and short enough that no process spins for long.
SPIN_S = 300e-6


def _wait(words, index, value, fd) -> bool:
    """Wait for ``words[index]`` to reach ``value``: spin up to ``SPIN_S``,
    then block on ``fd``, on which the writer sends one wake byte per
    message (:func:`_wake`).  Each byte read, of this message or of one
    already seen while spinning, makes the loop look again.  False when
    ``fd`` reaches end of file: the peer is gone.

    A reader that sees the word reads the data after it, and the writer
    writes them before it: x86-64 keeps stores in order and loads in
    order, as the runtime's seqlock relies on.  Reading no byte when the
    spin succeeds saves two system calls per batch, about 6% of an
    mf-async-sim run on a 2-core host."""
    deadline = _time.perf_counter() + SPIN_S
    while words[index] != value:
        if _time.perf_counter() > deadline and not os.read(fd, 1):
            return False
    return True


def _wake(fd):
    """Send one wake byte on the non-blocking ``fd``.  A full pipe already
    holds unread wake bytes, each of which makes a blocked reader look
    again, so this one is not needed."""
    try:
        os.write(fd, b"\0")
    except BlockingIOError:
        pass


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
    shared anonymous mapping and computes its own share while the helpers
    compute theirs, which each writes into its workers' own result slots.
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
    :class:`WorkerError` with its exit code."""

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
        for i, share in enumerate(shares[1:], 1):
            if share:
                self._request(i, share, held)
        results, failures = [], []
        for i, share in enumerate(shares):
            if not share:
                continue
            if i == 0:
                updates, failure = self._share(share, [held[w] for w in share])
            else:
                failure = self._reply(i)
                updates = None if failure else [UpdateVector(*self.slots[w, 1]) for w in share]
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

        Owner i's request and reply are words ``[i * stride]`` and ``[i *
        stride + 1]``, its share's size ``[i * stride + 2]``, and its
        workers and their snapshots' iterations the next 2W words; slot
        ``[w, 0]`` holds worker w's snapshot (theta, u) and ``[w, 1]`` its
        update (d_theta, d_u): W * 4 * d floats.  Each helper has a request
        and a reply pipe for wake bytes, whose write ends are non-blocking."""
        cpus = sorted(os.sched_getaffinity(0))
        procs = min(len(cpus), len(self.workers))
        if procs == 1 or _other_threads():
            return
        self.procs = procs
        workers, dim = len(self.workers), self.model.dim
        self.stride = 3 + 2 * workers
        ints = self.procs * self.stride
        shared = mmap.mmap(-1, 8 * ints + 32 * workers * dim)
        self.words = memoryview(shared)[:8 * ints].cast("q")
        self.slots = np.frombuffer(shared, dtype=float, offset=8 * ints).reshape(
            workers, 2, 2, dim)
        self.sent = [0] * self.procs  # the last request of each owner
        pipes = [(*os.pipe(), *os.pipe()) for _ in range(self.procs - 1)]  # request, reply
        for request_r, request_w, reply_r, reply_w in pipes:
            os.set_blocking(request_w, False)
            os.set_blocking(reply_w, False)
            self.callback(os.close, request_w)
            self.callback(os.close, reply_r)
        try:
            helpers, conns = self.enter_context(fork_children(
                [{cpu} for cpu in cpus[1:procs]], _helper_main, (self, pipes)))
        finally:
            for request_r, _, _, reply_w in pipes:
                os.close(request_r)
                os.close(reply_w)
        # (process, connection, request fd, reply fd) of each helper
        self.helpers = [(proc, conn, request_w, reply_r) for proc, conn, (_, request_w, reply_r, _)
                        in zip(helpers, conns, pipes)]
        self.enter_context(pinned({cpus[0]}))

    def _request(self, i, share, held):
        """Send owner i its share, each worker at its state in ``held``."""
        words, base, workers = self.words, i * self.stride, len(self.workers)
        words[base + 2] = len(share)
        for j, w in enumerate(share):
            words[base + 3 + j] = w
            words[base + 3 + workers + j] = held[w].iteration
            snapshot = self.slots[w, 0]
            snapshot[0] = held[w].theta
            snapshot[1] = held[w].u
        self.sent[i] += 1
        words[base] = self.sent[i]
        _wake(self.helpers[i - 1][2])

    def _reply(self, i):
        """Wait for owner i's reply: None, or, once its reply pipe reaches
        end of file, its report, the (position, error) of its share's first
        failure.  Raises WorkerError if it exited without one."""
        proc, conn, _, reply = self.helpers[i - 1]
        if _wait(self.words, i * self.stride + 1, self.sent[i], reply):
            return None
        failure, died = receive_report(conn, proc)
        if died:
            raise WorkerError(f"replay helper process {i} exited with code {proc.exitcode}")
        return failure

    def serve(self, i, request, reply):
        """Owner i's loop in its helper process: compute each request and
        reply, until the request pipe reaches end of file (None), or until a
        share fails: then close the reply pipe, so that the calling process
        reads the report, however large, and return the failure's
        ``(position, error)``."""
        words, base, workers = self.words, i * self.stride, len(self.workers)
        seq = 0
        while True:
            seq += 1
            if not _wait(words, base, seq, request):
                return None
            share = [words[base + 3 + j] for j in range(words[base + 2])]
            # a worker keeps its snapshot's theta as its previous iterate,
            # so theta is copied out of the slot; u is read in the compute alone
            snapshots = [ParameterState(self.slots[w, 0, 0].copy(), self.slots[w, 0, 1],
                                        words[base + 3 + workers + j])
                         for j, w in enumerate(share)]
            updates, failure = self._share(share, snapshots)
            if failure:
                os.close(reply)
                return failure
            for w, upd in zip(share, updates):
                self.slots[w, 1, 0] = upd.d_theta
                self.slots[w, 1, 1] = upd.d_u
            words[base + 1] = seq
            _wake(reply)


def _helper_main(i, owners, pipes):
    """Helper process i + 1 of a split replay, pinned to its CPU by
    :func:`fork_children`: keeps of ``pipes`` only the read end of its
    request pipe and the write end of its reply pipe, so that each reaches
    end of file when its one peer exits, and serves its owner's requests;
    returns its report."""
    request, _, _, reply = pipes[i]
    for fd in (fd for fds in pipes for fd in fds):
        if fd not in (request, reply):
            os.close(fd)
    return owners.serve(i + 1, request, reply)
