"""Tests for the shared-memory execution path with forked worker processes."""

import math
import mmap
import multiprocessing
import os
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from asqn import (
    ConfigError,
    DivergenceError,
    LinearGaussianModel,
    ParameterState,
    SamplerConfig,
    UpdateVector,
    WorkerState,
    asgd_step,
    compute_update,
    draw_subsample,
    master_apply,
    post_send_memory_update,
    potential,
)
from asqn import SimConfig, owners, runtime, simulator
from asqn.runtime import SharedMasterState, run
from asqn.simulator import replay

FORK = multiprocessing.get_context("fork")


def small_problem(seed=0):
    rng = np.random.default_rng(seed)
    model = LinearGaussianModel(rng.standard_normal((20, 4)),
                                rng.standard_normal(20), 1.0)
    cfg = SamplerConfig(step=1e-3, friction=0.1, n_s=3, n_o=2)
    return model, cfg


class FailingGradientModel(LinearGaussianModel):
    def likelihood_grad_sum(self, theta, indices=None):
        raise ValueError("gradient unavailable")


class HangingGradientModel(LinearGaussianModel):
    def likelihood_grad_sum(self, theta, indices=None):
        time.sleep(3600)


class CallExitsModel(LinearGaussianModel):
    """The ``call``-th gradient call of the run, in whichever worker makes
    it, ends that worker's process with exit code 7 and no report; other
    calls work."""

    def __init__(self, model, call=1):
        super().__init__(model.features, model.targets, 1.0)
        self.call = call
        self.calls = FORK.Value("i", 0)  # shared with the forked workers

    def likelihood_grad_sum(self, theta, indices=None):
        with self.calls.get_lock():
            self.calls.value += 1
            exits = self.calls.value == self.call
        if exits:
            os._exit(7)
        return super().likelihood_grad_sum(theta, indices)


class TestSharedMasterState:
    def test_initial_snapshot(self):
        master = SharedMasterState(np.array([1.0, 2.0]))
        theta, u, n = master.snapshot()
        np.testing.assert_array_equal(theta, [1.0, 2.0])
        np.testing.assert_array_equal(u, [0.0, 0.0])
        assert n == 0

    def test_snapshot_reflects_serialized_applies(self):
        master = SharedMasterState(np.zeros(2))
        for k in range(5):
            master.apply(UpdateVector(np.ones(2), -np.ones(2)), n_read=k)
        theta, u, n = master.snapshot()
        np.testing.assert_array_equal(theta, [5.0, 5.0])
        np.testing.assert_array_equal(u, [-5.0, -5.0])
        assert n == 5

    def test_staleness_recorded_per_apply(self):
        master = SharedMasterState(np.zeros(1))
        upd = UpdateVector(np.zeros(1), np.zeros(1))
        assert master.apply(upd, n_read=0)[:2] == (1, 0)
        assert master.apply(upd, n_read=0)[:2] == (2, 1)

    def test_apply_refused_once_max_updates_applied(self):
        # the apply that reaches the limit sets stop; later ones leave the
        # state untouched
        master = SharedMasterState(np.zeros(2), max_updates=2)
        upd = UpdateVector(np.ones(2), np.ones(2))
        assert master.apply(upd, n_read=0)[:2] == (1, 0)
        assert not master.stop.is_set()
        assert master.apply(upd, n_read=0)[:2] == (2, 1)
        assert master.stop.is_set()
        assert master.apply(upd, n_read=2) is None
        np.testing.assert_array_equal(master.theta, [2.0, 2.0])
        assert (master.n, master.version) == (2, 4)

    def test_snapshot_copies_are_independent(self):
        master = SharedMasterState(np.zeros(2))
        theta, u, _ = master.snapshot()
        theta[0] = 99.0
        assert master.theta[0] == 0.0

    def test_no_torn_snapshots_under_hammering_writer(self):
        # the writer keeps theta == u == constant-vector(n); any snapshot
        # mixing two versions would break one of those equalities.
        dim = 256
        master = SharedMasterState(np.zeros(dim))
        n_writes = 3000
        torn = []

        def writer():
            upd = UpdateVector(np.ones(dim), np.ones(dim))
            for _ in range(n_writes):
                master.apply(upd, n_read=0)

        def reader():
            while not master.stop.is_set():
                theta, u, n = master.snapshot()
                if not (
                    np.all(theta == theta[0])
                    and np.array_equal(theta, u)
                    and theta[0] == n
                ):
                    torn.append(n)
                    return

        w = threading.Thread(target=writer)
        readers = [threading.Thread(target=reader) for _ in range(2)]
        for t in readers:
            t.start()
        w.start()
        w.join()
        master.stop.set()
        for t in readers:
            t.join()
        assert torn == []
        assert master.n == n_writes

    def test_no_torn_snapshots_across_processes(self):
        # a forked writer process hammers apply while this process
        # snapshots.  The seqlock reader relies on x86-64 load ordering
        # (loads are not reordered with other loads); the writer keeps
        # theta == u == constant-vector(n), which a torn read would break.
        # The writer applies at least min_writes updates and goes on until
        # the reader has taken 100 snapshots mid-run and set ``done``, so a
        # loaded host slows the test down instead of failing it.  ``done``
        # is an Event of its own, as the stop word would refuse the
        # writer's later applies.
        dim = 256
        master = SharedMasterState(np.zeros(dim))
        min_writes = 50000
        upd = UpdateVector(np.ones(dim), np.ones(dim))
        done = FORK.Event()

        def writer():
            applied = 0
            while applied < min_writes or not done.is_set():
                master.apply(upd, n_read=0)
                applied += 1

        proc = FORK.Process(target=writer)
        proc.start()
        torn, mid_run = [], 0
        try:
            while proc.exitcode is None and not torn:
                theta, u, n = master.snapshot()
                # before the reader is done the writer has more updates to apply
                mid_run += 0 < n and not done.is_set()
                if not (np.all(theta == theta[0]) and np.array_equal(theta, u)
                        and theta[0] == n):
                    torn.append(n)
                if mid_run >= 100:
                    done.set()
        finally:
            done.set()
            proc.join(timeout=60)
        assert not proc.is_alive()
        assert proc.exitcode == 0
        assert torn == []
        assert mid_run >= 100  # the reads overlapped the writes
        assert master.n >= min_writes
        assert master.version == 2 * master.n

    def test_stop_word_seen_across_processes(self):
        # a forked child's set() reaches this process, and this process's
        # set() reaches a child forked before it; a per-process flag would
        # leave the child's set here unseen and the child waiting to its limit
        master = SharedMasterState(np.zeros(2))
        proc = FORK.Process(target=master.stop.set)
        proc.start()
        proc.join(timeout=20)
        assert proc.exitcode == 0
        assert master.stop.is_set()

        master = SharedMasterState(np.zeros(2))
        ready_recv, ready_send = FORK.Pipe(duplex=False)

        def waiter():
            ready_send.send(master.stop.is_set())
            deadline = time.perf_counter() + 20.0
            while not master.stop.is_set():
                if time.perf_counter() > deadline:
                    os._exit(3)
            os._exit(0)

        proc = FORK.Process(target=waiter)
        proc.start()
        try:
            assert ready_recv.poll(20) and ready_recv.recv() is False
            master.stop.set()
            proc.join(timeout=30)
            assert not proc.is_alive()
            assert proc.exitcode == 0
        finally:
            if proc.is_alive():
                proc.terminate()
                proc.join()

    def test_apply_refused_after_divergence(self):
        # the diverging apply lands, sets stop, then raises; no later apply
        # lands, so it stays the run's last
        master = SharedMasterState(np.zeros(2))
        with pytest.raises(DivergenceError) as info:
            master.apply(UpdateVector(np.full(2, np.inf), np.zeros(2)), n_read=0)
        assert info.value.iteration == 1
        assert master.stop.is_set()
        assert master.apply(UpdateVector(np.ones(2), np.ones(2)), n_read=1) is None
        assert (master.n, master.version) == (1, 2)

    def test_apply_refused_once_stop_is_set_from_outside(self):
        # the stop word alone refuses an apply, whoever set it
        master = SharedMasterState(np.zeros(2))
        upd = UpdateVector(np.ones(2), -np.ones(2))
        assert master.apply(upd, n_read=0)[:2] == (1, 0)
        master.stop.set()
        assert master.apply(upd, n_read=1) is None
        np.testing.assert_array_equal(master.theta, [1.0, 1.0])
        np.testing.assert_array_equal(master.u, [-1.0, -1.0])
        assert (master.n, master.version) == (1, 2)


class TestRun:
    def test_single_worker_matches_serial_loop(self):
        model, cfg = small_problem()
        report = run(1, cfg, model, max_updates=30, seed=5)

        rng = np.random.default_rng(5)
        worker = WorkerState(cfg, model.dim)
        state = ParameterState.start(model.dim)
        for _ in range(30):
            upd, ctx = compute_update(cfg, worker, state, model, rng)
            state = master_apply(state, upd)
            post_send_memory_update(worker, ctx, model)
        np.testing.assert_array_equal(report.final_state.theta, state.theta)
        np.testing.assert_array_equal(report.final_state.u, state.u)
        assert report.iterations == 30
        assert report.max_staleness == 0

    @pytest.mark.parametrize("algo, beta", [("as-lbfgs", math.inf), ("a-sgd", 50.0)])
    def test_single_worker_block_draws_match_one_draw_per_update(self, algo, beta):
        # a noise-free worker draws its subsamples 64 at a time; across
        # block ends its run equals the loop drawing one per update
        model, cfg = small_problem()
        cfg = replace(cfg, inv_temperature=beta)
        report = run(1, cfg, model, algo=algo, max_updates=150, seed=5)

        rng = np.random.default_rng(5)
        worker = WorkerState(cfg, model.dim)
        state = ParameterState.start(model.dim)
        for _ in range(150):
            if algo == "as-lbfgs":
                upd, ctx = compute_update(cfg, worker, state, model, rng)
                post_send_memory_update(worker, ctx, model)
            else:
                sub = draw_subsample(rng, model.n_records, cfg.n_s, cfg.n_o)
                upd = asgd_step(state.theta, cfg.step, model, sub.combined)
            state = master_apply(state, upd)
        assert report.error is None and report.iterations == 150
        np.testing.assert_array_equal(report.final_state.theta, state.theta)
        np.testing.assert_array_equal(report.final_state.u, state.u)

    @pytest.mark.parametrize("workers", [1, 2, 4, 8])
    def test_terminates_for_all_worker_counts(self, workers):
        model, cfg = small_problem()
        report = run(workers, cfg, model, max_updates=200, seed=1)
        assert report.error is None
        assert report.iterations == 200
        assert report.iterations == len(report.staleness_log)
        assert report.max_staleness >= 0

    def test_applied_updates_sum_to_final_state(self):
        # linearizability proxy: n counts exactly the applied updates and the
        # staleness log has one entry per update with n = 1..N
        model, cfg = small_problem()
        report = run(4, cfg, model, max_updates=100, seed=2)
        assert [n for n, _ in report.staleness_log] == list(
            range(1, report.iterations + 1)
        )

    def test_sampled_trace_has_monotone_iterations(self):
        model, cfg = small_problem()
        report = run(2, cfg, model, max_updates=100, seed=3, sample_every=10)
        ns = [r.iteration for r in report.trace]
        assert ns == sorted(ns)
        assert all(r.staleness >= 0 for r in report.trace)
        assert len(report.trace) >= 10

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_reported(self):
        model, cfg = small_problem()
        bad = SamplerConfig(step=1e6, friction=0.99, n_s=3, n_o=2)
        report = run(1, bad, model, max_updates=5000, seed=0)
        assert report.error is not None
        assert "non-finite" in report.error

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("algo", ["as-lbfgs", "a-sgd"])
    def test_worker_exception_stops_run_and_is_reported(self, workers, algo):
        model, cfg = small_problem()
        broken = FailingGradientModel(model.features, model.targets, 1.0)
        threads_before = threading.active_count()
        report = run(workers, cfg, broken, algo=algo, max_updates=1000, seed=0)
        assert report.error == "ValueError: gradient unavailable"
        assert report.iterations == 0
        assert threading.active_count() == threads_before
        assert multiprocessing.active_children() == []

    def test_worker_exiting_without_report_stops_the_others(self):
        model, cfg = small_problem()
        report = run(2, cfg, CallExitsModel(model), max_updates=10**9, seed=0,
                     max_wall_s=60.0)
        assert report.error == "WorkerError: worker exited with code 7"
        assert report.wall_ms < 30e3  # stopped by the error, not the wall clock
        assert report.iterations == len(report.staleness_log)
        assert multiprocessing.active_children() == []

    def test_worker_alive_after_stop_is_terminated(self, monkeypatch):
        model, cfg = small_problem()
        monkeypatch.setattr(runtime, "_STOP_GRACE_S", 0.3)
        hanging = HangingGradientModel(model.features, model.targets, 1.0)
        report = run(1, cfg, hanging, max_updates=10, seed=0, max_wall_s=0.1)
        assert report.error == "WorkerError: worker 0 still running 0.3 s after stop; terminated"
        assert report.iterations == 0
        assert report.wall_ms < 30e3
        assert multiprocessing.active_children() == []

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("case", ["success", "exception", "divergence", "max_wall_s"])
    def test_no_worker_process_outlives_run(self, case):
        model, cfg = small_problem()
        kwargs = {"max_updates": 200, "seed": 0}
        if case == "exception":
            model = FailingGradientModel(model.features, model.targets, 1.0)
        elif case == "divergence":
            cfg = SamplerConfig(step=1e6, friction=0.99, n_s=3, n_o=2)
            kwargs["max_updates"] = 5000
        elif case == "max_wall_s":
            kwargs = {"max_updates": 10**9, "seed": 0, "max_wall_s": 0.2}
        report = run(2, cfg, model, **kwargs)
        assert multiprocessing.active_children() == []
        if case in ("success", "max_wall_s"):
            assert report.error is None
            assert report.iterations > 0
        else:
            assert report.error.startswith(
                "ValueError" if case == "exception" else "DivergenceError")

    @pytest.mark.parametrize("case", ["one", "two", "twice-cpus", "eight"])
    def test_workers_pinned_one_per_cpu(self, monkeypatch, case):
        # every configured worker runs, and worker w holds exactly the
        # (w mod n)-th CPU of this process's set of n, and this process
        # keeps its own set, whether the run succeeds or fails; each forked
        # worker inherits the recording wrapper
        model, cfg = small_problem()
        before = os.sched_getaffinity(0)
        cpus = sorted(before)
        workers = {"one": 1, "two": 2, "twice-cpus": 2 * len(cpus), "eight": 8}[case]
        buf = mmap.mmap(-1, 16 * workers)
        held = np.frombuffer(buf, dtype=np.int64).reshape(workers, 2)  # (count, lowest)
        worker_main = runtime._worker_main

        def recording(w, *args):
            report = worker_main(w, *args)
            cpu_set = os.sched_getaffinity(0)
            held[w] = len(cpu_set), min(cpu_set)
            return report

        monkeypatch.setattr(runtime, "_worker_main", recording)
        for broken in (False, True):
            held[:] = -1
            used = FailingGradientModel(model.features, model.targets, 1.0) if broken else model
            report = run(workers, cfg, used, max_updates=20 * workers, seed=0)
            assert (report.error is not None) == broken
            assert len(report.compute_logs) == workers
            assert held.tolist() == [[1, cpus[w % len(cpus)]] for w in range(workers)]
            assert os.sched_getaffinity(0) == before

    def test_asgd_mode(self):
        model, cfg = small_problem()
        report = run(2, cfg, model, algo="a-sgd", max_updates=50, seed=0)
        assert report.error is None
        np.testing.assert_array_equal(report.final_state.u, 0.0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_each_worker_leaves_at_most_its_last_compute_unapplied(self, seed):
        # a refused apply ends its worker's loop, so every compute is logged
        # and only a worker's last may be unapplied
        model, cfg = small_problem()
        report = run(4, cfg, model, max_updates=200, seed=seed)
        assert report.error is None and report.iterations == 200
        for log in report.compute_logs:
            assert all(n is not None for _, n in log[:-1])
        assert sum(n is not None for log in report.compute_logs for _, n in log) == 200

    def test_invalid_arguments(self):
        model, cfg = small_problem()
        with pytest.raises(ConfigError):
            run(0, cfg, model)
        with pytest.raises(ConfigError):
            run(1, cfg, model, algo="sgld")

    @pytest.mark.parametrize("arguments, message", [
        ({"max_updates": 0}, "max_updates"),
        ({"max_updates": -5}, "max_updates"),
    ])
    def test_invalid_horizon_or_limit_rejected_before_forking(self, arguments, message):
        # max_updates 0 would still apply one update.  The wall-clock limit
        # here only bounds the test where the check is missing.
        model, cfg = small_problem()
        with pytest.raises(ConfigError, match=message):
            run(2, cfg, model, **{"max_updates": 50, "seed": 0, "max_wall_s": 5.0,
                                  **arguments})
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("arguments, key", [
        ({"max_updates": 7.5}, "max_updates"),
        ({"max_updates": 8.0}, "max_updates"),
        ({"sample_every": 2.5}, "sample_every"),
        ({"sample_every": -1}, "sample_every"),
    ])
    def test_non_integer_horizon_rejected_before_forking(self, monkeypatch, arguments, key):
        # max_updates=7.5 with sample_every=2.5 used to run 8 updates and
        # sample only n = 5
        model, cfg = small_problem()
        forks = []
        monkeypatch.setattr(owners, "fork_children", lambda *args: forks.append(args))
        with pytest.raises(ConfigError, match=f"{key} must be an integer"):
            run(2, cfg, model, **{"max_updates": 50, "seed": 0, **arguments})
        assert forks == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_result_holds_final_potential_and_sampled_states_only(self, workers):
        # no record of the initial state and no closing record
        model, cfg = small_problem()
        result = run(workers, cfg, model, max_updates=37, seed=3, sample_every=10)
        assert result.error is None
        want = potential(model, result.final_state.theta)
        assert np.float64(result.final_potential).tobytes() == np.float64(want).tobytes()
        ns = [r.iteration for r in result.trace]
        assert ns == list(range(10, result.iterations + 1, 10))
        assert result.wall_ms > 0
        assert run(1, cfg, model, max_updates=5, seed=3).trace == []


class TestReplay:
    """A run's schedule, replayed in one process through the simulator's
    replay, gives the run's final state and staleness log bit for bit.
    Each run interleaves its workers differently, so repeated runs cover
    more schedules; at W = 4 up to three workers end on a refused apply,
    whose computes the replay must still make."""

    @pytest.mark.parametrize("algo", ["as-lbfgs", "a-sgd"])
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_replay_matches_run(self, workers, algo):
        model, cfg = small_problem()
        cfg = replace(cfg, inv_temperature=1e3)  # as-lbfgs workers draw noise too
        report = run(workers, cfg, model, algo=algo, max_updates=300, seed=7)
        assert report.error is None and report.iterations == 300
        got = replay(report.schedule, SimConfig(workers=workers, seed=7, sample_every=300),
                     cfg, model, algo)
        assert got.iterations == 300
        assert got.final_state.theta.tobytes() == report.final_state.theta.tobytes()
        assert got.final_state.u.tobytes() == report.final_state.u.tobytes()
        assert got.staleness_log == report.staleness_log

    @pytest.mark.parametrize("workers", [2, 3, 4])
    def test_replay_matches_a_run_the_wall_clock_stops(self, workers):
        # the parent sets stop mid-flight: applies already under way land,
        # later ones are refused, and a worker whose apply is refused ends
        # its log with that compute, unapplied; the replay computes it too
        model, cfg = small_problem()
        cfg = replace(cfg, inv_temperature=1e3)
        report = run(workers, cfg, model, max_updates=10**9, seed=7, max_wall_s=0.3)
        assert report.error is None and 0 < report.iterations < 10**9
        got = replay(report.schedule, SimConfig(workers=workers, seed=7, sample_every=10**9),
                     cfg, model)
        assert got.iterations == report.iterations
        assert got.final_state.theta.tobytes() == report.final_state.theta.tobytes()
        assert got.final_state.u.tobytes() == report.final_state.u.tobytes()
        assert got.staleness_log == report.staleness_log

    @pytest.mark.parametrize("workers", [1, 2])
    def test_replay_matches_run_through_a_patched_master_apply(self, monkeypatch, workers):
        # the run's shared apply and the replay land every update through
        # the one master_apply, so a master-side rule changed there reaches
        # both alike: here a momentum step of half its size
        model, cfg = small_problem()
        sim = SimConfig(workers=workers, seed=7, sample_every=300)
        real_apply = master_apply

        def half_momentum(state, upd, out=None):
            return real_apply(state, UpdateVector(upd.d_theta, 0.5 * upd.d_u), out=out)

        monkeypatch.setattr(simulator, "master_apply", half_momentum)
        monkeypatch.setattr(runtime, "master_apply", half_momentum)
        report = run(workers, cfg, model, max_updates=300, seed=7)
        assert report.error is None and report.iterations == 300
        got = replay(report.schedule, sim, cfg, model)
        assert got.final_state.theta.tobytes() == report.final_state.theta.tobytes()
        assert got.final_state.u.tobytes() == report.final_state.u.tobytes()
        assert got.staleness_log == report.staleness_log
        monkeypatch.undo()
        unpatched = replay(report.schedule, sim, cfg, model)
        assert unpatched.final_state.u.tobytes() != got.final_state.u.tobytes()
        plain = run(workers, cfg, model, max_updates=300, seed=7)
        assert plain.final_state.u.tobytes() != report.final_state.u.tobytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("workers", [1, 2])
    def test_replay_of_a_diverged_run_raises_its_divergence(self, workers):
        # the diverging apply lands before its error: the worker logs it, so
        # the run's schedule holds it and its replay diverges there too.  At
        # W = 2 the other worker may compute on the diverged state, and the
        # run reports whichever error reaches it first: both name update n
        model, cfg = small_problem()
        bad = SamplerConfig(step=1e6, friction=0.99, n_s=3, n_o=2)
        for seed in range(4):
            report = run(workers, bad, model, max_updates=5000, seed=seed)
            n = report.iterations
            assert report.error in (f"DivergenceError: non-finite iterate after update {n}",
                                    f"DivergenceError: non-finite gradient at iteration {n}")
            assert len(report.staleness_log) == n
            with np.errstate(all="ignore"), pytest.raises(DivergenceError) as info:
                replay(report.schedule, SimConfig(workers=workers, seed=seed), bad, model)
            assert str(info.value) == f"non-finite iterate after update {n}"
            assert info.value.iteration == n

    @pytest.mark.parametrize("workers", [1, 2])
    def test_no_replay_schedule_where_a_report_was_lost(self, workers):
        # a worker that exits without its report takes its applies with it:
        # the run's schedule would replay short, so it raises instead
        model, cfg = small_problem()
        report = run(workers, cfg, CallExitsModel(model, call=40), max_updates=10**9, seed=0,
                     max_wall_s=60.0)
        assert report.error == "WorkerError: worker exited with code 7"
        lost = [w for w, log in enumerate(report.compute_logs) if log is None]
        assert len(lost) == 1
        with pytest.raises(ValueError, match=f"the report of worker {lost[0]} was lost"):
            report.schedule
