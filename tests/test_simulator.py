"""Tests for the discrete-event simulator."""

import contextlib
import heapq
import itertools
import math
import multiprocessing
import os
import signal
import sys
import threading
import time
import types
from dataclasses import replace

import numpy as np
import pytest

from asqn import (
    ConfigError,
    DivergenceError,
    LinearGaussianModel,
    MatrixFactorizationModel,
    MbLbfgsMaster,
    ParameterState,
    SamplerConfig,
    SimConfig,
    TraceRecord,
    WorkerError,
    WorkerState,
    asgd_step,
    combined_gradient,
    compute_update,
    draw_subsample,
    master_apply,
    post_send_memory_update,
    potential,
    rmse,
    run_async,
    run_sync_mb,
    sgld_step,
    time_to_epsilon,
)
from asqn.experiments import run_sgld_serial, synth_matrix_factorization
import asqn.owners
from asqn import runtime, simulator
from asqn.simulator import (ComputeTimes, SimResult, async_schedule, replay,
                            write_trace_csv)


def small_problem(seed=0):
    rng = np.random.default_rng(seed)
    model = LinearGaussianModel(rng.standard_normal((20, 4)),
                                rng.standard_normal(20), 1.0)
    cfg = SamplerConfig(step=1e-3, friction=0.1, n_s=3, n_o=2)
    return model, cfg


def sample_compute_time(rng, mu, sigma):
    """The former one-draw compute-time sampler, the reference the engines'
    blocked compute times are checked against: a log-normal draw with mean
    mu and standard deviation sigma, and no draw when either is 0."""
    if mu == 0.0:
        return 0.0
    if sigma == 0.0:
        return float(mu)
    s2 = math.log(1.0 + (sigma / mu) ** 2)
    return float(rng.lognormal(mean=math.log(mu) - 0.5 * s2, sigma=math.sqrt(s2)))


class TestComputeTimeDistribution:
    """ComputeTimes draws log-normal times with mean mu_worker and standard
    deviation sigma_worker."""

    @staticmethod
    def times(mu, sigma, n, seed):
        """n compute times of worker 0, in one block."""
        return ComputeTimes(SimConfig(mu_worker=mu, sigma_worker=sigma, seed=seed),
                            rows=n).block(0)

    @pytest.mark.parametrize("mu, sigma", [(5.0, 0.0), (0.0, 3.0)])
    def test_zero_mean_or_sigma_draws_nothing(self, mu, sigma):
        times = ComputeTimes(SimConfig(mu_worker=mu, sigma_worker=sigma), rows=8)
        assert times.block(0).tolist() == [mu] * 8
        assert times.next(0) == mu
        assert times.rngs == []  # no generator is built, so none is drawn from

    def test_moderate_tail_mean_and_std(self):
        # mu = 10, sigma = 5: light enough tail for the moment estimates to
        # concentrate; mean and std within 1% over 2e5 draws.
        draws = self.times(10.0, 5.0, 200000, seed=1)
        assert abs(draws.mean() / 10.0 - 1.0) < 0.01
        assert abs(draws.std() / 5.0 - 1.0) < 0.01

    def test_heavy_tail_log_domain_parameters(self):
        # mu = 10, sigma = 200 puts essentially all the variance in a tail
        # whose sample std does not concentrate at any reasonable draw count
        # (log-variance s^2 = ln(1 + 400) gives excess kurtosis ~ e^{4 s^2});
        # verify the underlying normal parameters in log domain instead.
        mu, sigma = 10.0, 200.0
        s2 = math.log(1 + (sigma / mu) ** 2)
        m = math.log(mu) - s2 / 2
        logs = np.log(self.times(mu, sigma, 300000, seed=2))
        assert abs(logs.mean() - m) < 0.01 * abs(m) + 0.01
        assert abs(logs.std() / math.sqrt(s2) - 1.0) < 0.01

    def test_nonnegative(self):
        assert (self.times(1.0, 10.0, 1000, seed=3) >= 0.0).all()


class TestRunAsync:
    def test_single_worker_zero_staleness(self):
        model, cfg = small_problem()
        sim = SimConfig(workers=1, mu_worker=5.0, max_updates=50)
        res = run_async(sim, cfg, model)
        assert res.iterations == 50
        assert all(l == 0 for _, l in res.staleness_log)

    def test_two_workers_staleness_one_after_warmup(self):
        model, cfg = small_problem()
        sim = SimConfig(workers=2, mu_master=0.0, mu_worker=5.0,
                        sigma_worker=0.0, comm_time=0.0, max_updates=40)
        res = run_async(sim, cfg, model)
        assert all(l == 1 for _, l in res.staleness_log[2:])
        assert res.max_staleness == 1

    def test_pipelined_virtual_time(self):
        # mu_m = tau = sigma = 0: N updates take ceil(N/W) * mu_w
        model, cfg = small_problem()
        for w, n in [(1, 30), (3, 30), (4, 30)]:
            sim = SimConfig(workers=w, mu_worker=7.0, max_updates=n)
            res = run_async(sim, cfg, model)
            assert res.final_time == pytest.approx(math.ceil(n / w) * 7.0)

    def test_throughput_scales_linearly(self):
        model, cfg = small_problem()
        rates = []
        for w in (1, 8):
            sim = SimConfig(workers=w, mu_worker=5.0, max_updates=80)
            res = run_async(sim, cfg, model)
            rates.append(res.iterations / res.final_time)
        assert rates[1] == pytest.approx(8.0 * rates[0])

    def test_deterministic_given_seed(self):
        model, cfg = small_problem()
        sim = SimConfig(workers=4, mu_worker=5.0, sigma_worker=3.0,
                        comm_time=1.0, max_updates=60, seed=7)
        a = run_async(sim, cfg, model)
        b = run_async(sim, cfg, model)
        assert [
            (r.time, r.iteration, r.staleness, r.potential) for r in a.trace
        ] == [(r.time, r.iteration, r.staleness, r.potential) for r in b.trace]

    def test_trajectory_matches_serial_replay(self):
        # the simulator only schedules; with W = 1 the trajectory must be
        # the serial one computed directly from the sampler operations.
        from asqn import (
            ParameterState,
            WorkerState,
            compute_update,
            master_apply,
            post_send_memory_update,
        )

        model, cfg = small_problem()
        sim = SimConfig(workers=1, mu_worker=1.0, max_updates=25, seed=3)
        res = run_async(sim, cfg, model)

        rng = np.random.default_rng(sim.seed)
        worker = WorkerState(cfg, model.dim)
        state = ParameterState.start(model.dim)
        for _ in range(25):
            upd, ctx = compute_update(cfg, worker, state, model, rng)
            state = master_apply(state, upd)
            post_send_memory_update(worker, ctx, model)
        np.testing.assert_array_equal(res.final_state.theta, state.theta)
        np.testing.assert_array_equal(res.final_state.u, state.u)

    def test_max_time_truncates(self):
        model, cfg = small_problem()
        sim = SimConfig(workers=2, mu_worker=5.0, max_updates=10000, max_time=100.0)
        res = run_async(sim, cfg, model)
        assert res.truncated
        assert res.iterations < 10000

    @pytest.mark.parametrize("max_updates", [0, 10**6])
    def test_no_update_applied_after_max_time(self, max_updates):
        # mu_master 30 queues the arrivals: an apply that starts before
        # max_time can end after it, and is then not applied
        model, cfg = small_problem()
        timing = dict(workers=3, mu_worker=50.0, mu_master=30.0, comm_time=5.0)
        res = run_async(SimConfig(max_updates=max_updates, max_time=1000.0, **timing),
                        cfg, model)
        assert res.truncated
        assert res.final_time <= 1000.0
        full = run_async(SimConfig(max_updates=60, **timing), cfg, model)
        assert res.trace == full.trace[:len(res.trace)]
        assert full.trace[len(res.trace)].time > 1000.0
        for rec in full.trace[1:-1:7]:
            res = run_async(SimConfig(max_updates=60, max_time=rec.time + 1.0, **timing),
                            cfg, model)
            assert res.truncated
            assert res.trace[-1] == rec and res.iterations == rec.iteration

    def test_trace_invariants(self):
        model, cfg = small_problem()
        sim = SimConfig(workers=3, mu_worker=5.0, sigma_worker=2.0,
                        comm_time=1.0, max_updates=50)
        res = run_async(sim, cfg, model)
        ns = [r.iteration for r in res.trace]
        ts = [r.time for r in res.trace]
        assert ns == sorted(ns) and len(set(ns)) == len(ns)
        assert ts == sorted(ts)
        assert all(r.staleness >= 0 for r in res.trace)

    def test_asgd_algo_runs(self):
        model, cfg = small_problem()
        sim = SimConfig(workers=2, mu_worker=5.0, max_updates=30)
        res = run_async(sim, cfg, model, algo="a-sgd")
        assert res.iterations == 30
        np.testing.assert_array_equal(res.final_state.u, 0.0)

    def test_unknown_algo_rejected(self):
        model, cfg = small_problem()
        with pytest.raises(ConfigError):
            run_async(SimConfig(max_updates=1), cfg, model, algo="newton")


def _record(trace, model, state, time, staleness, include_rmse):
    """The former trace record of the simulators: one potential() call, and
    one rmse() call when the model is MF."""
    trace.append(
        TraceRecord(
            time=time,
            iteration=state.iteration,
            staleness=staleness,
            potential=potential(model, state.theta),
            rmse=rmse(model, state.theta) if include_rmse else None,
        )
    )


def per_worker_run_async(sim_cfg, sampler_cfg, model, algo="as-lbfgs", theta0=None):
    """The former asynchronous event loop: each receive computes its worker's
    update at its pop, one worker at a time."""
    dim = model.dim
    state = ParameterState.start(dim)
    if theta0 is not None:
        state.theta = np.asarray(theta0, dtype=float).copy()
    include_rmse = isinstance(model, MatrixFactorizationModel)
    time_rngs = [np.random.default_rng((sim_cfg.seed, w, 1)) for w in range(sim_cfg.workers)]
    samp_rngs = [np.random.default_rng(sim_cfg.seed + w) for w in range(sim_cfg.workers)]
    workers = [WorkerState(sampler_cfg, dim) for _ in range(sim_cfg.workers)]
    trace, staleness_log = [], []
    _record(trace, model, state, 0.0, 0, include_rmse)
    heap, seq, master_busy_until = [], 0, 0.0

    def push(time, worker, kind, payload):
        nonlocal seq
        heapq.heappush(heap, (time, worker, seq, kind, payload))
        seq += 1

    for w in range(sim_cfg.workers):
        push(sim_cfg.comm_time, w, "receive", state.copy())
    truncated = False
    while True:
        t, w, _, kind, payload = heapq.heappop(heap)
        if t > sim_cfg.max_time:
            truncated = True
            break
        if kind == "receive":
            snapshot = payload
            c = sample_compute_time(time_rngs[w], sim_cfg.mu_worker, sim_cfg.sigma_worker)
            if algo == "as-lbfgs":
                upd, ctx = compute_update(sampler_cfg, workers[w], snapshot, model, samp_rngs[w])
                post_send_memory_update(workers[w], ctx, model)
            else:
                sub = draw_subsample(samp_rngs[w], model.n_records, sampler_cfg.n_s,
                                     sampler_cfg.n_o)
                upd = asgd_step(snapshot.theta, sampler_cfg.step, model, sub.combined)
            push(t + c + sim_cfg.comm_time, w, "arrive", (upd, snapshot.iteration))
        else:
            upd, n_read = payload
            if max(t, master_busy_until) + sim_cfg.mu_master > sim_cfg.max_time:
                truncated = True
                break
            staleness = state.iteration - n_read
            state = master_apply(state, upd)
            staleness_log.append((state.iteration, staleness))
            master_busy_until = max(t, master_busy_until) + sim_cfg.mu_master
            if state.iteration % sim_cfg.sample_every == 0:
                _record(trace, model, state, master_busy_until, staleness, include_rmse)
            push(master_busy_until + sim_cfg.comm_time, w, "receive", state)
            if state.iteration >= sim_cfg.update_limit:
                break
    if trace[-1].iteration != state.iteration:
        _record(trace, model, state, master_busy_until,
                staleness_log[-1][1] if staleness_log else 0, include_rmse)
    return SimResult(trace=trace, final_state=state, staleness_log=staleness_log,
                     truncated=truncated)


def same_result(a, b):
    return (a.trace == b.trace and a.staleness_log == b.staleness_log
            and a.truncated == b.truncated
            and np.array_equal(a.final_state.theta, b.final_state.theta)
            and np.array_equal(np.signbit(a.final_state.theta), np.signbit(b.final_state.theta))
            and np.array_equal(a.final_state.u, b.final_state.u)
            and a.final_state.iteration == b.final_state.iteration)


def problem(name):
    """(model, sampler config, theta0) of a small LG or MF problem."""
    if name == "lg":
        model, cfg = small_problem()
        return model, SamplerConfig(step=1e-2, friction=0.1, inv_temperature=1e3, n_s=3,
                                    n_o=2, rho=0.5), None
    model = synth_matrix_factorization(0, 12, 15, 2)
    cfg = SamplerConfig(step=1e-3, friction=0.1, inv_temperature=1e4, n_s=5, n_o=3,
                        epsilon=0.5)
    return model, cfg, 0.1 * np.random.default_rng(1).standard_normal(model.dim)


class TestDeferredComputes:
    """run_async computes the receives it defers in stacked batches; its
    results equal the per-worker loop's, bit for bit, errors included."""

    @pytest.mark.parametrize("workers", [1, 3, 10])
    @pytest.mark.parametrize("algo", ["as-lbfgs", "a-sgd"])
    @pytest.mark.parametrize("name", ["lg", "mf"])
    def test_matches_per_worker_loop(self, name, algo, workers):
        model, cfg, theta0 = problem(name)
        for sigma, comm, mu_master in [(0.0, 0.0, 0.0), (0.0, 10.0, 4.0),
                                       (50.0, 0.0, 4.0), (50.0, 10.0, 0.0)]:
            sim = SimConfig(workers=workers, mu_worker=100.0, sigma_worker=sigma,
                            comm_time=comm, mu_master=mu_master, max_updates=120,
                            sample_every=7, seed=5)
            got = run_async(sim, cfg, model, algo=algo, theta0=theta0)
            want = per_worker_run_async(sim, cfg, model, algo=algo, theta0=theta0)
            assert same_result(got, want), (sigma, comm, mu_master)
            assert got.iterations == 120

    @pytest.mark.parametrize("max_updates", [10**6, 0])
    @pytest.mark.parametrize("algo", ["as-lbfgs", "a-sgd"])
    def test_matches_per_worker_loop_at_a_time_horizon(self, algo, max_updates):
        # truncated by max_time, with an update limit never reached or none
        model, cfg, theta0 = problem("lg")
        sim = SimConfig(workers=4, mu_worker=100.0, sigma_worker=50.0, comm_time=10.0,
                        mu_master=4.0, max_updates=max_updates, max_time=2345.0,
                        sample_every=5, seed=8)
        got = run_async(sim, cfg, model, algo=algo, theta0=theta0)
        assert got.truncated and got.iterations > 50
        assert same_result(got, per_worker_run_async(sim, cfg, model, algo, theta0))

    @pytest.mark.parametrize("seed, update", [(7, 166), (6, 210)])
    def test_matrix_factorization_demo_divergence(self, seed, update):
        # the demo's admission threshold diverges on these sub-seeds of the
        # benchmark's configuration; type, message and iteration are kept
        model = synth_matrix_factorization(seed=0, n_rows=200, n_cols=300, rank=3,
                                           noise_std=0.1, observed_fraction=0.1)
        theta0 = 0.1 * np.random.default_rng(1).standard_normal(model.dim)
        cfg = SamplerConfig(step=3e-6, friction=0.1, n_s=40, n_o=20, memory_size=3,
                            epsilon=0.1, rho=3.0)
        sim = SimConfig(workers=4, mu_worker=1.0, max_updates=3000, sample_every=100,
                        seed=seed)
        errors = []
        for engine in (run_async, per_worker_run_async):
            with pytest.raises(DivergenceError) as info, np.errstate(all="ignore"):
                engine(sim, cfg, model, algo="as-lbfgs", theta0=theta0)
            errors.append((type(info.value), str(info.value), info.value.iteration))
        assert errors[0] == errors[1]
        assert errors[0][1:] == (f"non-finite iterate after update {update}", update)

    def test_deferred_gradient_error_reported_before_later_divergence(self, monkeypatch):
        # Worker A's gradient raises at the receive that carries state i;
        # the apply numbered j diverges.  Computing A's receive at its pop
        # (the per-worker loop) decides which error comes first; deferring
        # it must not let an apply popped after that receive raise first.
        model, cfg, _ = problem("lg")
        sim = SimConfig(workers=3, mu_worker=100.0, sigma_worker=50.0, comm_time=10.0,
                        max_updates=40, seed=2)
        states = [ParameterState.start(model.dim)]
        real_apply = master_apply

        def recording_apply(state, upd):
            states.append(real_apply(state, upd))
            return states[-1]

        monkeypatch.setattr(simulator, "master_apply", recording_apply)
        run_async(sim, cfg, model)
        outcomes = set()
        for i in range(5, 25):
            for j in range(i + 1, i + 5):
                def failing_apply(state, upd, j=j):
                    if state.iteration + 1 == j:
                        raise DivergenceError(f"apply {j}", iteration=j)
                    return real_apply(state, upd)

                model_i = RaisingAt(model, states[i].theta)
                errors = []
                for engine, module in ((run_async, simulator),
                                       (per_worker_run_async, sys.modules[__name__])):
                    monkeypatch.setattr(module, "master_apply", failing_apply)
                    with pytest.raises(Exception) as info:
                        engine(sim, cfg, model_i)
                    errors.append((type(info.value), str(info.value)))
                assert errors[0] == errors[1], (i, j)
                outcomes.add(errors[0][0])
        assert outcomes == {RuntimeError, DivergenceError}

    def test_leftover_deferred_receives_computed_at_the_horizon(self):
        # the receives popped before the update limit are computed, as the
        # per-worker loop computed them at their pops, so their errors show
        # (worker 0's reply to apply 4 pops before worker 1's arrive, which
        # applies update 5 and ends the run)
        model, cfg, _ = problem("lg")
        sim = SimConfig(workers=3, mu_worker=100.0, max_updates=5, seed=1)
        fourth = run_async(SimConfig(workers=3, mu_worker=100.0, max_updates=4, seed=1),
                           cfg, model).final_state
        assert run_async(sim, cfg, RaisingAt(model, np.ones(model.dim))).iterations == 5
        for engine in (run_async, per_worker_run_async):
            with pytest.raises(RuntimeError, match="marked"):
                engine(sim, cfg, RaisingAt(model, fourth.theta))


def outcome(run):
    """``run()``'s result, or the type, message and iteration of the error
    it raises."""
    try:
        return run()
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "iteration", None)


def identical(a, b):
    """Whether two outcomes are the same bit for bit: trace, staleness log
    and final theta and u with their sign bits, or the same error."""
    if not isinstance(a, SimResult) or not isinstance(b, SimResult):
        return a == b
    return (a.trace == b.trace and a.staleness_log == b.staleness_log
            and a.truncated == b.truncated and a.iterations == b.iterations
            and a.final_state.theta.tobytes() == b.final_state.theta.tobytes()
            and a.final_state.u.tobytes() == b.final_state.u.tobytes())


@pytest.fixture
def owners(monkeypatch):
    """The owner count (1: nothing forked) and the one-process compute
    time and update count of the last replay to finish in this process."""
    seen = {}
    real_exit = asqn.owners.WorkerOwners.__exit__

    def recording_exit(self, *exc_info):
        seen.update(procs=self.procs, compute_s=self.compute_s, computed=self.computed)
        return real_exit(self, *exc_info)

    monkeypatch.setattr(asqn.owners.WorkerOwners, "__exit__", recording_exit)
    return seen


@pytest.fixture
def split(monkeypatch, owners):
    """``split(run)``: the outcomes of ``run()`` in one process, then with
    its replay split from the first batch and from a third of the first
    run's computes, each checked to leave no process behind; and the owner
    count of each.  The mid-run case sets ``FORK_AHEAD`` to 0, as the rule
    would refuse a fork a third of the way into a run, and checks that its
    first batch was computed in one process.

    The owners' clock ticks once per reading, so a one-process compute
    takes 1 and the mid-run case forks at the batch a third of the way
    into the run on any host; a wait that finds its semaphore unreleased
    then blocks on it at once."""
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("a replay splits on 2+ CPUs only")
    monkeypatch.setattr(asqn.owners, "_time",
                        types.SimpleNamespace(perf_counter=itertools.count().__next__))

    def outcomes(run):
        got, cpus = [], os.sched_getaffinity(0)
        for case in ("one process", "first batch", "mid-run"):
            if case == "one process":
                monkeypatch.setattr(asqn.owners, "FORK_AFTER_S", math.inf)
            elif case == "first batch":
                one_process_s = owners["compute_s"]
                monkeypatch.setattr(asqn.owners, "FORK_AFTER_S", 0.0)
            else:
                monkeypatch.setattr(asqn.owners, "FORK_AFTER_S", one_process_s / 3)
                monkeypatch.setattr(asqn.owners, "FORK_AHEAD", 0)
            got.append((outcome(run), owners["procs"]))
            if case == "mid-run":
                assert owners["computed"] > 0
            assert multiprocessing.active_children() == []
            assert os.sched_getaffinity(0) == cpus
        return got
    return outcomes


def split_owners(workers):
    return min(len(os.sched_getaffinity(0)), workers)


class TestSplitReplay:
    """A replay split across helper processes gives the outcome of one
    process, bit for bit, errors included, and leaves no process behind.
    The owners' wait protocol interleaves differently on every run, so CI
    runs these tests repeatedly."""

    @pytest.mark.parametrize("workers", [2, 3, 10])
    @pytest.mark.parametrize("algo", ["as-lbfgs", "a-sgd"])
    @pytest.mark.parametrize("name", ["lg", "mf"])
    def test_split_matches_one_process(self, split, name, algo, workers):
        model, cfg, theta0 = problem(name)
        for sigma in (0.0, 50.0):
            sim = SimConfig(workers=workers, mu_worker=100.0, sigma_worker=sigma,
                            comm_time=10.0, mu_master=4.0, max_updates=300, sample_every=7,
                            seed=5)
            (one, p1), (start, p2), (mid, p3) = split(
                lambda: run_async(sim, cfg, model, algo=algo, theta0=theta0))
            assert isinstance(one, SimResult) and one.iterations == 300
            assert (p1, p2, p3) == (1, split_owners(workers), split_owners(workers))
            assert identical(start, one) and identical(mid, one), sigma

    def test_split_replay_of_a_run_mode_schedule(self, split):
        model, cfg = small_problem()
        cfg = replace(cfg, inv_temperature=1e3)
        report = runtime.run(3, cfg, model, max_updates=300, seed=7)
        assert report.error is None
        sim = SimConfig(workers=3, seed=7, sample_every=300)
        (one, _), (start, procs), (mid, _) = split(
            lambda: replay(report.schedule, sim, cfg, model))
        assert procs == split_owners(3)
        assert identical(start, one) and identical(mid, one)
        assert one.final_state.theta.tobytes() == report.final_state.theta.tobytes()
        assert one.staleness_log == report.staleness_log

    @pytest.mark.parametrize("seed, update", [(7, 166), (6, 210)])
    def test_split_matrix_factorization_demo_divergence(self, split, seed, update):
        model = synth_matrix_factorization(seed=0, n_rows=200, n_cols=300, rank=3,
                                           noise_std=0.1, observed_fraction=0.1)
        theta0 = 0.1 * np.random.default_rng(1).standard_normal(model.dim)
        cfg = SamplerConfig(step=3e-6, friction=0.1, n_s=40, n_o=20, memory_size=3,
                            epsilon=0.1, rho=3.0)
        sim = SimConfig(workers=4, mu_worker=1.0, max_updates=3000, sample_every=100,
                        seed=seed)
        with np.errstate(all="ignore"):
            got = split(lambda: run_async(sim, cfg, model, algo="as-lbfgs", theta0=theta0))
        want = (DivergenceError, f"non-finite iterate after update {update}", update)
        assert got == [(want, 1), (want, split_owners(4)), (want, split_owners(4))]

    def test_split_gradient_error_before_later_divergence(self, split, monkeypatch):
        # test_deferred_gradient_error_reported_before_later_divergence's
        # cases: a gradient that raises in some owner's share of a batch
        # comes before an apply that diverges after it
        model, cfg, _ = problem("lg")
        sim = SimConfig(workers=3, mu_worker=100.0, sigma_worker=50.0, comm_time=10.0,
                        max_updates=40, seed=2)
        states = [ParameterState.start(model.dim)]
        real_apply = master_apply
        monkeypatch.setattr(simulator, "master_apply",
                            lambda state, upd: states.append(real_apply(state, upd)) or states[-1])
        run_async(sim, cfg, model)
        kinds = set()
        for i in range(5, 25):
            for j in range(i + 1, i + 5):
                def failing_apply(state, upd, j=j):
                    if state.iteration + 1 == j:
                        raise DivergenceError(f"apply {j}", iteration=j)
                    return real_apply(state, upd)

                monkeypatch.setattr(simulator, "master_apply", failing_apply)
                model_i = RaisingAt(model, states[i].theta)
                got = split(lambda: run_async(sim, cfg, model_i))
                assert got[0][0] == got[1][0] == got[2][0], (i, j)
                kinds.add(got[0][0][0])
        assert kinds == {RuntimeError, DivergenceError}

    def test_split_leftover_receives_computed_at_the_horizon(self, split):
        model, cfg, _ = problem("lg")
        sim = SimConfig(workers=3, mu_worker=100.0, max_updates=5, seed=1)
        fourth = run_async(SimConfig(workers=3, mu_worker=100.0, max_updates=4, seed=1),
                           cfg, model).final_state
        got = split(lambda: run_async(sim, cfg, RaisingAt(model, fourth.theta)))
        want = (RuntimeError, "marked parameter", None)
        assert got == [(want, 1), (want, split_owners(3)), (want, split_owners(3))]

    @pytest.mark.parametrize("algo", ["as-lbfgs", "a-sgd"])
    def test_split_raises_the_first_failing_start(self, split, monkeypatch, algo):
        # two consecutive states, read by consecutive workers, so often in
        # one batch and in different owners' shares, raise; the error names
        # the state, so it tells which start failed first
        model, cfg, _ = problem("lg")
        sim = SimConfig(workers=4, mu_worker=100.0, max_updates=60, seed=4)
        states = [ParameterState.start(model.dim)]
        real_apply = master_apply
        monkeypatch.setattr(simulator, "master_apply",
                            lambda state, upd: states.append(real_apply(state, upd)) or states[-1])
        run_async(sim, cfg, model, algo=algo)
        monkeypatch.setattr(simulator, "master_apply", real_apply)

        class RaisingAtEither(LinearGaussianModel):
            def likelihood_grad_sum(self, theta, indices=None):
                for row in np.atleast_2d(theta):
                    for n in (i, i + 1):
                        if np.array_equal(row, states[n].theta):
                            raise RuntimeError(f"marked state {n}")
                return super().likelihood_grad_sum(theta, indices)

        for i in range(8, 40, 3):
            marked = RaisingAtEither(model.features, model.targets, model.noise_variance)
            got = split(lambda: run_async(sim, cfg, marked, algo=algo))
            assert got[0][0] == got[1][0] == got[2][0], i
            assert got[0][0][:2] == (RuntimeError, f"marked state {i}"), i

    def test_killed_helper_raises_worker_error(self, owners, monkeypatch):
        if len(os.sched_getaffinity(0)) < 2:
            pytest.skip("a replay splits on 2+ CPUs only")
        model, cfg, _ = problem("lg")
        sim = SimConfig(workers=2, mu_worker=100.0, max_updates=400, seed=3)
        tenth = run_async(replace(sim, max_updates=10), cfg, model).final_state
        parent = os.getpid()

        class KilledAt(RaisingAt):
            """Kills the helper process that computes at the marked state."""

            def likelihood_grad_sum(self, theta, indices=None):
                if os.getpid() != parent and np.any(np.all(np.atleast_2d(theta) == self.marked,
                                                           axis=-1)):
                    os.kill(os.getpid(), signal.SIGKILL)
                return LinearGaussianModel.likelihood_grad_sum(self, theta, indices)

        monkeypatch.setattr(asqn.owners, "FORK_AFTER_S", 0.0)

        def hung(*_):
            raise TimeoutError("the replay did not notice its helper's death")

        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(60)
        try:
            t0 = time.perf_counter()
            with pytest.raises(WorkerError, match="exited with code -9"):
                run_async(sim, cfg, KilledAt(model, tenth.theta))
            assert time.perf_counter() - t0 < 30.0
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert owners["procs"] == 2
        assert multiprocessing.active_children() == []

    def test_split_helper_error_of_a_megabyte_reaches_the_caller(self, owners, monkeypatch):
        # a helper's failure is its report, which the caller reads once it
        # finds the report pipe readable: an error larger than a pipe's
        # buffer must not block the helper before the caller reads it
        if len(os.sched_getaffinity(0)) < 2:
            pytest.skip("a replay splits on 2+ CPUs only")
        model, cfg, _ = problem("lg")
        sim = SimConfig(workers=2, mu_worker=100.0, max_updates=400, seed=3)
        tenth = run_async(replace(sim, max_updates=10), cfg, model).final_state
        parent = os.getpid()
        message = "marked " + "x" * (1 << 20)

        class LargeErrorAt(RaisingAt):
            """Raises a 1 MB error in the helper process that computes at the
            marked state."""

            def likelihood_grad_sum(self, theta, indices=None):
                if os.getpid() != parent and np.any(np.all(np.atleast_2d(theta) == self.marked,
                                                           axis=-1)):
                    raise RuntimeError(message)
                return LinearGaussianModel.likelihood_grad_sum(self, theta, indices)

        monkeypatch.setattr(asqn.owners, "FORK_AFTER_S", 0.0)

        def hung(*_):
            raise TimeoutError("the helper blocked on its report")

        before = os.sched_getaffinity(0)
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(20)
        try:
            with pytest.raises(RuntimeError) as info:
                run_async(sim, cfg, LargeErrorAt(model, tenth.theta))
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert str(info.value) == message
        assert owners["procs"] == 2
        assert multiprocessing.active_children() == []
        assert os.sched_getaffinity(0) == before

    def test_split_in_a_forked_child_on_its_cpu_share(self, owners, monkeypatch):
        # a child forked on two CPUs splits its replay across them, as its
        # parent would; each of its helpers is its own child
        cpus = sorted(os.sched_getaffinity(0))[:2]
        if len(cpus) < 2:
            pytest.skip("a replay splits on 2+ CPUs only")
        model, cfg, _ = problem("lg")
        sim = SimConfig(workers=4, mu_worker=100.0, max_updates=100, seed=3)
        monkeypatch.setattr(asqn.owners, "FORK_AFTER_S", math.inf)
        want = run_async(sim, cfg, model)
        assert owners["procs"] == 1
        monkeypatch.setattr(asqn.owners, "FORK_AFTER_S", 0.0)

        def child(_):
            return outcome(lambda: run_async(sim, cfg, model)), owners["procs"]

        with asqn.owners.fork_children([set(cpus)], child, ()) as (procs, conns):
            report, died = asqn.owners.receive_report(conns[0], procs[0])
        assert died is None
        got, procs = report
        assert procs == 2
        assert identical(got, want)
        assert multiprocessing.active_children() == []

    def test_split_helper_ends_when_its_caller_is_killed(self, monkeypatch):
        # a child splits its replay, then is killed while its helper is
        # inside a share: the child's report must read as its exit at once,
        # as the helper holds no copy of its pipe, and the helper,
        # reparented, must notice and exit rather than wait forever
        cpus = sorted(os.sched_getaffinity(0))[:2]
        if len(cpus) < 2:
            pytest.skip("a replay splits on 2+ CPUs only")
        model, cfg, _ = problem("lg")
        sim = SimConfig(workers=2, mu_worker=100.0, max_updates=400, seed=3)
        fork = multiprocessing.get_context("fork")
        helper, stalled, release = fork.Value("i", 0), fork.Event(), fork.Event()
        monkeypatch.setattr(asqn.owners, "FORK_AFTER_S", 0.0)

        class StallsHelper(LinearGaussianModel):
            """Records the helper's pid and stalls the helper at its 20th
            gradient until released, for 60 s at most."""
            caller, calls = None, 0

            def likelihood_grad_sum(self, theta, indices=None):
                if os.getpid() != self.caller:
                    helper.value = os.getpid()
                    self.calls += 1
                    if self.calls == 20:
                        stalled.set()
                        release.wait(60.0)
                return super().likelihood_grad_sum(theta, indices)

        stalling = StallsHelper(model.features, model.targets, model.noise_variance)

        def child(_):
            stalling.caller = os.getpid()
            return outcome(lambda: run_async(sim, cfg, stalling))

        with asqn.owners.fork_children([set(cpus)], child, ()) as (procs, conns):
            try:
                assert stalled.wait(30.0), "the replay did not split"
                os.kill(procs[0].pid, signal.SIGKILL)
                # bounded: a helper that held the pipe would keep it open
                # for as long as it stalls
                assert conns[0].poll(10.0), "the killed child's report pipe stayed open"
                report, error = asqn.owners.receive_report(conns[0], procs[0])
            finally:
                release.set()
        assert report is None
        assert str(error) == f"worker exited with code {-signal.SIGKILL}"
        pid = helper.value
        assert pid
        try:
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                try:
                    with open(f"/proc/{pid}/stat") as fh:
                        state = fh.read().rsplit(")", 1)[1].split()[0]
                except FileNotFoundError:
                    break
                if state == "Z":
                    break
                time.sleep(0.05)
            else:
                pytest.fail(f"helper {pid} outlived its killed caller by 10 s")
        finally:
            # a helper left running holds this run's output streams open
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)

    def test_split_forks_nothing_on_one_cpu_or_beside_a_thread(self, owners, monkeypatch):
        model, cfg, _ = problem("lg")
        sim = SimConfig(workers=4, mu_worker=100.0, max_updates=100, seed=3)
        monkeypatch.setattr(asqn.owners, "FORK_AFTER_S", 0.0)
        want = run_async(sim, cfg, model)
        before = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(before)})
        try:
            assert identical(run_async(sim, cfg, model), want)
        finally:
            os.sched_setaffinity(0, before)
        assert owners["procs"] == 1
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            assert identical(run_async(sim, cfg, model), want)
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert owners["procs"] == 1
        assert os.sched_getaffinity(0) == before

    @pytest.mark.parametrize("workers", [2, 3])
    def test_split_only_with_four_times_the_computes_ahead(self, owners, monkeypatch, workers):
        # sigma 0: every worker computes its first update in the first batch
        # and its second in the second, where a tiny positive FORK_AFTER_S
        # takes the one fork decision with W updates computed; the rule then
        # forks only if at least 4W updates are left to the horizon
        if len(os.sched_getaffinity(0)) < 2:
            pytest.skip("a replay splits on 2+ CPUs only")
        model, cfg, _ = problem("lg")

        def replayed(fork_after, **horizon):
            monkeypatch.setattr(asqn.owners, "FORK_AFTER_S", fork_after)
            sim = SimConfig(workers=workers, mu_worker=100.0, comm_time=10.0, seed=3, **horizon)
            return run_async(sim, cfg, model), owners["procs"], owners["computed"]

        for horizon, procs in [({"max_updates": 5 * workers - 1}, 1),
                               ({"max_updates": 5 * workers}, split_owners(workers)),
                               ({"max_updates": 0, "max_time": 360.0}, split_owners(workers))]:
            want, one, _ = replayed(math.inf, **horizon)
            got, split, computed = replayed(1e-12, **horizon)
            assert (one, split) == (1, procs), horizon
            assert identical(got, want), horizon
            if procs > 1:
                assert computed == workers
        assert want.iterations == 3 * workers  # the time-only horizon: under 5W updates

    def test_split_counts_the_applies_of_a_run_schedule(self, owners, monkeypatch):
        # a run's schedule of 4 applies is replayed under the default
        # max_updates of 1,000: its own applies, not max_updates, are the
        # horizon, so no decision after a first batch forks; the same
        # events as an iterator have max_updates as their horizon
        if len(os.sched_getaffinity(0)) < 2:
            pytest.skip("a replay splits on 2+ CPUs only")
        model, cfg = small_problem()
        report = runtime.run(2, cfg, model, max_updates=4, seed=7)
        assert report.error is None and report.iterations == 4
        sim = SimConfig(workers=2, seed=7)
        monkeypatch.setattr(asqn.owners, "FORK_AFTER_S", math.inf)
        want = replay(report.schedule, sim, cfg, model)
        monkeypatch.setattr(asqn.owners, "FORK_AFTER_S", 1e-12)
        got = replay(report.schedule, sim, cfg, model)
        assert owners["procs"] == 1
        assert identical(got, want)
        got = replay(iter(report.schedule), sim, cfg, model)
        assert owners["procs"] == 2
        assert identical(got, want)
        assert got.final_state.theta.tobytes() == report.final_state.theta.tobytes()


class TestAsyncSchedule:
    """The schedule depends only on the timing generators: one SimConfig
    gives one schedule, and every algorithm on every model applies its
    updates at the schedule's times with the schedule's staleness."""

    @pytest.mark.parametrize("horizon", [{"max_updates": 150}, {"max_updates": 0,
                                                                "max_time": 2345.0}])
    def test_same_schedule_for_every_algorithm_and_model(self, horizon):
        sim = SimConfig(workers=4, mu_worker=100.0, sigma_worker=50.0, comm_time=10.0,
                        mu_master=4.0, sample_every=1, seed=3, **horizon)
        events = list(async_schedule(sim))
        assert events == list(async_schedule(sim))
        reads, times, staleness_log = {}, [], []
        for kind, a, b in events[:-1]:
            if kind == "start":
                reads[a] = b
            else:
                assert kind == "apply"
                times.append(b)
                staleness_log.append((len(times), len(times) - 1 - reads[a]))
        assert events[-1] == ("end", "max_time" in horizon, times[-1])
        for name in ("lg", "mf"):
            model, cfg, theta0 = problem(name)
            for algo in ("as-lbfgs", "a-sgd", "sgld"):
                res = run_async(sim, cfg, model, algo=algo, theta0=theta0)
                assert [r.time for r in res.trace] == [0.0, *times], (name, algo)
                assert res.staleness_log == staleness_log, (name, algo)
                assert [r.staleness for r in res.trace[1:]] == [l for _, l in staleness_log]
                assert res.truncated == ("max_time" in horizon)

    def test_replay_rejects_a_start_on_a_state_it_cannot_read(self):
        # a worker reads the state after its own last apply or the current
        # state; worker 1 starting on worker 0's apply after another apply
        # reads neither
        model, cfg, _ = problem("lg")
        sim = SimConfig(workers=2, max_updates=2)
        schedule = [("start", 0, 0), ("start", 1, 0), ("apply", 0, 1.0), ("start", 0, 1),
                    ("apply", 1, 2.0), ("start", 1, 1), ("end", False, 2.0)]
        with pytest.raises(ValueError, match="worker 1 starts on state 1"):
            replay(schedule, sim, cfg, model)
        schedule[5] = ("start", 1, 2)
        assert replay(schedule, sim, cfg, model).iterations == 2

    @pytest.mark.parametrize("rest, match", [
        ([("aply", 0, 1.0), ("end", False, 1.0)], r"\('aply', 0, 1.0\) is of no known kind"),
        ([("apply", 0, 2.0), ("end", False, 2.0)],
         r"\('apply', 0, 2.0\) applies no started update"),
        ([("apply", 1, 2.0)], r"no \('end', truncated, time\) event"),
        ([("start", -1, 1), ("end", False, 1.0)], r"\('start', -1, 1\) names no worker"),
        ([("start", 2, 1), ("end", False, 1.0)], r"\('start', 2, 1\) names no worker"),
        ([("apply", 1, 0.5), ("end", False, 0.5)],
         r"\('apply', 1, 0.5\) applies before the last apply's time 1.0"),
        ([("apply", 1, None), ("start", 0, 2), ("apply", 0, 0.5), ("end", False, 0.5)],
         r"\('apply', 0, 0.5\) applies before the last apply's time 1.0"),
        ([("apply", 1, 2.0), ("end", False, 2.0), ("start", 0, 2)],
         r"\('start', 0, 2\) comes after the end marker"),
        ([("end", False, 1.0), ("end", False, 1.0)],
         r"\('end', False, 1.0\) comes after the end marker"),
        ([("start", 1, 1), ("apply", 1, 2.0), ("end", False, 2.0)],
         r"\('start', 1, 1\) starts worker 1 again before its apply"),
        ([("start", 0, 1), ("start", 0, 1), ("apply", 0, 2.0), ("end", False, 2.0)],
         r"\('start', 0, 1\) starts worker 0 again before its apply"),
    ], ids=["unknown-kind", "nothing-to-apply", "no-end-marker", "worker-minus-one",
            "worker-W", "time-backwards", "time-backwards-past-none", "start-after-end",
            "end-after-end", "second-start-computed", "second-start-not-computed"])
    def test_replay_rejects_a_malformed_schedule(self, rest, match):
        # after worker 0's apply: an event of no known kind, an apply with
        # no update started, no end marker, a worker id outside 0..W-1, an
        # apply time that runs backwards (a None time is not compared), an
        # event after the end marker, or a worker's second start before its
        # apply, whether its first is computed yet or not
        model, cfg, _ = problem("lg")
        sim = SimConfig(workers=2, max_updates=2)
        schedule = [("start", 0, 0), ("start", 1, 0), ("apply", 0, 1.0), *rest]
        with pytest.raises(ValueError, match=match):
            replay(schedule, sim, cfg, model)


    def test_replay_accepts_equal_and_missing_apply_times(self):
        # applies may share a time, and a run's applies carry none
        model, cfg, _ = problem("lg")
        sim = SimConfig(workers=2, max_updates=3)
        schedule = [("start", 0, 0), ("start", 1, 0), ("apply", 0, 1.0), ("start", 0, 1),
                    ("apply", 1, 1.0), ("start", 1, 2), ("apply", 0, None),
                    ("end", False, 1.0)]
        res = replay(schedule, sim, cfg, model)
        assert [(r.time, r.iteration) for r in res.trace] == [(0.0, 0), (1.0, 1), (1.0, 2),
                                                              (None, 3)]


def noise_free_case(name):
    """(model, sampler config, theta0, algorithm) of as-lbfgs at beta = inf
    on MF or a-SGD at finite beta on LG, whose workers draw no noise."""
    if name == "as-lbfgs-mf":
        model, cfg, theta0 = problem("mf")
        return model, replace(cfg, inv_temperature=math.inf), theta0, "as-lbfgs"
    return (*problem("lg"), "a-sgd")


class RaisingMf(MatrixFactorizationModel):
    """A matrix-factorization model whose likelihood gradients raise at one
    parameter (at any row of a stacked parameter that equals it)."""

    def __init__(self, model, theta):
        super().__init__(model.rows, model.cols, model.values, model.n_rows, model.n_cols,
                         model.rank)
        self.marked = np.array(theta, copy=True)

    def likelihood_grad_sums(self, theta, parts):
        if np.any(np.all(np.atleast_2d(theta) == self.marked, axis=-1)):
            raise RuntimeError("marked parameter")
        return super().likelihood_grad_sums(theta, parts)


class RaisingAt(LinearGaussianModel):
    """The given model, whose likelihood gradient raises at one parameter
    (at any row of a stacked parameter that equals it)."""

    def __init__(self, model, theta):
        super().__init__(model.features, model.targets, model.noise_variance)
        self.marked = np.array(theta, copy=True)

    def likelihood_grad_sum(self, theta, indices=None):
        if np.any(np.all(np.atleast_2d(theta) == self.marked, axis=-1)):
            raise RuntimeError("marked parameter")
        return super().likelihood_grad_sum(theta, indices)


def serial_sgld_reference(sim_cfg, sampler_cfg, model, theta0=None):
    """The former serial SGLD engine: one sgld_step per update, update n at
    time n * (mu_worker + 2 * comm_time + mu_master)."""
    rng = np.random.default_rng(sim_cfg.seed)
    theta = np.zeros(model.dim) if theta0 is None else np.asarray(theta0, dtype=float).copy()
    step_time = sim_cfg.mu_worker + 2 * sim_cfg.comm_time + sim_cfg.mu_master
    trace, staleness_log = [], []
    state = ParameterState(theta=theta, u=np.zeros(model.dim), iteration=0)
    include_rmse = isinstance(model, MatrixFactorizationModel)
    _record(trace, model, state, 0.0, 0, include_rmse)
    t, n, truncated = 0.0, 0, False
    while n < sim_cfg.update_limit:
        if t + step_time > sim_cfg.max_time:
            truncated = True
            break
        n += 1
        sub = draw_subsample(rng, model.n_records, sampler_cfg.n_s, sampler_cfg.n_o)
        theta = sgld_step(theta, sampler_cfg.step, sampler_cfg.inv_temperature,
                          model, sub.combined, rng)
        t += step_time
        state = ParameterState(theta=theta, u=state.u, iteration=n)
        staleness_log.append((n, 0))
        if n % sim_cfg.sample_every == 0:
            _record(trace, model, state, t, 0, include_rmse)
    if trace[-1].iteration != state.iteration:
        _record(trace, model, state, t, 0, include_rmse)
    return SimResult(trace=trace, final_state=state, staleness_log=staleness_log,
                     truncated=truncated)


class TestSgldStationaryMean:
    """SGLD with exact gradients is the linear chain
    e' = (I - hA) e + sqrt(2h/beta) xi in e = theta - theta*, A the Hessian
    of U, whose stationary E[U - U*] = sum_i 1 / (2 beta (1 - h lambda_i / 2))
    over the eigenvalues lambda_i of A, exactly; it is d / (2 beta) only as
    h -> 0."""

    def test_sgld_reaches_its_chains_exact_stationary_mean(self):
        d, h, beta = 5, 0.1, 10.0
        a = np.random.default_rng(3).standard_normal(d)
        a /= np.linalg.norm(a)
        # one record: every subsample gives the exact gradient; A = I + a a^T / 0.1
        model = LinearGaussianModel(a[None, :], np.array([1.0]), 0.1)
        theta_star = model.map_estimate()
        lam = np.linalg.eigvalsh(np.eye(d) + np.outer(a, a) / 0.1)
        exact = float(np.sum(1.0 / (2 * beta * (1 - h * lam / 2))))
        burn_in, batches, per_batch = 1000, 50, 1000
        res = run_async(SimConfig(workers=1, max_updates=burn_in + batches * per_batch),
                        SamplerConfig(step=h, friction=0.5, inv_temperature=beta), model,
                        algo="sgld", theta0=theta_star)
        excess = np.array([r.potential for r in res.trace[burn_in + 1:]])
        excess -= potential(model, theta_star)
        means = excess.reshape(batches, per_batch).mean(axis=1)
        se = means.std(ddof=1) / math.sqrt(batches)  # batch-means standard error
        # the tolerance, fixed before the run: 4 batch-means standard errors,
        # which must be small enough to tell exact from d / (2 beta)
        assert 4 * se < abs(exact - d / (2 * beta)) / 4
        assert abs(excess.mean() - exact) <= 4 * se


class TestSerialSgld:
    """run_sgld_serial is run_async at W = 1 with the SGLD update; it gives
    the former serial engine's run, to the last bit at beta = inf and within
    rtol 1e-12 otherwise, because theta + (-h g + xi) replaced
    (theta - h g) + xi."""

    @pytest.mark.parametrize("horizon, iterations", [
        (dict(max_updates=60), 60),
        (dict(max_updates=10**6, max_time=500.0), 32),
        (dict(max_updates=0, max_time=500.0), 32),
    ], ids=["updates", "time", "time-only"])
    @pytest.mark.parametrize("beta", [1e3, math.inf])
    @pytest.mark.parametrize("name", ["lg", "mf"])
    def test_matches_former_serial_engine(self, name, beta, horizon, iterations):
        model, cfg, theta0 = problem(name)
        cfg = replace(cfg, inv_temperature=beta)
        # 15.5 per update, exact in binary
        sim = SimConfig(mu_worker=10.0, comm_time=2.5, mu_master=0.5, sample_every=7,
                        seed=3, **horizon)
        got = run_sgld_serial(sim, cfg, model, theta0=theta0)
        want = serial_sgld_reference(sim, cfg, model, theta0=theta0)
        assert same_result(got, run_async(sim, cfg, model, algo="sgld", theta0=theta0))
        assert got.iterations == want.iterations == iterations
        assert got.truncated == want.truncated == (iterations == 32)
        assert got.staleness_log == want.staleness_log
        assert ([(r.time, r.iteration, r.staleness) for r in got.trace]
                == [(r.time, r.iteration, r.staleness) for r in want.trace])
        if math.isinf(beta):
            assert same_result(got, want)
            return
        np.testing.assert_allclose(got.final_state.theta, want.final_state.theta,
                                   rtol=1e-12, atol=0)
        np.testing.assert_array_equal(got.final_state.u, want.final_state.u)
        for a, b in zip(got.trace, want.trace):
            assert a.potential == pytest.approx(b.potential, rel=1e-12, abs=0)
            assert (a.rmse is None) == (b.rmse is None)
            if a.rmse is not None:
                assert a.rmse == pytest.approx(b.rmse, rel=1e-12, abs=0)


class TestRunSyncMb:
    def test_all_workers_included_when_fast(self):
        model, cfg = small_problem()
        sim = SimConfig(workers=5, mu_worker=5.0, sigma_worker=0.0,
                        timeout=10.0, max_updates=20)
        master = MbLbfgsMaster(model.dim, step=1e-3)
        res = run_sync_mb(sim, master, cfg, model)
        assert res.included_log == [5] * 20

    def test_included_count_decreasing_in_sigma(self):
        # P(c <= timeout) at fixed mean decreases in sigma once the timeout
        # sits above the mean (here 3x); measured over 100 rounds x 10 workers.
        model, cfg = small_problem()
        counts = []
        for sigma in (0.0, 100.0, 200.0):
            sim = SimConfig(workers=10, mu_worker=100.0, sigma_worker=sigma,
                            timeout=300.0, max_updates=100, seed=5)
            master = MbLbfgsMaster(model.dim, step=1e-3)
            res = run_sync_mb(sim, master, cfg, model)
            counts.append(sum(res.included_log))
        assert counts[0] > counts[1] > counts[2]
        assert counts[0] == 1000

    def test_round_wall_time_with_timeout_cutoff(self):
        # wait_for_stragglers off: round time = min(T_mb, max c) + mu_m + 2 tau
        model, cfg = small_problem()
        sim = SimConfig(workers=4, mu_master=30.0, mu_worker=50.0,
                        sigma_worker=40.0, comm_time=10.0, timeout=60.0,
                        max_updates=1, seed=9, wait_for_stragglers=False)
        master = MbLbfgsMaster(model.dim, step=1e-3)
        res = run_sync_mb(sim, master, cfg, model)
        times = [
            sample_compute_time(np.random.default_rng((9, w, 1)), 50.0, 40.0)
            for w in range(4)
        ]
        expected = min(60.0, max(times)) + 30.0 + 2 * 10.0
        assert res.final_time == pytest.approx(expected)

    def test_round_wall_time_with_barrier(self):
        # default: the next broadcast waits for the whole cohort
        model, cfg = small_problem()
        sim = SimConfig(workers=4, mu_master=30.0, mu_worker=50.0,
                        sigma_worker=40.0, comm_time=10.0, timeout=60.0,
                        max_updates=1, seed=9)
        master = MbLbfgsMaster(model.dim, step=1e-3)
        res = run_sync_mb(sim, master, cfg, model)
        times = [
            sample_compute_time(np.random.default_rng((9, w, 1)), 50.0, 40.0)
            for w in range(4)
        ]
        assert res.final_time == pytest.approx(max(times) + 30.0 + 2 * 10.0)

    def test_requires_finite_timeout(self):
        model, cfg = small_problem()
        master = MbLbfgsMaster(model.dim, step=1e-3)
        with pytest.raises(ConfigError):
            run_sync_mb(SimConfig(max_updates=1), master, cfg, model)

    @pytest.mark.parametrize("sigma, timeout", [(0.0, 5.0), (1.0, 0.0), (1e-3, 5.0),
                                                (1.0, 5.0)])
    def test_unmeetable_timeout_rejected(self, sigma, timeout):
        # no compute time can meet the timeout, or one meets it less than
        # once in 2**20 rounds (sigma 1e-3 far less; sigma 1 at p ~ 2.6e-12),
        # so almost no round would aggregate; run in a forked child so a
        # hang fails here in seconds
        model, cfg = small_problem()
        master = MbLbfgsMaster(model.dim, step=1e-3)
        sim = SimConfig(workers=2, mu_worker=10.0, sigma_worker=sigma, timeout=timeout,
                        max_updates=10)
        fork = multiprocessing.get_context("fork")
        recv_end, send_end = fork.Pipe(duplex=False)

        def target():
            try:
                run_sync_mb(sim, master, cfg, model)
                send_end.send("returned")
            except ConfigError as exc:
                send_end.send(f"ConfigError: {exc}")

        proc = fork.Process(target=target, daemon=True)
        proc.start()
        try:
            assert recv_end.poll(20), "run_sync_mb still running after 20 s"
            assert recv_end.recv().startswith("ConfigError: no worker can meet")
        finally:
            proc.terminate()
            proc.join(10)
        assert not proc.is_alive()

    @pytest.mark.parametrize("wait", [True, False])
    def test_no_round_applied_after_max_time(self, wait):
        # sigma 60 around 50 with timeout 45: rounds of unequal length, some
        # keeping no worker; a round that would close past max_time is not
        # applied, whichever kind it is
        model, cfg = small_problem()
        timing = dict(workers=3, mu_master=3.0, mu_worker=50.0, sigma_worker=60.0,
                      comm_time=2.0, timeout=45.0, seed=4, wait_for_stragglers=wait)
        full = run_sync_mb(SimConfig(max_updates=40, **timing),
                           MbLbfgsMaster(model.dim, step=1e-3), cfg, model)
        assert not full.truncated
        for rec in full.trace[1:-1]:
            max_time = rec.time + 1.0  # between two applied rounds
            res = run_sync_mb(SimConfig(max_updates=40, max_time=max_time, **timing),
                              MbLbfgsMaster(model.dim, step=1e-3), cfg, model)
            assert res.truncated
            assert res.final_time <= max_time
            assert res.trace[-1] == rec
            assert res.iterations == rec.iteration
            assert res.included_log == full.included_log[:len(res.included_log)]
            assert sum(1 for n in res.included_log if n) == rec.iteration

    def test_staleness_always_zero(self):
        model, cfg = small_problem()
        sim = SimConfig(workers=3, mu_worker=5.0, timeout=10.0, max_updates=10)
        master = MbLbfgsMaster(model.dim, step=1e-3)
        res = run_sync_mb(sim, master, cfg, model)
        assert all(l == 0 for _, l in res.staleness_log)

    @pytest.mark.parametrize("wait", [True, False])
    @pytest.mark.parametrize("problem", ["lg", "mf"])
    def test_stacked_round_matches_per_worker_loop(self, problem, wait):
        # sigma 40 around a mean of 50 with timeout 45 keeps every worker
        # in some rounds, some in most and none in a few
        if problem == "lg":
            model, cfg = small_problem()
            theta0, step = None, 1e-2
        else:
            model = synth_matrix_factorization(0, 12, 15, 2)
            cfg = SamplerConfig(step=1e-3, friction=0.1, n_s=5, n_o=3)
            theta0, step = 0.1 * np.random.default_rng(1).standard_normal(model.dim), 1e-4
        sim = SimConfig(workers=3, mu_master=3.0, mu_worker=50.0, sigma_worker=40.0,
                        comm_time=2.0, timeout=45.0, max_updates=60, sample_every=7,
                        seed=4, wait_for_stragglers=wait)
        got = run_sync_mb(sim, MbLbfgsMaster(model.dim, step=step), cfg, model, theta0)
        want = per_worker_run_sync_mb(sim, MbLbfgsMaster(model.dim, step=step), cfg, model,
                                      theta0)
        assert {0, 1, 2, 3} <= set(got.included_log)
        assert got.included_log == want.included_log
        assert got.trace == want.trace
        assert got.staleness_log == want.staleness_log
        assert np.array_equal(got.final_state.theta, want.final_state.theta)


def per_worker_run_sync_mb(sim_cfg, mb_master, sampler_cfg, model, theta0=None):
    """The former synchronous round: one combined_gradient call per worker
    that met the timeout, then the mb-L-BFGS round on the list of them."""
    theta = np.zeros(model.dim) if theta0 is None else np.asarray(theta0, dtype=float).copy()
    include_rmse = isinstance(model, MatrixFactorizationModel)
    time_rngs = [np.random.default_rng((sim_cfg.seed, w, 1)) for w in range(sim_cfg.workers)]
    samp_rngs = [np.random.default_rng(sim_cfg.seed + w) for w in range(sim_cfg.workers)]
    state = ParameterState(theta=theta, u=np.zeros(model.dim), iteration=0)

    def record(t):
        trace.append(TraceRecord(t, state.iteration, 0, potential(model, state.theta),
                                 rmse(model, state.theta) if include_rmse else None))

    trace, staleness_log, included_log = [], [], []
    record(0.0)
    t, n = 0.0, 0
    while n < sim_cfg.max_updates:
        times = [sample_compute_time(time_rngs[w], sim_cfg.mu_worker, sim_cfg.sigma_worker)
                 for w in range(sim_cfg.workers)]
        grads, overlap = [], []
        for w, c in enumerate(times):
            sub = draw_subsample(samp_rngs[w], model.n_records, sampler_cfg.n_s, sampler_cfg.n_o)
            if c <= sim_cfg.timeout:
                grads.append(combined_gradient(model, state.theta, sub))
                overlap.extend(sub.o_indices.tolist())
        included_log.append(len(grads))
        if sim_cfg.wait_for_stragglers:
            wait = max(times)
        else:
            wait = min(sim_cfg.timeout, max(times))
        if not grads:
            t += 2 * sim_cfg.comm_time + wait
            continue
        theta = mb_master.round(state.theta, grads, overlap, model)
        t += 2 * sim_cfg.comm_time + wait + sim_cfg.mu_master
        n += 1
        state = ParameterState(theta=theta, u=state.u, iteration=n)
        staleness_log.append((n, 0))
        if n % sim_cfg.sample_every == 0:
            record(t)
    if trace[-1].iteration != state.iteration:
        record(t)
    return SimResult(trace=trace, final_state=state, staleness_log=staleness_log,
                     included_log=included_log)


class TestBlockDraws:
    """Each worker draws its compute times, and in synchronous rounds its
    subsamples, for a block of rounds in one generator call; the engines'
    results equal the one-draw-per-round references across block ends."""

    def test_block_rows_cap(self):
        assert simulator.block_rows(6) == simulator.BLOCK_ROWS == 64
        assert simulator.block_rows(10**4) == 6  # a paper-size MF subsample
        assert simulator.block_rows(10**6) == 1
        for n in (1, 6, 1023, 1025, 10**4, 2**16, 2**16 + 1, 10**6):
            rows = simulator.block_rows(n)
            assert 1 <= rows <= simulator.BLOCK_ROWS
            assert rows == 1 or rows * n <= simulator.BLOCK_DRAWS

    @pytest.mark.parametrize("mu, sigma", [(7.0, 3.0), (7.0, 0.0), (0.0, 3.0)])
    def test_compute_times_equal_one_draw_each(self, mu, sigma):
        sim = SimConfig(workers=2, mu_worker=mu, sigma_worker=sigma, seed=5)
        times = simulator.ComputeTimes(sim, rows=16)
        got = [times.next(w) for _ in range(50) for w in (0, 1)]
        rngs = [np.random.default_rng((5, w, 1)) for w in (0, 1)]
        want = [sample_compute_time(rngs[w], mu, sigma) for _ in range(50) for w in (0, 1)]
        assert got == want
        assert all(type(c) is float for c in got)
        if mu == 0.0 or sigma == 0.0:  # no draw, as sample_compute_time draws none
            assert times.rngs == []

    @staticmethod
    def _spy_sizes(monkeypatch):
        """Record ``(kind, size, seed)`` of every integers, lognormal and
        standard_normal draw of the generators made from here on."""
        sizes = []
        real = np.random.default_rng

        class Spy:
            def __init__(self, seed):
                self.rng, self.seed = real(seed), seed

            def integers(self, *args, size=None):
                sizes.append(("integers", size, self.seed))
                return self.rng.integers(*args, size=size)

            def lognormal(self, *args, size=None):
                sizes.append(("lognormal", size, self.seed))
                return self.rng.lognormal(*args, size=size)

            def standard_normal(self, size=None):
                sizes.append(("standard_normal", size, self.seed))
                return self.rng.standard_normal(size)

            def __getattr__(self, name):
                return getattr(self.rng, name)

        monkeypatch.setattr(simulator.np.random, "default_rng", Spy)
        return sizes

    @pytest.mark.parametrize("timing", [
        dict(mu_worker=50.0, sigma_worker=40.0, timeout=45.0),
        dict(mu_worker=5.0, sigma_worker=0.0, timeout=10.0),
        dict(mu_worker=0.0, sigma_worker=40.0, timeout=1.0),
    ], ids=["sigma", "no-sigma", "no-compute"])
    @pytest.mark.parametrize("wait", [True, False])
    @pytest.mark.parametrize("name", ["lg", "mf"])
    def test_sync_rounds_match_per_worker_loop(self, monkeypatch, name, wait, timing):
        model, cfg, theta0 = problem(name)
        sim = SimConfig(workers=3, mu_master=3.0, comm_time=2.0, max_updates=200,
                        sample_every=7, seed=4, wait_for_stragglers=wait, **timing)
        step = 1e-2 if name == "lg" else 1e-4
        want = per_worker_run_sync_mb(sim, MbLbfgsMaster(model.dim, step=step), cfg, model,
                                      theta0)
        sizes = self._spy_sizes(monkeypatch)
        got = run_sync_mb(sim, MbLbfgsMaster(model.dim, step=step), cfg, model, theta0)
        rows = simulator.block_rows(cfg.n_s + cfg.n_o)
        assert len(got.included_log) > 3 * rows  # the run crosses at least 3 blocks
        if timing["sigma_worker"] and timing["mu_worker"]:
            assert {0, 1, 2, 3} <= set(got.included_log)
            assert {size for kind, size, _ in sizes if kind == "lognormal"} == {rows}
        else:  # constant compute times draw nothing
            assert set(got.included_log) == {3}
            assert all(kind == "integers" for kind, _, _ in sizes)
        assert {size for kind, size, _ in sizes if kind == "integers"} == {
            (rows, cfg.n_s + cfg.n_o)}
        assert same_result(got, want)
        assert got.included_log == want.included_log

    @pytest.mark.parametrize("wait", [True, False])
    def test_time_only_horizon_stops_mid_block(self, wait):
        model, cfg, theta0 = problem("lg")
        timing = dict(workers=3, mu_master=3.0, mu_worker=50.0, sigma_worker=40.0,
                      comm_time=2.0, timeout=45.0, seed=4, wait_for_stragglers=wait)
        want = per_worker_run_sync_mb(SimConfig(max_updates=150, **timing),
                                      MbLbfgsMaster(model.dim, step=1e-2), cfg, model, theta0)
        # the next round, applied or not, takes at least 2 * comm_time > 1
        sim = SimConfig(max_updates=0, max_time=want.final_time + 1.0, **timing)
        got = run_sync_mb(sim, MbLbfgsMaster(model.dim, step=1e-2), cfg, model, theta0)
        rows = simulator.block_rows(cfg.n_s + cfg.n_o)
        assert got.truncated and got.iterations == 150
        assert len(got.included_log) > 2 * rows and len(got.included_log) % rows
        assert got.included_log == want.included_log
        assert got.trace == want.trace
        assert np.array_equal(got.final_state.theta, want.final_state.theta)

    def test_block_cap_at_a_paper_size_subsample(self, monkeypatch):
        # n_s + n_o = 10**4 draws per worker and round: 6-row blocks
        model, _ = small_problem()
        cfg = SamplerConfig(step=1e-4, friction=0.1, n_s=7500, n_o=2500)
        sim = SimConfig(workers=2, mu_worker=5.0, sigma_worker=2.0, timeout=6.0,
                        max_updates=15, seed=1)
        want = per_worker_run_sync_mb(sim, MbLbfgsMaster(model.dim, step=1e-4), cfg, model)
        sizes = self._spy_sizes(monkeypatch)
        got = run_sync_mb(sim, MbLbfgsMaster(model.dim, step=1e-4), cfg, model)
        drawn = [size for kind, size, _ in sizes if kind == "integers"]
        assert drawn and set(drawn) == {(6, 10**4)}
        assert len(got.included_log) > 2 * 6
        assert same_result(got, want)
        assert got.included_log == want.included_log

    @pytest.mark.parametrize("name", ["lg", "mf"])
    def test_async_matches_per_worker_loop_across_blocks(self, monkeypatch, name):
        # compute times do not depend on the update rule, so as-lbfgs alone
        model, cfg, theta0 = problem(name)
        algo = "as-lbfgs"
        sim = SimConfig(workers=3, mu_master=0.5, mu_worker=10.0, sigma_worker=6.0,
                        comm_time=1.0, max_updates=3 * 3 * simulator.BLOCK_ROWS + 20,
                        sample_every=9, seed=6)
        want = per_worker_run_async(sim, cfg, model, algo=algo, theta0=theta0)
        sizes = self._spy_sizes(monkeypatch)
        got = run_async(sim, cfg, model, algo=algo, theta0=theta0)
        assert same_result(got, want)
        # every worker drew at least 3 blocks of compute times
        blocks = [seed for kind, size, seed in sizes if kind == "lognormal"]
        assert {size for kind, size, _ in sizes if kind == "lognormal"} == {64}
        assert all(blocks.count((6, w, 1)) >= 3 for w in range(3))


class TestTimeOnlyHorizon:
    """max_updates below 1 with a finite max_time: every engine runs until
    max_time passes, as it does with an update limit it never reaches."""

    @staticmethod
    def same_run(a, b):
        return (a.trace == b.trace and a.staleness_log == b.staleness_log
                and np.array_equal(a.final_state.theta, b.final_state.theta))

    def test_run_async(self):
        model, cfg = small_problem()
        timing = dict(workers=3, mu_worker=5.0, sigma_worker=2.0, comm_time=1.0,
                      max_time=200.0, sample_every=5)
        res = run_async(SimConfig(max_updates=0, **timing), cfg, model)
        assert res.truncated and res.iterations > 50
        assert self.same_run(res, run_async(SimConfig(max_updates=10**6, **timing),
                                            cfg, model))

    def test_run_sync_mb(self):
        model, cfg = small_problem()
        timing = dict(workers=3, mu_master=3.0, mu_worker=5.0, sigma_worker=2.0,
                      comm_time=1.0, timeout=6.0, max_time=200.0, sample_every=5)
        res = run_sync_mb(SimConfig(max_updates=0, **timing),
                          MbLbfgsMaster(model.dim, step=1e-3), cfg, model)
        assert res.truncated and res.iterations > 10
        assert self.same_run(res, run_sync_mb(SimConfig(max_updates=10**6, **timing),
                                              MbLbfgsMaster(model.dim, step=1e-3),
                                              cfg, model))

    def test_run_sgld_serial(self):
        model, cfg = small_problem()
        timing = dict(mu_worker=10.0, max_time=355.0, sample_every=4)
        res = run_sgld_serial(SimConfig(max_updates=0, **timing), cfg, model)
        assert res.truncated and res.iterations == 35
        assert self.same_run(res, run_sgld_serial(SimConfig(max_updates=10**6, **timing),
                                                  cfg, model))


class TestTimeToEpsilon:
    def rec(self, t, n, u):
        return TraceRecord(time=t, iteration=n, staleness=0, potential=u)

    def test_already_below_at_first_record(self):
        trace = [self.rec(0.0, 0, 1.005), self.rec(1.0, 1, 1.001)]
        assert time_to_epsilon(trace, 1.0, 1e-2) == 0.0

    def test_never_below(self):
        trace = [self.rec(0.0, 0, 5.0), self.rec(1.0, 1, 4.0)]
        assert time_to_epsilon(trace, 1.0, 1e-2) is None

    def test_matches_manual_scan(self):
        rng = np.random.default_rng(6)
        u_star, eps = 2.0, 0.05
        trace = [self.rec(float(t), t, 2.0 + 3.0 * 0.8**t + 0.01 * rng.random())
                 for t in range(50)]
        expected = next(
            r.time for r in trace if (r.potential - u_star) / u_star <= eps
        )
        assert time_to_epsilon(trace, u_star, eps) == expected

    def test_zero_u_star_falls_back_to_absolute(self):
        trace = [self.rec(0.0, 0, 1.0), self.rec(2.0, 1, 1e-4)]
        with pytest.warns(UserWarning):
            assert time_to_epsilon(trace, 0.0, 1e-3) == 2.0


class TestTraceCsv:
    def test_schema_and_formatting(self, tmp_path):
        trace = [
            TraceRecord(time=0.0, iteration=0, staleness=0, potential=2.5),
            TraceRecord(time=1.0 / 3.0, iteration=1, staleness=2,
                        potential=1.234567890123456),
        ]
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "time,n,staleness,potential"
        assert lines[1] == "0,0,0,2.5"
        assert lines[2] == "0.333333333333,1,2,1.23456789012"

    def test_rmse_column_when_present(self, tmp_path):
        trace = [TraceRecord(time=0.0, iteration=0, staleness=0,
                             potential=1.0, rmse=0.5)]
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "time,n,staleness,potential,rmse"
        assert lines[1].endswith(",0.5")


class TestSimConfigValidation:
    def test_bad_workers(self):
        with pytest.raises(ConfigError):
            SimConfig(workers=0)

    @pytest.mark.parametrize("field", ["mu_master", "mu_worker", "comm_time", "sigma_worker",
                                       "max_time"])
    def test_nan_rejected(self, field):
        # NaN fails every comparison: max_time NaN with max_updates 0 made a
        # schedule that never ended
        with pytest.raises(ConfigError):
            SimConfig(**{"max_updates": 0, "max_time": 10.0, "mu_worker": 1.0,
                         field: math.nan})

    def test_negative_times(self):
        with pytest.raises(ConfigError):
            SimConfig(mu_worker=-1.0)

    def test_missing_horizon(self):
        with pytest.raises(ConfigError):
            SimConfig(max_updates=0)

    @pytest.mark.parametrize("max_time", [0.0, -1.0])
    def test_non_positive_max_time(self, max_time):
        # such a horizon ran no update and passed as a truncated run
        for max_updates in (0, 100):
            with pytest.raises(ConfigError, match="max_time must be positive"):
                SimConfig(max_updates=max_updates, max_time=max_time)

    def test_time_only_horizon_needs_time_to_pass(self):
        with pytest.raises(ConfigError, match="time-only horizon"):
            SimConfig(max_updates=0, max_time=10.0, mu_worker=0.0)
        SimConfig(max_updates=0, max_time=10.0, mu_worker=0.0, comm_time=1.0)

    @pytest.mark.parametrize("sample_every", [0, -3])
    def test_sample_every_below_one(self, sample_every):
        with pytest.raises(ConfigError, match="sample_every"):
            SimConfig(sample_every=sample_every)

    @pytest.mark.parametrize("arguments, key", [
        ({"max_updates": 12.5}, "max_updates"),
        ({"max_updates": 10.0}, "max_updates"),
        ({"max_updates": -1, "max_time": 10.0, "mu_worker": 1.0}, "max_updates"),
        ({"sample_every": 2.5}, "sample_every"),
        ({"sample_every": True}, "sample_every"),
    ])
    def test_non_integer_horizon_rejected(self, arguments, key):
        # max_updates=12.5 with sample_every=2.5 used to run 13 updates and
        # record the trace at n = 0, 5, 10, 13
        with pytest.raises(ConfigError, match=f"{key} must be an integer"):
            SimConfig(**arguments)


class TestRecorder:
    def test_mf_record_takes_both_values_from_one_residual(self):
        # the same bits as potential() and rmse(), each of which predicts
        # every rating itself
        model, _, theta0 = problem("mf")
        rec = simulator.Recorder(model, sample_every=1)
        thetas = [theta0 * k for k in (1.0, -3.0, 17.5)]
        for k, theta in enumerate(thetas):
            rec.sample(ParameterState(theta, np.zeros(model.dim), k), float(k), 0)
        for r, theta in zip(rec.trace, thetas):
            assert np.float64(r.potential).tobytes() == np.float64(
                potential(model, theta)).tobytes()
            assert np.float64(r.rmse).tobytes() == np.float64(rmse(model, theta)).tobytes()

    def test_lg_record_has_the_bits_of_potential_and_no_rmse(self):
        model, _, _ = problem("lg")
        rec = simulator.Recorder(model, sample_every=1)
        thetas = [np.linspace(-1.0, 2.0, model.dim) * k for k in (0.0, 1.0, -3.0, 17.5)]
        for k, theta in enumerate(thetas):
            rec.sample(ParameterState(theta, np.zeros(model.dim), k), float(k), 0)
        for r, theta in zip(rec.trace, thetas):
            assert np.float64(r.potential).tobytes() == np.float64(
                potential(model, theta)).tobytes()
            assert r.rmse is None and rmse(model, theta) is None


class TestSharedResult:
    """Both simulators return their final potential, and their traces run
    from the initial state to the final one."""

    @pytest.mark.parametrize("name", ["lg", "mf"])
    @pytest.mark.parametrize("engine", ["async", "sync_mb"])
    def test_final_potential_and_closing_record(self, name, engine):
        model, cfg, theta0 = problem(name)
        sim = SimConfig(workers=3, mu_worker=5.0, sigma_worker=2.0, comm_time=1.0,
                        timeout=7.0, max_updates=23, sample_every=5, seed=2)
        if engine == "async":
            res = run_async(sim, cfg, model, theta0=theta0)
        else:
            res = run_sync_mb(sim, MbLbfgsMaster(model.dim, step=1e-3), cfg, model, theta0)
        want = potential(model, res.final_state.theta)
        assert np.float64(res.final_potential).tobytes() == np.float64(want).tobytes()
        assert [r.iteration for r in res.trace] == [0, 5, 10, 15, 20, 23]
        assert res.trace[-1].potential == res.final_potential
        assert (res.wall_ms, res.error) == (None, None)

    @pytest.mark.parametrize("engine", ["async", "sync_mb"])
    def test_final_potential_costs_no_pass_of_its_own(self, engine, monkeypatch):
        # each MF record predicts every rating once, and the final potential
        # reuses the closing record instead of predicting them again
        model, cfg, theta0 = problem("mf")
        full_passes = []
        predictions = model.predictions

        def spy(theta, indices=None):
            full_passes.append(indices is None)
            return predictions(theta, indices)

        monkeypatch.setattr(model, "predictions", spy)
        sim = SimConfig(workers=3, mu_worker=5.0, sigma_worker=2.0, comm_time=1.0,
                        timeout=7.0, max_updates=23, sample_every=5, seed=2)
        if engine == "async":
            res = run_async(sim, cfg, model, theta0=theta0)
        else:
            res = run_sync_mb(sim, MbLbfgsMaster(model.dim, step=1e-3), cfg, model, theta0)
        assert res.final_potential == res.trace[-1].potential
        assert sum(full_passes) == len(res.trace) == 6


class TestBlockDrawnSubsamples:
    """A worker draws each update's subsample as one index row, S first.
    One that draws no noise draws its rows in blocks of
    block_rows(n_s + n_o), one generator call each; run_async then equals
    the loop that draws one subsample per update, bit for bit, and a worker
    that draws noise still draws row then noise once per update."""

    @pytest.mark.parametrize("name", ["as-lbfgs-mf", "a-sgd-lg"])
    @pytest.mark.parametrize("max_updates", [3 * 2 * simulator.BLOCK_ROWS,
                                             3 * 2 * simulator.BLOCK_ROWS + 37])
    def test_matches_one_draw_per_update(self, monkeypatch, name, max_updates):
        # 2 blocks per worker, and a horizon that ends mid-block
        model, cfg, theta0, algo = noise_free_case(name)
        sim = SimConfig(workers=3, mu_master=0.5, mu_worker=10.0, sigma_worker=6.0,
                        comm_time=1.0, max_updates=max_updates, sample_every=9, seed=6)
        want = per_worker_run_async(sim, cfg, model, algo=algo, theta0=theta0)
        # the spy sees this process's draws only, so the run stays in it
        monkeypatch.setattr(asqn.owners, "FORK_AFTER_S", math.inf)
        sizes = TestBlockDraws._spy_sizes(monkeypatch)
        got = run_async(sim, cfg, model, algo=algo, theta0=theta0)
        assert same_result(got, want)
        drawn = [(size, seed) for kind, size, seed in sizes if kind == "integers"]
        assert {size for size, _ in drawn} == {(simulator.BLOCK_ROWS, cfg.n_s + cfg.n_o)}
        # a worker draws a block when it needs one: 2 each, or a third
        # when the horizon runs past its second block
        assert all(2 <= [seed for _, seed in drawn].count(6 + w) <= 3 for w in range(3))
        assert all(kind != "standard_normal" for kind, _, _ in sizes)

    @pytest.mark.parametrize("name", ["as-lbfgs-mf", "a-sgd-lg"])
    def test_batch_that_raises_matches_one_draw_per_update(self, monkeypatch, name):
        # a gradient raises at the receive carrying state i, or the apply
        # numbered j diverges first; the error is the one-draw loop's
        model, cfg, theta0, algo = noise_free_case(name)
        sim = SimConfig(workers=3, mu_worker=100.0, sigma_worker=50.0, comm_time=10.0,
                        max_updates=2 * simulator.BLOCK_ROWS + 40, seed=2)
        states = [None]  # states[i]: the state after apply i
        real_apply = master_apply

        def recording_apply(state, upd):
            states.append(real_apply(state, upd))
            return states[-1]

        monkeypatch.setattr(simulator, "master_apply", recording_apply)
        run_async(sim, cfg, model, algo=algo, theta0=theta0)
        outcomes = set()
        raising = RaisingMf if isinstance(model, MatrixFactorizationModel) else RaisingAt
        for i in (5, simulator.BLOCK_ROWS + 3, 2 * simulator.BLOCK_ROWS + 20):
            for j in range(i + 1, i + 4):
                def failing_apply(state, upd, j=j):
                    if state.iteration + 1 == j:
                        raise DivergenceError(f"apply {j}", iteration=j)
                    return real_apply(state, upd)

                model_i = raising(model, states[i].theta)
                errors = []
                for engine, module in ((run_async, simulator),
                                       (per_worker_run_async, sys.modules[__name__])):
                    monkeypatch.setattr(module, "master_apply", failing_apply)
                    with pytest.raises(Exception) as info:
                        engine(sim, cfg, model_i, algo=algo, theta0=theta0)
                    errors.append((type(info.value), str(info.value)))
                assert errors[0] == errors[1], (i, j)
                outcomes.add(errors[0][0])
        assert outcomes == {RuntimeError, DivergenceError}

    @pytest.mark.parametrize("noisy", [True, False], ids=["noise", "no-noise"])
    def test_next_gives_the_rows_of_draw_subsample(self, noisy):
        # draw for draw, past the end of a block, a worker's index row is
        # the combined subsample its twin generator draws, S first, and
        # its noise, where it draws any, the twin's next normal vector
        model, cfg, _ = problem("lg")
        if not noisy:
            cfg = replace(cfg, inv_temperature=math.inf)
        draws = simulator.WorkerDraws(5, 2, cfg, model, "as-lbfgs")
        twins = [np.random.default_rng(5 + w) for w in range(2)]
        for n in range(2 * draws.rows + 6):
            w = n % 2
            indices, noise = draws.next(w)
            sub = draw_subsample(twins[w], model.n_records, cfg.n_s, cfg.n_o)
            assert indices.shape == (cfg.n_s + cfg.n_o,)
            assert np.array_equal(indices, sub.combined)
            if noisy:
                assert np.array_equal(noise, twins[w].standard_normal(model.dim))
            else:
                assert noise is None
        if noisy:
            assert all(rng.bit_generator.state == twin.bit_generator.state
                       for rng, twin in zip(draws.rngs, twins))

    @pytest.mark.parametrize("algo", ["as-lbfgs", "sgld"])
    def test_noisy_workers_draw_once_per_update(self, monkeypatch, algo):
        # SGLD against the former serial engine, within its rtol (see
        # TestSerialSgld), at 15.5 per update exact in binary
        model, cfg, theta0 = problem("lg")
        workers = 3 if algo == "as-lbfgs" else 1
        sim = SimConfig(workers=workers, mu_worker=10.0, sigma_worker=6.0 * (workers > 1),
                        comm_time=2.5, mu_master=0.5, max_updates=150, sample_every=9, seed=6)
        want = (per_worker_run_async(sim, cfg, model, algo, theta0) if algo == "as-lbfgs"
                else serial_sgld_reference(sim, cfg, model, theta0))
        # the spy sees this process's draws only, so the run stays in it
        monkeypatch.setattr(asqn.owners, "FORK_AFTER_S", math.inf)
        sizes = TestBlockDraws._spy_sizes(monkeypatch)
        got = run_async(sim, cfg, model, algo=algo, theta0=theta0)
        if algo == "as-lbfgs":
            assert same_result(got, want)
        else:
            np.testing.assert_allclose(got.final_state.theta, want.final_state.theta,
                                       rtol=1e-12, atol=0)
        drawn = [size for kind, size, _ in sizes if kind == "integers"]
        assert set(drawn) == {cfg.n_s + cfg.n_o}
        # the first update of each worker is drawn, at least, and no more
        # draws than receives popped; each subsample is followed by its noise
        assert 150 <= len(drawn) <= 150 + workers
        draws = [(kind, seed) for kind, _, seed in sizes if kind != "lognormal"]
        assert draws == [pair for kind, seed in draws if kind == "integers"
                         for pair in ((kind, seed), ("standard_normal", seed))]
