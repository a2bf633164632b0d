"""Tests for the discrete-event simulator."""

import math
import multiprocessing

import numpy as np
import pytest

from asqn import (
    ConfigError,
    LinearGaussianModel,
    MbLbfgsMaster,
    SamplerConfig,
    SimConfig,
    TraceRecord,
    run_async,
    run_sync_mb,
    time_to_epsilon,
)
from asqn.simulator import sample_compute_time, write_trace_csv


def small_problem(seed=0):
    rng = np.random.default_rng(seed)
    model = LinearGaussianModel(rng.standard_normal((20, 4)),
                                rng.standard_normal(20), 1.0)
    cfg = SamplerConfig(step=1e-3, friction=0.1, n_s=3, n_o=2)
    return model, cfg


class TestSampleComputeTime:
    def test_degenerate_sigma_zero(self):
        rng = np.random.default_rng(0)
        assert sample_compute_time(rng, 5.0, 0.0) == 5.0

    def test_zero_mean(self):
        assert sample_compute_time(np.random.default_rng(0), 0.0, 3.0) == 0.0

    def test_negative_mean_rejected(self):
        with pytest.raises(ValueError):
            sample_compute_time(np.random.default_rng(0), -1.0, 1.0)

    def test_moderate_tail_mean_and_std(self):
        # mu = 10, sigma = 5: light enough tail for the moment estimates to
        # concentrate; mean and std within 1% over 2e5 draws.
        rng = np.random.default_rng(1)
        draws = np.array([sample_compute_time(rng, 10.0, 5.0) for _ in range(200000)])
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
        rng = np.random.default_rng(2)
        logs = np.log([sample_compute_time(rng, mu, sigma) for _ in range(300000)])
        assert abs(logs.mean() - m) < 0.01 * abs(m) + 0.01
        assert abs(logs.std() / math.sqrt(s2) - 1.0) < 0.01

    def test_nonnegative(self):
        rng = np.random.default_rng(3)
        assert all(sample_compute_time(rng, 1.0, 10.0) >= 0.0 for _ in range(1000))


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
        state = ParameterState.zeros(model.dim)
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

    @pytest.mark.parametrize("sigma, timeout", [(0.0, 5.0), (1.0, 0.0)])
    def test_unmeetable_timeout_rejected(self, sigma, timeout):
        # no compute time can meet the timeout, so no round would ever
        # aggregate; run in a forked child so a hang fails here in seconds
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

    def test_staleness_always_zero(self):
        model, cfg = small_problem()
        sim = SimConfig(workers=3, mu_worker=5.0, timeout=10.0, max_updates=10)
        master = MbLbfgsMaster(model.dim, step=1e-3)
        res = run_sync_mb(sim, master, cfg, model)
        assert all(l == 0 for _, l in res.staleness_log)


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

    def test_negative_times(self):
        with pytest.raises(ConfigError):
            SimConfig(mu_worker=-1.0)

    def test_missing_horizon(self):
        with pytest.raises(ConfigError):
            SimConfig(max_updates=0)
