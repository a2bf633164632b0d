"""End-to-end acceptance gate.

Each test covers one numbered acceptance criterion and prints a single
PASS/FAIL line (visible with ``pytest -s`` or in captured output).  The
tolerances are pinned here and are not meant to be loosened; see the
individual tests for how each target value is derived.
"""

import math
import os
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from asqn import (
    LinearGaussianModel,
    LbfgsMemory,
    ParameterState,
    SamplerConfig,
    SimConfig,
    WorkerState,
    combined_gradient,
    compute_update,
    draw_subsample,
    full_gradient,
    master_apply,
    post_send_memory_update,
    run_async,
    run_sync_mb,
    stochastic_gradient,
    time_to_epsilon,
)
from asqn import runtime as rt
from asqn.runtime import SharedMasterState
from asqn.experiments import (
    run_experiment,
    synth_linear_gaussian,
    synth_matrix_factorization,
    validate_config,
)


def _report(num, ok, detail):
    print(f"[acceptance {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"acceptance criterion {num} failed: {detail}"


def _dense_bfgs_oracle(pairs, gamma):
    """Dense recursive inverse-BFGS update seeded with gamma * I."""
    d = len(pairs[0][0])
    h = gamma * np.eye(d)
    eye = np.eye(d)
    for s, y in pairs:
        r = 1.0 / float(y @ s)
        v = eye - r * np.outer(s, y)
        h = v @ h @ v.T + r * np.outer(s, s)
    return h


def test_01_two_loop_matches_dense_oracle():
    # tolerance 1e-10 (infinity norm), 5 memories per (d, M) pair -> 60
    # random admitted memories total; budget 5 s
    t0 = time.perf_counter()
    worst = 0.0
    checked = 0
    for dim in (2, 5, 10):
        for capacity in (1, 2, 3, 5):
            rng = np.random.default_rng(1000 * dim + capacity)
            for _ in range(5):
                mem = LbfgsMemory(dim, capacity, epsilon=1e-8)
                pairs = []
                while len(pairs) < capacity:
                    s = rng.standard_normal(dim)
                    y = s + 0.3 * rng.standard_normal(dim)
                    if mem.try_add(s, y):
                        pairs.append((s, y))
                h = _dense_bfgs_oracle(pairs, mem.gamma())
                for _ in range(3):
                    v = rng.standard_normal(dim)
                    worst = max(worst, float(np.max(np.abs(mem.apply(v) - h @ v))))
                checked += 1
    elapsed = time.perf_counter() - t0
    _report(1, worst < 1e-10 and elapsed < 5.0,
            f"{checked} memories, max |two-loop - dense| = {worst:.2e} "
            f"(< 1e-10), {elapsed:.2f}s (< 5s)")


def test_02_stochastic_gradient_unbiased_by_enumeration():
    # 3-record problem, single-record index sets: averaging the stochastic
    # gradient over all 3 sets must reproduce the full gradient to 1e-12
    rng = np.random.default_rng(2)
    model = LinearGaussianModel(rng.standard_normal((3, 2)),
                                rng.standard_normal(3), 2.0)
    theta = rng.standard_normal(2)
    avg = np.mean([stochastic_gradient(model, theta, [i]) for i in range(3)],
                  axis=0)
    err = float(np.max(np.abs(avg - full_gradient(model, theta))))
    _report(2, err < 1e-12,
            f"enumerated mean vs full gradient, max err = {err:.2e} (< 1e-12)")


def test_03_degenerate_limit_is_momentum_sgd():
    # no noise (beta = inf), identity curvature, no staleness: the update
    # rule must coincide with momentum SGD to 1e-12 over 100 steps
    rng = np.random.default_rng(3)
    model = LinearGaussianModel(rng.standard_normal((20, 4)),
                                rng.standard_normal(20), 1.0)
    cfg = SamplerConfig(step=1e-3, friction=0.1, inv_temperature=math.inf,
                        n_s=3, n_o=2, use_memory=False, rho=0.0)

    rng_a = np.random.default_rng(33)
    worker = WorkerState(cfg, model.dim)
    state = ParameterState.start(model.dim)
    trajectory_a = []
    for _ in range(100):
        upd, ctx = compute_update(cfg, worker, state, model, rng_a)
        state = master_apply(state, upd)
        post_send_memory_update(worker, ctx, model)
        trajectory_a.append(state.theta.copy())

    rng_b = np.random.default_rng(33)
    theta = np.zeros(model.dim)
    u = np.zeros(model.dim)
    worst = 0.0
    for step_a in trajectory_a:
        row = draw_subsample(rng_b, model.n_records, cfg.n_s, cfg.n_o)
        g = combined_gradient(model, theta, row[:cfg.n_s], row[cfg.n_s:])
        theta = theta + u
        u = (1.0 - cfg.friction) * u - cfg.step * g
        worst = max(worst, float(np.max(np.abs(theta - step_a))))
    _report(3, worst < 1e-12,
            f"100 steps vs reference momentum SGD, max |dtheta| = {worst:.2e} "
            f"(< 1e-12)")


def test_04_epsilon_accuracy_on_synthetic_instance():
    # d=100, N_Y=600, sigma_x^2=10 with step 4e-4, friction 3e-2, beta 5e2,
    # M=3; target (U - U*)/U* <= 1e-2 within the horizon, deterministic,
    # budget 60 s
    t0 = time.perf_counter()
    model, _, u_star = synth_linear_gaussian(0, 100, 600, 10.0, correlation=3.0)
    cfg = SamplerConfig(step=4e-4, friction=3e-2, inv_temperature=5e2,
                        memory_size=3, n_s=40, n_o=20)
    sim = SimConfig(workers=10, mu_master=0.0, mu_worker=160.0,
                    sigma_worker=0.0, comm_time=10.0, timeout=10.0,
                    max_updates=600, sample_every=5, seed=0)
    res1 = run_async(sim, cfg, model, algo="as-lbfgs")
    res2 = run_async(sim, cfg, model, algo="as-lbfgs")
    t_eps = time_to_epsilon(res1.trace, u_star, 1e-2)
    deterministic = all(
        a.time == b.time and a.potential == b.potential
        for a, b in zip(res1.trace, res2.trace)
    )
    elapsed = time.perf_counter() - t0
    _report(4, t_eps is not None and deterministic and elapsed < 60.0,
            f"time_to_epsilon = {t_eps}, rerun identical = {deterministic}, "
            f"{elapsed:.1f}s (< 60s)")


def test_05_straggler_sweep_ordering():
    # sigma_w in {0,50,100,150,200}, 10 reps: the synchronous multi-batch
    # baseline's mean time-to-epsilon must be strictly increasing in
    # sigma_w and at sigma_w=200 at least 1.5x the asynchronous mean
    model, _, u_star = synth_linear_gaussian(0, 100, 600, 10.0, correlation=3.0)
    cfg = SamplerConfig(step=4e-4, friction=3e-2, inv_temperature=5e2,
                        memory_size=3, n_s=40, n_o=20)
    as_means, mb_means = [], []
    for sigma in (0.0, 50.0, 100.0, 150.0, 200.0):
        as_t, mb_t = [], []
        for rep in range(10):
            sim = SimConfig(workers=10, mu_worker=160.0, sigma_worker=sigma,
                            comm_time=10.0, max_updates=600, sample_every=10,
                            seed=rep)
            res = run_async(sim, cfg, model, algo="as-lbfgs")
            as_t.append(time_to_epsilon(res.trace, u_star, 1e-2))
            sim_mb = SimConfig(workers=10, mu_master=30.0, mu_worker=100.0,
                               sigma_worker=sigma, comm_time=10.0,
                               timeout=300.0, max_updates=100, sample_every=5,
                               seed=rep)
            res_mb = run_sync_mb(sim_mb, replace(cfg, step=5e-2, memory_size=3), model)
            mb_t.append(time_to_epsilon(res_mb.trace, u_star, 1e-2))
        assert all(t is not None for t in as_t + mb_t)
        as_means.append(float(np.mean(as_t)))
        mb_means.append(float(np.mean(mb_t)))
    increasing = all(a < b for a, b in zip(mb_means, mb_means[1:]))
    ratio = mb_means[-1] / as_means[-1]
    _report(5, increasing and ratio >= 1.5,
            f"mb means {[round(m) for m in mb_means]} strictly increasing = "
            f"{increasing}, mb/async at sigma=200 = {ratio:.2f} (>= 1.5)")


def test_06_linear_speedup():
    # zero jitter, zero comm, zero master time: the pipelined rate at W=8
    # must be exactly 8x the W=1 rate; the threaded wall-clock speedup
    # sub-check needs >= 4 cores
    rng = np.random.default_rng(6)
    model = LinearGaussianModel(rng.standard_normal((20, 4)),
                                rng.standard_normal(20), 1.0)
    cfg = SamplerConfig(step=1e-3, friction=0.1, n_s=3, n_o=2)
    rates = {}
    for w in (1, 8):
        sim = SimConfig(workers=w, mu_master=0.0, mu_worker=100.0,
                        sigma_worker=0.0, comm_time=0.0, max_updates=800,
                        sample_every=800, seed=0)
        res = run_async(sim, cfg, model)
        rates[w] = res.iterations / res.final_time
    ratio = rates[8] / rates[1]
    cores = os.cpu_count() or 1
    if cores >= 4:
        walls = {}
        for w in (1, 4):
            report = rt.run(w, cfg, model, max_updates=4000, seed=0)
            assert report.error is None
            walls[w] = report.wall_ms
        speedup = walls[1] / walls[4]
        _report(6, ratio == 8.0 and speedup >= 2.5,
                f"simulated rate ratio = {ratio} (exactly 8), threaded "
                f"speedup at W=4 = {speedup:.2f} (>= 2.5)")
    else:
        _report(6, ratio == 8.0,
                f"simulated rate ratio = {ratio} (exactly 8); threaded "
                f"sub-check skipped: host has {cores} core(s) (< 4)")


def test_07_stationary_covariance():
    # 2-d Gaussian posterior at beta=1 with exact gradients and identity
    # curvature: empirical covariance within 15% relative Frobenius error;
    # budget 30 s.  One data record makes every subsampled gradient exact.
    t0 = time.perf_counter()
    a = np.array([[0.6, 0.3]])
    model = LinearGaussianModel(a, np.array([0.0]), 1.0)
    target = np.linalg.inv(np.eye(2) + np.outer(a[0], a[0]))
    cfg = SamplerConfig(step=0.01, friction=0.3, inv_temperature=1.0,
                        n_s=1, n_o=1, use_memory=False)
    rng = np.random.default_rng(7)
    worker = WorkerState(cfg, 2)
    state = ParameterState.start(2)
    n, burn = 150000, 5000
    samples = np.empty((n - burn, 2))
    for i in range(n):
        upd, _ = compute_update(cfg, worker, state, model, rng)
        state = master_apply(state, upd)
        if i >= burn:
            samples[i - burn] = state.theta
    cov = np.cov(samples.T)
    err = float(np.linalg.norm(cov - target) / np.linalg.norm(target))
    elapsed = time.perf_counter() - t0
    _report(7, err < 0.15 and elapsed < 30.0,
            f"covariance rel Frobenius err = {err:.3f} (< 0.15), "
            f"{elapsed:.1f}s (< 30s)")


def test_08_noise_variance_calibration():
    # injected noise variance must equal 2 h' gamma' / beta within 3% over
    # 1e5 component draws; measured at the origin of a zero-data problem so
    # the update is the pure noise term
    dim = 1000
    model = LinearGaussianModel(np.zeros((1, dim)), np.zeros(1), 1.0)
    results = []
    for h, g, beta in ((4e-4, 3e-2, 5e2), (1e-2, 0.5, 2.0)):
        cfg = SamplerConfig(step=h, friction=g, inv_temperature=beta,
                            n_s=1, n_o=1, use_memory=False)
        rng = np.random.default_rng(8)
        worker = WorkerState(cfg, dim)
        state = ParameterState.start(dim)
        draws = np.concatenate([
            compute_update(cfg, worker, state, model, rng)[0][1]
            for _ in range(100)
        ])
        target = 2.0 * h * g / beta
        results.append(abs(float(np.var(draws)) / target - 1.0))
    worst = max(results)
    _report(8, worst < 0.03,
            f"two settings, worst relative variance error = {worst:.4f} "
            f"(< 0.03) over 1e5 draws each")


def test_09_staleness_accounting_and_torn_snapshots():
    # two pipelined workers with zero master/comm time must alternate at
    # staleness exactly 1 after warm-up; the versioned shared state must
    # yield zero torn snapshots over 1e6 concurrent operations
    rng = np.random.default_rng(9)
    model = LinearGaussianModel(rng.standard_normal((20, 4)),
                                rng.standard_normal(20), 1.0)
    cfg = SamplerConfig(step=1e-3, friction=0.1, n_s=3, n_o=2)
    sim = SimConfig(workers=2, mu_master=0.0, mu_worker=5.0,
                    sigma_worker=0.0, comm_time=0.0, max_updates=200, seed=0)
    res = run_async(sim, cfg, model)
    stale_ok = all(l == 1 for _, l in res.staleness_log[2:])

    report = rt.run(4, cfg, model, max_updates=300, seed=0)
    finite_ok = report.error is None and 0 <= report.max_staleness < 300

    # the writer keeps theta == u == constant-vector(n); a snapshot mixing
    # two versions would violate one of those equalities
    dim = 16
    master = SharedMasterState(np.zeros(dim))
    n_writes, reads_per_reader = 200000, 400000
    torn = []
    read_counts = [0, 0]

    def writer():
        upd = np.array((np.ones(dim), np.ones(dim)))
        for _ in range(n_writes):
            master.apply(upd, n_read=0)

    def reader(idx):
        done = 0
        for _ in range(reads_per_reader):
            theta, u, n = master.snapshot()
            done += 1
            if not (np.all(theta == theta[0]) and np.array_equal(theta, u)
                    and theta[0] == n):
                torn.append(n)
                break
        read_counts[idx] = done

    threads = [threading.Thread(target=writer)] + [
        threading.Thread(target=reader, args=(i,)) for i in range(2)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    total_ops = n_writes + sum(read_counts)
    _report(9, stale_ok and finite_ok and not torn and total_ops >= 1_000_000,
            f"post-warm-up staleness all 1 = {stale_ok}, threaded max "
            f"staleness = {report.max_staleness}, torn snapshots = "
            f"{len(torn)} over {total_ops} ops")


def test_10_matrix_factorization_desk_scale(tmp_path):
    # part A: 200x300 rank-3 synthetic matrix (noise 0.1, 10% observed),
    # K=3 -> RMSE below 0.15 (noise floor + margin) within 50k updates.
    # part B: 100k ratings in MovieLens .dat format with step 2e-8,
    # friction 0.1, beta 1e3, rho 3, K=5 -> 5-point moving average of the
    # RMSE trace strictly decreasing.  Total budget 3 min.
    t0 = time.perf_counter()
    model = synth_matrix_factorization(0, 200, 300, 3, noise_std=0.1,
                                       observed_fraction=0.1)
    theta0 = 0.1 * np.random.default_rng(1).standard_normal(model.dim)
    cfg = SamplerConfig(step=3e-6, friction=0.1, n_s=40, n_o=20,
                        rho=3.0, epsilon=0.1, memory_size=3)
    sim = SimConfig(workers=4, mu_worker=1.0, max_updates=10000,
                    sample_every=500, seed=0)
    res = run_async(sim, cfg, model, algo="as-lbfgs", theta0=theta0)
    best = min(r.rmse for r in res.trace)

    rng = np.random.default_rng(42)
    n_users, n_movies, rank = 1500, 900, 5
    f = 0.45 * rng.standard_normal((n_users, rank))
    g = 0.45 * rng.standard_normal((rank, n_movies))
    uu = rng.integers(1, n_users + 1, size=100000)
    mm = rng.integers(1, n_movies + 1, size=100000)
    raw = (3.5 + np.einsum("ik,ki->i", f[uu - 1], g[:, mm - 1])
           + 0.3 * rng.standard_normal(100000))
    ratings = np.clip(np.rint(raw), 1, 5).astype(int)
    path = tmp_path / "ratings.dat"
    with open(path, "w") as fh:
        for u, m, r in zip(uu, mm, ratings):
            fh.write(f"{u}::{m}::{r}::978300000\n")

    ml_cfg = validate_config({"preset": "ml-1m-paper",
                              "problem": {"path": str(path)}})
    out = tmp_path / "out"
    run_experiment(ml_cfg, out_dir=str(out))
    trace_file = next(p for p in os.listdir(out) if p.endswith(".csv"))
    rmses = []
    with open(out / trace_file) as fh:
        header = fh.readline().strip().split(",")
        col = header.index("rmse")
        for line in fh:
            rmses.append(float(line.strip().split(",")[col]))
    moving = np.convolve(rmses, np.ones(5) / 5.0, mode="valid")
    monotone = bool(np.all(np.diff(moving) < 0))
    elapsed = time.perf_counter() - t0
    _report(10, best < 0.15 and monotone and elapsed < 180.0,
            f"synthetic best RMSE = {best:.3f} (< 0.15), ratings-file "
            f"moving-average RMSE strictly decreasing = {monotone}, "
            f"{elapsed:.1f}s (< 180s)")
