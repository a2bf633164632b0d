"""Why go asynchronous: straggler sensitivity of synchronous rounds.

A synchronous multi-batch method must wait for (or cut off) the slowest
worker every round, so its wall-clock convergence degrades as worker
compute times get noisier.  The asynchronous sampler applies updates as
they arrive and is nearly immune to the same jitter.

This script sweeps the worker-time standard deviation and prints the mean
virtual time each method needs to close 99% of the optimality gap,
averaged over 5 repetitions.

Run:  python3 demos/straggler_sweep.py
"""

import os

# One BLAS thread unless the caller chose otherwise, set before numpy loads:
# a long replay splits its batches across helper processes only in a
# process that runs no BLAS thread pool.
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

import numpy as np

from asqn import (
    MbLbfgsMaster,
    SamplerConfig,
    SimConfig,
    run_async,
    run_sync_mb,
    time_to_epsilon,
)
from asqn.experiments import synth_linear_gaussian

model, _, u_star = synth_linear_gaussian(
    seed=0, dim=100, n_records=600, noise_variance=10.0, correlation=3.0
)
sampler = SamplerConfig(step=4e-4, friction=3e-2, inv_temperature=5e2,
                        memory_size=3, n_s=40, n_o=20)

REPS = 5
print(f"{'sigma_w':>8} {'async':>10} {'synchronous':>12}")
for sigma in (0.0, 50.0, 100.0, 150.0, 200.0):
    async_times, sync_times = [], []
    for rep in range(REPS):
        # asynchronous: mean compute 160, no round barrier
        sim = SimConfig(workers=10, mu_worker=160.0, sigma_worker=sigma,
                        comm_time=10.0, max_updates=600, sample_every=10,
                        seed=rep)
        res = run_async(sim, sampler, model, algo="as-lbfgs")
        async_times.append(time_to_epsilon(res.trace, u_star, 1e-2))

        # synchronous: cheaper per-gradient work (mean 100) plus a master
        # aggregation step, but every round waits on the whole cohort;
        # workers slower than the 300-unit cutoff are dropped from the round
        sim_mb = SimConfig(workers=10, mu_master=30.0, mu_worker=100.0,
                           sigma_worker=sigma, comm_time=10.0, timeout=300.0,
                           max_updates=100, sample_every=5, seed=rep)
        master = MbLbfgsMaster(model.dim, step=5e-2, memory_size=3)
        res_mb = run_sync_mb(sim_mb, master, sampler, model)
        sync_times.append(time_to_epsilon(res_mb.trace, u_star, 1e-2))
    print(f"{sigma:8.0f} {np.mean(async_times):10.0f} "
          f"{np.mean(sync_times):12.0f}")

print("\nthe synchronous column grows with the jitter; the async column "
      "stays flat")
