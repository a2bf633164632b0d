"""Quickstart: asynchronous quasi-Newton optimization on a linear Gaussian
posterior, run through the discrete-event simulator.

We build a 100-dimensional Bayesian linear regression problem whose MAP
point has a closed form, simulate 10 workers pushing updates to a master,
and report how much virtual time the run needs to close 99% of the gap to
the optimal potential.

Run:  python3 demos/quickstart_linear_gaussian.py
"""

import os

# One BLAS thread unless the caller chose otherwise, set before numpy loads:
# a long replay splits its batches across helper processes only in a
# process that runs no BLAS thread pool.
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

import numpy as np

from asqn import SamplerConfig, SimConfig, run_async, time_to_epsilon
from asqn.experiments import synth_linear_gaussian

# ----------------------------------------------------------------------
# The problem: theta in R^100, 600 noisy linear observations.  The helper
# also returns the exact optimum so we can measure convergence precisely.
model, theta_star, u_star = synth_linear_gaussian(
    seed=0, dim=100, n_records=600, noise_variance=10.0, correlation=3.0
)
print(f"problem: dim={model.dim}, records={model.n_records}, U* = {u_star:.2f}")

# ----------------------------------------------------------------------
# The sampler: quasi-Newton momentum updates with a 3-pair curvature
# memory.  step/friction are the discretized step and friction factors;
# inv_temperature controls the injected exploration noise (inf = none).
sampler = SamplerConfig(
    step=4e-4,
    friction=3e-2,
    inv_temperature=5e2,
    memory_size=3,
    n_s=40,   # subsample records per gradient
    n_o=20,   # overlap records shared with the next iteration
)

# ----------------------------------------------------------------------
# The cluster: 10 workers, each gradient taking 160 time units plus 10 per
# message; no jitter, so the run is fully deterministic given the seed.
sim = SimConfig(
    workers=10,
    mu_worker=160.0,
    sigma_worker=0.0,
    comm_time=10.0,
    max_updates=600,
    sample_every=5,
    seed=0,
)

result = run_async(sim, sampler, model, algo="as-lbfgs")
t99 = time_to_epsilon(result.trace, u_star, 1e-2)

print(f"applied {result.iterations} updates in {result.final_time:.0f} "
      f"virtual time units (max staleness {result.max_staleness})")
print(f"(U - U*)/U* <= 1e-2 reached at virtual time {t99}")
final_gap = (result.trace[-1].potential - u_star) / abs(u_star)
print(f"final relative gap: {final_gap:.2e}")
