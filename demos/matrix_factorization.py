"""Matrix factorization on a synthetic ratings matrix.

The nonconvex benchmark: recover a rank-3 factorization of a 200x300
matrix from 10% of its entries, observed with noise of standard deviation
0.1.  The asynchronous sampler should drive the training RMSE down to
(roughly) the noise floor.

Two things make this landscape trickier than the quadratic quickstart:

* the all-zeros point is a stationary saddle (both factors zero kills the
  gradient), so we start from a small random point;
* noisy curvature pairs along near-flat directions would give the inverse
  Hessian approximation a huge scale, so the cautious admission threshold
  (epsilon) is set high and a damping shift (rho) keeps steps bounded.

Run:  python3 demos/matrix_factorization.py
"""

import os

# One BLAS thread unless the caller chose otherwise, set before numpy loads:
# a long replay splits its batches across helper processes only in a
# process that runs no BLAS thread pool.
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

import numpy as np

from asqn import SamplerConfig, SimConfig, run_async
from asqn.experiments import synth_matrix_factorization

model = synth_matrix_factorization(
    seed=0, n_rows=200, n_cols=300, rank=3, noise_std=0.1,
    observed_fraction=0.1,
)
print(f"problem: {model.n_records} observed entries, "
      f"{model.dim} parameters (rank 3)")

# small random start -- zero is a saddle point of the quartic potential
theta0 = 0.1 * np.random.default_rng(1).standard_normal(model.dim)

sampler = SamplerConfig(
    step=3e-6,
    friction=0.1,
    n_s=40,
    n_o=20,
    memory_size=3,
    epsilon=0.1,  # admit only pairs with solid positive curvature
    rho=3.0,      # damping shift added to the inverse-Hessian action
)
sim = SimConfig(workers=4, mu_worker=1.0, max_updates=10000,
                sample_every=1000, seed=0)

result = run_async(sim, sampler, model, algo="as-lbfgs", theta0=theta0)

print(f"{'updates':>8} {'rmse':>8}")
for rec in result.trace:
    print(f"{rec.iteration:8d} {rec.rmse:8.4f}")
print(f"\nnoise floor is 0.1; final training RMSE {result.trace[-1].rmse:.3f}")
