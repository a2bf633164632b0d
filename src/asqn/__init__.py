"""Asynchronous stochastic quasi-Newton optimization toolkit.

Components:

- :mod:`asqn.model` — benchmark problems as potentials with exact and
  subsampled gradients (linear Gaussian, matrix factorization).
- :mod:`asqn.lbfgs` — bounded curvature memory with cautious admission and
  the two-loop recursion.
- :mod:`asqn.sampler` — worker/master update mathematics and baselines
  (SGLD, asynchronous SGD, simplified synchronous multi-batch L-BFGS).
- :mod:`asqn.simulator` — deterministic discrete-event simulation of
  distributed (a)synchronous optimization with virtual-time traces.
- :mod:`asqn.runtime` — real asynchronous execution with forked worker
  processes over a shared mapping (Linux only).
- :mod:`asqn.owners` — the forked processes that own workers: forking,
  CPU pinning, child reports, and the split replay's helpers.
- :mod:`asqn.experiments` / :mod:`asqn.cli` — experiment configuration,
  dataset ingestion, sweeps, and trace/summary emission.
"""

from .errors import ConfigError, DivergenceError, WorkerError
from .lbfgs import LbfgsMemory
from .model import (
    LinearGaussianModel,
    MatrixFactorizationModel,
    Subsample,
    combined_gradient,
    draw_subsample,
    full_gradient,
    potential,
    rmse,
    stochastic_gradient,
)
from .sampler import (
    MbLbfgsMaster,
    ParameterState,
    SamplerConfig,
    UpdateVector,
    WorkerState,
    asgd_step,
    compute_update,
    master_apply,
    post_send_memory_update,
    sgld_step,
)
from .simulator import SimConfig, TraceRecord, run_async, run_sync_mb, time_to_epsilon

__all__ = [
    "ConfigError",
    "DivergenceError",
    "LbfgsMemory",
    "LinearGaussianModel",
    "MatrixFactorizationModel",
    "MbLbfgsMaster",
    "ParameterState",
    "SamplerConfig",
    "SimConfig",
    "Subsample",
    "TraceRecord",
    "UpdateVector",
    "WorkerError",
    "WorkerState",
    "asgd_step",
    "combined_gradient",
    "compute_update",
    "draw_subsample",
    "full_gradient",
    "master_apply",
    "post_send_memory_update",
    "potential",
    "rmse",
    "run_async",
    "run_sync_mb",
    "sgld_step",
    "stochastic_gradient",
    "time_to_epsilon",
]
