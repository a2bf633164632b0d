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

The names below are loaded from their modules on first access (PEP 562),
so ``import asqn.cli`` imports no numpy: the entry point sets its BLAS
thread default before numpy loads.
"""

import importlib

# the package's exports, by the submodule that defines them
_EXPORTS = {
    "errors": ("ConfigError", "DivergenceError", "WorkerError"),
    "lbfgs": ("LbfgsMemory",),
    "model": ("LinearGaussianModel", "MatrixFactorizationModel", "combined_gradient",
              "draw_subsample", "full_gradient", "potential", "rmse", "stochastic_gradient"),
    "sampler": ("MbLbfgsMaster", "ParameterState", "SamplerConfig", "WorkerState",
                "asgd_step", "compute_update", "master_apply", "post_send_memory_update",
                "sgld_step"),
    "simulator": ("SimConfig", "TraceRecord", "run_async", "run_sync_mb", "time_to_epsilon"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    # not cached here: each access reads the submodule's current binding
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)
