"""Experiment driver: configuration, dataset ingestion, and sweep orchestration.

Configurations are JSON documents with a strict schema (unknown keys are
rejected).  Named presets mirror the published hyperparameter tables for
the linear Gaussian and ML-1M settings and can be overridden key by key.
Traces are written one CSV per (algorithm, sweep value, repetition) plus a
JSON summary aggregating time-to-epsilon / final RMSE across repetitions.
"""

from __future__ import annotations

import copy
import json
import math
import multiprocessing
import os
from dataclasses import astuple, dataclass

import numpy as np

from .errors import ConfigError, DivergenceError, WorkerError, check_count
from .model import LinearGaussianModel, MatrixFactorizationModel, potential
from .sampler import MbLbfgsMaster, SamplerConfig
from .simulator import (
    SimConfig,
    SimResult,
    check_round_timeout,
    run_async,
    run_sync_mb,
    time_to_epsilon,
    write_trace_csv,
)
from . import owners
from . import runtime as rt

ALGORITHMS = ("as-lbfgs", "a-sgd", "mb-lbfgs-simplified", "sgld")


def _deep_merge(base, override):
    out = copy.deepcopy(base)
    for k, v in override.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _deep_merge(out[k], v)
        else:
            out[k] = copy.deepcopy(v)
    return out


# The top-level defaults: a config's preset, then its own keys, are merged
# over them, so every key here is set in a validated config.
_DEFAULTS = {"schema_version": 1, "sweep": {}, "sim": {}, "baselines": {}, "runtime": {},
             "repetitions": 1, "epsilon_accuracy": 1e-2, "base_seed": 0, "output_dir": "out"}

# The simulated cluster of the paper's experiments, one for both settings:
# W = 10, tau = 10 and one timing table (mu_m, mu_w per algorithm).
_PAPER = {
    "mode": "simulate",
    "algorithms": ["as-lbfgs"],
    "sim": {
        "workers": 10,
        "sigma_worker": 0.0,
        "comm_time": 10.0,
        "timing": {
            "as-lbfgs": {"mu_master": 0.0, "mu_worker": 70.0},
            "a-sgd": {"mu_master": 0.0, "mu_worker": 10.0},
            "mb-lbfgs-simplified": {"mu_master": 30.0, "mu_worker": 10.0},
            "sgld": {"mu_master": 0.0, "mu_worker": 10.0},
        },
    },
    "runtime": {"workers": 4},
}

# Published hyperparameters of each setting on that cluster: the problem,
# the sampler (h', gamma', beta, M; N_Omega = N_Y/100, N_O = N_Omega/3),
# the baselines' own values and the horizons.
PRESETS = {name: _deep_merge(_PAPER, own) for name, own in {
    "linear-gaussian-paper": {
        "problem": {
            "type": "linear-gaussian",
            "seed": 0,
            "dim": 100,
            "n_records": 600,
            "noise_variance": 10.0,
            "correlation": 3.0,
        },
        "sampler": {
            "step": 4e-4,
            "friction": 3e-2,
            "inv_temperature": 5e2,
            "memory_size": 3,
            "n_s": 4,
            "n_o": 2,
            "epsilon": 1e-8,
            "rho": 0.0,
        },
        "baselines": {
            "a-sgd": {"step": 1e-3},
            "mb-lbfgs-simplified": {"step": 5e-2, "memory_size": 3, "rho": 0.0},
            "sgld": {"step": 1e-3},
        },
        "sim": {"timeout": 10.0, "max_updates": 40000, "sample_every": 25},
        "runtime": {"max_updates": 20000, "sample_every": 100},
    },
    "ml-1m-paper": {
        "problem": {
            "type": "matrix-factorization",
            "seed": 0,
            "rank": 5,
            "path": None,
            "format": "dat-double-colon",
            "max_ratings": 100000,
        },
        "sampler": {
            "step": 2e-8,
            "friction": 1e-1,
            "inv_temperature": 1e3,
            "memory_size": 3,
            "n_s": None,  # filled from N_Y: N_Omega = N_Y/100, N_O = N_Omega/3
            "n_o": None,
            # the quartic landscape has near-flat directions whose noisy
            # curvature pairs would seed the inverse-Hessian with a huge
            # scale; a strong cautious threshold keeps them out
            "epsilon": 0.1,
            "rho": 3.0,
        },
        "baselines": {
            "a-sgd": {"step": 1e-6},
            "mb-lbfgs-simplified": {"step": 5e-7, "memory_size": 3, "rho": 3.0},
            "sgld": {"step": 1e-6},
        },
        "sim": {"timeout": 400.0, "max_updates": 3000, "sample_every": 50},
        "runtime": {"max_updates": 3000, "sample_every": 50},
    },
}.items()}


# The kind of every config key: float for a number (an int will do, a bool
# will not), int for a count (left to check_count where the count is used),
# bool, str, "| None" where null is allowed, [kind] for a non-empty list of
# that kind, and a dict for an object that holds its keys only.
_SAMPLER = {"step": float, "friction": float, "inv_temperature": float, "memory_size": int,
            "n_s": int | None, "n_o": int | None, "epsilon": float, "rho": float}
# the ratings-file keys of a matrix-factorization problem: load_movielens keywords
_RATINGS_FILE = {"path": "path", "format": "fmt", "max_ratings": "max_ratings"}
# the problem keys of each type, besides "type" and "seed"
_PROBLEMS = {
    "linear-gaussian": {"dim": int, "n_records": int, "noise_variance": float,
                        "correlation": float},
    "matrix-factorization": {"rank": int, "path": str | None, "format": str,
                             "max_ratings": int | None, "n_rows": int, "n_cols": int,
                             "noise_std": float, "observed_fraction": float},
}
_SCHEMA = {
    "schema_version": int, "preset": str, "mode": str, "algorithms": [str],
    "problem": {"type": str, "seed": int, **_PROBLEMS["linear-gaussian"],
                **_PROBLEMS["matrix-factorization"]},
    "sampler": _SAMPLER, "baselines": dict.fromkeys(ALGORITHMS[1:], _SAMPLER),
    "sim": {"workers": int, "sigma_worker": float, "comm_time": float, "timeout": float,
            "max_updates": int, "max_time": float, "sample_every": int,
            "timing": dict.fromkeys(ALGORITHMS, {"mu_master": float, "mu_worker": float}),
            "wait_for_stragglers": bool},
    "runtime": {"workers": int, "max_updates": int, "sample_every": int},
    "sweep": {"sigma_worker": [float], "workers": [int]},
    "repetitions": int, "epsilon_accuracy": float, "base_seed": int, "output_dir": str,
}
# what a value of each checked kind must be, and what a list's values must be
_WHAT = {float: ("a number", "numbers"), bool: ("true or false", None),
         str: ("a string", "strings"), str | None: ("a string or null", None)}

# the key each mode sweeps, its name in trace file names, and its unswept source
_SWEEPS = {"simulate": ("sigma_worker", "sigma", "sim", 0.0),
           "run": ("workers", "workers", "runtime", 1)}


def _is(value, kind):
    """Whether ``value`` has the scalar ``kind``; every count passes.  A
    number may be infinite (beta = inf turns the noise off) but not NaN,
    which JSON parsing accepts."""
    if kind is float:
        return (isinstance(value, (int, float)) and not isinstance(value, bool)
                and not (isinstance(value, float) and math.isnan(value)))
    return kind not in _WHAT or isinstance(value, kind)


def _check(value, kind, path=""):
    """Raise :class:`ConfigError` naming ``path`` unless ``value`` and
    everything in it have ``kind``, an entry of :data:`_SCHEMA`."""
    if isinstance(kind, dict):
        if not isinstance(value, dict):
            raise ConfigError(f"{path or 'config root'} must be an object, got {value!r}")
        unknown = set(value) - set(kind)
        if unknown:
            raise ConfigError(f"unknown key(s) {sorted(unknown)} at {path or 'top level'}")
        for key, item in value.items():
            _check(item, kind[key], f"{path}.{key}" if path else key)
    elif isinstance(kind, list):
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{path} must be a non-empty list, got {value!r}")
        for item in value:
            if not _is(item, kind[0]):
                raise ConfigError(f"{path} values must be {_WHAT[kind[0]][1]}, got {item!r}")
    elif not _is(value, kind):
        raise ConfigError(f"{path} must be {_WHAT[kind][0]}, got {value!r}")


@dataclass
class ExperimentConfig:
    """Validated experiment description (a plain dict under the hood)."""

    doc: dict

    def __getitem__(self, key):
        return self.doc[key]

    def to_json(self) -> str:
        return json.dumps(self.doc, indent=2, sort_keys=True)


def validate_config(doc: dict) -> ExperimentConfig:
    """Check ``doc`` and merge :data:`_DEFAULTS`, then its preset if it
    names one, then ``doc`` itself; returns a config that holds every key
    of :data:`_DEFAULTS` and shares no object with ``doc``, which is left
    as it is.  :data:`_SCHEMA` gives every key its kind; the checks after
    the merge relate keys to one another, such as the ``problem`` keys to
    its type and to ``problem.path``."""
    _check(doc, _SCHEMA)  # the defaults and presets match the table, so the merged config does too
    doc = dict(doc)
    preset = doc.pop("preset", None)
    if preset is not None and preset not in PRESETS:
        raise ConfigError(f"unknown preset {preset!r}; known: {sorted(PRESETS)}")
    own_problem = doc.get("problem", {})
    doc = _deep_merge(_deep_merge(_DEFAULTS, PRESETS.get(preset, {})), doc)
    mode = doc.get("mode")
    if mode not in _SWEEPS:
        raise ConfigError(f"mode must be 'simulate' or 'run', got {mode!r}")
    # each sweep key applies to one mode only; the other would ignore it
    for other, (key, *_) in _SWEEPS.items():
        if other != mode and key in doc["sweep"]:
            raise ConfigError(f"sweep.{key} does not apply in {mode} mode")
    for section in ("algorithms", "problem", "sampler"):
        if section not in doc:
            raise ConfigError(f"missing '{section}' section")
    for a in doc["algorithms"]:
        if a not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {a!r}; known: {list(ALGORITHMS)}")
        # a baseline's own section may set the step its algorithm runs with
        if "step" not in {**doc["sampler"], **doc["baselines"].get(a, {})}:
            raise ConfigError(f"missing sampler.step (needed by {a})")
    # AS-L-BFGS has no default friction
    if "as-lbfgs" in doc["algorithms"] and "friction" not in doc["sampler"]:
        raise ConfigError("missing sampler.friction (needed by as-lbfgs)")
    ptype = doc["problem"].get("type")
    if ptype not in _PROBLEMS:
        raise ConfigError(f"problem.type must be one of {sorted(_PROBLEMS)}, got {ptype!r}")
    for key in sorted(doc["problem"]):
        if key not in ("type", "seed", *_PROBLEMS[ptype]):
            raise ConfigError(f"problem.{key} does not apply to problem type {ptype!r}")
    if ptype == "matrix-factorization":
        # the synthetic problem's keys go unused with a path, and a ratings
        # file's without one; a config without a preset may keep the
        # latter for a path given later, as ml-1m-paper does
        path = doc["problem"].get("path")
        unused = (set(_PROBLEMS[ptype]) - set(_RATINGS_FILE) - {"rank"} if path
                  else set(_RATINGS_FILE) - {"path"} if preset else set())
        for key in sorted(unused & set(own_problem)):
            raise ConfigError(f"problem.{key} is unused {'with' if path else 'without'} "
                              "a problem.path")
    check_count("repetitions", doc["repetitions"])
    check_count("base_seed", doc["base_seed"], minimum=0)
    check_count("schema_version", doc["schema_version"])
    return ExperimentConfig(doc)


def load_config(path, overrides=None) -> ExperimentConfig:
    """Parse and validate a JSON experiment configuration.

    ``overrides`` replaces top-level keys of the file before validation,
    so the checks see the configuration that will actually run."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {path} at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config root must be a JSON object ({path})")
    return validate_config({**doc, **(overrides or {})})


def synth_linear_gaussian(seed=0, dim=100, n_records=600, noise_variance=10.0,
                          correlation=0.0):
    """Generate the synthetic linear Gaussian instance.

    Feature rows are standard normal plus a shared direction scaled by the
    ``correlation`` knob, which induces correlation in the posterior (the
    published recipe is unspecified; this is one documented choice).  Rows
    are normalized to unit norm: with the N_Y/|Omega| rescaling of
    subsampled gradients, un-normalized rows make the per-step stochastic
    curvature large enough that the discrete dynamics are unstable at the
    intended step sizes.
    Returns (model, theta_star, u_star) with the closed-form optimum.
    """
    check_count("dim", dim)
    check_count("n_records", n_records)
    rng = np.random.default_rng(seed)
    shared = rng.standard_normal(dim)
    shared /= np.linalg.norm(shared)
    features = rng.standard_normal((n_records, dim))
    features += correlation * np.outer(rng.standard_normal(n_records), shared)
    features /= np.linalg.norm(features, axis=1, keepdims=True)
    theta_true = rng.standard_normal(dim)
    targets = features @ theta_true + math.sqrt(noise_variance) * rng.standard_normal(n_records)
    model = LinearGaussianModel(features, targets, noise_variance)
    theta_star = model.map_estimate()
    return model, theta_star, potential(model, theta_star)


def synth_matrix_factorization(seed=0, n_rows=200, n_cols=300, rank=3, noise_std=0.1,
                               observed_fraction=0.1):
    """Low-rank synthetic ratings: Y = F G + noise on a random subset of cells."""
    for name, count in (("n_rows", n_rows), ("n_cols", n_cols), ("rank", rank)):
        check_count(name, count)
    rng = np.random.default_rng(seed)
    f = rng.standard_normal((n_rows, rank))
    g = rng.standard_normal((rank, n_cols))
    n_obs = max(1, int(round(observed_fraction * n_rows * n_cols)))
    flat = rng.choice(n_rows * n_cols, size=n_obs, replace=False)
    rows, cols = np.divmod(flat, n_cols)
    # np.take gathers the 6,000 ratings of a 200 x 300 problem in 24 us,
    # fancy indexing in 91 us; taking rows of g.T keeps the column-major
    # layout of g[:, cols], whose einsum sums in another order than a
    # row-major copy's
    f_rows, g_cols = np.take(f, rows, axis=0), np.take(g.T, cols, axis=0).T
    values = np.einsum("ik,ki->i", f_rows, g_cols) + noise_std * rng.standard_normal(n_obs)
    return MatrixFactorizationModel(rows, cols, values, n_rows, n_cols, rank)


def load_movielens(path, fmt="dat-double-colon", rank=5, max_ratings=None):
    """Parse MovieLens ratings into a matrix factorization model.

    Supports the '::'-separated .dat layout (user::item::rating::timestamp)
    and header-bearing CSV (userId,movieId,rating,timestamp).  Rows of the
    data matrix are movies, columns are users; ids are remapped to
    contiguous indices in order of first appearance.  Returns
    (model, info) with info = {'n_rows', 'n_cols', 'nnz'}.
    """
    if fmt not in ("dat-double-colon", "csv"):
        raise ConfigError(f"unknown ratings format {fmt!r}")
    check_count("rank", rank)
    users, items, ratings = [], [], []
    try:
        fh = open(path, encoding="utf-8", errors="replace")
    except OSError as exc:
        raise ConfigError(f"cannot read ratings file {path}: {exc}") from exc
    with fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if fmt == "csv" and lineno == 1 and line.lower().startswith("userid"):
                continue
            parts = line.split("::") if fmt == "dat-double-colon" else line.split(",")
            if len(parts) < 3:
                raise ConfigError(f"{path}:{lineno}: expected at least 3 fields, got {len(parts)}")
            try:
                users.append(int(parts[0]))
                items.append(int(parts[1]))
                ratings.append(float(parts[2]))
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from exc
            if max_ratings is not None and len(ratings) >= max_ratings:
                break
    if not ratings:
        raise ConfigError(f"no ratings found in {path}")
    item_map: dict = {}
    user_map: dict = {}
    rows = np.array([item_map.setdefault(i, len(item_map)) for i in items], dtype=np.intp)
    cols = np.array([user_map.setdefault(u, len(user_map)) for u in users], dtype=np.intp)
    model = MatrixFactorizationModel(
        rows, cols, np.array(ratings), len(item_map), len(user_map), rank
    )
    return model, {"n_rows": len(item_map), "n_cols": len(user_map), "nnz": len(ratings)}


def build_problem(cfg: ExperimentConfig):
    """Instantiate the configured problem, passing the section's keys to
    its builder, whose signature holds their defaults: a ratings file
    (rank 5) for a matrix-factorization problem with a ``path``.

    Returns (model, u_star) where u_star is None when no closed-form
    optimum exists (matrix factorization)."""
    p = dict(cfg["problem"])
    ptype = p.pop("type", None)
    if "seed" in p:
        check_count("problem.seed", p["seed"], minimum=0)
    if ptype == "linear-gaussian":
        model, _, u_star = synth_linear_gaussian(**p)
        return model, u_star
    if ptype == "matrix-factorization":
        ratings = {arg: p.pop(key) for key, arg in _RATINGS_FILE.items() if key in p}
        if ratings.get("max_ratings") is not None:
            check_count("problem.max_ratings", ratings["max_ratings"])
        if not ratings.get("path"):
            return synth_matrix_factorization(**p), None
        p.pop("seed", None)  # a ratings file is read, not drawn
        return load_movielens(**ratings, **p)[0], None
    raise ConfigError(f"unknown problem type {ptype!r}")


def _sampler_cfg(cfg, algo, model):
    s = {**cfg["sampler"], **cfg["baselines"].get(algo, {})}
    if algo != "as-lbfgs":  # SamplerConfig needs a friction, which the baselines never read
        s.setdefault("friction", 0.5)
    # a null size takes its value from the derived pair: N_Omega = N_Y/100,
    # N_O = N_Omega/3, N_S = N_Omega - N_O; a size that is set stays
    n_omega = max(3, model.n_records // 100)
    n_o = max(1, n_omega // 3)
    for key, derived in (("n_o", n_o), ("n_s", n_omega - n_o)):
        if s.get(key) is None:
            s[key] = derived
    return SamplerConfig(**s)


def _sim_cfg(cfg, algo, seed, sigma):
    s = dict(cfg["sim"])
    s.update(s.pop("timing", {}).get(algo, {}), seed=seed, sigma_worker=sigma)
    if algo == "sgld":  # the SGLD baseline is serial and models no compute-time jitter
        s.update(workers=1, sigma_worker=0.0)
    return SimConfig(**s)


def run_sgld_serial(sim_cfg: SimConfig, sampler_cfg, model, theta0=None) -> SimResult:
    """Serial SGLD baseline: :func:`~asqn.simulator.run_async` with the SGLD
    update, serial when ``sim_cfg`` has one worker and no jitter, as the
    experiment driver gives it."""
    return run_async(sim_cfg, sampler_cfg, model, algo="sgld", theta0=theta0)


def _initial_theta(cfg, model):
    """Starting point for the configured problem.

    Matrix factorization starts from a small random point: the all-zeros
    point has both factors zero, so the gradient vanishes there and the
    dynamics would sit on that saddle indefinitely.  The quadratic problem
    keeps the zero start (None)."""
    if isinstance(model, MatrixFactorizationModel):
        seed = cfg["problem"].get("seed", 0)
        return 0.1 * np.random.default_rng(seed).standard_normal(model.dim)
    return None


def _resolve_point(cfg, model, theta0, algo, seed, value):
    """One point ``(algo, seed, swept value)`` as ``(key, call)``: a ready
    call that returns its SimResult, and the key of the run it makes.
    Every configuration error of the point is raised here, before any
    point runs.  A simulate point is a function of its resolved
    configurations alone, so its key is ``(algo, astuple(SimConfig),
    astuple(SamplerConfig))``, and points that resolve alike (SGLD's,
    whose sim section is pinned) share one run.  A run-mode point times
    its own workers, so its key is None: each runs.  It calls
    :func:`asqn.runtime.run` on ``value`` worker processes and raises a
    worker's failure as its error type, a DivergenceError or a WorkerError
    with the message alone, any other as a WorkerError that names its
    type."""
    samp = _sampler_cfg(cfg, algo, model)
    if cfg["mode"] == "run":
        kw = {**cfg["runtime"], "workers": value, "algo": algo}
        rt.check_run(**kw)

        def run_point():
            result = rt.run(sampler_cfg=samp, model=model, theta0=theta0, seed=seed, **kw)
            if result.error:
                kind, _, message = result.error.partition(": ")
                if kind == DivergenceError.__name__:
                    raise DivergenceError(message)
                raise WorkerError(message if kind == WorkerError.__name__ else result.error)
            return result
        return None, run_point
    sim = _sim_cfg(cfg, algo, seed, value)
    key = (algo, astuple(sim), astuple(samp))
    if algo == "mb-lbfgs-simplified":
        check_round_timeout(sim)
        master = MbLbfgsMaster(model.dim, step=samp.step, memory_size=samp.memory_size,
                               epsilon=samp.epsilon, rho=samp.rho)
        return key, lambda: run_sync_mb(sim, master, samp, model, theta0=theta0)
    return key, lambda: run_async(sim, samp, model, algo=algo, theta0=theta0)


def _mean_std(values):
    arr = np.array([v for v in values if v is not None], dtype=float)
    if arr.size == 0:
        return None, None, 0
    return float(arr.mean()), float(arr.std(ddof=0)), int(arr.size)


def _take_points(_, calls, next_point):
    """Run ``calls`` by the index taken from the shared counter
    ``next_point`` until none is left or one fails.  The first argument,
    the index :func:`~asqn.owners.fork_children` gives a child, goes unused.

    Returns ``({index: SimResult}, (index, exception) or None)``.  A failure
    moves the counter past the last call, so no process starts another."""
    results = {}
    while True:
        with next_point.get_lock():
            i = next_point.value
            next_point.value = i + 1
        if i >= len(calls):
            return results, None
        try:
            results[i] = calls[i]()
        except Exception as exc:  # the process boundary: raised again by the parent
            with next_point.get_lock():
                next_point.value = len(calls)
            return results, (i, exc)


def _run_points(calls, procs):
    """Run resolved points on ``procs`` processes; returns their SimResults
    in point order.

    The parent is one of the processes and forks the others.  Process i
    runs its points on its own share ``cpus[i::procs]`` of the CPUs the
    caller may run on (:func:`asqn.owners.fork_children` pins each child,
    and the parent is :func:`~asqn.owners.pinned` while it takes points),
    so a point's :func:`~asqn.simulator.replay` splits only across its own
    process's share.  After a point fails no new point
    starts, the points already started finish, and the failure of the
    lowest-index failed point is raised, as a serial run would raise it.
    A child that exits without reporting raises :class:`WorkerError` at
    once, and the other children are stopped."""
    cpus = sorted(os.sched_getaffinity(0))
    next_point = multiprocessing.get_context("fork").Value("q", 0)
    shares = [cpus[i::procs] for i in range(1, procs)]
    with owners.fork_children(shares, _take_points, (calls, next_point)) as (children, conns):
        with owners.pinned(cpus[::procs]):
            reports = [_take_points(None, calls, next_point)]
        for proc, conn in zip(children, conns):
            report, died = owners.receive_report(conn, proc)
            if died:
                raise died
            reports.append(report)
    failures = [failure for _, failure in reports if failure]
    if failures:
        raise min(failures, key=lambda f: f[0])[1]
    results = {i: res for done, _ in reports for i, res in done.items()}
    return [results[i] for i in range(len(calls))]


def _point_summary(mode, runs, u_star, eps):
    """Summary figures of one sweep value over its repetitions."""
    finals = _mean_std(res.final_potential for res in runs)[0]
    if mode == "run":
        w_mean, w_std, _ = _mean_std(res.wall_ms for res in runs)
        return {"wall_ms_mean": w_mean, "wall_ms_std": w_std, "final_potential_mean": finals}
    times = [time_to_epsilon(res.trace, u_star, eps) for res in runs] if u_star is not None else []
    t_mean, t_std, t_n = _mean_std(times)
    r_mean, r_std, _ = _mean_std(res.trace[-1].rmse for res in runs)
    return {
        "time_to_epsilon_mean": t_mean,
        "time_to_epsilon_std": t_std,
        "reached": t_n,
        "final_potential_mean": finals,
        "final_rmse_mean": r_mean,
        "final_rmse_std": r_std,
    }


def _trace_file(algo, label, value, rep):
    """The trace file name of one point; ``label`` names the swept key."""
    return f"{algo}_{label}-{value:g}_rep-{rep}.csv"


def run_experiment(cfg: ExperimentConfig, out_dir=None):
    """Execute the configured experiment; returns the summary dict.

    Writes one trace CSV per (algorithm, sweep value, repetition) named
    ``{algo}_{param}-{value}_rep-{k}.csv`` plus ``summary.json``.  Partial
    outputs are removed if the experiment fails.

    The problem is built and every point resolved to a ready call before
    any point runs, so a configuration error (such as a non-integer
    ``sim.max_updates``, ``sgld`` in run mode, or two points that would
    write the same trace file) is raised before any process forks and
    before ``out_dir`` is created.  Simulate mode runs each distinct
    point once: points with the same algorithm, :class:`SimConfig` and
    :class:`SamplerConfig`, such as SGLD's, whose sim section is pinned
    whatever the swept value, share one run.  It runs its distinct points
    on one process per CPU the caller may run on, the calling process
    and forked children (Linux only, for the ``fork`` start method), so
    under one-CPU affinity (``taskset -c 0``) it runs them in the calling
    process alone; the outputs are byte-identical to a run on one
    process.  Run mode runs every point, one after another in the
    calling process, because each times :func:`asqn.runtime.run`, which
    forks its own workers.  Its ``speedup_vs_w1`` is the W = 1 point's
    mean wall time over each point's, for the same number of applies: a
    throughput ratio at a fixed update count, not a speedup in
    time-to-epsilon."""
    mode = cfg["mode"]
    algorithms = cfg["algorithms"]
    model, u_star = build_problem(cfg)
    theta0 = _initial_theta(cfg, model)
    reps, base_seed, eps = cfg["repetitions"], cfg["base_seed"], cfg["epsilon_accuracy"]
    key, label, section, default = _SWEEPS[mode]
    values = cfg["sweep"].get(key) or [cfg[section].get(key, default)]
    points = [(algo, base_seed + k, value)
              for algo in algorithms for value in values for k in range(reps)]
    resolved = [_resolve_point(cfg, model, theta0, *point) for point in points]
    # each key's index in distinct: the call of its first point
    run_of, distinct, keys = {}, [], []
    for i, (point_key, call) in enumerate(resolved):
        point_key = i if point_key is None else point_key  # a run-mode point runs alone
        keys.append(point_key)
        if point_key not in run_of:
            run_of[point_key] = len(distinct)
            distinct.append(call)
    # a repeated algorithm, or swept values that print the same, would
    # write two points' traces to one file
    first = {}
    for algo in algorithms:
        for value in values:
            name = _trace_file(algo, label, value, 0)
            if name in first:
                raise ConfigError(f"points ({first[name]}) and ({algo}, {key} {value!r}) "
                                  f"would both write {name}")
            first[name] = f"{algo}, {key} {value!r}"
    # a run-mode point forks and times its own workers, so it runs alone
    procs = 1 if mode == "run" else min(len(os.sched_getaffinity(0)), len(distinct))
    out_dir = out_dir or cfg["output_dir"] or _DEFAULTS["output_dir"]
    os.makedirs(out_dir, exist_ok=True)
    written = []
    try:
        done = _run_points(distinct, procs)
        results = (done[run_of[point_key]] for point_key in keys)
        summary = {
            "mode": mode,
            "u_star": u_star,
            "epsilon": eps,
            "base_seed": base_seed,
            "repetition_seeds": [base_seed + k for k in range(reps)],
            "algorithms": {},
        }
        for algo in algorithms:
            summary_points = []
            for value in values:
                runs = [next(results) for _ in range(reps)]
                for k, res in enumerate(runs):
                    path = os.path.join(out_dir, _trace_file(algo, label, value, k))
                    write_trace_csv(res.trace, path)
                    written.append(path)
                summary_points.append({key: value, **_point_summary(mode, runs, u_star, eps)})
            # run mode: the speedup of each worker count over one worker
            base = next((p for p in summary_points if p.get("workers") == 1), None)
            if base:
                for p in summary_points:
                    p["speedup_vs_w1"] = base["wall_ms_mean"] / p["wall_ms_mean"]
            summary["algorithms"][algo] = {"points": summary_points}
        spath = os.path.join(out_dir, "summary.json")
        with open(spath, "w") as fh:
            json.dump(summary, fh, indent=2)
        written.append(spath)
        return summary
    except Exception:
        for path in written:
            try:
                os.remove(path)
            except OSError:
                pass
        raise
