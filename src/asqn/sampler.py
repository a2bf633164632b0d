"""Update-vector mathematics for the asynchronous quasi-Newton sampler.

This module holds the per-worker computation (quasi-Newton momentum update
with tempered Gaussian noise), the master-side accumulation, the step-size
reparametrization, and the three baselines: SGLD, asynchronous SGD, and a
simplified synchronous multi-batch L-BFGS.

Every function is either pure or mutates only the worker-owned state it is
handed; serializing master applies is the caller's job.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DivergenceError
from .lbfgs import LbfgsMemory, apply_stacked
from .model import Subsample, combined_gradient, draw_subsample, stochastic_gradient


@dataclass
class SamplerConfig:
    """Hyperparameters of one sampler run.

    ``step`` and ``friction`` are the reparametrized h' = h^2 and
    gamma' = h*gamma.  ``inv_temperature`` may be math.inf, which disables
    the injected noise and recovers deterministic optimization.
    """

    step: float
    friction: float
    inv_temperature: float = math.inf
    memory_size: int = 3
    n_s: int = 4
    n_o: int = 2
    epsilon: float = 1e-8
    rho: float = 0.0
    use_memory: bool = True

    def __post_init__(self):
        if self.step <= 0:
            raise ConfigError(f"step must be positive, got {self.step}")
        if not 0.0 < self.friction < 1.0:
            raise ConfigError(f"friction must lie in (0, 1), got {self.friction}")
        if self.inv_temperature <= 0:
            raise ConfigError(f"inverse temperature must be positive, got {self.inv_temperature}")
        for name in ("memory_size", "n_s", "n_o"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1, got {getattr(self, name)}")

    def noise_scale(self) -> float:
        if math.isinf(self.inv_temperature):
            return 0.0
        return math.sqrt(2.0 * self.step * self.friction / self.inv_temperature)


@dataclass
class ParameterState:
    """The master's iterate, momentum, and iteration counter."""

    theta: np.ndarray
    u: np.ndarray
    iteration: int = 0

    @staticmethod
    def zeros(dim: int) -> "ParameterState":
        return ParameterState(theta=np.zeros(dim), u=np.zeros(dim), iteration=0)

    def copy(self) -> "ParameterState":
        return ParameterState(self.theta.copy(), self.u.copy(), self.iteration)


@dataclass
class UpdateVector:
    """Additive update a worker ships to the master, tagged with the
    staleness (applies between snapshot read and this update's apply)."""

    d_theta: np.ndarray
    d_u: np.ndarray
    staleness: int = 0


@dataclass
class UpdateContext:
    """Everything the post-send memory update needs from the matching
    compute_update call."""

    snapshot_theta: np.ndarray
    subsample: Subsample
    overlap_gradient: np.ndarray
    snapshot_iteration: int


class WorkerState:
    """Worker-local L-BFGS memory and previous-iteration bookkeeping."""

    def __init__(self, cfg: SamplerConfig, dim: int):
        self.cfg = cfg
        self.memory = LbfgsMemory(dim, cfg.memory_size, epsilon=cfg.epsilon, rho=cfg.rho)
        self.prev_theta = None
        self.prev_overlap = None
        self.prev_overlap_grad = None
        self.local_iter = 0


def compute_update(cfg, worker, snapshot, model, rng) -> tuple[UpdateVector, UpdateContext]:
    """One worker iteration: draw a subsample, form the combined gradient
    at the (possibly stale) snapshot, and build (d_theta, d_u).

    The overlap gradient the next curvature pair needs comes out of the
    same call, reusing its O-part likelihood sum rather than evaluating
    it again.  The context aliases ``snapshot.theta``, which must not be
    mutated afterwards; master states and runtime snapshots never are.

    Does not touch the worker's memory; call post_send_memory_update with
    the returned context afterwards, mirroring the send-then-update order
    of the protocol.
    """
    sub, noise = _draw(cfg, model, rng)
    return _update_from_draws(cfg, worker, snapshot, model, sub, noise)


def _draw(cfg, model, rng):
    """A worker's random draws for one update: its subsample, then its
    noise (None at infinite inverse temperature)."""
    sub = draw_subsample(rng, model.n_records, cfg.n_s, cfg.n_o)
    noise = rng.standard_normal(model.dim) if cfg.noise_scale() > 0.0 else None
    return sub, noise


def _update_from_draws(cfg, worker, snapshot, model, sub, noise):
    theta, u = snapshot.theta, snapshot.u
    g, overlap_grad = combined_gradient(model, theta, sub, with_overlap=True)
    if not np.isfinite(g).all():
        raise DivergenceError(
            f"non-finite gradient at iteration {snapshot.iteration}",
            iteration=snapshot.iteration,
        )
    h = worker.memory.apply(np.array([g, u]))
    d_u = -cfg.step * h[0] - cfg.friction * u
    if noise is not None:
        d_u += cfg.noise_scale() * noise
    d_theta = h[1]
    ctx = UpdateContext(
        snapshot_theta=theta,
        subsample=sub,
        overlap_gradient=overlap_grad,
        snapshot_iteration=snapshot.iteration,
    )
    return UpdateVector(d_theta=d_theta, d_u=d_u), ctx


def post_send_memory_update(worker: WorkerState, ctx: UpdateContext, model) -> bool:
    """Advance the worker's local bookkeeping and try to admit a pair.

    The gradient difference re-evaluates the PREVIOUS overlap set at the
    current local iterate, so both gradients in a pair use the same index
    set.  Returns whether a pair was admitted.
    """
    g_prime = None
    if _wants_pair(worker):
        g_prime = stochastic_gradient(model, ctx.snapshot_theta, worker.prev_overlap)
    return _admit(worker, ctx, g_prime)


def _wants_pair(worker: WorkerState) -> bool:
    return worker.local_iter >= 1 and worker.cfg.use_memory


def _admit(worker, ctx, g_prime) -> bool:
    """The bookkeeping of post_send_memory_update, given the gradient on
    the previous overlap set at the snapshot (None when no pair is due)."""
    admitted = False
    if g_prime is not None:
        s = ctx.snapshot_theta - worker.prev_theta
        y = g_prime - worker.prev_overlap_grad
        admitted = worker.memory.try_add(s, y)
    worker.prev_theta = ctx.snapshot_theta
    worker.prev_overlap = ctx.subsample.o_indices
    worker.prev_overlap_grad = ctx.overlap_gradient
    worker.local_iter += 1
    return admitted


def compute_updates(cfg, workers, snapshots, model, rngs) -> list[UpdateVector]:
    """AS-L-BFGS updates of k distinct workers, each at its own snapshot,
    each followed by its post-send memory update.

    Bit-identical to compute_update then post_send_memory_update worker by
    worker, which a batch of one calls.  A larger batch makes each draw
    from each worker's generator in that order (subsample, then noise),
    then one stacked evaluation of the S, O and previous-O gradients, one
    stacked two-loop, and the admissions worker by worker.  If that raises
    or meets a non-finite gradient, the batch is redone one worker at a
    time from the same draws, so the error of the first worker in order
    is the one raised, as one by one would raise it.
    """
    if len(workers) == 1:
        upd, ctx = compute_update(cfg, workers[0], snapshots[0], model, rngs[0])
        post_send_memory_update(workers[0], ctx, model)
        return [upd]
    draws = [_draw(cfg, model, rng) for rng in rngs]
    try:
        stacked = _stacked_updates(cfg, workers, snapshots, model, draws)
    except Exception:  # whatever it was, the replay below raises it in worker order
        stacked = None
    if stacked is None:
        updates = []
        for worker, snapshot, (sub, noise) in zip(workers, snapshots, draws):
            upd, ctx = _update_from_draws(cfg, worker, snapshot, model, sub, noise)
            post_send_memory_update(worker, ctx, model)
            updates.append(upd)
        return updates
    updates, ctxs, g_primes = stacked
    for worker, ctx, g_prime in zip(workers, ctxs, g_primes):
        _admit(worker, ctx, g_prime)
    return updates


def _stacked_updates(cfg, workers, snapshots, model, draws):
    """The numerics of compute_updates for k >= 2 workers, leaving every
    worker untouched; None on a non-finite gradient."""
    # np.array stacks equal-shape arrays like np.stack, at less call cost
    theta = np.array([snap.theta for snap in snapshots])
    subs = Subsample(s_indices=np.array([sub.s_indices for sub, _ in draws]),
                     o_indices=np.array([sub.o_indices for sub, _ in draws]))
    # the previous O of each worker with a pair due joins the same pass; a
    # row with none due is evaluated on its own O and discarded
    due = [_wants_pair(worker) for worker in workers]
    previous = None
    if any(due):
        previous = np.array([worker.prev_overlap if wants else sub.o_indices
                             for worker, wants, (sub, _) in zip(workers, due, draws)])
    g, overlap_grad, *previous_grad = combined_gradient(model, theta, subs, with_overlap=True,
                                                        previous=previous)
    if not np.isfinite(g).all():
        return None
    gu = np.empty((len(workers), 2, model.dim))
    gu[:, 0] = g
    gu[:, 1] = u = np.array([snap.u for snap in snapshots])
    h = apply_stacked([worker.memory for worker in workers], gu)
    d_u = -cfg.step * h[:, 0] - cfg.friction * u
    if draws[0][1] is not None:
        d_u += cfg.noise_scale() * np.array([noise for _, noise in draws])
    d_theta = h[:, 1]
    g_primes = [previous_grad[0][i] if wants else None for i, wants in enumerate(due)]
    updates = [UpdateVector(d_theta=d_theta[i], d_u=d_u[i]) for i in range(len(workers))]
    ctxs = [UpdateContext(snapshot_theta=snap.theta, subsample=sub,
                          overlap_gradient=overlap_grad[i], snapshot_iteration=snap.iteration)
            for i, (snap, (sub, _)) in enumerate(zip(snapshots, draws))]
    return updates, ctxs, g_primes


def master_apply(state: ParameterState, upd: UpdateVector) -> ParameterState:
    """Componentwise accumulation; returns a new state with n+1 and fresh
    arrays, leaving ``state`` untouched."""
    theta = state.theta + upd.d_theta
    u = state.u + upd.d_u
    if not (np.isfinite(theta).all() and np.isfinite(u).all()):
        raise DivergenceError(
            f"non-finite iterate after update {state.iteration + 1}",
            iteration=state.iteration + 1,
        )
    return ParameterState(theta=theta, u=u, iteration=state.iteration + 1)


def reparameterize(h: float, gamma: float) -> tuple[float, float]:
    """Map underlying (step, friction) to the discretized (h', gamma') =
    (h^2, h*gamma).  Requires h*gamma < 1 so the friction stays in (0,1)."""
    if h <= 0 or gamma <= 0:
        raise ValueError(f"h and gamma must be positive, got ({h}, {gamma})")
    if h * gamma >= 1.0:
        raise ValueError(f"h*gamma must be < 1 for stability, got {h * gamma}")
    return h * h, h * gamma


def sgld_step(theta, h, beta, model, indices, rng) -> np.ndarray:
    """One stochastic gradient Langevin step; beta = inf gives plain SGD."""
    if h <= 0 or beta <= 0:
        raise ValueError(f"h and beta must be positive, got ({h}, {beta})")
    g = stochastic_gradient(model, theta, indices)
    new = theta - h * g
    if not math.isinf(beta):
        new = new + math.sqrt(2.0 * h / beta) * rng.standard_normal(len(theta))
    if not np.isfinite(new).all():
        raise DivergenceError("non-finite iterate in SGLD step")
    return new


def asgd_step(theta, h, model, indices) -> UpdateVector:
    """Asynchronous SGD baseline: momentum-free, noise-free update vector."""
    if h <= 0:
        raise ValueError(f"h must be positive, got {h}")
    g = stochastic_gradient(model, theta, indices)
    if not np.isfinite(g).all():
        raise DivergenceError("non-finite gradient in a-SGD step")
    return UpdateVector(d_theta=-h * g, d_u=np.zeros_like(theta))


def asgd_updates(cfg, snapshots, model, rngs) -> list[UpdateVector]:
    """a-SGD updates of k workers, each at its own snapshot and drawing its
    subsample from its own generator.

    Bit-identical to draw_subsample then asgd_step worker by worker, which
    a batch of one calls; a larger batch evaluates its gradients in one
    stacked call, and redoes the steps one by one from the same draws if
    that raises or meets a non-finite gradient, so the first worker's
    error in order is raised.
    """
    subs = [draw_subsample(rng, model.n_records, cfg.n_s, cfg.n_o) for rng in rngs]
    if len(subs) > 1:
        theta = np.array([snap.theta for snap in snapshots])
        indices = np.array([sub.combined for sub in subs])
        try:
            g = stochastic_gradient(model, theta, indices)
        except Exception:  # raised again, in worker order, by the steps below
            g = None
        if g is not None and np.isfinite(g).all():
            d_theta, d_u = -cfg.step * g, np.zeros_like(theta)
            return [UpdateVector(d_theta=d_theta[i], d_u=d_u[i]) for i in range(len(subs))]
    return [asgd_step(snap.theta, cfg.step, model, sub.combined)
            for snap, sub in zip(snapshots, subs)]


class MbLbfgsMaster:
    """Simplified synchronous multi-batch L-BFGS master (mb-lbfgs-simplified).

    Keeps a central memory; per round it averages the workers' combined
    gradients, steps theta, and admits a pair built from consecutive
    rounds' overlap gradients evaluated on the same index set.
    """

    def __init__(self, dim, step, memory_size=3, epsilon=1e-8, rho=0.0, use_memory=True):
        if step <= 0:
            raise ConfigError(f"step must be positive, got {step}")
        self.step = float(step)
        self.use_memory = use_memory
        self.memory = LbfgsMemory(dim, memory_size, epsilon=epsilon, rho=rho)
        self.prev_theta = None
        self.prev_overlap = None
        self.prev_overlap_grad = None

    def round(self, theta, gradients, overlap_indices, model):
        """One synchronous round.

        ``gradients`` are the combined gradients received in time, all
        evaluated at ``theta``, as a list or a ``(k, d)`` array;
        ``overlap_indices`` is the concatenation of the contributing
        workers' overlap sets.  Returns the new iterate; with no gradients
        the round is skipped and theta is returned unchanged.
        """
        if len(gradients) == 0:
            return theta
        g_bar = np.mean(gradients, axis=0)
        if self.use_memory and self.prev_theta is not None:
            g_prime = stochastic_gradient(model, theta, self.prev_overlap)
            self.memory.try_add(theta - self.prev_theta, g_prime - self.prev_overlap_grad)
        if self.use_memory:
            self.prev_theta = theta.copy()
            self.prev_overlap = np.asarray(overlap_indices, dtype=np.intp)
            self.prev_overlap_grad = stochastic_gradient(model, theta, self.prev_overlap)
        new = theta - self.step * self.memory.apply(g_bar)
        if not np.isfinite(new).all():
            raise DivergenceError("non-finite iterate in mb-L-BFGS round")
        return new
