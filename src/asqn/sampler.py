"""Update-vector mathematics for the asynchronous quasi-Newton sampler.

This module holds the per-worker computation (quasi-Newton momentum update
with tempered Gaussian noise), the master-side accumulation, and the three
baselines: SGLD, asynchronous SGD, and a simplified synchronous
multi-batch L-BFGS.

Every function is either pure or mutates only the worker-owned state it is
handed; serializing master applies is the caller's job.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DivergenceError, check_count
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
            check_count(name, getattr(self, name))

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
    of the protocol.  It runs the numerics of compute_updates on one
    worker, leaving the previous-overlap gradient to post_send_memory_update.
    """
    sub, noise = _draw(cfg, model, rng)
    upd, ctx, _ = _one_update(cfg, worker, snapshot, model, sub, noise, pair=False)
    return upd, ctx


def _draw(cfg, model, rng):
    """A worker's random draws for one update: its subsample, then its
    noise (None at infinite inverse temperature)."""
    sub = draw_subsample(rng, model.n_records, cfg.n_s, cfg.n_o)
    noise = rng.standard_normal(model.dim) if cfg.noise_scale() > 0.0 else None
    return sub, noise


def post_send_memory_update(worker: WorkerState, ctx: UpdateContext, model) -> bool:
    """Advance the worker's local bookkeeping and try to admit a pair.

    The gradient difference re-evaluates the PREVIOUS overlap set at the
    current local iterate, so both gradients in a pair use the same index
    set; this function evaluates that gradient itself, in its own call,
    so it works on any context.  compute_updates joins it to the update's
    own gradient pass instead.  Returns whether a pair was admitted.
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
    """AS-L-BFGS updates of k >= 1 distinct workers, each at its own
    snapshot, each followed by its post-send memory update.

    Bit-identical to compute_update then post_send_memory_update worker by
    worker: each worker draws from its own generator (subsample, then
    noise), :func:`_update_numerics` runs once on the batch, and the
    admissions follow worker by worker.  A stacked batch that raises is
    redone one worker at a time from the same draws, so the first worker's
    error in order is raised.
    """
    draws = [_draw(cfg, model, rng) for rng in rngs]
    if len(workers) == 1:  # nothing to stack
        rows = [_one_update(cfg, workers[0], snapshots[0], model, *draws[0])]
    else:
        try:
            rows = _stacked_updates(cfg, workers, snapshots, model, draws)
        except Exception:  # whatever it was, the replay below raises it in worker order
            rows = (_one_update(cfg, worker, snapshot, model, *draw)
                    for worker, snapshot, draw in zip(workers, snapshots, draws))
    updates = []
    for worker, (upd, ctx, g_prime) in zip(workers, rows):
        _admit(worker, ctx, g_prime)
        updates.append(upd)
    return updates


def _update_numerics(cfg, model, theta, u, sub, previous, noise, apply, iterations):
    """The only implementation of the AS-L-BFGS update numerics.

    Takes one worker's ``(d,)`` theta, u, noise and ``(n,)`` indices, or
    stacks of k workers' with a leading axis; ``apply`` runs the two-loop
    on the (g, u) block.  Returns d_theta, d_u and the gradients on O and
    on ``previous`` (None without it), shaped like theta, or raises
    DivergenceError at the first of ``iterations`` with a non-finite
    gradient.  Each stacked row is bit-identical to the one-worker call.
    One worker is not stacked: on linear-Gaussian d = 100, stacks of one
    made the whole update about 10 us (12%) slower on a 2-core host.
    """
    g, overlap_grad, *previous_grad = combined_gradient(model, theta, sub, with_overlap=True,
                                                        previous=previous)
    if not np.isfinite(g).all():
        finite_rows = np.isfinite(g.reshape(len(iterations), -1)).all(axis=1)
        iteration = iterations[int(finite_rows.argmin())]
        raise DivergenceError(f"non-finite gradient at iteration {iteration}",
                              iteration=iteration)
    h = apply(np.array([g, u]).swapaxes(0, -2))
    d_u = -cfg.step * h[..., 0, :] - cfg.friction * u
    if noise is not None:
        d_u += cfg.noise_scale() * noise
    return h[..., 1, :], d_u, overlap_grad, previous_grad[0] if previous_grad else None


def _one_update(cfg, worker, snapshot, model, sub, noise, pair=True):
    """One worker's (update, context, previous-overlap gradient, None
    unless a pair is due and ``pair``); leaves the worker untouched."""
    previous = worker.prev_overlap if pair and _wants_pair(worker) else None
    d_theta, d_u, overlap_grad, g_prime = _update_numerics(
        cfg, model, snapshot.theta, snapshot.u, sub, previous, noise, worker.memory.apply,
        [snapshot.iteration])
    ctx = UpdateContext(snapshot_theta=snapshot.theta, subsample=sub,
                        overlap_gradient=overlap_grad)
    return UpdateVector(d_theta=d_theta, d_u=d_u), ctx, g_prime


def _stacked_updates(cfg, workers, snapshots, model, draws):
    """_one_update for k >= 2 workers, on stacks made with np.array."""
    subs = Subsample(s_indices=np.array([sub.s_indices for sub, _ in draws]),
                     o_indices=np.array([sub.o_indices for sub, _ in draws]))
    # the previous O of each worker with a pair due joins the same pass; a
    # row with none due is evaluated on its own O and discarded
    due = [_wants_pair(worker) for worker in workers]
    previous = None
    if any(due):
        previous = np.array([worker.prev_overlap if wants else sub.o_indices
                             for worker, wants, (sub, _) in zip(workers, due, draws)])
    memories = [worker.memory for worker in workers]
    d_theta, d_u, overlap_grad, g_prime = _update_numerics(
        cfg, model, np.array([snap.theta for snap in snapshots]),
        np.array([snap.u for snap in snapshots]), subs, previous,
        None if draws[0][1] is None else np.array([noise for _, noise in draws]),
        lambda gu: apply_stacked(memories, gu), [snap.iteration for snap in snapshots])
    return [(UpdateVector(d_theta=d_theta[i], d_u=d_u[i]),
             UpdateContext(snapshot_theta=snap.theta, subsample=sub,
                           overlap_gradient=overlap_grad[i]),
             g_prime[i] if wants else None)
            for i, (snap, (sub, _), wants) in enumerate(zip(snapshots, draws, due))]


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
        # SGLD takes its steps from here too, so the message names neither
        raise DivergenceError("non-finite gradient in a stochastic gradient step")
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


def sgld_updates(cfg, snapshots, model, rngs) -> list[UpdateVector]:
    """SGLD updates of k workers: the a-SGD update of each at its own
    snapshot plus sqrt(2 h / beta) times a standard normal vector that the
    worker draws from its own generator after its subsample (none at
    beta = inf).

    Applied by master_apply, this is sgld_step as an additive update,
    theta + (-h g + xi) in place of (theta - h g) + xi, which can differ in
    the last bit at finite beta and gives the same bits at beta = inf.
    """
    updates = asgd_updates(cfg, snapshots, model, rngs)
    if not math.isinf(cfg.inv_temperature):
        scale = math.sqrt(2.0 * cfg.step / cfg.inv_temperature)
        for upd, rng in zip(updates, rngs):
            upd.d_theta += scale * rng.standard_normal(model.dim)
    return updates


# The updates of k >= 1 distinct workers of each asynchronous algorithm,
# each at its own snapshot and drawing from its own generator, all called as
# (cfg, workers, snapshots, model, rngs) -> updates.  Both the simulator's
# event loop and the runtime's worker processes compute through this table;
# a-SGD and SGLD keep no worker state.
WORKER_UPDATES = {
    "as-lbfgs": compute_updates,
    "a-sgd": lambda cfg, workers, snapshots, model, rngs: asgd_updates(
        cfg, snapshots, model, rngs),
    "sgld": lambda cfg, workers, snapshots, model, rngs: sgld_updates(
        cfg, snapshots, model, rngs),
}


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
