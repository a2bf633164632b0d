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
from .lbfgs import LbfgsMemory, apply_stacked, try_add_stacked
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
        if not self.step > 0:
            raise ConfigError(f"step must be positive, got {self.step}")
        if not 0.0 < self.friction < 1.0:
            raise ConfigError(f"friction must lie in (0, 1), got {self.friction}")
        if not self.inv_temperature > 0:
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
    def start(dim: int, theta0=None) -> "ParameterState":
        """A run's start state: ``theta0`` copied, or zeros when None, and u = 0."""
        theta = np.zeros(dim) if theta0 is None else np.asarray(theta0, dtype=float).copy()
        return ParameterState(theta=theta, u=np.zeros(dim))

    def copy(self) -> "ParameterState":
        return ParameterState(self.theta.copy(), self.u.copy(), self.iteration)


@dataclass
class UpdateVector:
    """Additive update a worker ships to the master."""

    d_theta: np.ndarray
    d_u: np.ndarray


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
    """One worker iteration: draw a subsample, then noise where the worker
    draws any, form the combined gradient at the (possibly stale) snapshot,
    and build (d_theta, d_u).

    The overlap gradient the next curvature pair needs comes out of the
    same call, reusing its O-part likelihood sum rather than evaluating
    it again.  The context aliases ``snapshot.theta``, which must not be
    mutated afterwards; master states and runtime snapshots never are.

    Does not touch the worker's memory; call post_send_memory_update with
    the returned context afterwards, mirroring the send-then-update order
    of the protocol.  It runs the numerics of :func:`lbfgs_updates` on one
    worker, leaving the previous-overlap gradient to post_send_memory_update.
    """
    sub = draw_subsample(rng, model.n_records, cfg.n_s, cfg.n_o)
    noise = rng.standard_normal(model.dim) if worker_draws_noise("as-lbfgs", cfg) else None
    upd, ctx, _ = _one_update(cfg, worker, snapshot, model, sub, noise, pair=False)
    return upd, ctx


def worker_draws_noise(algo, cfg) -> bool:
    """Whether a worker of ``algo`` draws a standard normal vector of the
    model's dimension after each subsample: AS-L-BFGS when its noise scale
    is positive, SGLD at finite inverse temperature, a-SGD never."""
    if algo == "as-lbfgs":
        return cfg.noise_scale() > 0.0
    return algo == "sgld" and not math.isinf(cfg.inv_temperature)


def post_send_memory_update(worker: WorkerState, ctx: UpdateContext, model) -> bool:
    """Advance the worker's local bookkeeping and try to admit a pair.

    The gradient difference re-evaluates the PREVIOUS overlap set at the
    current local iterate, so both gradients in a pair use the same index
    set; this function evaluates that gradient itself, in its own call,
    so it works on any context.  :func:`lbfgs_updates` joins it to the
    update's own gradient pass instead.  Returns whether a pair was
    admitted.
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
    _advance(worker, ctx)
    return admitted


def _advance(worker, ctx):
    """Make the update's snapshot, overlap set and overlap gradient the
    worker's previous ones."""
    worker.prev_theta = ctx.snapshot_theta
    worker.prev_overlap = ctx.subsample.o_indices
    worker.prev_overlap_grad = ctx.overlap_gradient
    worker.local_iter += 1


def lbfgs_updates(cfg, workers, snapshots, model, draws):
    """AS-L-BFGS updates of k >= 1 distinct workers, each at its own
    snapshot from its ``(subsample, noise or None)`` in ``draws``, each
    followed by its post-send memory update; yields them in worker order.

    Bit-identical to compute_update then post_send_memory_update worker by
    worker on the same draws.  On k >= 2 workers that all have a pair due,
    or none has, :func:`_update_numerics` runs once on stacks, and s, y,
    s.s, y.s and y.y of the pairs are formed once for the batch
    (:func:`~asqn.lbfgs.try_add_stacked`), so each worker keeps only its
    cautious test and the insert of its pair.  Any other batch, and a
    stacked batch that raises, is computed one worker at a time from the
    same draws, each update followed by its admission and yielded, so the
    first worker's error in order is raised after the workers before it
    have yielded.
    """
    if len(workers) > 1 and len({_wants_pair(worker) for worker in workers}) == 1:
        try:
            updates, contexts, pairs = _stacked_updates(cfg, workers, snapshots, model, draws)
        except Exception:  # whatever it was, the replay below raises it in worker order
            pass
        else:
            if pairs is not None:
                try_add_stacked([worker.memory for worker in workers], *pairs)
            for worker, ctx in zip(workers, contexts):
                _advance(worker, ctx)
            yield from updates
            return
    for worker, snapshot, draw in zip(workers, snapshots, draws):
        upd, ctx, g_prime = _one_update(cfg, worker, snapshot, model, *draw)
        _admit(worker, ctx, g_prime)
        yield upd


def _update_numerics(cfg, model, theta, u, sub, previous, noise, apply, iteration):
    """The only implementation of the AS-L-BFGS update numerics.

    Takes one worker's ``(d,)`` theta, u, noise and ``(n,)`` indices, or
    stacks of k workers' with a leading axis; ``apply`` runs the two-loop
    in place on the ``(2, d)`` (g, u) block, or the ``(k, 2, d)`` stack of
    them, into which the combined gradient is written directly.  Returns
    d_theta, d_u and the gradients on O and on ``previous`` (None without
    it), shaped like theta, or raises DivergenceError at ``iteration``
    when a gradient is not finite.  A stack passes None: :func:`lbfgs_updates`
    recomputes a stack that raises one worker at a time, which raises the
    error of the first worker in order.  Each stacked row is
    bit-identical to the one-worker call.  One worker is not stacked: on
    linear-Gaussian d = 100, stacks of one made the whole update about
    10 us (12%) slower on a 2-core host.
    """
    gu = np.empty((*theta.shape[:-1], 2, theta.shape[-1]))
    g, overlap_grad, *previous_grad = combined_gradient(model, theta, sub, with_overlap=True,
                                                        previous=previous, out=gu[..., 0, :])
    if not np.isfinite(g).all():
        raise DivergenceError(f"non-finite gradient at iteration {iteration}",
                              iteration=iteration)
    gu[..., 1, :] = u
    h = apply(gu)
    # -step * H g - friction * u, in the block's first row
    d_u = np.multiply(h[..., 0, :], -cfg.step, out=h[..., 0, :])
    d_u -= cfg.friction * u
    if noise is not None:
        d_u += cfg.noise_scale() * noise
    return h[..., 1, :], d_u, overlap_grad, previous_grad[0] if previous_grad else None


def _one_update(cfg, worker, snapshot, model, sub, noise, pair=True):
    """One worker's (update, context, previous-overlap gradient, None
    unless a pair is due and ``pair``); leaves the worker untouched."""
    previous = worker.prev_overlap if pair and _wants_pair(worker) else None
    memory = worker.memory
    d_theta, d_u, overlap_grad, g_prime = _update_numerics(
        cfg, model, snapshot.theta, snapshot.u, sub, previous, noise,
        lambda gu: memory.apply(gu, out=gu), snapshot.iteration)
    ctx = UpdateContext(snapshot_theta=snapshot.theta, subsample=sub,
                        overlap_gradient=overlap_grad)
    return UpdateVector(d_theta=d_theta, d_u=d_u), ctx, g_prime


def _stacked_updates(cfg, workers, snapshots, model, draws):
    """The numerics of _one_update for k >= 2 workers that all have a pair
    due or none has, on stacks made with np.array, leaving the workers
    untouched.  Returns the updates, the contexts, and the ``(k, d)``
    stacks ``(s, y)`` of the workers' pairs, or None when none is due."""
    subs = Subsample(s_indices=np.array([sub.s_indices for sub, _ in draws]),
                     o_indices=np.array([sub.o_indices for sub, _ in draws]))
    due = _wants_pair(workers[0])
    previous = np.array([worker.prev_overlap for worker in workers]) if due else None
    memories = [worker.memory for worker in workers]
    theta = np.array([snap.theta for snap in snapshots])
    d_theta, d_u, overlap_grad, g_prime = _update_numerics(
        cfg, model, theta, np.array([snap.u for snap in snapshots]), subs, previous,
        None if draws[0][1] is None else np.array([noise for _, noise in draws]),
        lambda gu: apply_stacked(memories, gu, out=gu), None)
    updates = [UpdateVector(d_theta=d_theta[i], d_u=d_u[i]) for i in range(len(workers))]
    contexts = [UpdateContext(snapshot_theta=snap.theta, subsample=sub,
                              overlap_gradient=overlap_grad[i])
                for i, (snap, (sub, _)) in enumerate(zip(snapshots, draws))]
    if not due:
        return updates, contexts, None
    s = np.array([worker.prev_theta for worker in workers])
    y = np.array([worker.prev_overlap_grad for worker in workers])
    np.subtract(theta, s, out=s)
    np.subtract(g_prime, y, out=y)
    return updates, contexts, (s, y)


def master_apply(state: ParameterState, upd: UpdateVector, out=None) -> ParameterState:
    """Componentwise accumulation; returns the state with n+1 whose theta
    and u are the two rows of ``out``, a ``(2, d)`` array, or of a fresh
    one when it is None, leaving ``state`` untouched unless ``out`` holds
    it (the runtime's shared block, added into in place).  Both rows are
    checked in one finiteness pass, after the add; a non-finite one raises
    :class:`DivergenceError` at iteration n+1.  The one master-side rule:
    every simulated apply and every apply of run mode's shared state runs
    it, so a replay of a run applies its updates alike."""
    new = np.empty((2, state.theta.shape[-1])) if out is None else out
    np.add(state.theta, upd.d_theta, out=new[0])
    np.add(state.u, upd.d_u, out=new[1])
    if not np.isfinite(new).all():
        raise DivergenceError(
            f"non-finite iterate after update {state.iteration + 1}",
            iteration=state.iteration + 1,
        )
    return ParameterState(theta=new[0], u=new[1], iteration=state.iteration + 1)


def sgld_step(theta, h, beta, model, indices, rng) -> np.ndarray:
    """One stochastic gradient Langevin step; beta = inf gives plain SGD."""
    if not (h > 0 and beta > 0):
        raise ConfigError(f"h and beta must be positive, got ({h}, {beta})")
    g = stochastic_gradient(model, theta, indices)
    new = theta - h * g
    if not math.isinf(beta):
        new = new + math.sqrt(2.0 * h / beta) * rng.standard_normal(len(theta))
    if not np.isfinite(new).all():
        raise DivergenceError("non-finite iterate in SGLD step")
    return new


def asgd_step(theta, h, model, indices) -> UpdateVector:
    """Asynchronous SGD baseline: momentum-free, noise-free update vector."""
    if not h > 0:
        raise ConfigError(f"h must be positive, got {h}")
    return _asgd_update(h, stochastic_gradient(model, theta, indices), theta)


def _asgd_update(h, g, theta) -> UpdateVector:
    """The a-SGD update of gradient ``g`` at ``theta``, or DivergenceError
    if ``g`` is not finite."""
    if not np.isfinite(g).all():
        # SGLD takes its steps from here too, so the message names neither
        raise DivergenceError("non-finite gradient in a stochastic gradient step")
    return UpdateVector(d_theta=-h * g, d_u=np.zeros_like(theta))


def _drawn_gradient(model, theta, indices):
    """:func:`~asqn.model.stochastic_gradient`'s expression, and so its bits,
    without its checks of ``theta`` and ``indices``, which a worker's own
    draws at its own snapshot always pass."""
    scale = model.n_records / indices.shape[-1]
    return model.prior_gradient(theta) + scale * model.likelihood_grad_sum(theta, indices)


def sgd_updates(cfg, workers, snapshots, model, draws):
    """a-SGD and SGLD updates of k workers, each at its own snapshot from
    its ``(subsample, noise or None)`` in ``draws``, yielded in worker
    order: the a-SGD update plus sqrt(2 h / beta) times the noise where the
    draw holds one, as worker_draws_noise decides.  Neither keeps worker
    state, so ``workers`` goes unused.

    Without noise, bit-identical to asgd_step worker by worker.  With it,
    applied by master_apply, this is sgld_step as an additive update,
    theta + (-h g + xi) in place of (theta - h g) + xi, which can differ in
    the last bit.  A batch of k >= 2 evaluates its gradients in one stacked
    call, and redoes the steps one by one if that raises or meets a
    non-finite gradient, so the first worker's error in order is raised
    after the workers before it have yielded.
    """
    g = None
    if len(draws) > 1:
        theta = np.array([snap.theta for snap in snapshots])
        try:
            g = _drawn_gradient(model, theta, np.array([sub.combined for sub, _ in draws]))
        except Exception:  # raised again, in worker order, by the steps below
            pass
    stacked = g is not None and np.isfinite(g).all()
    if stacked:
        d_theta, d_u = -cfg.step * g, np.zeros_like(theta)
    for i, (snap, (sub, noise)) in enumerate(zip(snapshots, draws)):
        if stacked:
            upd = UpdateVector(d_theta=d_theta[i], d_u=d_u[i])
        else:
            upd = _asgd_update(cfg.step, _drawn_gradient(model, snap.theta, sub.combined),
                               snap.theta)
        if noise is not None:
            upd.d_theta += math.sqrt(2.0 * cfg.step / cfg.inv_temperature) * noise
        yield upd


# The updates of k >= 1 distinct workers of each asynchronous algorithm,
# each at its own snapshot, all called as
# (cfg, workers, snapshots, model, draws) -> updates, where draws[i] is
# worker i's (subsample, noise or None) for this update, drawn from its own
# generator as worker_draws_noise says.  Each entry is a generator that
# yields the updates in worker order, so a batch that raises has given the
# updates of the workers before the first that failed.  Both the
# simulator's event loop and the runtime's worker processes compute
# through this table.
WORKER_UPDATES = {"as-lbfgs": lbfgs_updates, "a-sgd": sgd_updates, "sgld": sgd_updates}


class MbLbfgsMaster:
    """Simplified synchronous multi-batch L-BFGS master (mb-lbfgs-simplified).

    Keeps a central memory; per round it averages the workers' combined
    gradients, steps theta, and admits a pair built from consecutive
    rounds' overlap gradients evaluated on the same index set.
    """

    def __init__(self, dim, step, memory_size=3, epsilon=1e-8, rho=0.0, use_memory=True):
        if not step > 0:
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
        gradients = np.asarray(gradients)
        g_bar = gradients.sum(axis=0) / len(gradients)  # np.mean's bits
        if self.use_memory:
            # the previous and the new overlap gradient at theta, in one pass
            overlap = np.asarray(overlap_indices, dtype=np.intp)
            prior = model.prior_gradient(theta)
            *lik_prev, lik = model.likelihood_grad_sums(
                theta, [overlap] if self.prev_theta is None else [self.prev_overlap, overlap])
            if lik_prev:
                g_prime = prior + (model.n_records / len(self.prev_overlap)) * lik_prev[0]
                self.memory.try_add(theta - self.prev_theta, g_prime - self.prev_overlap_grad)
            self.prev_theta = theta.copy()
            self.prev_overlap = overlap
            self.prev_overlap_grad = prior + (model.n_records / len(overlap)) * lik
        new = theta - self.step * self.memory.apply(g_bar)
        if not np.isfinite(new).all():
            raise DivergenceError("non-finite iterate in mb-L-BFGS round")
        return new
