"""Tests for the worker/master update mathematics and the baselines."""

import math

import numpy as np
import pytest

from asqn import (
    ConfigError,
    DivergenceError,
    LinearGaussianModel,
    MatrixFactorizationModel,
    MbLbfgsMaster,
    ParameterState,
    SamplerConfig,
    Subsample,
    UpdateVector,
    WorkerState,
    asgd_step,
    combined_gradient,
    compute_update,
    draw_subsample,
    full_gradient,
    master_apply,
    post_send_memory_update,
    sgld_step,
    stochastic_gradient,
)
from asqn import sampler
from asqn.experiments import synth_linear_gaussian, synth_matrix_factorization
from asqn.sampler import WORKER_UPDATES, UpdateContext, worker_draws_noise


def zero_gradient_model(dim=1):
    """A = 0, Y = 0 so likelihood gradient vanishes; at theta = 0 the prior
    gradient vanishes too and the whole potential gradient is zero."""
    return LinearGaussianModel(np.zeros((2, dim)), np.zeros(2), 1.0)


def quadratic_lg(seed=0, n=8, d=3):
    rng = np.random.default_rng(seed)
    return LinearGaussianModel(rng.standard_normal((n, d)),
                               rng.standard_normal(n), 1.0)


class TestSamplerConfig:
    def test_bad_step(self):
        with pytest.raises(ConfigError):
            SamplerConfig(step=0.0, friction=0.5)

    def test_bad_friction(self):
        with pytest.raises(ConfigError):
            SamplerConfig(step=0.1, friction=1.0)

    @pytest.mark.parametrize("field", ["step", "inv_temperature"])
    def test_nan_rejected(self, field):
        with pytest.raises(ConfigError):
            SamplerConfig(**{"step": 0.1, "friction": 0.5, field: math.nan})

    @pytest.mark.parametrize("field", ["epsilon", "rho"])
    def test_nan_memory_setting_rejected_by_the_worker_memory(self, field):
        cfg = SamplerConfig(step=0.1, friction=0.5, **{field: math.nan})
        with pytest.raises(ConfigError, match=field):
            WorkerState(cfg, 3)

    @pytest.mark.parametrize("field", ["n_s", "n_o", "memory_size"])
    def test_sizes_below_one_rejected(self, field):
        with pytest.raises(ConfigError):
            SamplerConfig(step=0.1, friction=0.5, **{field: 0})

    def test_noise_scale_infinite_beta(self):
        assert SamplerConfig(step=0.1, friction=0.5).noise_scale() == 0.0

    def test_noise_scale_value(self):
        cfg = SamplerConfig(step=4e-4, friction=3e-2, inv_temperature=5e2)
        assert cfg.noise_scale() == pytest.approx(
            math.sqrt(2 * 4e-4 * 3e-2 / 5e2)
        )


class TestComputeUpdate:
    def test_stationary_point_gives_zero_update(self):
        cfg = SamplerConfig(step=0.1, friction=0.5, n_s=2, n_o=1)
        model = zero_gradient_model(2)
        worker = WorkerState(cfg, 2)
        snap = ParameterState.start(2)
        upd, _ = compute_update(cfg, worker, snap, model, np.random.default_rng(0))
        np.testing.assert_array_equal(upd.d_theta, 0.0)
        np.testing.assert_array_equal(upd.d_u, 0.0)

    def test_empty_memory_momentum_sgd_increments(self):
        cfg = SamplerConfig(step=0.01, friction=0.1, n_s=3, n_o=2)
        model = quadratic_lg()
        worker = WorkerState(cfg, model.dim)
        rng = np.random.default_rng(1)
        theta = np.ones(model.dim)
        u = np.full(model.dim, 0.5)
        snap = ParameterState(theta=theta, u=u.copy(), iteration=0)
        upd, ctx = compute_update(cfg, worker, snap, model, rng)
        # replay the subsample draw to know which gradient was used
        g = combined_gradient(
            model, theta, draw_subsample(np.random.default_rng(1), model.n_records, 3, 2)
        )
        np.testing.assert_allclose(upd.d_u, -cfg.step * g - cfg.friction * u, atol=1e-14)
        np.testing.assert_allclose(upd.d_theta, u, atol=1e-14)

    def test_does_not_mutate_memory(self):
        cfg = SamplerConfig(step=0.01, friction=0.1, n_s=2, n_o=1)
        model = quadratic_lg()
        worker = WorkerState(cfg, model.dim)
        snap = ParameterState.start(model.dim)
        compute_update(cfg, worker, snap, model, np.random.default_rng(0))
        assert len(worker.memory) == 0

    def test_noise_variance_monte_carlo(self):
        # zero gradient, zero momentum: d_u is pure noise with per-component
        # variance 2 h' gamma' / beta.
        for step, friction, beta in [(4e-4, 3e-2, 5e2), (1e-2, 0.2, 10.0)]:
            cfg = SamplerConfig(step=step, friction=friction, inv_temperature=beta,
                                n_s=2, n_o=1)
            dim = 1000
            model = zero_gradient_model(dim)
            worker = WorkerState(cfg, dim)
            snap = ParameterState.start(dim)
            rng = np.random.default_rng(42)
            draws = np.concatenate(
                [compute_update(cfg, worker, snap, model, rng)[0].d_u
                 for _ in range(100)]
            )
            target = 2 * step * friction / beta
            assert abs(draws.var() / target - 1.0) < 0.03

    def test_halving_beta_doubles_variance(self):
        dim = 1000
        model = zero_gradient_model(dim)
        snap = ParameterState.start(dim)
        variances = []
        for beta in (20.0, 10.0):
            cfg = SamplerConfig(step=1e-2, friction=0.2, inv_temperature=beta,
                                n_s=2, n_o=1)
            worker = WorkerState(cfg, dim)
            rng = np.random.default_rng(7)
            draws = np.concatenate(
                [compute_update(cfg, worker, snap, model, rng)[0].d_u
                 for _ in range(100)]
            )
            variances.append(draws.var())
        assert abs(variances[1] / variances[0] - 2.0) < 0.1

    @pytest.mark.parametrize("make_model", [
        quadratic_lg,
        lambda: MatrixFactorizationModel([0, 1, 1, 2, 0], [1, 0, 2, 2, 1],
                                         [1.0, -0.5, 2.0, 0.3, 1.5], 3, 3, 2),
    ])
    def test_overlap_gradient_bit_identical_to_stochastic_gradient(self, make_model):
        model = make_model()
        cfg = SamplerConfig(step=0.01, friction=0.1, inv_temperature=10.0, n_s=4, n_o=3)
        worker = WorkerState(cfg, model.dim)
        rng = np.random.default_rng(8)
        state = ParameterState(rng.standard_normal(model.dim), np.zeros(model.dim))
        for _ in range(6):
            upd, ctx = compute_update(cfg, worker, state, model, rng)
            assert np.array_equal(
                ctx.overlap_gradient,
                stochastic_gradient(model, state.theta, ctx.subsample.o_indices),
            )
            state = master_apply(state, upd)
            post_send_memory_update(worker, ctx, model)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_gradient_raises(self):
        cfg = SamplerConfig(step=0.1, friction=0.5, n_s=2, n_o=1)
        model = quadratic_lg()
        worker = WorkerState(cfg, model.dim)
        snap = ParameterState(theta=np.full(model.dim, np.inf),
                              u=np.zeros(model.dim), iteration=3)
        with pytest.raises(DivergenceError) as exc:
            compute_update(cfg, worker, snap, model, np.random.default_rng(0))
        assert exc.value.iteration == 3


class TestPostSendMemoryUpdate:
    def test_first_call_forms_no_pair(self):
        cfg = SamplerConfig(step=0.01, friction=0.1, n_s=2, n_o=1)
        model = quadratic_lg()
        worker = WorkerState(cfg, model.dim)
        snap = ParameterState.start(model.dim)
        _, ctx = compute_update(cfg, worker, snap, model, np.random.default_rng(0))
        assert post_send_memory_update(worker, ctx, model) is False
        assert worker.local_iter == 1
        assert len(worker.memory) == 0

    def test_identical_snapshots_rejected(self):
        cfg = SamplerConfig(step=0.01, friction=0.1, n_s=2, n_o=1)
        model = quadratic_lg()
        worker = WorkerState(cfg, model.dim)
        snap = ParameterState.start(model.dim)
        rng = np.random.default_rng(0)
        for _ in range(2):
            _, ctx = compute_update(cfg, worker, snap, model, rng)
            admitted = post_send_memory_update(worker, ctx, model)
        assert admitted is False  # s = 0 pair
        assert len(worker.memory) == 0

    def test_full_batch_overlap_gives_exact_gradient_difference(self):
        model = quadratic_lg()
        n = model.n_records
        cfg = SamplerConfig(step=0.01, friction=0.1, n_s=n, n_o=n)
        worker = WorkerState(cfg, model.dim)
        rng = np.random.default_rng(3)
        thetas = [rng.standard_normal(model.dim) for _ in range(2)]
        # force the overlap set to be the full dataset by monkeypatching the
        # subsample draw through a deterministic rng is brittle; instead drive
        # the bookkeeping directly with full-batch contexts.
        from asqn.sampler import UpdateContext

        for theta in thetas:
            full = np.arange(n)
            ctx = UpdateContext(
                snapshot_theta=theta.copy(),
                subsample=Subsample(full, full),
                overlap_gradient=stochastic_gradient(model, theta, full),
            )
            post_send_memory_update(worker, ctx, model)
        assert len(worker.memory) == 1
        s, y, _ = worker.memory.pairs[0]
        np.testing.assert_allclose(s, thetas[1] - thetas[0], atol=1e-12)
        np.testing.assert_allclose(
            y, full_gradient(model, thetas[1]) - full_gradient(model, thetas[0]),
            atol=1e-12,
        )

    def test_consistent_index_sets_across_pair(self):
        # the admitted y must difference two gradients on the SAME index set
        model = quadratic_lg()
        cfg = SamplerConfig(step=0.01, friction=0.1, n_s=3, n_o=2)
        worker = WorkerState(cfg, model.dim)
        rng = np.random.default_rng(4)
        prev_ctx = None
        for i in range(2):
            snap = ParameterState(theta=np.full(model.dim, float(i)),
                                  u=np.zeros(model.dim), iteration=i)
            _, ctx = compute_update(cfg, worker, snap, model, rng)
            if prev_ctx is not None:
                expected_y = (
                    stochastic_gradient(model, ctx.snapshot_theta,
                                        prev_ctx.subsample.o_indices)
                    - prev_ctx.overlap_gradient
                )
            post_send_memory_update(worker, ctx, model)
            prev_ctx = ctx
        assert len(worker.memory) == 1
        _, y, _ = worker.memory.pairs[0]
        np.testing.assert_allclose(y, expected_y, atol=1e-12)


class TestMasterApply:
    def test_zero_update_increments_n_only(self):
        state = ParameterState(np.array([1.0]), np.array([2.0]), 5)
        new = master_apply(state, UpdateVector(np.zeros(1), np.zeros(1)))
        assert new.iteration == 6
        np.testing.assert_array_equal(new.theta, state.theta)
        np.testing.assert_array_equal(new.u, state.u)

    def test_componentwise_addition(self):
        state = ParameterState(np.array([1.0, 1.0]), np.array([0.0, 0.0]), 0)
        new = master_apply(
            state, UpdateVector(np.array([1.0, -1.0]), np.array([2.0, 2.0]))
        )
        np.testing.assert_array_equal(new.theta, [2.0, 0.0])
        np.testing.assert_array_equal(new.u, [2.0, 2.0])

    def test_sequence_equals_summed_update(self):
        rng = np.random.default_rng(5)
        updates = [
            UpdateVector(rng.standard_normal(3), rng.standard_normal(3))
            for _ in range(10)
        ]
        state = ParameterState.start(3)
        for upd in updates:
            state = master_apply(state, upd)
        np.testing.assert_allclose(
            state.theta, sum(u.d_theta for u in updates), atol=1e-12
        )
        np.testing.assert_allclose(state.u, sum(u.d_u for u in updates), atol=1e-12)
        assert state.iteration == 10

    def test_input_state_left_unchanged(self):
        # the simulator hands post-apply states to workers without copying
        state = ParameterState(np.array([1.0, 2.0]), np.array([3.0, 4.0]), 7)
        theta, u = state.theta, state.u
        new = master_apply(state, UpdateVector(np.array([0.5, 0.5]), np.array([1.0, 1.0])))
        assert state.theta is theta and state.u is u and state.iteration == 7
        np.testing.assert_array_equal(theta, [1.0, 2.0])
        np.testing.assert_array_equal(u, [3.0, 4.0])
        assert not np.shares_memory(new.theta, theta)
        assert not np.shares_memory(new.u, u)

    def test_nonfinite_result_raises(self):
        state = ParameterState.start(1)
        with pytest.raises(DivergenceError):
            master_apply(state, UpdateVector(np.array([np.nan]), np.zeros(1)))


class TestSgld:
    def test_infinite_beta_is_plain_sgd(self):
        model = quadratic_lg()
        theta = np.ones(model.dim)
        idx = np.arange(model.n_records)
        new = sgld_step(theta, 0.01, math.inf, model, idx, np.random.default_rng(0))
        np.testing.assert_allclose(
            new, theta - 0.01 * full_gradient(model, theta), atol=1e-12
        )

    def test_noise_variance(self):
        model = zero_gradient_model(1000)
        rng = np.random.default_rng(8)
        h, beta = 0.01, 5.0
        draws = np.concatenate(
            [sgld_step(np.zeros(1000), h, beta, model, [0], rng) for _ in range(100)]
        )
        assert abs(draws.var() / (2 * h / beta) - 1.0) < 0.03

    def test_stationary_variance_1d_quadratic(self):
        # U = theta^2 / 2 via A = [0], Y = [0] (prior only); the discrete
        # chain theta' = (1 - h) theta + sqrt(2h/beta) Z has stationary
        # variance (2h/beta) / (1 - (1-h)^2) = 1 / (beta (1 - h/2)).
        model = LinearGaussianModel(np.zeros((1, 1)), np.zeros(1), 1.0)
        rng = np.random.default_rng(9)
        h, beta = 0.05, 2.0
        theta = np.zeros(1)
        samples = []
        for i in range(100000):
            theta = sgld_step(theta, h, beta, model, [0], rng)
            if i >= 5000:
                samples.append(theta[0])
        target = 1.0 / (beta * (1 - h / 2))
        assert abs(np.var(samples) / target - 1.0) < 0.10


    @pytest.mark.parametrize("h, beta", [(0.0, 1.0), (-0.1, 1.0), (0.1, 0.0), (0.1, -2.0),
                                         (math.nan, 1.0), (0.1, math.nan)])
    def test_nonpositive_h_or_beta_is_a_config_error(self, h, beta):
        model = quadratic_lg()
        with pytest.raises(ConfigError, match="h and beta must be positive"):
            sgld_step(np.ones(model.dim), h, beta, model, [0], np.random.default_rng(0))


class TestAsgd:
    @pytest.mark.parametrize("h", [0.0, -0.1, math.nan])
    def test_nonpositive_h_is_a_config_error(self, h):
        model = quadratic_lg()
        with pytest.raises(ConfigError, match="h must be positive"):
            asgd_step(np.ones(model.dim), h, model, [0])

    def test_full_batch_is_gradient_descent(self):
        model = quadratic_lg()
        theta = np.ones(model.dim)
        upd = asgd_step(theta, 0.05, model, np.arange(model.n_records))
        np.testing.assert_allclose(
            upd.d_theta, -0.05 * full_gradient(model, theta), atol=1e-12
        )
        np.testing.assert_array_equal(upd.d_u, 0.0)

    def test_quadratic_contraction(self):
        # 1-d instance: U = theta^2/2 + (theta - 2)^2/2, L = 2, theta* = 1
        model = LinearGaussianModel(np.array([[1.0]]), np.array([2.0]), 1.0)
        h = 0.3  # < 2/L, contraction factor |1 - h L| = 0.4
        theta = np.array([5.0])
        for _ in range(5):
            new = theta + asgd_step(theta, h, model, [0]).d_theta
            assert abs(new[0] - 1.0) < abs(theta[0] - 1.0)
            theta = new

    def test_zero_gradient_zero_update(self):
        model = zero_gradient_model(2)
        upd = asgd_step(np.zeros(2), 0.1, model, [0])
        np.testing.assert_array_equal(upd.d_theta, 0.0)


class TestMbLbfgs:
    @pytest.mark.parametrize("step", [0.0, math.nan])
    def test_bad_step(self, step):
        with pytest.raises(ConfigError, match="step must be positive"):
            MbLbfgsMaster(3, step=step)

    def test_single_worker_full_batch_is_gd_step(self):
        model = quadratic_lg()
        master = MbLbfgsMaster(model.dim, step=0.05, use_memory=False)
        theta = np.ones(model.dim)
        g = stochastic_gradient(model, theta, np.arange(model.n_records))
        new = master.round(theta, [g], np.arange(model.n_records), model)
        np.testing.assert_allclose(new, theta - 0.05 * g, atol=1e-12)

    def test_identical_gradients_equal_single_worker(self):
        model = quadratic_lg()
        theta = np.ones(model.dim)
        g = full_gradient(model, theta)
        m1 = MbLbfgsMaster(model.dim, step=0.05, use_memory=False)
        m4 = MbLbfgsMaster(model.dim, step=0.05, use_memory=False)
        idx = np.arange(model.n_records)
        np.testing.assert_allclose(
            m1.round(theta.copy(), [g], idx, model),
            m4.round(theta.copy(), [g] * 4, np.tile(idx, 4), model),
            atol=1e-12,
        )

    def test_empty_round_skipped(self):
        model = quadratic_lg()
        master = MbLbfgsMaster(model.dim, step=0.05)
        theta = np.ones(model.dim)
        np.testing.assert_array_equal(master.round(theta, [], [], model), theta)

    def test_converges_on_1d_quadratic(self):
        # U = theta^2/2 + (theta-2)^2/2, optimum theta* = 1; step scaled to
        # the instance's curvature (L = 2).
        model = LinearGaussianModel(np.array([[1.0]]), np.array([2.0]), 1.0)
        master = MbLbfgsMaster(1, step=0.1)
        theta = np.array([5.0])
        idx = np.array([0])
        for _ in range(200):
            g = stochastic_gradient(model, theta, idx)
            theta = master.round(theta, [g], idx, model)
        assert abs(theta[0] - 1.0) < 1e-6


class ReferenceMbLbfgsMaster(MbLbfgsMaster):
    """The former round: np.mean of the gradients, and the previous and the
    new overlap gradient from two stochastic_gradient calls."""

    def round(self, theta, gradients, overlap_indices, model):
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


class TestMbLbfgsRound:
    @pytest.mark.parametrize("use_memory", [True, False])
    @pytest.mark.parametrize("make_model", [
        lambda: synth_linear_gaussian(0, 12, 60, 10.0, correlation=3.0)[0],
        lambda: synth_matrix_factorization(1, 12, 15, 3),
    ], ids=["lg", "mf"])
    def test_rounds_equal_the_former_round(self, make_model, use_memory):
        # one overlap gradient pass and sum / k, against two stochastic
        # gradient calls and np.mean, with 1 to 4 workers per round
        model = make_model()
        rng = np.random.default_rng(4)
        got = MbLbfgsMaster(model.dim, step=2e-3, epsilon=0.1, use_memory=use_memory)
        want = ReferenceMbLbfgsMaster(model.dim, step=2e-3, epsilon=0.1,
                                      use_memory=use_memory)
        theta = 0.1 * rng.standard_normal(model.dim)
        for n in range(60):
            k = 1 + n % 4
            sub = Subsample(rng.integers(0, model.n_records, (k, 6)),
                            rng.integers(0, model.n_records, (k, 3)))
            grads = combined_gradient(model, theta, sub)
            overlap = sub.o_indices.ravel()
            new = got.round(theta, grads, overlap, model)
            assert same_bits(new, want.round(theta, list(grads), overlap.tolist(), model))
            theta = new
        assert len(got.memory) == len(want.memory) and got.memory.gamma() == want.memory.gamma()
        for (s1, y1, r1), (s2, y2, r2) in zip(got.memory.pairs, want.memory.pairs):
            assert same_bits(s1, s2) and same_bits(y1, y2) and r1 == r2
        assert len(got.memory) == (3 if use_memory else 0)


class TestDegenerateLimit:
    def test_matches_reference_momentum_sgd(self):
        """beta = inf, W = 1 (zero staleness), memory disabled, rho = 0: the
        trajectory must equal classical momentum SGD with a shared
        subsample stream, componentwise to 1e-12 over 100 steps."""
        model = quadratic_lg(seed=11)
        cfg = SamplerConfig(step=1e-3, friction=0.1, n_s=3, n_o=2,
                            use_memory=False)
        worker = WorkerState(cfg, model.dim)
        state = ParameterState.start(model.dim)
        rng = np.random.default_rng(12)
        trajectory = []
        for _ in range(100):
            upd, ctx = compute_update(cfg, worker, state, model, rng)
            state = master_apply(state, upd)
            post_send_memory_update(worker, ctx, model)
            trajectory.append(state.theta.copy())

        # reference: u' = (1 - gamma') u - h' grad, theta' = theta + u (old u)
        rng = np.random.default_rng(12)
        theta = np.zeros(model.dim)
        u = np.zeros(model.dim)
        for n in range(100):
            sub = draw_subsample(rng, model.n_records, 3, 2)
            g = combined_gradient(model, theta, sub)
            theta = theta + u
            u = (1 - cfg.friction) * u - cfg.step * g
            np.testing.assert_allclose(trajectory[n], theta, atol=1e-12)


class CountingModel(LinearGaussianModel):
    """Counts likelihood-gradient calls; raises on any row of theta that
    holds the marker value."""

    MARKER = 7.25

    def __init__(self, *args):
        super().__init__(*args)
        self.calls = 0

    def likelihood_grad_sum(self, theta, indices=None):
        self.calls += 1
        if np.any(theta == self.MARKER):
            raise RuntimeError("marked parameter")
        return super().likelihood_grad_sum(theta, indices)


def counting_lg(seed=0, n=40, d=6):
    rng = np.random.default_rng(seed)
    return CountingModel(rng.standard_normal((n, d)), rng.standard_normal(n), 1.0)


def small_mf():
    return MatrixFactorizationModel([0, 1, 1, 2, 0, 3, 3], [1, 0, 2, 2, 1, 0, 3],
                                    [1.0, -0.5, 2.0, 0.3, 1.5, -1.0, 0.7], 4, 4, 2)


def same_worker(a, b):
    same = (a.local_iter == b.local_iter and len(a.memory) == len(b.memory)
            and a.memory.gamma() == b.memory.gamma())
    for (s1, y1, r1), (s2, y2, r2) in zip(a.memory.pairs, b.memory.pairs):
        same = same and np.array_equal(s1, s2) and np.array_equal(y1, y2) and r1 == r2
    for name in ("prev_theta", "prev_overlap", "prev_overlap_grad"):
        x, y = getattr(a, name), getattr(b, name)
        same = same and (x is None) == (y is None) and (x is None or np.array_equal(x, y))
    return same


def updates_from_rngs(algo, cfg, workers, snapshots, model, rngs):
    """``WORKER_UPDATES[algo]`` on each worker's ``(indices, noise or
    None)`` for one update, drawn from its own generator in ``rngs``: the
    index row of a subsample, then the noise where a worker of ``algo``
    draws any."""
    noisy = worker_draws_noise(algo, cfg)
    draws = [(draw_subsample(rng, model.n_records, cfg.n_s, cfg.n_o).combined,
              rng.standard_normal(model.dim) if noisy else None) for rng in rngs]
    return list(WORKER_UPDATES[algo](cfg, workers, snapshots, model, draws))


class TestBatchedUpdates:
    """The AS-L-BFGS and a-SGD entries of WORKER_UPDATES over k workers at
    k snapshots equal the one-worker functions called worker by worker,
    bit for bit."""

    @pytest.mark.parametrize("make_model", [counting_lg, small_mf], ids=["lg", "mf"])
    @pytest.mark.parametrize("beta", [math.inf, 50.0])
    def test_lbfgs_updates_equal_worker_by_worker(self, make_model, beta):
        model = make_model()
        cfg = SamplerConfig(step=0.02, friction=0.1, inv_temperature=beta, n_s=5, n_o=3,
                            epsilon=0.1, rho=0.5)
        k = 5
        batched = [WorkerState(cfg, model.dim) for _ in range(k)]
        serial = [WorkerState(cfg, model.dim) for _ in range(k)]
        rngs_b = [np.random.default_rng(w) for w in range(k)]
        rngs_s = [np.random.default_rng(w) for w in range(k)]
        rng = np.random.default_rng(9)
        for step in range(12):
            # a changing subset in a changing order, each at its own snapshot
            who = list(rng.permutation(k)[: 1 + step % k])
            snaps = [ParameterState(rng.standard_normal(model.dim),
                                    rng.standard_normal(model.dim), step) for _ in who]
            snaps[0].u[0] = -0.0
            got = updates_from_rngs("as-lbfgs", cfg, [batched[w] for w in who], snaps, model,
                                    [rngs_b[w] for w in who])
            for w, snap, upd in zip(who, snaps, got):
                want, ctx = compute_update(cfg, serial[w], snap, model, rngs_s[w])
                post_send_memory_update(serial[w], ctx, model)
                assert np.array_equal(upd.d_theta, want.d_theta)
                assert np.array_equal(upd.d_u, want.d_u)
                assert np.array_equal(np.signbit(upd.d_theta), np.signbit(want.d_theta))
        for a, b, ra, rb in zip(batched, serial, rngs_b, rngs_s):
            assert same_worker(a, b)
            assert ra.bit_generator.state == rb.bit_generator.state
        assert sum(len(w.memory) for w in batched) > k  # pairs were admitted

    @pytest.mark.parametrize("make_model", [
        counting_lg, small_mf, lambda: synth_matrix_factorization(0, 100, 120, 3),
    ], ids=["lg", "mf", "mf-above-stacked-max-dim"])
    @pytest.mark.parametrize("use_memory", [True, False])
    def test_batches_mixing_due_and_fresh_workers(self, make_model, use_memory):
        # the even workers run alone first, so the first full batch holds
        # workers with a pair due and workers with none due yet
        model = make_model()
        cfg = SamplerConfig(step=1e-3, friction=0.1, inv_temperature=1e3, n_s=5, n_o=3,
                            epsilon=0.1, rho=0.5, use_memory=use_memory)
        k = 6
        batched = [WorkerState(cfg, model.dim) for _ in range(k)]
        serial = [WorkerState(cfg, model.dim) for _ in range(k)]
        rngs_b = [np.random.default_rng(w) for w in range(k)]
        rngs_s = [np.random.default_rng(w) for w in range(k)]
        rng = np.random.default_rng(5)
        mixed = 0
        for step, who in enumerate([[0], [2], [4], list(range(k)), [5, 1, 3, 0], [1, 4]]):
            snaps = [ParameterState(0.1 * rng.standard_normal(model.dim),
                                    rng.standard_normal(model.dim), step) for _ in who]
            due = [batched[w].local_iter >= 1 for w in who]
            mixed += len(who) > 1 and 0 < sum(due) < len(who)
            got = updates_from_rngs("as-lbfgs", cfg, [batched[w] for w in who], snaps, model,
                                    [rngs_b[w] for w in who])
            for w, snap, upd in zip(who, snaps, got):
                want, ctx = compute_update(cfg, serial[w], snap, model, rngs_s[w])
                post_send_memory_update(serial[w], ctx, model)
                assert np.array_equal(upd.d_theta, want.d_theta)
                assert np.array_equal(upd.d_u, want.d_u)
                assert np.array_equal(np.signbit(upd.d_u), np.signbit(want.d_u))
        assert mixed == 1
        for a, b, ra, rb in zip(batched, serial, rngs_b, rngs_s):
            assert same_worker(a, b)
            assert ra.bit_generator.state == rb.bit_generator.state
        admitted = sum(len(w.memory) for w in batched)
        assert admitted > 0 if use_memory else admitted == 0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("memory_size", [1, 2])
    def test_stacked_admissions_equal_try_add_worker_by_worker(self, memory_size):
        # batches mixing fresh workers, admitted pairs and every rejection:
        # s = 0 (a worker's snapshot repeats), non-finite y.s (a huge
        # snapshot after a normal one) and y.s < eps |s|^2 (eps above 1 on
        # linear-Gaussian); small memories evict many times
        model = synth_linear_gaussian(0, 12, 60, 10.0, correlation=3.0)[0]
        cfg = SamplerConfig(step=1e-3, friction=0.1, n_s=6, n_o=3, epsilon=1.2,
                            memory_size=memory_size)
        k = 5
        batched = [WorkerState(cfg, model.dim) for _ in range(k)]
        serial = [WorkerState(cfg, model.dim) for _ in range(k)]
        rngs_b = [np.random.default_rng(w) for w in range(k)]
        rngs_s = [np.random.default_rng(w) for w in range(k)]
        rng = np.random.default_rng(3)
        last = [None] * k
        reasons = {"fresh": 0, "admitted": 0, "s = 0": 0, "non-finite y.s": 0,
                   "y.s < eps |s|^2": 0}
        for step in range(60):
            # worker 4 joins at step 20, so later batches mix in a fresh worker
            who = list(rng.permutation(k if step >= 20 else k - 1)[: 2 + step % 3])
            snaps = []
            for w in who:
                kind = rng.integers(0, 4)
                if kind == 0 and last[w] is not None:
                    theta = last[w]
                elif kind == 1 and last[w] is not None and np.abs(last[w]).max() < 1e100:
                    theta = np.full(model.dim, 1e160)
                else:
                    theta = 0.1 * rng.standard_normal(model.dim)
                last[w] = theta
                snaps.append(ParameterState(theta, rng.standard_normal(model.dim), step))
            got = updates_from_rngs("as-lbfgs", cfg, [batched[w] for w in who], snaps, model,
                                    [rngs_b[w] for w in who])
            for w, snap, upd in zip(who, snaps, got):
                want, ctx = compute_update(cfg, serial[w], snap, model, rngs_s[w])
                worker = serial[w]
                if worker.local_iter == 0:
                    reasons["fresh"] += 1
                else:
                    s = ctx.snapshot_theta - worker.prev_theta
                    y = (stochastic_gradient(model, ctx.snapshot_theta, worker.prev_overlap)
                         - worker.prev_overlap_grad)
                    ss, ys = float(s @ s), float(y @ s)
                    reasons["s = 0" if ss == 0.0 else "non-finite y.s"
                            if not math.isfinite(ys) else "y.s < eps |s|^2"
                            if ys < cfg.epsilon * ss else "admitted"] += 1
                post_send_memory_update(worker, ctx, model)
                assert same_bits(upd.d_theta, want.d_theta) and same_bits(upd.d_u, want.d_u)
            for w in who:
                assert same_worker(batched[w], serial[w])
        assert min(reasons.values()) >= 3, reasons

    def test_batch_evaluates_its_gradients_in_three_calls(self):
        model = counting_lg()
        cfg = SamplerConfig(step=0.02, friction=0.1, n_s=5, n_o=3)
        workers = [WorkerState(cfg, model.dim) for _ in range(4)]
        rngs = [np.random.default_rng(w) for w in range(4)]
        snaps = [ParameterState.start(model.dim) for _ in range(4)]
        updates_from_rngs("as-lbfgs", cfg, workers, snaps, model, rngs)
        assert model.calls == 2  # S and O; no pair is due yet
        model.calls = 0
        updates_from_rngs("as-lbfgs", cfg, workers, snaps, model, rngs)
        assert model.calls == 3  # and the previous O of every worker

    def test_only_batches_with_all_or_no_pairs_due_are_stacked(self, monkeypatch):
        # a batch mixing workers with a pair due and workers with none due
        # runs one worker at a time; a batch of either kind runs as a stack
        stacked_sizes = []
        stacked_updates = sampler._stacked_updates

        def counting(cfg, workers, *args):
            stacked_sizes.append(len(workers))
            return stacked_updates(cfg, workers, *args)

        monkeypatch.setattr(sampler, "_stacked_updates", counting)
        model = counting_lg()
        cfg = SamplerConfig(step=0.02, friction=0.1, n_s=5, n_o=3)
        workers = [WorkerState(cfg, model.dim) for _ in range(4)]
        rngs = [np.random.default_rng(w) for w in range(4)]
        snaps = [ParameterState.start(model.dim) for _ in range(4)]
        for who, sizes in [([0, 1], [2]), ([0, 1, 2, 3], [2]), ([3, 0, 2, 1], [2, 4])]:
            updates_from_rngs("as-lbfgs", cfg, [workers[w] for w in who],
                              [snaps[w] for w in who], model, [rngs[w] for w in who])
            assert stacked_sizes == sizes
        assert all(worker.local_iter for worker in workers)

    @pytest.mark.parametrize("make_model", [counting_lg, small_mf], ids=["lg", "mf"])
    def test_asgd_updates_equal_asgd_steps(self, make_model):
        model = make_model()
        cfg = SamplerConfig(step=0.02, friction=0.1, n_s=5, n_o=3)
        rngs_b = [np.random.default_rng(w) for w in range(4)]
        rngs_s = [np.random.default_rng(w) for w in range(4)]
        rng = np.random.default_rng(3)
        for k in (1, 4, 2):
            snaps = [ParameterState(rng.standard_normal(model.dim), np.zeros(model.dim))
                     for _ in range(k)]
            got = updates_from_rngs("a-sgd", cfg, None, snaps, model, rngs_b[:k])
            for snap, upd, r in zip(snaps, got, rngs_s[:k]):
                sub = draw_subsample(r, model.n_records, cfg.n_s, cfg.n_o)
                want = asgd_step(snap.theta, cfg.step, model, sub.combined)
                assert np.array_equal(upd.d_theta, want.d_theta)
                assert np.array_equal(upd.d_u, want.d_u)
        assert all(a.bit_generator.state == b.bit_generator.state
                   for a, b in zip(rngs_b, rngs_s))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("order, error", [
        ([0, 1, 2], DivergenceError), ([0, 2, 1], RuntimeError), ([2, 1, 0], RuntimeError),
    ])
    def test_batch_raises_the_first_error_in_order(self, order, error):
        # worker 1's gradient is non-finite, worker 2's raises; the batch
        # raises whichever comes first, after the workers before it ran
        model = counting_lg()
        cfg = SamplerConfig(step=0.02, friction=0.1, n_s=5, n_o=3)
        thetas = [np.zeros(model.dim), np.full(model.dim, np.inf),
                  np.full(model.dim, CountingModel.MARKER)]
        workers = [WorkerState(cfg, model.dim) for _ in range(3)]
        snaps = [ParameterState(thetas[w], np.zeros(model.dim), 10 + w) for w in order]
        with pytest.raises(error) as info:
            updates_from_rngs("as-lbfgs", cfg, [workers[w] for w in order], snaps, model,
                              [np.random.default_rng(w) for w in order])
        if error is DivergenceError:
            assert info.value.iteration == 11
        first = order.index(1 if error is DivergenceError else 2)
        assert [workers[w].local_iter for w in order[:first]] == [1] * first
        with pytest.raises(error):
            updates_from_rngs("a-sgd", cfg, None, snaps, model,
                              [np.random.default_rng(w) for w in order])


class TestSgldUpdates:
    """The SGLD entry of WORKER_UPDATES: a-SGD updates plus each worker's
    own noise."""

    @pytest.mark.parametrize("make_model", [counting_lg, small_mf], ids=["lg", "mf"])
    @pytest.mark.parametrize("beta", [math.inf, 50.0])
    def test_batch_equals_one_worker_at_a_time_and_sgld_step(self, make_model, beta):
        model = make_model()
        cfg = SamplerConfig(step=0.02, friction=0.1, inv_temperature=beta, n_s=5, n_o=3)
        k = 4
        rngs_b, rngs_s, rngs_r = ([np.random.default_rng(w) for w in range(k)]
                                  for _ in range(3))
        rng = np.random.default_rng(3)
        for who in ([0, 1, 2, 3], [2], [3, 0], [1, 3, 2]):
            snaps = [ParameterState(rng.standard_normal(model.dim), np.zeros(model.dim))
                     for _ in who]
            got = updates_from_rngs("sgld", cfg, None, snaps, model, [rngs_b[w] for w in who])
            for w, snap, upd in zip(who, snaps, got):
                (one,) = updates_from_rngs("sgld", cfg, None, [snap], model, [rngs_s[w]])
                assert np.array_equal(upd.d_theta, one.d_theta)
                assert np.array_equal(upd.d_u, one.d_u) and not upd.d_u.any()
                sub = draw_subsample(rngs_r[w], model.n_records, cfg.n_s, cfg.n_o)
                want = sgld_step(snap.theta, cfg.step, beta, model, sub.combined, rngs_r[w])
                np.testing.assert_allclose(snap.theta + upd.d_theta, want,
                                           rtol=1e-12, atol=1e-12)
        for a, b, r in zip(rngs_b, rngs_s, rngs_r):
            assert a.bit_generator.state == b.bit_generator.state == r.bit_generator.state

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("k", [1, 3])
    def test_nonfinite_gradient_raises_without_naming_a_sgd(self, k):
        model = counting_lg()
        cfg = SamplerConfig(step=0.02, friction=0.1, inv_temperature=50.0, n_s=5, n_o=3)
        snaps = [ParameterState(np.full(model.dim, np.inf), np.zeros(model.dim), 4)
                 for _ in range(k)]
        with pytest.raises(DivergenceError) as info:
            updates_from_rngs("sgld", cfg, None, snaps, model,
                              [np.random.default_rng(w) for w in range(k)])
        assert "non-finite gradient" in str(info.value)
        assert "a-SGD" not in str(info.value)


def reference_update(cfg, worker, snapshot, model, rng):
    """The former single-worker compute_update: one-dimensional gradients
    at the snapshot and one two-row block apply on (g, u)."""
    sub = draw_subsample(rng, model.n_records, cfg.n_s, cfg.n_o)
    noise = rng.standard_normal(model.dim) if cfg.noise_scale() > 0.0 else None
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
    return UpdateVector(d_theta=h[1], d_u=d_u), UpdateContext(
        snapshot_theta=theta, subsample=sub, overlap_gradient=overlap_grad)


def reference_post_send(worker, ctx, model):
    """The former post-send memory update: the previous overlap set's
    gradient at the snapshot in its own call.  Returns whether a pair was
    admitted, and whether one was due."""
    due = worker.local_iter >= 1 and worker.cfg.use_memory
    admitted = False
    if due:
        g_prime = stochastic_gradient(model, ctx.snapshot_theta, worker.prev_overlap)
        admitted = worker.memory.try_add(ctx.snapshot_theta - worker.prev_theta,
                                         g_prime - worker.prev_overlap_grad)
    worker.prev_theta = ctx.snapshot_theta
    worker.prev_overlap = ctx.subsample.o_indices
    worker.prev_overlap_grad = ctx.overlap_gradient
    worker.local_iter += 1
    return admitted, due


def same_bits(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


class TestSingleWorkerReference:
    """compute_update, and the AS-L-BFGS entry of WORKER_UPDATES on one
    worker, against the former single-worker numerics, bit for bit along a
    whole run."""

    CASES = {
        # LG with noise on, MF at beta = inf; on LG y.s >= |s|^2 always (the
        # prior), so only a threshold above 1 rejects pairs
        "lg-noise": (lambda: synth_linear_gaussian(0, 12, 60, 10.0, correlation=3.0)[0],
                     dict(step=4e-3, friction=0.1, inv_temperature=50.0, n_s=6, n_o=3,
                          epsilon=1.2, rho=0.5)),
        "mf-no-noise": (lambda: synth_matrix_factorization(1, 12, 15, 3),
                        dict(step=2e-3, friction=0.1, n_s=8, n_o=4, epsilon=0.1, rho=1.0)),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_runs_match_the_reference(self, case):
        make_model, params = self.CASES[case]
        model = make_model()
        cfg = SamplerConfig(memory_size=3, **params)
        theta0 = 0.1 * np.random.default_rng(3).standard_normal(model.dim)
        start = ParameterState(theta0, np.zeros(model.dim))
        workers = [WorkerState(cfg, model.dim) for _ in range(3)]
        rngs = [np.random.default_rng(17) for _ in range(3)]
        states = [start] * 3
        admitted = rejected = 0
        for _ in range(60):
            want, ctx = reference_update(cfg, workers[0], states[0], model, rngs[0])
            states[0] = master_apply(states[0], want)
            ok, due = reference_post_send(workers[0], ctx, model)
            admitted += ok
            rejected += due and not ok
            one, ctx = compute_update(cfg, workers[1], states[1], model, rngs[1])
            states[1] = master_apply(states[1], one)
            post_send_memory_update(workers[1], ctx, model)
            (batch,) = updates_from_rngs("as-lbfgs", cfg, [workers[2]], [states[2]], model,
                                         [rngs[2]])
            states[2] = master_apply(states[2], batch)
            for got in (one, batch):
                assert same_bits(got.d_theta, want.d_theta)
                assert same_bits(got.d_u, want.d_u)
        for state in states[1:]:
            assert same_bits(state.theta, states[0].theta) and same_bits(state.u, states[0].u)
        for worker, rng in zip(workers[1:], rngs[1:]):
            assert same_worker(worker, workers[0])
            assert rng.bit_generator.state == rngs[0].bit_generator.state
        assert admitted > 3 and rejected > 3

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("case", list(CASES))
    def test_nonfinite_snapshot_raises_as_the_reference(self, case):
        make_model, params = self.CASES[case]
        model = make_model()
        cfg = SamplerConfig(memory_size=3, **params)
        bad = ParameterState(np.full(model.dim, np.nan), np.zeros(model.dim), iteration=41)
        errors = []
        for call in (
            lambda worker, rng: reference_update(cfg, worker, bad, model, rng),
            lambda worker, rng: compute_update(cfg, worker, bad, model, rng),
            lambda worker, rng: updates_from_rngs("as-lbfgs", cfg, [worker], [bad], model, [rng]),
        ):
            worker, rng = WorkerState(cfg, model.dim), np.random.default_rng(5)
            state = ParameterState(np.ones(model.dim), np.zeros(model.dim))
            for _ in range(2):  # a pair is due at the failing update
                (upd,) = updates_from_rngs("as-lbfgs", cfg, [worker], [state], model, [rng])
                state = master_apply(state, upd)
            with pytest.raises(DivergenceError) as info:
                call(worker, rng)
            assert worker.local_iter == 2
            errors.append((str(info.value), info.value.iteration))
        assert errors == [("non-finite gradient at iteration 41", 41)] * 3
