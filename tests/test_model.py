"""Tests for the potential/gradient layer of both benchmark models."""

import itertools
import math

import numpy as np
import pytest
from scipy import stats

from asqn import (
    ConfigError,
    LinearGaussianModel,
    MatrixFactorizationModel,
    combined_gradient,
    draw_subsample,
    full_gradient,
    potential,
    rmse,
    stochastic_gradient,
)
from asqn import model as model_module
from asqn.experiments import synth_matrix_factorization


def tiny_lg():
    """d=1, A=[1], Y=[2], sigma^2=1: U(theta) = theta^2/2 + (2-theta)^2/2."""
    return LinearGaussianModel(np.array([[1.0]]), np.array([2.0]), 1.0)


def random_lg(seed=0, n=6, d=4):
    rng = np.random.default_rng(seed)
    return LinearGaussianModel(
        rng.standard_normal((n, d)), rng.standard_normal(n), 2.5
    )


def random_mf(seed=0):
    rng = np.random.default_rng(seed)
    n_rows, n_cols, rank, nnz = 4, 5, 2, 12
    return MatrixFactorizationModel(
        rows=rng.integers(0, n_rows, nnz),
        cols=rng.integers(0, n_cols, nnz),
        values=rng.standard_normal(nnz),
        n_rows=n_rows,
        n_cols=n_cols,
        rank=rank,
    )


def finite_difference_gradient(model, theta, h=1e-6):
    g = np.empty_like(theta)
    for j in range(len(theta)):
        e = np.zeros_like(theta)
        e[j] = h
        g[j] = (potential(model, theta + e) - potential(model, theta - e)) / (2 * h)
    return g


class TestPotential:
    def test_linear_gaussian_at_zero(self):
        assert potential(tiny_lg(), np.array([0.0])) == pytest.approx(2.0)

    def test_linear_gaussian_at_one(self):
        assert potential(tiny_lg(), np.array([1.0])) == pytest.approx(1.0)

    def test_closed_form_optimum_of_tiny_instance(self):
        assert tiny_lg().map_estimate() == pytest.approx([1.0])

    def test_mf_single_entry(self):
        model = MatrixFactorizationModel([0], [0], [1.0], 1, 1, 1)
        theta = model.pack(np.array([[1.0]]), np.array([[1.0]]))
        # U = prior(F) + prior(G) + 0 residual = 0.5 + 0.5
        assert potential(model, theta) == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigError):
            potential(tiny_lg(), np.array([0.0, 0.0]))


class TestFullGradient:
    def test_tiny_instance_value(self):
        assert full_gradient(tiny_lg(), np.array([0.0])) == pytest.approx([-2.0])

    def test_mf_single_entry_prior_only(self):
        model = MatrixFactorizationModel([0], [0], [1.0], 1, 1, 1)
        theta = model.pack(np.array([[1.0]]), np.array([[1.0]]))
        assert full_gradient(model, theta) == pytest.approx([1.0, 1.0])

    @pytest.mark.parametrize("make_model", [random_lg, random_mf])
    def test_matches_finite_differences(self, make_model):
        model = make_model()
        rng = np.random.default_rng(7)
        for _ in range(10):
            theta = rng.standard_normal(model.dim)
            g = full_gradient(model, theta)
            fd = finite_difference_gradient(model, theta)
            assert np.linalg.norm(g - fd) < 1e-5 * max(1.0, np.linalg.norm(g))

    def test_zero_at_map_estimate(self):
        model = random_lg()
        g = full_gradient(model, model.map_estimate())
        assert np.linalg.norm(g) < 1e-10


class TestStochasticGradient:
    def test_full_index_set_equals_full_gradient(self):
        model = random_lg()
        idx = np.arange(model.n_records)
        np.testing.assert_allclose(
            stochastic_gradient(model, np.ones(model.dim), idx),
            full_gradient(model, np.ones(model.dim)),
            rtol=0, atol=1e-12,
        )

    def test_unbiased_by_enumeration_single_index(self):
        rng = np.random.default_rng(1)
        model = LinearGaussianModel(rng.standard_normal((3, 2)),
                                    rng.standard_normal(3), 1.5)
        theta = rng.standard_normal(2)
        avg = np.mean(
            [stochastic_gradient(model, theta, [i]) for i in range(3)], axis=0
        )
        np.testing.assert_allclose(avg, full_gradient(model, theta), atol=1e-12)

    def test_unbiased_by_enumeration_pairs(self):
        rng = np.random.default_rng(2)
        model = LinearGaussianModel(rng.standard_normal((4, 3)),
                                    rng.standard_normal(4), 1.0)
        theta = rng.standard_normal(3)
        grads = [
            stochastic_gradient(model, theta, list(pair))
            for pair in itertools.product(range(4), repeat=2)
        ]
        np.testing.assert_allclose(
            np.mean(grads, axis=0), full_gradient(model, theta), atol=1e-12
        )

    def test_repeated_index_weights_twice(self):
        model = random_lg()
        theta = np.ones(model.dim)
        expected = model.prior_gradient(theta) + (
            model.n_records / 2
        ) * 2 * model.likelihood_grad_sum(theta, [0])
        np.testing.assert_allclose(
            stochastic_gradient(model, theta, [0, 0]), expected, atol=1e-12
        )

    def test_empty_index_list_rejected(self):
        with pytest.raises(ValueError):
            stochastic_gradient(tiny_lg(), np.array([0.0]), [])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            stochastic_gradient(tiny_lg(), np.array([0.0]), [5])


class TestCombinedGradient:
    def test_identical_parts_equal_single_part(self):
        model = random_lg()
        theta = np.ones(model.dim)
        np.testing.assert_allclose(
            combined_gradient(model, theta, np.array([0, 2]), np.array([0, 2])),
            stochastic_gradient(model, theta, [0, 2]),
            atol=1e-12,
        )

    def test_equals_stochastic_gradient_on_union(self):
        model = random_mf()
        rng = np.random.default_rng(3)
        theta = rng.standard_normal(model.dim)
        row = draw_subsample(rng, model.n_records, 5, 2)
        np.testing.assert_allclose(
            combined_gradient(model, theta, row[:5], row[5:]),
            stochastic_gradient(model, theta, row),
            atol=1e-12,
        )

    def test_unbiased_over_all_draws(self):
        # exhaustive (s, o) enumeration with N_S = N_O = 1 on N_Y = 3
        rng = np.random.default_rng(4)
        model = LinearGaussianModel(rng.standard_normal((3, 2)),
                                    rng.standard_normal(3), 1.0)
        theta = rng.standard_normal(2)
        grads = [
            combined_gradient(model, theta, np.array([s]), np.array([o]))
            for s in range(3)
            for o in range(3)
        ]
        np.testing.assert_allclose(
            np.mean(grads, axis=0), full_gradient(model, theta), atol=1e-12
        )


def add_at_likelihood_grad_sum(model, theta, indices=None):
    """Reference MF likelihood gradient: scatter with np.add.at into dense
    zero buffers, then pack (the formulation the bincount scatter replaced)."""
    f, g = model.unpack(theta)
    r = model.rows if indices is None else model.rows[indices]
    c = model.cols if indices is None else model.cols[indices]
    y = model.values if indices is None else model.values[indices]
    resid = np.einsum("ik,ki->i", f[r], g[:, c]) - y
    df = np.zeros_like(f)
    dg = np.zeros_like(g)
    np.add.at(df, r, resid[:, None] * g[:, c].T)
    np.add.at(dg.T, c, resid[:, None] * f[r])
    return model.pack(df, dg)


class TestMatrixFactorizationGradient:
    @pytest.mark.parametrize("seed", range(4))
    def test_bit_identical_to_add_at_reference(self, seed):
        # few rows and columns, many records: every index list below hits
        # the same rows, columns and records many times
        rng = np.random.default_rng(seed)
        n_rows, n_cols, rank, nnz = 7, 9, 3, 40
        model = MatrixFactorizationModel(
            rng.integers(0, n_rows, nnz), rng.integers(0, n_cols, nnz),
            rng.standard_normal(nnz), n_rows, n_cols, rank,
        )
        theta = rng.standard_normal(model.dim)
        index_lists = [None, rng.integers(0, nnz, 60), np.array([3, 3, 3, 0, 3]),
                       np.array([5])]
        for indices in index_lists:
            got = model.likelihood_grad_sum(theta, indices)
            want = add_at_likelihood_grad_sum(model, theta, indices)
            assert got.shape == (model.dim,)
            assert np.array_equal(got, want)


class TestBatchedLikelihoodGradSum:
    """Indices of shape (k, n) give (k, d), row i bit-identical to the
    one-dimensional call on indices[i]."""

    @pytest.mark.parametrize("make_model", [
        lambda seed: random_lg(seed, n=30, d=7),
        lambda seed: random_lg(seed, n=600, d=100),
        random_mf,
        lambda seed: synth_matrix_factorization(seed, 7, 9, 3, observed_fraction=0.6),
    ], ids=["lg-small", "lg-paper-size", "mf-tiny", "mf-crowded"])
    @pytest.mark.parametrize("seed", range(3))
    def test_rows_equal_one_dimensional_calls(self, make_model, seed):
        model = make_model(seed)
        rng = np.random.default_rng(seed + 10)
        theta = rng.standard_normal(model.dim)
        for k, n in [(1, 1), (1, 40), (2, 7), (5, 20), (10, 41)]:
            stacked = rng.integers(0, model.n_records, size=(k, n))
            stacked[-1, : n // 2] = stacked[-1, 0]  # repeated records within a row
            got = model.likelihood_grad_sum(theta, stacked)
            assert got.shape == (k, model.dim)
            for row, indices in zip(got, stacked):
                assert np.array_equal(row, model.likelihood_grad_sum(theta, indices))

    @pytest.mark.parametrize("make_model", [lambda: random_lg(2, n=50, d=6), random_mf],
                             ids=["lg", "mf"])
    def test_stacked_combined_gradient_rows(self, make_model):
        model = make_model()
        rng = np.random.default_rng(4)
        theta = rng.standard_normal(model.dim)
        rows = np.stack([draw_subsample(rng, model.n_records, 5, 3) for _ in range(4)])
        combined, overlap = combined_gradient(model, theta, rows[:, :5], rows[:, 5:],
                                              with_overlap=True)
        for i, row in enumerate(rows):
            want, want_overlap = combined_gradient(model, theta, row[:5], row[5:],
                                                   with_overlap=True)
            assert np.array_equal(combined[i], want)
            assert np.array_equal(overlap[i], want_overlap)


# Stacked and one-dimensional evaluations agree bit for bit only because this
# numpy/OpenBLAS build runs the same kernel once per stacked item; numpy does
# not promise it.  The asynchronous simulator's traces rely on it.
BUILD = "stacked result differs from the one-dimensional call in this numpy/OpenBLAS build"


class TestPerRowTheta:
    """A (k, d) theta with (k, n) indices: row i at theta[i], bit-identical
    to the one-dimensional call, for every stacked entry point."""

    @pytest.mark.parametrize("make_model", [
        lambda seed: random_lg(seed, n=30, d=7),
        lambda seed: random_lg(seed, n=600, d=100),
        random_mf,
        lambda seed: synth_matrix_factorization(seed, 30, 40, 3),
    ], ids=["lg-small", "lg-paper-size", "mf-tiny", "mf-sparse"])
    @pytest.mark.parametrize("n", [20, 40])
    def test_likelihood_grad_sum_rows(self, make_model, n):
        for seed in range(3):
            model = make_model(seed)
            rng = np.random.default_rng(seed + 20)
            for k in range(1, 12):
                theta = rng.standard_normal((k, model.dim))
                theta[rng.random(theta.shape) < 0.05] = -0.0
                stacked = rng.integers(0, model.n_records, size=(k, n))
                got = model.likelihood_grad_sum(theta, stacked)
                assert got.shape == (k, model.dim)
                for row, th, indices in zip(got, theta, stacked):
                    assert np.array_equal(row, model.likelihood_grad_sum(th, indices)), BUILD

    @pytest.mark.parametrize("make_model", [lambda: random_lg(2, n=50, d=6), random_mf],
                             ids=["lg", "mf"])
    def test_combined_and_stochastic_gradient_rows(self, make_model):
        model = make_model()
        rng = np.random.default_rng(4)
        theta = rng.standard_normal((4, model.dim))
        rows = np.stack([draw_subsample(rng, model.n_records, 5, 3) for _ in range(4)])
        combined, overlap = combined_gradient(model, theta, rows[:, :5], rows[:, 5:],
                                              with_overlap=True)
        plain = stochastic_gradient(model, theta, rows[:, 5:])
        for i, row in enumerate(rows):
            want, want_overlap = combined_gradient(model, theta[i], row[:5], row[5:],
                                                   with_overlap=True)
            assert np.array_equal(combined[i], want), BUILD
            assert np.array_equal(overlap[i], want_overlap), BUILD
            assert np.array_equal(plain[i], stochastic_gradient(model, theta[i], row[5:]))

    def test_theta_rows_must_match_index_rows(self):
        model = random_lg(0, n=10, d=3)
        with pytest.raises(ConfigError):
            stochastic_gradient(model, np.zeros((2, 3)), np.zeros((3, 4), dtype=int))
        with pytest.raises(ConfigError):
            stochastic_gradient(model, np.zeros((2, 3)), np.zeros(4, dtype=int))


def add_at_grad_sum(model, theta, indices):
    """The matrix-factorization likelihood-gradient sum of one ``(d,)``
    parameter over one index list, scattered with np.add.at into zeros."""
    f, g = model.unpack(theta)
    r, c = model.rows[indices], model.cols[indices]
    resid = np.einsum("ik,ik->i", f[r], g[:, c].T) - model.values[indices]
    grad_f, grad_g = np.zeros_like(f), np.zeros_like(g)
    np.add.at(grad_f, r, resid[:, None] * g[:, c].T)
    np.add.at(grad_g.T, c, resid[:, None] * f[r])
    return model.pack(grad_f, grad_g)


class TestLikelihoodGradSums:
    """likelihood_grad_sums: one sum per index part, each bit-identical to
    the one-part call, for parts of unequal length and k from 1 to 11."""

    PART_LENGTHS = [(40, 20, 20), (5, 3), (1,), (7, 1, 13, 2)]

    @pytest.mark.parametrize("make_model", [
        lambda: random_lg(3, n=30, d=7),
        lambda: random_lg(4, n=600, d=100),
        random_mf,
        lambda: synth_matrix_factorization(1, 30, 40, 3),
        lambda: synth_matrix_factorization(0, 200, 300, 3),
    ], ids=["lg-small", "lg-paper-size", "mf-tiny", "mf-sparse", "mf-benchmark-size"])
    def test_each_sum_equals_the_one_part_call(self, make_model):
        model = make_model()
        rng = np.random.default_rng(model.dim)
        for lengths in self.PART_LENGTHS:
            for k in range(1, 12):
                theta_rows = rng.standard_normal((k, model.dim))
                theta_rows[rng.random(theta_rows.shape) < 0.05] = -0.0
                stacked = [rng.integers(0, model.n_records, size=(k, n)) for n in lengths]
                cases = [(theta_rows[0], [part[0] for part in stacked]),  # (d,), (n,)
                         (theta_rows[0], stacked),  # (d,), (k, n)
                         (theta_rows, stacked)]  # (k, d), (k, n)
                for theta, parts in cases:
                    got = model.likelihood_grad_sums(theta, parts)
                    assert len(got) == len(parts)
                    for sums, part in zip(got, parts):
                        assert sums.shape == part.shape[:-1] + (model.dim,)
                        want = model.likelihood_grad_sum(theta, part)
                        assert np.array_equal(sums, want), BUILD
                        assert np.array_equal(np.signbit(sums), np.signbit(want)), BUILD

    @pytest.mark.parametrize("make_model", [
        random_mf,
        lambda: synth_matrix_factorization(1, 30, 40, 3),
    ], ids=["mf-tiny", "mf-sparse"])
    def test_matrix_factorization_sums_equal_add_at_reference(self, make_model):
        model = make_model()
        rng = np.random.default_rng(6)
        for lengths in self.PART_LENGTHS:
            for k in (1, 2, 5, 11):
                theta = rng.standard_normal((k, model.dim))
                parts = [rng.integers(0, model.n_records, size=(k, n)) for n in lengths]
                for sums, part in zip(model.likelihood_grad_sums(theta, parts), parts):
                    for row, th, indices in zip(sums, theta, part):
                        want = add_at_grad_sum(model, th, indices)
                        assert np.array_equal(row, want), BUILD
                        assert np.array_equal(np.signbit(row), np.signbit(want)), BUILD

    @pytest.mark.parametrize("lengths", [(9,), (40, 20), (7, 1, 13)])
    def test_matrix_factorization_offsets_by_shape(self, monkeypatch, lengths):
        # one to three parts of unequal lengths, at a (d,) parameter with
        # (n,) or (k, n) parts and at a (k, d) one; every shape's offsets
        # are built once and kept, and a shape past the cache's bound is
        # still built right but not kept
        model = synth_matrix_factorization(1, 30, 40, 3)
        rng = np.random.default_rng(sum(lengths))
        for bound in (model_module.OFFSETS_CACHED, 0):
            monkeypatch.setattr(model_module, "OFFSETS_CACHED", bound)
            fresh = synth_matrix_factorization(1, 30, 40, 3)
            for k in (1, 2, 5):
                theta_rows = rng.standard_normal((k, model.dim))
                stacked = [rng.integers(0, model.n_records, size=(k, n)) for n in lengths]
                cases = [(theta_rows[0], [part[0] for part in stacked]),
                         (theta_rows[0], stacked), (theta_rows, stacked)]
                for theta, parts in cases:
                    for _ in range(2):  # built, then taken from the cache
                        got = fresh.likelihood_grad_sums(theta, parts)
                        for sums, part in zip(got, parts):
                            rows = np.broadcast_to(theta, part.shape[:-1] + (model.dim,))
                            want = [add_at_grad_sum(model, th, indices) for th, indices
                                    in zip(rows.reshape(-1, model.dim),
                                           part.reshape(-1, part.shape[-1]))]
                            assert np.array_equal(sums.reshape(-1, model.dim), want), BUILD
            assert len(fresh._offset_cache) == (7 if bound else 0)  # (d,) once, 2 per k
            assert fresh._offsets_cached == sum(scatter.size for _, scatter
                                                in fresh._offset_cache.values())

    @pytest.mark.parametrize("make_model", [lambda: random_lg(2, n=50, d=6), random_mf],
                             ids=["lg", "mf"])
    def test_combined_gradient_previous_part(self, make_model):
        model = make_model()
        rng = np.random.default_rng(8)
        for k in (1, 3):
            theta = rng.standard_normal((k, model.dim))
            s_indices = rng.integers(0, model.n_records, (k, 5))
            o_indices = rng.integers(0, model.n_records, (k, 3))
            previous = rng.integers(0, model.n_records, (k, 3))
            combined, overlap, prev = combined_gradient(model, theta, s_indices, o_indices,
                                                        with_overlap=True, previous=previous)
            want, want_overlap = combined_gradient(model, theta, s_indices, o_indices,
                                                   with_overlap=True)
            assert np.array_equal(combined, want)
            assert np.array_equal(overlap, want_overlap)
            assert np.array_equal(prev, stochastic_gradient(model, theta, previous))
        with pytest.raises(ValueError):
            combined_gradient(model, theta, s_indices, o_indices, previous=previous)


def two_call_draw_subsample(rng, n_records, n_s, n_o):
    """The former draw: S and O from two calls to the generator."""
    return rng.integers(0, n_records, size=n_s), rng.integers(0, n_records, size=n_o)


class TestDrawSubsample:
    @pytest.mark.parametrize("n_records", [1, 7, 600, 2**31 + 1])
    def test_one_call_equals_two_call_draw(self, n_records):
        # 2**31 + 1 makes numpy's bounded draws reject often
        for seed in range(20):
            one, two = np.random.default_rng(seed), np.random.default_rng(seed)
            for n_s, n_o in [(40, 20), (3, 1), (1, 1), (7, 5), (4, 2)]:
                a = draw_subsample(one, n_records, n_s, n_o)
                b_s, b_o = two_call_draw_subsample(two, n_records, n_s, n_o)
                assert np.array_equal(a[:n_s], b_s)
                assert np.array_equal(a[n_s:], b_o)
            assert one.bit_generator.state == two.bit_generator.state
            assert np.array_equal(one.standard_normal(3), two.standard_normal(3))

    def test_deterministic_given_seed(self):
        a = draw_subsample(np.random.default_rng(5), 100, 4, 2)
        b = draw_subsample(np.random.default_rng(5), 100, 4, 2)
        np.testing.assert_array_equal(a[:4], b[:4])
        np.testing.assert_array_equal(a[4:], b[4:])

    def test_single_support_point(self):
        row = draw_subsample(np.random.default_rng(0), 1, 4, 2)
        assert np.all(row == 0)

    def test_sizes(self):
        row = draw_subsample(np.random.default_rng(0), 10, 4, 2)
        assert row.shape == (6,)

    def test_uniformity_chi_square(self):
        rng = np.random.default_rng(6)
        draws = np.concatenate(
            [draw_subsample(rng, 10, 4, 1) for _ in range(20000)]
        )
        counts = np.bincount(draws, minlength=10)
        _, p = stats.chisquare(counts)
        assert p > 0.001

    def test_empty_part_rejected(self):
        with pytest.raises(ValueError):
            draw_subsample(np.random.default_rng(0), 10, 0, 2)


class TestRowFormat:
    """A draw is one ``(n_s + n_o,)`` index row, S first; the gradient
    functions take its slices."""

    def test_draw_subsample_is_the_draw_indices_row(self):
        for seed in range(5):
            one, twin = np.random.default_rng(seed), np.random.default_rng(seed)
            for n_s, n_o in [(40, 20), (3, 1), (1, 1)]:
                assert np.array_equal(draw_subsample(one, 600, n_s, n_o),
                                      model_module.draw_indices(twin, 600, n_s + n_o))
            assert one.bit_generator.state == twin.bit_generator.state

    @pytest.mark.parametrize("make_model", [lambda: random_lg(2, n=50, d=6), random_mf],
                             ids=["lg", "mf"])
    @pytest.mark.parametrize("k", [None, 3])
    def test_combined_gradient_on_row_slices_equals_split_gradient(self, make_model, k):
        model = make_model()
        rng = np.random.default_rng(9)
        lead = () if k is None else (k,)
        theta = rng.standard_normal((*lead, model.dim))
        row = model_module.draw_indices(rng, model.n_records, (*lead, 8))
        previous = model_module.draw_indices(rng, model.n_records, (*lead, 3))
        s_indices, o_indices = row[..., :5], row[..., 5:]
        for kwargs in ({}, {"with_overlap": True},
                       {"with_overlap": True, "previous": previous}):
            # np.array stacks a returned tuple, keeping every bit
            got = np.array(combined_gradient(model, theta, s_indices, o_indices, **kwargs))
            want = np.array(model_module.split_gradient(model, theta, s_indices, o_indices,
                                                        **kwargs))
            assert got.tobytes() == want.tobytes()

    def test_checks(self):
        model = random_lg(0, n=10, d=3)
        row = np.arange(6)
        with pytest.raises(ValueError):
            draw_subsample(np.random.default_rng(0), 10, 4, 0)
        for s_indices, o_indices in [(row[:0], row), (row, row[:0])]:
            with pytest.raises(ValueError):
                combined_gradient(model, np.zeros(3), s_indices, o_indices)
        for theta in (np.zeros(4), np.zeros((2, 3))):
            with pytest.raises(ConfigError):
                combined_gradient(model, theta, row[:4], row[4:])
        with pytest.raises(ValueError):
            combined_gradient(model, np.zeros(3), row[:4], row[4:], previous=row[4:])


class TestRmse:
    def test_perfect_reconstruction(self):
        model = MatrixFactorizationModel([0], [0], [1.0], 1, 1, 1)
        theta = model.pack(np.array([[1.0]]), np.array([[1.0]]))
        assert rmse(model, theta) == 0.0

    def test_single_entry_off_by_two(self):
        model = MatrixFactorizationModel([0], [0], [3.0], 1, 1, 1)
        theta = model.pack(np.array([[1.0]]), np.array([[1.0]]))
        assert rmse(model, theta) == pytest.approx(2.0)

    def test_matches_naive_loop(self):
        model = random_mf(9)
        rng = np.random.default_rng(10)
        theta = rng.standard_normal(model.dim)
        f, g = model.unpack(theta)
        sq = [
            (float(f[r] @ g[:, c]) - v) ** 2
            for r, c, v in zip(model.rows, model.cols, model.values)
        ]
        assert rmse(model, theta) == pytest.approx(np.sqrt(np.mean(sq)), abs=1e-12)


def fancy_index_evaluate(model, theta):
    """``evaluate`` written with fancy-index gathers, F rows and G columns."""
    f, g = model.unpack(theta)
    r = np.einsum("ik,ki->i", f[model.rows], g[:, model.cols]) - model.values
    return model.prior_potential(theta) + 0.5 * float(r @ r), float(np.sqrt(np.mean(r**2)))


class TestMatrixFactorizationEvaluate:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bits_equal_the_fancy_index_formulation(self, seed):
        # the mf-async-sim problem: 6,000 ratings of a 200 x 300 matrix
        model = synth_matrix_factorization(seed=0, n_rows=200, n_cols=300, rank=3,
                                           noise_std=0.1, observed_fraction=0.1)
        rng = np.random.default_rng(seed)
        theta = 10.0 ** rng.uniform(-2, 1) * rng.standard_normal(model.dim)
        assert model.evaluate(theta) == fancy_index_evaluate(model, theta)
        f, g = model.unpack(theta)
        idx = rng.integers(0, model.n_records, 50)
        want = np.einsum("ik,ki->i", f[model.rows[idx]], g[:, model.cols[idx]])
        assert model.predictions(theta, idx).tobytes() == want.tobytes()


def fancy_index_grad_sum(model, theta, indices=None):
    """The linear-Gaussian likelihood-gradient sum with fancy-indexed
    gathers, as the model computed it before it gathered rows with take."""
    a = model.features if indices is None else model.features[indices]
    y = model.targets if indices is None else model.targets[indices]
    r = (a @ theta if theta.ndim == 1 else (a @ theta[:, :, None])[..., 0]) - y
    return (r @ a if r.ndim == 1 else (r[..., None, :] @ a)[..., 0, :]) / model.noise_variance


class TestLinearGaussianGather:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bits_equal_the_fancy_index_formulation(self, seed):
        # the lg-async-sim size: d = 100, subsamples of 40 rows
        model = random_lg(seed, n=600, d=100)
        rng = np.random.default_rng(seed)
        theta = rng.standard_normal(model.dim)
        got = model.likelihood_grad_sum(theta)
        assert got.tobytes() == fancy_index_grad_sum(model, theta).tobytes()
        for lead in [(), (10,)]:
            indices = rng.integers(0, model.n_records, (*lead, 40))
            for th in [theta, rng.standard_normal((*lead, model.dim))]:
                got = model.likelihood_grad_sum(th, indices)
                assert got.tobytes() == fancy_index_grad_sum(model, th, indices).tobytes()


class TestPacking:
    def test_round_trip_identity(self):
        model = random_mf()
        rng = np.random.default_rng(11)
        theta = rng.standard_normal(model.dim)
        np.testing.assert_array_equal(model.pack(*model.unpack(theta)), theta)

    def test_layout_row_major_f_then_g(self):
        model = MatrixFactorizationModel([0], [0], [1.0], 2, 2, 1)
        f = np.array([[1.0], [2.0]])
        g = np.array([[3.0, 4.0]])
        np.testing.assert_array_equal(model.pack(f, g), [1.0, 2.0, 3.0, 4.0])


class TestConstruction:
    def test_lg_mismatched_rows(self):
        with pytest.raises(ConfigError):
            LinearGaussianModel(np.ones((3, 2)), np.ones(2), 1.0)

    def test_lg_nonpositive_variance(self):
        with pytest.raises(ConfigError):
            LinearGaussianModel(np.ones((1, 1)), np.ones(1), 0.0)

    def test_mf_out_of_bounds_entry(self):
        with pytest.raises(ConfigError):
            MatrixFactorizationModel([2], [0], [1.0], 2, 2, 1)

    def test_mf_ragged_inputs(self):
        with pytest.raises(ConfigError):
            MatrixFactorizationModel([0, 1], [0], [1.0], 2, 2, 1)

    @pytest.mark.parametrize("value", [0, 2.9, 2.0, True, math.nan, "3", None])
    @pytest.mark.parametrize("name", ["n_rows", "n_cols", "rank"])
    def test_mf_bad_counts(self, name, value):
        # a configuration error, not a truncation (2.9 ran with 2, True with 1)
        counts = {"n_rows": 3, "n_cols": 3, "rank": 3, name: value}
        with pytest.raises(ConfigError, match=f"{name} must be an integer of at least 1"):
            MatrixFactorizationModel([0], [0], [1.0], **counts)
