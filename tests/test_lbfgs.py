"""Tests for the cautious FIFO curvature memory and the two-loop recursion."""

import math

import numpy as np
import pytest

from asqn import ConfigError, LbfgsMemory
from asqn.lbfgs import STACKED_MAX_DIM, STACKED_MIN_BATCH, apply_stacked, try_add_stacked


def dense_matrix(memory: LbfgsMemory) -> np.ndarray:
    """Materialize H + rho*I by applying the memory to basis vectors; O(M d^2)."""
    d = memory.dim
    h = np.empty((d, d))
    eye = np.eye(d)
    for j in range(d):
        h[:, j] = memory.apply(eye[j])
    return h


def positive_definiteness_check(memory: LbfgsMemory) -> float:
    """Smallest eigenvalue of the symmetrized dense matrix."""
    h = dense_matrix(memory)
    return float(np.linalg.eigvalsh(0.5 * (h + h.T)).min())


def dense_bfgs_oracle(pairs, gamma):
    """Recursive dense inverse-BFGS update seeded with gamma * I.

    H_{k+1} = (I - r s y^T) H_k (I - r y s^T) + r s s^T with r = 1/(y.s),
    applied oldest pair first -- the matrix the two-loop recursion computes
    implicitly.
    """
    d = len(pairs[0][0])
    h = gamma * np.eye(d)
    eye = np.eye(d)
    for s, y in pairs:
        r = 1.0 / float(y @ s)
        v = eye - r * np.outer(s, y)
        h = v @ h @ v.T + r * np.outer(s, s)
    return h


def admitted_memory(rng, dim, capacity, n_pairs, rho=0.0):
    """Build a memory from random pairs guaranteed to pass the cautious test."""
    mem = LbfgsMemory(dim, capacity, epsilon=1e-8, rho=rho)
    added = []
    while len(added) < n_pairs:
        s = rng.standard_normal(dim)
        y = s + 0.3 * rng.standard_normal(dim)  # y.s > 0 w.h.p.
        if mem.try_add(s, y):
            added.append((s, y))
    return mem, added


class TestTryAdd:
    def test_positive_curvature_accepted(self):
        mem = LbfgsMemory(2, 3, epsilon=0.5)
        assert mem.try_add([1.0, 0.0], [1.0, 0.0])  # y.s = 1 >= 0.5 * 1
        assert len(mem) == 1

    def test_negative_curvature_rejected(self):
        mem = LbfgsMemory(2, 3, epsilon=1e-8)
        assert not mem.try_add([1.0, 0.0], [-1.0, 0.0])
        assert len(mem) == 0

    def test_boundary_equality_accepted(self):
        # y.s = eps * ||s||^2 exactly: inclusive inequality
        eps = 0.25
        mem = LbfgsMemory(2, 3, epsilon=eps)
        s = np.array([2.0, 0.0])
        y = np.array([eps * 2.0, 0.0])
        assert float(y @ s) == eps * float(s @ s)
        assert mem.try_add(s, y)

    def test_zero_s_rejected(self):
        mem = LbfgsMemory(2, 3)
        assert not mem.try_add([0.0, 0.0], [1.0, 1.0])

    def test_fifo_eviction_keeps_last_m(self):
        rng = np.random.default_rng(0)
        mem, added = admitted_memory(rng, 3, capacity=3, n_pairs=4)
        assert len(mem) == 3
        for (s_kept, _, _), (s_added, _) in zip(mem.pairs, added[-3:]):
            np.testing.assert_array_equal(s_kept, s_added)

    def test_dimension_mismatch(self):
        mem = LbfgsMemory(2, 3)
        with pytest.raises(ValueError):
            mem.try_add([1.0], [1.0])


class TestApply:
    def test_empty_memory_is_identity(self):
        mem = LbfgsMemory(3, 2)
        v = np.array([1.0, -2.0, 3.0])
        np.testing.assert_array_equal(mem.apply(v), v)

    def test_empty_memory_with_rho_shift(self):
        mem = LbfgsMemory(2, 2, rho=3.0)
        np.testing.assert_allclose(mem.apply([1.0, 2.0]), [4.0, 8.0])

    @pytest.mark.parametrize("dim", [2, 5, 10])
    @pytest.mark.parametrize("capacity", [1, 2, 3, 5])
    def test_matches_dense_recursive_oracle(self, dim, capacity):
        rng = np.random.default_rng(100 * dim + capacity)
        for _ in range(5):
            mem, added = admitted_memory(rng, dim, capacity, capacity)
            h = dense_bfgs_oracle(added[-capacity:], mem.gamma())
            for _ in range(3):
                v = rng.standard_normal(dim)
                np.testing.assert_allclose(mem.apply(v), h @ v, atol=1e-10)

    def test_rho_is_additive_shift(self):
        rng = np.random.default_rng(1)
        mem0, added = admitted_memory(rng, 4, 3, 3)
        mem3 = LbfgsMemory(4, 3, rho=3.0)
        for s, y in added:
            assert mem3.try_add(s, y)
        v = rng.standard_normal(4)
        np.testing.assert_allclose(mem3.apply(v), mem0.apply(v) + 3.0 * v, atol=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(2)
        mem, _ = admitted_memory(rng, 5, 3, 3)
        u, v = rng.standard_normal(5), rng.standard_normal(5)
        np.testing.assert_allclose(
            mem.apply(2.0 * u - 0.5 * v),
            2.0 * mem.apply(u) - 0.5 * mem.apply(v),
            atol=1e-12,
        )

    def test_symmetry_on_basis_vectors(self):
        rng = np.random.default_rng(3)
        mem, _ = admitted_memory(rng, 6, 3, 3)
        h = dense_matrix(mem)
        np.testing.assert_allclose(h, h.T, atol=1e-10)

    def test_positive_definite_quadratic_form(self):
        rng = np.random.default_rng(4)
        mem, _ = admitted_memory(rng, 5, 3, 3)
        for _ in range(100):
            v = rng.standard_normal(5)
            assert float(v @ mem.apply(v)) > 0.0

    def test_gamma_seed_from_newest_pair(self):
        mem = LbfgsMemory(2, 2)
        s = np.array([1.0, 0.0])
        y = np.array([2.0, 0.0])
        assert mem.try_add(s, y)
        assert mem.gamma() == pytest.approx(0.5)  # s.y / y.y = 2/4

    def test_gamma_tracks_newest_admitted_pair(self):
        # through evictions and rejected pairs, gamma is s.y / y.y of the
        # newest pair still held, computed exactly as from scratch
        rng = np.random.default_rng(6)
        mem = LbfgsMemory(6, 2, epsilon=0.1)
        assert mem.gamma() == 1.0
        admitted = rejected = 0
        for _ in range(60):
            s = rng.standard_normal(6)
            y = s + rng.standard_normal(6)  # about a third fail the cautious test
            if mem.try_add(s, y):
                admitted += 1
            else:
                rejected += 1
            if len(mem):
                s_new, y_new, _ = mem.pairs[-1]
                assert mem.gamma() == float(s_new @ y_new) / float(y_new @ y_new)
        assert admitted > 2 and rejected > 0  # evictions and rejections both happened

    def test_dimension_mismatch(self):
        mem = LbfgsMemory(3, 2)
        with pytest.raises(ValueError):
            mem.apply([1.0, 2.0])


class TestPositiveDefinitenessCheck:
    def test_empty_identity(self):
        assert positive_definiteness_check(LbfgsMemory(3, 2)) == pytest.approx(1.0)

    def test_admitted_memory_positive(self):
        rng = np.random.default_rng(5)
        mem, _ = admitted_memory(rng, 4, 3, 3)
        assert positive_definiteness_check(mem) > 0.0

    def test_rho_shifts_spectrum(self):
        rng = np.random.default_rng(6)
        mem0, added = admitted_memory(rng, 4, 3, 3)
        mem3 = LbfgsMemory(4, 3, rho=3.0)
        for s, y in added:
            mem3.try_add(s, y)
        assert positive_definiteness_check(mem3) >= (
            positive_definiteness_check(mem0) + 3.0 - 1e-9
        )


class TestConstruction:
    def test_bad_capacity(self):
        with pytest.raises(ConfigError):
            LbfgsMemory(2, 0)

    def test_bad_epsilon(self):
        with pytest.raises(ConfigError):
            LbfgsMemory(2, 1, epsilon=0.0)

    def test_bad_rho(self):
        with pytest.raises(ConfigError):
            LbfgsMemory(2, 1, rho=-1.0)

    @pytest.mark.parametrize("argument", ["capacity", "epsilon", "rho"])
    def test_nan_rejected(self, argument):
        # NaN fails every comparison: epsilon NaN admitted every pair with
        # y.s finite, so the cautious test was off
        with pytest.raises(ConfigError, match=argument):
            LbfgsMemory(2, **{"capacity": 1, argument: math.nan})

    @pytest.mark.parametrize("dim", [-1, 2.5, 2.0, True, "3", None])
    def test_bad_dim(self, dim):
        # a configuration error, not a numpy error (-1) or a truncation (2.5)
        with pytest.raises(ConfigError, match="dim must be an integer of at least 0"):
            LbfgsMemory(dim, 1)

    def test_dim_zero_and_numpy_integer_dims(self):
        assert LbfgsMemory(0, 1).apply(np.zeros(0)).shape == (0,)
        assert LbfgsMemory(np.int64(3), 1).dim == 3


def deque_apply(pairs, gamma, rho, v):
    """The two-loop as first written: over the oldest-first copies that
    ``pairs`` returns, one ``@`` per dot and scalar updates."""
    q = np.array(v, dtype=float)
    alphas = []
    for s, y, inv_ys in reversed(pairs):
        a = inv_ys * float(s @ q)
        q -= a * y
        alphas.append(a)
    r = gamma * q
    for (s, y, inv_ys), a in zip(pairs, reversed(alphas)):
        b = inv_ys * float(y @ r)
        r += (a - b) * s
    if rho != 0.0:
        r += rho * np.asarray(v, dtype=float)
    return r


def same_bits(a, b):
    """Equal values and equal signs of zero (np.array_equal has -0.0 == 0.0)."""
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


# Equality of the stacked and one-dimensional two-loops is a property of this
# numpy/OpenBLAS build (np.vecdot and ``@`` reach the same ddot), not a
# guarantee of numpy; the asynchronous simulator's traces rely on it.
BUILD = "stacked two-loop differs from LbfgsMemory.apply in this numpy/OpenBLAS build"


def mixed_memories(rng, k, dim, capacity, rho):
    """k memories of capacity M: empty, partly filled, full and evicted."""
    memories = []
    for i in range(k):
        mem = LbfgsMemory(dim, capacity, epsilon=0.5, rho=rho if i % 3 else 0.0)
        for _ in range(i % (2 * capacity + 2)):
            s = rng.standard_normal(dim)
            mem.try_add(s, s + rng.standard_normal(dim))  # some fail the cautious test
        memories.append(mem)
    return memories


def alike_memories(rng, k, dim, capacity, rho, admissions):
    """k memories of capacity M that each admitted ``admissions`` pairs, so
    all hold the same number of them; rho on two in every three."""
    return [admitted_memory(rng, dim, capacity, admissions, rho=rho if i % 3 else 0.0)[0]
            for i in range(k)]


def assert_rows_equal_apply(memories, vectors):
    """apply_stacked gives, row by row, the bits of LbfgsMemory.apply."""
    got = apply_stacked(memories, vectors)
    assert got.shape == vectors.shape
    for mem, rows, item in zip(memories, got, vectors):
        for row, v in zip(rows, item):
            assert same_bits(row, mem.apply(v)), BUILD


def signed_zero_vectors(rng, shape):
    v = rng.standard_normal(shape)
    v[rng.random(shape) < 0.15] = -0.0
    v[rng.random(shape) < 0.15] = 0.0
    return v


class TestRowStorage:
    def test_apply_equals_two_loop_over_pair_copies(self):
        # through admissions, evictions and rejections the block-capable
        # recursion gives the product of the recursion as first written
        rng = np.random.default_rng(11)
        for dim, capacity, rho in [(1, 1, 0.0), (7, 3, 0.0), (100, 3, 2.0), (33, 5, 0.5)]:
            mem = LbfgsMemory(dim, capacity, epsilon=0.5, rho=rho)
            for _ in range(4 * capacity):
                s = rng.standard_normal(dim)
                mem.try_add(s, s + rng.standard_normal(dim))
                v = signed_zero_vectors(rng, dim)
                assert same_bits(mem.apply(v), deque_apply(mem.pairs, mem.gamma(), rho, v))

    def test_pairs_are_copies_oldest_first(self):
        rng = np.random.default_rng(0)
        mem, added = admitted_memory(rng, 3, capacity=2, n_pairs=3)
        pairs = mem.pairs
        for (s, y, inv_ys), (s_added, y_added) in zip(pairs, added[-2:]):
            assert np.array_equal(s, s_added) and np.array_equal(y, y_added)
            assert inv_ys == 1.0 / float(y_added @ s_added)
        pairs[0][0][:] = 0.0
        assert not np.array_equal(mem.pairs[0][0], 0.0)

    @pytest.mark.parametrize("stacked", [False, True])
    def test_admitted_pair_does_not_alias_the_callers_arrays(self, stacked):
        # try_add is given rows of the caller's stacks; changing them later
        # must change neither the pairs nor any product
        rng = np.random.default_rng(5)
        k, dim = STACKED_MIN_BATCH + 1, 6
        memories = [LbfgsMemory(dim, 2, rho=0.5) for _ in range(k)]
        s = rng.standard_normal((k, dim))
        y = s + 0.1 * rng.standard_normal((k, dim))
        if stacked:
            assert all(try_add_stacked(memories, s, y))
        else:
            assert all([mem.try_add(s_i, y_i) for mem, s_i, y_i in zip(memories, s, y)])
        vectors = rng.standard_normal((k, 2, dim))

        def seen():
            return ([mem.pairs for mem in memories],
                    [mem.apply(item) for mem, item in zip(memories, vectors)],
                    apply_stacked(memories, vectors))

        before = seen()
        s[...], y[...] = 7.0, -3.0
        after = seen()
        for pairs, kept in zip(after[0], before[0]):
            assert all(same_bits(a[0], b[0]) and same_bits(a[1], b[1]) and a[2] == b[2]
                       for a, b in zip(pairs, kept))
        for got, want in zip(after[1:], before[1:]):
            assert all(same_bits(a, b) for a, b in zip(got, want))


class TestBlockApply:
    """An (m, d) block through LbfgsMemory.apply: one recursion over the rows,
    each row bit-identical to the one-dimensional call."""

    @pytest.mark.parametrize("dim", [1, 6, 100, STACKED_MAX_DIM, STACKED_MAX_DIM + 1, 1500])
    @pytest.mark.parametrize("rho", [0.0, 2.5])
    def test_rows_equal_one_dimensional_apply(self, dim, rho):
        # from empty through admissions, rejections and evictions, with
        # signed zeros in the block
        rng = np.random.default_rng(dim)
        for capacity in (1, 3):
            mem = LbfgsMemory(dim, capacity, epsilon=0.5, rho=rho)
            admitted = rejected = 0
            for step in range(3 * capacity + 2):
                if step:
                    s = rng.standard_normal(dim)
                    y = -s if step % 3 == 2 else s + rng.standard_normal(dim)
                    if mem.try_add(s, y):
                        admitted += 1
                    else:
                        rejected += 1
                for m in (1, 2, 5):
                    block = signed_zero_vectors(rng, (m, dim))
                    kept = block.copy()
                    got = mem.apply(block)
                    assert got.shape == (m, dim)
                    assert same_bits(block, kept)
                    for row, v in zip(got, block):
                        assert same_bits(row, mem.apply(v)), BUILD
                        assert same_bits(row, deque_apply(mem.pairs, mem.gamma(), rho, v)), BUILD
            assert admitted > capacity and rejected > 0

    @pytest.mark.parametrize("dim", [1, 6, STACKED_MAX_DIM + 1])
    @pytest.mark.parametrize("rho", [0.0, 3.0])
    def test_in_place_and_into_out_equal_a_fresh_result(self, dim, rho):
        rng = np.random.default_rng(dim + 7)
        for mem in mixed_memories(rng, 6, dim, 3, rho):
            for shape in ((dim,), (2, dim)):
                v = signed_zero_vectors(rng, shape)
                want = mem.apply(v)
                out = np.full(shape, np.nan)
                assert mem.apply(v, out=out) is out and same_bits(out, want)
                assert mem.apply(v, out=v) is v and same_bits(v, want)

    def test_empty_memory_keeps_negative_zero(self):
        block = np.array([[-0.0, 1.0, -0.0], [0.0, -0.0, -2.0]])
        assert same_bits(LbfgsMemory(3, 2).apply(block), block)

    @pytest.mark.parametrize("shape", [(), (4,), (2, 4), (1, 2, 3), (3, 2)])
    def test_bad_shape(self, shape):
        with pytest.raises(ValueError):
            LbfgsMemory(3, 2).apply(np.ones(shape))


class TestApplyStacked:
    @pytest.mark.parametrize("dim", [1, 6, 100, STACKED_MAX_DIM + 1])
    @pytest.mark.parametrize("rho", [0.0, 3.0])
    def test_rows_equal_one_dimensional_apply(self, dim, rho):
        rng = np.random.default_rng(dim)
        for capacity in (1, 3):
            for k in (1, 2, 3, 5, 11):
                assert_rows_equal_apply(mixed_memories(rng, k, dim, capacity, rho),
                                        signed_zero_vectors(rng, (k, 2, dim)))
        if dim > STACKED_MAX_DIM:
            return
        # equal fills, so batches of STACKED_MIN_BATCH or more are stacked:
        # empty, partly filled, full and evicted memories
        for capacity in (1, 3):
            for k in (3, 5, 11):
                for admissions in range(capacity + 3):
                    assert_rows_equal_apply(
                        alike_memories(rng, k, dim, capacity, rho, admissions),
                        signed_zero_vectors(rng, (k, 2, dim)))

    def test_only_alike_memories_are_stacked(self, monkeypatch):
        # a batch of mixed fills is applied through LbfgsMemory.apply once
        # per memory, in order; one of equal fills never calls it
        applied = []
        apply = LbfgsMemory.apply

        def counting(mem, *args, **kwargs):
            applied.append(mem)
            return apply(mem, *args, **kwargs)

        monkeypatch.setattr(LbfgsMemory, "apply", counting)
        rng = np.random.default_rng(4)
        k, dim = STACKED_MIN_BATCH + 2, 6
        mixed = mixed_memories(rng, k, dim, 3, 1.0)
        assert len({len(mem) for mem in mixed}) > 1
        apply_stacked(mixed, rng.standard_normal((k, 2, dim)))
        assert applied == mixed
        applied.clear()
        apply_stacked(alike_memories(rng, k, dim, 3, 1.0, 2), rng.standard_normal((k, 2, dim)))
        assert applied == []

    def test_lacking_positions_keep_negative_zero(self):
        # an empty memory in a batch with full ones keeps its -0.0 entries:
        # the batch is not alike, so each memory is applied on its own
        rng = np.random.default_rng(1)
        full, _ = admitted_memory(rng, 4, 3, 5)
        empty = LbfgsMemory(4, 3)
        vectors = np.array([[[-0.0, 1.0, -0.0, 2.0]], [[-0.0, -0.0, 3.0, -0.0]],
                            [[1.0, -0.0, -0.0, 0.0]]])
        assert len(vectors) >= STACKED_MIN_BATCH  # so the batch is stacked
        got = apply_stacked([full, empty, full], vectors)
        assert same_bits(got[1, 0], vectors[1, 0])
        assert same_bits(got[0, 0], full.apply(vectors[0, 0]))
        assert same_bits(got[2, 0], full.apply(vectors[2, 0]))

    def test_leaves_memories_and_vectors_alone(self):
        rng = np.random.default_rng(2)
        memories = mixed_memories(rng, 4, 5, 3, 1.0)
        before = [mem.pairs for mem in memories]
        vectors = rng.standard_normal((4, 2, 5))
        kept = vectors.copy()
        apply_stacked(memories, vectors)
        assert np.array_equal(vectors, kept)
        for mem, pairs in zip(memories, before):
            assert all(np.array_equal(a[0], b[0]) and a[2] == b[2]
                       for a, b in zip(mem.pairs, pairs))

    @pytest.mark.parametrize("dim", [6, STACKED_MAX_DIM + 1])
    @pytest.mark.parametrize("k", [2, STACKED_MIN_BATCH, 5])
    def test_in_place_and_into_out_equal_a_fresh_result(self, dim, k):
        rng = np.random.default_rng(dim * k)
        memories = mixed_memories(rng, k, dim, 3, 2.0)
        vectors = signed_zero_vectors(rng, (k, 2, dim))
        want = apply_stacked(memories, vectors)
        out = np.full_like(vectors, np.nan)
        assert apply_stacked(memories, vectors, out=out) is out and same_bits(out, want)
        assert apply_stacked(memories, vectors, out=vectors) is vectors
        assert same_bits(vectors, want)


class TestTryAddStacked:
    """try_add_stacked forms s.s, y.s and y.y of a batch in stacked vecdot
    calls, and each memory admits through try_add given those products."""

    def test_vecdot_rows_equal_one_dimensional_matmul(self):
        # 700 pairs with d from 1 to 4097, some scaled far from 1
        rng = np.random.default_rng(11)
        dims = np.concatenate([np.arange(1, 41), [4096, 4097], rng.integers(1, 4098, 658)])
        assert len(dims) == 700
        for d in dims.tolist():
            a = rng.standard_normal((3, d)) * 10.0 ** rng.integers(-150, 150, (3, 1))
            b = rng.standard_normal((3, d))
            for got, x, y in zip(np.vecdot(a, b).tolist(), a, b):
                assert got == float(x @ y) or (math.isnan(got) and math.isnan(x @ y)), BUILD
            for got, x in zip(np.vecdot(a, a).tolist(), a):
                assert got == float(x @ x), BUILD

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("capacity", [1, 2, 3])
    def test_equals_try_add_memory_by_memory(self, capacity):
        # k memories over many rounds: admitted pairs, each rejection
        # reason, and memories that evict several times
        rng = np.random.default_rng(capacity)
        d, k = 5, 6
        stacked = [LbfgsMemory(d, capacity, epsilon=0.5, rho=0.5) for _ in range(k)]
        single = [LbfgsMemory(d, capacity, epsilon=0.5, rho=0.5) for _ in range(k)]
        reasons = {"admitted": 0, "s = 0": 0, "non-finite y.s": 0, "y.s < eps |s|^2": 0}
        for step in range(40):
            who = rng.permutation(k)[: 1 + step % k]
            s = rng.standard_normal((len(who), d))
            y = s + rng.standard_normal((len(who), d))
            for row, kind in enumerate(rng.integers(0, 4, len(who))):
                if kind == 1:
                    s[row] = 0.0
                elif kind == 2:
                    s[row], y[row] = 1e200, rng.choice([1e200, np.inf, np.nan])
            got = try_add_stacked([stacked[w] for w in who], s, y)
            want = [single[w].try_add(si, yi) for w, si, yi in zip(who, s, y)]
            assert got == want
            for si, yi, ok in zip(s, y, want):
                ss, ys = float(si @ si), float(yi @ si)
                reasons["admitted" if ok else "s = 0" if ss == 0.0
                        else "non-finite y.s" if not math.isfinite(ys)
                        else "y.s < eps |s|^2"] += 1
        assert min(reasons.values()) > 3, reasons
        v = rng.standard_normal((2, d))
        for a, b in zip(stacked, single):
            assert len(a) == len(b) and a.gamma() == b.gamma()
            for (s1, y1, r1), (s2, y2, r2) in zip(a.pairs, b.pairs):
                assert same_bits(s1, s2) and same_bits(y1, y2) and r1 == r2
            assert same_bits(a.apply(v), b.apply(v))
