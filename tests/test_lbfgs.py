"""Tests for the cautious FIFO curvature memory and the two-loop recursion."""

import numpy as np
import pytest

from asqn import ConfigError, LbfgsMemory
from asqn.lbfgs import STACKED_MAX_DIM, apply_stacked


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


def deque_apply(pairs, gamma, rho, v):
    """The two-loop as written over a list of (s, y, 1/(y.s)) copies, oldest
    first, before the pairs moved into preallocated rows."""
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


def signed_zero_vectors(rng, shape):
    v = rng.standard_normal(shape)
    v[rng.random(shape) < 0.15] = -0.0
    v[rng.random(shape) < 0.15] = 0.0
    return v


class TestRowStorage:
    def test_apply_equals_two_loop_over_pair_copies(self):
        # through admissions, evictions and rejections the pairs kept in
        # preallocated rows give the product of the list-of-copies recursion
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
            for k in (1, 2, 5, 11):
                memories = mixed_memories(rng, k, dim, capacity, rho)
                vectors = signed_zero_vectors(rng, (k, 2, dim))
                got = apply_stacked(memories, vectors)
                assert got.shape == (k, 2, dim)
                for mem, rows, item in zip(memories, got, vectors):
                    for row, v in zip(rows, item):
                        assert same_bits(row, mem.apply(v)), BUILD

    def test_lacking_positions_keep_negative_zero(self):
        # an empty memory in a batch with full ones: applying a zero pair at
        # the positions it lacks would add +0.0 to its -0.0 entries
        rng = np.random.default_rng(1)
        full, _ = admitted_memory(rng, 4, 3, 5)
        empty = LbfgsMemory(4, 3)
        vectors = np.array([[[-0.0, 1.0, -0.0, 2.0]], [[-0.0, -0.0, 3.0, -0.0]]])
        got = apply_stacked([full, empty], vectors)
        assert same_bits(got[1, 0], vectors[1, 0])
        assert same_bits(got[0, 0], full.apply(vectors[0, 0]))

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
