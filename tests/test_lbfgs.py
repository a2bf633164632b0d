"""Tests for the cautious FIFO curvature memory and the two-loop recursion."""

import numpy as np
import pytest

from asqn import ConfigError, LbfgsMemory


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
