"""Bounded-memory inverse-Hessian approximation with cautious admission.

The memory is a FIFO of the last M (s, y) = (iterate difference, gradient
difference) pairs.  Products H v are computed with the two-loop recursion
in O(M d) time and space; the d x d matrix is never materialized.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError


class LbfgsMemory:
    """FIFO curvature store of capacity M.

    Pairs are admitted only when y.s >= epsilon * ||s||^2 (inclusive, with
    zero-s pairs rejected outright), which keeps the implied matrix
    positive definite even on non-convex problems.  ``rho`` adds a rho*I
    shift on top of the two-loop product for numerical stabilization.

    The pairs live in the rows of preallocated ``(M, d)`` arrays, so that
    :func:`apply_stacked` can run the two-loop over many memories at once.
    """

    def __init__(self, dim: int, capacity: int, epsilon: float = 1e-8, rho: float = 0.0):
        if capacity < 1:
            raise ConfigError(f"capacity must be positive, got {capacity}")
        if epsilon <= 0:
            raise ConfigError(f"epsilon must be positive, got {epsilon}")
        if rho < 0:
            raise ConfigError(f"rho must be nonnegative, got {rho}")
        self.dim = int(dim)
        self.capacity = int(capacity)
        self.epsilon = float(epsilon)
        self.rho = float(rho)
        # pair storage: one row per slot, reused in place; a new pair takes
        # a free slot, or the oldest pair's when full
        self._s = np.zeros((self.capacity, self.dim))
        self._y = np.zeros((self.capacity, self.dim))
        self._rows = list(zip(self._s, self._y))  # row views, built once
        self._pairs: list = []  # (s row, y row, 1/(y.s), slot), newest first
        self._gamma = 1.0

    def __len__(self) -> int:
        return len(self._pairs)

    @property
    def pairs(self):
        """Copies of the stored (s, y, 1/(y.s)), oldest first."""
        return [(s.copy(), y.copy(), inv_ys) for s, y, inv_ys, _ in reversed(self._pairs)]

    def _check(self, v, name):
        v = np.asarray(v, dtype=float)
        if v.shape != (self.dim,):
            raise ValueError(f"{name} must have shape ({self.dim},), got {v.shape}")
        return v

    def try_add(self, s, y) -> bool:
        """Append (s, y), evicting the oldest pair if full, iff the
        cautious condition holds.  Returns whether the pair was admitted."""
        s = self._check(s, "s")
        y = self._check(y, "y")
        ss = float(s @ s)
        ys = float(y @ s)
        # s = 0 passes the printed inequality (0 >= 0) but makes 1/(y.s)
        # undefined, so it is rejected before the test.
        if ss == 0.0 or not math.isfinite(ys) or ys < self.epsilon * ss:
            return False
        slot = len(self._pairs)
        if slot == self.capacity:
            slot = self._pairs.pop()[3]
        s_row, y_row = self._rows[slot]
        s_row[...] = s
        y_row[...] = y
        self._pairs.insert(0, (s_row, y_row, 1.0 / ys, slot))
        self._gamma = ys / float(y @ y)
        return True

    def gamma(self) -> float:
        """Scaling of the initial matrix H0 = gamma * I (1.0 when empty).

        gamma = s.y / y.y of the newest pair, cached when that pair is
        admitted: the newest pair is never the one evicted, so the cache
        cannot go stale."""
        return self._gamma

    def apply(self, v) -> np.ndarray:
        """Return (H + rho*I) v via the two-loop recursion."""
        v = self._check(v, "v")
        q = v.copy()
        alphas = []
        for s, y, inv_ys, _ in self._pairs:
            a = inv_ys * float(s @ q)
            q -= a * y
            alphas.append(a)
        r = self._gamma * q
        for (s, y, inv_ys, _), a in zip(reversed(self._pairs), reversed(alphas)):
            b = inv_ys * float(y @ r)
            r += (a - b) * s
        if self.rho != 0.0:
            r += self.rho * v
        return r


STACKED_MAX_DIM = 512


def apply_stacked(memories, vectors) -> np.ndarray:
    """``(H_i + rho_i*I) v`` for each vector ``v`` in ``vectors[i]``.

    ``vectors`` has shape ``(k, m, d)``, and item ``i`` is applied through
    ``memories[i]``.  Every result row is bit-identical to
    ``memories[i].apply(v)``: each dot is one BLAS ddot per (item, vector),
    as in the one-dimensional recursion, and the elementwise steps are the
    same.  A memory with fewer pairs is left untouched at the positions it
    lacks, never updated with a zero pair, which would turn a -0.0 into
    +0.0.

    Stacking pays while the fixed cost of each numpy call dominates.  Above
    ``STACKED_MAX_DIM`` the items are applied one by one instead: on a
    2-core host with M = 3 the stacked recursion took a third of the
    one-by-one time at d = 100 (k = 10), but 1.6 to 2.2 times it at
    d = 1500 (k = 4 to 10).
    """
    if memories[0].dim > STACKED_MAX_DIM:
        return np.array([[mem.apply(v) for v in item] for mem, item in zip(memories, vectors)])
    q = np.array(vectors, dtype=float)
    fill = np.array([len(mem) for mem in memories])
    most = int(fill.max())
    if most:
        # row of each memory's j-th newest pair in the concatenated storage;
        # a position a memory lacks points at its first row and is masked
        rows, inv_ys, base = [], [], 0
        for mem in memories:
            pad = most - len(mem)
            rows.append([base + slot for _, _, _, slot in mem._pairs] + [base] * pad)
            inv_ys.append([inv for _, _, inv, _ in mem._pairs] + [0.0] * pad)
            base += mem.capacity
        rows = np.array(rows)
        s = np.concatenate([mem._s for mem in memories])[rows][:, :, None, :]
        y = np.concatenate([mem._y for mem in memories])[rows][:, :, None, :]
        inv_ys = np.array(inv_ys)[:, :, None]
    tmp = np.empty_like(q)
    alphas = []
    for j in range(most):  # newest pair first
        has = True if fill.min() > j else (fill > j)[:, None, None]
        a = inv_ys[:, j] * np.vecdot(s[:, j], q)
        np.multiply(a[..., None], y[:, j], out=tmp)
        np.subtract(q, tmp, out=q, where=has)
        alphas.append(a)
    gamma = np.array([mem._gamma for mem in memories])
    r = np.multiply(gamma[:, None, None], q, out=q)
    for j in reversed(range(most)):
        has = True if fill.min() > j else (fill > j)[:, None, None]
        b = inv_ys[:, j] * np.vecdot(y[:, j], r)
        np.multiply((alphas[j] - b)[..., None], s[:, j], out=tmp)
        np.add(r, tmp, out=r, where=has)
    rho = np.array([mem.rho for mem in memories])
    if rho.any():
        np.multiply(rho[:, None, None], vectors, out=tmp)
        np.add(r, tmp, out=r, where=(rho != 0.0)[:, None, None])
    return r
