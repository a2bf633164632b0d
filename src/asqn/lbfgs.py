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

    The n pairs live newest first in rows 0..n-1 of a window of M (s, y)
    rows and M values 1/(y.s), 0 past n, so pair j of every memory of a
    batch is row j of its window.  The window slides up a buffer of 2M - 1
    rows, one row per admission; at the top, the M - 1 newest rows are
    first copied to the bottom, once per M admissions.
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
        # the window is rows _start.._start+M-1; apply reads _pairs, the
        # same rows' (s, y, 1/(y.s) as a Python float) newest first
        self._sy = np.zeros((2 * self.capacity - 1, 2, self.dim))
        self._inv_ys = np.zeros(2 * self.capacity - 1)
        self._rows = [tuple(pair) for pair in self._sy]  # row views, built once
        self._start = self.capacity - 1
        self._pairs: list = []
        self._gamma = 1.0

    def __len__(self) -> int:
        return len(self._pairs)

    @property
    def pairs(self):
        """Copies of the stored (s, y, 1/(y.s)), oldest first."""
        return [(s.copy(), y.copy(), inv_ys) for s, y, inv_ys in reversed(self._pairs)]

    def _check(self, v, name):
        v = np.asarray(v, dtype=float)
        if v.shape != (self.dim,):
            raise ValueError(f"{name} must have shape ({self.dim},), got {v.shape}")
        return v

    def try_add(self, s, y, products=None) -> bool:
        """Append (s, y), evicting the oldest pair if full, iff the
        cautious condition holds.  Returns whether the pair was admitted.

        ``products`` are s.s, y.s and y.y as Python floats when the caller
        has formed them, as :func:`try_add_stacked` does for a batch; with
        the bits of the one-dimensional ``@``, which the rows of a stacked
        ``np.vecdot`` have, the result is the same bit for bit."""
        s = self._check(s, "s")
        y = self._check(y, "y")
        ss, ys, yy = (float(s @ s), float(y @ s), None) if products is None else products
        # s = 0 passes the printed inequality (0 >= 0) but makes 1/(y.s)
        # undefined, so it is rejected before the test.
        if ss == 0.0 or not math.isfinite(ys) or ys < self.epsilon * ss:
            return False
        start = self._start or self.capacity
        if not self._start:  # at the top: the newest M - 1 rows go to the bottom
            kept = self._pairs[:start - 1]
            self._sy[start:], self._inv_ys[start:] = self._sy[:start - 1], self._inv_ys[:start - 1]
            self._pairs = [(*self._rows[start + j], pair[2]) for j, pair in enumerate(kept)]
        self._start = start = start - 1
        (s_row, y_row), self._inv_ys[start] = self._rows[start], 1.0 / ys
        s_row[...], y_row[...] = s, y
        self._pairs.insert(0, (s_row, y_row, self._inv_ys[start].item()))
        del self._pairs[self.capacity:]
        self._gamma = ys / (float(y @ y) if yy is None else yy)
        return True

    def gamma(self) -> float:
        """Scaling of the initial matrix H0 = gamma * I (1.0 when empty).

        gamma = s.y / y.y of the newest pair, cached when that pair is
        admitted: the newest pair is never the one evicted, so the cache
        cannot go stale."""
        return self._gamma

    def apply(self, v, out=None) -> np.ndarray:
        """Return (H + rho*I) v via the two-loop recursion.

        ``v`` is one ``(d,)`` vector or an ``(m, d)`` block of them.  A
        block runs one recursion over its rows: each dot is one BLAS ddot
        per row (``np.vecdot``), and each update multiplies a row's
        coefficient into the pair (``np.multiply.outer``), so row ``i`` of
        the result is bit-identical to the call on ``v[i]`` alone.  The
        result is written to ``out`` when given, which may be ``v`` itself.
        It is kept apart from :func:`apply_stacked`, which is slower on one
        memory.
        """
        v = np.asarray(v, dtype=float)
        if v.shape[-1:] != (self.dim,) or v.ndim > 2:
            raise ValueError(f"v must have shape ({self.dim},) or (m, {self.dim}), got {v.shape}")
        shift = self.rho * v if self.rho != 0.0 else None  # before an in-place q overwrites v
        if out is None:
            q = v.copy()
        else:
            q = out
            if q is not v:
                q[...] = v
        tmp = np.empty_like(q) if self._pairs else None  # each step's update, in one buffer
        alphas = []
        for s, y, inv_ys in self._pairs:  # newest first
            a = inv_ys * np.vecdot(s, q)
            q -= np.multiply.outer(a, y, out=tmp)
            alphas.append(a)
        r = np.multiply(q, self._gamma, out=q)
        for (s, y, inv_ys), a in zip(reversed(self._pairs), reversed(alphas)):
            b = inv_ys * np.vecdot(y, r)
            r += np.multiply.outer(a - b, s, out=tmp)
        if shift is not None:
            r += shift
        return r


def try_add_stacked(memories, s, y) -> list:
    """``memories[i].try_add(s[i], y[i])`` for every row ``i`` of the
    ``(k, d)`` stacks s and y, bit for bit: s.s, y.s and y.y of all rows
    come from one ``np.vecdot`` call each, whose rows are one BLAS ddot
    each, as the one-dimensional ``@`` is.  Returns whether each pair was
    admitted."""
    ss, ys, yy = (np.vecdot(a, b).tolist() for a, b in ((s, s), (y, s), (y, y)))
    return [mem.try_add(s_row, y_row, products)
            for mem, s_row, y_row, *products in zip(memories, s, y, ss, ys, yy)]


STACKED_MAX_DIM = 512
STACKED_MIN_BATCH = 3


def apply_stacked(memories, vectors, out=None) -> np.ndarray:
    """``(H_i + rho_i*I) v`` for each vector ``v`` in ``vectors[i]``.

    ``vectors`` has shape ``(k, m, d)``, and item ``i`` is applied through
    ``memories[i]``; the memories share ``d`` and ``M``.  Every result row
    is bit-identical to ``memories[i].apply(v)``: each dot is one BLAS ddot
    per (item, vector), as in the one-dimensional recursion, and the
    elementwise steps are the same.  A memory with fewer pairs is left
    untouched at the positions it lacks, never updated with a zero pair,
    which would turn a -0.0 into +0.0.  The result is written to ``out``
    when given, which may be ``vectors`` itself.

    Stacking pays while the fixed cost of each numpy call dominates, so
    the choice is by input size: a batch of fewer than
    ``STACKED_MIN_BATCH`` memories, or one above ``STACKED_MAX_DIM``, is
    applied as one block per memory through :meth:`LbfgsMemory.apply`
    instead.  On a 2-core host with M = 3 and m = 2 (best of 25 runs, two
    sessions), the stacked recursion took 1.8, 1.0, 0.75, 0.6 and 0.3 times
    the per-memory time at d = 100 and k = 1, 2, 3, 4 and 10; 1.1 to 1.3
    and 0.9 to 1.0 times at d = 500 and k = 2 and 3; 1.2 to 1.4 and 0.9 to
    1.1 times at d = 1500 and k = 2 and 10.
    """
    vectors = np.asarray(vectors, dtype=float)
    if out is None:
        out = np.empty_like(vectors)
    if len(memories) < STACKED_MIN_BATCH or memories[0].dim > STACKED_MAX_DIM:
        for i, mem in enumerate(memories):
            row = out[i]
            mem.apply(row if out is vectors else vectors[i], out=row)
        return out
    rho = np.array([mem.rho for mem in memories])
    shift = rho[:, None, None] * vectors if rho.any() else None  # before q overwrites vectors
    q = out
    if q is not vectors:
        q[...] = vectors
    fill = np.array([len(mem) for mem in memories])
    # pair j of every memory is row j of its window; rows past its fill are masked
    rows = [slice(mem._start, mem._start + mem.capacity) for mem in memories]
    sy = np.array([mem._sy[at] for mem, at in zip(memories, rows)])[:, :, :, None, :]
    s, y = sy[:, :, 0], sy[:, :, 1]
    inv_ys = np.array([mem._inv_ys[at] for mem, at in zip(memories, rows)])[:, :, None]
    tmp = np.empty_like(q)
    alphas = []
    for j in range(fill.max()):  # newest pair first
        has = True if fill.min() > j else (fill > j)[:, None, None]
        a = inv_ys[:, j] * np.vecdot(s[:, j], q)
        np.multiply(a[..., None], y[:, j], out=tmp)
        np.subtract(q, tmp, out=q, where=has)
        alphas.append(a)
    gamma = np.array([mem._gamma for mem in memories])
    r = np.multiply(gamma[:, None, None], q, out=q)
    for j in reversed(range(len(alphas))):
        has = True if fill.min() > j else (fill > j)[:, None, None]
        b = inv_ys[:, j] * np.vecdot(y[:, j], r)
        np.multiply((alphas[j] - b)[..., None], s[:, j], out=tmp)
        np.add(r, tmp, out=r, where=has)
    if shift is not None:
        np.add(r, shift, out=r, where=(rho != 0.0)[:, None, None])
    return r
