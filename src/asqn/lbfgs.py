"""Bounded-memory inverse-Hessian approximation with cautious admission.

The memory is a FIFO of the last M (s, y) = (iterate difference, gradient
difference) pairs.  Products H v are computed with the two-loop recursion
in O(M d) time and space; the d x d matrix is never materialized.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, check_count


class LbfgsMemory:
    """FIFO curvature store of capacity M.

    Pairs are admitted only when y.s >= epsilon * ||s||^2 (inclusive, with
    zero-s pairs rejected outright), which keeps the implied matrix
    positive definite even on non-convex problems.  ``rho`` adds a rho*I
    shift on top of the two-loop product for numerical stabilization.
    """

    def __init__(self, dim: int, capacity: int, epsilon: float = 1e-8, rho: float = 0.0):
        check_count("capacity", capacity)
        if not epsilon > 0:
            raise ConfigError(f"epsilon must be positive, got {epsilon}")
        if not rho >= 0:
            raise ConfigError(f"rho must be nonnegative, got {rho}")
        check_count("dim", dim, minimum=0)
        self.dim = int(dim)
        self.capacity = int(capacity)
        self.epsilon = float(epsilon)
        self.rho = float(rho)
        # copies of the admitted (s, y) with 1/(y.s) as a Python float, newest first
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
        self._pairs.insert(0, (s.copy(), y.copy(), 1.0 / ys))
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
        coefficient into the pair, so row ``i`` of the result is
        bit-identical to the call on ``v[i]`` alone.  The result is written
        to ``out`` when given, which may be ``v`` itself.
        """
        v = np.asarray(v, dtype=float)
        if v.shape[-1:] != (self.dim,) or v.ndim > 2:
            raise ValueError(f"v must have shape ({self.dim},) or (m, {self.dim}), got {v.shape}")
        shift = self.rho * v if self.rho != 0.0 else None  # before an in-place out overwrites v
        r = _two_loop(self._pairs, self._gamma, v, np.empty_like(v) if out is None else out)
        if shift is not None:
            r += shift
        return r


def _two_loop(pairs, gamma, v, out):
    """H v, written to ``out`` (which may be ``v``), for the ``pairs``
    (s, y, 1/(y.s)), newest first, and H0 = gamma * I.  It serves one
    memory, with ``(d,)`` pairs and a ``(d,)`` or ``(m, d)`` v, and a stack
    of k memories, with ``(k, 1, d)`` pairs and a ``(k, m, d)`` v, over
    which 1/(y.s) and gamma broadcast.  Each dot is one BLAS ddot per row."""
    q = out
    if q is not v:
        q[...] = v
    tmp = np.empty_like(q) if pairs else None  # each step's update, in one buffer
    alphas = []
    for s, y, inv_ys in pairs:
        a = inv_ys * np.vecdot(s, q)
        q -= np.multiply(a[..., None], y, out=tmp)
        alphas.append(a)
    r = np.multiply(q, gamma, out=q)
    for (s, y, inv_ys), a in zip(reversed(pairs), reversed(alphas)):
        b = inv_ys * np.vecdot(y, r)
        r += np.multiply((a - b)[..., None], s, out=tmp)
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

    ``vectors`` has shape ``(k, m, d)``; item ``i`` is applied through
    ``memories[i]``, and every result row is bit-identical to
    ``memories[i].apply(v)``, which runs the same :func:`_two_loop`.  The
    result is written to ``out`` when given, which may be ``vectors``.

    Only alike memories, all holding the same number of pairs, are
    stacked, and only while the fixed cost of each numpy call dominates:
    at least ``STACKED_MIN_BATCH`` memories of a d at most
    ``STACKED_MAX_DIM``.  Any other batch is applied one block per memory
    through :meth:`LbfgsMemory.apply`.  On a 2-core host with M = 3 and
    m = 2 (best of 25 interleaved runs, two sessions), the stacked
    recursion took 0.90, 0.70, 0.55 and 0.33 times the per-memory time at
    d = 100 and k = 2, 3, 4 and 10; 1.14, 0.94 to 0.95, 0.72 to 0.84 and
    0.47 to 0.56 times at d = 500; and 1.1 to 1.5 times at d = 1500.
    """
    vectors = np.asarray(vectors, dtype=float)
    if out is None:
        out = np.empty_like(vectors)
    if (len(memories) < STACKED_MIN_BATCH or memories[0].dim > STACKED_MAX_DIM
            or len({len(mem) for mem in memories}) > 1):
        for i, mem in enumerate(memories):
            row = out[i]
            mem.apply(row if out is vectors else vectors[i], out=row)
        return out
    rho = np.array([mem.rho for mem in memories])
    shift = rho[:, None, None] * vectors if rho.any() else None  # before out overwrites vectors
    k, n, d = len(memories), len(memories[0]), vectors.shape[-1]
    # pair j of memory i, newest first, goes to [i, j]
    pairs = [pair for mem in memories for pair in mem._pairs]
    sy = np.array([v for pair in pairs for v in pair[:2]]).reshape(k, n, 2, 1, d)
    inv_ys = np.array([pair[2] for pair in pairs]).reshape(k, n, 1)
    gamma = np.array([mem._gamma for mem in memories]).reshape(k, 1, 1)
    r = _two_loop([(sy[:, j, 0], sy[:, j, 1], inv_ys[:, j]) for j in range(n)], gamma,
                  vectors, out)
    if shift is not None:
        np.add(r, shift, out=r, where=(rho != 0.0)[:, None, None])
    return r
