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
    Each pair is kept as its own ``(2, d)`` block, rows s and y, with
    1/(y.s), so :func:`apply_stacked` gathers whole blocks.
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
        # the admitted pairs, newest first, each (s, y, 1/(y.s), block):
        # block is the memory's own (2, d) copy of the pair, s and y are
        # its rows, which the two-loop reads, and 1/(y.s) is a Python float
        self._pairs: list = []
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
        cautious condition holds.  Returns whether the pair was admitted;
        the memory keeps a (2, d) copy of it."""
        s = self._check(s, "s")
        y = self._check(y, "y")
        ys = float(y @ s)
        if not self._admits(float(s @ s), ys):
            return False
        self._insert(np.array((s, y)), ys, float(y @ y))
        return True

    def _admits(self, ss, ys) -> bool:
        """The cautious test on s.s and y.s.  s = 0 passes the printed
        inequality (0 >= 0) but makes 1/(y.s) undefined, so it is rejected
        before the test."""
        return not (ss == 0.0 or not math.isfinite(ys) or ys < self.epsilon * ss)

    def _insert(self, block, ys, yy):
        """Make the (2, d) block (s, y), an array of its own that the
        memory keeps, the newest pair, evicting the oldest if full; ``ys``
        and ``yy`` are y.s and y.y as Python floats."""
        self._pairs.insert(0, (block[0], block[1], 1.0 / ys, block))
        del self._pairs[self.capacity:]
        self._gamma = ys / yy

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
    (s, y, 1/(y.s), block), newest first, and H0 = gamma * I; the block,
    whose rows are s and y, is not read here.  It serves one memory, with
    ``(d,)`` pairs and a ``(d,)`` or ``(m, d)`` v, and a stack of k
    memories, with ``(k, 1, d)`` pairs and a ``(k, m, d)`` v, over which
    1/(y.s) and gamma broadcast.  Each dot is one BLAS ddot per row."""
    q = out
    if q is not v:
        q[...] = v
    tmp = np.empty_like(q) if pairs else None  # each step's update, in one buffer
    alphas = []
    for s, y, inv_ys, _ in pairs:
        a = inv_ys * np.vecdot(s, q)
        q -= np.multiply(a[..., None], y, out=tmp)
        alphas.append(a)
    r = np.multiply(q, gamma, out=q)
    for (s, y, inv_ys, _), a in zip(reversed(pairs), reversed(alphas)):
        b = inv_ys * np.vecdot(y, r)
        r += np.multiply((a - b)[..., None], s, out=tmp)
    return r


def try_add_stacked(memories, blocks) -> list:
    """``memories[i].try_add(s_i, y_i)`` for every ``(2, d)`` block
    ``(s_i, y_i)`` of the ``(k, 2, d)`` stack ``blocks``, as a stacked
    batch forms its pairs, bit for bit.  The shape is checked once for the
    batch, s.s, y.s and y.y of all blocks come from one ``np.vecdot`` call
    each, whose rows are one BLAS ddot each, as the one-dimensional ``@``
    is, and each admitted pair is kept as a copy of its own block, so no
    memory holds a view of the caller's stack.  Returns whether each pair
    was admitted."""
    blocks = np.asarray(blocks, dtype=float)
    if blocks.shape != (len(memories), 2, memories[0].dim):
        raise ValueError(f"the pairs of {len(memories)} memories must have shape "
                         f"({len(memories)}, 2, {memories[0].dim}), got {blocks.shape}")
    s, y = blocks[:, 0], blocks[:, 1]
    ss, ys, yy = (np.vecdot(a, b).tolist() for a, b in ((s, s), (y, s), (y, y)))
    admitted = []
    for mem, block, ss_i, ys_i, yy_i in zip(memories, blocks, ss, ys, yy):
        admitted.append(mem._admits(ss_i, ys_i))
        if admitted[-1]:
            mem._insert(block.copy(), ys_i, yy_i)
    return admitted


STACKED_MAX_DIM = 350
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
    m = 2 (best of 25 interleaved runs, gather included, one process per
    d), the stacked recursion took 0.66, 0.53 and 0.32 times the
    per-memory time at d = 100 and k = 3, 4 and 10; 0.71 to 0.89, 0.59 to
    0.67 and 0.39 to 0.49 times at d = 300; 0.70 to 0.88, 0.60 to 0.72 and
    0.52 to 0.53 times at d = 350; but at k = 10 0.83 to 0.97 at d = 375,
    0.56 to 0.99 at d = 400, 1.05 to 1.11 at d = 450 and 1.16 to 1.21 at d = 500,
    and 1.06 to 1.33 times at d = 1500.
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
    # pair j of memory i, newest first, goes to [i, j]: one (2, d) block each
    pairs = [pair for mem in memories for pair in mem._pairs]
    sy = np.array([pair[3] for pair in pairs]).reshape(k, n, 2, 1, d)
    inv_ys = np.array([pair[2] for pair in pairs]).reshape(k, n, 1)
    gamma = np.array([mem._gamma for mem in memories]).reshape(k, 1, 1)
    r = _two_loop([(sy[:, j, 0], sy[:, j, 1], inv_ys[:, j], sy[:, j]) for j in range(n)],
                  gamma, vectors, out)
    if shift is not None:
        np.add(r, shift, out=r, where=(rho != 0.0)[:, None, None])
    return r
