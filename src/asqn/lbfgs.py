"""Bounded-memory inverse-Hessian approximation with cautious admission.

The memory is a FIFO of the last M (s, y) = (iterate difference, gradient
difference) pairs.  Products H v are computed with the two-loop recursion
in O(M d) time and space; the d x d matrix is never materialized.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from .errors import ConfigError


class LbfgsMemory:
    """FIFO curvature store of capacity M.

    Pairs are admitted only when y.s >= epsilon * ||s||^2 (inclusive, with
    zero-s pairs rejected outright), which keeps the implied matrix
    positive definite even on non-convex problems.  ``rho`` adds a rho*I
    shift on top of the two-loop product for numerical stabilization.
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
        self._pairs: deque = deque(maxlen=capacity)
        self._gamma = 1.0

    def __len__(self) -> int:
        return len(self._pairs)

    @property
    def pairs(self):
        return list(self._pairs)

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
        self._pairs.append((s.copy(), y.copy(), 1.0 / ys))
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
        for s, y, inv_ys in reversed(self._pairs):
            a = inv_ys * float(s @ q)
            q -= a * y
            alphas.append(a)
        r = self._gamma * q
        for (s, y, inv_ys), a in zip(self._pairs, reversed(alphas)):
            b = inv_ys * float(y @ r)
            r += (a - b) * s
        if self.rho != 0.0:
            r += self.rho * v
        return r

