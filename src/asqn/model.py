"""Optimization problems expressed as potentials with exact and subsampled gradients.

A model bundles its observed data and exposes the negative log posterior
(the "potential"; ``evaluate`` gives it with the RMSE, where the model
has one, from one residual) together with the pieces needed for
with-replacement stochastic gradients: the prior gradient and
likelihood-term sums over an arbitrary index list.  Additive constants
that do not depend on the parameter (the 0.5*log(2*pi*sigma^2) terms)
are dropped everywhere, on both sides of any comparison against an
optimum value.

All models are immutable after construction and every function here is
pure, so instances can be shared freely across workers; the only state a
model adds later is a cache of index offsets that depend on shapes alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, check_count


@dataclass(frozen=True)
class Subsample:
    """A with-replacement data subsample split into a large part S and a
    small overlapping part O used for consistent gradient differences.

    The index arrays have shape ``(n,)``, or ``(k, n)`` for ``k`` subsamples
    stacked row by row; the sizes below count indices along the last axis.
    """

    s_indices: np.ndarray
    o_indices: np.ndarray

    @property
    def n_s(self) -> int:
        return self.s_indices.shape[-1]

    @property
    def n_o(self) -> int:
        return self.o_indices.shape[-1]

    @property
    def n_total(self) -> int:
        return self.n_s + self.n_o

    @property
    def combined(self) -> np.ndarray:
        return np.concatenate([self.s_indices, self.o_indices], axis=-1)


def draw_indices(rng: np.random.Generator, n_records: int, size) -> np.ndarray:
    """Record indices drawn uniformly with replacement, in an array of
    shape ``size``: the one draw behind every subsample, whose ``n_s + n_o``
    indices along the last axis are S, then O.

    Below 2**32 numpy takes every bounded integer from the generator's
    persistent 32-bit stream and buffers nothing per call, so one draw of
    several rows, or of S and O together, is bit-identical to drawing them
    one call at a time, and leaves the generator in the same state.
    """
    return rng.integers(0, n_records, size=size)


def draw_subsample(rng: np.random.Generator, n_records: int, n_s: int, n_o: int) -> Subsample:
    """Draw S and O independently, uniformly with replacement: one
    :func:`draw_indices` row of ``n_s + n_o`` indices, split into S and O.
    """
    if n_s < 1 or n_o < 1:
        raise ValueError(f"subsample parts must be nonempty, got n_s={n_s}, n_o={n_o}")
    drawn = draw_indices(rng, n_records, n_s + n_o)
    return Subsample(s_indices=drawn[:n_s], o_indices=drawn[n_s:])


class UnitGaussianPrior:
    """The N(0, I) prior that both models put on their parameter."""

    def prior_potential(self, theta):
        return 0.5 * float(theta @ theta)

    def prior_gradient(self, theta):
        """theta itself, not a copy: every caller only reads it."""
        return theta


class LinearGaussianModel(UnitGaussianPrior):
    """MAP estimation for theta ~ N(0, I), Y_i | theta ~ N(a_i . theta, sigma^2).

    Potential: 0.5*||theta||^2 + ||A theta - Y||^2 / (2 sigma^2), constants dropped.
    """

    def __init__(self, features: np.ndarray, targets: np.ndarray, noise_variance: float):
        features = np.atleast_2d(np.asarray(features, dtype=float))
        targets = np.asarray(targets, dtype=float).ravel()
        if features.shape[0] != targets.shape[0]:
            raise ConfigError(
                f"feature rows ({features.shape[0]}) != target count ({targets.shape[0]})"
            )
        if features.shape[0] < 1:
            raise ConfigError("need at least one observation")
        if noise_variance <= 0:
            raise ConfigError(f"noise variance must be positive, got {noise_variance}")
        self.features = features
        self.targets = targets
        self.noise_variance = float(noise_variance)

    @property
    def n_records(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def evaluate(self, theta):
        """``(potential, None)`` at ``theta``: the model has no RMSE."""
        r = self.features @ theta - self.targets
        return self.prior_potential(theta) + 0.5 * float(r @ r) / self.noise_variance, None

    def likelihood_grad_sum(self, theta, indices=None):
        """Likelihood-gradient sum over ``indices`` (all records if None).

        ``indices`` of shape ``(k, n)`` give ``(k, d)``, row ``i`` being
        bit-identical to the call on ``indices[i]``: stacked matmul runs
        the same BLAS gemv once per batch item.  With them ``theta`` may
        also be ``(k, d)``, row ``i`` of the result then taken at
        ``theta[i]``.
        """
        a = self.features if indices is None else self.features[indices]
        y = self.targets if indices is None else self.targets[indices]
        r = (a @ theta if theta.ndim == 1 else (a @ theta[:, :, None])[..., 0]) - y
        # matmul runs a 1-D r as the row (1, n), as it runs each stacked row
        return (r @ a if r.ndim == 1 else (r[..., None, :] @ a)[..., 0, :]) / self.noise_variance

    def likelihood_grad_sums(self, theta, parts):
        """One :meth:`likelihood_grad_sum` per index array in ``parts``.

        Each sum is a BLAS product over its own part's rows, which one
        product over the concatenated parts would not reproduce bit for
        bit, so the parts are evaluated one call each.
        """
        return [self.likelihood_grad_sum(theta, indices) for indices in parts]

    def map_estimate(self):
        """Closed-form optimum (I + A^T A / sigma^2)^-1 A^T Y / sigma^2."""
        a, s2 = self.features, self.noise_variance
        return np.linalg.solve(np.eye(self.dim) + a.T @ a / s2, a.T @ self.targets / s2)


# offset entries a matrix-factorization model keeps over all shapes (8 MB)
OFFSETS_CACHED = 2**20


class MatrixFactorizationModel(UnitGaussianPrior):
    """Probabilistic matrix factorization with unit-variance Gaussian priors.

    Y_rs | F, G ~ N(sum_k F_rk G_ks, 1) over the observed entries only.
    The flat parameter packs row-major F (R x K) followed by row-major
    G (K x S); pack/unpack are exact inverses.
    """

    def __init__(self, rows, cols, values, n_rows: int, n_cols: int, rank: int):
        rows = np.asarray(rows, dtype=np.intp)
        cols = np.asarray(cols, dtype=np.intp)
        values = np.asarray(values, dtype=float)
        if not (len(rows) == len(cols) == len(values)):
            raise ConfigError("rows, cols, values must have equal length")
        if len(rows) < 1:
            raise ConfigError("need at least one observed entry")
        for name, count in (("n_rows", n_rows), ("n_cols", n_cols), ("rank", rank)):
            check_count(name, count)
        if rows.min() < 0 or rows.max() >= n_rows or cols.min() < 0 or cols.max() >= n_cols:
            raise ConfigError("observed entry index out of bounds")
        self.rows = rows
        self.cols = cols
        self.values = values
        self.n_rows = int(n_rows)
        self.n_cols = int(n_cols)
        self.rank = int(rank)
        # packed position of F[r, k] is r*K + k, of G[k, c] is R*K + k*S + c
        self._rc = np.stack([rows * self.rank, cols], axis=-1)
        self._k = np.arange(self.rank)
        self._g_offsets = self.n_rows * self.rank + self._k * self.n_cols
        self._offset_cache: dict = {}  # see _offsets
        self._offsets_cached = 0

    @property
    def n_records(self) -> int:
        return len(self.values)

    @property
    def dim(self) -> int:
        return self.rank * (self.n_rows + self.n_cols)

    def unpack(self, theta):
        """(F, G) views of a ``(d,)`` parameter, or ``(k, R, K)`` and
        ``(k, K, S)`` stacks of a ``(k, d)`` one."""
        split = self.n_rows * self.rank
        lead = theta.shape[:-1]
        f = theta[..., :split].reshape(*lead, self.n_rows, self.rank)
        g = theta[..., split:].reshape(*lead, self.rank, self.n_cols)
        return f, g

    def pack(self, f, g):
        return np.concatenate([f.ravel(), g.ravel()])

    def predictions(self, theta, indices=None):
        f, g = self.unpack(theta)
        r = self.rows if indices is None else self.rows[indices]
        c = self.cols if indices is None else self.cols[indices]
        # the gathers of synth_matrix_factorization: np.take is the faster,
        # and rows of g.T keep the column-major layout of g[:, c], which
        # sets einsum's summation order
        return np.einsum("ik,ki->i", np.take(f, r, axis=0), np.take(g.T, c, axis=0).T)

    def evaluate(self, theta):
        """``(potential, rmse)`` at ``theta``, both from one residual over
        every observed entry."""
        r = self.predictions(theta) - self.values
        return self.prior_potential(theta) + 0.5 * float(r @ r), float(np.sqrt(np.mean(r**2)))

    def likelihood_grad_sum(self, theta, indices=None):
        """Likelihood-gradient sum over ``indices`` (all records if None).

        ``indices`` of shape ``(k, n)`` give ``(k, d)``, row ``i`` being
        bit-identical to the call on ``indices[i]``.  With them ``theta``
        may also be ``(k, d)``, row ``i`` then taken at ``theta[i]``.
        """
        if indices is None:
            indices = np.arange(self.n_records)
        return self.likelihood_grad_sums(theta, [indices])[0]

    def likelihood_grad_sums(self, theta, parts):
        """One :meth:`likelihood_grad_sum` per index array in ``parts``, in
        one gather and one scatter over the concatenated parts.

        The parts share their leading shape, ``()`` or ``(k,)``, and may
        differ in length along their last axis.  Each sum is bit-identical
        to the call on its part alone.
        """
        idx = np.concatenate(parts, axis=-1)
        gather, scatter = self._offsets(tuple(np.shape(indices)[-1] for indices in parts),
                                        idx.shape[:-1], theta.ndim)
        # each record's F row and G column factors, side by side: (..., n, 2, K)
        rc = np.take(self._rc, idx, axis=0)[..., None]
        factors = theta.reshape(-1)[rc + gather]
        resid = np.einsum("...k,...k->...", factors[..., 0, :], factors[..., 1, :])
        resid -= self.values[idx]
        # One scatter straight into the packed layout, each (part, row)
        # into its own block of dim bins: F terms resid * G column, G terms
        # resid * F row.  bincount adds each bin's terms in index-list order
        # starting from 0.0, as np.add.at into zeros does, and a bin only
        # receives the terms of one part and row, so every sum is
        # bit-identical to that formulation on its part alone.
        terms = resid[..., None, None] * factors[..., ::-1, :]
        lead = idx.shape[:-1]
        sums = np.bincount((rc + scatter).ravel(), weights=terms.ravel(),
                           minlength=len(parts) * math.prod(lead) * self.dim)
        return list(sums.reshape(len(parts), *lead, self.dim))

    def _offsets(self, lengths, lead, theta_ndim):
        """The offsets that likelihood_grad_sums adds to each record's
        ``(r K, c)``, for parts of ``lengths`` with leading shape ``lead``
        and a parameter of ``theta_ndim`` dimensions.

        ``gather`` gives the flat positions in theta of F[r, k] (r K + k)
        and G[k, c] (R K + k S + c), row i of a stacked theta starting at
        i d; ``scatter`` the bins, one block of d per (part, row).  They
        depend only on the shapes, so each shape's are kept, up to
        OFFSETS_CACHED entries over all shapes."""
        key = (lengths, lead, theta_ndim)
        cached = self._offset_cache.get(key)
        if cached is not None:
            return cached
        n_rows = math.prod(lead)
        factor = np.stack([self._k, self._g_offsets])  # (2, K)
        row = np.arange(0, n_rows * self.dim, self.dim).reshape(*lead, 1, 1, 1)
        gather = row + factor if theta_ndim > 1 else factor
        part = np.repeat(np.arange(0, len(lengths) * n_rows * self.dim, n_rows * self.dim),
                         lengths)
        scatter = (part[:, None, None] + row) + factor
        if self._offsets_cached + scatter.size <= OFFSETS_CACHED:
            self._offset_cache[key] = gather, scatter
            self._offsets_cached += scatter.size
        return gather, scatter


def _check_theta(model, theta, lead=()):
    """A ``(d,)`` parameter, or ``lead + (d,)``: one per stacked index row."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (model.dim,) and theta.shape != (*lead, model.dim):
        raise ConfigError(f"expected parameter of shape ({model.dim},), got {theta.shape}")
    return theta


def potential(model, theta) -> float:
    """U(theta) = -(log prior + sum of log likelihoods), constants dropped."""
    return model.evaluate(_check_theta(model, theta))[0]


def full_gradient(model, theta) -> np.ndarray:
    """Exact gradient of the potential."""
    theta = _check_theta(model, theta)
    return model.prior_gradient(theta) + model.likelihood_grad_sum(theta)


def stochastic_gradient(model, theta, indices) -> np.ndarray:
    """Unbiased gradient estimate: prior term plus likelihood terms over
    the given index list rescaled by N_Y / |indices|.

    ``(k, n)`` indices give ``(k, d)``, one estimate per row, at ``theta``
    or at row ``i`` of a ``(k, d)`` ``theta``; row ``i`` is bit-identical
    to the call on that row alone.
    """
    indices = np.asarray(indices, dtype=np.intp)
    theta = _check_theta(model, theta, indices.shape[:-1])
    if indices.size == 0:
        raise ValueError("index list must be nonempty")
    if indices.min() < 0 or indices.max() >= model.n_records:
        raise ValueError("subsample index out of range")
    scale = model.n_records / indices.shape[-1]
    return model.prior_gradient(theta) + scale * model.likelihood_grad_sum(theta, indices)


def combined_gradient(model, theta, sub: Subsample, with_overlap: bool = False,
                      previous=None, out=None):
    """Weighted S/O combination of stochastic gradients.

    The prior gradient enters exactly once; each part's likelihood sum is
    rescaled by N_Y/N_part and the parts are weighted by N_part/N_total,
    which collapses to the plain stochastic gradient on S and O together
    and keeps the estimator unbiased.

    A stacked subsample of ``k`` rows, evaluated at ``theta`` or at row
    ``i`` of a ``(k, d)`` ``theta``, gives ``(k, d)`` arrays whose row ``i``
    is bit-identical to the call on that row alone.

    With ``with_overlap`` the O-part likelihood sum is reused to also
    return the stochastic gradient on O alone, as ``(combined, overlap)``;
    the overlap gradient is bit-identical to
    ``stochastic_gradient(model, theta, sub.o_indices)``.  ``previous``, an
    index array shaped like the S and O ones, adds a third item,
    bit-identical to ``stochastic_gradient(model, theta, previous)``.  All
    parts are evaluated in one ``likelihood_grad_sums`` call, whose sums
    are new arrays that this function scales in place.  The combined
    gradient is written to ``out`` when given.
    """
    theta = _check_theta(model, theta, sub.s_indices.shape[:-1])
    if sub.n_s == 0 or sub.n_o == 0:
        raise ValueError("both subsample parts must be nonempty")
    if previous is not None and not with_overlap:
        raise ValueError("previous needs with_overlap")
    return split_gradient(model, theta, sub.s_indices, sub.o_indices, with_overlap, previous,
                          out)


def split_gradient(model, theta, s_indices, o_indices, with_overlap=False, previous=None,
                   out=None):
    """:func:`combined_gradient` on the parts ``s_indices`` and ``o_indices``
    of a subsample, without its checks, which a worker's own draws at its
    own snapshot always pass: the index arrays may be slices of the rows a
    worker drew."""
    scale = model.n_records / (s_indices.shape[-1] + o_indices.shape[-1])
    parts = [s_indices, o_indices] + ([] if previous is None else [previous])
    lik_s, lik_o, *lik_previous = model.likelihood_grad_sums(theta, parts)
    prior = model.prior_gradient(theta)
    # prior + scale * (lik_s + lik_o), and prior + c * lik for the others
    lik_s += lik_o
    lik_s *= scale
    combined = np.add(prior, lik_s, out=out)
    if not with_overlap:
        return combined
    lik_o *= model.n_records / o_indices.shape[-1]
    overlap = np.add(prior, lik_o, out=lik_o)
    if previous is None:
        return combined, overlap
    (lik,) = lik_previous
    lik *= model.n_records / np.shape(previous)[-1]
    return combined, overlap, np.add(prior, lik, out=lik)


def rmse(model: MatrixFactorizationModel, theta) -> float:
    """Root mean squared residual over the observed entries."""
    return model.evaluate(_check_theta(model, theta))[1]
