"""Optimization problems expressed as potentials with exact and subsampled gradients.

A model bundles its observed data and exposes the negative log posterior
(the "potential") together with the pieces needed for with-replacement
stochastic gradients: the prior gradient and likelihood-term sums over an
arbitrary index list.  Additive constants that do not depend on the
parameter (the 0.5*log(2*pi*sigma^2) terms) are dropped everywhere, on
both sides of any comparison against an optimum value.

All models are immutable after construction and every function here is
pure, so instances can be shared freely across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


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


def draw_subsample(rng: np.random.Generator, n_records: int, n_s: int, n_o: int) -> Subsample:
    """Draw S and O independently, uniformly with replacement.

    One draw of ``n_s + n_o`` indices is split into S and O.  Below 2**32
    numpy takes every bounded integer from the generator's persistent 32-bit
    stream and buffers nothing per call, so this is bit-identical to drawing
    S and then O with two calls, and leaves the generator in the same state.
    """
    if n_s < 1 or n_o < 1:
        raise ValueError(f"subsample parts must be nonempty, got n_s={n_s}, n_o={n_o}")
    drawn = rng.integers(0, n_records, size=n_s + n_o)
    return Subsample(s_indices=drawn[:n_s], o_indices=drawn[n_s:])


class LinearGaussianModel:
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

    def prior_potential(self, theta):
        return 0.5 * float(theta @ theta)

    def prior_gradient(self, theta):
        return theta.copy()

    def likelihood_potential_sum(self, theta, indices=None):
        a = self.features if indices is None else self.features[indices]
        y = self.targets if indices is None else self.targets[indices]
        r = a @ theta - y
        return 0.5 * float(r @ r) / self.noise_variance

    def likelihood_grad_sum(self, theta, indices=None):
        """Likelihood-gradient sum over ``indices`` (all records if None).

        ``indices`` of shape ``(k, n)`` give ``(k, d)``, row ``i`` being
        bit-identical to the call on ``indices[i]``: stacked matmul runs
        the same BLAS gemv once per batch item.
        """
        a = self.features if indices is None else self.features[indices]
        y = self.targets if indices is None else self.targets[indices]
        r = a @ theta - y
        return (r[..., None, :] @ a)[..., 0, :] / self.noise_variance

    def map_estimate(self):
        """Closed-form optimum (I + A^T A / sigma^2)^-1 A^T Y / sigma^2."""
        a, s2 = self.features, self.noise_variance
        return np.linalg.solve(np.eye(self.dim) + a.T @ a / s2, a.T @ self.targets / s2)


class MatrixFactorizationModel:
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
        if rank < 1:
            raise ConfigError(f"rank must be positive, got {rank}")
        if rows.min() < 0 or rows.max() >= n_rows or cols.min() < 0 or cols.max() >= n_cols:
            raise ConfigError("observed entry index out of bounds")
        self.rows = rows
        self.cols = cols
        self.values = values
        self.n_rows = int(n_rows)
        self.n_cols = int(n_cols)
        self.rank = int(rank)
        # packed position of F[r, k] is r*K + k, of G[k, c] is R*K + k*S + c
        self._k = np.arange(self.rank)
        self._g_offsets = self.n_rows * self.rank + self._k * self.n_cols

    @property
    def n_records(self) -> int:
        return len(self.values)

    @property
    def dim(self) -> int:
        return self.rank * (self.n_rows + self.n_cols)

    def unpack(self, theta):
        split = self.n_rows * self.rank
        f = theta[:split].reshape(self.n_rows, self.rank)
        g = theta[split:].reshape(self.rank, self.n_cols)
        return f, g

    def pack(self, f, g):
        return np.concatenate([f.ravel(), g.ravel()])

    def _check_dim(self, theta):
        if theta.shape != (self.dim,):
            raise ConfigError(f"expected parameter of shape ({self.dim},), got {theta.shape}")

    def predictions(self, theta, indices=None):
        f, g = self.unpack(theta)
        r = self.rows if indices is None else self.rows[indices]
        c = self.cols if indices is None else self.cols[indices]
        return np.einsum("ik,ki->i", f[r], g[:, c])

    def prior_potential(self, theta):
        return 0.5 * float(theta @ theta)

    def prior_gradient(self, theta):
        return theta.copy()

    def likelihood_potential_sum(self, theta, indices=None):
        y = self.values if indices is None else self.values[indices]
        r = self.predictions(theta, indices) - y
        return 0.5 * float(r @ r)

    def likelihood_grad_sum(self, theta, indices=None):
        """Likelihood-gradient sum over ``indices`` (all records if None).

        ``indices`` of shape ``(k, n)`` give ``(k, d)``, row ``i`` being
        bit-identical to the call on ``indices[i]``.
        """
        f, g = self.unpack(theta)
        r = self.rows if indices is None else self.rows[indices]
        c = self.cols if indices is None else self.cols[indices]
        y = self.values if indices is None else self.values[indices]
        lead = r.shape[:-1]
        fr, gc = f[r], g.T[c]
        resid = np.einsum("...k,...k->...", fr, gc) - y
        # One scatter straight into the packed layout, row i of a stack
        # offset by i*dim.  bincount adds each element's terms in index-list
        # order starting from 0.0, as np.add.at into zeros does, so the sums
        # are bit-identical to that formulation, row by row.
        flat = np.concatenate([r[..., None] * self.rank + self._k,
                               self._g_offsets + c[..., None]], axis=-2)
        terms = np.concatenate([resid[..., None] * gc, resid[..., None] * fr], axis=-2)
        if lead:
            flat += np.arange(0, lead[0] * self.dim, self.dim)[:, None, None]
        sums = np.bincount(flat.ravel(), weights=terms.ravel(),
                           minlength=math.prod(lead) * self.dim)
        return sums.reshape(*lead, self.dim)


def _check_theta(model, theta):
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (model.dim,):
        raise ConfigError(f"expected parameter of shape ({model.dim},), got {theta.shape}")
    return theta


def potential(model, theta) -> float:
    """U(theta) = -(log prior + sum of log likelihoods), constants dropped."""
    theta = _check_theta(model, theta)
    return model.prior_potential(theta) + model.likelihood_potential_sum(theta)


def full_gradient(model, theta) -> np.ndarray:
    """Exact gradient of the potential."""
    theta = _check_theta(model, theta)
    return model.prior_gradient(theta) + model.likelihood_grad_sum(theta)


def stochastic_gradient(model, theta, indices) -> np.ndarray:
    """Unbiased gradient estimate: prior term plus likelihood terms over
    the given index list rescaled by N_Y / |indices|."""
    theta = _check_theta(model, theta)
    indices = np.asarray(indices, dtype=np.intp)
    if indices.size == 0:
        raise ValueError("index list must be nonempty")
    if indices.min() < 0 or indices.max() >= model.n_records:
        raise ValueError("subsample index out of range")
    scale = model.n_records / indices.size
    return model.prior_gradient(theta) + scale * model.likelihood_grad_sum(theta, indices)


def combined_gradient(model, theta, sub: Subsample, with_overlap: bool = False):
    """Weighted S/O combination of stochastic gradients.

    The prior gradient enters exactly once; each part's likelihood sum is
    rescaled by N_Y/N_part and the parts are weighted by N_part/N_total,
    which collapses to the plain stochastic gradient on S and O together
    and keeps the estimator unbiased.

    A stacked subsample of ``k`` rows, all evaluated at ``theta``, gives
    ``(k, d)`` arrays whose row ``i`` is bit-identical to the call on that
    row's subsample alone.

    With ``with_overlap`` the O-part likelihood sum is reused to also
    return the stochastic gradient on O alone, as ``(combined, overlap)``;
    the overlap gradient is bit-identical to
    ``stochastic_gradient(model, theta, sub.o_indices)``.
    """
    theta = _check_theta(model, theta)
    if sub.n_s == 0 or sub.n_o == 0:
        raise ValueError("both subsample parts must be nonempty")
    scale = model.n_records / sub.n_total
    lik_s = model.likelihood_grad_sum(theta, sub.s_indices)
    lik_o = model.likelihood_grad_sum(theta, sub.o_indices)
    prior = model.prior_gradient(theta)
    combined = prior + scale * (lik_s + lik_o)
    if not with_overlap:
        return combined
    return combined, prior + (model.n_records / sub.n_o) * lik_o


def rmse(model: MatrixFactorizationModel, theta) -> float:
    """Root mean squared residual over the observed entries."""
    theta = _check_theta(model, theta)
    if model.n_records == 0:
        raise ValueError("model has no observed entries")
    resid = model.predictions(theta) - model.values
    return float(np.sqrt(np.mean(resid**2)))
