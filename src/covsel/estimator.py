"""Empirical covariance, per-model projection fits, and the Kronecker-free
fourth-moment trace that drives the data-driven penalty.

The process is assumed centred, so the empirical covariance is
S = (1/n) sum_i x_i x_i^T with no mean subtraction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._kernels import chains, gram, model_stats_batch
from .linalg import require_finite


@dataclass(frozen=True, eq=False)
class SampleSet:
    """n replications observed on a fixed, strictly increasing grid of p points."""

    grid: np.ndarray = field(repr=False)
    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        grid = require_finite(np.asarray(self.grid, dtype=float), "grid")
        data = require_finite(np.asarray(self.data, dtype=float), "data")
        if grid.ndim != 1:
            raise ValueError("grid must be 1-d")
        if data.ndim != 2:
            raise ValueError("data must be an n x p matrix")
        if data.shape[1] != grid.size:
            raise ValueError(f"data has {data.shape[1]} columns but grid has {grid.size} points")
        if data.shape[0] < 2:
            raise ValueError("need at least n = 2 replications")
        if grid.size < 1:
            raise ValueError("need at least p = 1 grid point")
        if grid.size > 1 and not np.all(np.diff(grid) > 0):
            raise ValueError("grid must be strictly increasing")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "data", np.ascontiguousarray(data))

    @property
    def n(self):
        return self.data.shape[0]

    @property
    def p(self):
        return self.data.shape[1]


def empirical_cov(samples):
    """Empirical covariance S = (1/n) sum_i x_i x_i^T (no mean subtraction)."""
    x = samples.data
    s = x.T @ x / samples.n
    return 0.5 * (s + s.T)


def estimate(samples, model):
    """The estimate of one model, P S P = U C U^T with C = W^T W / n and
    W = X U, symmetrised; C is `_kernels.gram`, summed over row blocks of X,
    and neither S nor P is formed."""
    u = model.basis
    shat = u @ gram(samples.data[None], u)[0] @ u.T
    return 0.5 * (shat + shat.T)


def fit_all(samples, models):
    """Empirical loss and fourth-moment trace of each of `models` (in any
    order), as two arrays, from `_kernels.model_stats_batch` on one
    replication; no projector is formed. For a model with projector P:

    * loss = (1/n) sum_i ||x_i x_i^T - P S P||^2 = (1/n) sum_i ||x_i||^4 -
      ||P S P||^2, as P is an orthogonal projector
    * trace = Tr((P kron P) F) for F the empirical covariance of vec(x x^T)
      = (1/n) sum_i ||P x_i||^4 - ||P S P||^2

    `covsel._reference` checks the direct residual sum and the dense route.
    """
    models = tuple(models)
    grids = {id(model.grid): model.grid for model in models}  # each compared once
    if not all(np.array_equal(samples.grid, grid) for grid in grids.values()):
        raise ValueError("model grid does not match sample grid")
    (norm4,), (proj_norm4,), (fit_sq,) = model_stats_batch(samples.data[None], *chains(models))
    return norm4 - fit_sq, proj_norm4 - fit_sq
