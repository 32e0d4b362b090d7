"""Empirical covariance, per-model projection fits, and the Kronecker-free
fourth-moment trace that drives the data-driven penalty.

The process is assumed centred, so the empirical covariance is
S = (1/n) sum_i x_i x_i^T with no mean subtraction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import frob_norm_sq, require_finite


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


def _check_grid(samples, model):
    if samples.grid.shape != model.grid.shape or not np.array_equal(samples.grid, model.grid):
        raise ValueError("model grid does not match sample grid")


def project(s, model):
    """The estimate of one model: P S P, symmetrised."""
    proj = model.projector
    shat = proj @ s @ proj
    return 0.5 * (shat + shat.T)


def fit_all(samples, s, collection):
    """Empirical loss and fourth-moment trace of every model, as two arrays
    in collection order.

    Each model is fitted in the coordinates W = X U of its orthonormal basis
    U (p x r), so no projector is formed:

    * loss = (1/n) sum_i ||x_i x_i^T - P S P||^2, via the expansion
      (1/n) sum_i ||x_i||^4 - ||P S P||^2, valid because P = U U^T is an
      orthogonal projector, with ||P S P||^2 = ||U^T S U||^2
    * trace = Tr((P kron P) F) for F the empirical covariance of vec(x x^T),
      via (1/n) sum_i ||P x_i||^4 - ||P S P||^2 with ||P x_i||^2 the squared
      norm of row i of W, without forming any p^2 x p^2 matrix

    Cost O(n p r + p^2 r) per model of rank r; the direct residual sum and
    the dense route are checked in `covsel._reference`.
    """
    row_sq = np.einsum("ij,ij->i", samples.data, samples.data)
    const = float(np.mean(row_sq ** 2))
    loss = np.empty(len(collection))
    trace = np.empty(len(collection))
    for j, model in enumerate(collection):
        _check_grid(samples, model)
        u = model.basis
        fit_sq = frob_norm_sq(u.T @ s @ u)
        w = samples.data @ u
        proj_sq = np.einsum("ij,ij->i", w, w)
        loss[j] = const - fit_sq
        trace[j] = float(np.mean(proj_sq ** 2)) - fit_sq
    return loss, trace
