"""Empirical covariance, per-model projection fits, and the Kronecker-free
fourth-moment trace that drives the data-driven penalty.

The process is assumed centred, so the empirical covariance is
S = (1/n) sum_i x_i x_i^T with no mean subtraction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import frob_norm_sq, projector_from_basis, require_finite


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


def project(s, model):
    """The estimate of one model: P S P, symmetrised."""
    proj = projector_from_basis(model.basis)
    shat = proj @ s @ proj
    return 0.5 * (shat + shat.T)


def fit_all(samples, s, models):
    """Empirical loss and fourth-moment trace of each of `models` (in any
    order), as two arrays; no projector is formed. Models whose bases are
    leading columns of one orthonormal table Q (a nested collection) form a
    chain and share one W = X Q. For the model of Q's first d columns, with
    projector P and C = Q^T S Q:

    * loss = (1/n) sum_i ||x_i x_i^T - P S P||^2 = (1/n) sum_i ||x_i||^4 -
      ||C[:d, :d]||^2, as P is an orthogonal projector
    * trace = Tr((P kron P) F) for F the empirical covariance of vec(x x^T)
      = (1/n) sum_i ||P x_i||^4 - ||C[:d, :d]||^2, where ||P x_i||^2 sums the
      first d squares of row i of W; cumulative sums give every d at once

    Cost O(n p r + p^2 r) per chain of width r; `covsel._reference` checks
    the direct residual sum and the dense route.
    """
    models, x = tuple(models), samples.data
    const = float(np.mean(np.einsum("ij,ij->i", x, x) ** 2))
    loss, trace = np.empty(len(models)), np.empty(len(models))
    grids = {id(model.grid): model.grid for model in models}  # each compared once
    if not all(np.array_equal(samples.grid, grid) for grid in grids.values()):
        raise ValueError("model grid does not match sample grid")
    chains = {}
    for j, model in enumerate(models):
        # one start address and one set of strides: leading columns of one table
        chains.setdefault((model.basis.ctypes.data, model.basis.strides), []).append(j)
    for members in chains.values():
        if len(members) == 1:  # a model of its own needs no cumulative sums
            (j,), u = members, models[members[0]].basis
            w, fit_sq = x @ u, frob_norm_sq(u.T @ s @ u)
            loss[j], trace[j] = const - fit_sq, np.mean(np.einsum("ij,ij->i", w, w) ** 2) - fit_sq
            continue
        q = max((models[j].basis for j in members), key=lambda u: u.shape[1])
        w = x @ q
        # row d-1 is ||P x_i||^2 over i; numpy means a contiguous row pairwise
        proj_sq = np.cumsum(np.ascontiguousarray((w * w).T), axis=0)
        c2 = np.square(q.T @ s @ q)
        fit_sq = np.cumsum(np.tril(c2).sum(axis=1) + np.triu(c2, 1).sum(axis=0))
        d = np.array([models[j].rank for j in members]) - 1
        loss[members] = const - fit_sq[d]
        trace[members] = np.mean(proj_sq ** 2, axis=1)[d] - fit_sq[d]
    return loss, trace
