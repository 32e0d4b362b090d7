"""Empirical covariance, per-model projection fits, and the Kronecker-free
fourth-moment trace that drives the data-driven penalty.

The process is assumed centred, so the empirical covariance is
S = (1/n) sum_i x_i x_i^T with no mean subtraction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ._kernels import chains, finish_stats, model_stats_batch
from .linalg import require_finite


def check_grid(grid):
    """`grid` as a float array; ValueError unless it is finite, 1-d,
    nonempty and strictly increasing."""
    grid = require_finite(np.asarray(grid, dtype=float), "grid")
    if grid.ndim != 1:
        raise ValueError("grid must be 1-d")
    if grid.size < 1:
        raise ValueError("need at least p = 1 grid point")
    if grid.size > 1 and not np.all(np.diff(grid) > 0):
        raise ValueError("grid must be strictly increasing")
    return grid


@dataclass(frozen=True, eq=False)
class SampleSet:
    """n replications observed on a fixed, strictly increasing grid of p points."""

    grid: np.ndarray = field(repr=False)
    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        grid = check_grid(self.grid)
        data = require_finite(np.asarray(self.data, dtype=float), "data")
        if data.ndim != 2:
            raise ValueError("data must be an n x p matrix")
        if data.shape[1] != grid.size:
            raise ValueError(f"data has {data.shape[1]} columns but grid has {grid.size} points")
        if data.shape[0] < 2:
            raise ValueError("need at least n = 2 replications")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "data", np.ascontiguousarray(data))

    @property
    def n(self):
        return self.data.shape[0]

    @property
    def p(self):
        return self.data.shape[1]


class Fit(NamedTuple):
    """What `fit_all` computes: each model's empirical loss and fourth-moment
    trace, the number n of replications, and the Gram C = W^T W / n of each
    model table, keyed by id(table)."""

    loss: np.ndarray
    trace: np.ndarray
    n: int
    grams: dict


def empirical_cov(samples):
    """Empirical covariance S = (1/n) sum_i x_i x_i^T (no mean subtraction)."""
    x = samples.data
    s = x.T @ x / samples.n
    return 0.5 * (s + s.T)


def sigma_hat(fit, model):
    """The estimate P S P of `model` from `fit`: U C[K, K] U^T, for C the
    Gram of model.table and K model.columns, symmetrised in place with the
    bytes of 0.5 * (s + s.T). Neither S nor P is formed."""
    c = fit.grams[id(model.table)][np.ix_(model.columns, model.columns)]
    u = model.basis
    s = u @ c @ u.T
    # one row and column pair at a time: `s += s.T` would first copy s.T,
    # which overlaps its output, into a second p x p array
    for i in range(len(s)):
        pair = s[i, i:] + s[i:, i]
        pair *= 0.5
        s[i, i:] = pair
        s[i:, i] = pair
    return s


def estimate(samples, model):
    """The estimate P S P of one model, as `select` writes it: `sigma_hat` of
    the model's fit."""
    return sigma_hat(fit_all(samples, [model]), model)


def fit_all(samples, models):
    """The `Fit` of `models` (in any order) to `samples`, in one pass over
    the rows: a (grid, blocks) pair whose blocks are the (rows, p) row
    blocks of `_kernels.block_rows(p)` rows, the last one shorter, that
    `cli.read_samples_csv` yields, or a SampleSet, taken as one block. Each
    block is added to `_kernels.model_stats_batch`'s running sums as it
    comes, so only one is held at a time, and the kernel splits a block at
    the same row boundaries, so either form gets the same bytes. No
    projector is formed. For a model with projector P:

    * loss = (1/n) sum_i ||x_i x_i^T - P S P||^2 = (1/n) sum_i ||x_i||^4 -
      ||P S P||^2, as P is an orthogonal projector
    * trace = Tr((P kron P) F) for F the empirical covariance of vec(x x^T)
      = (1/n) sum_i ||P x_i||^4 - ||P S P||^2

    `covsel._reference` checks the direct residual sum and the dense route.
    """
    models = tuple(models)
    if isinstance(samples, SampleSet):
        samples = samples.grid, (samples.data,)
    grid, blocks = samples
    grids = {id(model.grid): model.grid for model in models}  # each compared once
    if not all(np.array_equal(grid, g) for g in grids.values()):
        raise ValueError("model grid does not match sample grid")
    ranks, tables = chains(models)
    sums, n = None, 0
    for x in blocks:
        sums = model_stats_batch(x[None], ranks, tables, sums)
        n += x.shape[0]
        del x  # the next block is parsed with this one freed
    (norm4,), (proj_norm4,), (fit_sq,), grams = finish_stats(sums, n, ranks, tables)
    return Fit(norm4 - fit_sq, proj_norm4 - fit_sq, n,
               {id(q): c[0] for (_, q, _), c in zip(tables, grams)})
