"""Basis-function families, design matrices on the observation grid, and
finite model collections.

Three families ship: "fourier" (constant/cosine/sine ladder), "polynomial"
(Legendre polynomials shifted to the domain), and "histogram" (indicators of
an equal-width partition). They respectively exercise full-rank,
rank-deficient, and exactly-sparse projectors.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .linalg import RANK_MARGIN, basis_from_design, numerical_rank, require_finite

FAMILY_KINDS = ("fourier", "polynomial", "histogram")
MAX_MODELS = 10_000  # the most models a collection may hold, checked before building


class DegenerateCollectionError(ValueError):
    """Raised when a model collection ends up empty after dropping
    rank-zero designs."""


@dataclass(frozen=True)
class BasisFamily:
    """A family of real functions g_0, ..., g_max_index on [t_min, t_max]."""

    kind: str
    t_min: float
    t_max: float
    max_index: int

    def __post_init__(self):
        if self.kind not in FAMILY_KINDS:
            raise ValueError(f"unknown basis kind {self.kind!r}; expected one of {FAMILY_KINDS}")
        if not -np.inf < self.t_min < self.t_max < np.inf:
            raise ValueError("domain requires finite t_min < t_max")
        if self.max_index < 0:
            raise ValueError("max_index must be >= 0")


def check_in_domain(family, t):
    """`t` as a finite float array; ValueError for points outside the domain."""
    t = require_finite(np.asarray(t, dtype=float), "evaluation point")
    lo, hi = family.t_min, family.t_max
    slack = 1e-12 * max(1.0, abs(lo), abs(hi))
    if np.any(t < lo - slack) or np.any(t > hi + slack):
        raise ValueError(f"point(s) outside domain [{lo}, {hi}]")
    return t


def _legendre(index, x):
    """The Legendre polynomial P_index at x, by the Clenshaw recursion that
    `numpy.polynomial.legendre.legval` runs on the unit coefficient vector,
    operation for operation, so each value is legval's to the bit without
    importing numpy.polynomial (nine modules)."""
    c = [0.0] * index + [1.0]
    if index < 2:
        c0, c1 = c[0], c[1] if index else 0
    else:
        c0, c1 = c[-2], c[-1]
        nd = len(c)
        for i in range(3, len(c) + 1):
            nd -= 1
            c0, c1 = c[-i] - c1 * ((nd - 1) / nd), c0 + c1 * x * ((2 * nd - 1) / nd)
    return c0 + c1 * x


def eval_basis(family, index, t):
    """Evaluate basis function `index` of `family` at point(s) `t`.

    Vectorised over `t`; raises for an out-of-range index or points outside
    the domain.
    """
    if index < 0 or index > family.max_index:
        raise ValueError(f"basis index {index} out of range 0..{family.max_index}")
    t = check_in_domain(family, t)
    u = (t - family.t_min) / (family.t_max - family.t_min)

    if family.kind == "fourier":
        if index == 0:
            return np.ones_like(u)
        freq = (index + 1) // 2
        if index % 2 == 1:
            return np.sqrt(2.0) * np.cos(2.0 * np.pi * freq * u)
        return np.sqrt(2.0) * np.sin(2.0 * np.pi * freq * u)

    if family.kind == "polynomial":
        return _legendre(index, 2.0 * u - 1.0)

    # histogram: indicator of cell `index` among max_index+1 equal cells,
    # right-closed in the last cell so t_max belongs to the partition
    n_cells = family.max_index + 1
    cell = np.minimum(np.floor(u * n_cells).astype(int), n_cells - 1)
    return (cell == index).astype(float)


def build_design(family, indices, grid):
    """Design matrix with entry (j, k) = g_{indices[k]}(grid[j])."""
    indices = tuple(int(i) for i in indices)
    if len(indices) == 0:
        raise ValueError("model index set is empty")
    grid = require_finite(grid, "grid")
    cols = [eval_basis(family, lam, grid) for lam in indices]
    return np.stack(cols, axis=1)


@dataclass(frozen=True, eq=False)
class ModelSpec:
    """An index set, spanned by the `columns` of a p x k `table` with
    orthonormal (or, for an empty histogram cell, zero) columns; models built
    from one table hold the same array, which `_kernels.chains` groups by.
    `dim` is the squared rank: the dimension of the space of matrices
    G Psi G^T with Psi symmetric. No p x p projector is kept.
    """

    indices: tuple
    table: np.ndarray = field(repr=False)
    columns: tuple
    grid: np.ndarray = field(repr=False)
    rank: int = field(init=False)
    dim: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "rank", len(self.columns))
        object.__setattr__(self, "dim", float(self.rank * self.rank))

    @property
    def basis(self):
        # a view where the columns lead the table: a copy would move matmul's rounding
        lead = self.columns == tuple(range(self.rank))
        return self.table[:, :self.rank] if lead else self.table[:, list(self.columns)]


def collection_index_sets(family, scheme="nested", d_max=None, k=2):
    """Index sets of the collection that `build_collection` builds from these
    arguments, in its order.

    nested yields {0}, {0,1}, ..., {0..d_max-1} (d_max defaults to
    max_index + 1); all_subsets yields every nonempty subset of
    0..max_index of size <= k. Raises ValueError for an unknown scheme, a
    depth or size cap `family` cannot meet, or more than MAX_MODELS sets.
    """
    pool = family.max_index + 1
    if scheme == "nested":
        if d_max is None:
            d_max = pool
        if d_max < 1 or d_max > pool:
            raise ValueError(f"nested scheme needs 1 <= d_max <= {pool}")
        count = d_max
    elif scheme == "all_subsets":
        if k < 1:
            raise ValueError("all_subsets scheme needs k >= 1")
        sizes = range(1, min(k, pool) + 1)
        count = sum(math.comb(pool, size) for size in sizes)
    else:
        raise ValueError(f"unknown collection scheme {scheme!r}")
    if count > MAX_MODELS:
        raise ValueError(f"collection would contain {count} models (cap {MAX_MODELS})")
    if scheme == "nested":
        return [tuple(range(d)) for d in range(1, d_max + 1)]
    return [c for size in sizes for c in itertools.combinations(range(pool), size)]


def _nested_tables(table):
    """(q, columns) of table[:, :d], d = 1, 2, ..., with columns leading one
    shared Q, up to the first block whose rank decision (on R's r[:d, :d],
    table = Q R) is not clear or steps by neither 0 nor 1; a column that
    leaves the rank unchanged is an exact dependency and stays out of Q."""
    q, r = np.linalg.qr(table)
    k = table.shape[1]
    # dropping columns never lowers sigma_min / sigma_max, so a clear
    # full-rank table has clear full-rank leading blocks
    whole = numerical_rank(np.linalg.svd(r, compute_uv=False), RANK_MARGIN)
    ranks = list(range(1, k + 1)) if whole == k else []
    for d in range(len(ranks) + 1, k + 1):
        rank = numerical_rank(np.linalg.svd(r[:d, :d], compute_uv=False), RANK_MARGIN)
        if rank is None or rank - (ranks[-1] if ranks else 0) not in (0, 1):
            break
        ranks.append(rank)
    kept = np.flatnonzero(np.diff(ranks, prepend=0))
    # Q of the kept columns where a dependency was dropped, else the chain's widest basis
    q = np.linalg.qr(table[:, kept])[0] if 0 < kept.size < len(ranks) else q[:, :kept.size]
    return [(q, tuple(range(rank))) for rank in ranks]


def build_collection(family, grid, scheme="nested", d_max=None, k=2):
    """The tuple of ModelSpecs over `family` on `grid`, one per index set of
    :func:`collection_index_sets` in its order (keep k small for
    all_subsets so the collection stays small).

    A histogram collection shares one table, its design over the column
    norms (disjoint cells need no rank decision). Models of numerical rank 0
    are dropped with a warning; an empty collection is an error.
    """
    grid = require_finite(np.asarray(grid, dtype=float), "grid")
    if grid.ndim != 1 or grid.size < 1:
        raise ValueError("grid must be a nonempty 1-d array")
    check_in_domain(family, grid)
    index_sets = collection_index_sets(family, scheme, d_max, k)

    # each basis function is evaluated once: both schemes use every index up
    # to their largest, so a model's design is the table's columns `indices`
    table = build_design(family, range(max(map(max, index_sets)) + 1), grid)
    if family.kind == "histogram":
        norms = np.linalg.norm(table, axis=0)  # 0 for an empty cell, else >= 1
        table /= np.maximum(norms, 1.0)
        spans = [(table, tuple(i for i in indices if norms[i] > 0)) for indices in index_sets]
    else:  # a nested chain, then every other model on its design's own SVD
        spans = _nested_tables(table) if scheme == "nested" else []
        own = (basis_from_design(table[:, indices]) for indices in index_sets[len(spans):])
        spans += [(q, tuple(range(rank))) for q, rank in own]
    models = []
    for indices, (q, columns) in zip(index_sets, spans):
        if not columns:
            warnings.warn(f"dropping model {indices}: design has numerical rank 0")
            continue
        models.append(ModelSpec(indices, q, columns, grid))
    if not models:
        raise DegenerateCollectionError(
            "model collection is empty after dropping degenerate designs"
        )
    return tuple(models)
