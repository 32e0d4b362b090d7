"""The one statistics path that `select`, `simulate` and the diagnostics
call: every model's statistics on a batch ``X`` of shape (reps, n, p).

Both kernels take the `chains` of a model list. Models whose bases are
leading columns of one orthonormal table Q form a chain and share one
W = X Q (a model with its own basis is a chain of one); model m keeps Q's
first rank_m columns through the 0/1 mask ``mask[k, m] = k < rank_m``, so a
chain of M_c models and width k costs O(reps k (n p + n M_c + k M_c)).
Results do not depend on how replications are chunked.
"""

from __future__ import annotations

import numpy as np


def chains(models):
    """(ranks, tables): every model's rank as an int array, and one
    (members, q) per chain, where members are the positions in `models` of
    the models whose bases are q[:, :rank]."""
    models, groups = tuple(models), {}
    for j, model in enumerate(models):
        # one start address and one set of strides: leading columns of one table
        groups.setdefault((model.basis.ctypes.data, model.basis.strides), []).append(j)
    tables = [(np.array(members), max((models[j].basis for j in members),
                                      key=lambda u: u.shape[1]))
              for members in groups.values()]
    return np.array([model.rank for model in models]), tables


def _mask(ranks, members, q):
    return (np.arange(q.shape[1])[:, None] < ranks[members]).astype(np.float64)


def _border_sq(c, mask):
    """||c[:d, :d]||^2 for each mask column keeping the first d rows."""
    return np.sum((np.square(c) @ mask) * mask, axis=-2)


def model_stats_batch(X, ranks, tables):
    """Per-replication, per-model fit statistics.

    Returns (norm4_mean, proj_norm4_mean, fit_norm_sq) where, for
    replication r and model m with basis U, W = X_r U and P = U U^T:

    * norm4_mean[r]         = (1/n) sum_i ||x_i||^4
    * proj_norm4_mean[r, m] = (1/n) sum_i ||P x_i||^4, from the rows of W
    * fit_norm_sq[r, m]     = ||P S P||^2 = ||W^T W / n||^2, S = (1/n) X^T X

    The loss of `select` is norm4_mean - fit_norm_sq (P is an orthogonal
    projector) and the fourth-moment trace Tr((P kron P) F) is
    proj_norm4_mean - fit_norm_sq.
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    reps, n, p = X.shape
    norm4 = np.mean(np.square(np.einsum("rij,rij->ri", X, X)), axis=1)
    proj_norm4, fit_sq = np.empty((2, reps, ranks.size))
    for members, q in tables:
        mask, w = _mask(ranks, members, q), X @ q
        fit_sq[:, members] = _border_sq(np.matmul(w.transpose(0, 2, 1), w) / n, mask)
        # row m is ||P x_i||^2 over i, contiguous along n (a pairwise mean);
        # squaring in place and `del` keep one chain's W alive at a time
        rows = np.matmul(mask.T, np.square(w, out=w).transpose(0, 2, 1))
        proj_norm4[:, members] = np.mean(np.square(rows, out=rows), axis=2)
        del w, rows
    return norm4, proj_norm4, fit_sq


def deviation_batch(X, ranks, tables, sigma):
    """Per-replication in-model deviation of the sample covariance.

    Returns dev_sq with dev_sq[r, m] = ||P (S - sigma) P||^2
    = ||U^T (S - sigma) U||^2, where S = (1/n) X^T X and U is model m's
    basis. The loss ||sigma - P S P||^2 is this plus the model's bias
    ||sigma - P sigma P||^2 (`oracle.bias_sq`): the two parts are orthogonal.
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    d_all = np.matmul(X.transpose(0, 2, 1), X) / X.shape[1] - sigma
    dev_sq = np.empty((X.shape[0], ranks.size))
    for members, q in tables:
        dev_sq[:, members] = _border_sq(q.T @ d_all @ q, _mask(ranks, members, q))
    return dev_sq
