"""The one statistics path that `select`, `simulate` and the diagnostics
call: every model's statistics on a batch ``X`` of shape (reps, n, p).

Both kernels take the `chains` of a model list: the models that name one
table Q (`ModelSpec.table`) share one W = X Q, and model m keeps the columns
it declares through the 0/1 mask ``mask[k, m]``, so a chain of M_c models
and width k costs O(reps k (n p + n M_c + k M_c)). Results do not depend on
how replications are chunked.
"""

from __future__ import annotations

import numpy as np


def chains(models):
    """(ranks, tables): every model's rank as an int array, and one
    (members, q, mask) per table q, where members are the positions in
    `models` of the models whose `table` is q and mask[k, j] = k in columns_j."""
    models, groups = tuple(models), {}
    for j, model in enumerate(models):
        groups.setdefault(id(model.table), (model.table, []))[1].append(j)
    tables = []
    for q, members in groups.values():
        mask = np.zeros((q.shape[1], len(members)))
        for i, j in enumerate(members):
            mask[models[j].columns, i] = 1.0
        tables.append((np.array(members), q, mask))
    return np.array([model.rank for model in models]), tables


def _border_sq(c, mask):
    """||c[K, K]||^2 for the set K of rows that each mask column keeps."""
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
    for members, q, mask in tables:
        w = X @ q
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
    for members, q, mask in tables:
        dev_sq[:, members] = _border_sq(q.T @ d_all @ q, mask)
    return dev_sq
