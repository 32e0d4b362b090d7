"""The one statistics path that `select`, `simulate` and the diagnostics
call: every model's statistics on a batch ``X`` of shape (reps, n, p).

Both kernels take the `chains` of a model list: the models that name one
table Q (`ModelSpec.table`) share one W = X Q and Gram C = W^T W / n, and
model m keeps the columns it declares through the 0/1 mask ``mask[k, m]``.
No p x p matrix is formed per replication. A chain of M_c models and width k
reads proj_norm4 off a (reps, M_c, rows) table of ||P x_i||^2 when M_c <= k, and
off a second Gram D = V^T V / n of the elementwise square V = W * W when
M_c > k. It costs O(reps k (n p + n M_c + k M_c)) on the first route and
O(reps k (n p + n k + k M_c)) on the second, however replications are chunked.

Every sum over the n rows is taken over row blocks of at most CHUNK_FLOATS
floats per replication (`row_blocks`): each block adds its part of
sum ||x_i||^4, of each chain's Gram W^T W and of sum ||P x_i||^4 or V^T V,
and each is divided by n once after the last block. So W and the row table
never outgrow one block of rows, and a Monte Carlo chunk, which holds at most
CHUNK_FLOATS floats or one replication, is one block unless n p is larger.
`gram` is the same blocked Gram for `estimator.estimate`.

The chain loop walks a batch in sub-batches of `batch_reps` replications,
which keep each per-chain temporary within CHUNK_FLOATS // 4 floats, so a
chunk's working set is a fraction of the chunk, not a multiple of it. Since
the row blocks do not depend on reps either, a replication's statistics are
the same bytes whatever batch or sub-batch it is computed in.
"""

from __future__ import annotations

import numpy as np

from ._mc import CHUNK_FLOATS


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


def row_blocks(X):
    """Views X[:, a:b] of consecutive rows of the (reps, n, p) array X, in
    order, each of at most CHUNK_FLOATS floats per replication but at least
    one row. The rows do not depend on reps, so a replication's statistics
    do not depend on how many others share its batch."""
    n, p = X.shape[1:]
    rows = max(1, CHUNK_FLOATS // p)
    return [X[:, a:a + rows] for a in range(0, n, rows)]


def _add(total, part):
    """part, or total + part in place once there is a total."""
    return part if total is None else np.add(total, part, out=total)


def _add_gram(total, w):
    return _add(total, np.matmul(w.transpose(0, 2, 1), w))


def gram(X, q):
    """C = W^T W / n for W = X q, the Gram `_chain_stats` forms, summed over
    the row blocks of the (reps, n, p) array X."""
    total = None
    for x in row_blocks(X):
        total = _add_gram(total, x @ q)
    return np.divide(total, X.shape[1], out=total)


def batch_reps(n, p, tables):
    """Replications per sub-batch of `_chain_stats`: as many as keep each
    per-chain temporary, (reps, rows, k) for W, (reps, k, k) for the Grams
    and (reps, k, members) for the masked sums, within CHUNK_FLOATS // 4
    floats, but at least one. The (reps, members, rows) row table is only
    formed when members <= k, so it is never larger than W."""
    rows = min(n, max(1, CHUNK_FLOATS // p))
    floats = max(q.shape[1] * max(rows, q.shape[1], len(members)) for members, q, _ in tables)
    return max(1, CHUNK_FLOATS // 4 // floats)


def _chain_stats(X, ranks, tables, sigma):
    """The chain loop of both kernels; dev_sq is None when sigma is None."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    reps, n, p = X.shape
    norm4 = np.empty(reps)
    proj_norm4, fit_sq = np.empty((2, reps, ranks.size))
    dev_sq = None if sigma is None else np.empty((reps, ranks.size))
    # U^T sigma U per chain, formed once for every sub-batch
    truths = [None if sigma is None else q.T @ sigma @ q for _, q, _ in tables]
    size = batch_reps(n, p, tables)
    for a in range(0, reps, size):
        batch = slice(a, a + size)
        blocks = row_blocks(X[batch])
        total = None
        for x in blocks:
            total = _add(total, np.sum(np.square(np.einsum("rij,rij->ri", x, x)), axis=1))
        norm4[batch] = total / n
        for (members, q, mask), truth in zip(tables, truths):
            # more members than columns: proj_norm4[m] is the sum of the second
            # Gram D = V^T V / n over the model's columns; otherwise row m of the
            # row table is ||P x_i||^2 over the block's rows, contiguous along them
            second = len(members) > q.shape[1]
            c = fourth = None
            for x in blocks:
                w = x @ q
                c = _add_gram(c, w)
                # ||P x_i||^2 is the sum of V = W * W over the model's columns;
                # squaring in place and `del` keep one block's W alive at a time
                np.square(w, out=w)
                if second:
                    fourth = _add_gram(fourth, w)
                else:
                    rows = np.matmul(mask.T, w.transpose(0, 2, 1))
                    fourth = _add(fourth, np.sum(np.square(rows, out=rows), axis=2))
                del w
            c /= n
            fourth /= n
            fit_sq[batch, members] = _border_sq(c, mask)
            if truth is not None:
                dev_sq[batch, members] = _border_sq(np.subtract(c, truth, out=c), mask)
            proj_norm4[batch, members] = (np.sum((fourth @ mask) * mask, axis=-2) if second
                                          else fourth)
    return norm4, proj_norm4, fit_sq, dev_sq


def model_stats_batch(X, ranks, tables):
    """The first three arrays of `deviation_batch`, with no sigma and no dev_sq."""
    return _chain_stats(X, ranks, tables, None)[:3]


def deviation_batch(X, ranks, tables, sigma):
    """(norm4_mean, proj_norm4_mean, fit_norm_sq, dev_sq) for replication r
    and model m with basis U, P = U U^T, W = X_r U and C = W^T W / n (the
    p x p S = X_r^T X_r / n is never formed):

    * norm4_mean[r]         = (1/n) sum_i ||x_i||^4
    * proj_norm4_mean[r, m] = (1/n) sum_i ||P x_i||^4, from W * W
    * fit_norm_sq[r, m]     = ||P S P||^2 = ||C||^2
    * dev_sq[r, m]          = ||P (S - sigma) P||^2 = ||C - U^T sigma U||^2

    dev_sq plus the orthogonal bias ||sigma - P sigma P||^2 (`oracle.bias_sq`)
    is the loss ||sigma - P S P||^2; `estimator.fit_all` gives select's loss
    and trace from the other three.
    """
    return _chain_stats(X, ranks, tables, sigma)
