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

Every sum over the n rows is taken over row blocks of `block_rows(p)` rows,
at most CHUNK_FLOATS floats per replication (`row_blocks`): each block adds
its part of sum ||x_i||^4, of each chain's Gram W^T W and of sum ||P x_i||^4
or V^T V (`_add_rows`), and each is divided by n once after the last block
(`_finish`). So W and the row table never outgrow one block of rows, and a
Monte Carlo chunk, which holds at most CHUNK_FLOATS floats or one
replication, is one block unless n p is larger.

`deviation_batch` takes a whole batch and walks it in sub-batches of
`batch_reps` replications, which keep each per-chain temporary within
CHUNK_FLOATS // 4 floats, so a chunk's working set is a fraction of the
chunk, not a multiple of it. Since the row blocks do not depend on reps
either, a replication's statistics are the same bytes whatever batch or
sub-batch it is computed in. `model_stats_batch` takes rows as they come:
it adds each call's row blocks to running sums, which `finish_stats`
divides once the last rows are in, so `estimator.fit_all` fits a sample
one row block at a time, never holding it whole, and gets the bytes a
whole-array fit gets.
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


def block_rows(p):
    """Rows of a row block of p columns: at most CHUNK_FLOATS floats per
    replication, but at least one row."""
    return max(1, CHUNK_FLOATS // p)


def row_blocks(X):
    """Views X[:, a:b] of consecutive rows of the (reps, n, p) array X, in
    order, each of `block_rows(p)` rows but the last. The rows do not depend
    on reps, so a replication's statistics do not depend on how many others
    share its batch."""
    n, p = X.shape[1:]
    rows = block_rows(p)
    return [X[:, a:a + rows] for a in range(0, n, rows)]


def _add(total, part):
    """part, or total + part in place once there is a total."""
    return part if total is None else np.add(total, part, out=total)


def _add_gram(total, w):
    return _add(total, np.matmul(w.transpose(0, 2, 1), w))


def batch_reps(n, p, tables):
    """Replications per sub-batch of `deviation_batch`: as many as keep each
    per-chain temporary, (reps, rows, k) for W, (reps, k, k) for the Grams
    and (reps, k, members) for the masked sums, within CHUNK_FLOATS // 4
    floats, but at least one. The (reps, members, rows) row table is only
    formed when members <= k, so it is never larger than W."""
    rows = min(n, block_rows(p))
    floats = max(q.shape[1] * max(rows, q.shape[1], len(members)) for members, q, _ in tables)
    return max(1, CHUNK_FLOATS // 4 // floats)


def _norm4(x):
    """sum_i ||x_i||^4 over the rows of the (reps, rows, p) block x."""
    return np.sum(np.square(np.einsum("rij,rij->ri", x, x)), axis=1)


def _add_rows(sums, x, members, q, mask):
    """A chain's running sums (W^T W, F), (None, None) before its first rows,
    with the rows of the (reps, rows, p) block x added. With more members
    than columns F is the second Gram V^T V; otherwise it is the row table's
    sum, per model m, of ||P x_i||^2 squared."""
    c, fourth = sums
    w = x @ q
    c = _add_gram(c, w)
    # ||P x_i||^2 is the sum of V = W * W over the model's columns, squared in
    # place: one block's W is the only (reps, rows, k) array alive
    np.square(w, out=w)
    if len(members) > q.shape[1]:
        fourth = _add_gram(fourth, w)
    else:
        rows = np.matmul(mask.T, w.transpose(0, 2, 1))
        fourth = _add(fourth, np.sum(np.square(rows, out=rows), axis=2))
    return c, fourth


def _finish(sums, n, members, q, mask):
    """(C, fit_sq, proj_norm4) of a chain's models from its sums over n rows:
    the sums are divided by n in place, so C = W^T W / n is the first."""
    c, fourth = sums
    c /= n
    fourth /= n
    second = len(members) > q.shape[1]
    return c, _border_sq(c, mask), np.sum((fourth @ mask) * mask, axis=-2) if second else fourth


def model_stats_batch(X, ranks, tables, sums=None):
    """The running sums of every model's statistics with the rows of the
    (reps, rows, p) batch X added: `sums` is what the call on the same
    replications' preceding rows returned, or None before the first rows.
    They are sum_i ||x_i||^4 and, per table of `chains`, its `_add_rows`
    sums, each added over X's row blocks in order, so a replication's sums
    are the same bytes however its rows are split into calls at row block
    boundaries. `finish_stats` divides them by n. `ranks` is `chains`' first
    array, taken as `deviation_batch` takes it; only `finish_stats` reads it.
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    total, chain_sums = sums or (None, [(None, None)] * len(tables))
    for x in row_blocks(X):
        total = _add(total, _norm4(x))
        chain_sums = [_add_rows(s, x, *table) for s, table in zip(chain_sums, tables)]
    return total, chain_sums


def finish_stats(sums, n, ranks, tables):
    """(norm4_mean, proj_norm4_mean, fit_norm_sq, grams) from the
    `model_stats_batch` sums of n rows: the first three as `deviation_batch`
    defines them, and grams[t] the Gram C = W^T W / n of tables[t]. The sums
    are divided in place."""
    total, chain_sums = sums
    proj_norm4, fit_sq = np.empty((2, total.size, ranks.size))
    grams = []
    for (members, q, mask), s in zip(tables, chain_sums):
        c, fit_sq[:, members], proj_norm4[:, members] = _finish(s, n, members, q, mask)
        grams.append(c)
    return np.divide(total, n, out=total), proj_norm4, fit_sq, grams


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
    and trace from the other three, through `model_stats_batch`.

    X is walked in sub-batches of `batch_reps` replications, and each
    chain's sums are taken over every row block before the next chain's, so
    one chain's Grams are alive at a time.
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    reps, n, p = X.shape
    norm4 = np.empty(reps)
    proj_norm4, fit_sq = np.empty((2, reps, ranks.size))
    dev_sq = np.empty((reps, ranks.size))
    # U^T sigma U per chain, formed once for every sub-batch
    truths = [q.T @ sigma @ q for _, q, _ in tables]
    size = batch_reps(n, p, tables)
    for a in range(0, reps, size):
        batch = slice(a, a + size)
        blocks = row_blocks(X[batch])
        total = None
        for x in blocks:
            total = _add(total, _norm4(x))
        norm4[batch] = total / n
        for table, truth in zip(tables, truths):
            members, _, mask = table
            sums = None, None
            for x in blocks:
                sums = _add_rows(sums, x, *table)
            c, fit_sq[batch, members], proj_norm4[batch, members] = _finish(sums, n, *table)
            dev_sq[batch, members] = _border_sq(np.subtract(c, truth, out=c), mask)
    return norm4, proj_norm4, fit_sq, dev_sq
