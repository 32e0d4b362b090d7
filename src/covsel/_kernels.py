"""Batched numpy statistics for the Monte Carlo loops.

Both kernels take a replication batch ``X`` of shape (reps, n, p) plus a
stack of M projectors (M, p, p) and write per-replication results into
fresh arrays, so results do not depend on how replications are chunked.

Every contraction over the n rows or over a p x p product goes through
``np.matmul`` (BLAS); ``einsum`` is left only for row-wise and elementwise
sums of squares. Per batch:

* ``model_stats_batch`` costs O(M * reps * n * p^2): for each model one
  X P product and one (X P)^T (X P) Gram matrix.
* ``deviation_batch`` costs O(reps * n * p^2 + M * reps * p^3): one
  X^T X, then the two p x p products of P S P per model.
"""

from __future__ import annotations

import numpy as np


def model_stats_batch(X, projs):
    """Per-replication, per-model fit statistics.

    Returns (norm4_mean, proj_norm4_mean, fit_norm_sq) where, for
    replication r and model m with projector P:

    * norm4_mean[r]         = (1/n) sum_i ||x_i||^4
    * proj_norm4_mean[r, m] = (1/n) sum_i ||P x_i||^4
    * fit_norm_sq[r, m]     = ||P S P||^2 with S = (1/n) X^T X
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    reps, n, p = X.shape
    m_count = projs.shape[0]
    rown = np.einsum("rij,rij->ri", X, X)
    norm4 = np.mean(rown ** 2, axis=1)
    proj_norm4 = np.empty((reps, m_count))
    fit_sq = np.empty((reps, m_count))
    for m in range(m_count):
        xp = X @ projs[m]
        rowp = np.einsum("rij,rij->ri", xp, xp)
        proj_norm4[:, m] = np.mean(rowp ** 2, axis=1)
        c = np.matmul(xp.transpose(0, 2, 1), xp) / n
        fit_sq[:, m] = np.einsum("rij,rij->r", c, c)
    return norm4, proj_norm4, fit_sq


def deviation_batch(X, projs, sigma):
    """Per-replication squared loss of the projected sample covariance.

    Returns err_sq with err_sq[r, m] = ||sigma - P S P||^2, where
    S = (1/n) X^T X and P is model m's projector.
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    reps, n, p = X.shape
    m_count = projs.shape[0]
    s_all = np.matmul(X.transpose(0, 2, 1), X) / n
    err_sq = np.empty((reps, m_count))
    for m in range(m_count):
        proj = projs[m]
        d = sigma[None, :, :] - proj @ s_all @ proj
        err_sq[:, m] = np.einsum("rij,rij->r", d, d)
    return err_sq
