"""Batched numpy statistics for the Monte Carlo loops.

Both kernels take a replication batch ``X`` of shape (reps, n, p) plus the
(M, p, r) stack of model bases from :func:`stack_bases`, and write
per-replication results into fresh arrays, so results do not depend on how
replications are chunked. A model enters only through its orthonormal basis
U (P = U U^T); zero padding columns change no statistic beyond rounding.

Contractions over the n rows or over p go through ``np.matmul`` (BLAS);
``einsum`` only sums squares. Per batch, with r the stack's width,
``model_stats_batch`` costs O(M reps n p r) (W = X U and W^T W per model)
and ``deviation_batch`` O(reps n p^2 + M reps p^2 r) (one X^T X, then
U^T (S - sigma) U per model).
"""

from __future__ import annotations

import numpy as np


def stack_bases(models):
    """The models' bases as one (M, p, r_max) array, each zero-padded to the
    largest rank."""
    r_max = max(m.rank for m in models)
    return np.stack([np.pad(m.basis, ((0, 0), (0, r_max - m.rank))) for m in models])


def model_stats_batch(X, bases):
    """Per-replication, per-model fit statistics.

    Returns (norm4_mean, proj_norm4_mean, fit_norm_sq) where, for
    replication r and model m with basis U, W = X_r U and P = U U^T:

    * norm4_mean[r]         = (1/n) sum_i ||x_i||^4
    * proj_norm4_mean[r, m] = (1/n) sum_i ||P x_i||^4, from the rows of W
    * fit_norm_sq[r, m]     = ||P S P||^2 = ||W^T W / n||^2, S = (1/n) X^T X
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    reps, n, p = X.shape
    m_count = bases.shape[0]
    rown = np.einsum("rij,rij->ri", X, X)
    norm4 = np.mean(rown ** 2, axis=1)
    proj_norm4 = np.empty((reps, m_count))
    fit_sq = np.empty((reps, m_count))
    for m in range(m_count):
        w = X @ bases[m]
        roww = np.einsum("rij,rij->ri", w, w)
        proj_norm4[:, m] = np.mean(roww ** 2, axis=1)
        c = np.matmul(w.transpose(0, 2, 1), w) / n
        fit_sq[:, m] = np.einsum("rij,rij->r", c, c)
    return norm4, proj_norm4, fit_sq


def deviation_batch(X, bases, sigma):
    """Per-replication in-model deviation of the sample covariance.

    Returns dev_sq with dev_sq[r, m] = ||P (S - sigma) P||^2
    = ||U^T (S - sigma) U||^2, where S = (1/n) X^T X and U is model m's
    basis. The loss ||sigma - P S P||^2 is this plus the model's bias
    ||sigma - P sigma P||^2 (`oracle.bias_sq`): the two parts are orthogonal.
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    reps, n, p = X.shape
    m_count = bases.shape[0]
    d_all = np.matmul(X.transpose(0, 2, 1), X) / n - sigma
    dev_sq = np.empty((reps, m_count))
    for m in range(m_count):
        u = bases[m]
        d = u.T @ d_all @ u
        dev_sq[:, m] = np.einsum("rij,rij->r", d, d)
    return dev_sq
