"""The batched numpy kernels must agree with a direct per-replication
computation."""

import numpy as np
import pytest

from covsel import _kernels
from covsel.linalg import projector_from_design

rng = np.random.default_rng(707)


def random_projs(p, count):
    projs = []
    for _ in range(count):
        g = rng.standard_normal((p, int(rng.integers(1, p + 1))))
        proj, _ = projector_from_design(g)
        projs.append(proj)
    return np.stack(projs)


def direct_model_stats(X, projs):
    reps, n, p = X.shape
    m_count = projs.shape[0]
    norm4 = np.empty(reps)
    proj_norm4 = np.empty((reps, m_count))
    fit_sq = np.empty((reps, m_count))
    for r in range(reps):
        x = X[r]
        norm4[r] = np.mean([np.sum(xi ** 2) ** 2 for xi in x])
        s = x.T @ x / n
        for m in range(m_count):
            proj = projs[m]
            proj_norm4[r, m] = np.mean([np.sum((proj @ xi) ** 2) ** 2 for xi in x])
            a = proj @ s @ proj
            fit_sq[r, m] = np.sum(a * a)
    return norm4, proj_norm4, fit_sq


def direct_deviation(X, projs, sigma):
    reps, n, p = X.shape
    m_count = projs.shape[0]
    err_sq = np.empty((reps, m_count))
    proj_dev_sq = np.empty((reps, m_count))
    for r in range(reps):
        s = X[r].T @ X[r] / n
        for m in range(m_count):
            proj = projs[m]
            a = proj @ s @ proj
            err_sq[r, m] = np.sum((sigma - a) ** 2)
            proj_dev_sq[r, m] = np.sum((a - proj @ sigma @ proj) ** 2)
    return err_sq, proj_dev_sq


CASES = [(7, 4, 2, 2), (5, 10, 3, 4), (3, 6, 5, 3)]


@pytest.mark.parametrize("reps,n,p,m_count", CASES)
def test_numpy_path_matches_direct(reps, n, p, m_count):
    X = rng.standard_normal((reps, n, p))
    projs = random_projs(p, m_count)
    sigma = np.eye(p)
    for got, want in zip(
        _kernels.model_stats_batch(X, projs), direct_model_stats(X, projs)
    ):
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)
    for got, want in zip(
        _kernels.deviation_batch(X, projs, sigma), direct_deviation(X, projs, sigma)
    ):
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)
