"""The batched numpy kernels, and the tail check's in-model deviation, must
agree with a direct per-replication computation."""

import numpy as np
import pytest

from covsel import _kernels
from covsel.dictionary import BasisFamily, build_collection
from covsel.estimator import SampleSet, empirical_cov, fit_all
from covsel.linalg import projector_from_design
from covsel.oracle import _in_model_deviation_sq
from covsel.simulate import KernelSpec, kernel_to_sigma, psd_factor, uniform_grid

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
    err_sq, proj_dev_sq = direct_deviation(X, projs, sigma)
    np.testing.assert_allclose(
        _kernels.deviation_batch(X, projs, sigma), err_sq, rtol=1e-10, atol=1e-12
    )
    np.testing.assert_allclose(
        _in_model_deviation_sq(X, projs, sigma), proj_dev_sq, rtol=1e-10, atol=1e-12
    )


def simulate_kernel_setup(reps):
    """The simulate-kernel shape: p=32, n=200, 13 nested fourier models and
    an Ornstein-Uhlenbeck truth."""
    p, n = 32, 200
    grid = uniform_grid(p)
    family = BasisFamily("fourier", 0.0, 1.0, 12)
    collection = build_collection(family, grid, scheme="nested", d_max=13)
    projs = np.stack([m.projector for m in collection])
    sigma = kernel_to_sigma(KernelSpec("ornstein_uhlenbeck", length_scale=0.5), grid)
    X = rng.standard_normal((reps, n, p)) @ psd_factor(sigma).T
    return X, projs, sigma, grid, collection


def test_simulate_kernel_shape_matches_direct():
    X, projs, sigma, _, _ = simulate_kernel_setup(reps=3)
    for got, want in zip(
        _kernels.model_stats_batch(X, projs), direct_model_stats(X, projs)
    ):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
    err_sq, proj_dev_sq = direct_deviation(X, projs, sigma)
    np.testing.assert_allclose(
        _kernels.deviation_batch(X, projs, sigma), err_sq, rtol=1e-12, atol=0
    )
    np.testing.assert_allclose(
        _in_model_deviation_sq(X, projs, sigma), proj_dev_sq, rtol=1e-12, atol=0
    )


def test_single_replication_matches_fit_all():
    """select's fit_all and simulate's kernel compute the same loss and trace."""
    X, projs, _, grid, collection = simulate_kernel_setup(reps=1)
    samples = SampleSet(grid=grid, data=X[0])
    loss, trace = fit_all(samples, empirical_cov(samples), collection)
    norm4, proj_norm4, fit_sq = _kernels.model_stats_batch(X, projs)
    np.testing.assert_allclose(norm4[0] - fit_sq[0], loss, rtol=1e-12, atol=0)
    np.testing.assert_allclose(proj_norm4[0] - fit_sq[0], trace, rtol=1e-12, atol=0)
