"""The batched numpy kernels, fed the chains of a model list, must agree with
a direct per-replication computation on dense projectors and with fit_all on
each replication alone; deviation_batch's statistics must equal those of
model_stats_batch's running sums bit for bit, its dev_sq must come from each chain's Gram
without a p x p matrix per replication, and the Monte Carlo loss
bias_sq + dev_sq must agree with the direct loss."""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from covsel import _kernels
from covsel._mc import BLOCK_FLOATS, block_reps, draw_batch
from covsel._reference import direct_deviation, direct_model_stats
from covsel.dictionary import BasisFamily, build_collection
from covsel.estimator import SampleSet, fit_all
from covsel.linalg import basis_from_design, frob_norm_sq, psd_factor
from covsel.oracle import TruthSpec, bias_sq
from covsel.simulate import KernelSpec, kernel_to_sigma, uniform_grid

rng = np.random.default_rng(707)


def random_models(p, count):
    """Models of random rank 1..p: `count` with an orthonormal table of their
    own, and `count` spanned by random column subsets of one shared table."""
    models = []
    for _ in range(count):
        basis, rank = basis_from_design(rng.standard_normal((p, int(rng.integers(1, p + 1)))))
        models.append(SimpleNamespace(table=basis, columns=tuple(range(rank)), basis=basis,
                                      rank=rank))
    shared, _ = basis_from_design(rng.standard_normal((p, p)))
    for _ in range(count):
        columns = tuple(sorted(rng.choice(p, size=int(rng.integers(1, p + 1)), replace=False)))
        models.append(SimpleNamespace(table=shared, columns=columns,
                                      basis=shared[:, list(columns)], rank=len(columns)))
    return models


def projectors(models):
    return np.stack([m.basis @ m.basis.T for m in models])


def streamed_stats(X, chains):
    """(norm4, proj_norm4, fit_sq) of X from model_stats_batch's running
    sums, one row block per call as fit_all adds them, then finish_stats."""
    sums = None
    for x in _kernels.row_blocks(X):
        sums = _kernels.model_stats_batch(x, *chains, sums)
    return _kernels.finish_stats(sums, X.shape[1], *chains)[:3]


def assert_kernels_match_direct(X, models, sigma, rtol, atol):
    chains = _kernels.chains(models)
    projs = projectors(models)
    for got, want in zip(streamed_stats(X, chains), direct_model_stats(X, projs)):
        np.testing.assert_allclose(got, want, rtol=rtol, atol=atol)
    err_sq, proj_dev_sq = direct_deviation(X, projs, sigma)
    *stats, dev_sq = _kernels.deviation_batch(X, *chains, sigma)
    for got, want in zip(stats, streamed_stats(X, chains)):
        np.testing.assert_array_equal(got, want)
    np.testing.assert_allclose(dev_sq, proj_dev_sq, rtol=rtol, atol=atol)
    truth = TruthSpec(sigma=sigma)
    bias = np.array([bias_sq(truth, m) for m in models])
    np.testing.assert_allclose(bias + dev_sq, err_sq, rtol=rtol, atol=atol)


CASES = [(7, 4, 2, 2), (5, 10, 3, 4), (3, 6, 5, 3)]


@pytest.mark.parametrize("reps,n,p,m_count", CASES)
def test_numpy_path_matches_direct(reps, n, p, m_count):
    X = rng.standard_normal((reps, n, p))
    a = rng.standard_normal((p, p))
    for sigma in (np.eye(p), a @ a.T):
        assert_kernels_match_direct(X, random_models(p, m_count), sigma, rtol=1e-10, atol=1e-12)


def simulate_kernel_setup(reps):
    """The simulate-kernel shape: p=32, n=200, 13 nested fourier models and
    an Ornstein-Uhlenbeck truth."""
    p, n = 32, 200
    grid = uniform_grid(p)
    family = BasisFamily("fourier", 0.0, 1.0, 12)
    collection = build_collection(family, grid, scheme="nested", d_max=13)
    sigma = kernel_to_sigma(KernelSpec("ornstein_uhlenbeck", length_scale=0.5), grid)
    X = rng.standard_normal((reps, n, p)) @ psd_factor(sigma).T
    return X, sigma, grid, collection


def test_simulate_kernel_shape_matches_direct():
    X, sigma, _, collection = simulate_kernel_setup(reps=3)
    assert_kernels_match_direct(X, collection, sigma, rtol=1e-12, atol=0)


def test_single_replication_matches_fit_all():
    """select's fit_all and simulate's kernel compute the same loss and trace,
    bit for bit, through the same per-chain sums: each replication of a
    batch, over models in any order and chains of any length, gets what
    fit_all gives on it alone. The models are a nested
    fourier chain, a nested polynomial collection whose chain breaks after 23
    models (the last three have tables of their own), and the 21 histogram
    all_subsets models, which share one table."""
    grid = uniform_grid(24)
    parts = [("fourier", 12, "nested"), ("polynomial", 25, "nested"),
             ("histogram", 5, "all_subsets")]
    models = [m for kind, top, scheme in parts
              for m in build_collection(BasisFamily(kind, 0.0, 1.0, top), grid, scheme=scheme)]
    models = [models[j] for j in rng.permutation(len(models))]
    sizes = sorted(len(members) for members, _, _ in _kernels.chains(models)[1])
    assert sizes == [1, 1, 1, 13, 21, 23]
    X = rng.standard_normal((4, 30, 24)) @ rng.standard_normal((24, 24))
    norm4, proj_norm4, fit_sq, _ = _kernels.deviation_batch(X, *_kernels.chains(models), np.eye(24))
    for r, x in enumerate(X):
        loss, trace = fit_all(SampleSet(grid=grid, data=x), models)[:2]
        np.testing.assert_array_equal(norm4[r] - fit_sq[r], loss)
        np.testing.assert_array_equal(proj_norm4[r] - fit_sq[r], trace)


@pytest.mark.parametrize("family, scheme, p, n", [
    (BasisFamily("histogram", 0.0, 1.0, 3), "all_subsets", 4, 10),  # second Gram
    (BasisFamily("fourier", 0.0, 1.0, 7), "nested", 16, 30),  # row table
])
def test_replication_rows_do_not_depend_on_the_batch(family, scheme, p, n):
    """Each replication's row of every kernel output is the same bytes in a
    batch that spans several sub-batches as computed alone."""
    grid = uniform_grid(p)
    chains = _kernels.chains(build_collection(family, grid, scheme=scheme))
    routes = {len(members) > q.shape[1] for members, q, _ in chains[1]}
    assert routes == {scheme == "all_subsets"}
    size = _kernels.batch_reps(n, p, chains[1])
    X = rng.standard_normal((2 * size + 3, n, p))
    sigma = kernel_to_sigma(KernelSpec("brownian"), grid)
    batch = (streamed_stats(X, chains), _kernels.deviation_batch(X, *chains, sigma))
    for r in range(len(X)):
        alone = (streamed_stats(X[r:r + 1], chains),
                 _kernels.deviation_batch(X[r:r + 1], *chains, sigma))
        for got, want in zip(batch, alone):
            for a, b in zip(got, want):
                assert a[r:r + 1].tobytes() == b.tobytes(), r


def test_deviation_forms_no_matrix_per_replication():
    """dev_sq is read off each chain's Gram C = W^T W / n: at p = 256 and a
    chain of width 3, deviation_batch's traced peak stays below an eighth of
    the (reps, p, p) array that S - sigma per replication would take."""
    p, n, reps = 256, 4, 40
    collection = build_collection(BasisFamily("fourier", 0.0, 1.0, 2), uniform_grid(p))
    X = rng.standard_normal((reps, n, p))
    chains = _kernels.chains(collection)
    tracemalloc.start()
    try:
        _kernels.deviation_batch(X, *chains, np.eye(p))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < reps * p * p * X.itemsize / 8, peak


def test_deviation_holds_one_chain_at_a_time():
    """deviation_batch finishes each chain's sums before it starts the next
    chain's: on one RNG block of the 496 tables of fourier all_subsets, k = 2,
    max_index 30 at p = 32 and n = 40, its traced peak stays within 2
    BLOCK_FLOATS floats (0.75 MB, against 1.53 MB with every chain's sums
    held at once and finished together by finish_stats)."""
    p, n = 32, 40
    grid = uniform_grid(p)
    collection = build_collection(BasisFamily("fourier", 0.0, 1.0, 30), grid,
                                  scheme="all_subsets", k=2)
    chains = _kernels.chains(collection)
    assert len(chains[1]) == 496
    sigma = kernel_to_sigma(KernelSpec("brownian"), grid)
    X = draw_batch(psd_factor(sigma), n, 0, 0, block_reps(n, p))
    tracemalloc.start()
    try:
        _kernels.deviation_batch(X, *chains, sigma)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * BLOCK_FLOATS * X.itemsize, peak


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
                    reason="long double is no wider than float64 on this platform")
def test_loss_split_matches_extended_precision_loss():
    """At n = 5000 the loss ||sigma - P S P||^2 of a model that contains the
    truth is far below ||sigma||^2; bias_sq + deviation_batch's dev_sq, which
    never subtracts ||sigma||^2-sized terms, stays within 1e-13 of the loss itself
    against a long-double direct computation. bias_sq is a sum of squares:
    never negative, and at rounding level for every model containing the
    truth."""
    p, n, reps = 8, 5000, 3
    grid = uniform_grid(p)
    family = BasisFamily("fourier", 0.0, 1.0, 7)
    kernel = KernelSpec("finite_rank", family=family, indices=(0, 1, 2),
                        psi=np.diag([2.0, 1.0, 0.5]))
    sigma = kernel_to_sigma(kernel, grid)
    truth = TruthSpec(sigma=sigma)
    collection = build_collection(family, grid, scheme="nested", d_max=8)
    X = np.random.default_rng(5000).standard_normal((reps, n, p)) @ psd_factor(sigma).T

    bias = np.array([bias_sq(truth, m) for m in collection])
    loss = bias + _kernels.deviation_batch(X, *_kernels.chains(collection), sigma)[3]

    xl = X.astype(np.longdouble)
    sl = np.matmul(xl.transpose(0, 2, 1), xl) / n
    exact = np.empty((reps, len(collection)), dtype=np.longdouble)
    for m, model in enumerate(collection):
        u = model.basis.astype(np.longdouble)
        proj = u @ u.T
        d = sigma.astype(np.longdouble) - proj @ sl @ proj
        exact[:, m] = np.sum(d * d, axis=(1, 2))

    contains = np.array([set(kernel.indices) <= set(m.indices) for m in collection])
    assert contains.any() and (np.max(exact[:, contains]) < 1e-2 * frob_norm_sq(sigma))
    rel = np.abs(loss - exact) / exact
    assert float(rel.max()) <= 1e-13
    assert np.all(bias >= 0.0)
    assert np.all(bias[contains] <= 1e-28 * frob_norm_sq(sigma))
    assert np.all(bias[~contains] > 1e-3 * frob_norm_sq(sigma))
