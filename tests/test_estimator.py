import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from covsel import _kernels
from covsel._reference import fourth_moment_cov_dense, kron, make_model, project
from covsel.dictionary import BasisFamily, build_collection, build_design
from covsel.estimator import SampleSet, empirical_cov, estimate, fit_all
from covsel.linalg import (frob_norm_sq, projector_from_basis, projector_from_design,
                           psd_factor)
from covsel.simulate import KernelSpec, kernel_to_sigma, uniform_grid

rng = np.random.default_rng(303)

FOURIER = BasisFamily("fourier", 0.0, 1.0, 8)
HIST4 = BasisFamily("histogram", 0.0, 1.0, 3)


def samples_from(data, grid=None):
    data = np.asarray(data, dtype=float)
    if grid is None:
        grid = uniform_grid(data.shape[1])
    return SampleSet(grid=grid, data=data)


def full_rank_model(p):
    return make_model(BasisFamily("histogram", 0.0, 1.0, p - 1), range(p), uniform_grid(p))


class TestSampleSet:
    def test_requires_two_replications(self):
        with pytest.raises(ValueError, match="n = 2"):
            SampleSet(grid=np.array([0.5]), data=np.array([[1.0]]))

    def test_requires_increasing_grid(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            SampleSet(grid=np.array([0.5, 0.5]), data=np.zeros((2, 2)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            SampleSet(grid=np.array([0.0, 1.0]), data=np.array([[1.0, np.nan], [0.0, 1.0]]))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="columns"):
            SampleSet(grid=np.array([0.0, 1.0]), data=np.zeros((3, 3)))


class TestEmpiricalCov:
    def test_orthogonal_unit_rows(self):
        s = empirical_cov(samples_from([[1.0, 0.0], [0.0, 1.0]]))
        np.testing.assert_allclose(s, 0.5 * np.eye(2), atol=1e-15)

    def test_repeated_row(self):
        s = empirical_cov(samples_from([[1.0, 2.0], [1.0, 2.0]]))
        np.testing.assert_allclose(s, [[1.0, 2.0], [2.0, 4.0]], atol=1e-15)

    def test_matches_gram_formula(self):
        x = rng.standard_normal((7, 4))
        s = empirical_cov(samples_from(x))
        np.testing.assert_allclose(s, x.T @ x / 7, atol=1e-12)

    def test_no_mean_subtraction_by_default(self):
        x = np.ones((5, 2)) + rng.standard_normal((5, 2)) * 0.01
        s = empirical_cov(samples_from(x))
        assert s[0, 0] > 0.5  # second moment, far above the tiny variance
        np.testing.assert_allclose(s, x.T @ x / 5, atol=1e-12)

    def test_symmetric_and_psd(self):
        for _ in range(10):
            s = empirical_cov(samples_from(rng.standard_normal((6, 5))))
            np.testing.assert_array_equal(s, s.T)
            eigs = np.linalg.eigvalsh(s)
            assert eigs.min() >= -1e-10 * max(1.0, abs(eigs).max())


class TestFitModel:
    def test_full_rank_reproduces_s(self):
        x = rng.standard_normal((6, 4))
        samples = samples_from(x)
        s = empirical_cov(samples)
        np.testing.assert_allclose(estimate(samples, full_rank_model(4)), s, atol=1e-12)

    def test_rank_one_projection_direct_multiply(self):
        # P = [[.5,.5],[.5,.5]] is idempotent, so with S = I the projected
        # covariance P S P equals P itself (direct matrix multiply oracle)
        samples = samples_from([[1.0, 0.0], [0.0, 1.0]])
        s = empirical_cov(samples)
        model = make_model(FOURIER, [0], samples.grid)
        proj = projector_from_basis(model.basis)
        np.testing.assert_allclose(proj, [[0.5, 0.5], [0.5, 0.5]], atol=1e-12)
        shat = estimate(samples, model)
        expected = proj @ s @ proj
        np.testing.assert_allclose(shat, expected, atol=1e-14)
        np.testing.assert_allclose(shat, 0.5 * proj, atol=1e-14)

    def test_loss_matches_direct_residual_sum(self):
        for _ in range(10):
            x = rng.standard_normal((8, 3))
            samples = samples_from(x)
            s = empirical_cov(samples)
            model = make_model(FOURIER, range(int(rng.integers(1, 4))), samples.grid)
            (loss,) = fit_all(samples, [model]).loss
            shat = estimate(samples, model)
            direct = np.mean([frob_norm_sq(np.outer(xi, xi) - shat) for xi in x])
            assert loss == pytest.approx(direct, rel=1e-9, abs=1e-9)

    def test_sigma_hat_in_model_space(self):
        x = rng.standard_normal((5, 4))
        samples = samples_from(x)
        s = empirical_cov(samples)
        model = make_model(FOURIER, [0, 1], samples.grid)
        shat = estimate(samples, model)
        proj = projector_from_basis(model.basis)
        np.testing.assert_allclose(shat, proj @ shat @ proj, atol=1e-9)
        np.testing.assert_allclose(shat, shat.T, atol=1e-12)

    def test_grid_mismatch(self):
        samples = samples_from(rng.standard_normal((4, 3)))
        model = make_model(FOURIER, [0], uniform_grid(3, 0.0, 0.5))
        with pytest.raises(ValueError, match="grid"):
            fit_all(samples, [model])

    def test_replication_order_invariance(self):
        x = rng.standard_normal((9, 3))
        perm = rng.permutation(9)
        model = make_model(FOURIER, [0, 1], uniform_grid(3))
        fits = []
        for data in (x, x[perm]):
            samples = samples_from(data)
            fits.append(fit_all(samples, [model])[:2])
        (loss_a,), (trace_a,) = fits[0]
        (loss_b,), (trace_b,) = fits[1]
        assert loss_a == pytest.approx(loss_b, rel=1e-12)
        assert trace_a == pytest.approx(trace_b, rel=1e-10, abs=1e-12)

    def test_monotone_loss_on_nested_models(self):
        x = rng.standard_normal((12, 8))
        samples = samples_from(x, uniform_grid(8))
        coll = build_collection(FOURIER, samples.grid, scheme="nested", d_max=5)
        losses = fit_all(samples, coll).loss
        assert losses.shape == (5,)
        for small, large in zip(losses, losses[1:]):
            assert large <= small + 1e-9


def traces_of(samples, models):
    return fit_all(samples, models)[1]


class TestFourthMomentTrace:
    def test_hand_example(self):
        # n=2, x1=e1, x2=e2, full projector: (1/2)(1+1) - ||S||^2 = 1 - 1/2
        samples = samples_from([[1.0, 0.0], [0.0, 1.0]])
        assert traces_of(samples, [full_rank_model(2)])[0] == pytest.approx(0.5, abs=1e-14)

    def test_identical_rows_give_zero(self):
        samples = samples_from([[1.0, 2.0, 3.0]] * 4)
        models = [make_model(FOURIER, range(d), samples.grid) for d in (1, 2, 3)]
        np.testing.assert_allclose(traces_of(samples, models), 0.0, atol=1e-9)

    def test_matches_dense_oracle(self):
        # one fit_all call per nested collection, so entry j must be model j's trace
        for p in (2, 3, 4):
            grid = uniform_grid(p)
            coll = build_collection(FOURIER, grid, scheme="nested", d_max=p)
            for n in (5, 10):
                for seed in range(20):
                    gen = np.random.default_rng((p, n, seed))
                    samples = samples_from(gen.standard_normal((n, p)), grid)
                    fast = traces_of(samples, coll)
                    phi = fourth_moment_cov_dense(samples)
                    projs = [projector_from_basis(m.basis) for m in coll]
                    dense = [float(np.sum(kron(proj, proj) * phi)) for proj in projs]
                    np.testing.assert_allclose(fast, dense, rtol=1e-8, atol=1e-10)

    def test_nonnegative_and_bounded_by_total_trace(self):
        for _ in range(10):
            samples = samples_from(rng.standard_normal((6, 3)))
            model = make_model(FOURIER, range(int(rng.integers(1, 4))), samples.grid)
            (value,) = traces_of(samples, [model])
            total = float(np.trace(fourth_moment_cov_dense(samples)))
            assert -1e-9 <= value <= total + 1e-9


def dense_fit_all(samples, s, collection):
    """fit_all by the dense projector route: ||P S P||^2 and the rows of X P."""
    row_sq = np.einsum("ij,ij->i", samples.data, samples.data)
    const = float(np.mean(row_sq ** 2))
    loss, trace = [], []
    for model in collection:
        fit_sq = frob_norm_sq(project(s, model))
        xp = samples.data @ projector_from_basis(model.basis)
        proj_sq = np.einsum("ij,ij->i", xp, xp)
        loss.append(const - fit_sq)
        trace.append(float(np.mean(proj_sq ** 2)) - fit_sq)
    return np.array(loss), np.array(trace)


def nyquist_fourier():
    # on the p=16 midpoint grid, index 15 is cos(pi (j + 1/2)): a zero column
    # up to rounding, so the last two nested models share one projector
    family, grid = BasisFamily("fourier", 0.0, 1.0, 15), uniform_grid(16)
    coll = build_collection(family, grid, scheme="nested")
    assert coll[-1].rank == coll[-2].rank == 15
    return family, grid, coll


def rank_deficient_polynomial():
    # ten Legendre polynomials on six points: every model past index 5 has rank 6
    family, grid = BasisFamily("polynomial", 0.0, 1.0, 9), uniform_grid(6)
    coll = build_collection(family, grid, scheme="nested")
    assert [m.rank for m in coll][-5:] == [6] * 5
    return family, grid, coll


def histogram_with_empty_cells():
    # eight cells, five points: three cells are empty, so their singleton
    # models are dropped and pairs with one empty cell have rank 1
    family, grid = BasisFamily("histogram", 0.0, 1.0, 7), uniform_grid(5)
    with pytest.warns(UserWarning, match="rank 0"):
        coll = build_collection(family, grid, scheme="all_subsets", k=2)
    assert any(m.rank < len(m.indices) for m in coll)
    return family, grid, coll


COORDINATE_CASES = [nyquist_fourier, rank_deficient_polynomial, histogram_with_empty_cells]


@pytest.mark.parametrize("make_collection", COORDINATE_CASES)
class TestCoordinatePath:
    def test_fit_all_matches_dense_projector_route(self, make_collection):
        _, grid, coll = make_collection()
        gen = np.random.default_rng(len(coll))
        samples = samples_from(gen.standard_normal((40, grid.size)), grid)
        s = empirical_cov(samples)
        loss, trace = fit_all(samples, coll)[:2]
        dense_loss, dense_trace = dense_fit_all(samples, s, coll)
        np.testing.assert_allclose(loss, dense_loss, rtol=1e-13, atol=0)
        np.testing.assert_allclose(trace, dense_trace, rtol=1e-13, atol=0)

    def test_fit_all_forms_no_projector(self, make_collection, monkeypatch):
        def no_projector(basis):
            raise AssertionError("fit_all formed a projector")

        # every covsel module's name for it, wherever one imported it
        for module in [m for key, m in sys.modules.items() if key.startswith("covsel.")]:
            if vars(module).get("projector_from_basis") is projector_from_basis:
                monkeypatch.setattr(module, "projector_from_basis", no_projector)
        _, grid, coll = make_collection()
        samples = samples_from(rng.standard_normal((5, grid.size)), grid)
        fit_all(samples, coll)

    def test_lazy_projector_equals_projector_from_design(self, make_collection):
        # a model of a nested chain that shares its table with another model
        # is leading columns of one QR table, not its design's SVD, so the two
        # projectors agree to 100 eps kappa(design); every other model's, on a
        # table of its own or a histogram's normalised design, is bit for bit
        family, grid, coll = make_collection()
        for model in coll:
            design = build_design(family, model.indices, grid)
            expected, rank = projector_from_design(design)
            assert rank == model.rank
            if family.kind != "histogram" and any(
                    model.table is other.table for other in coll if other is not model):
                sv = np.linalg.svd(design, compute_uv=False)
                tol = 100 * np.finfo(float).eps * sv[0] / sv[rank - 1]
                assert np.abs(projector_from_basis(model.basis) - expected).max() <= tol
            else:
                assert np.array_equal(projector_from_basis(model.basis), expected)

    def test_basis_is_orthonormal(self, make_collection):
        for model in make_collection()[2]:
            assert model.basis.shape == (model.grid.size, model.rank)
            np.testing.assert_allclose(model.basis.T @ model.basis, np.eye(model.rank),
                                       atol=1e-13)


def test_fit_all_takes_models_in_any_order():
    # a shuffled nested collection, with models of their own mixed in, gets
    # each model's own loss and trace, bit for bit
    grid = uniform_grid(16)
    coll = build_collection(BasisFamily("fourier", 0.0, 1.0, 15), grid, scheme="nested")
    own = [make_model(FOURIER, range(d), grid) for d in (1, 3)]
    samples = samples_from(rng.standard_normal((30, 16)), grid)
    models = [*coll, *own]
    loss, trace = fit_all(samples, models)[:2]
    perm = rng.permutation(len(models))
    perm_loss, perm_trace = fit_all(samples, [models[j] for j in perm])[:2]
    assert np.array_equal(perm_loss, loss[perm]) and np.array_equal(perm_trace, trace[perm])
    # a model of its own spans what the nested model of the same indices spans
    np.testing.assert_allclose(loss[-2:], loss[[0, 2]], rtol=1e-13)
    np.testing.assert_allclose(trace[-2:], trace[[0, 2]], rtol=1e-12)


# tracemalloc peak of fit_all and of estimate on select-wide's shape, a
# (1000, 256) sample over the 129-model nested fourier chain: each walks the
# sample in row blocks of at most CHUNK_FLOATS floats (2.10 and 2.05 MB with
# one whole W = X U, 1.02 and 1.06 MB in row blocks)
FIT_PEAK_BYTES = 1.5 * 2 ** 20


def test_fit_and_estimate_peak_stays_bounded():
    grid = uniform_grid(256)
    coll = build_collection(BasisFamily("fourier", 0.0, 1.0, 128), grid, scheme="nested")
    assert len(coll) == 129 and len({id(model.table) for model in coll}) == 1
    samples = samples_from(rng.standard_normal((1000, 256)), grid)
    for fn, models in ((fit_all, coll), (estimate, coll[-1])):
        tracemalloc.start()
        try:
            fn(samples, models)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < FIT_PEAK_BYTES, (fn.__name__, peak)


# Worst error of fit_all's loss and trace against a long-double recomputation
# from the same float64 data, S and basis, in units of float64 eps times
# (1/n) sum ||x_i||^4 (loss) and (1/n) sum ||P x_i||^4 (trace). Measured at
# 1.19 and 3.62 when this budget was set; it may only tighten.
LOSS_BUDGET_EPS = 1.5
TRACE_BUDGET_EPS = 4.0
# The same for the batched kernels (test_kernel_error_budget), in the units
# its docstring gives. Measured at 2.75 (proj_norm4) and 1.51 (fit_sq) when
# these budgets were set, and at 2.33 (dev_sq) since dev_sq reads C - G off
# each chain's Gram (15.5 through the p x p S - sigma); they may only tighten.
KERNEL_PROJ4_BUDGET_EPS = 3.0
KERNEL_FIT_BUDGET_EPS = 1.7
KERNEL_DEV_BUDGET_EPS = 2.5
# The same for `estimate` (test_estimate_error_budget), in eps times
# max |P S P|: measured at 3.13 when this budget was set; it may only tighten.
ESTIMATE_BUDGET_EPS = 3.5


def longdouble_fit(x, s, basis):
    x, s, u = (np.asarray(a, dtype=np.longdouble) for a in (x, s, basis))
    const = np.mean(np.sum(x * x, axis=1) ** 2)
    fit_sq = np.sum((u.T @ s @ u) ** 2)
    w = x @ u
    proj4 = np.mean(np.sum(w * w, axis=1) ** 2)
    return const - fit_sq, proj4 - fit_sq, const, proj4


def budget_collections():
    """(collection, grid, generator) for every fixed collection of the error
    budgets: three families at three grid sizes, both schemes, three seeds,
    and one wider nested fourier case."""
    cases = [(kind, top, p, scheme, seed)
             for kind, top in (("fourier", 24), ("polynomial", 12), ("histogram", 15))
             for p in (8, 16, 33) for scheme in ("nested", "all_subsets") for seed in range(3)]
    for kind, top, p, scheme, seed in [*cases, ("fourier", 40, 64, "nested", 0)]:
        grid = uniform_grid(p)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # histogram models with only empty cells
            coll = build_collection(BasisFamily(kind, 0.0, 1.0, top), grid, scheme=scheme)
        yield coll, grid, np.random.default_rng((p, seed))


# p and n of the budgets' multi-block samples: n rows span three of
# `_kernels.row_blocks`, however many replications share a batch
MULTI_BLOCK_P, MULTI_BLOCK_N = 64, 2100


def budget_cases():
    """(collection, grid, generator, n) for every sample of the error
    budgets: each `budget_collections` case at n = 40, then a nested fourier
    chain (the row-table route) and a histogram all_subsets collection with
    more members than columns (the second-Gram route) at MULTI_BLOCK_N."""
    for case in budget_collections():
        yield (*case, 40)
    grid = uniform_grid(MULTI_BLOCK_P)
    assert len(_kernels.row_blocks(np.empty((1, MULTI_BLOCK_N, MULTI_BLOCK_P)))) == 3
    for seed, (family, scheme) in enumerate([(BasisFamily("fourier", 0.0, 1.0, 15), "nested"),
                                             (BasisFamily("histogram", 0.0, 1.0, 7), "all_subsets")]):
        coll = build_collection(family, grid, scheme=scheme)
        yield coll, grid, np.random.default_rng((MULTI_BLOCK_P, seed)), MULTI_BLOCK_N


def test_fit_all_error_budget():
    eps = np.finfo(float).eps
    worst_loss = worst_trace = 0.0
    for coll, grid, gen, n in budget_cases():
        p = grid.size
        samples = samples_from(gen.standard_normal((n, p)) @ gen.standard_normal((p, p)), grid)
        s = empirical_cov(samples)
        loss, trace = fit_all(samples, coll)[:2]
        for j, model in enumerate(coll):
            exact_loss, exact_trace, const, proj4 = longdouble_fit(samples.data, s, model.basis)
            worst_loss = max(worst_loss, float(abs(loss[j] - exact_loss) / (eps * const)))
            worst_trace = max(worst_trace, float(abs(trace[j] - exact_trace) / (eps * proj4)))
    assert worst_loss <= LOSS_BUDGET_EPS, worst_loss
    assert worst_trace <= TRACE_BUDGET_EPS, worst_trace


def test_kernel_error_budget():
    """The batched kernels on several replications of an Ornstein-Uhlenbeck
    truth, against a long-double recomputation from the same float64 draws
    and bases: proj_norm4 and fit_sq in eps times (1/n) sum ||x_i||^4, dev_sq
    in eps times ||C||^2 + ||G||^2 (C = U^T S U, G = U^T sigma U)."""
    eps = np.finfo(float).eps
    worst = np.zeros(3)
    for coll, grid, gen, n in budget_cases():
        sigma = kernel_to_sigma(KernelSpec("ornstein_uhlenbeck", length_scale=0.5), grid)
        X = gen.standard_normal((4, n, grid.size)) @ psd_factor(sigma).T
        chains = _kernels.chains(coll)
        norm4, proj_norm4, fit_sq, dev_sq = _kernels.deviation_batch(X, *chains, sigma)
        xl, sl = X.astype(np.longdouble), sigma.astype(np.longdouble)
        for j, model in enumerate(coll):
            u = model.basis.astype(np.longdouble)
            w = xl @ u
            c = np.matmul(w.transpose(0, 2, 1), w) / X.shape[1]
            g = u.T @ sl @ u
            exact_fit, g_sq = np.sum(c * c, axis=(1, 2)), np.sum(g * g)
            errors = (np.mean(np.sum(w * w, axis=2) ** 2, axis=1) - proj_norm4[:, j],
                      exact_fit - fit_sq[:, j], np.sum((c - g) ** 2, axis=(1, 2)) - dev_sq[:, j])
            scales = (norm4, norm4, exact_fit + g_sq)
            worst = np.maximum(worst, [float(np.max(np.abs(e) / (eps * sc)))
                                       for e, sc in zip(errors, scales)])
    assert worst[0] <= KERNEL_PROJ4_BUDGET_EPS, worst
    assert worst[1] <= KERNEL_FIT_BUDGET_EPS, worst
    assert worst[2] <= KERNEL_DEV_BUDGET_EPS, worst


def test_estimate_error_budget():
    """estimate's U C U^T against a long-double U (U^T S U) U^T from the same
    float64 data and basis, in eps times max |P S P|."""
    eps = np.finfo(float).eps
    worst = 0.0
    for coll, grid, gen, n in budget_cases():
        p = grid.size
        samples = samples_from(gen.standard_normal((n, p)) @ gen.standard_normal((p, p)), grid)
        xl = samples.data.astype(np.longdouble)
        sl = xl.T @ xl / samples.n
        for model in coll:
            u = model.basis.astype(np.longdouble)
            exact = u @ (u.T @ sl @ u) @ u.T
            err = np.max(np.abs(estimate(samples, model) - exact)) / np.max(np.abs(exact))
            worst = max(worst, float(err / eps))
    assert worst <= ESTIMATE_BUDGET_EPS, worst


class TestFourthMomentCovDense:
    def test_identical_rows_zero_matrix(self):
        samples = samples_from([[1.0, -1.0]] * 3)
        np.testing.assert_allclose(fourth_moment_cov_dense(samples), 0.0, atol=1e-12)

    def test_psd(self):
        for _ in range(10):
            samples = samples_from(rng.standard_normal((6, 3)))
            phi = fourth_moment_cov_dense(samples)
            eigs = np.linalg.eigvalsh(phi)
            assert eigs.min() >= -1e-10 * max(1.0, eigs.max())

    def test_trace_expansion(self):
        samples = samples_from(rng.standard_normal((7, 3)))
        s = empirical_cov(samples)
        phi = fourth_moment_cov_dense(samples)
        norms4 = [frob_norm_sq(np.outer(x, x)) for x in samples.data]
        expected = np.mean(norms4) - frob_norm_sq(s)
        assert np.trace(phi) == pytest.approx(expected, rel=1e-10)

    def test_size_guard(self):
        samples = samples_from(rng.standard_normal((3, 40)), grid=np.arange(40.0))
        with pytest.raises(ValueError, match="guard"):
            fourth_moment_cov_dense(samples)
