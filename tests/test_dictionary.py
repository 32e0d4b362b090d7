import tracemalloc
import warnings

import numpy as np
import pytest

from covsel import dictionary
from covsel._reference import make_model
from covsel.dictionary import (
    BasisFamily,
    DegenerateCollectionError,
    build_collection,
    build_design,
    eval_basis,
)
from covsel.linalg import RANK_RTOL, basis_from_design, projector_from_basis
from covsel.simulate import uniform_grid

rng = np.random.default_rng(202)


class TestEvalBasis:
    def test_fourier_constant(self):
        fam = BasisFamily("fourier", 0.0, 1.0, 5)
        for t in (0.0, 0.3, 1.0):
            assert eval_basis(fam, 0, t) == 1.0

    def test_histogram_cells(self):
        fam = BasisFamily("histogram", 0.0, 1.0, 3)  # 4 cells
        assert eval_basis(fam, 2, 0.6) == 1.0
        assert eval_basis(fam, 2, 0.1) == 0.0

    def test_histogram_right_endpoint(self):
        fam = BasisFamily("histogram", 0.0, 1.0, 3)
        assert eval_basis(fam, 3, 1.0) == 1.0

    def test_legendre_numerical_orthogonality(self):
        # Gram on a fine uniform (midpoint) grid is diagonal to 1e-6 relative
        fam = BasisFamily("polynomial", 0.0, 1.0, 7)
        fine = uniform_grid(20000)
        design = build_design(fam, range(8), fine)
        gram = design.T @ design / fine.size
        diag = np.diag(gram)
        off = gram - np.diag(diag)
        assert np.abs(off).max() / diag.min() < 1e-6

    def test_legendre_is_legval_bit_for_bit(self):
        # the package evaluates P_i itself; numpy.polynomial stays a test import
        from numpy.polynomial import legendre

        x = np.concatenate([np.linspace(-1.0, 1.0, 401), rng.uniform(-1.0, 1.0, 400),
                            [-0.0, 0.0, -1.0, 1.0]])
        for i in range(41):
            unit = np.zeros(i + 1)
            unit[i] = 1.0
            assert dictionary._legendre(i, x).tobytes() == legendre.legval(x, unit).tobytes(), i
            for v in (np.float64(0.3), np.float64(-0.0)):
                assert np.float64(dictionary._legendre(i, v)).tobytes() == \
                    np.float64(legendre.legval(v, unit)).tobytes(), (i, v)

    def test_index_out_of_range(self):
        fam = BasisFamily("fourier", 0.0, 1.0, 2)
        with pytest.raises(ValueError, match="out of range"):
            eval_basis(fam, 3, 0.5)

    def test_point_outside_domain(self):
        fam = BasisFamily("fourier", 0.0, 1.0, 2)
        with pytest.raises(ValueError, match="outside domain"):
            eval_basis(fam, 0, 1.5)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown basis kind"):
            BasisFamily("wavelet", 0.0, 1.0, 2)

    def test_degenerate_domain(self):
        with pytest.raises(ValueError, match="t_min < t_max"):
            BasisFamily("fourier", 1.0, 1.0, 2)


class TestBuildDesign:
    def test_fourier_constant_column(self):
        fam = BasisFamily("fourier", 0.0, 1.0, 3)
        design = build_design(fam, [0], np.array([0.1, 0.5, 0.9]))
        np.testing.assert_array_equal(design, np.ones((3, 1)))

    def test_histogram_permutation_like(self):
        fam = BasisFamily("histogram", 0.0, 1.0, 3)
        grid = uniform_grid(4)  # one point per cell
        design = build_design(fam, range(4), grid)
        np.testing.assert_array_equal(design.sum(axis=1), np.ones(4))
        np.testing.assert_array_equal(design, np.eye(4))

    def test_entries_match_pointwise_eval(self):
        for fam in (
            BasisFamily("fourier", 0.0, 2.0, 6),
            BasisFamily("polynomial", -1.0, 3.0, 5),
            BasisFamily("histogram", 0.0, 1.0, 7),
        ):
            grid = np.sort(rng.uniform(fam.t_min, fam.t_max, size=9))
            indices = (0, 2, 4)
            design = build_design(fam, indices, grid)
            for j, t in enumerate(grid):
                for col, lam in enumerate(indices):
                    assert design[j, col] == eval_basis(fam, lam, t)

    def test_empty_index_set(self):
        fam = BasisFamily("fourier", 0.0, 1.0, 3)
        with pytest.raises(ValueError, match="empty"):
            build_design(fam, [], np.array([0.5]))


class TestBuildCollection:
    def test_nested_fourier_dims(self):
        fam = BasisFamily("fourier", 0.0, 1.0, 4)
        coll = build_collection(fam, uniform_grid(8), scheme="nested", d_max=3)
        assert [m.indices for m in coll] == [(0,), (0, 1), (0, 1, 2)]
        assert [m.dim for m in coll] == [1.0, 4.0, 9.0]

    def test_histogram_full_model_is_identity(self):
        fam = BasisFamily("histogram", 0.0, 1.0, 3)
        coll = build_collection(fam, uniform_grid(4), scheme="nested", d_max=4)
        np.testing.assert_allclose(projector_from_basis(coll[-1].basis), np.eye(4),
                                   atol=1e-12)

    def test_nested_count(self):
        fam = BasisFamily("fourier", 0.0, 1.0, 6)
        coll = build_collection(fam, uniform_grid(16), scheme="nested", d_max=5)
        assert len(coll) == 5

    def test_all_subsets_count(self):
        fam = BasisFamily("fourier", 0.0, 1.0, 3)
        coll = build_collection(fam, uniform_grid(8), scheme="all_subsets", k=2)
        # C(4,1) + C(4,2) = 10 candidates, all full rank on this grid
        assert len(coll) == 10
        assert all(len(m.indices) <= 2 for m in coll)

    def test_cap_checked_before_any_set_is_built(self):
        # 41 basis functions, subsets of size <= 4: 112,791 sets against the
        # cap of 10,000, counted without building one
        fam = BasisFamily("fourier", 0.0, 1.0, 40)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="112791 models"):
                dictionary.collection_index_sets(fam, "all_subsets", k=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_index_sets_distinct(self):
        fam = BasisFamily("fourier", 0.0, 1.0, 5)
        coll = build_collection(fam, uniform_grid(12), scheme="all_subsets", k=2)
        sets = [m.indices for m in coll]
        assert len(sets) == len(set(sets))

    def test_nested_projector_ranges(self):
        fam = BasisFamily("fourier", 0.0, 1.0, 6)
        coll = build_collection(fam, uniform_grid(16), scheme="nested", d_max=6)
        projs = [projector_from_basis(m.basis) for m in coll]
        for i, small in enumerate(projs):
            for large in projs[i:]:
                np.testing.assert_allclose(small @ large, small, atol=1e-10)

    def test_dim_is_squared_rank(self):
        fam = BasisFamily("polynomial", 0.0, 1.0, 7)
        # more candidate functions than grid points forces rank deficiency
        coll = build_collection(fam, uniform_grid(4), scheme="nested", d_max=8)
        for model in coll:
            assert model.dim == float(model.rank ** 2)
            assert model.rank >= 1
        assert any(model.rank < len(model.indices) for model in coll)

    def test_rebuild_bit_identical(self):
        fam = BasisFamily("fourier", 0.0, 1.0, 5)
        grid = uniform_grid(10)
        c1 = build_collection(fam, grid, scheme="nested", d_max=4)
        c2 = build_collection(fam, grid, scheme="nested", d_max=4)
        for m1, m2 in zip(c1, c2):
            assert np.array_equal(m1.basis, m2.basis)
            assert np.array_equal(projector_from_basis(m1.basis), projector_from_basis(m2.basis))

    def test_degenerate_model_dropped_with_warning(self):
        # grid misses the first histogram cell, so model {0} is rank 0
        fam = BasisFamily("histogram", 0.0, 1.0, 3)
        grid = np.array([0.3, 0.6, 0.9])
        with pytest.warns(UserWarning, match="rank 0"):
            coll = build_collection(fam, grid, scheme="all_subsets", k=1)
        assert (0,) not in [m.indices for m in coll]
        assert len(coll) == 3

    def test_basis_function_vanishing_on_the_grid_is_dropped(self):
        # cos(8 pi u) is about 1e-15 at the 8 midpoints: its column is zeroed,
        # so model (7,) has rank 0 instead of a basis spanned by rounding
        fam = BasisFamily("fourier", 0.0, 1.0, 7)
        with pytest.warns(UserWarning, match=r"dropping model \(7,\)"):
            coll = build_collection(fam, uniform_grid(8), scheme="all_subsets", k=1)
        assert [m.indices for m in coll] == [(i,) for i in range(7)]
        assert np.abs(build_design(fam, [7], uniform_grid(8))).max() < 1e-14

    def test_empty_collection_is_error(self):
        fam = BasisFamily("histogram", 0.0, 1.0, 3)
        grid = np.array([0.9, 0.95])  # only the last cell is populated
        with pytest.warns(UserWarning):
            with pytest.raises(DegenerateCollectionError):
                build_collection(fam, grid, scheme="nested", d_max=1)

    def test_make_model_returns_none_on_rank_zero(self):
        fam = BasisFamily("histogram", 0.0, 1.0, 3)
        assert make_model(fam, [0], np.array([0.9])) is None

    def test_unknown_scheme(self):
        fam = BasisFamily("fourier", 0.0, 1.0, 3)
        with pytest.raises(ValueError, match="scheme"):
            build_collection(fam, uniform_grid(4), scheme="greedy")

    def test_grid_outside_domain(self):
        fam = BasisFamily("fourier", 0.0, 1.0, 3)
        with pytest.raises(ValueError, match="outside domain"):
            build_collection(fam, np.array([0.5, 1.5]), scheme="nested", d_max=2)


# (family, p, max_index): rank-deficient past p, a Nyquist zero column, empty
# histogram cells, and a polynomial design whose last singular value sits
# 1.8e-11 of the largest, below the rank cutoff but near it
NESTED_CASES = [("polynomial", 17, 20), ("fourier", 16, 15), ("histogram", 4, 7),
                ("histogram", 9, 20), ("polynomial", 40, 39)]


def nested(kind, p, max_index):
    """(family, grid, the family's nested collection on the grid)."""
    family, grid = BasisFamily(kind, 0.0, 1.0, max_index), uniform_grid(p)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # histogram models with only empty cells
        return family, grid, build_collection(family, grid, scheme="nested")


class TestNestedCollection:
    @pytest.mark.parametrize("case", NESTED_CASES, ids=lambda c: "%s-p%d-%d" % c)
    def test_matches_per_model_svd(self, case):
        # same ranks as each design's own SVD, projectors within 100 eps kappa
        family, grid, coll = nested(*case)
        for model in coll:
            design = build_design(family, model.indices, grid)
            basis, rank = basis_from_design(design)
            assert rank == model.rank
            sv = np.linalg.svd(design, compute_uv=False)
            tol = 100 * np.finfo(float).eps * sv[0] / sv[rank - 1]
            assert np.abs(projector_from_basis(model.basis) - basis @ basis.T).max() <= tol

    def test_bases_are_leading_columns_of_one_table(self):
        _, _, coll = nested("fourier", 16, 15)
        widest = coll[-1].basis
        for model in coll:
            assert model.table is coll[-1].table
            assert np.array_equal(model.basis, widest[:, :model.rank])
        # the Nyquist column is an exact dependency: the last two share a basis
        assert coll[-1].rank == coll[-2].rank == 15

    def test_near_cutoff_rank_ends_the_chain(self):
        # sigma_40 / sigma_1 = 1.8e-11: a basis of the first 39 columns would
        # miss the SVD's projector by 4e-3, so model 40 takes its own SVD
        family, grid, coll = nested("polynomial", 40, 39)
        assert coll[-1].rank == 39
        assert coll[0].table is not coll[-1].table
        _, s, _ = np.linalg.svd(build_design(family, range(40), grid))
        assert 1e-12 < s[-1] / s[0] < RANK_RTOL

    def test_rank_zero_prefix_is_dropped_and_the_chain_goes_on(self):
        # cell 0 of eight holds none of the four points: model {0} has rank 0
        with pytest.warns(UserWarning, match=r"dropping model \(0,\)"):
            coll = build_collection(BasisFamily("histogram", 0.0, 1.0, 7), uniform_grid(4),
                                    scheme="nested")
        assert [m.rank for m in coll] == [1, 1, 2, 2, 3, 3, 4]
        assert all(m.table is coll[-1].table for m in coll)
