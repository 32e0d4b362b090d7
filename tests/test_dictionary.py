import tracemalloc

import numpy as np
import pytest

from covsel import dictionary
from covsel.dictionary import (
    BasisFamily,
    DegenerateCollectionError,
    build_collection,
    build_design,
    eval_basis,
    make_model,
)
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
        np.testing.assert_allclose(coll.models[-1].projector, np.eye(4), atol=1e-12)

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
        for i, small in enumerate(coll.models):
            for large in coll.models[i:]:
                prod = small.projector @ large.projector
                np.testing.assert_allclose(prod, small.projector, atol=1e-10)

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
            assert np.array_equal(m1.projector, m2.projector)

    def test_degenerate_model_dropped_with_warning(self):
        # grid misses the first histogram cell, so model {0} is rank 0
        fam = BasisFamily("histogram", 0.0, 1.0, 3)
        grid = np.array([0.3, 0.6, 0.9])
        with pytest.warns(UserWarning, match="rank 0"):
            coll = build_collection(fam, grid, scheme="all_subsets", k=1)
        assert (0,) not in [m.indices for m in coll]
        assert len(coll) == 3

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
