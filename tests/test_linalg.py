import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.linalg import pinv

from covsel import _reference, linalg
from covsel.dictionary import BasisFamily
from covsel.oracle import TruthSpec
from covsel.simulate import KernelSpec, kernel_to_sigma

rng = np.random.default_rng(101)


def random_projector(gen, p, k=None):
    k = k or int(gen.integers(1, p + 1))
    proj, _ = linalg.projector_from_design(gen.standard_normal((p, k)))
    return proj


class TestVec:
    def test_column_stacking(self):
        out = _reference.vec(np.array([[1.0, 3.0], [2.0, 4.0]]))
        np.testing.assert_array_equal(out, [1.0, 2.0, 3.0, 4.0])

    def test_zero_matrix(self):
        np.testing.assert_array_equal(_reference.vec(np.zeros((3, 2))), np.zeros(6))

    def test_scalar_case(self):
        np.testing.assert_array_equal(_reference.vec(np.array([[7.5]])), [7.5])


class TestFrobInner:
    """The Frobenius inner product of a matrix with itself: `frob_norm_sq`."""

    def test_identity(self):
        assert linalg.frob_norm_sq(np.eye(2)) == 2.0

    def test_sum_of_squares(self):
        assert linalg.frob_norm_sq(np.array([[1.0, 2.0], [3.0, 4.0]])) == 30.0

    def test_matches_vec_dot(self):
        for _ in range(20):
            a = rng.standard_normal((3, 3))
            expected = float(_reference.vec(a) @ _reference.vec(a))
            assert linalg.frob_norm_sq(a) == pytest.approx(expected, rel=1e-12)


class TestProjector:
    def test_span_of_ones(self):
        proj, rank = linalg.projector_from_design(np.array([[1.0], [1.0]]))
        np.testing.assert_allclose(proj, [[0.5, 0.5], [0.5, 0.5]], atol=1e-14)
        assert rank == 1

    def test_identity_design(self):
        proj, rank = linalg.projector_from_design(np.eye(4))
        np.testing.assert_allclose(proj, np.eye(4), atol=1e-12)
        assert rank == 4

    def test_duplicated_columns_rank_invariance(self):
        for _ in range(10):
            g = rng.standard_normal((6, 3))
            g_dup = np.hstack([g, g[:, [0]], g[:, [2]]])
            p1, r1 = linalg.projector_from_design(g)
            p2, r2 = linalg.projector_from_design(g_dup)
            assert r1 == r2
            np.testing.assert_allclose(p1, p2, atol=1e-10)

    def test_zero_design(self):
        proj, rank = linalg.projector_from_design(np.zeros((3, 2)))
        np.testing.assert_array_equal(proj, np.zeros((3, 3)))
        assert rank == 0

    def test_equals_normal_equation_form(self):
        # the SVD route agrees with G (G^T G)^+ G^T
        for _ in range(10):
            g = rng.standard_normal((5, 3))
            proj, _ = linalg.projector_from_design(g)
            direct = g @ pinv(g.T @ g, rcond=linalg.RANK_RTOL) @ g.T
            np.testing.assert_allclose(proj, direct, atol=1e-10)

    @given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_invariants_hold(self, p, k, seed):
        g = np.random.default_rng(seed).standard_normal((p, k))
        proj, rank = linalg.projector_from_design(g)
        _reference.check_projector(proj)  # symmetry 1e-12, idempotence 1e-10
        assert 0 <= rank <= min(p, k)

    def test_is_projector_of_basis(self):
        # rank-deficient designs included: the basis keeps only `rank` columns
        for k in (1, 3, 6):
            g = rng.standard_normal((5, 3)) @ rng.standard_normal((3, k))
            basis, rank = linalg.basis_from_design(g)
            assert rank == min(3, k)
            assert basis.shape == (5, rank)
            np.testing.assert_allclose(basis.T @ basis, np.eye(rank), atol=1e-13)
            proj, proj_rank = linalg.projector_from_design(g)
            assert proj_rank == rank
            assert np.array_equal(proj, linalg.projector_from_basis(basis))

    def test_zero_design_has_empty_basis(self):
        basis, rank = linalg.basis_from_design(np.zeros((3, 2)))
        assert basis.shape == (3, 0) and rank == 0

    def test_check_projector_rejects_non_idempotent(self):
        with pytest.raises(ValueError, match="idempotent"):
            _reference.check_projector(np.array([[0.5, 0.0], [0.0, 0.5]]))


class TestKron:
    def test_identity(self):
        np.testing.assert_array_equal(_reference.kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_vec_identity(self):
        for _ in range(20):
            a, b, x = (rng.standard_normal((2, 2)) for _ in range(3))
            lhs = _reference.kron(a, b) @ _reference.vec(x)
            rhs = _reference.vec(b @ x @ a.T)
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_trace_identity(self):
        for _ in range(20):
            a = rng.standard_normal((3, 3))
            b = rng.standard_normal((3, 3))
            lhs = np.trace(_reference.kron(a, b))
            assert lhs == pytest.approx(np.trace(a) * np.trace(b), rel=1e-12, abs=1e-12)

    def test_size_guard(self):
        with pytest.raises(ValueError, match="guard"):
            _reference.kron(np.eye(1001), np.eye(1001))


class TestCommutation:
    def test_p1(self):
        np.testing.assert_array_equal(_reference.commutation_matrix(1), [[1.0]])

    def test_defining_property(self):
        k = _reference.commutation_matrix(3)
        for _ in range(20):
            a = rng.standard_normal((3, 3))
            np.testing.assert_array_equal(k @ _reference.vec(a), _reference.vec(a.T))

    def test_involution(self):
        for p in (1, 2, 3, 4):
            k = _reference.commutation_matrix(p)
            np.testing.assert_array_equal(k @ k, np.eye(p * p))

    def test_permutation_structure(self):
        k = _reference.commutation_matrix(4)
        assert np.all((k == 0) | (k == 1))
        np.testing.assert_array_equal(k.sum(axis=0), np.ones(16))
        np.testing.assert_array_equal(k.sum(axis=1), np.ones(16))

    def test_size_guard(self):
        with pytest.raises(ValueError, match="guard"):
            _reference.commutation_matrix(40)


class TestProjectedTraceRange:
    def test_bounds_for_psd(self):
        # 0 <= Tr((P kron P) Psi) <= Tr(Psi) for PSD Psi, checked densely
        for p in (2, 3, 4):
            for _ in range(10):
                proj = random_projector(rng, p)
                a = rng.standard_normal((p * p, p * p))
                psi = a @ a.T
                val = float(np.sum(_reference.kron(proj, proj) * psi))
                assert val >= -1e-9
                assert val <= np.trace(psi) + 1e-9


class TestPsdCheck:
    """One relative PSD and symmetry check, with no floor, behind psd_factor,
    TruthSpec, KernelSpec and kernel_to_sigma."""

    FAMILY = BasisFamily("fourier", 0.0, 1.0, 1)
    CALLERS = {
        "psd_factor": linalg.psd_factor,
        "TruthSpec": lambda a: TruthSpec(sigma=a),
        "KernelSpec": lambda a: KernelSpec("finite_rank", family=TestPsdCheck.FAMILY,
                                           indices=(0, 1), psi=a),
    }

    @pytest.mark.parametrize("caller", sorted(CALLERS))
    @pytest.mark.parametrize("scale", [2.0 ** -40, 1.0, 2.0 ** 40], ids=["2^-40", "1", "2^40"])
    def test_verdict_does_not_depend_on_scale(self, caller, scale):
        build = self.CALLERS[caller]
        with pytest.raises(ValueError, match="non-negative definite"):
            build(scale * np.diag([1.0, -1e-3]))
        build(scale * np.diag([1.0, -1e-12]))  # rounding of a PSD matrix

    def test_asymmetry_relative_to_the_entries(self):
        with pytest.raises(ValueError, match="symmetric"):
            TruthSpec(sigma=2.0 ** -40 * np.array([[1.0, 1e-3], [0.0, 1.0]]))

    def test_kernel_covariance_checked_relative(self):
        # min(s, t) on a tiny grid reaching below 0: indefinite at any scale
        grid = 2.0 ** -40 * np.array([-1e-3, 1.0])
        with pytest.raises(ValueError, match="kernel's covariance on the grid must be"):
            kernel_to_sigma(KernelSpec("brownian"), grid)

    def test_psd_factor_clips_rounding(self):
        factor = linalg.psd_factor(2.0 ** -40 * np.diag([1.0, -1e-12]))
        np.testing.assert_array_equal(factor @ factor.T, 2.0 ** -40 * np.diag([1.0, 0.0]))
