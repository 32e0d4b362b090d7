import numpy as np
import pytest

from covsel.dictionary import BasisFamily, build_collection
from covsel.estimator import SampleSet, empirical_cov, fit_all
from covsel.selection import TIE_RTOL, at_minimum, select
from covsel.simulate import uniform_grid

rng = np.random.default_rng(404)

FOURIER = BasisFamily("fourier", 0.0, 1.0, 8)
HIST = BasisFamily("histogram", 0.0, 1.0, 1)  # two cells, one per grid point


def fitted_collection(data, family=FOURIER, **kwargs):
    """(samples, models, loss, trace) for a collection fitted to `data`."""
    data = np.asarray(data, dtype=float)
    grid = uniform_grid(data.shape[1])
    samples = SampleSet(grid=grid, data=data)
    s = empirical_cov(samples)
    coll = build_collection(family, grid, **kwargs)
    return (samples, coll.models, *fit_all(samples, s, coll))


class TestPenaltyValues:
    def test_rejects_nonpositive_theta(self):
        _, models, loss, trace = fitted_collection(
            [[1.0, 0.0], [0.0, 1.0]], family=HIST, scheme="nested", d_max=2
        )
        with pytest.raises(ValueError, match="positive"):
            select(models, loss, trace, 0.0, n=2)
        with pytest.raises(ValueError, match="positive"):
            select(models, loss, trace, -0.5, n=2)

    def test_data_driven_worked_example(self):
        # theta=1, projected trace 0.5, n=2 -> penalty (1+1) * 0.5 / 2 = 0.5
        _, models, loss, trace = fitted_collection(
            [[1.0, 0.0], [0.0, 1.0]], family=HIST, scheme="nested", d_max=2
        )
        assert trace[-1] == pytest.approx(0.5, abs=1e-14)
        pen = select(models, loss, trace, 1.0, n=2).rows[-1]["penalty"]
        assert pen == pytest.approx(0.5, abs=1e-14)
        pen4 = select(models, loss, trace, 1.0, n=4).rows[-1]["penalty"]
        assert pen4 == pytest.approx(pen / 2, abs=1e-14)

    def test_zero_trace_gives_zero_penalty(self):
        _, models, loss, trace = fitted_collection(
            [[1.0, 1.0]] * 3, family=HIST, scheme="nested", d_max=1
        )
        for theta in (0.5, 1.0, 10.0):
            report = select(models, loss, trace, theta, n=3)
            assert report.rows[0]["penalty"] == pytest.approx(0.0, abs=1e-12)

    def test_known_worked_example(self):
        # the known-factor penalty is select on the true traces factor * dim:
        # theta=1, factor 1.5, dim 4, n=100 -> 2 * 1.5 * 4 / 100 = 0.12
        coll = build_collection(HIST, uniform_grid(2), scheme="nested", d_max=2)
        model = coll.models[-1]
        assert model.dim == 4.0

        def penalty(factor, theta):
            report = select([model], [0.0], [factor * model.dim], theta, n=100)
            return report.rows[0]["penalty"]

        pen = penalty(1.5, theta=1.0)
        assert pen == pytest.approx(0.12, abs=1e-15)
        assert penalty(0.0, theta=1.0) == 0.0
        assert penalty(1.5, theta=3.0) == pytest.approx(2 * pen, rel=1e-12)


class TestAtMinimum:
    def test_one_dimensional(self):
        best = 2.0
        tol = TIE_RTOL * best
        crits = [3.0, best, best, best + 0.5 * tol, best + 2.0 * tol]
        assert at_minimum(crits).tolist() == [False, True, True, True, False]

    def test_rows_are_independent(self):
        # below 1 the tolerance is floored at TIE_RTOL; above, it scales with |best|
        crits = np.array([
            [0.5, 0.5 + 0.8 * TIE_RTOL, 0.5 + 2.0 * TIE_RTOL],
            [1e3 * (1 + 2.0 * TIE_RTOL), 1e3, 1e3 * (1 + 0.5 * TIE_RTOL)],
            [5.0, 1.0, 1.0],
        ])
        assert at_minimum(crits).tolist() == [
            [True, True, False],
            [False, True, True],
            [False, True, True],
        ]


class TestSelect:
    def test_single_model(self):
        samples, models, loss, trace = fitted_collection(
            rng.standard_normal((5, 4)), scheme="nested", d_max=1
        )
        report = select(models, loss, trace, 1.0, samples.n)
        assert report.selected is models[0]

    def test_tie_breaks_to_smaller_dim(self):
        # e1/e2 rows on a 2-cell histogram: both models reach criterion 1.0
        data = np.array([[1.0, 0.0], [0.0, 1.0]])
        samples, models, loss, trace = fitted_collection(
            data, family=BasisFamily("histogram", 0.0, 1.0, 1), scheme="nested", d_max=2
        )
        report = select(models, loss, trace, 1.0, samples.n)
        crits = [row["criterion"] for row in report.rows]
        assert crits[0] == pytest.approx(crits[1], rel=1e-14)
        assert report.selected.indices == (0,)
        assert set(report.ties) == {(0,), (0, 1)}

    def test_tie_breaks_lexicographically_at_equal_dim(self):
        # all-subsets singletons on a histogram grid missing two cells:
        # cells 1 and 3 are empty, {0} and {2} have identical fits by symmetry
        data = np.array([[1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])
        grid = np.array([0.1, 0.6])
        samples = SampleSet(grid=grid, data=data)
        s = empirical_cov(samples)
        with pytest.warns(UserWarning):
            coll = build_collection(
                BasisFamily("histogram", 0.0, 1.0, 3), grid, scheme="all_subsets", k=1
            )
        loss, trace = fit_all(samples, s, coll)
        report = select(coll.models, loss, trace, 1.0, samples.n)
        assert report.selected.indices == (0,)
        assert set(report.ties) == {(0,), (2,)}

    def test_huge_theta_prefers_smallest_penalty(self):
        samples, models, loss, trace = fitted_collection(
            rng.standard_normal((20, 8)), scheme="nested", d_max=5
        )
        report = select(models, loss, trace, 1e6, samples.n)
        assert report.selected is models[int(np.argmin(trace))]

    def test_criterion_rows_decompose(self):
        samples, models, loss, trace = fitted_collection(
            rng.standard_normal((10, 4)), scheme="nested", d_max=4
        )
        report = select(models, loss, trace, 0.7, samples.n)
        for row, model_loss in zip(report.rows, loss):
            assert row["loss"] == model_loss
            assert row["criterion"] == pytest.approx(
                row["loss"] + row["penalty"], rel=1e-12, abs=1e-12
            )

    def test_model_order_invariance(self):
        samples, models, loss, trace = fitted_collection(
            rng.standard_normal((10, 6)), scheme="nested", d_max=4
        )
        report_fwd = select(models, loss, trace, 1.0, samples.n)
        report_rev = select(models[::-1], loss[::-1], trace[::-1], 1.0, samples.n)
        assert report_fwd.selected is report_rev.selected
        assert report_fwd.ties == report_rev.ties

    def test_max_variance_factor_is_max(self):
        samples, models, loss, trace = fitted_collection(
            rng.standard_normal((10, 6)), scheme="nested", d_max=4
        )
        report = select(models, loss, trace, 1.0, samples.n)
        factors = [t / m.dim for m, t in zip(models, trace)]
        assert report.max_variance_factor == max(factors)

    def test_zero_penalty_changes_decision(self):
        # with no penalty the largest model always wins on nested collections
        samples, models, loss, trace = fitted_collection(
            rng.standard_normal((8, 8)), scheme="nested", d_max=5
        )
        free = select(models, loss, np.zeros_like(trace), 1.0, samples.n)
        assert free.selected.dim == max(m.dim for m in models)
        penalised = select(models, loss, trace, 50.0, samples.n)
        assert penalised.selected.dim < free.selected.dim

    def test_empty_fits(self):
        with pytest.raises(ValueError, match="no models"):
            select([], [], [], 1.0, 5)

    def test_length_mismatch(self):
        _, models, loss, trace = fitted_collection(
            rng.standard_normal((6, 4)), scheme="nested", d_max=3
        )
        with pytest.raises(ValueError, match="same length"):
            select(models, loss[:-1], trace, 1.0, 6)

    def test_selected_dim_monotone_in_theta(self):
        # on nested collections the selected dim never grows as theta grows
        for trial in range(5):
            gen = np.random.default_rng((505, trial))
            samples, models, loss, trace = fitted_collection(
                gen.standard_normal((15, 8)), scheme="nested", d_max=6
            )
            dims = []
            for theta in np.linspace(0.01, 20.0, 25):
                report = select(models, loss, trace, theta, samples.n)
                dims.append(report.selected.dim)
            assert all(b <= a for a, b in zip(dims, dims[1:]))
