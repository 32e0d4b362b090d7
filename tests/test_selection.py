from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covsel.dictionary import BasisFamily, build_collection
from covsel.estimator import SampleSet, fit_all
from covsel.selection import TIE_RTOL, decide, select, tie_break_key
from covsel.simulate import uniform_grid

rng = np.random.default_rng(404)

FOURIER = BasisFamily("fourier", 0.0, 1.0, 8)
HIST = BasisFamily("histogram", 0.0, 1.0, 1)  # two cells, one per grid point


def fitted_collection(data, family=FOURIER, **kwargs):
    """(samples, models, loss, trace) for a collection fitted to `data`."""
    data = np.asarray(data, dtype=float)
    grid = uniform_grid(data.shape[1])
    samples = SampleSet(grid=grid, data=data)
    coll = build_collection(family, grid, **kwargs)
    return (samples, coll, *fit_all(samples, coll))


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
        pen = select(models, loss, trace, 1.0, n=2).table["penalty"][-1]
        assert pen == pytest.approx(0.5, abs=1e-14)
        pen4 = select(models, loss, trace, 1.0, n=4).table["penalty"][-1]
        assert pen4 == pytest.approx(pen / 2, abs=1e-14)

    def test_zero_trace_gives_zero_penalty(self):
        _, models, loss, trace = fitted_collection(
            [[1.0, 1.0]] * 3, family=HIST, scheme="nested", d_max=1
        )
        for theta in (0.5, 1.0, 10.0):
            report = select(models, loss, trace, theta, n=3)
            assert report.table["penalty"][0] == pytest.approx(0.0, abs=1e-12)

    def test_known_worked_example(self):
        # the known-factor penalty is select on the true traces factor * dim:
        # theta=1, factor 1.5, dim 4, n=100 -> 2 * 1.5 * 4 / 100 = 0.12
        coll = build_collection(HIST, uniform_grid(2), scheme="nested", d_max=2)
        model = coll[-1]
        assert model.dim == 4.0

        def penalty(factor, theta):
            report = select([model], [0.0], [factor * model.dim], theta, n=100)
            return report.table["penalty"][0]

        pen = penalty(1.5, theta=1.0)
        assert pen == pytest.approx(0.12, abs=1e-15)
        assert penalty(0.0, theta=1.0) == 0.0
        assert penalty(1.5, theta=3.0) == pytest.approx(2 * pen, rel=1e-12)


# decide reads only what tie_break_key reads
Model = namedtuple("Model", "dim indices")


def singletons(m):
    """m models of equal dim, so ties break toward the smaller index."""
    return [Model(1.0, (j,)) for j in range(m)]


class TestDecide:
    def test_one_dimensional(self):
        best = 2.0
        tol = TIE_RTOL * best
        crits = [3.0, best, best, best + 0.5 * tol, best + 2.0 * tol]
        pick, tied = decide(crits, singletons(5))
        assert tied.tolist() == [False, True, True, True, False]
        assert pick == 1

    def test_rows_are_independent(self):
        # below 1 the tolerance is floored at TIE_RTOL; above, it scales with |best|
        crits = np.array([
            [0.5, 0.5 + 0.8 * TIE_RTOL, 0.5 + 2.0 * TIE_RTOL],
            [1e3 * (1 + 2.0 * TIE_RTOL), 1e3, 1e3 * (1 + 0.5 * TIE_RTOL)],
            [5.0, 1.0, 1.0],
        ])
        pick, tied = decide(crits, singletons(3))
        assert tied.tolist() == [
            [True, True, False],
            [False, True, True],
            [False, True, True],
        ]
        assert pick.tolist() == [0, 1, 1]

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_batch_matches_brute_force_in_any_model_order(self, data):
        index_sets = data.draw(st.lists(
            st.lists(st.integers(0, 4), min_size=1, max_size=3, unique=True)
            .map(lambda v: tuple(sorted(v))),
            min_size=1, max_size=6, unique=True,
        ))
        m = len(index_sets)
        dims = data.draw(st.lists(st.sampled_from([1.0, 4.0, 9.0]), min_size=m, max_size=m))
        models = [Model(d, idx) for d, idx in zip(dims, index_sets)]
        k = data.draw(st.integers(1, 3))
        # exact ties from a small integer set, plus offsets either side of the tolerance
        levels = data.draw(st.lists(st.integers(0, 3), min_size=2 * k * m, max_size=2 * k * m))
        nudges = data.draw(st.lists(st.sampled_from([0.0, 0.5, 2.0]),
                                    min_size=2 * k * m, max_size=2 * k * m))
        scale = data.draw(st.sampled_from([1e-6, 1.0, 3.0, 1e8]))
        crits = (np.array(levels) * scale * (1 + np.array(nudges) * TIE_RTOL)).reshape(2, k, m)

        pick, tied = decide(crits, models)
        assert pick.shape == (2, k) and tied.shape == crits.shape
        for a in range(2):
            for b in range(k):
                row = crits[a, b]
                row_pick, row_tied = decide(row, models)
                assert row_pick == pick[a, b]
                assert np.array_equal(row_tied, tied[a, b])
                best = min(row.tolist())
                brute = [j for j, c in enumerate(row.tolist())
                         if c <= best + TIE_RTOL * max(1.0, abs(best))]
                assert row_tied.tolist() == [j in brute for j in range(m)]
                assert pick[a, b] == min(brute, key=lambda j: tie_break_key(models[j]))

        perm = data.draw(st.permutations(range(m)))
        perm_pick, _ = decide(crits[..., perm], [models[j] for j in perm])
        assert np.array_equal(np.asarray(perm)[perm_pick], pick)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_criterion_raises(self, bad):
        # a NaN row would pick the first model in tie-break order, a +inf row tie them all
        models = singletons(3)
        for shape in ((3,), (2, 4, 3)):
            for where in np.ndindex(shape):
                crits = np.arange(np.prod(shape), dtype=float).reshape(shape)
                crits[where] = bad
                with pytest.raises(FloatingPointError):
                    decide(crits, models)
            with pytest.raises(FloatingPointError):
                decide(np.full(shape, bad), models)


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
        crits = report.table["criterion"]
        assert crits[0] == pytest.approx(crits[1], rel=1e-14)
        assert report.selected.indices == (0,)
        assert set(report.ties) == {(0,), (0, 1)}

    def test_tie_breaks_lexicographically_at_equal_dim(self):
        # all-subsets singletons on a histogram grid missing two cells:
        # cells 1 and 3 are empty, {0} and {2} have identical fits by symmetry
        data = np.array([[1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])
        grid = np.array([0.1, 0.6])
        samples = SampleSet(grid=grid, data=data)
        with pytest.warns(UserWarning):
            coll = build_collection(
                BasisFamily("histogram", 0.0, 1.0, 3), grid, scheme="all_subsets", k=1
            )
        loss, trace = fit_all(samples, coll)
        report = select(coll, loss, trace, 1.0, samples.n)
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
        table = report.table
        for j, model_loss in enumerate(loss):
            assert table["loss"][j] == model_loss
            assert table["criterion"][j] == pytest.approx(
                table["loss"][j] + table["penalty"][j], rel=1e-12, abs=1e-12
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


def finite_rank_data(gen, n, p, rank):
    """n rows of a rank-`rank` fourier truth on the p-point grid, so every
    model that contains it ties with the smallest such model."""
    design = np.stack([np.ones(p)] + [
        np.sqrt(2) * f(2 * np.pi * k * uniform_grid(p))
        for k in range(1, rank) for f in (np.cos, np.sin)][:rank - 1], axis=1)
    return gen.standard_normal((n, rank)) * 0.8 ** np.arange(rank) @ design.T


class TestMetamorphic:
    """Relabelling that leaves the data's content alone leaves the selection
    and its ties alone."""

    @staticmethod
    def decide_on(data, models):
        samples = SampleSet(grid=uniform_grid(data.shape[1]), data=data)
        loss, trace = fit_all(samples, models)
        report = select(models, loss, trace, 1.0, samples.n)
        return report.selected.indices, report.ties

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), scheme=st.sampled_from(["nested", "all_subsets"]))
    def test_permuting_replications(self, seed, scheme):
        gen = np.random.default_rng(seed)
        data = finite_rank_data(gen, 40, 16, int(gen.integers(1, 6)))
        models = build_collection(BasisFamily("fourier", 0.0, 1.0, 15), uniform_grid(16),
                                  scheme=scheme, k=2)
        assert self.decide_on(data[gen.permutation(40)], models) == self.decide_on(data, models)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), scheme=st.sampled_from(["nested", "all_subsets"]))
    def test_shuffling_the_collection(self, seed, scheme):
        gen = np.random.default_rng(seed)
        data = finite_rank_data(gen, 40, 16, int(gen.integers(1, 6)))
        models = build_collection(BasisFamily("fourier", 0.0, 1.0, 15), uniform_grid(16),
                                  scheme=scheme, k=2)
        shuffled = [models[j] for j in gen.permutation(len(models))]
        assert self.decide_on(data, shuffled) == self.decide_on(data, models)
