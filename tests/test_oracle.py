import numpy as np
import pytest

from covsel import _kernels
from covsel._mc import draw_batch, iter_chunks, wilson_interval
from covsel._reference import (
    check_quadratic_form_tail,
    gaussian_fourth_moment_dense,
    kron,
    make_model,
    true_variance_factor,
)
from covsel.dictionary import BasisFamily, build_collection, build_design
from covsel.linalg import frob_norm_sq, projector_from_basis
from covsel.oracle import (
    TruthSpec,
    bias_sq,
    check_underestimation_prob,
    check_variance_factor_mean,
    oracle_model,
    risk_table,
    true_fourth_moment_trace,
)
from covsel.selection import select
from covsel.simulate import KernelSpec, kernel_to_sigma, uniform_grid
from test_estimator import budget_collections

rng = np.random.default_rng(606)

FOURIER = BasisFamily("fourier", 0.0, 1.0, 8)


def full_rank_model(p):
    fam = BasisFamily("histogram", 0.0, 1.0, p - 1)
    return make_model(fam, range(p), uniform_grid(p))


def random_psd(gen, p):
    a = gen.standard_normal((p, p))
    return a @ a.T


def oracle_at(truth, models, n):
    """oracle_model on the risk_table columns: (best model, risk column)."""
    models = tuple(models)
    return oracle_model(models, *risk_table(truth, models), n)


def plug_in(truth, models, n, reps, seed=0):
    """The diagnostics' arguments (models, n, values, true) for `reps`
    replications of key `seed`: values[r, j] is model j's
    (proj_norm4 - fit_sq) / dim, as simulate's risk loop forms it, and
    true[j] its true variance factor."""
    models = tuple(models)
    chains = _kernels.chains(models)
    dims = np.array([model.dim for model in models])
    traces = np.concatenate([
        np.subtract(*_kernels.deviation_batch(
            draw_batch(truth.factor, n, seed, start, stop), *chains, truth.sigma)[1:3])
        for start, stop in iter_chunks(reps, n, truth.p)])
    return models, n, traces / dims, risk_table(truth, models)[1] / dims


class TestTruthSpec:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            TruthSpec(sigma=np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="non-negative definite"):
            TruthSpec(sigma=np.array([[1.0, 2.0], [2.0, 1.0]]))


class TestTrueFourthMomentTrace:
    def test_identity_case(self):
        truth = TruthSpec(sigma=np.eye(2))
        model = full_rank_model(2)
        assert true_fourth_moment_trace(truth, model) == pytest.approx(6.0, abs=1e-12)
        assert true_variance_factor(truth, model) == pytest.approx(1.5, abs=1e-12)

    def test_projector_orthogonal_to_range(self):
        # sigma supported on cell 0, model on cell 1: projected trace vanishes
        fam = BasisFamily("histogram", 0.0, 1.0, 1)
        grid = uniform_grid(2)
        sigma = np.array([[2.0, 0.0], [0.0, 0.0]])
        model = make_model(fam, [1], grid)
        assert true_fourth_moment_trace(TruthSpec(sigma=sigma), model) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_closed_form_matches_dense_oracle(self):
        for p in (2, 3):
            grid = uniform_grid(p)
            for trial in range(30):
                gen = np.random.default_rng((p, trial))
                sigma = random_psd(gen, p)
                truth = TruthSpec(sigma=sigma)
                model = make_model(FOURIER, range(int(gen.integers(1, p + 1))), grid)
                closed = true_fourth_moment_trace(truth, model)
                phi = gaussian_fourth_moment_dense(sigma)
                proj = projector_from_basis(model.basis)
                dense = float(np.sum(kron(proj, proj) * phi))
                assert closed == pytest.approx(dense, rel=1e-10, abs=1e-10)



class TestTrueRisk:
    def test_full_rank_identity(self):
        truth = TruthSpec(sigma=np.eye(2))
        (bias,), _ = risk_table(truth, [full_rank_model(2)])
        _, (risk,) = oracle_at(truth, [full_rank_model(2)], n=100)
        assert bias == pytest.approx(0.0, abs=1e-12)
        assert risk == pytest.approx(0.06, abs=1e-12)

    def test_risk_decomposes_exactly(self):
        truth = TruthSpec(sigma=random_psd(rng, 4))
        model = make_model(FOURIER, [0, 1], uniform_grid(4))
        (bias,), (trace,) = risk_table(truth, [model])
        _, (risk,) = oracle_at(truth, [model], n=37)
        assert bias == bias_sq(truth, model) and trace == true_fourth_moment_trace(truth, model)
        assert risk == bias + trace / 37

    def test_variance_vanishes_as_n_grows(self):
        truth = TruthSpec(sigma=random_psd(rng, 3))
        model = make_model(FOURIER, [0, 1], uniform_grid(3))
        (bias,), (trace,) = risk_table(truth, [model])
        _, (risk,) = oracle_at(truth, [model], n=10 ** 12)
        assert trace / 10 ** 12 == pytest.approx(0.0, abs=1e-9)
        assert risk == pytest.approx(bias, rel=1e-9)

    def test_columns_follow_model_order(self):
        truth = TruthSpec(sigma=random_psd(rng, 6))
        models = build_collection(FOURIER, uniform_grid(6), scheme="all_subsets", k=2)
        bias, trace = risk_table(truth, models)
        assert bias.shape == trace.shape == (len(models),)
        assert bias.tolist() == [bias_sq(truth, m) for m in models]
        assert trace.tolist() == [true_fourth_moment_trace(truth, m) for m in models]


class TestOracleModel:
    def test_single_model(self):
        truth = TruthSpec(sigma=np.eye(3))
        fam = BasisFamily("histogram", 0.0, 1.0, 2)
        coll = build_collection(fam, uniform_grid(3), scheme="nested", d_max=3)
        best, risk = oracle_at(truth, coll, n=50)
        assert len(risk) == 3
        assert best in coll

    def test_representable_truth_has_zero_bias_at_its_model(self):
        grid = uniform_grid(8)
        coll = build_collection(FOURIER, grid, scheme="nested", d_max=4)
        target = coll[2]
        psi = np.diag([2.0, 1.0, 0.5])
        design = build_design(FOURIER, target.indices, grid)
        sigma = design @ psi @ design.T
        truth = TruthSpec(sigma=sigma)
        best, _ = oracle_at(truth, coll, n=10 ** 9)
        biases = dict(zip((m.indices for m in coll), risk_table(truth, coll)[0]))
        assert biases[target.indices] == pytest.approx(0.0, abs=1e-10)
        assert best.indices == target.indices

    def test_tie_break_matches_selection(self):
        # duplicated-projector models (aliasing) give exactly tied risks
        grid = uniform_grid(4)
        coll = build_collection(FOURIER, grid, scheme="nested", d_max=4)
        assert coll[2].dim == coll[3].dim  # aliased pair
        truth = TruthSpec(sigma=np.eye(4))
        best, risk = oracle_at(truth, coll, n=20)
        risks = dict(zip((m.indices for m in coll), risk))
        tied = [idx for idx, r in risks.items() if r == risks[best.indices]]
        assert best.indices == min(tied)

    def test_risk_table_order_invariant(self):
        grid = uniform_grid(6)
        coll = build_collection(FOURIER, grid, scheme="nested", d_max=4)
        truth = TruthSpec(sigma=random_psd(rng, 6))
        reversed_models = coll[::-1]

        best_fwd, risk_fwd = oracle_at(truth, coll, 30)
        best_rev, risk_rev = oracle_at(truth, reversed_models, 30)
        fwd = dict(zip((m.indices for m in coll), risk_fwd))
        rev = dict(zip((m.indices for m in reversed_models), risk_rev))
        assert fwd == rev
        assert best_fwd.indices == best_rev.indices

    def test_rejects_empty_collection(self):
        with pytest.raises(ValueError, match="empty"):
            oracle_at(TruthSpec(sigma=np.eye(2)), (), 30)


class TestMinFourthMomentTrace:
    def test_full_model_only(self):
        truth = TruthSpec(sigma=np.eye(2))
        fam = BasisFamily("histogram", 0.0, 1.0, 1)
        coll = build_collection(fam, uniform_grid(2), scheme="nested", d_max=2)
        assert true_fourth_moment_trace(truth, coll[-1]) == pytest.approx(6.0)


class TestVarianceFactorMean:
    def test_target_uses_exact_small_sample_factor(self):
        truth = TruthSpec(sigma=np.eye(2))
        fam = BasisFamily("histogram", 0.0, 1.0, 1)
        coll = build_collection(fam, uniform_grid(2), scheme="nested", d_max=2)
        records = check_variance_factor_mean(*plug_in(truth, coll, n=2, reps=200, seed=5))
        for rec in records:
            model = next(m for m in coll if m.indices == rec["indices"])
            assert rec["target"] == pytest.approx(0.5 * true_variance_factor(truth, model))

    def test_mean_tracks_target(self):
        truth = TruthSpec(sigma=np.eye(2))
        fam = BasisFamily("histogram", 0.0, 1.0, 1)
        coll = build_collection(fam, uniform_grid(2), scheme="nested", d_max=2)
        records = check_variance_factor_mean(*plug_in(truth, coll, n=10, reps=4000, seed=11))
        for rec in records:
            assert abs(rec["z"]) < 4.0
            assert not rec["flagged"]


class TestUnderestimationProb:
    def _setup(self):
        truth = TruthSpec(sigma=np.eye(2))
        fam = BasisFamily("histogram", 0.0, 1.0, 1)
        return truth, build_collection(fam, uniform_grid(2), scheme="nested", d_max=2)

    def test_alpha_near_one_gives_tiny_probability(self):
        truth, coll = self._setup()
        out = check_underestimation_prob(*plug_in(truth, coll, n=10, reps=500, seed=3)[1:],
                                         alpha=0.999)
        assert out["estimate"] <= 0.01

    def test_valid_probability_even_at_n2(self):
        truth, coll = self._setup()
        out = check_underestimation_prob(*plug_in(truth, coll, n=2, reps=200, seed=4)[1:],
                                         alpha=0.5)
        assert 0.0 <= out["estimate"] <= 1.0
        assert 0.0 <= out["ci_low"] <= out["estimate"] <= out["ci_high"] <= 1.0

    def test_input_validation(self):
        truth, coll = self._setup()
        with pytest.raises(ValueError, match="alpha"):
            check_underestimation_prob(*plug_in(truth, coll, n=10, reps=200)[1:], alpha=1.5)

    def test_zero_violations_lie_inside_interval(self):
        truth, coll = self._setup()
        out = check_underestimation_prob(*plug_in(truth, coll, n=10, reps=200, seed=3)[1:],
                                         alpha=0.999)
        assert out["violations"] == 0
        assert out["ci_low"] == 0.0
        assert out["ci_low"] <= out["estimate"] <= out["ci_high"]


class TestModelsTheTruthDoesNotReach:
    """A truth spanned by the constant function, against the four one-function
    fourier models on an 8-point midpoint grid: models 1-3 are orthogonal to
    the truth, so their true traces are rounding of an exact zero and their
    plug-in factors are rounding noise that can never undershoot."""

    def _setup(self):
        grid = uniform_grid(8)
        family = BasisFamily("fourier", 0.0, 1.0, 3)
        kernel = KernelSpec("finite_rank", family=family, indices=(0,))
        truth = TruthSpec(sigma=kernel_to_sigma(kernel, grid))
        return truth, build_collection(family, grid, scheme="all_subsets", k=1)

    def test_unreached_models_are_not_flagged(self):
        truth, coll = self._setup()
        records = check_variance_factor_mean(*plug_in(truth, coll, n=20, reps=200,
                                                     seed=(1, 0, 1)))
        assert [rec["indices"] for rec in records] == [(0,), (1,), (2,), (3,)]
        assert records[0]["target"] > 100.0 and not records[0]["flagged"]
        for rec in records[1:]:
            assert rec["target"] == 0.0 and rec["z"] == 0.0 and not rec["flagged"]

    def test_unreached_models_are_left_out_of_the_event(self):
        truth, coll = self._setup()
        out = check_underestimation_prob(
            *plug_in(truth, coll, n=20, reps=200, seed=(1, 0, 1))[1:], alpha=0.5)
        reached = check_underestimation_prob(
            *plug_in(truth, coll[:1], n=20, reps=200, seed=(1, 0, 1))[1:], alpha=0.5)
        assert out == reached
        assert out["violations"] < 200


def test_risk_table_reports_exact_zeros():
    # a fourier truth on indices 0-2 (p = 8): the all_subsets model (3,)
    # misses it, so its variance factor is 0, and the nested model (0, 1, 2)
    # contains it, so its bias is 0; both read as exact zeros, not rounding
    grid = uniform_grid(8)
    family = BasisFamily("fourier", 0.0, 1.0, 5)
    kernel = KernelSpec("finite_rank", family=family, indices=(0, 1, 2))
    truth = TruthSpec(sigma=kernel_to_sigma(kernel, grid))
    subsets = build_collection(family, grid, scheme="all_subsets", k=2)
    traces = dict(zip((m.indices for m in subsets), risk_table(truth, subsets)[1]))
    assert traces[(3,)] == 0.0 and traces[(3,)] / 50 == 0.0
    assert traces[(0, 1)] > 0.0
    nested = build_collection(family, grid, scheme="nested")
    bias, trace = risk_table(truth, nested)
    assert [b == 0.0 for b in bias] == [False, False, True, True, True, True]
    _, risk = oracle_model(nested, bias, trace, 50)
    assert risk[2] == trace[2] / 50 > 0.0


def test_floor_keeps_small_real_values():
    # a truth with a part of weight 1e-7 along function 3: the bias of the
    # model (0, 1, 2) and the trace of the model (3,) are about 1e-14, below
    # 1e-12 of their scales but far above rounding, so neither reads as zero
    grid = uniform_grid(8)
    family = BasisFamily("fourier", 0.0, 1.0, 5)
    design = build_design(family, range(4), grid)
    g3 = design[:, 3] / np.linalg.norm(design[:, 3])
    truth = TruthSpec(sigma=design[:, :3] @ design[:, :3].T + 1e-7 * np.outer(g3, g3))
    (bias, _), (_, trace) = risk_table(
        truth, [make_model(family, (0, 1, 2), grid), make_model(family, (3,), grid)])
    assert bias == pytest.approx(1e-14, rel=1e-6)
    assert 0.0 < bias < 1e-12 * frob_norm_sq(truth.sigma)
    assert trace == pytest.approx(2e-14, rel=1e-6)
    assert 0.0 < trace < 1e-12 * (np.trace(truth.sigma) ** 2 + frob_norm_sq(truth.sigma))


# Worst error of risk_table's columns against a long-double recomputation
# from the same float64 sigma and bases, in units of float64 eps times
# ||sigma||^2 (bias) and (tr sigma)^2 + ||sigma||^2 (trace): absolute scales,
# because an exact zero moves by O(1) relative. Measured at 1.74 and 3.31 over
# 16152 cases when this budget was set; it may only tighten.
BIAS_BUDGET_EPS = 1.8
TRACE_BUDGET_EPS = 3.4


def test_oracle_error_budget():
    """risk_table on the error-budget collections, each under an
    Ornstein-Uhlenbeck (length scale 0.3), a brownian and a random rank-3
    truth, against G = U^T sigma U, bias = ||sigma - U G U^T||^2 and
    trace = tr(G)^2 + ||G||^2 in long double."""
    eps = np.finfo(float).eps
    worst = np.zeros(2)
    for coll, grid, gen in budget_collections():
        a = gen.standard_normal((grid.size, 3))
        for sigma in (kernel_to_sigma(KernelSpec("ornstein_uhlenbeck", length_scale=0.3), grid),
                      kernel_to_sigma(KernelSpec("brownian"), grid), a @ a.T):
            truth = TruthSpec(sigma=sigma)
            bias, trace = risk_table(truth, coll)
            sl = truth.sigma.astype(np.longdouble)
            norm_sq = np.sum(sl * sl)
            scales = (eps * norm_sq, eps * (np.trace(sl) ** 2 + norm_sq))
            for j, model in enumerate(coll):
                u = model.basis.astype(np.longdouble)
                g = u.T @ sl @ u
                resid = sl - u @ g @ u.T
                exact = (np.sum(resid * resid), np.trace(g) ** 2 + np.sum(g * g))
                worst = np.maximum(worst, [float(abs(value[j] - e) / sc) for value, e, sc
                                           in zip((bias, trace), exact, scales)])
    assert worst[0] <= BIAS_BUDGET_EPS, worst
    assert worst[1] <= TRACE_BUDGET_EPS, worst


class TestWilsonInterval:
    @pytest.mark.parametrize("trials", [1, 7, 200, 2000, 100_000])
    def test_edges_are_exact(self, trials):
        lo, hi = wilson_interval(0, trials)
        assert lo == 0.0 and 0.0 < hi < 1.0
        lo, hi = wilson_interval(trials, trials)
        assert hi == 1.0 and 0.0 < lo < 1.0

    @pytest.mark.parametrize("successes", [0, 1, 57, 199, 200])
    def test_plain_floats_bracketing_the_estimate(self, successes):
        lo, hi = wilson_interval(successes, 200)
        assert type(lo) is float and type(hi) is float
        assert 0.0 <= lo <= successes / 200 <= hi <= 1.0

    def test_matches_textbook_value(self):
        # 95% Wilson interval for 10 successes in 100 trials
        lo, hi = wilson_interval(10, 100)
        assert lo == pytest.approx(0.0552291, abs=1e-6)
        assert hi == pytest.approx(0.1743657, abs=1e-6)

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError, match="trials"):
            wilson_interval(0, 0)


class TestQuadraticFormTail:
    def test_table_shape_and_monotonicity(self):
        truth = TruthSpec(sigma=np.eye(2))
        model = full_rank_model(2)
        out = check_quadratic_form_tail(
            truth, model, n=30, x_grid=[0.0, 1.0, 4.0], reps=2000, seed=8
        )
        rows = out["rows"]
        assert rows[0]["threshold"] == pytest.approx(
            true_variance_factor(truth, model) * model.dim
        )
        exceed = [row["exceedance"] for row in rows]
        assert all(0.0 <= e <= 1.0 for e in exceed)
        assert all(b <= a for a, b in zip(exceed, exceed[1:]))

    def test_rejects_tiny_rep_counts(self):
        truth = TruthSpec(sigma=np.eye(2))
        with pytest.raises(ValueError, match="reps"):
            check_quadratic_form_tail(truth, full_rank_model(2), n=10, x_grid=[1.0], reps=10)


class TestKnownPenaltySelectionAgainstOracle:
    def test_known_mode_uses_true_factors(self):
        # end-to-end: select on the true traces equals the hand-built
        # known-factor criterion loss + (1 + theta) * factor * dim / n
        gen = np.random.default_rng(77)
        grid = uniform_grid(4)
        coll = build_collection(FOURIER, grid, scheme="nested", d_max=3)
        truth = TruthSpec(sigma=np.eye(4))
        true_traces = [true_fourth_moment_trace(truth, m) for m in coll]

        from covsel.estimator import SampleSet, fit_all

        samples = SampleSet(grid=grid, data=gen.standard_normal((25, 4)))
        loss = fit_all(samples, coll).loss
        report = select(coll, loss, true_traces, 1.0, samples.n)
        crits = {
            m.indices: loss[j] + 2.0 * true_variance_factor(truth, m) * m.dim / samples.n
            for j, m in enumerate(coll)
        }
        assert report.selected.indices == min(crits, key=crits.get)
