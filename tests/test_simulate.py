import warnings

import numpy as np
import pytest

from covsel._mc import block_reps, draw_batch, rep_rng
from covsel.dictionary import BasisFamily, build_collection
from covsel.estimator import SampleSet, fit_all
from covsel.linalg import psd_factor
from covsel.oracle import TruthSpec, true_fourth_moment_trace
from covsel.selection import select, tie_break_key
from covsel.simulate import (
    ExperimentConfig,
    KernelSpec,
    kernel_to_sigma,
    run_experiment,
    uniform_grid,
)

FOURIER = BasisFamily("fourier", 0.0, 1.0, 8)

REPLICATION_COLUMNS = ["n", "rep", "selected", "dim", "err_sq", "selected_known", "err_sq_known"]


def assert_same_replications(got, want):
    """Two replications.csv values, one table per n, hold the same columns
    and values, n by n."""
    assert len(got) == len(want)
    for table, whole in zip(got, want):
        assert list(table) == list(whole) == REPLICATION_COLUMNS
        for key, column in table.items():
            assert np.array_equal(column, whole[key]), key


class TestKernelToSigma:
    def test_brownian_entries(self):
        sigma = kernel_to_sigma(KernelSpec("brownian"), np.array([1.0, 2.0]))
        np.testing.assert_array_equal(sigma, [[1.0, 1.0], [1.0, 2.0]])

    def test_ou_diagonal_is_one(self):
        grid = uniform_grid(5)
        sigma = kernel_to_sigma(KernelSpec("ornstein_uhlenbeck", length_scale=0.3), grid)
        np.testing.assert_allclose(np.diag(sigma), 1.0)
        np.testing.assert_allclose(sigma, sigma.T)

    def test_ou_subnormal_length_scale_is_the_identity(self):
        # |s - t| / 1e-320 overflows to inf off the diagonal, and exp(-inf) = 0
        # is the exact limit: no RuntimeWarning (an error under pytest's
        # filterwarnings), the identity, and a config that accepts it
        grid = uniform_grid(6)
        kernel = KernelSpec("ornstein_uhlenbeck", length_scale=1e-320)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sigma = kernel_to_sigma(kernel, grid)
            cfg = small_config(kernel=kernel, grid=grid, reps=3)
        assert sigma.tobytes() == np.eye(6).tobytes()
        assert cfg.sigma.tobytes() == np.eye(6).tobytes()

    def test_ou_requires_positive_length_scale(self):
        with pytest.raises(ValueError, match="length_scale"):
            KernelSpec("ornstein_uhlenbeck", length_scale=0.0)

    def test_finite_rank_truth_has_zero_bias_at_its_model(self):
        from covsel._reference import make_model
        from covsel.linalg import frob_norm_sq, projector_from_basis

        grid = uniform_grid(8)
        kernel = KernelSpec("finite_rank", family=FOURIER, indices=(0, 1, 2))
        sigma = kernel_to_sigma(kernel, grid)
        model = make_model(FOURIER, (0, 1, 2), grid)
        proj = projector_from_basis(model.basis)
        assert frob_norm_sq(sigma - proj @ sigma @ proj) < 1e-20

    def test_finite_rank_psi_validation(self):
        with pytest.raises(ValueError, match="symmetric"):
            KernelSpec(
                "finite_rank",
                family=FOURIER,
                indices=(0, 1),
                psi=np.array([[1.0, 0.5], [0.0, 1.0]]),
            )

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kernel kind"):
            KernelSpec("matern")


class TestDrawBatch:
    """`_mc.draw_batch` is the one sampler: replication r of a key is row
    r - b B of block b = r // B, B = block_reps(n, p), and block b is one
    standard normal draw from rep_rng(key, b) mapped through factor^T."""

    def test_batch_is_its_blocks_concatenated(self):
        factor = psd_factor(kernel_to_sigma(KernelSpec("brownian"), uniform_grid(3)))
        size = block_reps(7, 3)
        whole = draw_batch(factor, 7, (5, 1), 0, 2 * size + 3)
        blocks = [draw_batch(factor, 7, (5, 1), start, min(start + size, 2 * size + 3))
                  for start in range(0, 2 * size + 3, size)]
        assert len(blocks) == 3
        assert np.array_equal(whole, np.concatenate(blocks))

    def test_partial_block_is_a_prefix_of_its_stream(self):
        # with factor I the paths are the block's standard normals themselves
        size = block_reps(7, 3)
        last = draw_batch(np.eye(3), 7, (5, 1), 2 * size, 2 * size + 3)
        full = rep_rng((5, 1), 2).standard_normal((size, 7, 3))
        assert np.array_equal(last, full[:3])

    def test_unaligned_start_raises(self):
        size = block_reps(7, 3)
        with pytest.raises(ValueError, match="block"):
            draw_batch(np.eye(3), 7, 0, size + 1, 2 * size)

    def test_zero_sigma_gives_zero_paths(self):
        x = draw_batch(psd_factor(np.zeros((3, 3))), 4, 0, 0, 2)
        np.testing.assert_array_equal(x, np.zeros((2, 4, 3)))

    def test_same_key_bit_identical(self):
        factor = psd_factor(kernel_to_sigma(KernelSpec("ornstein_uhlenbeck"), uniform_grid(4)))
        a = draw_batch(factor, 6, (42, 0), 0, 3)
        assert np.array_equal(a, draw_batch(factor, 6, (42, 0), 0, 3))
        assert not np.array_equal(a, draw_batch(factor, 6, (43, 0), 0, 3))

    def test_sample_covariance_matches_sigma(self):
        n = 100_000
        (x,) = draw_batch(psd_factor(np.eye(2)), n, 7, 0, 1)
        s = x.T @ x / n
        # entrywise 3 SE bands: var of s_jj is 2/n, of s_12 is 1/n
        assert abs(s[0, 0] - 1.0) < 3 * np.sqrt(2 / n)
        assert abs(s[1, 1] - 1.0) < 3 * np.sqrt(2 / n)
        assert abs(s[0, 1]) < 3 * np.sqrt(1 / n)

    def test_rank_deficient_sigma_sampled_exactly(self):
        grid = uniform_grid(8)
        kernel = KernelSpec("finite_rank", family=FOURIER, indices=(0, 1))
        x = draw_batch(psd_factor(kernel_to_sigma(kernel, grid)), 5, 1, 0, 2)
        assert np.all(np.isfinite(x))

    def test_duplicate_grid_points_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            SampleSet(grid=np.array([0.0, 0.0]), data=np.zeros((3, 2)))

    def test_psd_factor_rejects_indefinite(self):
        with pytest.raises(np.linalg.LinAlgError):
            psd_factor(np.array([[1.0, 2.0], [2.0, 1.0]]))


def small_config(**overrides):
    base = dict(
        kernel=KernelSpec("ornstein_uhlenbeck", length_scale=0.5),
        family=FOURIER,
        grid=uniform_grid(4),
        n=30,
        theta=1.0,
        scheme="nested",
        d_max=3,
        reps=40,
        seed=9,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestRunExperiment:
    def test_single_model_single_rep(self):
        cfg = small_config(reps=1, d_max=1)
        report, _ = run_experiment(cfg)
        run = report["runs"][0]
        assert run["data_driven"]["selection_freq"] == {"0": 1.0}
        assert run["data_driven"]["risk_se"] == 0.0
        assert run["data_driven"]["risk_mean"] > 0.0

    def test_identical_configs_identical_reports(self):
        r1, _ = run_experiment(small_config())
        r2, _ = run_experiment(small_config())
        assert r1 == r2

    def test_risk_ratio_reported_finite(self):
        report, _ = run_experiment(small_config())
        run = report["runs"][0]
        assert np.isfinite(run["data_driven"]["risk_ratio"])
        assert run["data_driven"]["risk_ratio"] > 0.0
        assert run["data_driven"]["risk_se"] >= 0.0

    def test_risk_ratio_one_sided_bound(self):
        # selection cannot systematically beat the best fixed-model risk
        cfg = small_config(
            kernel=KernelSpec("ornstein_uhlenbeck", length_scale=0.5),
            grid=uniform_grid(8),
            n=50,
            d_max=5,
            reps=400,
            seed=62,
        )
        run = run_experiment(cfg)[0]["runs"][0]
        for mode in ("data_driven", "known_penalty"):
            ratio = run[mode]["risk_ratio"]
            se = run[mode]["risk_ratio_se"]
            assert ratio >= 1.0 - 3.0 * se

    def test_n_grid_rows_and_oracle_monotone(self):
        cfg = small_config(n_grid=(20, 50, 100), reps=10)
        report, _ = run_experiment(cfg)
        assert [run["n"] for run in report["runs"]] == [20, 50, 100]
        oracle_risks = [run["oracle"]["risk"] for run in report["runs"]]
        assert all(b <= a + 1e-15 for a, b in zip(oracle_risks, oracle_risks[1:]))

    def test_report_orders_and_oracle_risk_under_rank_deficient_ties(self):
        # on a 3-point grid P3 is a multiple of P1, so (1, 3) has rank 1 and
        # tie-break order differs from build order, and every rank-3 model
        # spans the grid, so their risks tie up to rounding
        family = BasisFamily("polynomial", 0.0, 1.0, 4)
        kernel = KernelSpec("finite_rank", family=family, indices=(0, 1, 3))
        cfg = small_config(kernel=kernel, family=family, grid=uniform_grid(3),
                           scheme="all_subsets", k=3, n_grid=(4, 30), reps=20)
        report, _ = run_experiment(cfg)
        built = build_collection(family, cfg.grid, scheme="all_subsets", k=3)
        listed = [tuple(m["indices"]) for m in report["collection"]]
        assert listed == [m.indices for m in sorted(built, key=tie_break_key)]
        assert listed != [m.indices for m in built]
        winner_differs = False
        for run in report["runs"]:
            assert [tuple(row["indices"]) for row in run["risk_table"]] == [
                m.indices for m in built]
            risks = {tuple(row["indices"]): row["risk"] for row in run["risk_table"]}
            # the oracle risk is the column's minimum, not the tie-break winner's risk
            assert run["oracle"]["risk"] == min(risks.values())
            winner_differs |= risks[tuple(run["oracle"]["indices"])] != run["oracle"]["risk"]
            freq = run["data_driven"]["selection_freq"]
            assert list(freq) == [key for key in (";".join(map(str, m)) for m in listed)
                                  if key in freq]
        assert winner_differs

    def test_chunking_does_not_change_results(self, monkeypatch):
        import covsel._mc as mc

        # diagnostics_reps > reps: the one draw per n serves both, so the
        # diagnostics rows run past the risk rows across several chunks
        cfg = small_config(
            reps=64, n_grid=(30, 50), diagnostics=True, diagnostics_reps=200,
            keep_replications=True,
        )
        # blocks of 2_000 floats: 16 replications of 30 x 4 and 10 of 50 x 4,
        # so 64 replications span 4 and 7 blocks
        monkeypatch.setattr(mc, "BLOCK_FLOATS", 2_000)
        for n in cfg.n_grid:
            assert cfg.reps >= 3 * mc.block_reps(n, 4)
            assert len(list(mc.iter_chunks(cfg.diagnostics_reps, n, 4))) == 1
        whole, whole_tables = run_experiment(cfg)

        # 4_000 floats is 2 blocks per chunk, against one chunk at the default size
        monkeypatch.setattr(mc, "CHUNK_FLOATS", 4_000)
        for n in cfg.n_grid:
            assert len(list(mc.iter_chunks(cfg.reps, n, 4))) >= 2
        report, tables = run_experiment(cfg)
        assert report == whole
        assert len(tables["replications.csv"]) == len(cfg.n_grid)
        assert_same_replications(tables["replications.csv"], whole_tables["replications.csv"])

    def test_reused_draw_buffer_leaks_no_stale_rows(self, monkeypatch):
        import covsel._mc as mc

        # ten histogram models on a table of width 4 (the second-Gram route);
        # a block holds 409 replications at n = 40 and 655 at n = 25, so 1000
        # replications end in a partial chunk drawn into the buffer that the
        # full chunks filled
        cfg = small_config(kernel=KernelSpec("brownian"),
                           family=BasisFamily("histogram", 0.0, 1.0, 3), scheme="all_subsets",
                           k=2, n_grid=(40, 25), reps=1000, diagnostics=True,
                           diagnostics_reps=700, keep_replications=True)
        assert mc.CHUNK_FLOATS == 2 ** 16
        for n in cfg.n_grid:
            assert cfg.reps % mc.block_reps(n, 4)
            assert len(list(mc.iter_chunks(cfg.reps, n, 4))) >= 2
        report, tables = run_experiment(cfg)

        # whole blocks fill past the last replication: one chunk per n
        monkeypatch.setattr(mc, "CHUNK_FLOATS", 2 * cfg.reps * max(cfg.n_grid) * 4)
        for n in cfg.n_grid:
            assert len(list(mc.iter_chunks(cfg.reps, n, 4))) == 1
        whole, whole_tables = run_experiment(cfg)
        assert report == whole
        assert len(tables["replications.csv"]) == len(cfg.n_grid)
        assert_same_replications(tables["replications.csv"], whole_tables["replications.csv"])

    def test_diagnostics_share_one_draw_per_n(self, monkeypatch):
        import covsel._mc as mc
        import covsel.simulate as sim

        drawn = []

        def counting_draw(factor, n, seed, start, stop, out=None):
            drawn.append((n, stop - start))
            return mc.draw_batch(factor, n, seed, start, stop, out)

        monkeypatch.setattr(sim, "draw_batch", counting_draw)
        for reps, diagnostics_reps in ((40, 200), (300, 100)):
            drawn.clear()
            cfg = small_config(reps=reps, n_grid=(30, 50), diagnostics=True,
                               diagnostics_reps=diagnostics_reps)
            run_experiment(cfg)
            for n in cfg.n_grid:
                assert sum(count for m, count in drawn if m == n) == max(reps, diagnostics_reps)

    @pytest.mark.parametrize("reps, diagnostics_reps", [(40, 150), (300, 120)])
    def test_variance_factor_mean_reads_the_risk_draws(self, reps, diagnostics_reps):
        # each model's mean plug-in factor is (proj_norm4 - fit_sq) / dim
        # averaged over rows 0..diagnostics_reps-1 of the risk loop's key
        from test_oracle import plug_in

        cfg = small_config(reps=reps, n_grid=(30, 50), diagnostics=True,
                           diagnostics_reps=diagnostics_reps)
        report, _ = run_experiment(cfg)
        truth = TruthSpec(sigma=cfg.sigma)
        models = build_collection(cfg.family, cfg.grid, scheme="nested", d_max=3)
        for i_n, (n, run) in enumerate(zip(cfg.n_grid, report["runs"])):
            want = plug_in(truth, models, n, diagnostics_reps, seed=(cfg.seed, i_n))[2]
            got = [rec["mean"] for rec in run["diagnostics"]["variance_factor_mean"]]
            np.testing.assert_allclose(got, want.mean(axis=0), rtol=1e-12, atol=0)

    def test_truth_constants_computed_once_per_experiment(self, monkeypatch):
        # squared bias, true trace, factor and chains do not depend on n, so
        # three sample sizes with diagnostics compute each once (at version 7:
        # bias_sq 30, true_fourth_moment_trace 45, psd_factor 6, chains 6 and
        # risk_table 3 calls for these 5 models); the config keeps the sigma
        # it checks, so psd_eigh runs once in kernel_to_sigma and once for
        # the factor (kernel_to_sigma 2 and psd_eigh 3 calls before)
        import sys

        import covsel._kernels as kernels
        import covsel.linalg as linalg
        import covsel.oracle as oracle
        import covsel.simulate as sim

        calls = dict.fromkeys(["bias_sq", "true_fourth_moment_trace", "psd_factor", "chains",
                               "risk_table", "kernel_to_sigma", "psd_eigh"], 0)

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        homes = {"bias_sq": oracle, "true_fourth_moment_trace": oracle, "psd_factor": linalg,
                 "chains": kernels, "risk_table": oracle, "kernel_to_sigma": sim,
                 "psd_eigh": linalg}
        covsel_modules = [mod for key, mod in sys.modules.items() if key.startswith("covsel")]
        for name, home in homes.items():
            original, wrapper = getattr(home, name), counting(name, getattr(home, name))
            for mod in covsel_modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, key, wrapper)
        cfg = small_config(grid=uniform_grid(8), d_max=5, reps=20, n_grid=(20, 40, 80),
                           diagnostics=True, diagnostics_reps=100)
        report, _ = run_experiment(cfg)
        assert len(report["collection"]) == 5 and len(report["runs"]) == 3
        assert calls == {"bias_sq": 5, "true_fourth_moment_trace": 5, "psd_factor": 1,
                         "chains": 1, "risk_table": 1, "kernel_to_sigma": 1, "psd_eigh": 2}

    def test_each_batch_is_freed_before_the_next_draw(self, monkeypatch):
        import weakref

        import covsel._kernels as kernels
        import covsel._mc as mc
        import covsel._reference as reference
        import covsel.simulate as sim

        # every draw of one key and n is a view of one buffer, the first
        # draw's, and no earlier batch array is alive when the next is drawn
        batches, buffers = [], {}

        def watching_draw(factor, n, seed, start, stop, out=None):
            assert all(ref() is None for ref in batches), "a previous batch is still alive"
            x = mc.draw_batch(factor, n, seed, start, stop, out)
            buffer = buffers.setdefault((seed, n), x.base)
            assert buffer is not None and np.shares_memory(x, buffer), "a new buffer was drawn"
            batches.append(weakref.ref(x))
            return x

        for module in (sim, reference):
            monkeypatch.setattr(module, "draw_batch", watching_draw)
        # and each batch goes through one kernel call, statistics and
        # deviation together
        calls = []
        for name in ("model_stats_batch", "deviation_batch"):
            def counting(*args, _kernel=getattr(kernels, name)):
                calls.append(args[0].shape[0])  # not the batch: it must be freed
                return _kernel(*args)
            monkeypatch.setattr(kernels, name, counting)
        # p = 4, n = 40: 10_000 replications span several chunks, drawn once
        # for the selection and the diagnostics together
        chunks = len(list(mc.iter_chunks(10_000, 40, 4)))
        assert chunks >= 2
        cfg = small_config(n=40, reps=10_000, diagnostics=True, diagnostics_reps=10_000)
        run_experiment(cfg)
        assert len(batches) == chunks
        assert len(calls) == chunks
        truth = TruthSpec(sigma=kernel_to_sigma(cfg.kernel, cfg.grid))
        model = build_collection(cfg.family, cfg.grid, scheme="nested", d_max=2)[-1]
        reference.check_quadratic_form_tail(truth, model, 40, [1.0], reps=10_000)
        assert len(batches) == 2 * chunks
        assert len(calls) == 2 * chunks

    def test_manyreps_peak_stays_within_three_chunks(self):
        # the simulate-manyreps shape: ten histogram models share one table of
        # width 4, and the run's peak is one RNG block's draw buffer and its
        # factor scratch, with the kernel's sub-batch temporaries: 1.46 MB
        # here, against 1.77 MB with the kernel's temporaries over a whole
        # chunk and each chunk's arrays alive across the next draw, 11.7 MB
        # with (reps, members, n) rows of ||P x_i||^2 and four blocks per
        # chunk, 15.9 MB with one SVD per model and 37.9 MB with a shared
        # table at a chunk target of 1M floats
        import tracemalloc

        from covsel._mc import CHUNK_FLOATS

        cfg = small_config(kernel=KernelSpec("brownian"),
                           family=BasisFamily("histogram", 0.0, 1.0, 3), scheme="all_subsets",
                           k=2, n=40, reps=10_000)
        tracemalloc.start()
        try:
            run_experiment(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * CHUNK_FLOATS * 8, peak

    def test_diagnostics_block_present_when_requested(self):
        cfg = small_config(diagnostics=True, diagnostics_reps=200, reps=5)
        report, _ = run_experiment(cfg)
        diag = report["runs"][0]["diagnostics"]
        assert "variance_factor_mean" in diag
        assert "underestimation_prob" in diag
        assert 0.0 <= diag["underestimation_prob"]["estimate"] <= 1.0

    def test_per_replication_records_when_requested(self):
        # one table per n, in n_grid order, each with every column and one
        # row per replication, matching that n's run in the report
        report, tables = run_experiment(small_config(reps=12, n_grid=(30, 20),
                                                     keep_replications=True))
        assert report["replications_file"] == "replications.csv"
        dims = {";".join(str(i) for i in m["indices"]): m["dim"] for m in report["collection"]}
        assert len(tables["replications.csv"]) == 2
        for reps, run in zip(tables["replications.csv"], report["runs"]):
            assert "replications" not in run
            assert list(reps) == REPLICATION_COLUMNS
            assert all(len(column) == 12 for column in reps.values())
            assert reps["rep"].tolist() == list(range(12))
            assert reps["n"].tolist() == [run["n"]] * 12
            for mode, column, err in (("data_driven", "selected", "err_sq"),
                                      ("known_penalty", "selected_known", "err_sq_known")):
                recomputed = {}
                for key in reps[column]:
                    recomputed[key] = recomputed.get(key, 0) + 1 / 12
                assert {k: pytest.approx(v) for k, v in recomputed.items()} == \
                    run[mode]["selection_freq"]
                assert float(np.mean(reps[err])) == pytest.approx(run[mode]["risk_mean"],
                                                                  rel=1e-12)
            assert reps["dim"].tolist() == [dims[key] for key in reps["selected"]]

    def test_replications_none_unless_requested(self):
        assert "replications.csv" not in run_experiment(small_config(reps=3))[1]

    def test_modal_selection_hits_true_model(self):
        # representable truth: the most frequently selected model has zero bias
        grid = uniform_grid(8)
        kernel = KernelSpec("finite_rank", family=FOURIER, indices=(0, 1, 2))
        cfg = ExperimentConfig(
            kernel=kernel,
            family=FOURIER,
            grid=grid,
            n=300,
            theta=1.0,
            scheme="nested",
            d_max=4,
            reps=60,
            seed=13,
        )
        report, _ = run_experiment(cfg)
        run = report["runs"][0]
        freq = run["data_driven"]["selection_freq"]
        modal = max(freq, key=freq.get)
        biases = {
            ";".join(str(i) for i in rec["indices"]): rec["bias_sq"]
            for rec in run["risk_table"]
        }
        assert biases[modal] < 1e-10

    @pytest.mark.parametrize("overrides", [
        dict(n_grid=(10, 25)),
        dict(family=BasisFamily("histogram", 0.0, 1.0, 3), kernel=KernelSpec("brownian"),
             scheme="all_subsets", k=2, n=10),
    ])
    def test_monte_carlo_picks_equal_select(self, overrides):
        # each replication, redrawn from its seed key, is handed to `select`
        # with the empirical traces and with the true ones
        cfg = small_config(reps=25, keep_replications=True, **overrides)
        tables = run_experiment(cfg)[1]["replications.csv"]
        sigma = kernel_to_sigma(cfg.kernel, cfg.grid)
        truth = TruthSpec(sigma=sigma)
        models = build_collection(cfg.family, cfg.grid, scheme=cfg.scheme, d_max=cfg.d_max,
                                  k=cfg.k)
        true_traces = [true_fourth_moment_trace(truth, m) for m in models]
        n_values = cfg.n_grid or (cfg.n,)
        assert len(tables) == len(n_values)
        for i_n, (n, reps) in enumerate(zip(n_values, tables)):
            x = draw_batch(psd_factor(sigma), n, (cfg.seed, i_n), 0, cfg.reps)
            assert reps["n"].tolist() == [n] * cfg.reps
            for r, (selected, selected_known) in enumerate(
                zip(reps["selected"], reps["selected_known"], strict=True)
            ):
                samples = SampleSet(grid=cfg.grid, data=x[r])
                loss, trace = fit_all(samples, models)[:2]
                for traces, label in ((trace, selected), (true_traces, selected_known)):
                    pick = select(models, loss, traces, cfg.theta, n).selected
                    assert ";".join(str(i) for i in pick.indices) == label

    def test_config_validation(self):
        with pytest.raises(ValueError, match="reps"):
            small_config(reps=0)
        with pytest.raises(ValueError, match="theta"):
            small_config(theta=0.0)
        with pytest.raises(ValueError, match="n_grid"):
            small_config(n_grid=(1, 50))
