"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with `pytest -s` to see them as they happen).

Every tolerance is pinned here or, for criteria 1, 2 and 7, in the
`covsel._reference` checks they share with `covsel validate`; Monte Carlo
criteria run on fixed seeds so the suite is deterministic.
"""

import json
import time

import numpy as np
import pytest

from covsel import _kernels
from covsel._mc import draw_blocks, rep_rng
from covsel._reference import (
    check_gaussian_closed_form,
    check_kron_free_trace,
    check_projector,
    check_projectors,
    check_quadratic_form_tail,
    check_trace_range,
    make_model,
    true_variance_factor,
)
from covsel.cli import main
from covsel.dictionary import BasisFamily, build_collection
from covsel.estimator import SampleSet, empirical_cov, estimate
from covsel.linalg import projector_from_basis
from covsel.oracle import (
    TruthSpec,
    check_underestimation_prob,
    check_variance_factor_mean,
    risk_table,
)
from covsel.simulate import (
    ExperimentConfig,
    KernelSpec,
    kernel_to_sigma,
    run_experiment,
    uniform_grid,
)
from test_oracle import plug_in

FOURIER = BasisFamily("fourier", 0.0, 1.0, 12)


def report_line(name, ok, started, budget, detail=""):
    elapsed = time.time() - started
    status = "PASS" if ok else "FAIL"
    extra = f" {detail}" if detail else ""
    print(f"[{status}] {name}{extra} ({elapsed:.1f}s, budget {budget:.0f}s)")
    assert ok, f"{name}{extra}"
    assert elapsed < budget, f"{name} exceeded its {budget:.0f}s runtime budget"


def test_criterion_1_kron_free_trace_equals_dense():
    # the check `covsel validate` runs, on 100 cases per (p, n): case c of
    # (p, n) draws from rep_rng((1, p, n), c)
    started = time.time()
    ok, detail = check_kron_free_trace((1,), cases=100)
    report_line(
        "criterion 1: kron-free fourth-moment trace vs dense oracle",
        ok,
        started,
        budget=10.0,
        detail=detail,
    )


def test_criterion_2_gaussian_closed_form():
    started = time.time()
    ok, detail = check_gaussian_closed_form((2,), cases=100)
    report_line(
        "criterion 2: gaussian fourth-moment closed form vs dense oracle",
        ok,
        started,
        budget=10.0,
        detail=detail,
    )


def _mc_risk_z_scores(truth, collection, n, reps, seed):
    chains = _kernels.chains(collection)
    bias, trace = risk_table(truth, collection)
    err_sq = np.concatenate([bias + _kernels.deviation_batch(x, *chains, truth.sigma)[3]
                             for _, _, x in draw_blocks(truth.factor, n, seed, reps)])
    mean = err_sq.mean(axis=0)
    se = err_sq.std(axis=0, ddof=1) / np.sqrt(reps)
    return list((mean - (bias + trace / n)) / se)


def test_criterion_3_risk_decomposition():
    started = time.time()
    n, reps = 50, 2000
    all_z = []

    truth_a = TruthSpec(sigma=np.eye(4))
    coll_a = build_collection(FOURIER, uniform_grid(4), scheme="nested", d_max=4)
    all_z += _mc_risk_z_scores(truth_a, coll_a, n, reps, seed=31)

    grid_b = uniform_grid(8)
    sigma_b = kernel_to_sigma(KernelSpec("ornstein_uhlenbeck", length_scale=0.5), grid_b)
    truth_b = TruthSpec(sigma=sigma_b)
    coll_b = build_collection(FOURIER, grid_b, scheme="nested", d_max=5)
    all_z += _mc_risk_z_scores(truth_b, coll_b, n, reps, seed=32)

    worst = max(abs(z) for z in all_z)
    report_line(
        "criterion 3: risk decomposition matches Monte Carlo per model",
        worst < 3.0,
        started,
        budget=120.0,
        detail=f"worst |z| {worst:.2f} across {len(all_z)} models",
    )


def test_criterion_4_variance_factor_mean_exact_factor():
    started = time.time()
    truth = TruthSpec(sigma=np.eye(2))
    fam = BasisFamily("histogram", 0.0, 1.0, 1)
    coll = build_collection(fam, uniform_grid(2), scheme="nested", d_max=2)
    records = check_variance_factor_mean(*plug_in(truth, coll, n=10, reps=100_000, seed=41))
    # target embeds the exact (n-1)/n = 0.9 factor
    for rec in records:
        model = next(m for m in coll if m.indices == rec["indices"])
        assert rec["target"] == pytest.approx(0.9 * true_variance_factor(truth, model))
    worst = max(abs(rec["z"]) for rec in records)
    report_line(
        "criterion 4: plug-in variance factor mean hits 0.9x true factor",
        worst < 3.0,
        started,
        budget=120.0,
        detail=f"worst |z| {worst:.2f}",
    )


def test_criterion_5_underestimation_probability_trend():
    started = time.time()
    truth = TruthSpec(sigma=np.eye(4))
    coll = build_collection(FOURIER, uniform_grid(4), scheme="nested", d_max=4)
    estimates = []
    for i, n in enumerate((20, 50, 100, 200)):
        out = check_underestimation_prob(
            *plug_in(truth, coll, n=n, reps=5000, seed=(51, i))[1:], alpha=0.5
        )
        estimates.append(out)
    ok = True
    for prev, cur in zip(estimates, estimates[1:]):
        non_increasing = cur["estimate"] <= prev["estimate"]
        ci_overlap = cur["ci_low"] <= prev["ci_high"]
        ok = ok and (non_increasing or ci_overlap)
    trend = " -> ".join(f"{e['estimate']:.4f}" for e in estimates)
    report_line(
        "criterion 5: underestimation probability non-increasing in n",
        ok,
        started,
        budget=180.0,
        detail=trend,
    )


def test_criterion_6_selection_tracks_oracle_risk():
    started = time.time()
    grid = uniform_grid(16)
    kernel = KernelSpec(
        "finite_rank", family=FOURIER, indices=(0, 1, 2), psi=np.diag([2.0, 1.0, 0.5])
    )
    cfg = ExperimentConfig(
        kernel=kernel,
        family=FOURIER,
        grid=grid,
        n=200,
        theta=1.0,
        scheme="nested",
        d_max=6,
        reps=500,
        seed=61,
    )
    report, _ = run_experiment(cfg)
    run = report["runs"][0]
    ratio = run["data_driven"]["risk_ratio"]
    # the factor 4 is a harness bound standing in for a nonconstructive
    # constant; on failure the observed ratio is printed, not asserted away
    report_line(
        "criterion 6: selected-model risk within 4x the best attainable",
        ratio <= 4.0,
        started,
        budget=180.0,
        detail=f"observed ratio {ratio:.3f}",
    )


def test_criterion_7_structural_invariants():
    started = time.time()
    ok = True
    detail = ""

    for p in (2, 3, 5):
        grid = uniform_grid(p)
        samples = SampleSet(grid=grid, data=rep_rng((71,), p).standard_normal((8, p)))
        s = empirical_cov(samples)
        coll = build_collection(FOURIER, grid, scheme="nested", d_max=min(p, 4))
        for model in coll:
            proj = projector_from_basis(model.basis)
            try:
                check_projector(proj)
            except ValueError as exc:
                ok, detail = False, str(exc)
            shat = estimate(samples, model)
            if np.max(np.abs(shat - proj @ shat @ proj)) > 1e-10:
                ok, detail = False, "sigma_hat not in model space"

        # full-rank model reproduces S exactly
        hist = BasisFamily("histogram", 0.0, 1.0, p - 1)
        full = make_model(hist, range(p), grid)
        if np.max(np.abs(estimate(samples, full) - s)) > 1e-12:
            ok, detail = False, "full-rank fit differs from S"

    # the projector and projected-trace checks `covsel validate` runs
    for i, check in enumerate((check_projectors, check_trace_range)):
        check_ok, check_detail = check((71, i), cases=60)
        if not check_ok:
            ok, detail = False, check_detail

    report_line(
        "criterion 7: structural invariants (projectors, fits, trace bounds)",
        ok,
        started,
        budget=5.0,
        detail=detail,
    )


def test_criterion_8_concentration_tail_shape():
    started = time.time()
    truth = TruthSpec(sigma=np.eye(2))
    fam = BasisFamily("histogram", 0.0, 1.0, 1)
    model = make_model(fam, (0, 1), uniform_grid(2))
    out = check_quadratic_form_tail(
        truth, model, n=50, x_grid=[1.0, 4.0, 16.0, 64.0], reps=10_000, seed=81
    )
    exceed = {row["x"]: row["exceedance"] for row in out["rows"]}
    values = [exceed[x] for x in (1.0, 4.0, 16.0, 64.0)]
    monotone = all(b <= a for a, b in zip(values, values[1:]))
    drops_4x = exceed[1.0] >= 4.0 * exceed[64.0]
    report_line(
        "criterion 8: quadratic-form exceedance decays in the threshold",
        monotone and drops_4x,
        started,
        budget=60.0,
        detail=f"exceedance {values[0]:.4f} -> {values[-1]:.4f}",
    )


def test_criterion_9_end_to_end_determinism(tmp_path, capsys):
    started = time.time()
    cfg = tmp_path / "sim.ini"
    cfg.write_text(
        "[basis]\nfamily = fourier\nmax_index = 4\n"
        "[collection]\nscheme = nested\nd_max = 3\n"
        "[kernel]\nkind = ornstein_uhlenbeck\nlength_scale = 0.5\n"
        "[experiment]\np = 4\nn = 30\nreps = 20\nseed = 91\ndiagnostics = true\n"
        "diagnostics_reps = 200\n"
    )
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    code1 = main(["simulate", "--config", str(cfg), "--out", str(out1)])
    code2 = main(["simulate", "--config", str(cfg), "--out", str(out2)])
    identical = (out1 / "experiment_report.json").read_bytes() == (
        out2 / "experiment_report.json"
    ).read_bytes()
    json.loads((out1 / "experiment_report.json").read_text())  # valid JSON
    validate_code = main(["validate"])
    capsys.readouterr()  # swallow the validate listing; it has its own tests
    with capsys.disabled():
        report_line(
            "criterion 9: seeded simulate is byte-identical and validate passes",
            code1 == 0 and code2 == 0 and identical and validate_code == 0,
            started,
            budget=60.0,
        )
