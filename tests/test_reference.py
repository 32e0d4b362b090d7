"""`covsel._reference` is the one home of the brute-force references and of
the checks `covsel validate` and the acceptance suite share; the pipeline
modules hold none of it, and `select` and `simulate` never load it."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from covsel import _kernels, _reference, cli, dictionary, estimator, linalg, oracle, simulate

ROOT = Path(__file__).resolve().parent.parent

# module -> names it no longer defines; _reference defines each of them
# (validate's `_check_*` functions as the CHECKS functions `check_*`)
MOVED = {
    linalg: ("vec", "kron", "commutation_matrix", "check_projector", "DEFAULT_SIZE_GUARD"),
    dictionary: ("make_model",),
    estimator: ("fourth_moment_cov_dense", "project"),
    oracle: ("gaussian_fourth_moment_dense", "check_quadratic_form_tail",
             "true_variance_factor"),
    cli: ("_random_projector", "_check_projectors", "_check_trace_range",
          "_check_kron_free_trace", "_check_gaussian_closed_form", "_check_loss_expansion"),
}


@pytest.mark.parametrize("module", list(MOVED), ids=lambda m: m.__name__)
def test_moved_names_live_only_in_reference(module):
    for name in MOVED[module]:
        assert not hasattr(module, name), f"{module.__name__}.{name}"
        assert hasattr(_reference, name.lstrip("_")), name


def test_test_only_paths_are_gone():
    assert not hasattr(simulate, "sample_paths")
    # sigma is the one input; factor is derived from it
    field_names = {f.name for f in oracle.TruthSpec.__dataclass_fields__.values() if f.init}
    assert field_names == {"sigma"}
    assert not hasattr(oracle.TruthSpec(sigma=np.eye(2)), "mean_vec")


def test_checks_are_the_validate_listing():
    names = [name for name, _ in _reference.CHECKS]
    assert names == [
        "projector symmetry and idempotence",
        "projected trace range for PSD matrices",
        "kron-free fourth-moment trace vs dense",
        "gaussian fourth-moment closed form vs dense",
        "expanded loss vs direct residual sum",
        "collection kernel vs per-model direct",
        "collection fit vs per-model direct",
    ]


def test_select_and_simulate_never_load_reference(tmp_path):
    grid = (0.5 + np.arange(4)) / 4
    rows = [grid, *np.random.default_rng(3).standard_normal((6, 4))]
    data = tmp_path / "samples.csv"
    data.write_text("".join(",".join(repr(float(v)) for v in row) + "\n" for row in rows))
    sim = tmp_path / "sim.ini"
    sim.write_text("[basis]\nmax_index = 3\n[experiment]\np = 4\nn = 10\nreps = 3\n"
                   "diagnostics = true\ndiagnostics_reps = 100\n")
    select = ["select", "--input", str(data), "--out", str(tmp_path / "s")]
    simulate = ["simulate", "--config", str(sim), "--out", str(tmp_path / "m")]
    script = (
        "import sys\n"
        "from covsel import cli\n"
        f"assert cli.main({select!r}) == 0\n"
        f"assert cli.main({simulate!r}) == 0\n"
        "assert 'covsel._reference' not in sys.modules\n"
        "assert cli.main(['validate']) == 0\n"
        "assert 'covsel._reference' in sys.modules\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_gaussian_closed_form_check_holds_the_pipeline_function(monkeypatch):
    # the check compares oracle.true_fourth_moment_trace itself with the dense
    # reference, so a corrupted pipeline closed form fails it
    assert _reference.check_gaussian_closed_form((2,), cases=20)[0]
    def doubled(truth, model):
        return 2.0 * oracle.true_fourth_moment_trace(truth, model)

    monkeypatch.setattr(_reference, "true_fourth_moment_trace", doubled)
    assert not _reference.check_gaussian_closed_form((2,), cases=20)[0]


@pytest.mark.parametrize("stat", range(4))
def test_collection_kernel_check_holds_the_pipeline_kernel(monkeypatch, stat):
    # the check runs _kernels.deviation_batch itself over both routes, so a
    # relative error of 1e-9 in any one of its four outputs fails it
    assert _reference.check_collection_kernel((3,))[0]
    kernel = _reference._kernels.deviation_batch

    def skewed(*args):
        out = list(kernel(*args))
        out[stat] = out[stat] * (1.0 + 1e-9)
        return tuple(out)

    monkeypatch.setattr(_reference._kernels, "deviation_batch", skewed)
    assert not _reference.check_collection_kernel((3,))[0]


@pytest.mark.parametrize("stat", range(2))
def test_collection_fit_check_holds_the_pipeline_fit(monkeypatch, stat):
    # the check runs estimator.fit_all itself over both routes, on samples
    # that span three row blocks, so a relative error of 1e-9 in its loss or
    # trace fails it
    p, n = _reference.check_collection_fit.__defaults__
    assert len(_kernels.row_blocks(np.empty((1, n, p)))) == 3
    assert _reference.check_collection_fit((4,))[0]
    fit_all = _reference.fit_all

    def skewed(*args):
        out = list(fit_all(*args))
        out[stat] = out[stat] * (1.0 + 1e-9)
        return tuple(out)

    monkeypatch.setattr(_reference, "fit_all", skewed)
    assert not _reference.check_collection_fit((4,))[0]
