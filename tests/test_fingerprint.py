"""Byte fingerprints and golden outputs of the shipped example runs.

The repository keeps one byte record, the current one: the FINGERPRINT row
and the tree tests/golden/{select,simulate}/. A change to the bytes a given
seed and config produce must bump `cli.REPORT_VERSION` and re-record both in
place (`python tests/test_fingerprint.py` rewrites tests/golden/ and prints
the row); until then both tests fail, as the row and the golden reports carry
their report_version. The bytes are reproducible only for one numpy and BLAS
build, so the digests are compared only on that build. The golden test runs
on every build: it compares what the runs decide and count exactly and every
other float to within GOLDEN_RTOL relative.
"""

import configparser
import csv
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from covsel.cli import REPORT_VERSION, main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
GOLDEN = Path(__file__).resolve().parent / "golden"

SIMULATE_FILES = ("experiment_report.json", "risk_vs_n.csv", "selection_frequencies.csv",
                  "variance_factor_mean.csv", "underestimation_prob.csv")
SELECT_FILES = ("selection_report.json", "criterion_table.csv", "sigma_hat.csv")
GOLDEN_FILES = {"simulate": SIMULATE_FILES, "select": SELECT_FILES}

# JSON keys and CSV columns compared exactly: selections, ties, models,
# counts and what is derived from counts alone, and the echo of the inputs.
# Every other float is compared to GOLDEN_RTOL relative.
EXACT_FIELDS = frozenset({
    "config", "grid", "input", "n", "p", "collection", "indices", "rank", "dim",
    "model", "mode", "selected", "selected_dim", "ties", "selection_freq",
    "frequency", "mean_selected_dim", "flagged", "violations", "reps", "estimate", "alpha",
})
GOLDEN_RTOL = 1e-12

# one row, of the current report_version; earlier rows and golden trees are
# in the git history
FINGERPRINT = {
    "report_version": 13,
    "numpy": "2.4.6",
    "openblas": "0.3.31.188.0",
    "sha256": {
        "simulate/experiment_report.json":
            "bfdfc42e2cce9c8dfc36246f361e613d402f323b8a8a9b438372c70d19a2134a",
        "simulate/risk_vs_n.csv":
            "226e05fa97a41b235b1ce5562889ec81879c82102d0d3d52245f55eeaa90848e",
        "simulate/selection_frequencies.csv":
            "4e4e23dc414d3f9f6a76ef73013e4c45a5ea256116f027b64299659e786bd435",
        "simulate/variance_factor_mean.csv":
            "17404c934a91e8c7017547fbbb7b8cb3d66b0e784bbe4344f3e4bb566b703be4",
        "simulate/underestimation_prob.csv":
            "00f08f6b6d673e8ed1223e4f9387e836fe80302aefe937f974d80e741b0860ec",
        "simulate-keep/replications.csv":
            "1d383d11b84717f7bac73373b557534b46abb034e96f90d84c2b744b6cb5715b",
        "select/selection_report.json":
            "50280d5e151b1f078d076651533ec9eb2a7e08827a58ec0b4dd7bb78aca519a0",
        "select/criterion_table.csv":
            "3834245599d813daae2004ae3a45e46b7619508782bcbc18c7d651b2634a590d",
        "select/sigma_hat.csv":
            "6f93040a7f51363f6c8cfd05ac4d53097b1b009240f3c888e2285b78043ce67d",
    },
}


def openblas_version():
    """OpenBLAS version numpy was built against, or None for another BLAS."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return None
    return blas.get("version") if "openblas" in blas.get("name", "") else None


def write_select_input(path):
    """A fixed-seed p=16 CSV on [0, 1]: fourier indices 0-2 plus noise."""
    grid = np.linspace(0.0, 1.0, 16)
    design = np.stack(
        [np.ones_like(grid), np.cos(2 * np.pi * grid), np.sin(2 * np.pi * grid)], axis=1
    )
    rng = np.random.default_rng(2012)
    data = rng.standard_normal((60, 3)) * [1.0, 0.7, 0.4] @ design.T
    data += 0.1 * rng.standard_normal((60, 16))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join("%.17g" % v for v in grid) + "\n")
        for row in data:
            fh.write(",".join("%.17g" % v for v in row) + "\n")


def write_keep_config(path):
    """The simulate example with keep_replications = true."""
    parser = configparser.ConfigParser()
    parser.read(CONFIGS / "simulate_example.ini")
    parser.set("experiment", "keep_replications", "true")
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)


def run_examples(work):
    """Run both example configs in `work` (they name their input and output
    relative to the cwd), select a second time on the input's absolute path
    and simulate a second time keeping every replication; return
    {run/file: sha256 hex}."""
    sel_ini, sim_ini = (str(CONFIGS / f"{cmd}_example.ini") for cmd in ("select", "simulate"))
    cwd = os.getcwd()
    os.chdir(work)
    try:
        write_select_input("data.csv")
        write_keep_config("simulate_keep.ini")
        for args in (["select", "--config", sel_ini, "--out", "select"],
                     ["select", "--config", sel_ini, "--input", str(work.resolve() / "data.csv"),
                      "--out", "select-abs"],
                     ["simulate", "--config", sim_ini, "--out", "simulate"],
                     ["simulate", "--config", "simulate_keep.ini", "--out", "simulate-keep"]):
            assert main(args) == 0, args
    finally:
        os.chdir(cwd)
    runs = {"simulate": SIMULATE_FILES, "select": SELECT_FILES, "select-abs": SELECT_FILES,
            "simulate-keep": ("replications.csv",)}
    return {f"{run}/{name}": hashlib.sha256((work / run / name).read_bytes()).hexdigest()
            for run, names in runs.items() for name in names}


@pytest.fixture(scope="module")
def examples(tmp_path_factory):
    """(work dir, digests) of one run_examples in a fresh directory."""
    work = tmp_path_factory.mktemp("examples")
    return work, run_examples(work)


def test_report_bytes_match_their_version(examples):
    recorded_version = FINGERPRINT["report_version"]
    assert recorded_version == REPORT_VERSION, (
        f"the fingerprint row is of report_version {recorded_version}, the code writes "
        f"{REPORT_VERSION}: re-record the row and tests/golden/ (python tests/test_fingerprint.py)"
    )
    build = {"numpy": np.__version__, "openblas": openblas_version()}
    recorded = {key: FINGERPRINT[key] for key in build}
    if build != recorded:
        pytest.skip(f"fingerprints recorded on {recorded}; this build is {build}")
    _, got = examples
    moved = [name for name in SELECT_FILES if got[f"select-abs/{name}"] != got[f"select/{name}"]]
    assert not moved, f"select output depends on how its input path is written: {moved}"
    changed = sorted(key for key, digest in FINGERPRINT["sha256"].items() if got[key] != digest)
    assert not changed, (
        f"output bytes changed at report_version {REPORT_VERSION}: {changed}; "
        "bump cli.REPORT_VERSION and re-record the row and tests/golden/"
    )


def assert_matches(got, want, where, exact=False):
    """`got` equals the golden `want`: exactly under EXACT_FIELDS and for
    every non-float, to GOLDEN_RTOL relative for every other float."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), where
        for key in want:
            assert_matches(got[key], want[key], f"{where}.{key}", exact or key in EXACT_FIELDS)
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{where}[{i}]", exact)
    elif isinstance(want, float) and not exact:
        assert isinstance(got, float), where
        assert abs(got - want) <= GOLDEN_RTOL * max(abs(got), abs(want)), (
            f"{where}: {got!r} differs from the golden {want!r} by more than {GOLDEN_RTOL:g}"
        )
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r} != golden {want!r}"


def read_csv(path):
    """{"header": [...], column: [cells]} with each cell a float where it
    parses as one (header cells stay strings)."""
    def cell(text):
        try:
            return float(text)
        except ValueError:
            return text

    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    return {"header": header,
            **{name: [cell(row[j]) for row in rows] for j, name in enumerate(header)}}


def read_output(path):
    if path.suffix == ".json":
        return json.loads(path.read_text(encoding="utf-8"))
    return read_csv(path)


def test_outputs_match_golden(examples):
    held = sorted(path.relative_to(GOLDEN).as_posix() for path in GOLDEN.rglob("*"))
    want = sorted([*GOLDEN_FILES, *(f"{run}/{name}" for run, names in GOLDEN_FILES.items()
                                    for name in names)])
    assert held == want, f"{GOLDEN} must hold exactly the current golden files {want}, not {held}"
    work, _ = examples
    for run, names in GOLDEN_FILES.items():
        for name in names:
            assert_matches(read_output(work / run / name), read_output(GOLDEN / run / name),
                           f"{run}/{name}")


# a histogram all_subsets collection shares one table across its models
THREADS_SIMULATE_INI = """\
[basis]
family = histogram
max_index = 5
t_min = 0.0
t_max = 1.0
[collection]
scheme = all_subsets
k = 2
[kernel]
kind = ornstein_uhlenbeck
length_scale = 0.3
[experiment]
p = 13
n = 40
n_grid = 20,40
reps = 300
seed = 8
diagnostics = true
diagnostics_reps = 300
keep_replications = true
"""


def test_output_bytes_do_not_depend_on_blas_threads(tmp_path):
    """`select` on the example config and a histogram all_subsets `simulate`
    with diagnostics, each in a child process at OPENBLAS_NUM_THREADS 1 and
    2, write the same bytes."""
    write_select_input(tmp_path / "data.csv")
    (tmp_path / "simulate.ini").write_text(THREADS_SIMULATE_INI)
    runs = {}
    for threads in (1, 2):
        env = {**os.environ, "PYTHONPATH": str(CONFIGS.parent / "src"),
               "OPENBLAS_NUM_THREADS": str(threads)}
        for args in (["select", "--config", str(CONFIGS / "select_example.ini")],
                     ["simulate", "--config", "simulate.ini"]):
            out = tmp_path / f"{args[0]}-{threads}"
            proc = subprocess.run([sys.executable, "-m", "covsel.cli", *args, "--out", str(out)],
                                  cwd=tmp_path, env=env, capture_output=True, text=True,
                                  timeout=120)
            assert proc.returncode == 0, proc.stderr
            runs[args[0], threads] = {path.name: path.read_bytes() for path in out.iterdir()}
    for command in ("select", "simulate"):
        assert len(runs[command, 1]) >= 3
        assert runs[command, 1] == runs[command, 2], command


if __name__ == "__main__":
    # rewrite tests/golden/ in place from a fresh run of the examples, and
    # print the FINGERPRINT row of this build
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        digests = run_examples(Path(tmp))
        shutil.rmtree(GOLDEN, ignore_errors=True)
        for run, names in GOLDEN_FILES.items():
            (GOLDEN / run).mkdir(parents=True)
            for name in names:
                shutil.copyfile(Path(tmp) / run / name, GOLDEN / run / name)
    print(json.dumps({"report_version": REPORT_VERSION, "numpy": np.__version__,
                      "openblas": openblas_version(),
                      "sha256": {key: digests[key] for key in FINGERPRINT["sha256"]}}, indent=4))
