"""Byte fingerprints of the shipped example runs, keyed by report_version.

A change to the bytes a given seed and config produce must bump
`cli.REPORT_VERSION` and add a row here; otherwise this test fails. The
bytes are reproducible only for one numpy and BLAS build, so the test skips
on any other build rather than report a false change.
"""

import configparser
import hashlib
from pathlib import Path

import numpy as np
import pytest

from covsel.cli import REPORT_VERSION, main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

SIMULATE_FILES = (
    "experiment_report.json",
    "risk_vs_n.csv",
    "selection_frequencies.csv",
    "variance_factor_mean.csv",
    "underestimation_prob.csv",
)
SELECT_FILES = ("selection_report.json", "criterion_table.csv", "sigma_hat.csv")

FINGERPRINTS = {
    1: {
        "numpy": "2.4.6",
        "openblas": "0.3.31.188.0",
        "sha256": {
            "simulate/experiment_report.json":
                "acc2f3a979048aec4c8c155c5286dfe6f05ac84aeba018cba4309437861c9273",
            "simulate/risk_vs_n.csv":
                "6d5330427e02202f05d6c1e1be6b130c14f796c81f37f17fb45f9ad2e1cb3139",
            "simulate/selection_frequencies.csv":
                "4e4e23dc414d3f9f6a76ef73013e4c45a5ea256116f027b64299659e786bd435",
            "simulate/variance_factor_mean.csv":
                "9d9b83ced06e1b4c19fdd3c7565d81034764d0672ab69428bb0907c0b956a4b4",
            "simulate/underestimation_prob.csv":
                "efe4b9f94e84fa4b7c78322c9594ac244692f9cda8073d185118d02f0fe2989f",
            "select/selection_report.json":
                "7e9287074d0008ef5938abba7c7adf9c5f25f6887984fb51bb363c5e649387cf",
            "select/criterion_table.csv":
                "eaab3ee0365d86382e5dea442e3bb7f1566ea90ab07a50a49d5e5ba3e1b3cc72",
            "select/sigma_hat.csv":
                "30bba54127ef40da08076d55cc485256801efb8989df6d882c2f2312a9c8b155",
        },
    },
    # v2: select fits in basis coordinates (criterion values move in their
    # last digits) and records its input by file name and SHA-256; every
    # simulate CSV and sigma_hat.csv keep their v1 bytes
    2: {
        "numpy": "2.4.6",
        "openblas": "0.3.31.188.0",
        "sha256": {
            "simulate/experiment_report.json":
                "e1776f746f1f550fc4946038f075bcbe1e11c6d0c93a8b851b77ab31a0be68a2",
            "simulate/risk_vs_n.csv":
                "6d5330427e02202f05d6c1e1be6b130c14f796c81f37f17fb45f9ad2e1cb3139",
            "simulate/selection_frequencies.csv":
                "4e4e23dc414d3f9f6a76ef73013e4c45a5ea256116f027b64299659e786bd435",
            "simulate/variance_factor_mean.csv":
                "9d9b83ced06e1b4c19fdd3c7565d81034764d0672ab69428bb0907c0b956a4b4",
            "simulate/underestimation_prob.csv":
                "efe4b9f94e84fa4b7c78322c9594ac244692f9cda8073d185118d02f0fe2989f",
            "select/selection_report.json":
                "1288bc3704dee208011c886edcfbd6833d315c293b2710ce63569c2ea08ec222",
            "select/criterion_table.csv":
                "4a5baa0a7d7d058039e6dcbc471524d93cc893cd0e845318f49d2341fdb85029",
            "select/sigma_hat.csv":
                "30bba54127ef40da08076d55cc485256801efb8989df6d882c2f2312a9c8b155",
        },
    },
    # v3: per-replication rows live only in replications.csv, and the report
    # names that file when keep_replications is on. Both example reports
    # differ from v2 only in report_version; every CSV keeps its v2 bytes,
    # and simulate-keep/replications.csv equals the v2 code's bytes
    3: {
        "numpy": "2.4.6",
        "openblas": "0.3.31.188.0",
        "sha256": {
            "simulate/experiment_report.json":
                "b1ba9cac79a9c56e06782ce87779470aa561c53c7bd5dd0538304c3f70b20e04",
            "simulate/risk_vs_n.csv":
                "6d5330427e02202f05d6c1e1be6b130c14f796c81f37f17fb45f9ad2e1cb3139",
            "simulate/selection_frequencies.csv":
                "4e4e23dc414d3f9f6a76ef73013e4c45a5ea256116f027b64299659e786bd435",
            "simulate/variance_factor_mean.csv":
                "9d9b83ced06e1b4c19fdd3c7565d81034764d0672ab69428bb0907c0b956a4b4",
            "simulate/underestimation_prob.csv":
                "efe4b9f94e84fa4b7c78322c9594ac244692f9cda8073d185118d02f0fe2989f",
            "simulate-keep/replications.csv":
                "6d0d0a23134d33babd7f383b77a67cb76747f3ec532802410a841c5fa52ca7dc",
            "select/selection_report.json":
                "86cf59cb7a7919c14baa8b1246a115c83aa7bfedff5a30777bb7df89ac35d900",
            "select/criterion_table.csv":
                "4a5baa0a7d7d058039e6dcbc471524d93cc893cd0e845318f49d2341fdb85029",
            "select/sigma_hat.csv":
                "30bba54127ef40da08076d55cc485256801efb8989df6d882c2f2312a9c8b155",
        },
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
    """Run both example configs in `work`, select a second time on the input's
    absolute path and simulate a second time keeping every replication;
    return {run/file: sha256 hex}."""
    write_select_input(work / "data.csv")
    write_keep_config(work / "simulate_keep.ini")
    assert main(["select", "--config", str(CONFIGS / "select_example.ini"),
                 "--out", "select"]) == 0
    assert main(["select", "--config", str(CONFIGS / "select_example.ini"),
                 "--input", str((work / "data.csv").resolve()), "--out", "select-abs"]) == 0
    assert main(["simulate", "--config", str(CONFIGS / "simulate_example.ini"),
                 "--out", "simulate"]) == 0
    assert main(["simulate", "--config", "simulate_keep.ini", "--out", "simulate-keep"]) == 0
    return {
        f"{run}/{name}": hashlib.sha256((work / run / name).read_bytes()).hexdigest()
        for run, names in (("simulate", SIMULATE_FILES), ("select", SELECT_FILES),
                           ("select-abs", SELECT_FILES),
                           ("simulate-keep", ("replications.csv",)))
        for name in names
    }


def test_report_bytes_match_their_version(tmp_path, monkeypatch):
    # the example configs name their input and output relative to the cwd
    monkeypatch.chdir(tmp_path)
    assert REPORT_VERSION in FINGERPRINTS, (
        f"report_version {REPORT_VERSION} has no fingerprint row"
    )
    entry = FINGERPRINTS[REPORT_VERSION]
    build = {"numpy": np.__version__, "openblas": openblas_version()}
    recorded = {key: entry[key] for key in build}
    if build != recorded:
        pytest.skip(f"fingerprints recorded on {recorded}; this build is {build}")
    got = run_examples(tmp_path)
    moved = [name for name in SELECT_FILES if got[f"select-abs/{name}"] != got[f"select/{name}"]]
    assert not moved, f"select output depends on how its input path is written: {moved}"
    changed = sorted(key for key, digest in entry["sha256"].items() if got[key] != digest)
    assert not changed, (
        f"output bytes changed at report_version {REPORT_VERSION}: {changed}; "
        "bump cli.REPORT_VERSION and add a fingerprint row"
    )
