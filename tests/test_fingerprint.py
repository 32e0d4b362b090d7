"""Byte fingerprints and golden outputs of the shipped example runs, keyed
by report_version.

A change to the bytes a given seed and config produce must bump
`cli.REPORT_VERSION`, add a row here and commit the example outputs under
tests/golden/v<REPORT_VERSION>/ (`python tests/test_fingerprint.py` writes
them); otherwise these tests fail. The bytes are reproducible only for one
numpy and BLAS build, so the digest test skips on any other build rather
than report a false change. The golden test runs on every build: it compares
what the runs decide and count exactly and every other float to within
GOLDEN_RTOL relative.
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

SIMULATE_FILES = (
    "experiment_report.json",
    "risk_vs_n.csv",
    "selection_frequencies.csv",
    "variance_factor_mean.csv",
    "underestimation_prob.csv",
)
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
    # v4: simulate and the oracle work in basis coordinates and the loss is
    # bias_sq + in-model deviation; risk, diagnostic and replication floats
    # move in their last digits (at most 1.9e-13 relative, on z). The select
    # report differs from v3 only in report_version; criterion_table.csv,
    # sigma_hat.csv, selection_frequencies.csv and underestimation_prob.csv
    # keep their v3 bytes
    4: {
        "numpy": "2.4.6",
        "openblas": "0.3.31.188.0",
        "sha256": {
            "simulate/experiment_report.json":
                "06a6c4d326e99f018c89ce3b8b7f5f5e42997a52f87348929f6293e2cba9100a",
            "simulate/risk_vs_n.csv":
                "ee4e20ebb7feef8958a470338b9d028ad1b83ec8e3fad4c1ac2d1e482b24ec55",
            "simulate/selection_frequencies.csv":
                "4e4e23dc414d3f9f6a76ef73013e4c45a5ea256116f027b64299659e786bd435",
            "simulate/variance_factor_mean.csv":
                "5b1be36de91647e071171b803954e6cfddaf6c341e71dbbf064cf7cdd8017064",
            "simulate/underestimation_prob.csv":
                "efe4b9f94e84fa4b7c78322c9594ac244692f9cda8073d185118d02f0fe2989f",
            "simulate-keep/replications.csv":
                "a861ed997a90ff15976499678d7102906a7e493422d587b9a9a117f364c224cf",
            "select/selection_report.json":
                "257b6c50901711946e1ecc6c7f3304ff55a10726b51266b5606c0741c1e9e3ff",
            "select/criterion_table.csv":
                "4a5baa0a7d7d058039e6dcbc471524d93cc893cd0e845318f49d2341fdb85029",
            "select/sigma_hat.csv":
                "30bba54127ef40da08076d55cc485256801efb8989df6d882c2f2312a9c8b155",
        },
    },
    # v5: a nested collection's bases are leading columns of one QR table and
    # fit_all reads every nested model off one W = X Q by cumulative sums;
    # risk tables report exact zeros (a trace the truth does not reach, a
    # bias of a model that contains it) as 0. Floats move in their last
    # digits (at most 8.4e-14 relative, on z); selections, ties, frequencies,
    # oracle picks, flagged and violations are unchanged, and
    # selection_frequencies.csv and underestimation_prob.csv keep their v4 bytes
    5: {
        "numpy": "2.4.6",
        "openblas": "0.3.31.188.0",
        "sha256": {
            "simulate/experiment_report.json":
                "7da608fda927cd25294c37b93805af2adf4920dad0a3815c4c852bda9039c85f",
            "simulate/risk_vs_n.csv":
                "d6f2305cd9914e1dcb1d5391c6ee26743c5f38939781d920054c8b5e06b71183",
            "simulate/selection_frequencies.csv":
                "4e4e23dc414d3f9f6a76ef73013e4c45a5ea256116f027b64299659e786bd435",
            "simulate/variance_factor_mean.csv":
                "3d9fc6cd24ae58678bf029ba3f0196a4a55162fca2a7588bb9b185e46a68cc3c",
            "simulate/underestimation_prob.csv":
                "efe4b9f94e84fa4b7c78322c9594ac244692f9cda8073d185118d02f0fe2989f",
            "simulate-keep/replications.csv":
                "7e6e007f2eefc8b0c9652ea3da732e19dadbf7ac5bee5826db712e61bc5b98ab",
            "select/selection_report.json":
                "6e37bf8b46194dd5aba91d3ba8f076567566e54c79edba1a3d3f79546d01e73a",
            "select/criterion_table.csv":
                "cc550337a64ab2837ddc89196aca94efd15e2a879509fa35f5091a13d3bec2e1",
            "select/sigma_hat.csv":
                "95cb18dfa3a1d69729a4b1236f3fa55e0627afab94383a75ed5c002004989eda",
        },
    },
    # v6: replications are drawn one generator per RNG block of
    # max(1, 2**16 // (n p)) replications, and both diagnostics read one
    # draw keyed (seed, i_n, 1); every Monte Carlo number moves. The select
    # report differs from v5 only in report_version; criterion_table.csv,
    # sigma_hat.csv and (the example selects one model every time)
    # selection_frequencies.csv keep their v5 bytes
    6: {
        "numpy": "2.4.6",
        "openblas": "0.3.31.188.0",
        "sha256": {
            "simulate/experiment_report.json":
                "44e558a4ef25bca21c21e3325609d5d85484674ae1bb699c150a98c7e8d7dbc3",
            "simulate/risk_vs_n.csv":
                "f2f07717aeb354244cb1222d6a2a908d5bc5ed4b9f5b61b4654611fa934ad745",
            "simulate/selection_frequencies.csv":
                "4e4e23dc414d3f9f6a76ef73013e4c45a5ea256116f027b64299659e786bd435",
            "simulate/variance_factor_mean.csv":
                "d4d29fc9ae1bc36955f6578abdd7ea90f2a89ee079ae9a43cb29a430f721a97c",
            "simulate/underestimation_prob.csv":
                "1afdb2c528d00d2a8f1b98e37e873aca82ee56f5929cde103a22e4a818b88ac4",
            "simulate-keep/replications.csv":
                "25eebfd028e4c03e168aefa67cc3ae598e660c698bfebb760be71232fe98fa4d",
            "select/selection_report.json":
                "ad61c88ebc32e51ba612a3a518e1c9755412c49f5add3668ea9bc61c5e0fc6b1",
            "select/criterion_table.csv":
                "cc550337a64ab2837ddc89196aca94efd15e2a879509fa35f5091a13d3bec2e1",
            "select/sigma_hat.csv":
                "95cb18dfa3a1d69729a4b1236f3fa55e0627afab94383a75ed5c002004989eda",
        },
    },
    # v7: select, simulate and the diagnostics share one statistics kernel,
    # which reads every model of a chain off one W = X Q through a 0/1 rank
    # mask, and select's ||P S P||^2 comes from W^T W / n instead of Q^T S Q.
    # Floats move in their last digits (at most 1.8e-14 relative, on z);
    # selections, ties, frequencies, oracle picks, flagged and violations are
    # unchanged, and risk_vs_n.csv, selection_frequencies.csv,
    # underestimation_prob.csv and sigma_hat.csv keep their v6 bytes
    7: {
        "numpy": "2.4.6",
        "openblas": "0.3.31.188.0",
        "sha256": {
            "simulate/experiment_report.json":
                "b0b606ebc0e719554a23b98c466a128a20413082005b0bc6e9580cbcada09061",
            "simulate/risk_vs_n.csv":
                "f2f07717aeb354244cb1222d6a2a908d5bc5ed4b9f5b61b4654611fa934ad745",
            "simulate/selection_frequencies.csv":
                "4e4e23dc414d3f9f6a76ef73013e4c45a5ea256116f027b64299659e786bd435",
            "simulate/variance_factor_mean.csv":
                "4bfbd0aae3f8290d4e1b6d358f0761999f5966c5a90c75be1f64cbfd024f9a7a",
            "simulate/underestimation_prob.csv":
                "1afdb2c528d00d2a8f1b98e37e873aca82ee56f5929cde103a22e4a818b88ac4",
            "simulate-keep/replications.csv":
                "754133b9796a74f6933c36abf2109f01eceff2b13eab94433911b820c58846f7",
            "select/selection_report.json":
                "e7267b1b8afa3599f43f5cac272e33fa8bf3de41ebe003168891050d229abfcf",
            "select/criterion_table.csv":
                "3834245599d813daae2004ae3a45e46b7619508782bcbc18c7d651b2634a590d",
            "select/sigma_hat.csv":
                "95cb18dfa3a1d69729a4b1236f3fa55e0627afab94383a75ed5c002004989eda",
        },
    },
    # v8: a model names the table it is columns of, the kernels group models
    # by that table, and a histogram collection's models share one table (the
    # design divided by its column norms) instead of one SVD each. Both
    # examples differ from v7 only in report_version; histogram floats move
    # in their last digits (at most 7.7e-16 relative, 1.0e-13 on z) with the
    # same selections, ties and frequencies
    8: {
        "numpy": "2.4.6",
        "openblas": "0.3.31.188.0",
        "sha256": {
            "simulate/experiment_report.json":
                "7256cb2b46b1634f144e281aa5288706bbca99568c01ae4d29e9e3341b4cc80c",
            "simulate/risk_vs_n.csv":
                "f2f07717aeb354244cb1222d6a2a908d5bc5ed4b9f5b61b4654611fa934ad745",
            "simulate/selection_frequencies.csv":
                "4e4e23dc414d3f9f6a76ef73013e4c45a5ea256116f027b64299659e786bd435",
            "simulate/variance_factor_mean.csv":
                "4bfbd0aae3f8290d4e1b6d358f0761999f5966c5a90c75be1f64cbfd024f9a7a",
            "simulate/underestimation_prob.csv":
                "1afdb2c528d00d2a8f1b98e37e873aca82ee56f5929cde103a22e4a818b88ac4",
            "simulate-keep/replications.csv":
                "754133b9796a74f6933c36abf2109f01eceff2b13eab94433911b820c58846f7",
            "select/selection_report.json":
                "82f3395ce180bf5c78f18dc892f963695068db9a64806645cd3d5a2e9d970ed6",
            "select/criterion_table.csv":
                "3834245599d813daae2004ae3a45e46b7619508782bcbc18c7d651b2634a590d",
            "select/sigma_hat.csv":
                "95cb18dfa3a1d69729a4b1236f3fa55e0627afab94383a75ed5c002004989eda",
        },
    },
    # v9: the risk loop reads each model's deviation off its chain's Gram,
    # ||(C - Q^T sigma Q)[K, K]||^2 with C = W^T W / n, in the same kernel call
    # as the statistics, and select writes sigma-hat = U C U^T from W = X U.
    # err_sq and the risk floats made from it move in their last digits (at
    # most 5.9e-15 relative, on one replication's err_sq) and sigma_hat.csv by
    # at most 2.1e-15 of its largest entry; selections, ties, frequencies,
    # oracle picks, flagged and violations are unchanged, and the select
    # report differs from v8 only in report_version
    9: {
        "numpy": "2.4.6",
        "openblas": "0.3.31.188.0",
        "sha256": {
            "simulate/experiment_report.json":
                "c356a0a84325b80eb1718d0e7725fd0cb2b2da9a868177256c135e1aaa0dd765",
            "simulate/risk_vs_n.csv":
                "226e05fa97a41b235b1ce5562889ec81879c82102d0d3d52245f55eeaa90848e",
            "simulate/selection_frequencies.csv":
                "4e4e23dc414d3f9f6a76ef73013e4c45a5ea256116f027b64299659e786bd435",
            "simulate/variance_factor_mean.csv":
                "4bfbd0aae3f8290d4e1b6d358f0761999f5966c5a90c75be1f64cbfd024f9a7a",
            "simulate/underestimation_prob.csv":
                "1afdb2c528d00d2a8f1b98e37e873aca82ee56f5929cde103a22e4a818b88ac4",
            "simulate-keep/replications.csv":
                "1d383d11b84717f7bac73373b557534b46abb034e96f90d84c2b744b6cb5715b",
            "select/selection_report.json":
                "ce42ee76951c0d164779e2cc29b2c29af204effbd8c33848c12b807e7ed8f37f",
            "select/criterion_table.csv":
                "3834245599d813daae2004ae3a45e46b7619508782bcbc18c7d651b2634a590d",
            "select/sigma_hat.csv":
                "d09f253114a97d78c7f6bac01e2ac2b1ee8028a31cfd5da2cc8ed9017d0c08c6",
        },
    },
    # v10: simulate draws once per n, max(reps, diagnostics_reps) replications
    # of key (seed, n index), and both diagnostics read the plug-in traces of
    # its first diagnostics_reps rows, not a second draw of key
    # (seed, n index, 1). Only variance_factor_mean.csv,
    # underestimation_prob.csv and the report's runs[*].diagnostics move;
    # every risk output keeps its v9 bytes, and the select report differs
    # from v9 only in report_version
    10: {
        "numpy": "2.4.6",
        "openblas": "0.3.31.188.0",
        "sha256": {
            "simulate/experiment_report.json":
                "383bdc363eede31ed3be849464360f25f2b1cf683b51358fd1da3f05508505cd",
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
                "64d45006d55316885add5876c937ad0cc08e1413f3f120500a4dbadea2713f1b",
            "select/criterion_table.csv":
                "3834245599d813daae2004ae3a45e46b7619508782bcbc18c7d651b2634a590d",
            "select/sigma_hat.csv":
                "d09f253114a97d78c7f6bac01e2ac2b1ee8028a31cfd5da2cc8ed9017d0c08c6",
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


def run_examples_in(work):
    # the example configs name their input and output relative to the cwd
    cwd = os.getcwd()
    os.chdir(work)
    try:
        return run_examples(work)
    finally:
        os.chdir(cwd)


@pytest.fixture(scope="module")
def examples(tmp_path_factory):
    """(work dir, digests) of one run_examples in a fresh directory."""
    work = tmp_path_factory.mktemp("examples")
    return work, run_examples_in(work)


def test_report_bytes_match_their_version(examples):
    assert REPORT_VERSION in FINGERPRINTS, (
        f"report_version {REPORT_VERSION} has no fingerprint row"
    )
    entry = FINGERPRINTS[REPORT_VERSION]
    build = {"numpy": np.__version__, "openblas": openblas_version()}
    recorded = {key: entry[key] for key in build}
    if build != recorded:
        pytest.skip(f"fingerprints recorded on {recorded}; this build is {build}")
    _, got = examples
    moved = [name for name in SELECT_FILES if got[f"select-abs/{name}"] != got[f"select/{name}"]]
    assert not moved, f"select output depends on how its input path is written: {moved}"
    changed = sorted(key for key, digest in entry["sha256"].items() if got[key] != digest)
    assert not changed, (
        f"output bytes changed at report_version {REPORT_VERSION}: {changed}; "
        "bump cli.REPORT_VERSION and add a fingerprint row"
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
    golden = GOLDEN / f"v{REPORT_VERSION}"
    assert golden.is_dir(), f"report_version {REPORT_VERSION} has no {golden}"
    work, _ = examples
    for run, names in GOLDEN_FILES.items():
        for name in names:
            assert_matches(read_output(work / run / name), read_output(golden / run / name),
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
    # write tests/golden/v<REPORT_VERSION>/ from a fresh run of the examples
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        run_examples_in(Path(tmp))
        for run, names in GOLDEN_FILES.items():
            target = GOLDEN / f"v{REPORT_VERSION}" / run
            target.mkdir(parents=True, exist_ok=True)
            for name in names:
                shutil.copyfile(Path(tmp) / run / name, target / name)
