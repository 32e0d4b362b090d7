import contextlib
import hashlib
import hmac
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import covsel.simulate
from covsel import _mc, cli
from covsel._reference import project
from covsel.cli import (
    CONFIG_KEYS,
    REPORT_VERSION,
    load_config,
    main,
    read_samples_csv,
    write_matrix_csv,
    write_table_csv,
)
from covsel.estimator import empirical_cov
from covsel.linalg import projector_from_basis

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

TOY_CSV = "0.25,0.75\n1,0\n0,1\n"


# Worst max |sigma-hat - P S P| of select's estimate against the dense
# `_reference.project`, in eps times max |P S P|: measured at 5.33 over the
# collections of tests/test_estimator.py::budget_collections when this budget
# was set; it may only tighten.
SIGMA_HAT_BUDGET_EPS = 6.0


def write_toy(tmp_path, name="toy.csv", body=TOY_CSV):
    path = tmp_path / name
    path.write_text(body)
    return path


def select_config(tmp_path, extra=""):
    cfg = tmp_path / "select.ini"
    cfg.write_text(
        "[basis]\n"
        "family = histogram\n"
        "max_index = 1\n"
        "t_min = 0.0\n"
        "t_max = 1.0\n"
        "[collection]\n"
        "scheme = nested\n"
        "d_max = 2\n"
        "[selection]\n"
        "theta = 1.0\n" + extra
    )
    return cfg


def run_python(script):
    """Run `script` in a new interpreter that imports covsel from src/."""
    root = Path(__file__).resolve().parent.parent
    return subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True, text=True, timeout=120,
    )


class TestSelectCommand:
    def test_toy_example_end_to_end(self, tmp_path, capsys):
        # hand computation: with x1 = e1, x2 = e2 on a 2-cell histogram the
        # criteria tie at 1.0 and the tie-break picks the 1-cell model, whose
        # projected covariance is diag(0.5, 0)
        data = write_toy(tmp_path)
        cfg = select_config(tmp_path)
        code = main(
            ["select", "--config", str(cfg), "--input", str(data), "--out", str(tmp_path)]
        )
        assert code == 0

        report = json.loads((tmp_path / "selection_report.json").read_text())
        assert report["selected"] == [0]
        assert sorted(report["ties"]) == [[0], [0, 1]]
        rows = {tuple(r["indices"]): r for r in report["criterion_table"]}
        assert rows[(0,)]["criterion"] == pytest.approx(1.0, abs=1e-14)
        assert rows[(0, 1)]["criterion"] == pytest.approx(1.0, abs=1e-14)

        lines = (tmp_path / "sigma_hat.csv").read_text().strip().splitlines()
        header = [float(v) for v in lines[0].split(",")]
        assert header == [0.25, 0.75]
        matrix = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        np.testing.assert_allclose(matrix, [[0.5, 0.0], [0.0, 0.0]], atol=1e-15)

        table = (tmp_path / "criterion_table.csv").read_text().strip().splitlines()
        assert table[0] == "model,dim,loss,variance_factor,penalty,criterion"
        assert len(table) == 3

    def test_missing_input_exits_2_with_path(self, tmp_path, capsys):
        cfg = select_config(tmp_path)
        code = main(
            ["select", "--config", str(cfg), "--input", str(tmp_path / "nope.csv"),
             "--out", str(tmp_path)]
        )
        assert code == 2
        assert "nope.csv" in capsys.readouterr().err

    def test_single_model_collection_single_row(self, tmp_path):
        data = write_toy(tmp_path)
        cfg = tmp_path / "one.ini"
        cfg.write_text(
            "[basis]\nfamily = histogram\nmax_index = 1\nt_min = 0\nt_max = 1\n"
            "[collection]\nscheme = nested\nd_max = 1\n"
        )
        code = main(
            ["select", "--config", str(cfg), "--input", str(data), "--out", str(tmp_path)]
        )
        assert code == 0
        report = json.loads((tmp_path / "selection_report.json").read_text())
        assert len(report["criterion_table"]) == 1

    def test_degenerate_collection_exits_3(self, tmp_path, capsys):
        # data grid lives entirely in the last histogram cell; the nested
        # one-cell collection only contains the empty first cell
        data = write_toy(tmp_path, body="0.9,0.95\n1,0\n0,1\n")
        cfg = tmp_path / "degenerate.ini"
        cfg.write_text(
            "[basis]\nfamily = histogram\nmax_index = 3\nt_min = 0\nt_max = 1\n"
            "[collection]\nscheme = nested\nd_max = 1\n"
        )
        with pytest.warns(UserWarning):
            code = main(
                ["select", "--config", str(cfg), "--input", str(data), "--out", str(tmp_path)]
            )
        assert code == 3

    def test_malformed_csv_exits_2(self, tmp_path, capsys):
        data = write_toy(tmp_path, body="0.25,bananas\n1,0\n0,1\n")
        cfg = select_config(tmp_path)
        code = main(
            ["select", "--config", str(cfg), "--input", str(data), "--out", str(tmp_path)]
        )
        assert code == 2

    def test_report_records_input_name_and_digest(self, tmp_path, monkeypatch):
        # the same file named by a relative and by an absolute path gives the
        # same report bytes
        data = write_toy(tmp_path)
        cfg = select_config(tmp_path)
        monkeypatch.chdir(tmp_path)
        assert main(["select", "--config", str(cfg), "--input", "./toy.csv",
                     "--out", "rel"]) == 0
        assert main(["select", "--config", str(cfg), "--input", str(data.resolve()),
                     "--out", "abs"]) == 0
        rel = (tmp_path / "rel" / "selection_report.json").read_bytes()
        assert rel == (tmp_path / "abs" / "selection_report.json").read_bytes()
        assert json.loads(rel)["config"]["input"] == {
            "name": "toy.csv",
            "sha256": hashlib.sha256(TOY_CSV.encode()).hexdigest(),
        }

    def test_digest_loads_no_openssl(self, tmp_path):
        # the input is hashed with CPython's builtin SHA-256, over several
        # 64 KiB reads, and neither `_hashlib` (OpenSSL) nor numpy.random,
        # which only the Monte Carlo draws load, is ever imported
        grid = (0.5 + np.arange(16)) / 16
        rows = [grid, *np.random.default_rng(5).standard_normal((600, 16))]
        data = tmp_path / "samples.csv"
        data.write_text("".join(",".join(repr(float(v)) for v in row) + "\n" for row in rows))
        assert data.stat().st_size > 2 * (1 << 16)
        script = (
            "import sys\n"
            "from covsel import cli\n"
            f"assert cli.main(['select', '--input', {str(data)!r}, '--out', {str(tmp_path)!r}]) == 0\n"
            "assert '_hashlib' not in sys.modules, 'select loaded OpenSSL'\n"
            "assert 'numpy.random' not in sys.modules, 'select loaded numpy.random'\n"
        )
        proc = run_python(script)
        assert proc.returncode == 0, proc.stderr
        report = json.loads((tmp_path / "selection_report.json").read_text())
        assert report["config"]["input"]["sha256"] == hashlib.sha256(data.read_bytes()).hexdigest()

    def test_sigma_hat_forms_neither_s_nor_projector(self, tmp_path, monkeypatch):
        # select writes sigma-hat = U C U^T from W = X U of the selected model:
        # every covsel name of empirical_cov and projector_from_basis fails
        # during the run, and the file equals the dense P S P of the model
        # the report selects within SIGMA_HAT_BUDGET_EPS
        def forbidden(*args):
            raise AssertionError("select formed S or a projector")

        for original in (empirical_cov, projector_from_basis):
            name = original.__name__
            for module in [m for key, m in sys.modules.items() if key.startswith("covsel.")]:
                if vars(module).get(name) is original:
                    monkeypatch.setattr(module, name, forbidden)
        built = []
        build_collection = cli.build_collection

        def build_and_keep(*args, **kwargs):
            built.append(build_collection(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(cli, "build_collection", build_and_keep)
        gen = np.random.default_rng(5)
        grid = (np.arange(12) + 0.5) / 12
        path = tmp_path / "wide.csv"
        write_matrix_csv(path, grid, gen.standard_normal((20, 12)))
        cfg = tmp_path / "fourier.ini"
        cfg.write_text("[basis]\nfamily = fourier\nmax_index = 9\nt_min = 0\nt_max = 1\n")
        assert main(["select", "--config", str(cfg), "--input", str(path),
                     "--out", str(tmp_path)]) == 0
        monkeypatch.undo()
        (collection,) = built
        assert len(collection) == 10
        report = json.loads((tmp_path / "selection_report.json").read_text())
        (model,) = [m for m in collection if list(m.indices) == report["selected"]]
        dense = project(empirical_cov(read_samples_csv(path)), model)
        sigma_hat = np.loadtxt(tmp_path / "sigma_hat.csv", delimiter=",")[1:]
        err = np.max(np.abs(sigma_hat - dense)) / np.max(np.abs(dense))
        assert err <= SIGMA_HAT_BUDGET_EPS * np.finfo(float).eps, err

    def test_seed_flag_rejected(self, tmp_path):
        data = write_toy(tmp_path)
        cfg = select_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["select", "--seed", "1", "--config", str(cfg), "--input", str(data),
                  "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_unknown_key_exits_2(self, tmp_path):
        data = write_toy(tmp_path)
        cfg = select_config(tmp_path, extra="thetta = 2.0\n")
        assert main(["select", "--config", str(cfg), "--input", str(data),
                     "--out", str(tmp_path)]) == 2

    def test_bad_theta_exits_2(self, tmp_path):
        data = write_toy(tmp_path)
        cfg = select_config(tmp_path)
        code = main(
            ["select", "--config", str(cfg), "--input", str(data), "--out", str(tmp_path),
             "--theta", "-1.0"]
        )
        assert code == 2


def test_reports_carry_report_version(tmp_path):
    sel_out = tmp_path / "sel"
    sim_out = tmp_path / "sim"
    data = write_toy(tmp_path)
    assert main(["select", "--config", str(select_config(tmp_path)),
                 "--input", str(data), "--out", str(sel_out)]) == 0
    assert main(["simulate", "--config", str(simulate_config(tmp_path)),
                 "--out", str(sim_out)]) == 0
    for path in (sel_out / "selection_report.json", sim_out / "experiment_report.json"):
        version = json.loads(path.read_text())["report_version"]
        assert type(version) is int and version == REPORT_VERSION


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "command, body, csv, flags, message",
    [
        # ||sigma||^2 = inf floored every bias and trace to 0: a risk ratio of 0 / 0
        ("simulate", "[basis]\nt_max = 1e200\n[kernel]\nkind = brownian\n[experiment]\np = 4\n",
         None, [], "the kernel's covariance is zero on the grid or overflows float64"),
        # a finite ||sigma||^2 whose square overflows: risk_se and the risk
        # variance overflowed, and the report's Infinity stopped the JSON write
        ("simulate", "[basis]\nfamily = fourier\nmax_index = 3\nt_max = 1e77\n"
         "[kernel]\nkind = brownian\n[experiment]\np = 4\nn = 20\nreps = 100\n",
         None, [], "fourth moments of the kernel's covariance or theta overflow float64"),
        # a modest kernel, but (1 + theta) * trace / n overflows: every criterion was
        # inf, every model tied and the run wrote a report that picked model 0
        ("simulate", "[experiment]\np = 4\nn = 20\nreps = 10\n", None, ["--theta", "1e308"],
         "fourth moments of the kernel's covariance or theta overflow float64"),
        # finite entries whose fourth moments overflow made every criterion NaN
        ("select", "[basis]\nfamily = histogram\nmax_index = 1\n[collection]\nd_max = 2\n",
         "0.25,0.75\n1e80,0\n0,1e80\n3e79,1e79\n", [],
         "toy.csv: fourth moments of the data or theta overflow float64"),
        # modest data, but (1 + theta) * trace / n overflows to an infinite penalty
        ("select", "[basis]\nfamily = histogram\nmax_index = 1\n[collection]\nd_max = 2\n",
         "0.25,0.75\n3,0\n0,3\n1,2\n", ["--theta", "1e308"],
         "toy.csv: fourth moments of the data or theta overflow float64"),
    ],
    ids=["simulate", "simulate-fourth-moments", "simulate-theta", "select", "select-theta"],
)
def test_overflowing_input_exits_2_with_one_line(tmp_path, capsys, command, body, csv, flags,
                                                 message):
    cfg = tmp_path / "big.ini"
    cfg.write_text(body)
    args = [command, "--config", str(cfg), "--out", str(tmp_path / "out"), *flags]
    if csv is not None:
        args += ["--input", str(write_toy(tmp_path, body=csv))]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and message in err
    assert not (tmp_path / "out").exists()


def test_dump_json_rejects_non_finite_values(tmp_path):
    # a rejected payload makes neither the file nor its missing directory
    path = tmp_path / "missing" / "report.json"
    for value in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            cli.dump_json(path, {"value": value})
        assert not path.parent.exists()
    cli.dump_json(path, {"value": 1.5})
    assert json.loads(path.read_text()) == {"value": 1.5}


def test_dump_json_writes_the_dumps_bytes(tmp_path):
    # written in batches of encoder pieces, the file is json.dumps's text
    payload = {"rows": [{"i": i, "x": i / 7.0, "tag": [str(i), None, True]}
                        for i in range(3 * cli.JSON_BATCH)], "empty": [], "nested": {"a": {}}}
    cli.dump_json(tmp_path / "report.json", payload)
    assert (tmp_path / "report.json").read_text() == json.dumps(
        payload, indent=2, sort_keys=True) + "\n"


def test_non_finite_deep_in_report_exits_2_before_any_file(tmp_path, monkeypatch, capsys):
    # the finiteness walk finds a NaN deep in a nested list before the
    # output directory is made
    report = {"runs": [{"n": 10, "values": [[1.0, 2.0], [3.0, [4.0, float("nan")]]]}]}
    monkeypatch.setattr(cli, "run_experiment", lambda cfg: (report, {}))
    assert main(["simulate", "--out", str(tmp_path / "out")]) == 2
    assert "overflow" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["select", "simulate"])
@pytest.mark.parametrize("case", ["existing file", "under a file"])
def test_unwritable_output_exits_2_with_one_line(tmp_path, capsys, command, case):
    # an --out that names a file, or a directory that cannot be made because
    # a file is in its path, is a config error, not a traceback
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    out = blocker if case == "existing file" else blocker / "out"
    if command == "select":
        args = ["select", "--input", str(write_toy(tmp_path))]
    else:
        args = ["simulate", "--config", str(simulate_config(tmp_path))]
    assert main([*args, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: cannot write {out}")
    assert blocker.read_text() == ""


@pytest.mark.parametrize("command,stage", [("select", "fit_all"), ("simulate", "run_experiment")])
def test_out_of_memory_exits_2_with_one_line(tmp_path, monkeypatch, capsys, command, stage):
    # `[experiment] p = 100000` asks numpy for a 74.5 GiB Sigma; the failed
    # allocation is stood in for, never made
    def allocate(*args):
        raise MemoryError("Unable to allocate 74.5 GiB for an array")

    monkeypatch.setattr(cli, stage, allocate)
    args = ["--input", str(write_toy(tmp_path))] if command == "select" else []
    assert main([command, *args, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == "error: out of memory: Unable to allocate 74.5 GiB for an array\n"
    assert not (tmp_path / "out").exists()


def test_simulate_and_validate_load_no_openssl(tmp_path):
    # numpy.random is imported at the first draw with `_hashlib` blocked, the
    # block is lifted afterwards, and hashlib and hmac still give the
    # standard digests from CPython's builtin hashes
    config = CONFIGS / "simulate_example.ini"
    script = (
        "import os, sys\n"
        "from covsel import cli\n"
        "def no_openssl(command):\n"
        "    assert '_hashlib' not in sys.modules, f'{command} loaded OpenSSL'\n"
        "    assert 'numpy.random' in sys.modules, command\n"
        "    if os.path.exists('/proc/self/maps'):\n"
        "        with open('/proc/self/maps') as fh:\n"
        "            assert 'libcrypto' not in fh.read(), f'{command} mapped libcrypto'\n"
        f"assert cli.main(['simulate', '--config', {str(config)!r}, '--out', {str(tmp_path)!r}]) == 0\n"
        "no_openssl('simulate')\n"
        "assert cli.main(['validate']) == 0\n"
        "no_openssl('validate')\n"
        "assert sys.modules.get('_hashlib', 'absent') is not None, 'the block was left in place'\n"
        "import hashlib, hmac\n"
        "assert hashlib.sha256(b'').hexdigest() == "
        f"{hashlib.sha256(b'').hexdigest()!r}\n"
        "assert hmac.new(b'k', b'm', 'sha256').hexdigest() == "
        f"{hmac.new(b'k', b'm', 'sha256').hexdigest()!r}\n"
        "import _hashlib\n"
    )
    proc = run_python(script)
    assert proc.returncode == 0, proc.stderr


def test_numpy_random_loader_keeps_a_loaded_hashlib():
    # with OpenSSL already loaded, the first load neither blocks nor drops it
    script = (
        "import sys\n"
        "import _hashlib\n"
        "from covsel import _mc\n"
        "assert 'numpy.random' not in sys.modules\n"
        "import numpy\n"
        "assert _mc._numpy_random() is numpy.random\n"
        "assert sys.modules['_hashlib'] is _hashlib\n"
    )
    proc = run_python(script)
    assert proc.returncode == 0, proc.stderr
    # in this process both modules are loaded: the loader only returns the module
    import _hashlib

    assert _mc._numpy_random() is np.random
    assert sys.modules["_hashlib"] is _hashlib


def traced_peak(fn, *args):
    """(tracemalloc peak of fn(*args), its result)."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


class TestCsvRoundTrip:
    def test_read_write_lossless(self, tmp_path):
        rng = np.random.default_rng(0)
        grid = np.sort(rng.uniform(0, 1, size=5))
        data = rng.standard_normal((4, 5)) * 10.0 ** rng.integers(-8, 8, size=(4, 5))
        path = tmp_path / "round.csv"
        write_matrix_csv(path, grid, data)
        samples = read_samples_csv(path)
        np.testing.assert_allclose(samples.grid, grid, rtol=1e-15)
        np.testing.assert_allclose(samples.data, data, rtol=1e-15)

    def test_matrix_writer_equals_per_cell_format(self, tmp_path):
        # one % per row writes what "%.17g" per cell writes: signed zeros,
        # subnormals, extremes and integers included
        rng = np.random.default_rng(2)
        data = rng.standard_normal((5, 7)) * 10.0 ** rng.integers(-300, 300, size=(5, 7))
        data[0, :6] = [-0.0, 0.0, 5e-324, -2.5e-310, 1e308, -1.7976931348623157e308]
        data[1, :3] = [1.0, -3.0, 0.1]
        grid = np.array([-0.0, 5e-324, 0.25, 1e308, 1.0, 2.0, 3.0])
        path = tmp_path / "matrix.csv"
        write_matrix_csv(path, grid, data)
        per_cell = "".join(",".join("%.17g" % v for v in row) + "\n" for row in [grid, *data])
        assert path.read_bytes() == per_cell.encode("utf-8")

    def test_parse_equals_per_cell_float(self, tmp_path):
        # short and long digit strings, exponents, signs, padding and CRLF
        rng = np.random.default_rng(1)
        values = rng.standard_normal((6, 4)) * 10.0 ** rng.integers(-300, 300, size=(6, 4))
        cells = [["%.17g" % v for v in row] for row in values]
        cells[1] = ["1", "-0", " 2.5 ", "+3e-2"]
        cells[2] = ["%.3f" % v for v in values[2]]
        lines = [",".join(row) for row in cells]
        lines[0] = "0.1,0.2,0.3,0.4"
        path = tmp_path / "cells.csv"
        path.write_bytes("\r\n".join(lines).encode() + b"\r\n")
        expected = np.array([[float(v) for v in line.split(",")] for line in lines])
        samples = read_samples_csv(path)
        assert samples.grid.tobytes() == expected[0].tobytes()
        assert samples.data.tobytes() == expected[1:].tobytes()

    def test_table_columns_equal_per_cell_format(self, tmp_path):
        # int, float, bool and str columns, as arrays and as lists, against the
        # per-cell rule on each element: FLOAT_FMT for floats, str otherwise
        rng = np.random.default_rng(3)
        floats = rng.standard_normal(5) * 10.0 ** rng.integers(-300, 300, size=5)
        floats[:3] = [0.1, 4.0, -0.0]
        table = {
            "i": np.arange(5) - 2,
            "x": floats,
            "b": np.array([True, False, True, True, False]),
            "s": np.array(["0", "0;1", "2", "a b", ""], dtype=object),
            "mixed": [1, 2.5, True, "z", np.float64(1 / 3)],
            "ints": [0, 10, -3, 7, 2 ** 40],
        }
        expected = ",".join(table) + "\n"
        for r in range(5):
            cells = []
            for values in table.values():
                v = values[r]
                cells.append(cli.FLOAT_FMT % v if isinstance(v, float) else str(v))
            expected += ",".join(cells) + "\n"
        write_table_csv(tmp_path / "t.csv", table)
        assert (tmp_path / "t.csv").read_text() == expected
        assert "\n-2,0.10000000000000001,True,0,1,0\n" in expected
        assert ",4,False,0;1,2.5,10\n" in expected

    def test_blank_lines_skipped(self, tmp_path):
        plain = read_samples_csv(write_toy(tmp_path))
        spaced = read_samples_csv(
            write_toy(tmp_path, "spaced.csv", "\n  \n0.25,0.75\n\n1,0\n\t\n0,1\n\n")
        )
        assert np.array_equal(plain.grid, spaced.grid)
        assert np.array_equal(plain.data, spaced.data)

    def test_text_handling(self, tmp_path, capsys):
        # 2000 rows, so the last line lies well past the reader's first chunk
        rng = np.random.default_rng(4)
        values = rng.standard_normal((2000, 3))
        lines = [",".join("%.17g" % v for v in row) for row in values]
        bodies = {
            "crlf": "\r\n".join(lines) + "\r\n",
            "cr": "\r".join(lines) + "\r",
            "no_final_newline": "\n".join(lines),
            "whitespace_lines": "\n \t\n".join(lines) + "\n  \r\n",
        }
        for name, body in bodies.items():
            path = tmp_path / f"{name}.csv"
            path.write_bytes(body.encode())
            samples = read_samples_csv(path)
            assert samples.grid.tobytes() == values[0].tobytes(), name
            assert samples.data.tobytes() == values[1:].tobytes(), name
        bad = {
            "bom": (b"\xef\xbb\xbf" + "\n".join(lines).encode(), "non-numeric entry"),
            "last_line_not_utf8": ("\n".join(lines).encode() + b"\n0.5,\xff1,2\n",
                                   "cannot read input file"),
        }
        for name, (content, message) in bad.items():
            path = tmp_path / f"{name}.csv"
            path.write_bytes(content)
            code = main(["select", "--config", str(select_config(tmp_path)),
                         "--input", str(path), "--out", str(tmp_path / "out")])
            err = capsys.readouterr().err
            assert code == 2, name
            assert err.count("\n") == 1 and err.startswith("error: ") and message in err, name
            assert not (tmp_path / "out").exists()

    def test_reader_peak_is_about_the_array(self, tmp_path):
        # select-wide's shape; numpy reports its buffers to tracemalloc
        data = np.random.default_rng(5).standard_normal((1000, 256))
        path = tmp_path / "wide.csv"
        write_matrix_csv(path, np.linspace(0.0, 1.0, 256), data)
        peak, samples = traced_peak(read_samples_csv, path)
        assert samples.data.tobytes() == data.tobytes()
        assert peak < 2 * samples.data.nbytes

    def test_table_writer_peak_is_one_block(self, tmp_path):
        # simulate-manyreps' replications.csv shape: 30000 rows, 7 columns
        rng = np.random.default_rng(6)
        rows = 30_000
        table = {"n": np.full(rows, 100), "rep": np.arange(rows),
                 "dim": rng.integers(1, 10, rows), "err_sq": rng.standard_normal(rows),
                 "err_sq_known": rng.standard_normal(rows), "a": rng.uniform(size=rows),
                 "b": rng.standard_normal(rows) * 1e-300}
        first_block = {key: values[:cli.TABLE_BLOCK_ROWS] for key, values in table.items()}
        block_peak, _ = traced_peak(write_table_csv, tmp_path / "block.csv", first_block)
        table_peak, _ = traced_peak(write_table_csv, tmp_path / "table.csv", table)
        assert rows > 7 * cli.TABLE_BLOCK_ROWS
        assert table_peak < 1.5 * block_peak
        assert (tmp_path / "table.csv").read_text().startswith(
            (tmp_path / "block.csv").read_text())

    @pytest.mark.parametrize(
        "body, message",
        [
            ("0.25,0.75\n", "need a grid header plus at least 2 replications"),
            ("0.25,0.75\n1,0\n", "need at least n = 2 replications"),
            ("0.25,0.75\n#1,0\n1,0\n0,1\n", "non-numeric entry"),
            ("0.25,0.75\n1,0 # note\n0,1\n", "non-numeric entry"),
            ("0.25,bananas\n1,0\n0,1\n", "non-numeric entry"),
            ("0.25,0.75\n1,\n0,1\n", "non-numeric entry"),
            ("0.25,0.75\n1,0\n0,1,2\n", "rows must have exactly 2 columns"),
            ("0.25,0.75\n1\n0,1\n", "rows must have exactly 2 columns"),
            ("0.25,0.75\n1,nan\n0,1\n", "data contains non-finite entries"),
            ("0.25,0.75\n1,0\n-inf,1\n", "data contains non-finite entries"),
            ("0.25,inf\n1,0\n0,1\n", "grid contains non-finite entries"),
            # (file, bytes): that file holds the bytes, or is a directory for None
            (("input", b"0.25,0.75\n3.0,\xff4.0\n0,1\n"), "cannot read input file"),
            (("input", None), "cannot read input file"),
            (("config", b"[selection]\ntheta = \xff\n"), "cannot read config file"),
            (("config", None), "cannot read config file"),
        ],
    )
    def test_malformed_file_exits_2_with_one_line(self, tmp_path, capsys, body, message):
        files = {"input": write_toy(tmp_path), "config": select_config(tmp_path)}
        target, content = body if isinstance(body, tuple) else ("input", body.encode())
        files[target].unlink()
        if content is None:
            files[target].mkdir()
        else:
            files[target].write_bytes(content)
        code = main(["select", "--config", str(files["config"]), "--input", str(files["input"]),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert message in err
        assert not (tmp_path / "out").exists()


VALID_CSV = b"0.1,0.5,0.9\n1.5,-2,0.25\n0,1,3e-1\n-1,2.5,4\n"


@given(st.lists(st.tuples(st.integers(0, len(VALID_CSV)), st.integers(0, 3),
                          st.binary(max_size=3)), min_size=1, max_size=3))
@settings(max_examples=200, deadline=None)
def test_byte_mutated_csv_exits_0_or_2(edits):
    # each edit deletes up to 3 bytes at a position and inserts up to 3
    body = VALID_CSV
    for pos, drop, insert in edits:
        body = body[:pos] + insert + body[pos + drop:]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "data.csv").write_bytes(body)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["select", "--config", str(select_config(tmp)),
                         "--input", str(tmp / "data.csv"), "--out", str(tmp / "out")])
    assert code in (0, 2), body
    if code == 2:
        assert err.getvalue().count("\n") == 1 and err.getvalue().startswith("error: ")


def simulate_config(tmp_path, reps=5, diagnostics="false"):
    cfg = tmp_path / "sim.ini"
    cfg.write_text(
        "[basis]\nfamily = fourier\nmax_index = 4\nt_min = 0\nt_max = 1\n"
        "[collection]\nscheme = nested\nd_max = 3\n"
        "[kernel]\nkind = ornstein_uhlenbeck\nlength_scale = 0.5\n"
        "[experiment]\n"
        "p = 4\n"
        "n = 25\n"
        f"reps = {reps}\n"
        "seed = 3\n"
        f"diagnostics = {diagnostics}\n"
        "diagnostics_reps = 150\n"
    )
    return cfg


class TestSimulateCommand:
    def test_rerun_byte_identical(self, tmp_path):
        cfg = simulate_config(tmp_path)
        out1 = tmp_path / "r1"
        out2 = tmp_path / "r2"
        assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["simulate", "--config", str(cfg), "--out", str(out2)]) == 0
        b1 = (out1 / "experiment_report.json").read_bytes()
        b2 = (out2 / "experiment_report.json").read_bytes()
        assert b1 == b2

    def test_seed_flag_changes_report(self, tmp_path):
        cfg = simulate_config(tmp_path)
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["simulate", "--config", str(cfg), "--out", str(out2), "--seed", "99"]) == 0
        assert (out1 / "experiment_report.json").read_bytes() != (
            out2 / "experiment_report.json"
        ).read_bytes()

    def test_n_grid_rows(self, tmp_path):
        cfg = tmp_path / "grid.ini"
        cfg.write_text(
            "[basis]\nfamily = fourier\nmax_index = 4\n"
            "[collection]\nscheme = nested\nd_max = 3\n"
            "[kernel]\nkind = brownian\n"
            "[experiment]\np = 4\nreps = 4\nseed = 1\nn_grid = 20,40,80\n"
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "risk_vs_n.csv").read_text().strip().splitlines()
        assert len(lines) == 4  # header + one row per n
        oracle = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(b <= a + 1e-15 for a, b in zip(oracle, oracle[1:]))

    def test_diagnostics_tables_written(self, tmp_path):
        cfg = simulate_config(tmp_path, diagnostics="true")
        out = tmp_path / "diag"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "variance_factor_mean.csv").exists()
        assert (out / "underestimation_prob.csv").exists()

    def test_replication_stream_written_when_requested(self, tmp_path):
        cfg = tmp_path / "stream.ini"
        cfg.write_text(
            "[basis]\nfamily = fourier\nmax_index = 4\n"
            "[collection]\nscheme = nested\nd_max = 3\n"
            "[kernel]\nkind = ornstein_uhlenbeck\n"
            "[experiment]\np = 4\nn = 25\nreps = 7\nseed = 3\nkeep_replications = true\n"
        )
        out = tmp_path / "stream"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "replications.csv").read_text().strip().splitlines()
        assert len(lines) == 8  # header + one row per replication

    @pytest.mark.parametrize("keep", [True, False])
    def test_replications_written_once(self, tmp_path, keep):
        cfg = tmp_path / "keep.ini"
        cfg.write_text(
            "[basis]\nfamily = fourier\nmax_index = 4\n"
            "[collection]\nscheme = nested\nd_max = 3\n"
            "[kernel]\nkind = ornstein_uhlenbeck\n"
            "[experiment]\np = 4\nreps = 30\nseed = 5\nn_grid = 10,20\n"
            f"keep_replications = {str(keep).lower()}\n"
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "experiment_report.json").read_text())
        assert all(set(run) == {"n", "oracle", "risk_table", "data_driven", "known_penalty"}
                   for run in report["runs"])
        if not keep:
            assert "replications_file" not in report
            assert not (out / "replications.csv").exists()
            return
        assert report["replications_file"] == "replications.csv"
        lines = (out / "replications.csv").read_text().splitlines()
        assert lines[0] == "n,rep,selected,dim,err_sq,selected_known,err_sq_known"
        rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
        assert len(rows) == 60
        for run in report["runs"]:
            mine = [r for r in rows if int(r["n"]) == run["n"]]
            assert [int(r["rep"]) for r in mine] == list(range(30))
            for mode, sel, err in (("data_driven", "selected", "err_sq"),
                                   ("known_penalty", "selected_known", "err_sq_known")):
                counts = {}
                for r in mine:
                    counts[r[sel]] = counts.get(r[sel], 0) + 1
                assert {k: c / 30 for k, c in counts.items()} == run[mode]["selection_freq"]
                mean = np.mean([float(r[err]) for r in mine])
                assert mean == pytest.approx(run[mode]["risk_mean"], rel=1e-14)

    def test_tables_agree_with_report(self, tmp_path):
        # value checks that hold on any numpy/BLAS build, unlike the digests
        cfg = tmp_path / "grid.ini"
        cfg.write_text(
            "[basis]\nfamily = fourier\nmax_index = 4\n"
            "[collection]\nscheme = nested\nd_max = 4\n"
            "[kernel]\nkind = ornstein_uhlenbeck\nlength_scale = 0.5\n"
            "[experiment]\np = 4\nreps = 20\nseed = 2\nn_grid = 15,40\n"
            "diagnostics = true\ndiagnostics_reps = 100\nkeep_replications = true\n"
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "experiment_report.json").read_text())
        runs = {run["n"]: run for run in report["runs"]}
        assert list(runs) == [15, 40]
        modes = ("data_driven", "known_penalty")

        def rows(name):
            lines = (out / name).read_text().splitlines()
            return [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]

        def same(row, expected):
            # floats round-trip exactly through both the report and the CSV
            assert list(row) == list(expected)
            for key, value in expected.items():
                assert (float(row[key]) == value if isinstance(value, float)
                        else row[key] == str(value)), (key, row, expected)

        risk = rows("risk_vs_n.csv")
        assert len(risk) == len(runs)
        for row, (n, run) in zip(risk, runs.items()):
            dd, kn = (run[mode] for mode in modes)
            same(row, {"n": n, "oracle_risk": run["oracle"]["risk"],
                       "risk_mean": dd["risk_mean"], "risk_se": dd["risk_se"],
                       "risk_ratio": dd["risk_ratio"], "known_risk_mean": kn["risk_mean"],
                       "known_risk_ratio": kn["risk_ratio"]})
        freq = {}
        for row in rows("selection_frequencies.csv"):
            key = (int(row["n"]), row["mode"])
            freq.setdefault(key, {})[row["model"]] = float(row["frequency"])
        assert freq == {(n, mode): run[mode]["selection_freq"]
                        for n, run in runs.items() for mode in modes}
        expected = [
            {"n": n, "model": ";".join(str(i) for i in rec["indices"]),
             **{key: rec[key] for key in ("dim", "mean", "target", "se", "z", "flagged")}}
            for n, run in runs.items() for rec in run["diagnostics"]["variance_factor_mean"]
        ]
        vf = rows("variance_factor_mean.csv")
        assert len(vf) == len(expected) == 2 * len(report["collection"])
        for row, want in zip(vf, expected):
            same(row, want)
        under = rows("underestimation_prob.csv")
        assert len(under) == len(runs)
        for row, (n, run) in zip(under, runs.items()):
            rec = run["diagnostics"]["underestimation_prob"]
            same(row, {"n": n, **{key: rec[key] for key in
                                  ("alpha", "estimate", "ci_low", "ci_high", "violations",
                                   "reps")}})
        counts = {}
        for row in rows("replications.csv"):
            for mode, column in zip(modes, ("selected", "selected_known")):
                key = (int(row["n"]), mode)
                counts.setdefault(key, {})
                counts[key][row[column]] = counts[key].get(row[column], 0) + 1
        assert {key: {model: c / 20 for model, c in labels.items()}
                for key, labels in counts.items()} == freq

    @pytest.mark.parametrize(
        "command, body, message",
        [
            ("simulate", "[collection]\nd_max = 99\n", "nested scheme needs 1 <= d_max <= 5"),
            ("simulate", "[experiment]\ndiagnostics = true\ndiagnostics_reps = 50\n",
             "diagnostics_reps must be >= 100"),
            ("simulate", "[experiment]\ndiagnostics = true\nalpha = 2\n",
             "alpha must lie in (0, 1)"),
            ("simulate", "[kernel]\nkind = finite_rank\nindices = 0,1,99\n",
             "indices must lie in 0..4"),
            ("simulate", "[experiment]\np = 0\n", "p must be >= 1"),
            ("simulate", "[kernel]\nkind = finite_rank\n", "needs family and indices"),
            ("simulate", "[kernel]\nkind = brownian\nlength_scale = -1\n",
             "length_scale is read only by kind = ornstein_uhlenbeck"),
            ("simulate", "[kernel]\nkind = ornstein_uhlenbeck\nindices = 0,1\n",
             "indices and psi are read only by kind = finite_rank"),
            ("simulate", "[kernel]\nkind = brownian\npsi_diag = 1,2\n",
             "indices and psi are read only by kind = finite_rank"),
            ("simulate", "[experiment]\nreps = 5%\n", "[experiment] reps"),
            ("simulate", "t_max = inf\n", "domain requires finite t_min < t_max"),
            ("simulate", "[experiment]\ntheta = inf\n", "theta must be strictly positive"),
            # every model would have risk 0, so no risk ratio exists
            ("simulate", "[kernel]\nkind = finite_rank\nindices = 0\npsi_diag = 0\n",
             "covariance is zero on the grid"),
            # min(s, t) on a grid with negative points is not a covariance
            ("simulate", "t_min = -1\n[kernel]\nkind = brownian\n",
             "the kernel's covariance on the grid must be non-negative definite"),
            ("simulate", "[experiment]\nn_grid =\n", "n_grid must list at least one n"),
            ("select", "[selection]\ntheta = inf\n", "theta must be strictly positive"),
            ("select", "[collection]\nd_max = 99\n", "nested scheme needs 1 <= d_max <= 5"),
            # the toy grid is 0.25,0.75; these lines extend the [basis] section
            ("select", "t_min = 0.5\nt_max = 1.0\n", "outside domain [0.5, 1.0]"),
            ("select", "t_min = 0.5\n", "outside domain [0.5, 0.75]"),
            ("select", "t_max = 0.5\n", "outside domain [0.25, 0.5]"),
        ],
    )
    def test_bad_config_exits_2_before_sampling(
        self, tmp_path, capsys, monkeypatch, command, body, message
    ):
        import covsel.simulate

        def no_sampling(*args, **kwargs):
            raise AssertionError("sampling started")

        monkeypatch.setattr(covsel.simulate, "draw_batch", no_sampling)
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[basis]\nfamily = fourier\nmax_index = 4\n" + body)
        args = [command, "--config", str(cfg), "--out", str(tmp_path / "out")]
        if command == "select":
            args += ["--input", str(write_toy(tmp_path))]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert message in err
        assert not (tmp_path / "out").exists()

    def test_config_error_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[experiment]\nreps = not_a_number\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 2

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "no.ini")]) == 2

    @pytest.mark.parametrize("line", ["repz = 9", "threads = 4"])
    def test_unknown_key_exits_2(self, tmp_path, capsys, line):
        cfg = tmp_path / "typo.ini"
        cfg.write_text(f"[experiment]\np = 4\nreps = 5\n{line}\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert line.split(" ")[0] in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("section", ["experimnet", "DEFAULT"])
    def test_unknown_section_exits_2(self, tmp_path, capsys, section):
        cfg = tmp_path / "typo.ini"
        cfg.write_text(f"[{section}]\nreps = 5\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert f"[{section}]" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["select", "simulate"])
def test_shipped_config_keys_known(command):
    load_config(CONFIGS / f"{command}_example.ini", CONFIG_KEYS[command])


@pytest.mark.parametrize(
    "command, section, key, value",
    [
        (command, section, key, "nonesuch" if parse is str else "@@")
        for command, sections in CONFIG_KEYS.items()
        for section, keys in sections.items()
        for key, (parse, _) in keys.items()
        if parse is not str or key in ("family", "scheme", "kind")
    ],
)
def test_every_bad_value_exits_2_with_one_line(tmp_path, capsys, command, section, key, value):
    # typed keys reject a value their parser cannot read; named choices
    # reject an unknown name
    cfg = tmp_path / "bad.ini"
    cfg.write_text(f"[{section}]\n{key} = {value}\n")
    args = [command, "--config", str(cfg), "--out", str(tmp_path / "out")]
    if command == "select":
        args += ["--input", str(write_toy(tmp_path))]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert (f"[{section}] {key} = '@@'" if value == "@@" else "'nonesuch'") in err
    assert not (tmp_path / "out").exists()


def _ini_text(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        return ",".join(str(v) for v in value)
    return str(value)


# simulate fields that parse but lie out of range: (section, key) -> (values,
# the other keys the constructor needs set to read the field, its message)
OUT_OF_RANGE = {
    ("experiment", "reps"): (st.integers(max_value=0), {}, "reps must be >= 1"),
    ("experiment", "n"): (st.integers(max_value=1), {}, "n must be >= 2"),
    ("experiment", "n_grid"): (
        st.lists(st.integers(2, 50), max_size=2).flatmap(
            lambda ns: st.integers(max_value=1).map(lambda bad: [*ns, bad])),
        {}, "every n in n_grid must be >= 2"),
    ("experiment", "p"): (st.integers(max_value=0), {}, "p must be >= 1"),
    ("experiment", "seed"): (st.integers(max_value=-1), {}, "seed must be >= 0"),
    ("experiment", "theta"): (st.floats(max_value=0.0) | st.just(float("nan")), {},
                              "theta must be strictly positive"),
    ("experiment", "alpha"): (st.floats(max_value=0.0) | st.floats(min_value=1.0),
                              {("experiment", "diagnostics"): True}, "alpha must lie in (0, 1)"),
    ("experiment", "diagnostics_reps"): (st.integers(max_value=99),
                                         {("experiment", "diagnostics"): True},
                                         "diagnostics_reps must be >= 100"),
    ("kernel", "length_scale"): (st.floats(max_value=0.0),
                                 {("kernel", "kind"): "ornstein_uhlenbeck"},
                                 "length_scale must be > 0"),
    ("collection", "k"): (st.integers(max_value=0), {("collection", "scheme"): "all_subsets"},
                          "all_subsets scheme needs k >= 1"),
    ("collection", "d_max"): (st.integers(max_value=0) | st.integers(min_value=9),
                              {("collection", "scheme"): "nested"},
                              "nested scheme needs 1 <= d_max <= 8"),
    ("basis", "max_index"): (st.integers(max_value=-1), {}, "max_index must be >= 0"),
    ("basis", "t_min"): (st.floats(min_value=1.0), {}, "domain requires finite t_min < t_max"),
}


# select fields out of range, in the same form; the domain defaults to the
# data grid's range, so TOY_CSV lies inside every drawn one
SELECT_OUT_OF_RANGE = {
    ("selection", "theta"): (st.floats(max_value=0.0) | st.just(float("nan")), {},
                             "theta must be strictly positive"),
    ("collection", "d_max"): (st.integers(max_value=0) | st.integers(min_value=9),
                              {("collection", "scheme"): "nested"},
                              "nested scheme needs 1 <= d_max <= 8"),
    ("collection", "k"): (st.integers(max_value=0), {("collection", "scheme"): "all_subsets"},
                          "all_subsets scheme needs k >= 1"),
    ("basis", "max_index"): (st.integers(max_value=-1), {}, "max_index must be >= 0"),
}


@st.composite
def out_of_range_documents(draw, command="simulate", out_of_range=OUT_OF_RANGE):
    """An INI document setting a drawn subset of CONFIG_KEYS[command] to
    their defaults, then one field of `out_of_range` out of range; returns it
    with the message the field's constructor gives."""
    keys = CONFIG_KEYS[command]
    fields = {(section, key): default for section, entries in keys.items()
              for key, (_, default) in entries.items() if default is not None}
    written = draw(st.lists(st.sampled_from(sorted(fields)), unique=True))
    target = draw(st.sampled_from(sorted(out_of_range)))
    values, needs, message = out_of_range[target]
    doc = {field: fields[field] for field in written}
    doc.update(needs)
    doc[target] = draw(values)
    sections = {}
    for (section, key), value in doc.items():
        sections.setdefault(section, []).append(f"{key} = {_ini_text(value)}")
    return "".join(f"[{s}]\n" + "\n".join(lines) + "\n" for s, lines in sections.items()), message


@given(out_of_range_documents())
@settings(max_examples=150, deadline=None)
def test_out_of_range_config_exits_2_before_sampling(case):
    body, message = case

    def no_sampling(*args, **kwargs):
        raise AssertionError("sampling started")

    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(covsel.simulate, "draw_batch", no_sampling):
        tmp = Path(tmp)
        (tmp / "bad.ini").write_text(body)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["simulate", "--config", str(tmp / "bad.ini"), "--out", str(tmp / "out")])
        assert not (tmp / "out").exists()
    assert code == 2, body
    assert err.getvalue().count("\n") == 1 and err.getvalue().startswith("error: "), body
    assert message in err.getvalue(), body


@given(out_of_range_documents("select", SELECT_OUT_OF_RANGE))
@settings(max_examples=100, deadline=None)
def test_select_out_of_range_config_exits_2_before_fitting(case):
    body, message = case

    def no_fitting(*args, **kwargs):
        raise AssertionError("fitting started")

    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(cli, "fit_all", no_fitting):
        tmp = Path(tmp)
        (tmp / "bad.ini").write_text(body)
        args = ["select", "--config", str(tmp / "bad.ini"), "--input", str(write_toy(tmp)),
                "--out", str(tmp / "out")]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(args)
        assert not (tmp / "out").exists()
    assert code == 2, body
    assert err.getvalue().count("\n") == 1 and err.getvalue().startswith("error: "), body
    assert message in err.getvalue(), body


@pytest.mark.parametrize(
    "body, expected",
    [
        (
            "",
            {
                "alpha": 0.5, "d_max": None, "diagnostics": False, "diagnostics_reps": 1000,
                "family": {"kind": "fourier", "max_index": 7, "t_max": 1.0, "t_min": 0.0},
                "grid": [0.0625, 0.1875, 0.3125, 0.4375, 0.5625, 0.6875, 0.8125, 0.9375],
                "k": 2, "keep_replications": False,
                "kernel": {"kind": "ornstein_uhlenbeck", "length_scale": 1.0},
                "n": 100, "n_grid": None, "reps": 100, "scheme": "nested", "seed": 0,
                "theta": 1.0,
            },
        ),
        (
            "[basis]\nfamily = polynomial\nmax_index = 3\n"
            "[kernel]\nkind = finite_rank\nindices = 0,2\npsi_diag = 2.0,0.5\n"
            "[experiment]\np = 4\nn_grid = 20,40\nreps = 10\nseed = 7\n",
            {
                "alpha": 0.5, "d_max": None, "diagnostics": False, "diagnostics_reps": 1000,
                "family": {"kind": "polynomial", "max_index": 3, "t_max": 1.0, "t_min": 0.0},
                "grid": [0.125, 0.375, 0.625, 0.875],
                "k": 2, "keep_replications": False,
                "kernel": {
                    "family": {"kind": "polynomial", "max_index": 3, "t_max": 1.0,
                               "t_min": 0.0},
                    "indices": [0, 2], "kind": "finite_rank",
                    "psi": [[2.0, 0.0], [0.0, 0.5]],
                },
                "n": 100, "n_grid": [20, 40], "reps": 10, "scheme": "nested", "seed": 7,
                "theta": 1.0,
            },
        ),
    ],
)
def test_simulate_echoes_resolved_config(tmp_path, body, expected):
    cfg = tmp_path / "sim.ini"
    cfg.write_text(body)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    report = json.loads((tmp_path / "out" / "experiment_report.json").read_text())
    assert report["config"] == expected


class TestValidateCommand:
    def test_default_run_passes(self, capsys):
        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("PASS") == 10

    def test_each_check_listed_once(self, capsys):
        main(["validate"])
        out = capsys.readouterr().out
        names = [line.split(" ", 1)[1] for line in out.strip().splitlines()]
        assert len(names) == len(set(names))

    def test_injected_fault_detected(self, capsys, monkeypatch):
        import covsel._reference as reference

        closed_form = reference.true_fourth_moment_trace
        monkeypatch.setattr(reference, "true_fourth_moment_trace",
                            lambda truth, model: -closed_form(truth, model))
        assert main(["validate"]) == 1
        out = capsys.readouterr().out
        assert "FAIL gaussian fourth-moment closed form vs dense" in out
        assert out.count("PASS") == 9

    @pytest.mark.parametrize(
        "flags", [["--config", "missing.ini"], ["--out", "somewhere"], ["--theta", "-5"]]
    )
    def test_takes_no_config_flags(self, flags):
        with pytest.raises(SystemExit) as exc:
            main(["validate", *flags])
        assert exc.value.code == 2
