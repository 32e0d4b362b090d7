"""The benchmark's traced runs (`perfbench/cli_child.py` with TRACE=1) wrap
covsel functions by name and derive counts from their arguments and results
(`perfbench/tracing.py`). A renamed function shows there as an `absent`
name, and a changed argument or result shape as a span with null `counts`.
This test runs both commands the way the benchmark does, on tiny inputs,
so either breakage fails here.
"""

import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np

from covsel._kernels import block_rows

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"

SELECT_INI = """\
[basis]
family = fourier
max_index = 4
t_min = 0.0
t_max = 1.0
[collection]
scheme = nested
d_max = 5
[selection]
theta = 1.0
"""

SIMULATE_INI = """\
[basis]
family = fourier
max_index = 4
[collection]
scheme = nested
d_max = 3
[kernel]
kind = ornstein_uhlenbeck
length_scale = 0.5
[experiment]
p = 6
n = 20
reps = 5
diagnostics = true
diagnostics_reps = 100
"""

# every model of a histogram collection is columns of one shared table
HISTOGRAM_INI = """\
[basis]
family = histogram
max_index = 3
[collection]
scheme = all_subsets
k = 2
[kernel]
kind = brownian
[experiment]
p = 5
n = 20
reps = 5
diagnostics = true
diagnostics_reps = 100
"""


def traced_run(tmp_path, command, ini, extra=()):
    cfg = tmp_path / f"{command}.ini"
    cfg.write_text(ini)
    info = tmp_path / f"{command}_info.json"
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "cli_child.py"), str(info), "1", command,
         "--config", str(cfg), "--out", str(tmp_path / command), *extra],
        # no bytecode: the run leaves nothing behind under perfbench/
        env={**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(info.read_text())


def test_traced_runs_find_every_function_and_count(tmp_path):
    grid = (0.5 + np.arange(8)) / 8
    rows = [grid, *np.random.default_rng(7).standard_normal((12, 8))]
    data = tmp_path / "samples.csv"
    data.write_text("".join(",".join(repr(float(v)) for v in row) + "\n" for row in rows))

    spans = []
    for name, command, ini, extra in (("select", "select", SELECT_INI, ("--input", str(data))),
                                      ("nested", "simulate", SIMULATE_INI, ()),
                                      ("histogram", "simulate", HISTOGRAM_INI, ())):
        (tmp_path / name).mkdir()
        info = traced_run(tmp_path / name, command, ini, extra)
        assert info["exit"] == 0
        assert info["absent"] == []
        spans += info["spans"]

    wanted = runpy.run_path(str(PERFBENCH / "tracing.py"))["COUNTERS"]
    counted = [span for span in spans if span["name"] in wanted]
    assert {span["name"] for span in counted} == set(wanted)
    assert all(span["counts"] is not None for span in counted), [
        span["name"] for span in counted if span["counts"] is None]


def test_traced_select_parses_its_rows_inside_the_fit(tmp_path):
    # read_samples_csv reads the header only; fit_all takes the rows one row
    # block at a time, each through one counted model_stats_batch span
    p, n = 64, 2100
    assert n // block_rows(p) == 2 and n % block_rows(p)  # three row blocks, the last partial
    grid = (0.5 + np.arange(p)) / p
    rows = [grid, *np.random.default_rng(8).standard_normal((n, p))]
    data = tmp_path / "samples.csv"
    data.write_text("".join(",".join(repr(float(v)) for v in row) + "\n" for row in rows))
    spans = traced_run(tmp_path, "select", SELECT_INI, ("--input", str(data)))["spans"]

    def named(name):
        return [span for span in spans if span["name"] == name]

    (_,), (fit,) = named("cli.read_samples_csv"), named("estimator.fit_all")
    kernels = named("_kernels.model_stats_batch")
    assert len(kernels) == 3
    assert all(span["parent"] == fit["id"] for span in kernels)
    assert [span["counts"]["evals"] for span in kernels] == [5, 5, 5]
