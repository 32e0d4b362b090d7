"""Workload definitions: the inputs each workload hands to the `covsel` CLI.

Every input is generated here from the benchmark's seed; the program sees
only the files written by `write_inputs`. Every size and config key is set
explicitly, so a change in a program default cannot silently change a
workload. `--threads` and `[experiment] threads` are deliberately left at
their default: at these sizes every Monte Carlo block is a single chunk, so
the thread pool never runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from reference import fourier_design


@dataclass(frozen=True)
class Workload:
    name: str
    command: str          # "select" or "simulate"
    ini: dict             # section -> {key: value}; the whole config


# select-wide: p=256 replications of a finite-rank truth spanned by the first
# TRUTH_RANK fourier functions with geometrically decaying variances, so the
# selected nested model is interior (an OU or Brownian truth would pick the
# largest of the 129 models).
SELECT_P = 256
SELECT_N = 1000
SELECT_MAX_INDEX = 128
TRUTH_RANK = 16
TRUTH_DECAY = 0.8

# Repetition counts are sized so one CLI invocation takes about 2-3 s on a
# 2-core machine, giving several invocations per measured run.
KERNEL_REPS = 50
KERNEL_DIAG_REPS = 200
MANYREPS_REPS = 10_000


WORKLOADS = {
    "select-wide": Workload(
        name="select-wide",
        command="select",
        ini={
            "data": {"input": "samples.csv"},
            "basis": {"family": "fourier", "max_index": SELECT_MAX_INDEX,
                      "t_min": 0.0, "t_max": 1.0},
            "collection": {"scheme": "nested", "d_max": SELECT_MAX_INDEX + 1, "k": 2},
            "selection": {"theta": 1.0},
            "output": {"dir": "out"},
        },
    ),
    "simulate-kernel": Workload(
        name="simulate-kernel",
        command="simulate",
        ini={
            "basis": {"family": "fourier", "max_index": 12, "t_min": 0.0, "t_max": 1.0},
            "collection": {"scheme": "nested", "d_max": 13, "k": 2},
            "kernel": {"kind": "ornstein_uhlenbeck", "length_scale": 0.5},
            "experiment": {"p": 32, "n": 200, "n_grid": "200", "reps": KERNEL_REPS,
                           "theta": 1.0, "alpha": 0.5, "diagnostics": "true",
                           "diagnostics_reps": KERNEL_DIAG_REPS,
                           "keep_replications": "false"},
            "output": {"dir": "out"},
        },
    ),
    "simulate-manyreps": Workload(
        name="simulate-manyreps",
        command="simulate",
        ini={
            "basis": {"family": "histogram", "max_index": 3, "t_min": 0.0, "t_max": 1.0},
            # d_max is read only by the nested scheme
            "collection": {"scheme": "all_subsets", "k": 2},
            "kernel": {"kind": "brownian"},
            "experiment": {"p": 4, "n": 40, "n_grid": "10,20,40", "reps": MANYREPS_REPS,
                           "theta": 1.0, "alpha": 0.5, "diagnostics": "false",
                           "diagnostics_reps": 1000, "keep_replications": "true"},
            "output": {"dir": "out"},
        },
    ),
}


def select_samples(seed):
    """(grid, X) for select-wide: X = Z diag(sqrt(lambda)) G^T, Z ~ N(0, I)."""
    grid = (np.arange(SELECT_P) + 0.5) / SELECT_P
    design = fourier_design(range(TRUTH_RANK), grid)
    lam = TRUTH_DECAY ** np.arange(TRUTH_RANK)
    rng = np.random.default_rng([seed, 0x5E1EC7])
    coef = rng.standard_normal((SELECT_N, TRUTH_RANK)) * np.sqrt(lam)
    return grid, coef @ design.T


def write_csv(path, grid, data):
    # %.17g round-trips every float64, so the checks see exactly the values
    # the program parses
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join("%.17g" % v for v in grid) + "\n")
        for row in data:
            fh.write(",".join("%.17g" % v for v in row) + "\n")


def resolved_ini(workload, seed):
    ini = {section: dict(keys) for section, keys in workload.ini.items()}
    if workload.command == "simulate":
        ini["experiment"]["seed"] = seed
    return ini


def write_inputs(workload, seed, work_dir):
    """Write the config (and for select, the CSV) into work_dir.

    Returns (cli_args, context) where context holds what the checks need.
    """
    ini = resolved_ini(workload, seed)
    with open(work_dir / "config.ini", "w", encoding="utf-8") as fh:
        for section, keys in ini.items():
            fh.write(f"[{section}]\n")
            for key, value in keys.items():
                fh.write(f"{key} = {value}\n")
            fh.write("\n")
    context = {"ini": ini}
    if workload.command == "select":
        grid, data = select_samples(seed)
        write_csv(work_dir / ini["data"]["input"], grid, data)
        context.update(grid=grid, data=data)
    return [workload.command, "--config", "config.ini"], context


def collection_size(ini):
    """Number of models the config asks for (before any rank-0 drop)."""
    coll = ini["collection"]
    if coll["scheme"] == "nested":
        return int(coll["d_max"])
    pool = int(ini["basis"]["max_index"]) + 1
    return sum(math.comb(pool, size) for size in range(1, int(coll["k"]) + 1))


def n_values(ini):
    return [int(v) for v in str(ini["experiment"]["n_grid"]).split(",")]


def model_fits(ini):
    """(replication, model) statistic evaluations the config asks for."""
    models = collection_size(ini)
    if "experiment" not in ini:
        return models
    exp = ini["experiment"]
    per_n = int(exp["reps"]) * models
    if str(exp["diagnostics"]) == "true":
        # two diagnostics checks, each over diagnostics_reps replications
        per_n += 2 * int(exp["diagnostics_reps"]) * models
    return per_n * len(n_values(ini))
