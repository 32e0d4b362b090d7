"""Command-line front end: `select` on a CSV of replications, `simulate` for
seeded Monte Carlo experiments, and `validate` for the brute-force oracle
equivalence suite.

Exit codes: 0 ok, 1 validation failure, 2 input/config error, 3 degenerate
model collection. Configuration comes from an INI file; every flag overrides
its config key, and an unknown section or key is a config error. The input
CSV is self-describing: its header row carries the numeric grid values and
each following row is one replication.
"""

from __future__ import annotations

import argparse
import configparser
import io
import json
import sys
from pathlib import Path

import numpy as np

from . import linalg, oracle
from .dictionary import (
    BasisFamily,
    DegenerateCollectionError,
    build_collection,
    collection_index_sets,
    make_model,
)
from .estimator import SampleSet, empirical_cov, fit_all, fourth_moment_cov_dense, project
from .selection import PenaltyConfig, select
from .simulate import ExperimentConfig, KernelSpec, run_experiment, uniform_grid

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIG = 2
EXIT_DEGENERATE = 3

FLOAT_FMT = "%.17g"

# `simulate` writes one row per replication here, and only here, when
# keep_replications is on; experiment_report.json names the file
REPLICATIONS_FILE = "replications.csv"

# Bumped on any change to the bytes a given seed and config produce; the
# SHA-256 table in tests/test_fingerprint.py is keyed by it.
REPORT_VERSION = 3


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# CSV and JSON plumbing
# ---------------------------------------------------------------------------

def read_samples_csv(path):
    """Read a replication file: header row = grid values, body rows = x_i.

    Blank lines are skipped; every other line is a row of comma-separated
    floats, and `#` is not a comment marker.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"input file not found: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.strip() for line in fh if line.strip()]
    if len(lines) < 2:
        raise ConfigError(f"{path}: need a grid header plus at least 2 replications")
    width = lines[0].count(",") + 1
    if any(line.count(",") + 1 != width for line in lines):
        raise ConfigError(f"{path}: rows must have exactly {width} columns")
    try:
        values = np.loadtxt(io.StringIO("\n".join(lines)), delimiter=",",
                            comments=None, ndmin=2)
    except ValueError as exc:
        raise ConfigError(f"{path}: non-numeric entry ({exc})") from exc
    try:
        return SampleSet(grid=values[0], data=values[1:])
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def write_matrix_csv(path, header_values, matrix):
    """Dense row-major CSV with a numeric header row."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(FLOAT_FMT % v for v in header_values) + "\n")
        for row in np.atleast_2d(matrix):
            fh.write(",".join(FLOAT_FMT % v for v in row) + "\n")


def write_table_csv(path, table):
    """CSV of a table given as {column name: values}, all columns one length.

    Floats are written in FLOAT_FMT and every other value through str; an
    array column is read with tolist(), which gives plain Python values.
    """
    cells = []
    for values in table.values():
        if isinstance(values, np.ndarray):
            values = values.tolist()
        cells.append([FLOAT_FMT % v if isinstance(v, float) else str(v) for v in values])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(table) + "\n")
        fh.writelines(",".join(row) + "\n" for row in zip(*cells))


def _columns(names, rows):
    """{name: column} of row tuples whose fields are in `names` order."""
    return {name: [row[i] for row in rows] for i, name in enumerate(names)}


def dump_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

# Every INI section and key each command knows; anything else is an error.
_SHARED_KEYS = {
    "basis": {"family", "max_index", "t_min", "t_max"},
    "collection": {"scheme", "d_max", "k"},
    "output": {"dir"},
}
KNOWN_KEYS = {
    "select": {**_SHARED_KEYS, "data": {"input"}, "selection": {"theta"}},
    "simulate": {
        **_SHARED_KEYS,
        "kernel": {"kind", "indices", "psi_diag", "length_scale"},
        "experiment": {"p", "n", "n_grid", "reps", "seed", "theta", "alpha",
                       "diagnostics", "diagnostics_reps", "keep_replications"},
    },
}


def _load_ini(path, known):
    parser = configparser.ConfigParser()
    if path is not None:
        if not Path(path).exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            parser.read(path)
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    if parser.defaults():
        raise ConfigError(f"{path}: unknown section [{parser.default_section}]")
    for section in parser.sections():
        if section not in known:
            raise ConfigError(f"{path}: unknown section [{section}]")
        unknown = sorted(set(parser.options(section)) - known[section])
        if unknown:
            raise ConfigError(f"{path}: unknown key(s) in [{section}]: {', '.join(unknown)}")
    return parser


def _get(parser, section, key, cast, default=None, required=False):
    if parser.has_option(section, key):
        raw = parser.get(section, key)
        try:
            return cast(raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}") from exc
    if required:
        raise ConfigError(f"missing required config key [{section}] {key}")
    return default


def _bool(raw):
    value = raw.strip().lower()
    if value in ("1", "true", "yes", "on"):
        return True
    if value in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _int_list(raw):
    return tuple(int(v) for v in raw.replace(";", ",").split(",") if v.strip())


def _float_list(raw):
    return tuple(float(v) for v in raw.replace(";", ",").split(",") if v.strip())


def _basis_family(parser, default_domain):
    kind = _get(parser, "basis", "family", str, default="fourier")
    max_index = _get(parser, "basis", "max_index", int, default=7)
    t_min = _get(parser, "basis", "t_min", float, default=default_domain[0])
    t_max = _get(parser, "basis", "t_max", float, default=default_domain[1])
    try:
        return BasisFamily(kind=kind, t_min=t_min, t_max=t_max, max_index=max_index)
    except ValueError as exc:
        raise ConfigError(f"[basis] {exc}") from exc


def _collection_args(parser):
    scheme = _get(parser, "collection", "scheme", str, default="nested")
    if scheme not in ("nested", "all_subsets"):
        raise ConfigError(f"[collection] unknown scheme {scheme!r}")
    return {
        "scheme": scheme,
        "d_max": _get(parser, "collection", "d_max", int, default=None),
        "k": _get(parser, "collection", "k", int, default=2),
    }


def _kernel_spec(parser, family):
    kind = _get(parser, "kernel", "kind", str, default="ornstein_uhlenbeck")
    try:
        if kind == "finite_rank":
            indices = _get(parser, "kernel", "indices", _int_list, required=True)
            psi_diag = _get(parser, "kernel", "psi_diag", _float_list, default=None)
            psi = np.diag(psi_diag) if psi_diag is not None else None
            if psi is not None and len(psi_diag) != len(indices):
                raise ConfigError("[kernel] psi_diag length must match indices")
            return KernelSpec(kind=kind, family=family, indices=indices, psi=psi)
        return KernelSpec(
            kind=kind,
            length_scale=_get(parser, "kernel", "length_scale", float, default=1.0),
        )
    except ValueError as exc:
        raise ConfigError(f"[kernel] {exc}") from exc


# ---------------------------------------------------------------------------
# select
# ---------------------------------------------------------------------------

def cmd_select(args):
    # imported here: hashlib loads OpenSSL (~3 ms), which simulate never needs
    import hashlib

    parser = _load_ini(args.config, KNOWN_KEYS["select"])
    input_path = args.input or _get(parser, "data", "input", str, required=True)
    out_dir = Path(args.out or _get(parser, "output", "dir", str, default="."))
    theta = args.theta if args.theta is not None else _get(
        parser, "selection", "theta", float, default=1.0
    )

    samples = read_samples_csv(input_path)
    grid = samples.grid
    default_domain = (float(grid.min()), float(grid.max()))
    if grid.size < 2 and not parser.has_option("basis", "t_min"):
        raise ConfigError("single-point grids need an explicit [basis] t_min / t_max")
    family = _basis_family(parser, default_domain)
    coll_args = _collection_args(parser)
    try:
        collection_index_sets(family, **coll_args)
        cfg = PenaltyConfig(theta=theta)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    collection = build_collection(family, grid, **coll_args)
    s = empirical_cov(samples)
    loss, trace = fit_all(samples, s, collection)
    report = select(collection.models, loss, trace, cfg, samples.n)

    out_dir.mkdir(parents=True, exist_ok=True)
    write_matrix_csv(out_dir / "sigma_hat.csv", grid, project(s, report.selected))
    write_table_csv(
        out_dir / "criterion_table.csv",
        {
            "model": [";".join(str(i) for i in row["indices"]) for row in report.rows],
            **{key: [row[key] for row in report.rows]
               for key in ("dim", "loss", "variance_factor", "penalty", "criterion")},
        },
    )
    dump_json(
        out_dir / "selection_report.json",
        {
            "report_version": REPORT_VERSION,
            "config": {
                "input": {
                    "name": Path(input_path).name,
                    "sha256": hashlib.sha256(Path(input_path).read_bytes()).hexdigest(),
                },
                "theta": theta,
                "family": {
                    "kind": family.kind,
                    "t_min": family.t_min,
                    "t_max": family.t_max,
                    "max_index": family.max_index,
                },
                "collection": coll_args,
            },
            "n": samples.n,
            "p": samples.p,
            "grid": grid.tolist(),
            "selected": list(report.selected.indices),
            "selected_dim": report.selected.dim,
            "ties": [list(t) for t in report.ties],
            "max_variance_factor": report.max_variance_factor,
            "criterion_table": [
                {**row, "indices": list(row["indices"])} for row in report.rows
            ],
        },
    )
    print(f"selected model {report.selected.indices} (dim {report.selected.dim:g})")
    print(f"reports written to {out_dir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def cmd_simulate(args):
    parser = _load_ini(args.config, KNOWN_KEYS["simulate"])
    out_dir = Path(args.out or _get(parser, "output", "dir", str, default="."))

    p = _get(parser, "experiment", "p", int, default=8)
    t_min = _get(parser, "basis", "t_min", float, default=0.0)
    t_max = _get(parser, "basis", "t_max", float, default=1.0)
    if not t_min < t_max:
        raise ConfigError("[basis] requires t_min < t_max")
    try:
        grid = uniform_grid(p, t_min, t_max)
    except ValueError as exc:
        raise ConfigError(f"[experiment] {exc}") from exc
    family = _basis_family(parser, (t_min, t_max))
    coll_args = _collection_args(parser)
    kernel = _kernel_spec(parser, family)

    theta = args.theta if args.theta is not None else _get(
        parser, "experiment", "theta", float, default=1.0
    )
    seed = args.seed if args.seed is not None else _get(
        parser, "experiment", "seed", int, default=0
    )
    try:
        cfg = ExperimentConfig(
            kernel=kernel,
            family=family,
            grid=grid,
            n=_get(parser, "experiment", "n", int, default=100),
            theta=theta,
            scheme=coll_args["scheme"],
            d_max=coll_args["d_max"],
            k=coll_args["k"],
            reps=_get(parser, "experiment", "reps", int, default=100),
            seed=seed,
            n_grid=_get(parser, "experiment", "n_grid", _int_list, default=None),
            alpha=_get(parser, "experiment", "alpha", float, default=0.5),
            diagnostics=_get(parser, "experiment", "diagnostics", _bool, default=False),
            diagnostics_reps=_get(parser, "experiment", "diagnostics_reps", int, default=1000),
            keep_replications=_get(
                parser, "experiment", "keep_replications", _bool, default=False
            ),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    report, replications = run_experiment(cfg)

    out_dir.mkdir(parents=True, exist_ok=True)
    payload = {"report_version": REPORT_VERSION, **report}
    if replications is not None:
        payload["replications_file"] = REPLICATIONS_FILE
    dump_json(out_dir / "experiment_report.json", payload)

    risk_rows = []
    freq_rows = []
    vf_rows = []
    under_rows = []
    for run in report["runs"]:
        n, dd, kn = run["n"], run["data_driven"], run["known_penalty"]
        risk_rows.append((n, run["oracle"]["risk"], dd["risk_mean"], dd["risk_se"],
                          dd["risk_ratio"], kn["risk_mean"], kn["risk_ratio"]))
        for mode in ("data_driven", "known_penalty"):
            for model, freq in sorted(run[mode]["selection_freq"].items()):
                freq_rows.append((n, mode, model, freq))
        if "diagnostics" in run:
            for rec in run["diagnostics"]["variance_factor_mean"]:
                vf_rows.append((n, ";".join(str(i) for i in rec["indices"]), rec["dim"],
                                rec["mean"], rec["target"], rec["se"], rec["z"],
                                rec["flagged"]))
            rec = run["diagnostics"]["underestimation_prob"]
            under_rows.append((n, rec["alpha"], rec["estimate"], rec["ci_low"],
                               rec["ci_high"], rec["violations"], rec["reps"]))

    write_table_csv(
        out_dir / "risk_vs_n.csv",
        _columns(("n", "oracle_risk", "risk_mean", "risk_se", "risk_ratio",
                  "known_risk_mean", "known_risk_ratio"), risk_rows),
    )
    write_table_csv(
        out_dir / "selection_frequencies.csv",
        _columns(("n", "mode", "model", "frequency"), freq_rows),
    )
    if vf_rows:
        write_table_csv(
            out_dir / "variance_factor_mean.csv",
            _columns(("n", "model", "dim", "mean", "target", "se", "z", "flagged"), vf_rows),
        )
    if under_rows:
        write_table_csv(
            out_dir / "underestimation_prob.csv",
            _columns(("n", "alpha", "estimate", "ci_low", "ci_high", "violations", "reps"),
                     under_rows),
        )
    if replications is not None:
        write_table_csv(out_dir / REPLICATIONS_FILE, replications)
    print(f"experiment reports written to {out_dir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def _random_projector(rng, p):
    g = rng.standard_normal((p, rng.integers(1, p + 1)))
    proj, _ = linalg.projector_from_design(g)
    return proj


def _check_vec_kron(rng):
    for _ in range(50):
        p = int(rng.integers(2, 4))
        a, b, x = (rng.standard_normal((p, p)) for _ in range(3))
        lhs = linalg.kron(a, b) @ linalg.vec(x)
        rhs = linalg.vec(b @ x @ a.T)
        if np.max(np.abs(lhs - rhs)) > 1e-12 * max(1.0, np.max(np.abs(rhs))):
            return False, "identity (A kron B) vec X = vec(B X A^T) violated"
    return True, ""


def _check_kron_trace(rng):
    for _ in range(50):
        a = rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3))
        lhs = np.trace(linalg.kron(a, b))
        rhs = np.trace(a) * np.trace(b)
        if abs(lhs - rhs) > 1e-10 * max(1.0, abs(rhs)):
            return False, "Tr(A kron B) != Tr A Tr B"
    return True, ""


def _check_commutation(rng):
    for p in (1, 2, 3, 4):
        k = linalg.commutation_matrix(p)
        if np.max(np.abs(k @ k - np.eye(p * p))) > 0:
            return False, f"K^2 != I at p={p}"
        for _ in range(10):
            a = rng.standard_normal((p, p))
            if np.max(np.abs(k @ linalg.vec(a) - linalg.vec(a.T))) > 0:
                return False, f"K vec(A) != vec(A^T) at p={p}"
    return True, ""


def _check_projectors(rng):
    for _ in range(100):
        p = int(rng.integers(1, 5))
        proj = _random_projector(rng, p)
        try:
            linalg.check_projector(proj)
        except ValueError as exc:
            return False, str(exc)
    return True, ""


def _check_trace_range(rng):
    for _ in range(50):
        p = int(rng.integers(2, 5))
        proj = _random_projector(rng, p)
        a = rng.standard_normal((p * p, p * p))
        psi = a @ a.T
        val = float(np.sum(linalg.kron(proj, proj) * psi))
        if val < -1e-9 or val > np.trace(psi) + 1e-9:
            return False, f"projected trace {val} outside [0, Tr]"
    return True, ""


def _check_kron_free_trace(rng):
    family = BasisFamily(kind="fourier", t_min=0.0, t_max=1.0, max_index=6)
    for p in (2, 3, 4):
        grid = uniform_grid(p)
        for n in (5, 10):
            for trial in range(17):
                x = rng.standard_normal((n, p))
                samples = SampleSet(grid=grid, data=x)
                s = empirical_cov(samples)
                model = make_model(family, range(int(rng.integers(1, p + 1))), grid)
                _, (fast,) = fit_all(samples, s, [model])
                phi = fourth_moment_cov_dense(samples)
                dense = float(
                    np.sum(linalg.kron(model.projector, model.projector) * phi)
                )
                if abs(fast - dense) > 1e-8 * max(1.0, abs(dense)):
                    return False, f"kron-free {fast} vs dense {dense}"
    return True, ""


def _check_gaussian_closed_form(rng, sign=1.0):
    for trial in range(100):
        p = int(rng.integers(2, 5))
        a = rng.standard_normal((p, p))
        sigma = a @ a.T
        proj = _random_projector(rng, p)
        closed = float(
            np.trace(proj @ sigma) ** 2
            + sign * linalg.frob_norm_sq(proj @ sigma @ proj)
        )
        phi = oracle.gaussian_fourth_moment_dense(sigma)
        dense = float(np.sum(linalg.kron(proj, proj) * phi))
        if abs(closed - dense) > 1e-10 * max(1.0, abs(dense)):
            return False, f"closed form {closed} vs dense {dense}"
    return True, ""


def _check_loss_expansion(rng):
    family = BasisFamily(kind="fourier", t_min=0.0, t_max=1.0, max_index=4)
    for trial in range(30):
        p = int(rng.integers(2, 5))
        n = int(rng.integers(3, 9))
        grid = uniform_grid(p)
        samples = SampleSet(grid=grid, data=rng.standard_normal((n, p)))
        s = empirical_cov(samples)
        model = make_model(family, range(int(rng.integers(1, p + 1))), grid)
        (loss,), _ = fit_all(samples, s, [model])
        shat = project(s, model)
        direct = np.mean([linalg.frob_norm_sq(np.outer(x, x) - shat) for x in samples.data])
        if abs(loss - direct) > 1e-9 * max(1.0, abs(direct)):
            return False, f"expanded loss {loss} vs direct {direct}"
    return True, ""


def cmd_validate(args):
    rng = np.random.default_rng(20240901)
    sign = -1.0 if args.inject_fault == "gaussian-closed-form-sign" else 1.0
    checks = [
        ("vec-kron identity", lambda: _check_vec_kron(rng)),
        ("kron trace factorisation", lambda: _check_kron_trace(rng)),
        ("commutation defining property", lambda: _check_commutation(rng)),
        ("projector symmetry and idempotence", lambda: _check_projectors(rng)),
        ("projected trace range for PSD matrices", lambda: _check_trace_range(rng)),
        ("kron-free fourth-moment trace vs dense", lambda: _check_kron_free_trace(rng)),
        ("gaussian fourth-moment closed form vs dense",
         lambda: _check_gaussian_closed_form(rng, sign=sign)),
        ("expanded loss vs direct residual sum", lambda: _check_loss_expansion(rng)),
    ]
    all_ok = True
    for name, runner in checks:
        ok, detail = runner()
        all_ok = all_ok and ok
        status = "PASS" if ok else "FAIL"
        suffix = f" ({detail})" if detail and not ok else ""
        print(f"{status} {name}{suffix}")
    return EXIT_OK if all_ok else EXIT_VALIDATION


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="covsel",
        description="Covariance model selection with a data-driven penalty.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None, help="INI configuration file")
    common.add_argument("--out", default=None, help="output directory")
    common.add_argument("--theta", type=float, default=None, help="penalty multiplier minus one")

    p_select = sub.add_parser("select", parents=[common], help="select a covariance model from CSV data")
    p_select.add_argument("--input", default=None, help="input CSV (header = grid values)")
    p_select.set_defaults(func=cmd_select)

    p_sim = sub.add_parser("simulate", parents=[common], help="run a seeded Monte Carlo experiment")
    p_sim.add_argument("--seed", type=int, default=None, help="experiment seed")
    p_sim.set_defaults(func=cmd_simulate)

    p_val = sub.add_parser("validate", help="run the brute-force oracle equivalence suite")
    p_val.add_argument(
        "--inject-fault",
        default=None,
        choices=["gaussian-closed-form-sign"],
        help="testing only: corrupt a check to confirm failures are detected",
    )
    p_val.set_defaults(func=cmd_validate)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DegenerateCollectionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE


if __name__ == "__main__":
    sys.exit(main())
