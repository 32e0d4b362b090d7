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
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import linalg, oracle
from .dictionary import (
    BasisFamily,
    DegenerateCollectionError,
    build_collection,
    check_in_domain,
    collection_index_sets,
    make_model,
)
from .estimator import SampleSet, empirical_cov, fit_all, fourth_moment_cov_dense, project
from .selection import check_theta, select
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
REPORT_VERSION = 4


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

def _bool(raw):
    value = raw.strip().lower()
    if value in ("1", "true", "yes", "on"):
        return True
    if value in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _list_of(cast):
    """Parser of a comma- or semicolon-separated list of `cast` values."""
    return lambda raw: tuple(cast(v) for v in raw.replace(";", ",").split(",") if v.strip())


# CONFIG_KEYS[command][section][key] = (parse, default) for every INI key a
# command accepts; a default of None means unset. Range and cross-field checks
# live in the constructors the values go to, not here.
_BASIS = {"family": (str, "fourier"), "max_index": (int, 7),
          "t_min": (float, None), "t_max": (float, None)}
_SHARED = {
    "collection": {"scheme": (str, "nested"), "d_max": (int, None), "k": (int, 2)},
    "output": {"dir": (str, ".")},
}
CONFIG_KEYS = {
    "select": {
        **_SHARED,
        # t_min / t_max default to the data grid's range
        "basis": _BASIS,
        "data": {"input": (str, None)},
        "selection": {"theta": (float, 1.0)},
    },
    "simulate": {
        **_SHARED,
        "basis": {**_BASIS, "t_min": (float, 0.0), "t_max": (float, 1.0)},
        "kernel": {"kind": (str, "ornstein_uhlenbeck"), "length_scale": (float, None),
                   "indices": (_list_of(int), None), "psi_diag": (_list_of(float), None)},
        "experiment": {
            "p": (int, 8), "n": (int, 100), "n_grid": (_list_of(int), None),
            "reps": (int, 100), "seed": (int, 0), "theta": (float, 1.0),
            "alpha": (float, 0.5), "diagnostics": (_bool, False),
            "diagnostics_reps": (int, 1000), "keep_replications": (_bool, False),
        },
    },
}


def load_config(path, schema):
    """{section: {key: value}} for every key of `schema`: parsed from the INI
    file at `path` where the file sets it, else the schema's default.

    A missing or unparseable file, a [DEFAULT] section, an unknown section or
    key, and a value its parser rejects are ConfigErrors.
    """
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
        if section not in schema:
            raise ConfigError(f"{path}: unknown section [{section}]")
        unknown = sorted(set(parser.options(section)) - set(schema[section]))
        if unknown:
            raise ConfigError(f"{path}: unknown key(s) in [{section}]: {', '.join(unknown)}")
    config = {}
    for section, keys in schema.items():
        config[section] = values = {}
        for key, (parse, default) in keys.items():
            if not parser.has_option(section, key):
                values[key] = default
                continue
            try:
                raw = parser.get(section, key)
                values[key] = parse(raw)
            except configparser.Error as exc:
                raise ConfigError(f"[{section}] {key}: {exc}") from exc
            except ValueError as exc:
                raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}") from exc
    return config


# ---------------------------------------------------------------------------
# select
# ---------------------------------------------------------------------------

def cmd_select(args):
    # imported here: hashlib loads OpenSSL (~3 ms), which simulate never needs
    import hashlib

    config = load_config(args.config, CONFIG_KEYS["select"])
    basis, coll_args = config["basis"], config["collection"]
    input_path = args.input or config["data"]["input"]
    if input_path is None:
        raise ConfigError("missing required config key [data] input")
    out_dir = Path(args.out or config["output"]["dir"])
    theta = args.theta if args.theta is not None else config["selection"]["theta"]

    samples = read_samples_csv(input_path)
    grid = samples.grid
    if grid.size < 2 and basis["t_min"] is None:
        raise ConfigError("single-point grids need an explicit [basis] t_min / t_max")
    t_min = float(grid.min()) if basis["t_min"] is None else basis["t_min"]
    t_max = float(grid.max()) if basis["t_max"] is None else basis["t_max"]
    try:
        family = BasisFamily(basis["family"], t_min, t_max, basis["max_index"])
        check_in_domain(family, grid)
        collection_index_sets(family, **coll_args)
        check_theta(theta)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    collection = build_collection(family, grid, **coll_args)
    s = empirical_cov(samples)
    loss, trace = fit_all(samples, s, collection)
    report = select(collection.models, loss, trace, theta, samples.n)

    out_dir.mkdir(parents=True, exist_ok=True)
    write_matrix_csv(out_dir / "sigma_hat.csv", grid, project(s, report.selected))
    labels = [";".join(str(i) for i in m.indices) for m in collection.models]
    write_table_csv(out_dir / "criterion_table.csv", {"model": labels, **report.table})
    columns = {key: values.tolist() for key, values in report.table.items()}
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
                "family": asdict(family),
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
                {"indices": list(m.indices), **{key: values[j] for key, values in columns.items()}}
                for j, m in enumerate(collection.models)
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
    config = load_config(args.config, CONFIG_KEYS["simulate"])
    basis, kernel, experiment = config["basis"], config["kernel"], config["experiment"]
    out_dir = Path(args.out or config["output"]["dir"])
    if args.theta is not None:
        experiment["theta"] = args.theta
    if args.seed is not None:
        experiment["seed"] = args.seed
    psi_diag = kernel.pop("psi_diag")
    try:
        family = BasisFamily(basis["family"], basis["t_min"], basis["t_max"],
                             basis["max_index"])
        cfg = ExperimentConfig(
            kernel=KernelSpec(family=family,
                              psi=None if psi_diag is None else np.diag(psi_diag), **kernel),
            family=family,
            grid=uniform_grid(experiment.pop("p"), family.t_min, family.t_max),
            **config["collection"],
            **experiment,
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
