"""Command-line front end: `select` on a CSV of replications, `simulate` for
seeded Monte Carlo experiments, and `validate` for the brute-force oracle
equivalence suite.

Exit codes: 0 ok, 1 validation failure, 2 input/config error (an output
that cannot be written and a config too large to allocate among them), 3
degenerate model collection. Configuration comes from an INI file; every
flag overrides its config key, and an unknown section or key is a config
error. The input CSV is self-describing: its header row carries the
numeric grid values and each following row is one replication.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import itertools
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .dictionary import BasisFamily, DegenerateCollectionError, build_collection
from .estimator import SampleSet, estimate, fit_all
from .selection import check_theta, select
from .simulate import ExperimentConfig, KernelSpec, run_experiment, uniform_grid

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIG = 2
EXIT_DEGENERATE = 3

FLOAT_FMT = "%.17g"

# rows write_table_csv formats at a time: its strings never outgrow one block
TABLE_BLOCK_ROWS = 4096
# encoder pieces dump_json joins into one write
JSON_BATCH = 4096

# Bumped on any change to the bytes a given seed and config produce, together
# with re-recording tests/test_fingerprint.py's digest row and tests/golden/.
REPORT_VERSION = 12

# `validate` runs check i of _reference.CHECKS on the key (VALIDATE_SEED, i)
VALIDATE_SEED = 20240901


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# CSV and JSON plumbing
# ---------------------------------------------------------------------------

def _read_file(path, what, read):
    """read(fh) on the UTF-8 text file at `path`; a missing, unreadable or
    non-UTF-8 file is a ConfigError naming `what`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return read(fh)
    except FileNotFoundError:
        raise ConfigError(f"{what} not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc


def _rows(fh, path):
    """The stripped non-blank lines of `fh`, each checked as it passes to have
    the first line's number of columns; at the end, at least two lines."""
    width, count = None, 0
    for line in fh:
        line = line.strip()
        if not line:
            continue
        width = width or line.count(",") + 1
        if line.count(",") + 1 != width:
            raise ConfigError(f"{path}: rows must have exactly {width} columns")
        count += 1
        yield line
    if count < 2:
        raise ConfigError(f"{path}: need a grid header plus at least 2 replications")


def read_samples_csv(path):
    """Read a replication file: header row = grid values, body rows = x_i.

    Blank lines are skipped; every other line is a row of comma-separated
    floats, and `#` is not a comment marker. The file is parsed as it is
    read, one line at a time, so only the array is ever held whole.
    """
    path = Path(path)

    def parse(fh):
        try:
            return np.loadtxt(_rows(fh, path), delimiter=",", comments=None, ndmin=2)
        except UnicodeDecodeError:
            raise  # _read_file reports it as an unreadable file
        except ValueError as exc:
            raise ConfigError(f"{path}: non-numeric entry ({exc})") from exc

    values = _read_file(path, "input file", parse)
    try:
        return SampleSet(grid=values[0], data=values[1:])
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def write_matrix_csv(path, header_values, matrix):
    """Dense row-major CSV with a numeric header row. Each row is formatted
    by one `%` over its plain floats, one row at a time."""
    matrix = np.atleast_2d(matrix)
    row_fmt = ",".join([FLOAT_FMT] * matrix.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(FLOAT_FMT % v for v in header_values) + "\n")
        for row in matrix:
            fh.write(row_fmt % tuple(row.tolist()))


def write_table_csv(path, table):
    """CSV of a table given as {column name: values}, all columns one length.

    Floats are written in FLOAT_FMT and every other value through str; an
    array column is read with tolist(), which gives plain Python values. Rows
    are formatted and written TABLE_BLOCK_ROWS at a time.
    """
    rows = len(next(iter(table.values())))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(table) + "\n")
        for start in range(0, rows, TABLE_BLOCK_ROWS):
            cells = []
            for values in table.values():
                values = values[start:start + TABLE_BLOCK_ROWS]
                if isinstance(values, np.ndarray):
                    values = values.tolist()
                cells.append([FLOAT_FMT % v if isinstance(v, float) else str(v) for v in values])
            fh.writelines(",".join(row) + "\n" for row in zip(*cells))


def _require_finite_json(value):
    """ValueError on a NaN or infinite float anywhere in a JSON payload."""
    if isinstance(value, dict):
        for item in value.items():
            _require_finite_json(item)
    elif isinstance(value, (list, tuple)):
        for item in value:
            _require_finite_json(item)
    elif isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"out of range float value in JSON: {value!r}")


def dump_json(path, payload):
    """Strict JSON, in a directory made as needed: a NaN or infinity raises
    ValueError before the directory or the file is made. The text is the
    bytes of json.dumps(payload, indent=2, sort_keys=True) and a newline,
    written JSON_BATCH pieces at a time, so it is never held whole."""
    _require_finite_json(payload)
    pieces = json.JSONEncoder(indent=2, sort_keys=True, allow_nan=False).iterencode(payload)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for batch in iter(lambda: list(itertools.islice(pieces, JSON_BATCH)), []):
            fh.write("".join(batch))
        fh.write("\n")


@contextlib.contextmanager
def _writing(out_dir):
    """An OSError making `out_dir` or writing a file in it is a ConfigError:
    an --out that names a file, a directory that cannot be made, a full disk."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write {out_dir}: {exc}") from exc


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
        try:
            _read_file(path, "config file", parser.read_file)
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

def _sha256():
    """A new SHA-256 object from CPython's builtin module, or from hashlib
    where the interpreter has none: `import hashlib` maps OpenSSL's
    libcrypto (about 3.5 MB resident) for one digest."""
    try:
        from _sha2 import sha256  # Python 3.12+
    except ImportError:
        try:
            from _sha256 import sha256  # Python 3.10 and 3.11
        except ImportError:
            from hashlib import sha256
    return sha256()


def cmd_select(args):
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
        check_theta(theta)
        collection = build_collection(family, grid, **coll_args)
    except DegenerateCollectionError:
        raise  # exits 3, not 2
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    try:  # before any file: an overflow leaves no output behind
        with np.errstate(over="ignore", invalid="ignore"):
            loss, trace = fit_all(samples, collection)
            report = select(collection, loss, trace, theta, samples.n)
    except FloatingPointError as exc:
        raise ConfigError(
            f"{input_path}: fourth moments of the data or theta overflow float64") from exc
    digest = _sha256()  # by hand: hashlib.file_digest needs Python 3.11 and loads OpenSSL
    with open(input_path, "rb") as fh:
        while block := fh.read(1 << 16):
            digest.update(block)

    columns = {key: values.tolist() for key, values in report.table.items()}
    report_json = {
        "report_version": REPORT_VERSION,
        "config": {
            "input": {"name": Path(input_path).name, "sha256": digest.hexdigest()},
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
            for j, m in enumerate(collection)
        ],
    }
    with _writing(out_dir):
        # every criterion is finite, so every float of the report is too
        dump_json(out_dir / "selection_report.json", report_json)
        write_matrix_csv(out_dir / "sigma_hat.csv", grid, estimate(samples, report.selected))
        labels = [";".join(str(i) for i in m.indices) for m in collection]
        write_table_csv(out_dir / "criterion_table.csv", {"model": labels, **report.table})
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

    overflow = "fourth moments of the kernel's covariance or theta overflow float64"
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            report, tables = run_experiment(cfg)
    except FloatingPointError as exc:  # a criterion overflowed
        raise ConfigError(overflow) from exc
    with _writing(out_dir):
        try:  # before any file: each table float is in the report or in one of its means
            dump_json(out_dir / "experiment_report.json",
                      {"report_version": REPORT_VERSION, **report})
        except ValueError as exc:
            raise ConfigError(overflow) from exc
        for name, table in tables.items():
            write_table_csv(out_dir / name, table)
    print(f"experiment reports written to {out_dir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def cmd_validate(args):
    # imported here: select and simulate never load the brute-force references
    from . import _reference

    all_ok = True
    for i, (name, check) in enumerate(_reference.CHECKS):
        ok, detail = check((VALIDATE_SEED, i))
        all_ok = all_ok and ok
        print(f"PASS {name}" if ok else f"FAIL {name} ({detail})")
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
    except MemoryError as exc:  # numpy names the allocation: a config too large to run
        print(f"error: out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
