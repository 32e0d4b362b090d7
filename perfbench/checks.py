"""Output checks made apart from the program: every expected value is
recomputed here with plain numpy from the workload's inputs (see
reference.py), never by calling covsel.

Each check raises CheckFailed with the first discrepancy it finds.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json

import numpy as np

import reference
from workloads import n_values

# Same relative tie tolerance the program documents for its argmin.
TIE_RTOL = 1e-12
# Recomputed values agree with the program's to rounding; 1e-9 of the scale
# leaves room for a different summation order and nothing more.
RTOL = 1e-9


class CheckFailed(Exception):
    pass


def _close(label, got, want, scale):
    if not abs(got - want) <= RTOL * scale:
        raise CheckFailed(f"{label}: program {got!r}, recomputed {want!r}")


def _key(indices):
    return ";".join(str(i) for i in indices)


def _argmin(values, models):
    """Index set minimising `values` (dict key -> value) under the program's
    tie-break: within TIE_RTOL of the minimum, smaller dim, then indices."""
    best = min(values.values())
    tol = TIE_RTOL * max(1.0, abs(best))
    tied = [models[k] for k, v in values.items() if v <= best + tol]
    return min(tied, key=lambda m: (m["dim"], m["indices"]))["indices"], tied


def _read_table(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def output_digest(out_dir):
    """sha256 over every output file name and content, in name order."""
    digest = hashlib.sha256()
    for path in sorted(p for p in out_dir.iterdir() if p.is_file()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# select
# ---------------------------------------------------------------------------

def check_select(out_dir, context):
    ini, grid, x = context["ini"], context["grid"], context["data"]
    n, p = x.shape
    theta = float(ini["selection"]["theta"])
    d_max = int(ini["collection"]["d_max"])
    report = json.loads((out_dir / "selection_report.json").read_text(encoding="utf-8"))
    if report["n"] != n or report["p"] != p or not np.array_equal(report["grid"], grid):
        raise CheckFailed("selection_report.json: n, p or grid differ from the input")

    # Nested model m spans the first m design columns, so the first m columns
    # of Q (QR of the full design) are an orthonormal basis of it and
    # ||P S P||^2 = ||Q_m^T S Q_m||^2, ||P x||^2 = ||Q_m^T x||^2.
    design = reference.design(ini["basis"], range(d_max), grid)
    q, r = np.linalg.qr(design)
    if np.min(np.abs(np.diag(r))) <= 1e-10 * np.max(np.abs(np.diag(r))):
        raise CheckFailed("reference design is rank deficient; nested bases need care")
    w = x @ q
    gram = w.T @ w / n
    norm4 = float(np.mean(np.einsum("ij,ij->i", x, x) ** 2))
    proj_norm4 = np.mean(np.cumsum(w * w, axis=1) ** 2, axis=0)

    rows = _read_table(out_dir / "criterion_table.csv")
    if [row["model"] for row in rows] != [_key(range(m)) for m in range(1, d_max + 1)]:
        raise CheckFailed("criterion_table.csv does not list the nested collection in order")
    models, criteria = {}, {}
    for m, row in enumerate(rows, start=1):
        fit_sq = float(np.sum(gram[:m, :m] ** 2))
        trace = float(proj_norm4[m - 1]) - fit_sq
        loss, pen = norm4 - fit_sq, (1.0 + theta) * trace / n
        label = f"criterion_table.csv model dim {m * m}"
        if float(row["dim"]) != m * m:
            raise CheckFailed(f"{label}: dim {row['dim']}")
        _close(f"{label} loss", float(row["loss"]), loss, norm4)
        _close(f"{label} penalty", float(row["penalty"]), pen, norm4 / n)
        _close(f"{label} variance_factor", float(row["variance_factor"]), trace / (m * m),
               norm4 / (m * m))
        _close(f"{label} criterion", float(row["criterion"]), loss + pen, norm4)
        models[row["model"]] = {"indices": tuple(range(m)), "dim": m * m}
        criteria[row["model"]] = float(row["criterion"])

    # The argmin is taken over the program's criteria (which match the
    # recomputed ones above), so rounding cannot move the tie set.
    want, tied = _argmin(criteria, models)
    selected = tuple(report["selected"])
    if selected != want:
        raise CheckFailed(f"selected {_key(selected)}, criterion minimum is {_key(want)}")
    if sorted(map(tuple, report["ties"])) != sorted(m["indices"] for m in tied):
        raise CheckFailed("selection_report.json ties differ from the models at the minimum")
    m_sel = len(selected)
    if report["selected_dim"] != m_sel * m_sel:
        raise CheckFailed(f"selected_dim {report['selected_dim']} for rank {m_sel}")

    sigma_file = np.loadtxt(out_dir / "sigma_hat.csv", delimiter=",", ndmin=2)
    if not np.array_equal(sigma_file[0], grid):
        raise CheckFailed("sigma_hat.csv header does not echo the grid")
    sigma_hat = sigma_file[1:]
    q_sel = q[:, :m_sel]
    psp = q_sel @ gram[:m_sel, :m_sel] @ q_sel.T
    scale = float(np.max(np.abs(psp)))
    if sigma_hat.shape != (p, p) or np.max(np.abs(sigma_hat - psp)) > RTOL * scale:
        raise CheckFailed("sigma_hat.csv differs from P S P of the selected model")
    if np.max(np.abs(sigma_hat - sigma_hat.T)) > 1e-12 * scale:
        raise CheckFailed("sigma_hat.csv is not symmetric")
    if np.linalg.eigvalsh(sigma_hat).min() < -RTOL * scale:
        raise CheckFailed("sigma_hat.csv is not positive semi-definite")

    # The program's loss uses an expansion; the direct residual sum does not.
    direct = 0.0
    for start in range(0, n, 50):
        block = x[start:start + 50]
        resid = block[:, :, None] * block[:, None, :] - sigma_hat[None]
        direct += float(np.sum(resid * resid))
    _close("selected model: reported loss vs direct residual sum",
           float(rows[m_sel - 1]["loss"]), direct / n, norm4)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _collection(ini):
    coll, top = ini["collection"], int(ini["basis"]["max_index"])
    if coll["scheme"] == "nested":
        return [tuple(range(d)) for d in range(1, int(coll["d_max"]) + 1)]
    return [combo for size in range(1, int(coll["k"]) + 1)
            for combo in itertools.combinations(range(top + 1), size)]


def _reference_models(ini, grid):
    """indices key -> {indices, dim, basis} for the configured collection."""
    models = {}
    for indices in _collection(ini):
        basis = reference.orthonormal_basis(reference.design(ini["basis"], indices, grid))
        models[_key(indices)] = {"indices": indices, "dim": basis.shape[1] ** 2,
                                 "basis": basis}
    return models


def check_simulate(out_dir, context):
    ini = context["ini"]
    exp = ini["experiment"]
    report = json.loads((out_dir / "experiment_report.json").read_text(encoding="utf-8"))
    p = int(exp["p"])
    grid = reference.midpoint_grid(p, float(ini["basis"]["t_min"]), float(ini["basis"]["t_max"]))
    sigma = reference.kernel_sigma(ini["kernel"], grid)
    if np.max(np.abs(np.asarray(report["sigma"]) - sigma)) > 1e-12 * np.max(np.abs(sigma)):
        raise CheckFailed("report sigma differs from the kernel formula on the grid")
    scale = float(np.trace(sigma) ** 2 + np.sum(sigma * sigma))

    models = _reference_models(ini, grid)
    listed = {_key(m["indices"]): m for m in report["collection"]}
    if set(listed) != set(models):
        raise CheckFailed("report collection differs from the configured one")
    for key, m in listed.items():
        if m["dim"] != models[key]["dim"]:
            raise CheckFailed(f"collection model {key}: dim {m['dim']}")

    ns = n_values(ini)
    reps = int(exp["reps"])
    if [run["n"] for run in report["runs"]] != ns:
        raise CheckFailed("report runs do not follow n_grid")
    for run in report["runs"]:
        n = run["n"]
        risks = {}
        for row in run["risk_table"]:
            key = _key(row["indices"])
            bias_sq, variance, trace = reference.gaussian_risk(sigma, models[key]["basis"], n)
            label = f"n={n} risk_table {key}"
            _close(f"{label} bias_sq", row["bias_sq"], bias_sq, scale)
            _close(f"{label} variance_term", row["variance_term"], variance, scale)
            _close(f"{label} risk", row["risk"], bias_sq + variance, scale)
            _close(f"{label} variance_factor", row["variance_factor"],
                   trace / models[key]["dim"], scale)
            risks[key] = row["risk"]
        if set(risks) != set(models):
            raise CheckFailed(f"n={n}: risk table does not cover the collection")
        want, _ = _argmin(risks, models)
        if tuple(run["oracle"]["indices"]) != want:
            raise CheckFailed(f"n={n}: oracle {run['oracle']['indices']}, risk minimum {_key(want)}")
        if run["oracle"]["risk"] != min(risks.values()):
            raise CheckFailed(f"n={n}: oracle risk is not the minimum risk")
        for mode in ("data_driven", "known_penalty"):
            freq = run[mode]["selection_freq"]
            if not set(freq) <= set(models):
                raise CheckFailed(f"n={n} {mode}: selects a model outside the collection")
            if abs(sum(freq.values()) - 1.0) > 1e-12:
                raise CheckFailed(f"n={n} {mode}: selection frequencies sum to {sum(freq.values())}")
            counts = [f * reps for f in freq.values()]
            if any(abs(c - round(c)) > 1e-6 for c in counts):
                raise CheckFailed(f"n={n} {mode}: frequencies are not counts over {reps} reps")

    freq_rows = _read_table(out_dir / "selection_frequencies.csv")
    csv_freq = {(int(r["n"]), r["mode"], r["model"]): float(r["frequency"]) for r in freq_rows}
    json_freq = {(run["n"], mode, key): f for run in report["runs"]
                 for mode in ("data_driven", "known_penalty")
                 for key, f in run[mode]["selection_freq"].items()}
    if csv_freq != json_freq:
        raise CheckFailed("selection_frequencies.csv differs from experiment_report.json")

    if str(exp["keep_replications"]) == "true":
        _check_replications(out_dir, report, reps)
    if str(exp["diagnostics"]) == "true":
        _check_diagnostics(report, models, sigma, exp, scale)


def _check_replications(out_dir, report, reps):
    """replications.csv reproduces each run's frequencies and risk_mean."""
    rows = _read_table(out_dir / "replications.csv")
    for run in report["runs"]:
        n = run["n"]
        mine = [r for r in rows if int(r["n"]) == n]
        if [int(r["rep"]) for r in mine] != list(range(reps)):
            raise CheckFailed(f"n={n}: replications.csv does not hold reps 0..{reps - 1}")
        for mode, sel_col, err_col in (("data_driven", "selected", "err_sq"),
                                       ("known_penalty", "selected_known", "err_sq_known")):
            picks = {}
            for r in mine:
                picks[r[sel_col]] = picks.get(r[sel_col], 0) + 1
            freq = {key: count / reps for key, count in picks.items()}
            if freq != run[mode]["selection_freq"]:
                raise CheckFailed(f"n={n} {mode}: replications.csv frequencies differ")
            err = np.array([float(r[err_col]) for r in mine])
            _close(f"n={n} {mode}: replications.csv mean err_sq vs risk_mean",
                   run[mode]["risk_mean"], float(err.mean()), abs(float(err.mean())))


def _check_diagnostics(report, models, sigma, exp, scale):
    diag_reps, alpha = int(exp["diagnostics_reps"]), float(exp["alpha"])
    for run in report["runs"]:
        n = run["n"]
        diag = run["diagnostics"]
        records = diag["variance_factor_mean"]
        if {_key(r["indices"]) for r in records} != set(models):
            raise CheckFailed(f"n={n}: variance_factor_mean does not cover the collection")
        for rec in records:
            key = _key(rec["indices"])
            _, _, trace = reference.gaussian_risk(sigma, models[key]["basis"], n)
            _close(f"n={n} variance_factor_mean {key} target", rec["target"],
                   (n - 1) / n * trace / models[key]["dim"], scale)
            if rec["flagged"]:
                raise CheckFailed(f"n={n} variance_factor_mean {key} flagged (z={rec['z']})")
        under = diag["underestimation_prob"]
        if under["reps"] != diag_reps or under["alpha"] != alpha:
            raise CheckFailed(f"n={n}: underestimation_prob reps or alpha differ from the config")
        if under["estimate"] != under["violations"] / diag_reps:
            raise CheckFailed(f"n={n}: underestimation estimate is not violations / reps")
        lo, hi = reference.wilson_interval(under["violations"], diag_reps)
        if abs(under["ci_low"] - lo) > 1e-12 or abs(under["ci_high"] - hi) > 1e-12:
            raise CheckFailed(f"n={n}: underestimation interval is not the Wilson interval")


def check(workload, out_dir, context):
    if workload.command == "select":
        check_select(out_dir, context)
    else:
        check_simulate(out_dir, context)
