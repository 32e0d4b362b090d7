"""Named covariance kernels on a grid, and the Monte Carlo experiment driver
tying Gaussian sampling, estimation, selection, and the oracle together.

Sample size n_grid[i] draws its replications once, from the RNG blocks of
key (seed, i) (`_mc.draw_batch`), for both the risk and the diagnostics;
chunks hold whole blocks, so reports are identical for any chunking. What a
run holds per replication is bounded: each chunk's arrays are freed before
the next draw, and replications.csv is kept as each n's own arrays, one
table per n, never concatenated.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import _kernels, oracle
from ._mc import draw_batch, iter_chunks
from .dictionary import BasisFamily, build_collection, build_design, collection_index_sets
from .linalg import frob_norm_sq, psd_eigh, require_finite
from .selection import check_theta, decide, tie_break_key

KERNEL_KINDS = ("brownian", "ornstein_uhlenbeck", "finite_rank")


@dataclass(frozen=True, eq=False)
class KernelSpec:
    """A named covariance kernel.

    * brownian: cov(s, t) = min(s, t)
    * ornstein_uhlenbeck: cov(s, t) = exp(-|s - t| / length_scale), default 1
    * finite_rank: sigma = G Psi G^T for the design G of (family, indices)
      and a user-chosen symmetric PSD Psi, default the identity

    Setting a parameter the kind never reads is an error; `family` is read
    by finite_rank only.
    """

    kind: str
    length_scale: float = None
    family: BasisFamily = None
    indices: tuple = None
    psi: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}; expected one of {KERNEL_KINDS}")
        if self.kind != "ornstein_uhlenbeck" and self.length_scale is not None:
            raise ValueError("length_scale is read only by kind = ornstein_uhlenbeck")
        if self.kind != "finite_rank" and (self.indices is not None or self.psi is not None):
            raise ValueError("indices and psi are read only by kind = finite_rank")
        if self.kind == "ornstein_uhlenbeck":
            if self.length_scale is None:
                object.__setattr__(self, "length_scale", 1.0)
            if not self.length_scale > 0:
                raise ValueError("length_scale must be > 0")
        if self.kind == "finite_rank":
            if self.family is None or self.indices is None:
                raise ValueError("finite_rank kernel needs family and indices")
            k = len(self.indices)
            if k == 0:
                raise ValueError("finite_rank kernel needs at least one index")
            top = self.family.max_index
            if any(not 0 <= i <= top for i in self.indices):
                raise ValueError(f"indices must lie in 0..{top} (the family's max_index)")
            psi = np.eye(k) if self.psi is None else np.asarray(self.psi, dtype=float)
            if psi.shape != (k, k):
                raise ValueError(f"psi must be {k} x {k}")
            psd_eigh(psi, "psi")
            object.__setattr__(self, "psi", psi)
            object.__setattr__(self, "indices", tuple(int(i) for i in self.indices))


def kernel_to_sigma(kernel, grid):
    """Evaluate the kernel pointwise on the grid; the result is symmetric PSD."""
    grid = require_finite(np.asarray(grid, dtype=float), "grid")
    if kernel.kind == "brownian":
        sigma = np.minimum(grid[:, None], grid[None, :])
    elif kernel.kind == "ornstein_uhlenbeck":
        # a tiny length scale overflows |s - t| / length_scale to inf off the
        # diagonal, where exp(-inf) = 0 is the exact limit
        with np.errstate(over="ignore"):
            sigma = np.exp(-np.abs(grid[:, None] - grid[None, :]) / kernel.length_scale)
    else:
        design = build_design(kernel.family, kernel.indices, grid)
        sigma = design @ kernel.psi @ design.T
    sigma = 0.5 * (sigma + sigma.T)
    psd_eigh(sigma, "the kernel's covariance on the grid")
    return sigma


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """Everything one Monte Carlo experiment needs, seed included."""

    kernel: KernelSpec
    family: BasisFamily
    grid: np.ndarray = field(repr=False)
    n: int = 100
    theta: float = 1.0
    scheme: str = "nested"
    d_max: int = None
    k: int = 2
    reps: int = 100
    seed: int = 0
    n_grid: tuple = None
    alpha: float = 0.5
    diagnostics: bool = False
    diagnostics_reps: int = 1000
    keep_replications: bool = False
    # the kernel's covariance on the grid, built and checked once here
    sigma: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.reps < 1:
            raise ValueError("reps must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.n < 2:
            raise ValueError("n must be >= 2")
        check_theta(self.theta)
        if self.n_grid is not None:
            ns = tuple(int(v) for v in self.n_grid)
            if not ns:
                raise ValueError("n_grid must list at least one n")
            if any(v < 2 for v in ns):
                raise ValueError("every n in n_grid must be >= 2")
            object.__setattr__(self, "n_grid", ns)
        if self.diagnostics:
            if self.diagnostics_reps < oracle.MIN_DIAGNOSTICS_REPS:
                raise ValueError(
                    f"diagnostics_reps must be >= {oracle.MIN_DIAGNOSTICS_REPS}"
                )
            if not 0.0 < self.alpha < 1.0:
                raise ValueError("alpha must lie in (0, 1)")
        # fails here, before any sampling, for a collection the family cannot give
        collection_index_sets(self.family, self.scheme, self.d_max, self.k)
        object.__setattr__(self, "grid", np.asarray(self.grid, dtype=float))
        object.__setattr__(self, "sigma", kernel_to_sigma(self.kernel, self.grid))
        # a zero truth, or one whose ||sigma||^2 overflows and so floors every
        # bias and trace (TruthSpec.floors), gives every model risk 0: no ratio
        with np.errstate(over="ignore"):
            norm_sq = frob_norm_sq(self.sigma)
        if not 0 < norm_sq < np.inf:
            raise ValueError("the kernel's covariance is zero on the grid or overflows float64")


def uniform_grid(p, t_min=0.0, t_max=1.0):
    """Midpoints of p equal cells of [t_min, t_max]; avoids domain endpoints."""
    if p < 1:
        raise ValueError("p must be >= 1")
    return t_min + (np.arange(p) + 0.5) * (t_max - t_min) / p


def _run_block(truth, models, chains, bias, trace, cfg, n, i_n):
    """Monte Carlo block for the i_n-th sample size n, reading the n-free
    `chains` and `risk_table` columns of `models`: one draw of max(reps,
    diagnostics_reps) replications of key (seed, i_n).

    Returns (selected, err_sq, plug_in): the selected model's index and
    squared error per replication, each (2, reps), under the data-driven (row
    0) and known-factor (row 1) penalty, and every model's data-driven trace
    in the first diagnostics_reps replications ((0, M) without diagnostics).
    """
    plug_in = np.empty((cfg.diagnostics_reps if cfg.diagnostics else 0, len(models)))
    total = max(cfg.reps, len(plug_in))
    selected = np.empty((2, total), dtype=np.int64)
    err = np.empty((2, total))
    chunks = list(iter_chunks(total, n, truth.p))
    # every chunk is drawn into one buffer, sized by the first (largest) chunk
    x = np.empty((chunks[0][1], n, truth.p))
    for start, stop in chunks:
        _select_chunk(draw_batch(truth.factor, n, (cfg.seed, i_n), start, stop, x), models,
                      chains, truth.sigma, bias, trace, cfg.theta,
                      selected[:, start:stop], err[:, start:stop], plug_in[start:stop])
    return selected[:, :cfg.reps], err[:, :cfg.reps], plug_in


def _select_chunk(x, models, chains, sigma, bias, trace, theta, selected, err, plug_in):
    """One chunk x of `_run_block`, written into its slices of selected, err
    and plug_in; every per-chunk array is freed on return, before the next
    draw. The criterion loss + (1 + theta) traces / n is formed in place,
    each operation the plain expression's, so it keeps its bytes."""
    norm4, proj_norm4, fit_sq, dev_sq = _kernels.deviation_batch(x, *chains, sigma)
    traces = np.stack([proj_norm4 - fit_sq, np.broadcast_to(trace, fit_sq.shape)])
    criteria = np.multiply(traces, 1.0 + theta)
    criteria /= x.shape[1]
    criteria += norm4[:, None] - fit_sq
    pick, _ = decide(criteria, models)
    selected[...] = pick
    err[...] = bias[pick] + dev_sq[np.arange(len(x)), pick]
    plug_in[...] = traces[0, :len(plug_in)]


def _mode_summary(labels, sel, err, sel_dims, oracle_risk, reps):
    mean_err = float(err.mean())
    se = float(err.std(ddof=1) / np.sqrt(reps)) if reps > 1 else 0.0
    counts = np.bincount(sel, minlength=len(labels)).tolist()
    return {
        "risk_mean": mean_err,
        "risk_se": se,
        "risk_ratio": mean_err / oracle_risk,
        "risk_ratio_se": se / oracle_risk,
        "mean_selected_dim": float(sel_dims.mean()),
        "selection_freq": {labels[j]: count / reps for j, count in enumerate(counts) if count},
    }


def run_experiment(cfg):
    """Run the full pipeline: sample, fit all models, select, compare to the
    risk-optimal model; repeat over cfg.reps replications (and over
    cfg.n_grid when present).

    Returns (report, tables). The report is a JSON-ready dict embedding the
    resolved configuration and holds no per-replication data. `tables` maps
    each CSV file name to its {column: values} table; cfg.diagnostics adds
    two, and cfg.keep_replications adds replications.csv, which the report
    names, as a list of one table per n in turn, each with one row per
    replication and the same columns (`cli.write_table_csv` writes them under
    one header). Models are labelled "i;j". Identical configs give identical
    results.
    """
    truth = oracle.TruthSpec(sigma=cfg.sigma)
    models = build_collection(cfg.family, cfg.grid, scheme=cfg.scheme, d_max=cfg.d_max, k=cfg.k)
    # models stay in build order; the report lists them in tie-break order
    order = sorted(range(len(models)), key=lambda j: tie_break_key(models[j]))
    labels = np.array([";".join(str(i) for i in m.indices) for m in models], dtype=object)
    dims = np.array([m.dim for m in models])
    # the constants of every n: the models' chains and the truth's risk columns
    chains = _kernels.chains(models)
    bias, trace = oracle.risk_table(truth, models)

    runs = []
    replications = []  # one table per n, sharing one column of replication numbers
    rep = np.arange(cfg.reps)
    rows = {name: [] for name in ("risk_vs_n.csv", "selection_frequencies.csv",
                                  "variance_factor_mean.csv", "underestimation_prob.csv")}
    n_values = cfg.n_grid if cfg.n_grid is not None else (cfg.n,)
    for i_n, n in enumerate(n_values):
        best_model, risk = oracle.oracle_model(models, bias, trace, n)
        oracle_risk = float(risk.min())

        selected, err, plug_in = _run_block(truth, models, chains, bias, trace, cfg, n, i_n)
        sel_dims = dims[selected]
        dd, kn = (_mode_summary(labels, selected[i], err[i], sel_dims[i], oracle_risk, cfg.reps)
                  for i in range(2))

        run = {
            "n": int(n),
            "oracle": {"indices": list(best_model.indices), "risk": oracle_risk},
            "risk_table": [
                {"indices": list(m.indices), "dim": m.dim, "bias_sq": b, "variance_term": t / n,
                 "risk": r, "variance_factor": t / m.dim}
                for m, b, t, r in zip(models, bias.tolist(), trace.tolist(), risk.tolist())
            ],
            "data_driven": dd, "known_penalty": kn,
        }
        rows["risk_vs_n.csv"].append({
            "n": int(n), "oracle_risk": oracle_risk, "risk_mean": dd["risk_mean"],
            "risk_se": dd["risk_se"], "risk_ratio": dd["risk_ratio"],
            "known_risk_mean": kn["risk_mean"], "known_risk_ratio": kn["risk_ratio"]})
        rows["selection_frequencies.csv"] += [
            {"n": int(n), "mode": mode, "model": model, "frequency": freq}
            for mode, summary in (("data_driven", dd), ("known_penalty", kn))
            for model, freq in sorted(summary["selection_freq"].items())
        ]
        if cfg.keep_replications:
            replications.append({
                "n": np.full(cfg.reps, int(n)),
                "rep": rep,
                "selected": labels[selected[0]],
                "dim": dims[selected[0]],
                "err_sq": err[0],
                "selected_known": labels[selected[1]],
                "err_sq_known": err[1],
            })
        if cfg.diagnostics:
            values, true = plug_in / dims, trace / dims
            vf = oracle.check_variance_factor_mean(models, n, values, true)
            under = oracle.check_underestimation_prob(n, values, true, cfg.alpha)
            run["diagnostics"] = {"variance_factor_mean": vf, "underestimation_prob": under}
            rows["variance_factor_mean.csv"] += [
                {"n": int(n), "model": ";".join(str(i) for i in rec["indices"]),
                 **{key: rec[key] for key in ("dim", "mean", "target", "se", "z", "flagged")}}
                for rec in vf
            ]
            rows["underestimation_prob.csv"].append({"n": int(n), **{
                key: under[key] for key in ("alpha", "estimate", "ci_low", "ci_high",
                                            "violations", "reps")}})
        runs.append(run)
        # what this n's tables do not keep is freed before the next n draws
        del selected, err, sel_dims, plug_in

    report = {
        "config": _describe_config(cfg),
        "collection": [
            {"indices": list(models[j].indices), "rank": models[j].rank, "dim": models[j].dim}
            for j in order
        ],
        "sigma": cfg.sigma.tolist(),
        "runs": runs,
    }
    tables = {name: {key: [row[key] for row in table] for key in table[0]}
              for name, table in rows.items() if table}
    if replications:
        tables["replications.csv"] = replications
        report["replications_file"] = "replications.csv"
    return report, tables


def _describe_config(cfg):
    """The resolved config: every ExperimentConfig init field, with the
    kernel reduced to the parameters its kind reads."""
    kernel = {"kind": cfg.kernel.kind}
    if cfg.kernel.kind == "ornstein_uhlenbeck":
        kernel["length_scale"] = cfg.kernel.length_scale
    if cfg.kernel.kind == "finite_rank":
        kernel.update(indices=cfg.kernel.indices, psi=cfg.kernel.psi.tolist(),
                      family=asdict(cfg.kernel.family))
    return {**{f.name: getattr(cfg, f.name) for f in fields(cfg) if f.init},
            "kernel": kernel, "family": asdict(cfg.family), "grid": cfg.grid.tolist()}
