"""Ground-truth quantities available only in simulation: the true
fourth-moment covariance of vec(x x^T) for Gaussian draws, per-model true
variance factors, the exact risk decomposition, the risk-optimal model, and
Monte Carlo checks of the assumptions behind the data-driven penalty.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from ._mc import draw_batch, iter_chunks, wilson_interval
from .linalg import (
    DEFAULT_SIZE_GUARD,
    commutation_matrix,
    frob_norm_sq,
    kron,
    psd_factor,
    require_finite,
)
from .selection import at_minimum, tie_break_key

# fewest replications the Monte Carlo diagnostics accept
MIN_DIAGNOSTICS_REPS = 100


@dataclass(frozen=True, eq=False)
class TruthSpec:
    """A known true covariance, with the fourth-moment structure attached.

    For Gaussian truths the covariance of vec(x x^T) has a closed form and
    `gaussian=True` unlocks it; otherwise an explicit dense `phi_dense`
    (p^2 x p^2, symmetric PSD) must be supplied for small p.
    """

    sigma: np.ndarray = field(repr=False)
    gaussian: bool = True
    phi_dense: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        sigma = require_finite(np.asarray(self.sigma, dtype=float), "sigma")
        if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
            raise ValueError("sigma must be square")
        scale = np.max(np.abs(sigma)) if sigma.size else 0.0
        if np.max(np.abs(sigma - sigma.T)) > 1e-10 * max(1.0, scale):
            raise ValueError("sigma must be symmetric")
        sigma = 0.5 * (sigma + sigma.T)
        eigs = np.linalg.eigvalsh(sigma)
        if eigs.size and eigs.min() < -1e-10 * max(1.0, abs(eigs).max()):
            raise ValueError("sigma must be non-negative definite")
        object.__setattr__(self, "sigma", sigma)
        if self.phi_dense is not None:
            phi = require_finite(np.asarray(self.phi_dense, dtype=float), "phi_dense")
            if phi.shape != (sigma.shape[0] ** 2, sigma.shape[0] ** 2):
                raise ValueError("phi_dense must be p^2 x p^2")
            if np.max(np.abs(phi - phi.T)) > 1e-10 * max(1.0, np.max(np.abs(phi))):
                raise ValueError("phi_dense must be symmetric")
            if np.linalg.eigvalsh(phi).min() < -1e-8 * max(1.0, np.max(np.abs(phi))):
                raise ValueError("phi_dense must be non-negative definite")
            object.__setattr__(self, "phi_dense", phi)

    @property
    def p(self):
        return self.sigma.shape[0]

    @property
    def mean_vec(self):
        """vec(sigma), the mean of vec(x x^T)."""
        return self.sigma.ravel(order="F")


def gaussian_fourth_moment_dense(sigma, size_guard=DEFAULT_SIZE_GUARD):
    """Dense covariance of vec(x x^T) for x ~ N(0, sigma): (I + K)(sigma kron sigma).

    Brute-force oracle for the closed form in :func:`true_fourth_moment_trace`;
    guarded to small p.
    """
    sigma = np.asarray(sigma, dtype=float)
    p = sigma.shape[0]
    k = commutation_matrix(p, size_guard=size_guard)
    return (np.eye(p * p) + k) @ kron(sigma, sigma, size_guard=size_guard)


def true_fourth_moment_trace(truth, model):
    """Tr((P kron P) F) for the true fourth-moment covariance F.

    Gaussian truths use the Kronecker-free closed form
    (Tr(P sigma))^2 + ||P sigma P||^2; otherwise the dense `phi_dense` route
    is used (small p only).
    """
    proj = model.projector
    if truth.gaussian:
        ps = proj @ truth.sigma
        return float(np.trace(ps) ** 2 + frob_norm_sq(proj @ truth.sigma @ proj))
    if truth.phi_dense is not None:
        return float(np.sum(kron(proj, proj) * truth.phi_dense))
    raise ValueError("truth is neither Gaussian nor equipped with phi_dense")


def true_variance_factor(truth, model):
    """True per-dimension variance factor Tr((P kron P) F) / dim."""
    return true_fourth_moment_trace(truth, model) / model.dim


@dataclass(frozen=True, eq=False)
class RiskRecord:
    """Exact risk decomposition for one model: bias_sq + variance_term."""

    model: object
    bias_sq: float
    variance_term: float
    risk: float
    variance_factor: float


def true_risk(truth, model, n):
    """Exact mean squared error of the projected sample covariance.

    E||sigma - P S P||^2 = ||sigma - P sigma P||^2 + variance_factor * dim / n.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    proj = model.projector
    psp = proj @ truth.sigma @ proj
    bias_sq = frob_norm_sq(truth.sigma - psp)
    trace = true_fourth_moment_trace(truth, model)
    variance_term = trace / n
    return RiskRecord(
        model=model,
        bias_sq=bias_sq,
        variance_term=variance_term,
        risk=bias_sq + variance_term,
        variance_factor=trace / model.dim,
    )


def risk_table(truth, collection, n):
    return tuple(true_risk(truth, model, n) for model in collection)


def oracle_model(truth, collection, n):
    """Risk-minimising model and the full risk table.

    Ties break exactly as in selection: smaller dim, then lexicographic
    indices.
    """
    table = risk_table(truth, collection, n)
    if not table:
        raise ValueError("empty collection")
    mask = at_minimum([rec.risk for rec in table])
    tied = [rec for rec, is_tied in zip(table, mask) if is_tied]
    tied.sort(key=lambda rec: tie_break_key(rec.model))
    return tied[0].model, table


def _batched_variance_factors(truth, collection, n, reps, seed):
    """Per-replication plug-in variance factors, shape (reps, n_models)."""
    if not truth.gaussian:
        raise ValueError("Monte Carlo checks need a Gaussian truth to sample from")
    factor = psd_factor(truth.sigma)
    projs = np.stack([model.projector for model in collection])
    dims = np.array([model.dim for model in collection])
    chunks = []
    for start, stop in iter_chunks(reps, n, truth.p):
        x = draw_batch(factor, n, seed, start, stop)
        _, proj_norm4, fit_sq = _kernels.model_stats_batch(x, projs)
        chunks.append((proj_norm4 - fit_sq) / dims[None, :])
    return np.concatenate(chunks, axis=0)


def check_variance_factor_mean(truth, collection, n, reps, seed=0):
    """Monte Carlo check that the plug-in variance factor has mean
    (n-1)/n times the true factor (and hence never overshoots it).

    Returns one record per model with the estimated mean, the exact target,
    the standard error, and a z-score; |z| > 4 marks a hard failure.
    """
    if reps < MIN_DIAGNOSTICS_REPS:
        raise ValueError(f"need reps >= {MIN_DIAGNOSTICS_REPS}")
    values = _batched_variance_factors(truth, collection, n, reps, seed)
    records = []
    for j, model in enumerate(collection):
        target = (n - 1) / n * true_variance_factor(truth, model)
        mean = float(values[:, j].mean())
        se = float(values[:, j].std(ddof=1) / np.sqrt(reps))
        diff = mean - target
        if se > 0:
            z = diff / se
        else:
            z = 0.0 if diff == 0.0 else np.inf
        records.append(
            {
                "indices": model.indices,
                "dim": model.dim,
                "mean": mean,
                "target": target,
                "se": se,
                "z": float(z),
                "flagged": bool(abs(z) > 4.0),
            }
        )
    return records


def check_underestimation_prob(truth, collection, n, alpha, reps, seed=0):
    """Estimate the probability that any model's plug-in variance factor
    falls below (1 - alpha) times its true value.

    Returns the point estimate with a 95% Wilson confidence interval.
    """
    if reps < MIN_DIAGNOSTICS_REPS:
        raise ValueError(f"need reps >= {MIN_DIAGNOSTICS_REPS}")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    values = _batched_variance_factors(truth, collection, n, reps, seed)
    targets = np.array([(1.0 - alpha) * true_variance_factor(truth, m) for m in collection])
    bad = np.any(values < targets[None, :], axis=1)
    count = int(bad.sum())
    lo, hi = wilson_interval(count, reps)
    return {
        "estimate": count / reps,
        "ci_low": lo,
        "ci_high": hi,
        "violations": count,
        "reps": reps,
        "alpha": alpha,
        "n": n,
    }


def _in_model_deviation_sq(X, projs, sigma):
    """||P S P - P sigma P||^2 per replication and model, S = (1/n) X^T X;
    X is (reps, n, p) and projs (M, p, p), as for the statistics kernels."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    reps, n, _ = X.shape
    s_all = np.matmul(X.transpose(0, 2, 1), X) / n
    out = np.empty((reps, projs.shape[0]))
    for m, proj in enumerate(projs):
        d = proj @ s_all @ proj - (proj @ sigma @ proj)[None, :, :]
        out[:, m] = np.einsum("rij,rij->r", d, d)
    return out


def check_quadratic_form_tail(truth, model, n, x_grid, reps, seed=0, beta=4.0):
    """Empirical tail of the in-model quadratic deviation against the
    deviation-bound threshold dim + 2 sqrt(dim x) + x, all scaled by the
    true variance factor.

    The statistic per replication is n ||P (S - sigma) P||^2.  Returns a
    per-x table plus a fitted envelope c x^(-beta/2) anchored at the
    smallest x with positive exceedance; `decay_ok` says whether every
    larger x stays below that envelope.
    """
    if reps < 1000:
        raise ValueError("need reps >= 1000")
    if not truth.gaussian:
        raise ValueError("tail check needs a Gaussian truth to sample from")
    x_grid = np.asarray(sorted(float(x) for x in x_grid))
    if x_grid.size == 0 or np.any(x_grid < 0):
        raise ValueError("x_grid must be nonempty and nonnegative")

    factor = psd_factor(truth.sigma)
    projs = model.projector[None, :, :]
    quad = np.empty(reps)
    for start, stop in iter_chunks(reps, n, truth.p):
        x = draw_batch(factor, n, seed, start, stop)
        quad[start:stop] = n * _in_model_deviation_sq(x, projs, truth.sigma)[:, 0]

    vf = true_variance_factor(truth, model)
    dim = model.dim
    rows = []
    for x in x_grid:
        threshold = vf * (dim + 2.0 * np.sqrt(dim * x) + x)
        rows.append(
            {
                "x": float(x),
                "threshold": float(threshold),
                "exceedance": float(np.mean(quad >= threshold)),
            }
        )

    anchor = next((row for row in rows if row["exceedance"] > 0 and row["x"] > 0), None)
    if anchor is None:
        c = 0.0
    else:
        c = anchor["exceedance"] * anchor["x"] ** (beta / 2.0)
    decay_ok = True
    for row in rows:
        bound = c * row["x"] ** (-beta / 2.0) if row["x"] > 0 else np.inf
        row["bound"] = float(bound)
        if anchor is not None and row["x"] > anchor["x"]:
            decay_ok = decay_ok and row["exceedance"] <= bound + 1e-12
    return {"rows": rows, "c": float(c), "beta": float(beta), "decay_ok": bool(decay_ok)}
