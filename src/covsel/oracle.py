"""Ground-truth quantities available only in simulation: the true
fourth-moment trace of each model under a Gaussian truth, the exact risk
decomposition as two columns that do not depend on n, the risk-optimal
model, and checks of the assumptions behind the data-driven penalty on the
plug-in variance factors of `simulate`'s Monte Carlo replications.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from ._mc import wilson_interval
from .linalg import frob_norm_sq, psd_factor
from .selection import decide

# fewest replications the Monte Carlo diagnostics accept
MIN_DIAGNOSTICS_REPS = 100

# A squared bias or fourth-moment trace at most ZERO_RTOL times its scale in
# sigma is the rounding of an exact zero: measured up to 9e-24 (a polynomial
# model of condition number 6e9), while real values reach down to 6e-20.
ZERO_RTOL = 1e-22


@dataclass(frozen=True, eq=False)
class TruthSpec:
    """A known true covariance of a centred Gaussian process on the grid, and
    the factor L (L L^T = sigma) that the Monte Carlo draws through, from the
    eigendecomposition that checks sigma."""

    sigma: np.ndarray = field(repr=False)
    factor: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        sigma = np.asarray(self.sigma, dtype=float)
        object.__setattr__(self, "factor", psd_factor(sigma, "sigma"))
        object.__setattr__(self, "sigma", 0.5 * (sigma + sigma.T))

    @functools.cached_property
    def floors(self):
        """ZERO_RTOL times ||sigma||^2 and (tr sigma)^2 + ||sigma||^2, the
        scales of every model's squared bias and fourth-moment trace."""
        norm_sq = frob_norm_sq(self.sigma)
        return ZERO_RTOL * norm_sq, ZERO_RTOL * (np.trace(self.sigma) ** 2 + norm_sq)


def true_fourth_moment_trace(truth, model):
    """Tr((P kron P) F) for the true fourth-moment covariance F of a Gaussian
    truth, by the Kronecker-free closed form
    (Tr(P sigma))^2 + ||P sigma P||^2 = tr(G)^2 + ||G||^2 with
    G = U^T sigma U for the model's basis U; 0.0 where the truth does not
    reach the model.
    """
    u = model.basis
    g = u.T @ truth.sigma @ u
    trace = float(np.trace(g) ** 2 + frob_norm_sq(g))
    return 0.0 if trace <= truth.floors[1] else trace


def bias_sq(truth, model):
    """Squared bias ||sigma - P sigma P||^2 of a model with basis U.

    Computed as ||R||^2 + ||R U||^2 with R = sigma - U (U^T sigma) = (I - P) sigma:
    the two orthogonal parts (I - P) sigma and P sigma (I - P) of the bias.
    A sum of squares, so never negative; 0.0 where the model contains the
    truth.
    """
    u = model.basis
    resid = truth.sigma - u @ (u.T @ truth.sigma)
    bias = frob_norm_sq(resid) + frob_norm_sq(resid @ u)
    return 0.0 if bias <= truth.floors[0] else bias


def risk_table(truth, models):
    """The two columns of the exact risk that do not depend on n, in the order
    of `models`: (bias, trace), each model's squared bias and true
    fourth-moment trace. At sample size n, E||sigma - P S P||^2 = bias + trace / n.
    """
    return (np.array([bias_sq(truth, model) for model in models]),
            np.array([true_fourth_moment_trace(truth, model) for model in models]))


def oracle_model(models, bias, trace, n):
    """Risk-minimising model at sample size n, and every model's risk
    bias + trace / n, from the `risk_table` columns of `models`.

    Ties break exactly as in selection: smaller dim, then lexicographic
    indices.
    """
    if not models:
        raise ValueError("empty collection")
    risk = bias + trace / n
    return models[decide(risk, models)[0]], risk


def check_variance_factor_mean(models, n, values, true):
    """Monte Carlo check that the plug-in variance factor has mean (n-1)/n
    times the true factor (and hence never overshoots it), from the plug-in
    factor `values[r, j]` of model j in replication r at sample size n and
    model j's true factor `true[j]` (0 if unreached).

    Returns one record per model with the estimated mean, the exact target,
    the standard error, and a z-score; |z| > 4 marks a hard failure. A model
    the truth does not reach has target 0 and z = 0.
    """
    records = []
    for j, model in enumerate(models):
        target = (n - 1) / n * true[j]
        mean = float(values[:, j].mean())
        se = float(values[:, j].std(ddof=1) / np.sqrt(values.shape[0]))
        diff = mean - target
        z = 0.0 if target == 0.0 or diff == 0.0 else (diff / se if se > 0 else np.inf)
        records.append({"indices": model.indices, "dim": model.dim, "mean": mean,
                        "target": target, "se": se, "z": float(z),
                        "flagged": bool(abs(z) > 4.0)})
    return records


def check_underestimation_prob(n, values, true, alpha):
    """Estimate the probability that any model's plug-in variance factor
    `values[r, j]` at sample size n falls below (1 - alpha) times its true
    value `true[j]`.

    Models the truth does not reach never undershoot and are left out.
    Returns the point estimate with a 95% Wilson confidence interval.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    reached = true > 0.0
    bad = np.any(values[:, reached] < (1.0 - alpha) * true[reached], axis=1)
    count, reps = int(bad.sum()), values.shape[0]
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
