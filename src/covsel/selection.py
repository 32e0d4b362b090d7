"""Penalty computation and penalised model selection.

Two penalty modes exist: "data_driven" uses the plug-in variance factor
estimated from the sample (the production path), "known" uses externally
supplied true variance factors (simulation studies only). A diagnostic
"none" mode zeroes the penalty so tests can confirm that penalties actually
change decisions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Criteria within this relative distance of the minimum count as tied.
TIE_RTOL = 1e-12


@dataclass(frozen=True)
class PenaltyConfig:
    """Penalty multiplier: the penalty is (1 + theta) times the variance term."""

    theta: float = 1.0

    def __post_init__(self):
        if not self.theta > 0:
            raise ValueError("theta must be strictly positive")


def penalty_data_driven(fit, cfg, n):
    """Plug-in penalty (1 + theta) * variance_factor * dim / n for one fit."""
    if n < 2:
        raise ValueError("need n >= 2")
    return (1.0 + cfg.theta) * fit.fourth_moment_trace / n


def penalty_known(model, variance_factor, cfg, n):
    """Penalty (1 + theta) * variance_factor * dim / n with a known factor."""
    if variance_factor < 0:
        raise ValueError("variance_factor must be >= 0")
    if n < 2:
        raise ValueError("need n >= 2")
    return (1.0 + cfg.theta) * variance_factor * model.dim / n


def tie_break_key(model):
    """Deterministic tie-break: smaller dim first, then lexicographic indices."""
    return (model.dim, model.indices)


def at_minimum(criteria):
    """Mask of the entries tied at the minimum along the last axis.

    An entry is tied when it lies within TIE_RTOL * max(1, |best|) of the
    minimum `best`. This is the one decision rule: `select`, the Monte Carlo
    loop and the oracle all take the argmin through it.
    """
    criteria = np.asarray(criteria, dtype=float)
    best = criteria.min(axis=-1, keepdims=True)
    return criteria <= best + TIE_RTOL * np.maximum(1.0, np.abs(best))


@dataclass(frozen=True, eq=False)
class SelectionReport:
    """Outcome of penalised selection over a fitted collection.

    `rows` holds one record per model: indices, dim, loss, variance_factor,
    penalty, criterion. `selected` attains the minimal criterion under the
    documented tie-break; `ties` lists every index set at the minimum.
    """

    selected: object
    rows: tuple
    max_variance_factor: float
    theta: float
    mode: str
    ties: tuple = field(default=())


def select(fits, cfg, n, penalty_mode="data_driven", variance_factors=None):
    """Pick the criterion-minimising model from a list of fits.

    Parameters
    ----------
    fits : list of ModelFit
    cfg : PenaltyConfig
    n : number of replications behind the fits
    penalty_mode : "data_driven", "known", or "none" (diagnostic, zero penalty)
    variance_factors : mapping indices-tuple -> true variance factor,
        required for "known" mode.

    Ties (criteria within TIE_RTOL relative) break toward the smaller dim,
    then the lexicographically smallest index set, so the result does not
    depend on the order of `fits`.
    """
    if not fits:
        raise ValueError("no model fits to select from")

    rows = []
    for fit in fits:
        if penalty_mode == "data_driven":
            pen = penalty_data_driven(fit, cfg, n)
        elif penalty_mode == "known":
            if variance_factors is None:
                raise ValueError("known mode requires variance_factors")
            pen = penalty_known(fit.model, variance_factors[fit.model.indices], cfg, n)
        elif penalty_mode == "none":
            pen = 0.0
        else:
            raise ValueError(f"unknown penalty_mode {penalty_mode!r}")
        rows.append(
            {
                "indices": fit.model.indices,
                "dim": fit.model.dim,
                "loss": fit.loss,
                "variance_factor": fit.variance_factor,
                "penalty": pen,
                "criterion": fit.loss + pen,
                "_fit": fit,
            }
        )

    mask = at_minimum([row["criterion"] for row in rows])
    tied = [row for row, is_tied in zip(rows, mask) if is_tied]
    tied.sort(key=lambda row: tie_break_key(row["_fit"].model))
    selected = tied[0]["_fit"].model

    for row in rows:
        del row["_fit"]
    return SelectionReport(
        selected=selected,
        rows=tuple(rows),
        max_variance_factor=max(row["variance_factor"] for row in rows),
        theta=cfg.theta,
        mode=penalty_mode,
        ties=tuple(row["indices"] for row in tied),
    )
