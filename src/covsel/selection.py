"""Penalised model selection.

The penalty of a model is (1 + theta) * trace / n. With the empirical
fourth-moment traces from `estimator.fit_all` this is the data-driven
penalty; passing the true traces gives the known-factor penalty, and
passing zeros gives no penalty at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Criteria within this relative distance of the minimum count as tied.
TIE_RTOL = 1e-12


def check_theta(theta):
    """Raise ValueError unless the penalty multiplier's theta is finite and > 0."""
    if not 0 < theta < np.inf:
        raise ValueError("theta must be strictly positive and finite")


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
    ties: tuple = field(default=())


def select(models, loss, trace, theta, n):
    """Pick the criterion-minimising model.

    Parameters
    ----------
    models : sequence of ModelSpec
    loss, trace : per-model empirical loss and fourth-moment trace, in the
        order of `models` (as returned by `estimator.fit_all`)
    theta : the penalty is (1 + theta) * trace / n; finite and > 0
    n : number of replications behind the fits

    Ties (criteria within TIE_RTOL relative) break toward the smaller dim,
    then the lexicographically smallest index set, so the result does not
    depend on the order of `models`.
    """
    loss = np.asarray(loss, dtype=float).tolist()
    trace = np.asarray(trace, dtype=float).tolist()
    if not models:
        raise ValueError("no models to select from")
    if not len(models) == len(loss) == len(trace):
        raise ValueError("models, loss and trace must have the same length")
    if n < 2:
        raise ValueError("need n >= 2")
    check_theta(theta)

    rows = []
    for model, model_loss, model_trace in zip(models, loss, trace):
        pen = (1.0 + theta) * model_trace / n
        rows.append(
            {
                "indices": model.indices,
                "dim": model.dim,
                "loss": model_loss,
                "variance_factor": model_trace / model.dim,
                "penalty": pen,
                "criterion": model_loss + pen,
            }
        )

    mask = at_minimum([row["criterion"] for row in rows])
    tied = sorted((model for model, is_tied in zip(models, mask) if is_tied), key=tie_break_key)
    return SelectionReport(
        selected=tied[0],
        rows=tuple(rows),
        max_variance_factor=max(row["variance_factor"] for row in rows),
        ties=tuple(model.indices for model in tied),
    )
