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


def decide(criteria, models):
    """The one decision rule: the criterion-minimising model per row.

    `criteria` holds the models of `models` on its last axis, in any order,
    and any leading shape. An entry is tied when it lies within
    TIE_RTOL * max(1, |best|) of its row's minimum `best`; among the tied
    models the first by `tie_break_key` wins. `select`, the Monte Carlo loop
    and the oracle all take their argmin here.

    Returns (pick, tied): the winner's index along the last axis, with the
    leading shape, and the boolean tie mask, with the shape of `criteria`.
    """
    criteria = np.asarray(criteria, dtype=float)
    best = criteria.min(axis=-1, keepdims=True)
    tied = criteria <= best + TIE_RTOL * np.maximum(1.0, np.abs(best))
    order = np.array(sorted(range(len(models)), key=lambda j: tie_break_key(models[j])))
    return order[np.argmax(tied[..., order], axis=-1)], tied


@dataclass(frozen=True, eq=False)
class SelectionReport:
    """Outcome of penalised selection over a fitted collection.

    `table` maps dim, loss, variance_factor, penalty and criterion to
    arrays over the models, in the order they were given. `selected` attains
    the minimal criterion under the documented tie-break; `ties` lists every
    index set at the minimum, in tie-break order.
    """

    selected: object
    table: dict
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
    loss = np.array(loss, dtype=float)
    trace = np.asarray(trace, dtype=float)
    if not models:
        raise ValueError("no models to select from")
    if not len(models) == len(loss) == len(trace):
        raise ValueError("models, loss and trace must have the same length")
    if n < 2:
        raise ValueError("need n >= 2")
    check_theta(theta)

    dim = np.array([model.dim for model in models])
    penalty = (1.0 + theta) * trace / n
    table = {
        "dim": dim,
        "loss": loss,
        "variance_factor": trace / dim,
        "penalty": penalty,
        "criterion": loss + penalty,
    }
    pick, tied = decide(table["criterion"], models)
    return SelectionReport(
        selected=models[pick],
        table=table,
        max_variance_factor=float(table["variance_factor"].max()),
        ties=tuple(model.indices for model in sorted(
            (model for model, is_tied in zip(models, tied) if is_tied), key=tie_break_key)),
    )
