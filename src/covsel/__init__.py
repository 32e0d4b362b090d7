"""Covariance model selection on a fixed grid with a data-driven penalty.

Estimates the covariance of a centred process from i.i.d. replications by
projecting the empirical covariance onto basis-induced model subspaces and
picking the model that minimises a penalised empirical loss, where the
penalty is computed entirely from the data.
"""

from .dictionary import (
    BasisFamily,
    DegenerateCollectionError,
    ModelSpec,
    build_collection,
)
from .estimator import SampleSet, empirical_cov, estimate, fit_all
from .oracle import (
    TruthSpec,
    check_underestimation_prob,
    check_variance_factor_mean,
    oracle_model,
    true_fourth_moment_trace,
)
from .selection import SelectionReport, select
from .simulate import (
    ExperimentConfig,
    KernelSpec,
    kernel_to_sigma,
    run_experiment,
    uniform_grid,
)

__version__ = "0.1.0"

__all__ = [
    "BasisFamily",
    "DegenerateCollectionError",
    "ExperimentConfig",
    "KernelSpec",
    "ModelSpec",
    "SampleSet",
    "SelectionReport",
    "TruthSpec",
    "build_collection",
    "check_underestimation_prob",
    "check_variance_factor_mean",
    "empirical_cov",
    "estimate",
    "fit_all",
    "kernel_to_sigma",
    "oracle_model",
    "run_experiment",
    "select",
    "true_fourth_moment_trace",
    "uniform_grid",
]
