"""Spans around calls into covsel's public functions, installed from outside
the package.

Each traced function is replaced by one wrapper at every name a caller can
look it up by: its home module and every covsel module that imported it
(`simulate.draw_batch` and `oracle.draw_batch` are such imported names).
Spans are kept in memory with their parent's id and written out by the
caller when the command ends. The CLI runs these workloads on one thread
(every Monte Carlo block is a single chunk), so one stack gives parents.

A function that no longer exists is listed in `absent` instead of failing,
so its layer metrics read as absent.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

import numpy as np

# span name -> (home module, attribute)
FUNCTIONS = {
    "cli.read_samples_csv": ("covsel.cli", "read_samples_csv"),
    "cli.write_matrix_csv": ("covsel.cli", "write_matrix_csv"),
    "cli.write_table_csv": ("covsel.cli", "write_table_csv"),
    "cli.dump_json": ("covsel.cli", "dump_json"),
    "dictionary.build_collection": ("covsel.dictionary", "build_collection"),
    "linalg.projector_from_design": ("covsel.linalg", "projector_from_design"),
    "estimator.empirical_cov": ("covsel.estimator", "empirical_cov"),
    "estimator.fit_all": ("covsel.estimator", "fit_all"),
    "selection.select": ("covsel.selection", "select"),
    "simulate.run_experiment": ("covsel.simulate", "run_experiment"),
    "_mc.draw_batch": ("covsel._mc", "draw_batch"),
    "_kernels.model_stats_batch": ("covsel._kernels", "model_stats_batch"),
    "_kernels.deviation_batch": ("covsel._kernels", "deviation_batch"),
    "oracle.risk_table": ("covsel.oracle", "risk_table"),
    "oracle.oracle_model": ("covsel.oracle", "oracle_model"),
    "oracle.check_variance_factor_mean": ("covsel.oracle", "check_variance_factor_mean"),
    "oracle.check_underestimation_prob": ("covsel.oracle", "check_underestimation_prob"),
}


def _model_bytes(collection):
    """Bytes of the distinct arrays the models of a collection hold."""
    arrays = {}
    for model in collection:
        for value in vars(model).values():
            if isinstance(value, np.ndarray):
                arrays[id(value)] = value.nbytes
    return sum(arrays.values())


def _kernel_counts(args, result):
    x, projs = args[0], args[1]
    return {
        "evals": x.shape[0] * projs.shape[0],
        # computed from array sizes, not measured traffic
        "bytes_in": sum(a.nbytes for a in args if isinstance(a, np.ndarray)),
    }


# span name -> counts recorded on the span, from (positional args, result)
COUNTERS = {
    "dictionary.build_collection": lambda args, result: {
        "models": len(result), "model_bytes": _model_bytes(result)},
    "selection.select": lambda args, result: {"ties": len(result.ties) - 1},
    "_mc.draw_batch": lambda args, result: {"reps": result.shape[0]},
    "_kernels.model_stats_batch": _kernel_counts,
    "_kernels.deviation_batch": _kernel_counts,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.absent = []
        self._stack = []

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "parent": self._stack[-1] if self._stack else None,
                    "name": name}
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                try:
                    span["counts"] = counter(args, result)
                except (AttributeError, IndexError, TypeError):
                    # the call no longer has the shape the counter reads
                    span["counts"] = None
            return result

        return traced


def install():
    """Wrap every function in FUNCTIONS; returns the Tracer holding the spans."""
    tracer = Tracer()
    covsel_modules = [mod for key, mod in sorted(sys.modules.items())
                      if key == "covsel" or key.startswith("covsel.")]
    for name, (module_name, attr) in FUNCTIONS.items():
        try:
            original = getattr(importlib.import_module(module_name), attr)
        except (ImportError, AttributeError):
            tracer.absent.append(name)
            continue
        wrapper = tracer.wrap(name, original)
        for mod in covsel_modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
    return tracer
