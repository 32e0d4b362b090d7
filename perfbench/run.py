#!/usr/bin/env python3
"""Benchmark of the `covsel` CLI on generated inputs.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Writes the workload's inputs from the seed, then runs whole rounds of CLI
invocations, one process at a time, until S seconds have passed. Each
invocation's outputs are checked against values recomputed without covsel
and against the first round's bytes. The last line of standard output is
one JSON object: correct, attempted, failed and metrics. With --trace 0 the
metrics are end to end, from untraced invocations; with --trace 1 each round
runs one untraced and one traced invocation and the metrics are per layer.
The program is run from ./src of the checkout; nothing is installed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

# The CLI runs in the environment this script was started with. The
# benchmark's own numpy work (inputs, checks) uses one BLAS thread, so no
# worker of this process is still spinning on a core when a CLI starts.
CLI_ENV = dict(os.environ)
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import checks  # noqa: E402  (imports numpy, after the line above)
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "covsel"
WORK_ROOT = ROOT / ".perfbench_work"
# Every invocation takes a few seconds; a hung one is killed well inside the
# 180 s a run may last.
OP_TIMEOUT_S = 60.0

MODULES = ("cli", "dictionary", "linalg", "estimator", "selection", "simulate",
           "_mc", "_kernels", "oracle")


@dataclass
class Invocation:
    traced: bool
    exit_code: int = None
    wall_s: float = None
    setup_s: float = None
    peak_rss_mb: float = None
    output_bytes: int = None
    spans: list = field(default_factory=list)
    absent: list = field(default_factory=list)
    error: str = None


def child_env():
    return {**CLI_ENV, "PYTHONPATH": str(ROOT / "src")}


def run_cli(cli_args, work_dir, traced):
    """Run one CLI invocation in a fresh process; time it from launch to exit."""
    inv = Invocation(traced=traced)
    info_path = work_dir / "child_info.json"
    info_path.unlink(missing_ok=True)
    shutil.rmtree(work_dir / "out", ignore_errors=True)
    cmd = [sys.executable, str(HERE / "cli_child.py"), str(info_path),
           "1" if traced else "0", *cli_args]
    timed_out = threading.Event()
    with open(work_dir / "cli.log", "wb") as log:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=work_dir, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=log, stderr=log)

        def kill():
            timed_out.set()
            proc.kill()

        # a blocking wait wakes at exit; wait(timeout=) would poll and add jitter
        timer = threading.Timer(OP_TIMEOUT_S, kill)
        timer.start()
        try:
            inv.exit_code = proc.wait()
        finally:
            timer.cancel()
            timer.join()
        inv.wall_s = time.monotonic() - start
    if timed_out.is_set():
        inv.error = f"timed out after {OP_TIMEOUT_S:g} s"
        return inv
    if inv.exit_code != 0:
        tail = (work_dir / "cli.log").read_text(errors="replace")[-2000:]
        inv.error = f"exit code {inv.exit_code}:\n{tail}"
        return inv
    info = json.loads(info_path.read_text(encoding="utf-8"))
    inv.setup_s = info["ready"] - start
    inv.peak_rss_mb = info["peak_rss_kb"] / 1024.0
    inv.spans = info.get("spans", [])
    inv.absent = info.get("absent", [])
    inv.output_bytes = sum(p.stat().st_size for p in (work_dir / "out").iterdir())
    return inv


# ---------------------------------------------------------------------------
# per-layer metrics from one traced invocation
# ---------------------------------------------------------------------------

def _spans(inv, *names):
    """Spans of the named functions, or None if any of them is absent."""
    if any(name in inv.absent for name in names):
        return None
    return [s for s in inv.spans if s["name"] in names]


def _busy(inv, *names):
    spans = _spans(inv, *names)
    return None if spans is None else sum(s["end"] - s["start"] for s in spans)


def _calls(inv, *names):
    spans = _spans(inv, *names)
    return None if spans is None else len(spans)


def _count(inv, key, *names):
    spans = _spans(inv, *names)
    if spans is None or any(s.get("counts") is None for s in spans):
        return None
    return sum(s["counts"][key] for s in spans)


def _self_time(inv, name):
    """Span time of `name` minus the time its direct children cover."""
    spans = _spans(inv, name)
    if spans is None:
        return None
    total = 0.0
    for span in spans:
        children = [s for s in inv.spans if s["parent"] == span["id"]]
        total += (span["end"] - span["start"]) - sum(c["end"] - c["start"] for c in children)
    return total


def _src_lines(module):
    path = PACKAGE / f"{module}.py"
    return path.read_text(encoding="utf-8").count("\n") if path.exists() else None


def layer_metrics(inv, ini):
    """(name, unit, value) for every per-layer metric; None means absent."""
    built = _count(inv, "models", "dictionary.build_collection")
    calls = _calls(inv, "dictionary.build_collection")
    kernels = ("_kernels.model_stats_batch", "_kernels.deviation_batch")
    rows = [
        ("cli.read_input_s", "s", _busy(inv, "cli.read_samples_csv")),
        ("cli.write_reports_s", "s",
         _busy(inv, "cli.write_matrix_csv", "cli.write_table_csv", "cli.dump_json")),
        ("cli.output_bytes", "bytes", inv.output_bytes),
        ("dictionary.build_collection_s", "s", _busy(inv, "dictionary.build_collection")),
        ("dictionary.models", "count", built),
        ("dictionary.models_dropped", "count",
         None if built is None else calls * workloads.collection_size(ini) - built),
        ("dictionary.model_bytes", "bytes",
         _count(inv, "model_bytes", "dictionary.build_collection")),
        ("linalg.projector_s", "s", _busy(inv, "linalg.projector_from_design")),
        ("linalg.projector_calls", "count", _calls(inv, "linalg.projector_from_design")),
        ("estimator.empirical_cov_s", "s", _busy(inv, "estimator.empirical_cov")),
        ("estimator.fit_all_s", "s", _busy(inv, "estimator.fit_all")),
        ("selection.select_s", "s", _busy(inv, "selection.select")),
        ("selection.ties", "count", _count(inv, "ties", "selection.select")),
        ("simulate.run_experiment_s", "s", _busy(inv, "simulate.run_experiment")),
        ("simulate.self_s", "s", _self_time(inv, "simulate.run_experiment")),
        ("mc.draw_s", "s", _busy(inv, "_mc.draw_batch")),
        ("mc.reps_drawn", "count", _count(inv, "reps", "_mc.draw_batch")),
        ("kernels.model_stats_s", "s", _busy(inv, "_kernels.model_stats_batch")),
        ("kernels.deviation_s", "s", _busy(inv, "_kernels.deviation_batch")),
        ("kernels.model_evals", "count", _count(inv, "evals", *kernels)),
        ("kernels.bytes_in", "bytes_computed", _count(inv, "bytes_in", *kernels)),
        ("oracle.risk_table_s", "s", _busy(inv, "oracle.risk_table")),
        ("oracle.risk_table_calls", "count", _calls(inv, "oracle.risk_table")),
        ("oracle.diagnostics_s", "s",
         _busy(inv, "oracle.check_variance_factor_mean", "oracle.check_underestimation_prob")),
    ]
    for module in MODULES:
        rows.append((f"{module.lstrip('_')}.src_lines", "count", _src_lines(module)))
    rows.append(("src.lines", "count",
                 sum(p.read_text(encoding="utf-8").count("\n") for p in PACKAGE.glob("*.py"))))
    return rows


# ---------------------------------------------------------------------------
# measurement loop
# ---------------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measured time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def check_program():
    """Fail before any measurement unless ./src/covsel imports from this checkout."""
    if not (PACKAGE / "cli.py").is_file():
        print(f"error: {PACKAGE} holds no covsel CLI; run from a checkout root", file=sys.stderr)
        raise SystemExit(2)
    probe = subprocess.run(
        [sys.executable, "-c", "import covsel.cli, covsel; print(covsel.__file__)"],
        env=child_env(), capture_output=True, text=True, timeout=OP_TIMEOUT_S)
    if probe.returncode != 0 or Path(probe.stdout.strip()).parent != PACKAGE:
        print(f"error: cannot import covsel from {PACKAGE}:\n{probe.stderr}", file=sys.stderr)
        raise SystemExit(2)


def median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def run_workload(workload, seed, seconds, trace):
    """Measure one workload; prints its table and returns the result object."""
    work_dir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_ROOT))
    invocations, attempted, failed, correct = [], 0, 0, True
    try:
        cli_args, context = workloads.write_inputs(workload, seed, work_dir)
        first_digest = None
        deadline = time.monotonic() + seconds
        while True:
            for traced in ((False, True) if trace else (False,)):
                attempted += 1
                inv = run_cli(cli_args, work_dir, traced)
                if inv.error is None:
                    try:
                        checks.check(workload, work_dir / "out", context)
                        digest = checks.output_digest(work_dir / "out")
                        first_digest = first_digest or digest
                        if digest != first_digest:
                            raise checks.CheckFailed("outputs differ from the first round's bytes")
                    except Exception as exc:  # any malformed output fails this invocation
                        correct = False
                        inv.error = f"check failed: {type(exc).__name__}: {exc}"
                if inv.error is not None:
                    failed += 1
                    print(f"invocation {attempted} failed: {inv.error}", file=sys.stderr)
                else:
                    invocations.append(inv)
            if time.monotonic() >= deadline:
                break
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    plain = [inv for inv in invocations if not inv.traced]
    traced = [inv for inv in invocations if inv.traced]
    wall = median(inv.wall_s for inv in plain)
    if trace:
        per_inv = [layer_metrics(inv, context["ini"]) for inv in traced]
        rows = [(name, unit, median(r[i][2] for r in per_inv))
                for i, (name, unit, _) in enumerate(per_inv[0])] if per_inv else []
        traced_wall = median(inv.wall_s for inv in traced)
        rows.append(("trace.overhead_s", "s",
                     None if wall is None or traced_wall is None else traced_wall - wall))
    else:
        fits = workloads.model_fits(context["ini"])
        rows = [
            ("wall_s", "s", wall),
            ("setup_s", "s", median(inv.setup_s for inv in plain)),
            ("peak_rss_mb", "MB", median(inv.peak_rss_mb for inv in plain)),
            ("model_fits_per_s", "1/s", None if wall is None else fits / wall),
        ]

    print(f"workload {workload.name}  seed {seed}  trace {trace}  "
          f"invocations {attempted}  failed {failed}  (medians over "
          f"{len(traced) if trace else len(plain)} invocations)")
    print("  wall_s of each invocation: " + " ".join(
        f"{inv.wall_s:.3f}{'t' if inv.traced else ''}" for inv in invocations))
    for name, unit, value in rows:
        shown = "absent" if value is None else f"{value:.6g}"
        print(f"  {name:32s} {shown:>14s} {unit}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, unit, value in rows},
    }


def main(argv=None):
    args = parse_args(argv)
    check_program()  # also warms the page cache for the imports
    WORK_ROOT.mkdir(exist_ok=True)
    if args.workload != "all":
        result = run_workload(workloads.WORKLOADS[args.workload],
                              args.seed, args.seconds, args.trace)
    else:
        # one line for all workloads; metric names take the workload as prefix
        results = {name: run_workload(workload, args.seed, args.seconds, args.trace)
                   for name, workload in workloads.WORKLOADS.items()}
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
