#!/usr/bin/env python3
"""Show that the output checks catch corrupted outputs.

Usage (from the repository root): python3 perfbench/selftest.py [--seed N]

Runs each workload's CLI invocation once, confirms its outputs pass the
checks, then corrupts one output at a time in a copy and confirms that the
checks (or the byte-identity comparison) reject it. Exits 0 only if the
clean outputs pass and every corruption is caught.
"""

from __future__ import annotations

import argparse
import csv
import json
import shutil
import sys
import tempfile
from pathlib import Path

import checks
import run
import workloads


def _edit_json(path, edit):
    payload = json.loads(path.read_text(encoding="utf-8"))
    edit(payload)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _edit_rows(path, edit):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    rows = edit(rows)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def swap_selected(out):
    def edit(report):
        rank = len(report["selected"]) + 1
        report["selected"] = list(range(rank))
        report["selected_dim"] = float(rank * rank)
    _edit_json(out / "selection_report.json", edit)


def perturb_criterion_loss(out):
    def edit(rows):
        col = rows[0].index("loss")
        rows[3][col] = repr(float(rows[3][col]) * (1 + 1e-6))
        return rows
    _edit_rows(out / "criterion_table.csv", edit)


def perturb_sigma_hat(out):
    def edit(rows):
        rows[1][2] = repr(float(rows[1][2]) * (1 + 1e-6))
        return rows
    _edit_rows(out / "sigma_hat.csv", edit)


def perturb_risk_row(out):
    def edit(report):
        row = report["runs"][0]["risk_table"][2]
        row["bias_sq"] *= 1.01
    _edit_json(out / "experiment_report.json", edit)


def swap_oracle(out):
    def edit(report):
        run_ = report["runs"][-1]
        other = next(r for r in run_["risk_table"] if r["indices"] != run_["oracle"]["indices"])
        run_["oracle"]["indices"] = other["indices"]
    _edit_json(out / "experiment_report.json", edit)


def flag_diagnostic(out):
    def edit(report):
        report["runs"][0]["diagnostics"]["variance_factor_mean"][0]["flagged"] = True
    _edit_json(out / "experiment_report.json", edit)


def perturb_diagnostic_target(out):
    def edit(report):
        report["runs"][0]["diagnostics"]["variance_factor_mean"][4]["target"] *= 1.001
    _edit_json(out / "experiment_report.json", edit)


def drop_replication_row(out):
    _edit_rows(out / "replications.csv", lambda rows: rows[:100] + rows[101:])


def change_last_digit(out):
    """A change below every check's tolerance: only byte identity sees it."""
    path = next(out / name for name in ("sigma_hat.csv", "risk_vs_n.csv")
                if (out / name).exists())
    data = bytearray(path.read_bytes())
    data[-2] = ord("1") if data[-2] == ord("2") else ord("2")
    path.write_bytes(bytes(data))


CORRUPTIONS = {
    "select-wide": [swap_selected, perturb_criterion_loss, perturb_sigma_hat,
                    change_last_digit],
    "simulate-kernel": [perturb_risk_row, swap_oracle, flag_diagnostic,
                        perturb_diagnostic_target, change_last_digit],
    "simulate-manyreps": [perturb_risk_row, drop_replication_row, change_last_digit],
}


def caught(workload, out, context, reference_digest):
    """The failure message the benchmark would record, or None if it passes."""
    try:
        checks.check(workload, out, context)
    except Exception as exc:  # as in run.py: any malformed output fails
        return f"check: {type(exc).__name__}: {exc}"
    if checks.output_digest(out) != reference_digest:
        return "byte identity: outputs differ from the first round's"
    return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    run.check_program()
    run.WORK_ROOT.mkdir(exist_ok=True)
    ok = True
    for name, corruptions in CORRUPTIONS.items():
        workload = workloads.WORKLOADS[name]
        work_dir = Path(tempfile.mkdtemp(prefix=f"selftest-{name}-", dir=run.WORK_ROOT))
        try:
            cli_args, context = workloads.write_inputs(workload, args.seed, work_dir)
            inv = run.run_cli(cli_args, work_dir, traced=False)
            if inv.error is not None:
                print(f"FAIL {name}: CLI invocation failed: {inv.error}")
                ok = False
                continue
            clean = work_dir / "out"
            digest = checks.output_digest(clean)
            message = caught(workload, clean, context, digest)
            print(f"{'PASS' if message is None else 'FAIL'} {name}: clean outputs pass"
                  + ("" if message is None else f" ({message})"))
            ok = ok and message is None
            for corrupt in corruptions:
                copy = work_dir / corrupt.__name__
                shutil.copytree(clean, copy)
                corrupt(copy)
                message = caught(workload, copy, context, digest)
                print(f"{'PASS' if message else 'FAIL'} {name}: {corrupt.__name__} is caught"
                      + (f" ({message})" if message else ""))
                ok = ok and message is not None
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
