"""hydrisim benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload charge-1d --seed 1 --seconds 35 --trace 0

Run from anywhere; the package is taken from ``src/`` next to this
directory.  Each operation is one ``hydrisim simulate`` run in a fresh
Python process (closed loop, one run at a time), so import and set-up
costs are paid every time as a user pays them.  A warm-up run at the
default seed comes first; it fills the file cache and is checked against
the stored reference ledger.  Every run's ``energy.csv`` goes through the
correctness gate.

With ``--trace 0`` the end-to-end metrics are medians over the runs; with
``--trace 1`` untraced and traced runs alternate and the per-layer
metrics come from the traced ones.  The last line of standard output is
one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import gate
import spans
from workloads import DEFAULT_SEED, TAU, WORKLOADS, inputs_for, make_ini

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
WORK = os.path.join(ROOT, ".perfbench_work")
MIN_RUNS = 3
RUN_TIMEOUT_S = 60
# one BLAS/OpenMP thread: the box has 2 cores, OpenBLAS would start 64
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1"}


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Runner:
    """Starts one child run at a time and gates its outputs."""

    def __init__(self, workdir: str, workload):
        self.workdir = workdir
        self.workload = workload
        self.env = dict(os.environ, **CHILD_ENV)
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def config(self, seed: int) -> str:
        path = os.path.join(self.workdir, "seed%d.ini" % seed)
        if not os.path.exists(path):
            with open(path, "w") as fh:
                fh.write(make_ini(self.workload, seed))
        return path

    def run(self, seed: int, trace: bool, reference=None):
        """One operation; returns the child's result dict with the gate's
        verdict added, or None when the process produced no result."""
        self.attempted += 1
        tag = "run%03d" % self.attempted
        outdir = os.path.join(self.workdir, tag)
        result_path = os.path.join(self.workdir, tag + ".json")
        cmd = [sys.executable, CHILD, repr(_now()), self.config(seed), outdir,
               result_path, "1" if trace else "0"]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env,
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True,
                                  timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self._fail(tag, "no result within %d s" % RUN_TIMEOUT_S)
            return None
        if not os.path.exists(result_path):
            self._fail(tag, "no result (exit %d): %s"
                       % (proc.returncode, proc.stderr.strip()[-400:]))
            return None
        with open(result_path) as fh:
            res = json.load(fh)
        os.remove(result_path)
        if res["exit_code"] != 0:
            self._fail(tag, "hydrisim simulate exited %d: %s"
                       % (res["exit_code"], proc.stderr.strip()[-400:]))
            res["ok"] = False
            return res
        ledger = os.path.join(outdir, "energy.csv")
        rows = gate.read_ledger(ledger)
        bad = gate.check_ledger(rows, TAU, inputs_for(self.workload, seed).influx)
        if reference is not None:
            bad += gate.check_reference(rows[-1], reference)
        res["sha256"] = gate.sha256(ledger)
        res["ok"] = not bad
        if bad:
            self._fail(tag, "; ".join(bad[:5]))
        shutil.rmtree(outdir)
        return res

    def _fail(self, tag: str, why: str):
        self.failed += 1
        self.problems.append("%s failed: %s" % (tag, why))


def quartile_spread(values) -> float:
    """Inter-quartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def tail_percentile(values):
    """The highest of p99/p95/p90/p75 with at least ten samples beyond
    it, as (p, value), or None when there are too few samples."""
    for p in (99, 95, 90, 75):
        if len(values) * (100 - p) / 100.0 >= 10:
            return p, statistics.quantiles(values, n=100,
                                           method="inclusive")[p - 1]
    return None


def end_to_end(results) -> dict:
    """Medians of the metrics BENCHMARK.json lists as end-to-end, each
    printed with its spread over the operations next to its bound."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)["end_to_end"]
    metrics = {}
    for m in spec:
        name, unit = m["name"], m["unit"]
        vals = [r[name] for r in results]
        med = statistics.median(vals)
        metrics[name] = {"value": med, "unit": unit}
        print("%-12s median %.6g %s  n=%d  spread %.2f%% (bound %.0f%%)"
              % (name, med, unit, len(vals), 100 * quartile_spread(vals),
                 100 * m["bound"]), end="")
        tail = tail_percentile(vals)
        print("  p%d %.6g" % tail if tail else
              "  max %.6g (no tail percentile at this n)" % max(vals))
    return metrics


PER_LAYER_UNITS = {"driver.output_bytes": "bytes",
                   "diffusion.picard_per_step": "1/step",
                   "trace.accounted_share": "ratio",
                   "driver.step_ms_p50": "ms", "driver.step_ms_p95": "ms"}


def _unit(name: str) -> str:
    if name in PER_LAYER_UNITS:
        return PER_LAYER_UNITS[name]
    return "s" if name.endswith("_s") else "count"


def per_layer(untraced, traced, problems) -> dict:
    per_run = [spans.run_metrics(r["spans"], r["counts"]) for r in traced]
    for key in per_run[0]:
        if _unit(key) not in ("count", "bytes"):
            continue
        seen = {m[key] for m in per_run}
        if len(seen) > 1:
            problems.append("%s differs between repeats: %s"
                            % (key, sorted(seen)))
    values = {}
    for key in per_run[0]:
        values[key] = statistics.median(m[key] for m in per_run)
    steps = [ms for r in traced for ms in spans.step_ms(r["spans"])]
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    values["driver.step_ms_p50"] = statistics.median(steps)
    values["driver.step_ms_p95"] = statistics.quantiles(
        steps, n=100, method="inclusive")[94]
    values["setup.import_s"] = statistics.median(r["import_s"] for r in traced)
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_s"] = traced_wall - statistics.median(
        r["wall_s"] for r in untraced)
    values["trace.accounted_share"] = statistics.median(
        m["trace.accounted_s"] / r["wall_s"] for m, r in zip(per_run, traced))
    del values["trace.accounted_s"]
    if values.pop("trace.unmapped_spans"):
        problems.append("spans outside the self-time partition")
    metrics = {}
    for key in sorted(values):
        metrics[key] = {"value": values[key], "unit": _unit(key)}
        print("%-38s %.6g %s" % (key, values[key], _unit(key)))
    print("(medians over %d traced runs; %d steps pooled for step_ms)"
          % (len(traced), len(steps)))
    if traced[0]["missing"]:
        print("not traced, names not found: %s"
              % ", ".join(traced[0]["missing"]))
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "hydrisim", "__init__.py")):
        print("no hydrisim sources under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    run_dir = os.path.join(WORK, "%s-seed%d-trace%d-%d" % (
        workload.name, args.seed, args.trace, os.getpid()))
    os.makedirs(run_dir)
    try:
        return _measure(Runner(run_dir, workload), args)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _measure(runner: Runner, args) -> int:
    workload = runner.workload
    warm = runner.run(DEFAULT_SEED, False, gate.load_reference(workload.name))
    if warm is None:
        print("\n".join(runner.problems), file=sys.stderr)
        return 1
    print("warm-up seed %d energy.csv sha256 %s"
          % (DEFAULT_SEED, warm.get("sha256", "-")))

    untraced, traced = [], []
    deadline = _now() + args.seconds
    while _now() < deadline or len(untraced) < MIN_RUNS:
        res = runner.run(args.seed, False)
        if res is None:
            break
        untraced.append(res)
        if args.trace:
            res = runner.run(args.seed, True)
            if res is None:
                break
            traced.append(res)

    ok_runs = [r for r in untraced + traced if r["ok"]]
    hashes = {r["sha256"] for r in ok_runs}
    if len(hashes) > 1:
        runner.problems.append("energy.csv differs between repeats of seed %d"
                               % args.seed)
    print("%s seed %d energy.csv sha256 %s (%d runs)" % (
        workload.name, args.seed, " ".join(sorted(hashes)) or "-",
        len(ok_runs)))

    untraced = [r for r in untraced if r["exit_code"] == 0]
    traced = [r for r in traced if r["exit_code"] == 0]
    if not untraced or (args.trace and not traced):
        print("\n".join(runner.problems + ["no operation finished"]),
              file=sys.stderr)
        return 1
    if args.trace:
        metrics = per_layer(untraced, traced, runner.problems)
        path = os.path.join(WORK, "%s-seed%d-spans.json"
                            % (workload.name, args.seed))
        with open(path, "w") as fh:
            json.dump(traced[-1]["spans"], fh)
        print("spans of the last traced run: %s" % os.path.relpath(path, ROOT))
    else:
        metrics = end_to_end(untraced)
    for line in runner.problems:
        print("FAIL " + line)
    print(json.dumps({"correct": not runner.problems,
                      "attempted": runner.attempted,
                      "failed": runner.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
