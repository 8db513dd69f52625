"""Benchmark of the biharm CLI: end-to-end timings and traced per-layer metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each command runs as a fresh child process, one at a time, with BLAS and
OpenMP threads pinned to 1.  The seed fixes the order in which a run
walks through the solver seeds of ``workloads.PROGRAM_SEEDS``; every
command's artifacts are checked against values recorded in
``reference.json``.

``--trace 0`` repeats the workload's command while another one still
fits in S seconds (at least once) and reports wall_s, setup_s, solve_s
and peak_rss_mb.  ``--trace 1`` runs the command once untraced and then
traced (twice when that fits in TRACE_BUDGET_S, to check that counts
repeat) and reports the per-layer metrics of ``layers.PER_LAYER``.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Files go to ``.perfbench/`` in the
checkout.  DESIGN.md explains the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import checks
from layers import PER_LAYER, Spans, layer_metrics
from workloads import PROGRAM_SEEDS, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench"

# every child sees one BLAS/OpenMP thread; the values are printed per run
THREAD_ENV = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
    )
}
RUN_LIMIT_S = 170.0       # a command still running this long after start is killed
TRACE_BUDGET_S = 135.0    # the second traced run must be projected to end by then
SELF_CHECK_SLACK_S = 0.05

END_TO_END = {"wall_s": "s", "setup_s": "s", "solve_s": "s", "peak_rss_mb": "MB"}


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _missing_inputs() -> list:
    needed = [ROOT / "src" / "biharm" / "cli.py", BENCH / "reference.json"]
    needed += [ROOT / w.config for w in WORKLOADS.values()]
    return [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]


class Runner:
    """Launches the child commands of one benchmark run and keeps their records."""

    def __init__(self, workload, reference: dict, started: float):
        self.workload = workload
        self.reference = reference
        self.started = started
        self.env = dict(os.environ, **THREAD_ENV)
        self.records = []

    def warm_up(self) -> None:
        """Compile and cache biharm's modules so the first timed command is not special."""
        subprocess.run(
            [sys.executable, "-c", "import sys; sys.path.insert(0, 'src'); import biharm.cli"],
            cwd=ROOT, env=self.env, check=True,
        )

    def launch(self, seed: int, traced: bool) -> dict:
        n = len(self.records)
        out = WORK / self.workload.name / f"cmd{n}"
        meta_path = out.with_suffix(".meta.json")
        trace_path = out.with_suffix(".spans.npz") if traced else None
        argv = [
            sys.executable, str(BENCH / "child.py"), str(meta_path),
            str(trace_path) if traced else "-",
            *self.workload.argv, "--seed", str(seed), "--out", str(out),
        ]
        timeout = max(1.0, RUN_LIMIT_S - (time.monotonic() - self.started))
        with open(out.with_suffix(".stderr.txt"), "wb") as err:
            t0 = time.monotonic()
            proc = subprocess.Popen(
                argv, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=err,
            )
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                t1 = time.monotonic()
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                killer.cancel()
        meta = json.loads(meta_path.read_text()) if meta_path.is_file() else {}
        ref = self.reference[str(seed)]
        rec = {
            "program_seed": seed,
            "traced": traced,
            "exit_code": proc.returncode,
            "wall_s": t1 - t0,
            "setup_s": meta["setup_done"] - t0 if "setup_done" in meta else None,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "main_s": meta.get("main_s"),
            "problems": checks.check_run(self.workload, out, proc.returncode, ref),
            "digests": checks.digests(out) if out.is_dir() else {},
            "out": str(out.relative_to(ROOT)),
            "spans": str(trace_path) if traced else None,
            "counters": meta.get("counters", {}),
        }
        same = sum(rec["digests"].get(k) == v for k, v in ref["digests"].items())
        rec["digests_matching_reference"] = f"{same}/{len(ref['digests'])}"
        self.records.append(rec)
        setup = "-" if rec["setup_s"] is None else f"{rec['setup_s']:.3f} s"
        print(
            f"cmd {n}: {'traced' if traced else 'untraced'} solver seed {seed} "
            f"exit {rec['exit_code']} wall {rec['wall_s']:.3f} s setup {setup} "
            f"rss {rec['peak_rss_mb']:.1f} MB "
            f"check {'ok' if not rec['problems'] else 'FAILED'} "
            f"digests {rec['digests_matching_reference']} match reference",
            flush=True,
        )
        for problem in rec["problems"]:
            print(f"  check: {problem}")
        return rec


def _spread(values) -> str:
    """Median, highest percentile with at least ten samples above it, and count."""
    n = len(values)
    ordered = sorted(values)
    if n >= 11:
        high = f"p{100.0 * (n - 10) / n:.0f}={ordered[n - 11]:.4f}"
    else:
        high = "p-high=n/a(n<11)"
    return f"median={statistics.median(ordered):.4f} {high} n={n}"


def run_untraced(runner: Runner, order: list, seconds: float) -> dict:
    t_start = time.monotonic()
    while True:
        runner.launch(order[len(runner.records) % len(order)], traced=False)
        typical = statistics.median(r["wall_s"] for r in runner.records)
        if time.monotonic() - t_start + typical > seconds:
            break
    samples = {name: [] for name in END_TO_END}
    for r in runner.records:
        samples["wall_s"].append(r["wall_s"])
        samples["peak_rss_mb"].append(r["peak_rss_mb"])
        if r["setup_s"] is not None:
            samples["setup_s"].append(r["setup_s"])
            samples["solve_s"].append(r["wall_s"] - r["setup_s"])
    for name, unit in END_TO_END.items():
        print(f"{name} [{unit}] {_spread(samples[name]) if samples[name] else 'no samples'}")
    # a run whose every command failed before set-up has no setup_s; it
    # is reported as incorrect, with 0.0 in place of the missing medians
    return {
        name: statistics.median(samples[name]) if samples[name] else 0.0
        for name in END_TO_END
    }


def _self_check_coverage(spans, main_s: float, allowance: float) -> list:
    """Spans nest, and top-level self times add up to the traced wall of main."""
    problems = []
    has_parent = spans.parent >= 0
    start, end = spans.start, spans.end
    p = spans.parent[has_parent]
    if np.any(start[has_parent] < start[p]) or np.any(end[has_parent] > end[p]):
        problems.append("a span ends outside its parent")
    covered = float(spans.self_time.sum())
    gap = main_s - covered
    print(
        f"self-check: self times sum to {covered:.4f} s of {main_s:.4f} s traced wall "
        f"(gap {gap:.4f} s, allowed {-SELF_CHECK_SLACK_S:.2f}..{allowance:.4f} s)"
    )
    if not -SELF_CHECK_SLACK_S <= gap <= allowance:
        problems.append(f"self times miss the traced wall by {gap:.4f} s")
    return problems


def run_traced(runner: Runner, order: list) -> tuple:
    seed = order[0]
    base = runner.launch(seed, traced=False)
    traced = [runner.launch(seed, traced=True)]
    elapsed = time.monotonic() - runner.started
    if elapsed + traced[0]["wall_s"] <= TRACE_BUDGET_S:
        traced.append(runner.launch(seed, traced=True))
    else:
        print(
            f"self-check: counts-repeat skipped, a second traced run would end "
            f"after {TRACE_BUDGET_S:.0f} s"
        )
    overhead = statistics.median(r["wall_s"] for r in traced) - base["wall_s"]

    problems = []
    per_run = []
    for r in traced:
        spans = Spans(r["spans"])
        out = ROOT / r["out"]
        written = sum(p.stat().st_size for p in out.iterdir()) if out.is_dir() else 0
        per_run.append((layer_metrics(spans, r["counters"], written), spans.calls_by_name()))
        if r["main_s"] is not None:
            problems += _self_check_coverage(
                spans, r["main_s"], max(overhead, 0.0) + SELF_CHECK_SLACK_S
            )
    counted = [n for n, unit in PER_LAYER.items() if unit in ("count", "B")]
    if len(per_run) == 2:
        (m0, calls0), (m1, calls1) = per_run
        differ = [n for n in counted if m0[n] != m1[n]]
        differ += [s for s in set(calls0) | set(calls1) if calls0.get(s) != calls1.get(s)]
        print(f"self-check: counts repeat across two traced runs: {'yes' if not differ else 'NO'}")
        if differ:
            problems.append(f"counts differ between traced runs: {sorted(differ)}")

    values = {}
    for name in PER_LAYER:
        if name == "trace.overhead_s":
            values[name] = overhead
        elif name in counted:
            values[name] = per_run[0][0][name]
        else:
            values[name] = statistics.median(m[name] for m, _ in per_run)
    for name, unit in PER_LAYER.items():
        print(f"{name} [{unit}] {values[name]}")
    return values, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    missing = _missing_inputs()
    if missing:
        return _fail(f"not a biharm checkout, missing {', '.join(missing)}")
    workload = WORKLOADS[args.workload]
    reference = json.loads((BENCH / "reference.json").read_text())[workload.name]
    order = list(PROGRAM_SEEDS)
    random.Random(args.seed).shuffle(order)

    shutil.rmtree(WORK / workload.name, ignore_errors=True)
    (WORK / workload.name).mkdir(parents=True)
    print(
        f"perfbench workload={workload.name} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace} solver seeds {order}"
    )
    print("threads: " + " ".join(f"{k}={v}" for k, v in THREAD_ENV.items()))
    runner = Runner(workload, reference, started)
    runner.warm_up()

    if args.trace:
        values, problems = run_traced(runner, order)
        units = PER_LAYER
    else:
        values, problems = run_untraced(runner, order, args.seconds), []
        units = END_TO_END
    for problem in problems:
        print(f"self-check: {problem}")

    failed = sum(1 for r in runner.records if r["problems"])
    attempted = len(runner.records)
    print(f"error_rate [1] {failed / attempted:.4f} ({failed} of {attempted} failed)")
    (WORK / workload.name / "run.json").write_text(
        json.dumps(
            {"workload": workload.name, "seed": args.seed, "threads": THREAD_ENV,
             "records": runner.records},
            indent=1, default=str,
        )
    )
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
