"""The ``paper-sweep`` workload: the paper's own accuracy grid as a batch job.

A fresh process builds the grid with ``plan_grid`` (zipf-1.1 at scale
0.005, 200k rows per stream; k=18, m=1024; epsilon in {1, 4}) and runs
it with ``iter_sweep(workers=1)`` for ``LDPJoinSketch`` and
``LDPJoinSketch+``, each method's trials split into blocks (grids of
their own, with block-numbered seeds).  No service code runs.  Costs are
CPU time of the sweep process (``time.process_time``), which leaves out
the time the hypervisor steals on a shared host, and each is the median
of its blocks.  In the benchmark's generic metrics:

* ``ingest_reports_per_cpu_s`` — reports (both streams' rows) that the
  LDPJoinSketch trials perturb and sketch, per CPU second of those trials;
* ``estimate_cpu_ms`` — CPU time of one LDPJoinSketch+ trial, the batch
  job's unit of answering (two-phase collection and the estimate);
* ``recovery_cpu_s`` — the sweep keeps no checkpoint, so a crashed sweep
  recovers by starting over: the CPU time a new sweep process spends
  before it can run a trial (interpreter, imports, dataset, exact join
  size, plan).

The grid's master seed is fixed (:data:`GRID_SEED`) rather than taken
from ``--seed``: the relative errors (per-layer
``core.estimator.rel_error_*``) then compare the program against itself
run to run, and move only when the estimators' output moves.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path
from typing import List, Optional

from harness import (
    BENCH_DIR,
    NODE_TIMEOUT,
    BenchError,
    median,
    now_ns,
    read_line,
    vm_hwm_mb,
)

GRID_SEED = 20240101
EPSILONS = (1.0, 4.0)
DATASET = "zipf-1.1"
METHODS = (
    ("ldpjs", "ldp-join-sketch"),
    ("ldpjs_plus", "ldp-join-sketch-plus"),
)


# ----------------------------------------------------------------------
# Child process
# ----------------------------------------------------------------------
def child_main(argv: Optional[List[str]] = None, tracer=None) -> int:
    """Build the plan (report when and at what CPU cost), then run it; write the records.

    Under the span tracer (``spans.py sweep``), ``tracer`` records one
    span per sweep unit.
    """
    parser = argparse.ArgumentParser(prog="sweep_workload.py child")
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--trials", type=int, nargs=2, required=True, metavar=("LDPJS", "PLUS"),
                        help="trials per epsilon in one block")
    parser.add_argument("--blocks", type=int, nargs=2, required=True, metavar=("LDPJS", "PLUS"))
    parser.add_argument("--out", type=Path, default=None, help="records file; plan only if absent")
    args = parser.parse_args(argv)

    from repro.api import get_estimator
    from repro.experiments import sweep
    from repro.join import exact_join_size

    plans = []  # (method label, block, plan); each block is a grid of its own
    instances = None
    for offset, ((label, method), trials, blocks) in enumerate(
        zip(METHODS, args.trials, args.blocks)
    ):
        for block in range(blocks):
            plan = sweep.plan_grid(
                [DATASET],
                {label: get_estimator(method, k=18, m=1024)},
                EPSILONS,
                trials,
                scale=args.scale,
                seed=GRID_SEED + 1000 * offset + block,
                instances=instances,
            )
            instances = plan.instances
            plans.append((label, block, plan))
    instance = instances[DATASET]
    exact = exact_join_size(instance.values_a, instance.values_b, instance.domain_size)
    print(f"PLANNED {now_ns()} {time.process_time_ns()}", flush=True)
    if args.out is None:
        return 0

    # Interleave the two methods' blocks evenly over the run, so that each
    # method's median sees the whole run's stretches of host speed.
    counts = {label: blocks for (label, _), blocks in zip(METHODS, args.blocks)}
    plans.sort(key=lambda item: ((item[1] + 0.5) / counts[item[0]], item[0]))
    units = []
    for label, block, plan in plans:
        stream = sweep.iter_sweep(plan, workers=1)
        while True:
            start, cpu = now_ns(), time.process_time_ns()
            try:
                _, records = next(stream)
            except StopIteration:
                break
            end, cpu = now_ns(), time.process_time_ns() - cpu
            if tracer is not None:
                tracer.record(f"sweep.unit.{label}", start, end, work=len(records))
            units.append(
                {
                    "method": label,
                    "block": block,
                    "cpu_seconds": cpu / 1e9,
                    "estimates": [record.estimate for record in records],
                    "truth": [record.truth for record in records],
                }
            )
    args.out.write_text(
        json.dumps(
            {
                "units": units,
                "exact": int(exact),
                "domain": int(instance.domain_size),
                "reports_per_trial": len(instance.values_a) + len(instance.values_b),
                "peak_rss_mb": vm_hwm_mb(os.getpid()),
            }
        )
    )
    return 0


# ----------------------------------------------------------------------
# Benchmark side
# ----------------------------------------------------------------------
def paper_sweep(run_dir, procs, tally, *, scale, trials, blocks, setups, traced, tamper):
    """Run the grid in a fresh process.

    Each method's trials run in ``blocks`` grids of ``trials`` trials per
    epsilon; a cost is the median of the blocks' CPU time per trial.
    Returns ``(metrics, material)``: the material holds the child's record,
    the per-layer relative errors (``core.estimator.rel_error_*``) and the
    per-block costs.
    """
    def argv(index: int, out: Optional[Path]) -> List[str]:
        child = ["--scale", str(scale), "--trials", *map(str, trials),
                 "--blocks", *map(str, blocks)]
        if out is not None:
            child += ["--out", str(out)]
        if traced:
            trace = run_dir / f"sweep.spans-{index}.json"
            return [sys.executable, str(BENCH_DIR / "spans.py"), "sweep", str(trace), *child]
        return [sys.executable, str(BENCH_DIR / "sweep_workload.py"), "child", *child]

    out = run_dir / "sweep.json"
    times, plan_cpu = [], []
    for index in range(setups):
        last = index == setups - 1
        start = now_ns()
        proc = procs.spawn(argv(index, out if last else None), run_dir / "sweep.log")
        _, planned, cpu = read_line(proc, "PLANNED").split()
        times.append((int(planned) - start) / 1e9)
        plan_cpu.append(int(cpu) / 1e9)
        if not last:
            proc.wait(timeout=NODE_TIMEOUT)  # plan-only children exit on their own
            procs.terminate(proc)
    code = proc.wait(timeout=NODE_TIMEOUT * 2)
    procs.terminate(proc)
    if code != 0:
        raise BenchError(f"sweep process exited with code {code}")
    record = json.loads(out.read_text())

    exact = record["exact"] + (1 if tamper else 0)
    metrics = {
        "setup_s": (median(times), "s"),
        "recovery_cpu_s": (median(plan_cpu), "s"),
        "peak_rss_mb": (record["peak_rss_mb"], "MB"),
    }
    layer = {}
    costs = {}  # CPU seconds per trial, per block
    for label, _ in METHODS:
        units = [u for u in record["units"] if u["method"] == label]
        costs[label] = [
            sum(u["cpu_seconds"] for u in block) / sum(len(u["estimates"]) for u in block)
            for block in ([u for u in units if u["block"] == b]
                          for b in sorted({u["block"] for u in units}))
        ]
        errors = []
        for unit in units:
            # The harness's truth must be the exact join size repro.join computes.
            tally.op(all(t == exact for t in unit["truth"]), f"{label} truth != exact join size")
            for estimate in unit["estimates"]:
                if tally.op(math.isfinite(estimate), f"{label} estimate not finite"):
                    errors.append(abs(estimate - exact) / exact)
        layer[f"core.estimator.rel_error_{label}"] = (sum(errors) / len(errors), "ratio")
    metrics["ingest_reports_per_cpu_s"] = (
        record["reports_per_trial"] / median(costs["ldpjs"]), "reports/cpu-s"
    )
    metrics["estimate_cpu_ms"] = (median(costs["ldpjs_plus"]) * 1e3, "ms")
    blocks = {  # the blocks' own figures, in the metrics' units
        "ingest_reports_per_cpu_s": [record["reports_per_trial"] / c for c in costs["ldpjs"]],
        "estimate_cpu_ms": [c * 1e3 for c in costs["ldpjs_plus"]],
        "recovery_cpu_s": plan_cpu,
    }
    return metrics, {"record": record, "layer": layer, "blocks": blocks}


if __name__ == "__main__":
    if len(sys.argv) < 2 or sys.argv[1] != "child":
        raise SystemExit(
            "usage: sweep_workload.py child --scale F --trials N N --blocks N N [--out PATH]"
        )
    raise SystemExit(child_main(sys.argv[2:]))
