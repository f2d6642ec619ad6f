"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload ingest-quorum --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
workload twice with the same seed — untraced, then with every system
process started under the span tracer (``perfbench/spans.py``) — and
prints the per-layer metrics, including ``trace.overhead.<metric>``
(traced over untraced value of each end-to-end metric).  Every workload
prints every metric ``BENCHMARK.json`` declares for the mode.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records
the run's metadata, with the wall-clock figures a client saw on the
service workloads (``wall``, unbounded).  ``--tiny`` runs a seconds-long
version of the workload and ``--tamper`` corrupts one expected answer
per correctness check; both exist for ``perfbench/selftest.py``.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from typing import Dict, Tuple

from harness import (
    RUN_ROOT,
    BenchError,
    Processes,
    Tally,
    fresh_run_dir,
    remove_tree,
    cpu_ticks,
    require_source,
    run_metadata,
    steal_share,
)
from layers import load_spans, per_layer
from service_workloads import ingest_quorum, window_mixed
from sweep_workload import paper_sweep

WORKLOADS = ("ingest-quorum", "window-mixed", "paper-sweep")

#: Every run must end well inside 180 s.
TIME_LIMIT_S = 170

#: Set-ups and crash restarts sampled per run (their medians are reported;
#: on paper-sweep the set-up processes are also the recovery samples).
#: One restart of the window-mixed node varies by +-20% within a run; over
#: the same ten runs the median of 9 restarts spread 0.14, that of 5 0.20.
SETUPS = 9
RESTARTS = 11

#: Seconds-long sizes for the self-test.
TINY = {
    "ingest-quorum": {"batches": 40, "queries": 40, "blocks": 2, "setups": 2, "recoveries": 1},
    "window-mixed": {"rounds": 6, "blocks": 2, "setups": 2, "recoveries": 1},
    "paper-sweep": {"scale": 0.0005, "trials": (2, 1), "blocks": (1, 1), "setups": 2},
}

#: Blocks per phase; each CPU-time metric is the median of its blocks' costs.
BLOCKS = 20


def sizes(workload: str, seconds: float, tiny: bool) -> dict:
    """How much work a run does: fixed counts at ``--seconds 20``, scaled linearly.

    A seed therefore always gives the same inputs; a slower machine runs
    longer rather than measuring less.
    """
    if tiny:
        return TINY[workload]

    def scaled(count: int) -> int:
        return max(1, round(count * seconds / 20))

    if workload == "ingest-quorum":
        # Two writer connections take alternate batches: keep the count even.
        return {"batches": 2 * scaled(400), "queries": scaled(2000), "blocks": BLOCKS,
                "setups": SETUPS, "recoveries": RESTARTS}
    if workload == "window-mixed":
        return {"rounds": scaled(240), "blocks": BLOCKS, "setups": SETUPS,
                "recoveries": RESTARTS}
    # Per block, trials per epsilon for LDPJoinSketch and LDPJoinSketch+, and
    # how many such blocks (8 x 7 and 4 x 1 trials per epsilon at 20 s).
    return {"scale": 0.005, "trials": (7, 1), "blocks": (scaled(8), scaled(4)),
            "setups": SETUPS}


def run_once(workload: str, args, traced: bool, procs: Processes, tally: Tally):
    """One pass of ``workload``; returns ``(metrics, material for the trace analysis)``.

    The material's ``layer`` holds the per-layer figures an untraced pass
    measures exactly, ``wall`` the client's wall-clock figures and
    ``blocks`` the per-block figures behind each CPU-time metric.
    """
    run_dir = fresh_run_dir(workload + ("-traced" if traced else ""))
    size = sizes(workload, args.seconds, args.tiny)
    try:
        if workload == "paper-sweep":
            metrics, material = paper_sweep(
                run_dir, procs, tally, traced=traced, tamper=args.tamper, **size
            )
            material["wall"] = {}
        else:
            common = dict(seed=args.seed, traced=traced, tamper=args.tamper, **size)
            workload_fn = ingest_quorum if workload == "ingest-quorum" else window_mixed
            run = workload_fn(run_dir, procs, tally, **common)
            metrics, material = run.metrics, {
                "run": run, "layer": run.layer, "wall": run.wall, "blocks": run.blocks,
            }
        if traced:
            material["processes"] = load_spans(sorted(run_dir.glob("**/*.spans-*.json")))
        return metrics, material
    finally:
        procs.stop_all()
        remove_tree(run_dir)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="seconds-long self-test size")
    parser.add_argument("--tamper", action="store_true", help="corrupt expected answers")
    args = parser.parse_args(argv)

    try:
        require_source()
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    def out_of_time(signum, frame):
        raise BenchError(f"run exceeded {TIME_LIMIT_S} s")

    signal.signal(signal.SIGALRM, out_of_time)
    signal.alarm(TIME_LIMIT_S)
    procs = Processes()
    tally = Tally()
    try:
        RUN_ROOT.mkdir(parents=True, exist_ok=True)
        meta = dict(run_metadata(RUN_ROOT), workload=args.workload, seed=args.seed,
                    seconds=args.seconds, trace=args.trace)
        ticks = cpu_ticks()
        metrics, material = run_once(args.workload, args, False, procs, tally)
        meta["wall"] = material["wall"]
        meta["blocks"] = {name: [float(f"{cost:.5g}") for cost in costs]
                          for name, costs in material["blocks"].items()}
        if args.trace:
            traced_metrics, traced_material = run_once(args.workload, args, True, procs, tally)
            metrics = per_layer(args.workload, metrics, material, traced_metrics, traced_material)
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        procs.stop_all()
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": render(metrics),
    }
    meta["cpu_steal_share"] = steal_share(ticks)
    meta["failures"] = tally.failures
    print("# meta " + json.dumps(meta))
    print(json.dumps(result))
    return 0


def render(metrics: Dict[str, Tuple[float, str]]) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in sorted(metrics.items())}


if __name__ == "__main__":
    sys.exit(main())
