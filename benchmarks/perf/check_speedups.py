"""In-process speedup floors that the benchmark (``perfbench/``) cannot express.

Usage (one check per process, so no check runs in the wake of another)::

    PYTHONPATH=src python benchmarks/perf/check_speedups.py sweep    # sweep engine vs serial loop
    PYTHONPATH=src python benchmarks/perf/check_speedups.py sharded  # 8-shard ingest capacity

Each check prints one line per floor and exits 1 when any floor fails.
Every timing is the best wall-clock run of ``repeats`` after one
untimed warm-up run (page faults, lazy imports).
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable, List, Tuple, Union

import numpy as np

from repro.api import JoinSession, get_estimator
from repro.core import SketchParams
from repro.data import make_join_instance
from repro.distributed import ShardPlanner, merge_tree
from repro.experiments.sweep import plan_grid, run_sweep
from repro.rng import derive_seed, ensure_rng

#: Sketch shape of every check (the paper's defaults).
K, M, EPSILON, SEED = 18, 1024, 4.0, 20240101

#: A floor: (label, measured value, threshold); a bool must be True.
Floor = Tuple[str, Union[float, bool], Union[float, bool]]


def best_of(func: Callable[[], object], repeats: int) -> float:
    """Best wall-clock seconds of ``repeats`` runs after one untimed warm-up."""
    func()
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - start)
    return best


def check_sweep() -> List[Floor]:
    """2 methods x 3 epsilons x 5 trials on zipf-1.1: the pre-engine serial loop vs the engine.

    The exact trial axis is a bit-identical re-routing of the serial loop
    and must stay at parity (0.7x leaves room for timer noise); grouped
    mode must beat it.
    """
    n, trials, repeats = 20_000, 5, 1
    instance = make_join_instance("zipf-1.1", size=n, seed=SEED)
    instance.true_join_size  # the ground truth is computed outside the timings
    methods = {}
    for name in ("ldp-join-sketch", "ldp-compass"):
        estimator = get_estimator(name, k=K, m=M)
        methods[estimator.name] = estimator
    epsilons = [2.0, 4.0, 8.0]

    def serial() -> list:
        # One full estimate per trial; seeds derived in plan_grid's order.
        rng = ensure_rng(SEED)
        derive_seed(rng)  # the dataset's instance seed
        estimates = []
        for method in methods.values():
            for epsilon in epsilons:
                unit_rng = ensure_rng(derive_seed(rng))
                for _ in range(trials):
                    result = method.estimate(instance, epsilon, derive_seed(unit_rng))
                    estimates.append(result.estimate)
        return estimates

    def engine(trial_axis: str, workers: int = 1) -> list:
        plan = plan_grid(["zipf-1.1"], methods, epsilons, trials, seed=SEED,
                         trial_axis=trial_axis, instances={"zipf-1.1": instance})
        return [r.estimate for records in run_sweep(plan, workers=workers) for r in records]

    serial_s = best_of(serial, repeats)
    exact_s = best_of(lambda: engine("exact"), repeats)
    grouped_s = best_of(lambda: engine("grouped"), repeats)
    return [
        ("sweep grouped speedup over the serial loop", serial_s / grouped_s, 1.0),
        ("sweep exact speedup over the serial loop", serial_s / exact_s, 0.7),
        ("sweep exact estimates identical to the serial loop", serial() == engine("exact"), True),
        ("sweep grouped estimates identical with 2 workers",
         engine("grouped") == engine("grouped", workers=2), True),
    ]


def check_sharded() -> List[Floor]:
    """One aggregator's ``collect`` vs 8 shard aggregators, timed one by one.

    Shards ingest concurrently in production, so the capacity is the
    population over the slowest shard; the tree-merged partials must
    equal the single-aggregator run of the same plan byte for byte.
    """
    n, shards, repeats = 20_000, 8, 1
    params = SketchParams(K, M, EPSILON)
    coordinator = JoinSession(params, seed=SEED)
    values = np.random.default_rng(SEED).integers(0, 1 << 16, size=n)
    planner = ShardPlanner(shards, strategy="hash")
    splits, shard_seeds = planner.split(values), planner.shard_seeds(SEED)
    single_s = best_of(
        lambda: JoinSession(params, pairs=coordinator.pairs).collect("A", values, seed=SEED),
        repeats,
    )
    reference = JoinSession(params, pairs=coordinator.pairs)
    reference.collect_sharded("A", values, num_shards=shards, seed=SEED)

    def run_shards():
        times, partials = [], []
        for shard_values, shard_seed in zip(splits, shard_seeds):
            shard = coordinator.spawn_shard()
            start = time.perf_counter()
            shard.collect("A", shard_values, seed=shard_seed)
            times.append(time.perf_counter() - start)
            partials.append(shard.to_partial())
        return times, partials

    run_shards()  # warm-up
    slowest, partials = float("inf"), None
    for _ in range(repeats):
        times, partials = run_shards()
        slowest = min(slowest, max(times))
    merged = JoinSession(params, pairs=coordinator.pairs)
    merged.merge(merge_tree(partials))
    identical = np.array_equal(merged._streams["A"].raw, reference._streams["A"].raw)
    return [
        (f"{shards}-shard ingest capacity over one aggregator", single_s / slowest, 1.0),
        ("tree-merged shards identical to one aggregator", identical, True),
    ]


CHECKS = {"sweep": check_sweep, "sharded": check_sharded}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("check", choices=sorted(CHECKS))
    args = parser.parse_args(argv)
    floors = CHECKS[args.check]()
    failed = 0
    for label, value, threshold in floors:
        if isinstance(threshold, bool):
            ok, shown = bool(value), str(bool(value))
        else:
            ok, shown = value >= threshold, f"{value:.2f}x (floor {threshold:.2f}x)"
        failed += not ok
        print(f"[{'ok' if ok else 'fail'}] {label}: {shown}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
