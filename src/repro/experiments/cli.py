"""Command-line entry point: regenerate any table/figure of the paper.

Usage::

    repro-experiments list
    repro-experiments estimators
    repro-experiments run fig5 --scale 0.002 --trials 3 --seed 7
    repro-experiments run all --out results/ --workers 4
    repro-experiments sweep --datasets zipf-1.1 movielens \\
        --methods ldp-join-sketch hcms --epsilons 1 4 10 \\
        --trials 5 --workers 4
    repro-experiments lint --list-rules

``run`` prints each regenerated table and, with ``--out``, writes one CSV
per experiment into the output directory; ``--workers N`` fans the
repeated-trial grids out over N worker processes (results are
bit-identical to the serial run).  ``sweep`` executes an ad-hoc
(dataset × method × epsilon × trial) grid through the sweep engine;
``--trial-axis grouped`` switches to the shared-pass fast mode (see
:mod:`repro.experiments.sweep`).
"""

from __future__ import annotations

import argparse
import inspect
import sys
import time
from pathlib import Path
from typing import List, Optional

from .figures import ALL_EXPERIMENTS

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the tables and figures of the LDPJoinSketch paper.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    sub.add_parser(
        "estimators", help="list the registered join-size estimators (repro.api)"
    )

    run = sub.add_parser("run", help="run one experiment (or 'all')")
    run.add_argument("experiment", choices=[*ALL_EXPERIMENTS, "all"])
    run.add_argument("--scale", type=float, default=0.002, help="fraction of paper stream sizes")
    run.add_argument("--trials", type=int, default=None, help="trials per configuration")
    run.add_argument("--seed", type=int, default=2024, help="master random seed")
    run.add_argument("--out", type=Path, default=None, help="directory for CSV outputs")
    run.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for repeated-trial grids (bit-identical to serial)",
    )

    sweep = sub.add_parser(
        "sweep", help="run an ad-hoc (dataset x method x epsilon x trial) grid"
    )
    sweep.add_argument("--datasets", nargs="+", default=["zipf-1.1"], help="dataset registry keys")
    sweep.add_argument(
        "--methods", nargs="+", default=["ldp-join-sketch"], help="estimator registry names"
    )
    sweep.add_argument("--epsilons", nargs="+", type=float, default=[4.0])
    sweep.add_argument("--trials", type=int, default=5)
    sweep.add_argument("--scale", type=float, default=0.002, help="fraction of paper stream sizes")
    sweep.add_argument("--size", type=int, default=None, help="explicit per-stream length override")
    sweep.add_argument("--seed", type=int, default=2024)
    sweep.add_argument("--workers", type=int, default=1, help="worker processes")
    sweep.add_argument(
        "--trial-axis",
        choices=("exact", "grouped"),
        default="exact",
        help="'grouped' shares one hash/sample pass per (dataset, method) "
        "block (faster; common random numbers across epsilons/trials)",
    )
    sweep.add_argument(
        "--shards",
        type=int,
        default=None,
        help="run every trial as K shard aggregators + a merge tree inside "
        "its unit's worker (bit-identical for every worker count; K=1 "
        "is bit-identical to an unsharded run)",
    )
    sweep.add_argument("--k", type=int, default=18, help="sketch depth for sketch methods")
    sweep.add_argument("--m", type=int, default=1024, help="sketch width for sketch methods")
    sweep.add_argument(
        "--retries",
        type=int,
        default=None,
        help="attempt budget per grid unit (absorbs injected faults, worker "
        "deaths and broken pools without changing a single result bit)",
    )
    sweep.add_argument(
        "--fault-plan",
        type=Path,
        default=None,
        help="arm a deterministic fault schedule (FaultPlan JSON, see "
        "repro.reliability) for the whole sweep",
    )
    sweep.add_argument("--out", type=Path, default=None, help="directory for the sweep CSV")

    windows = sub.add_parser(
        "windows",
        help="run a (dataset x window) sliding-window accuracy grid "
        "(repro.temporal)",
    )
    windows.add_argument(
        "--datasets", nargs="+", default=["zipf-1.1"], help="dataset registry keys"
    )
    windows.add_argument(
        "--windows",
        nargs="+",
        type=int,
        default=[1, 2, 4, 8],
        help="sliding-window sizes, in epochs",
    )
    windows.add_argument(
        "--epochs", type=int, default=8, help="epoch slices per dataset stream"
    )
    windows.add_argument("--epsilon", type=float, default=4.0)
    windows.add_argument("--trials", type=int, default=3)
    windows.add_argument("--scale", type=float, default=0.002, help="fraction of paper stream sizes")
    windows.add_argument("--size", type=int, default=None, help="explicit per-stream length override")
    windows.add_argument("--seed", type=int, default=2024)
    windows.add_argument("--k", type=int, default=18, help="sketch depth")
    windows.add_argument("--m", type=int, default=1024, help="sketch width")
    windows.add_argument(
        "--decay",
        default=None,
        metavar="NUM/DEN",
        help="also report the exponentially decayed estimate with this "
        "exact rational per-epoch factor (e.g. 1/2)",
    )
    windows.add_argument(
        "--out", type=Path, default=None, help="directory for the windows CSV"
    )

    shard = sub.add_parser(
        "shard",
        help="sharded aggregation tools (repro.distributed)",
        description="Run one estimate through K shard aggregators + a merge "
        "tree, or merge previously written partial payloads.",
    )
    shard_sub = shard.add_subparsers(dest="shard_command", required=True)
    shard_run = shard_sub.add_parser(
        "run", help="sharded estimate with a merge-invariance check"
    )
    shard_run.add_argument("--dataset", default="zipf-1.1", help="dataset registry key")
    shard_run.add_argument("--method", default="ldp-join-sketch", help="estimator registry name")
    shard_run.add_argument("--epsilon", type=float, default=4.0)
    shard_run.add_argument("--shards", type=int, default=8, help="shard count K")
    shard_run.add_argument(
        "--strategy", choices=("hash", "range"), default="hash", help="partitioning strategy"
    )
    shard_run.add_argument("--seed", type=int, default=2024)
    shard_run.add_argument("--scale", type=float, default=0.002)
    shard_run.add_argument("--size", type=int, default=None, help="explicit per-stream length")
    shard_run.add_argument("--k", type=int, default=18, help="sketch depth for sketch methods")
    shard_run.add_argument("--m", type=int, default=1024, help="sketch width for sketch methods")
    shard_run.add_argument(
        "--partials-dir",
        type=Path,
        default=None,
        help="also write every shard's PartialAggregate payload (JSON) here",
    )
    shard_run.add_argument(
        "--retries",
        type=int,
        default=None,
        help="retry budget per shard collect (repro.reliability.RetryPolicy)",
    )
    shard_run.add_argument(
        "--fault-plan",
        type=Path,
        default=None,
        help="arm a deterministic fault schedule (FaultPlan JSON) for the run",
    )
    shard_run.add_argument(
        "--degraded",
        action="store_true",
        help="merge the K-f surviving shards when a shard is lost for "
        "good, rescaling by client coverage (recorded in the result)",
    )
    shard_merge = shard_sub.add_parser(
        "merge", help="tree-merge partial payload files written by 'shard run'"
    )
    shard_merge.add_argument("partials", nargs="+", type=Path, help="partial JSON files")
    shard_merge.add_argument(
        "--out", type=Path, default=None, help="write the merged partial payload here"
    )

    serve = sub.add_parser(
        "serve",
        help="run the crash-safe online aggregation service (repro.service)",
        description="Start the asyncio HTTP collector: durable WAL ingest, "
        "bounded backpressure, a checkpointed accumulator, published "
        "snapshots; arguments are forwarded to `python -m repro.service` "
        "verbatim.",
    )
    serve.add_argument(
        "serve_args",
        nargs=argparse.REMAINDER,
        help="arguments forwarded to repro.service (--data-dir, --port, "
        "--fault-plan, ...)",
    )

    failover = sub.add_parser(
        "failover",
        help="operator actions against a replicated service group",
        description="Inspect and drive failover of a primary/standby "
        "group: 'status' shows every endpoint's role, fencing epoch, WAL "
        "sequence and snapshot digest (the digest-parity check of the "
        "runbook); 'promote' bumps the fencing epoch on one endpoint, "
        "making it primary and fencing the old one.",
    )
    failover.add_argument(
        "failover_command", choices=("status", "promote"), help="action"
    )
    failover.add_argument(
        "--endpoint",
        action="append",
        required=True,
        metavar="HOST:PORT",
        help="a group member (repeatable, order = promote indexing)",
    )
    failover.add_argument(
        "--target",
        type=int,
        default=0,
        help="index (into --endpoint order) of the node to promote",
    )

    lint = sub.add_parser(
        "lint",
        help="run the repro.analysis invariant linter (RPR101-RPR105)",
        description="Static checks for the repo's determinism, merge-safety, "
        "backend-ABI and privacy-budget invariants; arguments are forwarded "
        "to `python -m repro.analysis` verbatim.",
    )
    lint.add_argument(
        "lint_args",
        nargs=argparse.REMAINDER,
        help="arguments forwarded to repro-lint (paths, --format, "
        "--baseline, --list-rules, ...)",
    )
    return parser


def _forwarded_args(argv: Optional[List[str]], command: str) -> Optional[List[str]]:
    """The arguments to forward when ``argv`` invokes ``command``.

    Forwarding happens *before* argparse sees the command line:
    ``nargs=REMAINDER`` cannot capture a leading option (argparse tries
    to resolve ``lint --list-rules`` against the outer parser), and the
    forwarded tool owns its own --help.
    """
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == command:
        return argv[1:]
    return None


def _run_one(name: str, args: argparse.Namespace) -> None:
    func = ALL_EXPERIMENTS[name]
    kwargs = {"scale": args.scale, "seed": args.seed}
    if args.trials is not None and name not in ("table2", "fig7"):
        kwargs["trials"] = args.trials
    if name in ("table2", "fig7"):
        kwargs.pop("trials", None)
    if args.workers != 1 and "workers" in inspect.signature(func).parameters:
        kwargs["workers"] = args.workers
    start = time.perf_counter()
    table = func(**kwargs)
    elapsed = time.perf_counter() - start
    print(table.to_text())
    print(f"[{name} regenerated in {elapsed:.1f}s]")
    print()
    if args.out is not None:
        path = table.to_csv(Path(args.out) / f"{name}.csv")
        print(f"[wrote {path}]")


def _run_shard(args: argparse.Namespace) -> int:
    """The ``shard`` subcommand: sharded runs and partial merging."""
    import json

    from ..distributed import PartialAggregate, merge_tree

    if args.shard_command == "merge":
        partials = [
            PartialAggregate.from_dict(json.loads(path.read_text()))
            for path in args.partials
        ]
        merged = merge_tree(partials)
        reports = merged.counters.get("num_reports", None)
        if reports is None:
            reports = sum(
                value
                for key, value in merged.counters.items()
                if key.endswith("num_reports")
            )
        print(
            f"[shard] merged {len(partials)} partial(s) of method "
            f"{merged.method!r}: arrays={sorted(merged.arrays)}, "
            f"num_reports={reports:.0f}"
        )
        if args.out is not None:
            args.out.write_text(json.dumps(merged.to_dict()))
            print(f"[wrote {args.out}]")
        return 0

    from ..api import get_estimator
    from ..data import make_join_instance
    from ..distributed import estimate_sharded, merge_sequential, prepare_shard_run

    try:
        estimator = get_estimator(args.method, k=args.k, m=args.m)
    except TypeError as exc:
        if "unexpected keyword argument" not in str(exc):
            raise
        estimator = get_estimator(args.method)
    instance = make_join_instance(
        args.dataset, scale=args.scale, size=args.size, seed=args.seed
    )
    shard_kwargs = dict(
        num_shards=args.shards, seed=args.seed, strategy=args.strategy
    )
    reliability_kwargs = {}
    if args.retries is not None:
        reliability_kwargs["retries"] = args.retries
    if args.fault_plan is not None:
        reliability_kwargs["fault_plan"] = args.fault_plan
    if args.degraded:
        reliability_kwargs["degraded"] = True
    if reliability_kwargs:
        # Retry/fault/degraded runs go through estimate_sharded, which
        # owns arming the plan and the per-shard retry wrapping.
        run = None
    else:
        run = prepare_shard_run(estimator, instance, args.epsilon, **shard_kwargs)
    start = time.perf_counter()
    if run is not None:
        # One collection serves everything: the partials are
        # plan-deterministic, so both reduction topologies (and the
        # optional payload dump) reuse them.
        partials = run.collect_all()
        tree = run.finalize(merge_tree(partials))
        elapsed = time.perf_counter() - start
        single = run.finalize(merge_sequential(partials))
    else:
        # Multi-round protocols (LDPJoinSketch+) own their rounds, and
        # retry/fault/degraded runs own their plan arming — each
        # topology is a full run.
        tree = estimate_sharded(
            estimator, instance, args.epsilon, merge="tree",
            **shard_kwargs, **reliability_kwargs,
        )
        elapsed = time.perf_counter() - start
        single = estimate_sharded(
            estimator, instance, args.epsilon, merge="sequential",
            **shard_kwargs, **reliability_kwargs,
        )
    identical = tree.estimate == single.estimate
    truth = instance.true_join_size
    print(
        f"[shard] {estimator.name} on {instance.name}: K={args.shards} "
        f"({args.strategy}), estimate={tree.estimate:,.1f}, truth={truth:,.0f}"
    )
    print(
        f"[shard] tree-merged == single-aggregator: {identical} "
        f"({elapsed:.2f}s sharded run)"
    )
    degraded = tree.extras.get("degraded") if hasattr(tree, "extras") else None
    if degraded:
        coverage = degraded["coverage"]
        print(
            f"[shard] degraded: lost shard(s) {degraded['shards_lost']}, "
            f"coverage A={coverage['A']:.3f} B={coverage['B']:.3f}, "
            f"rescale x{degraded['rescale']:.3f}"
        )
    if args.partials_dir is not None:
        if run is None:
            print(
                f"[shard] partials stay internal to this run mode "
                f"(multi-round protocol, or --retries/--fault-plan/"
                f"--degraded); nothing written"
            )
        else:
            args.partials_dir.mkdir(parents=True, exist_ok=True)
            for s, partial in enumerate(partials):
                path = args.partials_dir / f"partial-{s:03d}.json"
                path.write_text(json.dumps(partial.to_dict()))
            print(f"[wrote {args.shards} partials to {args.partials_dir}]")
    return 0 if identical else 1


def _run_failover(args: argparse.Namespace) -> int:
    """The ``failover`` subcommand: group status and promotion."""
    import json

    from ..errors import ReproError
    from ..service.client import ResilientClient

    client = ResilientClient(args.endpoint, client_id="repro-failover")
    if args.failover_command == "promote":
        info = client.promote(args.target)
        print(json.dumps(info, sort_keys=True))
        return 0
    exit_code = 0
    for index, endpoint in enumerate(client._endpoints):
        try:
            status, body = client._request(endpoint, "GET", "/v1/status")
        except (ConnectionError, ReproError) as error:
            print(f"[{index}] {endpoint.name}: unreachable ({error})")
            exit_code = 1
            continue
        snapshot = body.get("snapshot") or {}
        print(
            f"[{index}] {endpoint.name}: role={body.get('role')} "
            f"epoch={body.get('fencing_epoch')} "
            f"wal_sequence={body.get('wal_sequence')} "
            f"last_checkpoint={body.get('last_checkpoint_sequence')} "
            f"digest={snapshot.get('digest', '-')}"
        )
    return exit_code


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    lint_args = _forwarded_args(argv, "lint")
    if lint_args is not None:
        from ..analysis import main as lint_main

        return lint_main(lint_args)
    serve_args = _forwarded_args(argv, "serve")
    if serve_args is not None:
        from ..service.__main__ import main as serve_main

        return serve_main(serve_args)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "list":
            for name in ALL_EXPERIMENTS:
                doc = (ALL_EXPERIMENTS[name].__doc__ or "").strip().splitlines()[0]
                print(f"{name:8s} {doc}")
            return 0
        if args.command == "estimators":
            from ..api import available_estimators, get_estimator

            for name in available_estimators():
                estimator = get_estimator(name)
                tag = "LDP" if estimator.private else "non-private"
                print(f"{name:22s} {estimator.name:16s} [{tag}]")
            return 0
        if args.command == "shard":
            return _run_shard(args)
        if args.command == "failover":
            return _run_failover(args)
        if args.command == "sweep":
            from .sweep import sweep_table

            start = time.perf_counter()
            table = sweep_table(
                args.datasets,
                args.methods,
                args.epsilons,
                args.trials,
                scale=args.scale,
                size=args.size,
                seed=args.seed,
                workers=args.workers,
                trial_axis=args.trial_axis,
                shards=args.shards,
                retries=args.retries,
                fault_plan=args.fault_plan,
                k=args.k,
                m=args.m,
            )
            elapsed = time.perf_counter() - start
            print(table.to_text())
            print(f"[sweep completed in {elapsed:.1f}s]")
            if args.out is not None:
                path = table.to_csv(Path(args.out) / "sweep.csv")
                print(f"[wrote {path}]")
            return 0
        if args.command == "windows":
            from .sweep import window_sweep_table

            decay = None
            if args.decay is not None:
                num, sep, den = str(args.decay).partition("/")
                try:
                    decay = (int(num), int(den))
                except ValueError:
                    decay = None
                if not sep or decay is None:
                    raise SystemExit(f"--decay must be NUM/DEN, got {args.decay!r}")
            start = time.perf_counter()
            table = window_sweep_table(
                args.datasets,
                args.windows,
                epochs=args.epochs,
                epsilon=args.epsilon,
                k=args.k,
                m=args.m,
                trials=args.trials,
                scale=args.scale,
                size=args.size,
                seed=args.seed,
                decay=decay,
            )
            elapsed = time.perf_counter() - start
            print(table.to_text())
            print(f"[windows completed in {elapsed:.1f}s]")
            if args.out is not None:
                path = table.to_csv(Path(args.out) / "windows.csv")
                print(f"[wrote {path}]")
            return 0
        names = list(ALL_EXPERIMENTS) if args.experiment == "all" else [args.experiment]
        for name in names:
            _run_one(name, args)
    except BrokenPipeError:  # output piped into a pager/head that closed
        return 0
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess tests
    sys.exit(main())
