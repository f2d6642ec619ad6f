"""``python -m repro.service`` — run one online aggregation server.

Prints ``LISTENING <host> <port>`` (flushed) once the socket is bound,
so supervisors and tests can connect without racing the bind, and exits
gracefully (drain → flush → publish) on SIGTERM/SIGINT.  The
``repro-experiments serve`` subcommand forwards here.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
from pathlib import Path
from typing import List, Optional

from ..errors import ParameterError
from .core import ServiceConfig
from .replication import ACK_MODES, ROLES, HttpReplica, ReplicatedService
from .server import ServerConfig, run_server
from .wal import FSYNC_POLICIES
from .wire import parse_address

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    """The ``serve`` argument parser (shared with the experiments CLI)."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments serve",
        description="Run the crash-safe online LDP aggregation service.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=0, help="0 picks a free port (printed at bind)"
    )
    parser.add_argument(
        "--data-dir",
        type=Path,
        required=True,
        help="directory for the WAL and the node checkpoint (created if absent)",
    )
    parser.add_argument("--k", type=int, default=16, help="sketch depth")
    parser.add_argument("--m", type=int, default=1024, help="sketch width")
    parser.add_argument("--epsilon", type=float, default=4.0, help="privacy budget")
    parser.add_argument("--seed", type=int, default=0, help="service master seed")
    parser.add_argument(
        "--checkpoint-interval",
        type=int,
        default=32,
        help="WAL records between checkpoint flushes (with --epoch-interval, "
        "a flush holds the evicted epochs; restarts re-fold the retained ones)",
    )
    parser.add_argument(
        "--wal-fsync",
        choices=FSYNC_POLICIES,
        default="always",
        help="WAL durability policy",
    )
    parser.add_argument(
        "--retries", type=int, default=3, help="retry budget of internal operations"
    )
    parser.add_argument(
        "--queue-limit", type=int, default=128, help="global ingest queue bound"
    )
    parser.add_argument(
        "--tenant-queue-limit",
        type=int,
        default=32,
        help="per-tenant bound on queued batches",
    )
    parser.add_argument(
        "--request-timeout", type=float, default=30.0, help="per-request deadline, s"
    )
    parser.add_argument(
        "--publish-threshold",
        type=int,
        default=64,
        help="pending records that trigger a watchdog publish",
    )
    parser.add_argument(
        "--role",
        choices=ROLES,
        default="primary",
        help="replication role: primary accepts writes and ships WAL "
        "frames; standby applies frames until promoted (POST /v1/promote)",
    )
    parser.add_argument(
        "--replica",
        action="append",
        default=None,
        metavar="HOST:PORT",
        help="a standby to replicate to (repeatable; primary only)",
    )
    parser.add_argument(
        "--ack-mode",
        choices=ACK_MODES,
        default="quorum",
        help="quorum holds each ack for a standby majority; async ships "
        "best-effort",
    )
    parser.add_argument(
        "--epoch-interval",
        type=int,
        default=0,
        help="WAL records per temporal epoch (0 disables windowed estimates)",
    )
    parser.add_argument(
        "--window-epochs",
        type=int,
        default=8,
        help="closed epochs retained for GET /v1/estimate?window=W",
    )
    parser.add_argument(
        "--dedup-retention",
        type=int,
        default=4096,
        help="idempotency-ledger entries kept (exactly-once horizon)",
    )
    parser.add_argument(
        "--fault-plan",
        type=Path,
        default=None,
        help="arm a deterministic fault schedule (FaultPlan JSON) for the "
        "whole server lifetime — chaos testing only",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Build the service from CLI flags and serve until signalled."""
    args = build_parser().parse_args(argv)
    if args.fault_plan is not None:
        from ..reliability.faults import FaultPlan, arm

        arm(FaultPlan.load(args.fault_plan))
    try:
        replicas = [HttpReplica(*parse_address(address)) for address in args.replica or []]
    except ParameterError as error:
        raise SystemExit(f"--replica: {error}") from error
    service = ReplicatedService(
        ServiceConfig(
            data_dir=args.data_dir,
            k=args.k,
            m=args.m,
            epsilon=args.epsilon,
            seed=args.seed,
            checkpoint_interval=args.checkpoint_interval,
            wal_fsync=args.wal_fsync,
            retries=args.retries,
            dedup_retention=args.dedup_retention,
            epoch_interval=args.epoch_interval,
            window_epochs=args.window_epochs,
        ),
        role=args.role,
        replicas=replicas,
        ack_mode=args.ack_mode,
    )
    config = ServerConfig(
        host=args.host,
        port=args.port,
        queue_limit=args.queue_limit,
        tenant_queue_limit=args.tenant_queue_limit,
        request_timeout=args.request_timeout,
        publish_threshold=args.publish_threshold,
    )

    def announce(host: str, port: int) -> None:
        print(f"LISTENING {host} {port}", flush=True)

    asyncio.run(run_server(service, config, on_listening=announce))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess tests
    sys.exit(main())
