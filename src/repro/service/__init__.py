"""Crash-safe online aggregation service over the distributed layer.

The package turns the batch pieces — mergeable
:class:`~repro.distributed.PartialAggregate`\\ s, atomic
:class:`~repro.distributed.ShardCheckpoint`\\ s, the PR 7 fault/retry
machinery — into a long-running, *replicated* HTTP collector:

* :mod:`repro.service.wal` — crc32-framed append-only WAL with a
  fencing-epoch header, the durability boundary every acknowledgement
  sits behind.
* :mod:`repro.service.core` — the synchronous, deterministic engine:
  WAL-sequenced folds into one session accumulator, checkpoint cadence,
  WAL-durable idempotency ledger (exactly-once ingest), canonical
  published snapshots, crash recovery.
* :mod:`repro.service.replication` — primary/standby WAL-frame
  shipping with quorum/async acks, gap catch-up, and fenced failover
  (a promoted standby's epoch bump turns the old primary into a
  self-fencing zombie).
* :mod:`repro.service.client` — :class:`ResilientClient`: exactly-once
  writes under aggressive retries, automatic re-target on failover,
  per-endpoint circuit breakers, hedged reads against standbys.
* :mod:`repro.service.server` — the asyncio HTTP front-end: bounded
  queues, per-tenant admission, 429 + Retry-After backpressure, request
  deadlines, typed 409 replication rejections, ``/healthz`` /
  ``/readyz``, graceful SIGTERM drain.

Run one with ``repro-experiments serve`` or ``python -m repro.service``
(``--role standby`` + ``--replica host:port`` wire up a group).
"""

from .client import CircuitBreaker, ResilientClient
from .core import AggregationService, ServiceConfig, Snapshot, batch_seed
from .replication import (
    ACK_MODES,
    REPLICATION_FAULT_POINTS,
    HttpReplica,
    LocalReplica,
    ReplicaLink,
    ReplicatedService,
)
from .server import ServerConfig, ServiceServer, run_server
from .wal import FSYNC_POLICIES, WalTear, WriteAheadLog

__all__ = [
    "AggregationService",
    "ServiceConfig",
    "Snapshot",
    "batch_seed",
    "ReplicatedService",
    "ReplicaLink",
    "LocalReplica",
    "HttpReplica",
    "ACK_MODES",
    "REPLICATION_FAULT_POINTS",
    "ResilientClient",
    "CircuitBreaker",
    "ServerConfig",
    "ServiceServer",
    "run_server",
    "WriteAheadLog",
    "WalTear",
    "FSYNC_POLICIES",
]
