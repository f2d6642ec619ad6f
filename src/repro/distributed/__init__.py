"""Sharded mergeable aggregation — scatter/gather collection at scale.

The paper's sketches are linear, so partial sketches built from disjoint
client shards merge *exactly*: ingestion can fan out over many
aggregators and fold back through a merge tree without changing a single
bit of the result.  This package owns that machinery:

* :class:`ShardPlanner` — deterministic population splits (hash / range)
  with plan-fixed per-shard seeds; ``K = 1`` is the identity plan that
  reproduces the unsharded figures bit for bit;
* :class:`PartialAggregate` — the versioned, fingerprinted wire format
  shards ship (raw integer accumulators + additive accounting, base64
  raw-bytes JSON payloads); unsafe merges — wrong seed, wrong ``m``,
  wrong ``epsilon`` — are refused;
* :func:`merge_tree` / :func:`merge_sequential` — pairwise tree and
  left-fold reductions, byte-identical by construction (pure integer
  adds, pre-FWHT);
* :class:`ShardCheckpoint` / :func:`ingest_with_checkpoint` — atomic
  flush/resume, so a killed aggregator restarts from its last flushed
  partial and finishes byte-identical to an uninterrupted run; a
  *corrupt* checkpoint downgrades to a logged cold start instead of a
  crash;
* :func:`estimate_sharded` / :func:`prepare_shard_run` — sharded
  execution of every registry method, with the core guarantee the
  property suite enforces: for any method and any ``K``, the tree-merged
  estimate is byte-identical to the single-aggregator run.

Fault tolerance (:mod:`repro.reliability`) is threaded throughout:
every shard collect passes the ``shard.collect`` fault point and can be
retried under a :class:`~repro.reliability.RetryPolicy` with its
randomness restored per attempt (absorbed faults are byte-invisible);
``degraded=True`` merges K−f survivors when a shard is lost outright,
rescaling by the planner's client coverage and recording
``shards_lost`` / ``coverage`` / ``bound_factor`` in the result; wire
payloads carry a crc32 content checksum (version 2) so bit flips and
truncation are rejected with typed errors.
"""

from .checkpoint import ShardCheckpoint, ingest_with_checkpoint
from .collectors import ShardRun, estimate_sharded, prepare_shard_run
from .merge import merge_sequential, merge_tree
from .partial import (
    PARTIAL_FORMAT,
    PARTIAL_VERSION,
    PartialAggregate,
    content_checksum,
    fingerprint_digest,
)
from .planner import SHARD_STRATEGIES, ShardPlanner

__all__ = [
    "ShardPlanner",
    "SHARD_STRATEGIES",
    "PartialAggregate",
    "PARTIAL_FORMAT",
    "PARTIAL_VERSION",
    "fingerprint_digest",
    "content_checksum",
    "merge_tree",
    "merge_sequential",
    "ShardCheckpoint",
    "ingest_with_checkpoint",
    "ShardRun",
    "estimate_sharded",
    "prepare_shard_run",
]
