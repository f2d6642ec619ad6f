"""Exception hierarchy for the :mod:`repro` package.

All errors raised by the library derive from :class:`ReproError`, so callers
can catch a single base class.  More specific subclasses communicate which
part of the pipeline rejected the input:

``ParameterError``
    A configuration value (sketch shape, privacy budget, sampling rate, ...)
    is out of its legal range.  Subclass of :class:`ValueError` as well, so
    idiomatic ``except ValueError`` also works.
``DomainError``
    An item or an array of items falls outside the declared value domain.
``IncompatibleSketchError``
    Two sketches that must share hash functions / shape / privacy budget to
    be combined (joined, merged, compared) do not.
``ProtocolError``
    The client/server protocol was driven in an invalid order, for example
    estimating a join size before any report has been ingested.
``DataGenerationError``
    A synthetic dataset generator received an unsatisfiable request.
``UnknownEstimatorError``
    A name passed to the estimator registry (:mod:`repro.api`) does not
    resolve to any registered estimator, or a registration collides.
``PartialIntegrityError``
    A serialized :class:`~repro.distributed.PartialAggregate` payload
    failed its content checksum (bit flip, truncation).  Subclass of
    :class:`ParameterError`, so older ``except ParameterError`` handlers
    keep working.
``CheckpointCorruptError``
    A shard checkpoint file on disk is unreadable — torn write, garbage
    bytes, missing fields, or a failed payload checksum.  Recoverable:
    :func:`repro.distributed.ingest_with_checkpoint` falls back to a
    cold start when it sees this.
``InjectedFaultError`` / ``InjectedCrashError``
    Deterministic faults raised by an armed
    :class:`repro.reliability.FaultPlan` at a named fault point
    (:class:`InjectedCrashError` models a worker process dying).
``RetryExhaustedError``
    A :class:`repro.reliability.RetryPolicy` ran out of attempts; carries
    the full attempt ledger.
``ShardLostError``
    A sharded run lost shard partials it cannot absorb (every shard
    failed, or a shard is missing outside degraded mode).
``ReplicationError``
    Base of the replication-protocol rejections below; maps to HTTP 409
    in the service front-end.
``FencedEpochError``
    A node presented a fencing epoch older than the receiver's — the
    signature of a zombie primary writing after a failover.  Carries
    both epochs so the zombie can fence itself.
``NotPrimaryError``
    A client sent a write to a standby (or a fenced ex-primary); carries
    the node's role so clients can re-target.
``ReplicaGapError``
    A standby refused an out-of-order replication frame; carries the
    sequence it expects next so the primary can re-ship the gap.
``ReplicaDivergenceError``
    Two nodes hold *different* records at the same WAL sequence — a
    forked history (e.g. a zombie primary's un-replicated suffix after
    a failover).  Raised instead of acking so divergence can never
    silently count toward quorum.
``ReplicationQuorumError``
    A quorum-ack replication round could not reach enough standbys;
    the batch is WAL-durable locally but under-replicated — retryable.
``SweepWorkerLostError``
    The sweep pool lost worker tasks past the retry budget; names the
    grid cells whose results are missing.

The module also hosts :func:`require_merge_compatible` — the one place
every merge path (sketches, frequency oracles, sessions, partial
aggregates) validates parameter compatibility, so mismatched
k/m/epsilon/hash-seed combinations are rejected with uniform messages
instead of each class hand-rolling a subset of the checks.
"""

from __future__ import annotations

from typing import Any, Mapping

__all__ = [
    "ReproError",
    "ParameterError",
    "DomainError",
    "IncompatibleSketchError",
    "ProtocolError",
    "DataGenerationError",
    "UnknownEstimatorError",
    "PartialIntegrityError",
    "CheckpointCorruptError",
    "InjectedFaultError",
    "InjectedCrashError",
    "RetryExhaustedError",
    "ShardLostError",
    "SweepWorkerLostError",
    "ReplicationError",
    "FencedEpochError",
    "NotPrimaryError",
    "ReplicaGapError",
    "ReplicaDivergenceError",
    "ReplicationQuorumError",
    "require_merge_compatible",
]


class ReproError(Exception):
    """Base class of every exception raised by :mod:`repro`."""


class ParameterError(ReproError, ValueError):
    """A configuration parameter is outside its legal range."""


class DomainError(ReproError, ValueError):
    """An input item lies outside the declared value domain."""


class IncompatibleSketchError(ReproError, ValueError):
    """Two sketches cannot be combined (shape/hash/budget mismatch)."""


class ProtocolError(ReproError, RuntimeError):
    """The client/server protocol was used in an invalid order."""


class DataGenerationError(ReproError, ValueError):
    """A synthetic data generator received an unsatisfiable request."""


class UnknownEstimatorError(ReproError, KeyError):
    """An estimator-registry lookup or registration failed."""

    def __str__(self) -> str:  # KeyError quotes its message; keep it plain
        return self.args[0] if self.args else ""


class PartialIntegrityError(ParameterError):
    """A partial-aggregate payload failed its content checksum."""


class CheckpointCorruptError(ReproError, ValueError):
    """A shard checkpoint on disk is torn, garbled, or fails its checksum.

    ``path`` names the offending file; ``reason`` the failed validation.
    """

    def __init__(self, path, reason: str) -> None:
        self.path = path
        self.reason = str(reason)
        super().__init__(f"corrupt shard checkpoint {path}: {reason}")

    def __reduce__(self):  # crosses process-pool boundaries intact
        return (type(self), (self.path, self.reason))


class InjectedFaultError(ReproError, RuntimeError):
    """A deterministic fault fired by an armed FaultPlan.

    ``point`` is the fault-point name, ``context`` the call-site context
    the firing spec matched (shard id, cursor, attempt, ...).
    """

    def __init__(self, point: str, context: Mapping[str, Any]) -> None:
        self.point = str(point)
        self.context = dict(context)
        described = ", ".join(f"{k}={v!r}" for k, v in sorted(self.context.items()))
        super().__init__(f"injected fault at {point!r} ({described or 'no context'})")

    def __reduce__(self):  # crosses process-pool boundaries intact
        return (type(self), (self.point, self.context))


class InjectedCrashError(InjectedFaultError):
    """An injected fault modelling a worker process dying mid-task."""


class RetryExhaustedError(ReproError, RuntimeError):
    """A RetryPolicy ran out of attempts.

    ``operation`` names the retried work; ``attempts`` is the ledger of
    :class:`repro.reliability.AttemptRecord` entries, one per failed
    attempt, in order.  The final error is chained as ``__cause__``.
    """

    def __init__(self, operation: str, attempts=()) -> None:
        self.operation = str(operation)
        self.attempts = tuple(attempts)
        super().__init__(
            f"{operation}: retries exhausted after {len(self.attempts)} attempt(s)"
        )

    def __reduce__(self):  # crosses process-pool boundaries intact
        return (type(self), (self.operation, self.attempts))


class ShardLostError(ReproError, RuntimeError):
    """A sharded run lost shard partials it cannot degrade around."""

    def __init__(self, message: str, lost=()) -> None:
        self.lost = tuple(lost)
        super().__init__(message)

    def __reduce__(self):  # crosses process-pool boundaries intact
        return (type(self), (self.args[0], self.lost))


class SweepWorkerLostError(ReproError, RuntimeError):
    """The sweep pool lost worker tasks past the retry budget.

    ``cells`` names the grid cells (dataset, method, epsilon, ...) whose
    results are missing.
    """

    def __init__(self, message: str, cells=()) -> None:
        self.message = str(message)
        self.cells = tuple(cells)
        super().__init__(
            message + (f" [lost cells: {', '.join(map(str, cells))}]" if cells else "")
        )

    def __reduce__(self):  # crosses process-pool boundaries intact
        return (type(self), (self.message, self.cells))


class ReplicationError(ReproError, RuntimeError):
    """Base of the replication-protocol rejections (HTTP 409 family)."""


class FencedEpochError(ReplicationError):
    """A write arrived under a fencing epoch older than the receiver's.

    This is split-brain prevention firing: after a failover the promoted
    node's epoch exceeds the old primary's, so the zombie's shipments are
    rejected with this error — and on seeing it the zombie fences itself.
    ``observed`` is the stale epoch presented, ``required`` the
    receiver's current epoch.
    """

    def __init__(self, observed: int, required: int) -> None:
        self.observed = int(observed)
        self.required = int(required)
        super().__init__(
            f"fencing epoch {self.observed} is stale (current epoch is "
            f"{self.required}); this node has been superseded"
        )

    def __reduce__(self):  # crosses process-pool boundaries intact
        return (type(self), (self.observed, self.required))


class NotPrimaryError(ReplicationError):
    """A client write reached a node that must not accept writes."""

    def __init__(self, role: str, reason: str = "") -> None:
        self.role = str(role)
        self.reason = str(reason)
        detail = f": {reason}" if reason else ""
        super().__init__(
            f"node is {role}, not an accepting primary{detail}"
        )

    def __reduce__(self):  # crosses process-pool boundaries intact
        return (type(self), (self.role, self.reason))


class ReplicaGapError(ReplicationError):
    """A standby refused a replication frame it cannot order.

    ``expected`` is the WAL sequence the standby needs next; ``got`` the
    sequence the primary shipped.  The primary heals the gap by
    re-shipping from ``expected``.
    """

    def __init__(self, expected: int, got: int) -> None:
        self.expected = int(expected)
        self.got = int(got)
        super().__init__(
            f"replication gap: standby expects sequence {self.expected}, "
            f"got {self.got}"
        )

    def __reduce__(self):  # crosses process-pool boundaries intact
        return (type(self), (self.expected, self.got))


class ReplicaDivergenceError(ReplicationError):
    """Two nodes hold different records at the same WAL sequence.

    The byte-identical-replica guarantee rests on both nodes agreeing
    on the record sequence; a mismatch means one side carries a forked
    suffix (typically a zombie primary's un-replicated writes after a
    failover).  ``sequence`` is the first diverging position; the
    holder of the stale fork must truncate and re-sync from there —
    acking it as a duplicate would count divergent histories toward
    quorum.
    """

    def __init__(self, sequence: int, reason: str = "") -> None:
        self.sequence = int(sequence)
        self.reason = str(reason)
        detail = f": {reason}" if reason else ""
        super().__init__(
            f"replica histories diverge at WAL sequence {self.sequence}{detail}"
        )

    def __reduce__(self):  # crosses process-pool boundaries intact
        return (type(self), (self.sequence, self.reason))


class ReplicationQuorumError(ReplicationError):
    """A quorum-ack replication round fell short of its ack target.

    The batch *is* WAL-durable on the primary — the failure is about
    replication breadth, not data loss — so the error is retryable:
    a duplicate submission re-drives shipping without re-folding.
    ``acked`` standbys confirmed out of ``total``; ``needed`` is the
    quorum target.
    """

    def __init__(self, acked: int, needed: int, total: int) -> None:
        self.acked = int(acked)
        self.needed = int(needed)
        self.total = int(total)
        super().__init__(
            f"replication quorum not reached: {self.acked}/{self.total} "
            f"standby ack(s), need {self.needed}"
        )

    def __reduce__(self):  # crosses process-pool boundaries intact
        return (type(self), (self.acked, self.needed, self.total))


def _values_equal(mine: Any, theirs: Any) -> bool:
    """Equality that also covers ndarrays and containers of ndarrays."""
    import numpy as np

    if isinstance(mine, np.ndarray) or isinstance(theirs, np.ndarray):
        return (
            isinstance(mine, np.ndarray)
            and isinstance(theirs, np.ndarray)
            and mine.dtype == theirs.dtype
            and np.array_equal(mine, theirs)
        )
    if isinstance(mine, (list, tuple)) and isinstance(theirs, (list, tuple)):
        return len(mine) == len(theirs) and all(
            _values_equal(a, b) for a, b in zip(mine, theirs)
        )
    if isinstance(mine, Mapping) and isinstance(theirs, Mapping):
        return set(mine) == set(theirs) and all(
            _values_equal(mine[key], theirs[key]) for key in mine
        )
    return bool(mine == theirs)


def _is_published_state(value: Any) -> bool:
    """Whether a mismatch message should avoid printing the value.

    Hash pools, hash-pair families and fingerprint digests identify
    *published* randomness shared by every shard; their reprs are either
    huge (coefficient arrays) or opaque (hex digests), so the message
    names the attribute instead of dumping both values.
    """
    import numpy as np

    if isinstance(value, np.ndarray):
        return True
    if isinstance(value, (list, tuple)):
        return any(_is_published_state(v) for v in value)
    # Duck-typed: serialisable hash structures with value equality
    # (HashPairs, KWiseHash) — to_dict plus a class-defined __eq__.
    return hasattr(value, "to_dict") and "__eq__" in type(value).__dict__


def require_merge_compatible(kind: str, **attributes: Any) -> None:
    """Raise :class:`IncompatibleSketchError` unless every attribute matches.

    ``attributes`` maps a parameter name to a ``(mine, theirs)`` pair; the
    first mismatching pair raises.  This is the single merge-compatibility
    gate shared by :meth:`repro.mergeable.MergeableState.merge` (the
    frequency oracles and Fast-AGMS), :meth:`repro.api.JoinSession.merge`
    and the distributed :class:`~repro.distributed.PartialAggregate` —
    every path rejects mismatched k/m/epsilon/hash-seed combinations with
    the same message shape.

    Scalars are compared with ``==``; ndarrays (and containers of them,
    e.g. an FLH hash pool or a hash-pair family) with
    :func:`numpy.array_equal`, and their mismatch message says the shards
    must *share* the published state rather than dumping array reprs.

    >>> require_merge_compatible("sketches", m=(64, 64))
    >>> require_merge_compatible("sketches", m=(64, 128))
    Traceback (most recent call last):
        ...
    repro.errors.IncompatibleSketchError: cannot merge sketches: m mismatch (64 vs 128)
    """
    for name, pair in attributes.items():
        try:
            mine, theirs = pair
        except (TypeError, ValueError):
            raise ParameterError(
                f"require_merge_compatible expects (mine, theirs) pairs; "
                f"got {pair!r} for {name!r}"
            ) from None
        if _values_equal(mine, theirs):
            continue
        if _is_published_state(mine) or _is_published_state(theirs):
            raise IncompatibleSketchError(
                f"cannot merge {kind}: {name} differ; shards of one "
                f"collection period must share the published {name} "
                f"(same seed)"
            )
        raise IncompatibleSketchError(
            f"cannot merge {kind}: {name} mismatch ({mine!r} vs {theirs!r})"
        )
