"""Deterministic engine of the online aggregation service.

:class:`AggregationService` is the crash-safe, *synchronous* core the
asyncio front-end (:mod:`repro.service.server`) wraps: it owns the WAL,
one :class:`~repro.temporal.TemporalSession` accumulator, its
:class:`~repro.distributed.ShardCheckpoint`, and the published snapshot
queries are answered from.  Everything here is a pure function
of the report stream — no wall clock, no global RNG — which is what
makes the headline invariant testable: kill the process at any instant,
restart, and the next published snapshot is byte-identical to a run that
never crashed.

The determinism chain, link by link:

1.  A batch is acknowledged only after its record is in the WAL; the
    record's *sequence number* is its replay position.  The WAL is the
    node's only record store: nothing else keeps a record once it is
    folded, and every rebuild (a restart, a standby's divergence
    rewind) reads the records back from it.
2.  The batch's client-simulation randomness is
    ``batch_seed(service_seed, sequence)`` — a sha256 derivation, so a
    replayed fold draws exactly the bits the dying process drew.
3.  Each record folds once, into the open epoch of the node's one
    accumulator (epoch ``sequence // epoch_interval``; with
    ``epoch_interval`` 0 it never rolls).  The checkpoint persists
    ``(partial, cursor)``: epochs off, the open epoch and the count of
    WAL records folded; epochs on, the prefix of evicted epochs and the
    first record after it.  Recovery restores it and re-folds only
    records at or past the cursor.  A corrupt checkpoint, or one another
    ``epoch_interval`` wrote, downgrades to a cold start — the WAL
    replays the lot.
4.  :meth:`AggregationService.publish` serialises the accumulator's
    summed partial (timing counters excluded) as one canonical-JSON payload;
    the snapshot *is* those bytes, the digest their sha256.  Sorted-key
    JSON makes the bytes independent of dict insertion histories.

Fault points threaded for the chaos suite: ``service.ingest`` (before
any fold mutation — retry-safe), ``service.wal.append`` (inside
:class:`~repro.service.wal.WriteAheadLog`), ``service.merge`` and
``service.snapshot`` (inside :meth:`publish`, which is pure and hence
retryable), ``service.query`` (before answering — also pure).
"""

from __future__ import annotations

import hashlib
import json
import logging
from collections import OrderedDict, abc
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..api.session import JoinSession
from ..core.params import SketchParams
from ..distributed.checkpoint import ShardCheckpoint
from ..errors import (
    CheckpointCorruptError,
    DomainError,
    ParameterError,
    ProtocolError,
)
from ..hashing.kwise import check_domain
from ..reliability.faults import fault_point
from ..reliability.retry import RetryPolicy
from ..temporal.session import TemporalSession
from .wal import FSYNC_POLICIES, WriteAheadLog, encode_frame

__all__ = [
    "AggregationService",
    "ServiceConfig",
    "Snapshot",
    "batch_seed",
    "SNAPSHOT_FORMAT",
    "SNAPSHOT_VERSION",
]

#: Marker + version of the published snapshot payload.
SNAPSHOT_FORMAT = "repro/service-snapshot"
SNAPSHOT_VERSION = 2

logger = logging.getLogger("repro.service")


def _int64_values(values) -> np.ndarray:
    """``values`` as an int64 array, refusing what a cast would coerce.

    ``np.asarray(values, dtype=np.int64)`` truncates floats and turns
    booleans and numeric strings into integers, so the element types are
    checked first: an integer-dtype array passes, and so does a sequence
    of Python or NumPy integers without a bool among them.
    """
    if isinstance(values, np.ndarray):
        if values.dtype.kind not in "iu":
            raise TypeError(f"got a {values.dtype} array")
        return values.astype(np.int64, copy=False)
    if not isinstance(values, abc.Sequence):
        raise TypeError(f"got a {type(values).__name__}")
    bad = sorted(
        kind.__name__
        for kind in set(map(type, values))
        if issubclass(kind, bool) or not issubclass(kind, (int, np.integer))
    )
    if bad:
        raise TypeError(f"got {', '.join(bad)} elements")
    return np.fromiter(values, dtype=np.int64, count=len(values))


def batch_seed(service_seed: int, sequence: int) -> int:
    """The client-simulation seed of WAL record ``sequence``.

    A pure sha256 derivation of ``(service_seed, sequence)`` — no state,
    no wall clock — so replaying a WAL record after a crash draws
    exactly the randomness the original fold drew.  This is the link
    that turns "replay the WAL" into "byte-identical accumulators".
    """
    material = f"repro-service:{int(service_seed)}:{int(sequence)}".encode("ascii")
    return int.from_bytes(hashlib.sha256(material).digest()[:8], "little")


@dataclass(frozen=True)
class ServiceConfig:
    """Everything the service derives its behaviour from.

    The config is part of the determinism contract: two services started
    with the same config over the same report stream publish the same
    bytes.  ``data_dir`` holds the WAL (``wal.log``) and the node's one
    checkpoint (``node.ckpt``).  ``shard-N.ckpt`` files that older
    builds left there are ignored: the first start replays the WAL.
    """

    data_dir: Union[str, Path]
    k: int = 16
    m: int = 1024
    epsilon: float = 4.0
    seed: int = 0
    checkpoint_interval: int = 32  #: WAL records between checkpoint flushes
    wal_fsync: str = "always"
    retries: int = 3  #: attempt budget of every retried internal operation
    max_batch_reports: int = 65536  #: admission cap on one batch's size
    dedup_retention: int = 4096  #: idempotency-ledger entries kept per service
    epoch_interval: int = 0  #: WAL records per epoch (0 disables temporal)
    window_epochs: int = 8  #: closed epochs retained for window queries

    def __post_init__(self) -> None:
        if self.checkpoint_interval < 1:
            raise ParameterError(
                f"checkpoint_interval must be >= 1, got {self.checkpoint_interval}"
            )
        if self.wal_fsync not in FSYNC_POLICIES:
            raise ParameterError(
                f"wal_fsync must be one of {FSYNC_POLICIES}, got {self.wal_fsync!r}"
            )
        if self.retries < 1:
            raise ParameterError(f"retries must be >= 1, got {self.retries}")
        if self.max_batch_reports < 1:
            raise ParameterError(
                f"max_batch_reports must be >= 1, got {self.max_batch_reports}"
            )
        if self.dedup_retention < 1:
            raise ParameterError(
                f"dedup_retention must be >= 1, got {self.dedup_retention}"
            )
        if self.epoch_interval < 0:
            raise ParameterError(
                f"epoch_interval must be >= 0 (0 disables temporal windows), "
                f"got {self.epoch_interval}"
            )
        if self.window_epochs < 1:
            raise ParameterError(
                f"window_epochs must be >= 1, got {self.window_epochs}"
            )

    @property
    def params(self) -> SketchParams:
        return SketchParams(self.k, self.m, self.epsilon)


@dataclass(frozen=True)
class Snapshot:
    """One published snapshot: canonical bytes plus their identity.

    ``payload_bytes`` is the canonical JSON (sorted keys, compact
    separators) of the timing-free partial; ``digest`` its
    sha256.  Byte-identical recovery means byte-identical
    ``payload_bytes`` — the chaos suite compares exactly these.
    """

    digest: str
    wal_records: int  #: WAL records folded into this snapshot
    payload_bytes: bytes
    session: JoinSession = field(repr=False, compare=False)

    def info(self) -> dict:
        """JSON-compatible identity (no payload) for status endpoints."""
        return {
            "digest": self.digest,
            "wal_records": self.wal_records,
            "payload_size": len(self.payload_bytes),
            "streams": list(self.session.streams()),
        }


class AggregationService:
    """Crash-safe aggregation over WAL-durable LDP report batches.

    Lifecycle: construct, :meth:`start` (recovers WAL + checkpoints),
    then any interleaving of :meth:`ingest`, :meth:`publish` and the
    query methods; :meth:`close` flushes and releases files.  All
    methods are synchronous and single-threaded by design — the asyncio
    server serialises ingest through one worker coroutine, which is what
    assigns WAL sequence numbers a total order.
    """

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.data_dir = Path(config.data_dir)
        # The node's one record store: the accumulator, ring, tenant
        # counters and dedup ledger below are folded from it, and
        # _rebuild() recomputes them all from it.
        self.wal = WriteAheadLog(self.data_dir / "wal.log", fsync=config.wal_fsync)
        # The node's one accumulator; its seed draws the published hash
        # pairs.  The checkpoint must not reuse the ``shard-N.ckpt`` names
        # of older builds: each holds only some of the records under a
        # full-length cursor, so reading one as node state loses data.
        self._temporal = TemporalSession(
            config.params, window_epochs=config.window_epochs, seed=config.seed
        )
        self._checkpoint = ShardCheckpoint(self.data_dir / "node.ckpt")
        self._retry = RetryPolicy(config.retries, seed=config.seed)
        self._folded = 0  # WAL records folded into the accumulator
        self._last_checkpoint = 0  # cursor of the newest complete flush
        self._snapshot: Optional[Snapshot] = None
        self._started = False
        self.recovery: Optional[dict] = None
        self.tenants: Dict[str, Dict[str, int]] = {}
        # Exactly-once ingest: (tenant, idempotency_key) -> original ack.
        # Entries ride inside WAL records ("idem" field), so the ledger is
        # WAL-durable for free — start() rebuilds it during replay.
        self._dedup: "OrderedDict[Tuple[str, str], dict]" = OrderedDict()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> dict:
        """Recover WAL + checkpoint; returns the recovery summary.

        Safe on a cold directory (starts empty) and after any crash:
        torn WAL tails are truncated, a corrupt checkpoint downgrades to
        a cold start (``cold_start`` names the reason), and every intact
        WAL record at or past the checkpoint cursor is re-folded with its
        original derived seed.  Replay runs outside the retry policy: a
        fault that kills it kills the start, and restarting is the retry.
        """
        self.recovery = self._rebuild()
        self._started = True
        return self.recovery

    def _rebuild(self) -> dict:
        """Reset the node and rebuild it from the WAL; the recovery summary.

        The one rebuild path: :meth:`start` runs it, and so does a
        replicated node's divergence rewind after cutting its WAL.  It
        starts from empty state (same hash pairs), so re-running it after
        a fault is clean.
        """
        self._temporal = TemporalSession(
            self.config.params,
            window_epochs=self.config.window_epochs,
            pairs=self._temporal.pairs,
        )
        self.tenants = {}
        self._dedup.clear()
        records, tear = self.wal.recover()
        if tear is not None:
            # Typed downgrade: a torn tail is an expected crash artefact,
            # not corruption of acknowledged data — but operators (and the
            # chaos harness) must be able to see *why* bytes were dropped.
            logger.warning(
                "wal tear recovered: reason=%r offset=%d dropped_bytes=%d",
                tear.reason,
                tear.offset,
                tear.dropped_bytes,
            )
        cold_start: Optional[str] = None
        cursor = 0
        try:
            state = self._checkpoint.load()
        except CheckpointCorruptError as error:
            cold_start = error.reason
            state = None
        interval = self.config.epoch_interval
        if state is not None:
            partial, cursor = state
            # A checkpoint ahead of the WAL can only happen under fsync
            # policies weaker than the checkpoint's, or after a rewind
            # cut the WAL beneath it (or the ring beneath the prefix); one
            # of another epoch_interval, after epochs were switched on,
            # off or resized.  The WAL is the acknowledgement boundary, so
            # it wins: drop the checkpoint and re-fold from the log.
            limit = self._checkpoint_cursor(len(records))
            written = partial.meta.get("epoch_interval", 0)
            if cursor > limit or written != interval:
                cold_start = (
                    f"checkpoint cursor {cursor} ahead of the {len(records)}-record WAL"
                    if cursor > len(records)
                    else f"checkpoint cursor {cursor} at epoch_interval {written} is "
                    f"not one this config writes (cursor {limit}, interval {interval})"
                )
                cursor = 0
            elif interval:
                self._temporal.resume(
                    partial, cursor // interval, charges_per_epoch=interval
                )
            else:
                self._temporal.open_session.merge(partial)
        for sequence, record in enumerate(records):
            self._count_tenant(record)
            self._remember_ack(record, sequence)
            if sequence >= cursor:
                self._fold(record, sequence)
        self._folded = len(records)
        self._last_checkpoint = cursor
        return {
            "wal_records": len(records),
            "replayed": len(records) - cursor,
            "torn_tail": None if tear is None else tear.to_dict(),
            "cold_start": cold_start,
        }

    def _checkpoint_cursor(self, records: int) -> int:
        """The cursor a flush writes once ``records`` records are folded.

        All of them; with epochs on, the first record the ring retains.
        """
        interval = self.config.epoch_interval
        if not interval:
            return records
        evicted = (records - 1) // interval - self.config.window_epochs
        return max(evicted, 0) * interval

    def flush(self) -> None:
        """Durability barrier: fsync the WAL, checkpoint the accumulator."""
        self._require_started()
        self.wal.sync()
        cursor = self._checkpoint_cursor(self._folded)
        temporal = self._temporal
        partial = (
            temporal.prefix if self.config.epoch_interval else temporal.open_session.to_partial()
        )
        partial.meta["epoch_interval"] = self.config.epoch_interval  # what cursor counts
        self._checkpoint.flush(partial, cursor=cursor)
        self._last_checkpoint = cursor

    def close(self) -> None:
        """Flush state and release the WAL handle (idempotent)."""
        if self._started:
            self.flush()
        self.wal.close()

    def _require_started(self) -> None:
        if not self._started:
            raise ProtocolError(
                "service not started; call start() to recover WAL + checkpoint"
            )

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def ingest(
        self,
        tenant: str,
        stream: str,
        values: Sequence[int],
        *,
        attribute: int = 0,
        idempotency_key: Optional[str] = None,
    ) -> dict:
        """Durably ingest one report batch; returns the acknowledgement.

        The batch is validated, appended to the WAL (the acknowledgement
        boundary — once :meth:`~repro.service.wal.WriteAheadLog.append`
        returns, a crash cannot lose it), then folded into the accumulator
        under the retry policy.  The fold's ``service.ingest`` fault
        point fires *before* any mutation, so an absorbed fault re-runs
        the fold cleanly.

        ``idempotency_key`` makes retries exactly-once: the key travels
        inside the WAL record, so the dedup ledger survives crashes with
        the data it protects, and a duplicate ``(tenant, key)`` returns
        a copy of the original acknowledgement (marked
        ``"deduplicated": True``) instead of re-folding the batch.
        Retention is bounded (:attr:`ServiceConfig.dedup_retention`
        newest keys); clients must not recycle keys beyond that horizon.
        """
        self._require_started()
        self._check_writable()
        if idempotency_key is not None:
            if not isinstance(idempotency_key, str) or not idempotency_key:
                raise ParameterError(
                    f"idempotency_key must be a non-empty string, got "
                    f"{idempotency_key!r}"
                )
            original = self._dedup.get((tenant, idempotency_key))
            if original is not None:
                # The batch already landed; a retry must still leave the
                # cluster converged, so re-drive replication before
                # re-acking (no-op when every standby already has it).
                self._replication_repair()
                ack = dict(original)
                ack["deduplicated"] = True
                return ack
        array = self._validate_batch(tenant, stream, values, attribute)
        if array.size > self.config.max_batch_reports:
            raise ParameterError(
                f"batch holds {array.size} reports, over the "
                f"{self.config.max_batch_reports}-report admission cap; split it"
            )
        record = dict(
            tenant=tenant, stream=stream, attribute=int(attribute), values=array.tolist()
        )
        if idempotency_key is not None:
            record["idem"] = idempotency_key
        sequence, ack = self._append(encode_frame(record), record, "service.ingest")
        self._after_append(record, sequence)
        if (sequence + 1) % self.config.checkpoint_interval == 0:
            self.flush()
        return dict(ack)

    def _validate_batch(
        self, tenant: str, stream: str, values: Sequence[int], attribute: int
    ) -> np.ndarray:
        """One batch's values as int64, or ParameterError if it cannot fold.

        Both write paths run it before their WAL append: :meth:`ingest`
        on a client's batch, and a standby on every shipped record.
        """
        # '/' namespaces a tenant's streams in the session; '#' and '@'
        # are the ledger's cohort (``A#2``) and merge (``g@partial1``)
        # suffixes, so a name holding one could collide with a generated
        # group name and split or merge another name's accounting.
        for name, value, reserved in (
            ("tenant", tenant, "/#@"),
            ("stream", stream, "#@"),
        ):
            if not value or not isinstance(value, str):
                raise ParameterError(f"{name} must be a non-empty string, got {value!r}")
            for mark in reserved:
                if mark in value:
                    raise ParameterError(
                        f"{name} must not contain {mark!r} (reserved for "
                        f"stream and ledger group names), got {value!r}"
                    )
        # Everything the fold would reject is rejected here, before the
        # WAL append: a record that cannot fold would fail every replay.
        # The values' rule: ``int()`` would take ``0.7``, ``"0"``, ``False`` as 0.
        if isinstance(attribute, bool) or not isinstance(attribute, (int, np.integer)):
            raise ParameterError(f"attribute must be an integer, got {attribute!r}")
        self._temporal.open_session.params_for(int(attribute))  # bounds check
        try:
            array = _int64_values(values)
        except (TypeError, ValueError, OverflowError) as error:
            raise ParameterError(
                f"batch values must be a 1-D sequence of integers: {error}"
            ) from error
        if array.ndim != 1 or array.size == 0:
            raise ParameterError(
                f"batch values must be a non-empty 1-D sequence, got shape "
                f"{array.shape}"
            )
        try:
            check_domain(array)
        except DomainError as error:
            raise ParameterError(f"batch values out of domain: {error}") from error
        return array

    def _append(
        self, frame: bytes, record: Mapping[str, Any], operation: str
    ) -> Tuple[int, dict]:
        """Append ``frame``, then count, ledger and fold its ``record``.

        Ingest's and a standby's one write path; returns ``(sequence, ack)``.
        """
        sequence = self.wal.append(frame)
        self._folded = sequence + 1
        self._count_tenant(record)
        ack = self._remember_ack(record, sequence)
        self._retry.call(lambda: self._fold(record, sequence), operation=f"{operation}[{sequence}]")
        return sequence, ack

    def _fold(self, record: Mapping[str, Any], sequence: int) -> None:
        """Fold one WAL record into the open epoch (pure given the record).

        The epoch is ``sequence // epoch_interval`` — a pure function of
        the WAL position — and the batch uses its derived seed, so replay
        and replication rebuild byte-identical epochs.
        """
        fault_point(
            "service.ingest", sequence=int(sequence), tenant=str(record["tenant"])
        )
        if self.config.epoch_interval:
            self._temporal.roll_to(sequence // self.config.epoch_interval)
        self._temporal.collect(
            f"{record['tenant']}/{record['stream']}",
            np.asarray(record["values"], dtype=np.int64),
            attribute=int(record["attribute"]),
            seed=batch_seed(self.config.seed, sequence),
        )

    def _count_tenant(self, record: Mapping[str, Any]) -> None:
        stats = self.tenants.setdefault(
            str(record["tenant"]), {"batches": 0, "reports": 0}
        )
        stats["batches"] += 1
        stats["reports"] += len(record["values"])

    def _remember_ack(self, record: Mapping[str, Any], sequence: int) -> dict:
        """Compute record ``sequence``'s ack; ledger it if idempotent.

        The ack is a pure function of ``(record, sequence)``, which is
        why replaying the WAL rebuilds the exact ledger the dying
        process held — duplicates get the same bytes either side of a
        crash.  Retention is a FIFO bound on *entries*, so one hot
        tenant cannot evict nothing while a cold tenant's keys expire.
        """
        ack = {"sequence": int(sequence), "reports": len(record["values"])}
        key = record.get("idem")
        if key is not None:
            self._dedup[(str(record["tenant"]), str(key))] = ack
            while len(self._dedup) > self.config.dedup_retention:
                self._dedup.pop(next(iter(self._dedup)))
        return ack

    # ------------------------------------------------------------------
    # Replication hooks (no-ops for a standalone service)
    # ------------------------------------------------------------------
    @property
    def role(self) -> str:
        """This node's role; a standalone service is its own primary."""
        return "primary"

    def _check_writable(self) -> None:
        """Reject ingest when this node must not accept writes.

        The standalone service always may; the replicated subclass
        raises the typed 409s (standby, fenced zombie) here, *before*
        the WAL append — a rejected write leaves no trace to undo.
        """

    def _after_append(self, record: Mapping[str, Any], sequence: int) -> None:
        """Ship record ``sequence`` to standbys (replication subclass)."""

    def _replication_repair(self) -> None:
        """Re-drive replication to quorum after a failed/duplicate send."""

    # ------------------------------------------------------------------
    # Publishing
    # ------------------------------------------------------------------
    def publish(self) -> dict:
        """Publish the accumulator's state as a new snapshot.

        Pure over the accumulator — the snapshot sums it into a fresh
        query session, so injected faults at ``service.merge`` /
        ``service.snapshot`` are absorbed by a clean re-run.  The
        snapshot payload is canonical JSON with timing counters excluded
        (wall-clock accounting is real but not part of the published
        identity), which is what makes crash recovery *byte*-identical
        rather than merely value-identical.
        """
        self._require_started()
        snapshot = self._retry.call(self._build_snapshot, operation="service.publish")
        self._snapshot = snapshot
        return snapshot.info()

    def _build_snapshot(self) -> Snapshot:
        fault_point("service.merge", wal_records=self._folded)
        partials = self._temporal.partials()
        session = self._temporal.merged_session(partials)
        # Several partials publish the merged ledger, its epochs' names renamed apart.
        partial = partials[0] if len(partials) == 1 else session.to_partial(include_timing=False)
        fault_point("service.snapshot", wal_records=self._folded)
        payload = {
            "format": SNAPSHOT_FORMAT,
            "version": SNAPSHOT_VERSION,
            "wal_records": self._folded,
            "partial": partial.to_dict(),
        }
        payload_bytes = json.dumps(
            payload, sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
        return Snapshot(
            digest=hashlib.sha256(payload_bytes).hexdigest(),
            wal_records=self._folded,
            payload_bytes=payload_bytes,
            session=session,
        )

    @property
    def snapshot(self) -> Optional[Snapshot]:
        """The latest published snapshot, or ``None`` before the first."""
        return self._snapshot

    def pending_records(self) -> int:
        """WAL records folded since the last published snapshot."""
        published = 0 if self._snapshot is None else self._snapshot.wal_records
        return self._folded - published

    # ------------------------------------------------------------------
    # Queries (answered from the published snapshot)
    # ------------------------------------------------------------------
    def _published_session(self) -> JoinSession:
        if self._snapshot is None:
            raise ProtocolError(
                "no snapshot published yet; POST /v1/publish (or wait for the "
                "publisher) before querying"
            )
        return self._snapshot.session

    @staticmethod
    def _qualify(tenant: str, stream: str) -> str:
        return f"{tenant}/{stream}"

    def estimate(
        self,
        tenant: str,
        stream_a: str,
        stream_b: str,
        *,
        window: Optional[int] = None,
    ) -> dict:
        """Eq. (5) join-size estimate between two of a tenant's streams.

        With ``window=W`` the estimate covers only the newest ``W``
        epochs (open epoch included) and is answered from the live
        epoch ring — deterministic WAL state, no publish required —
        instead of the published snapshot.
        """
        if window is not None:
            return self._estimate_window(tenant, stream_a, stream_b, int(window))
        session = self._published_session()

        def run() -> dict:
            fault_point("service.query", kind="estimate", tenant=str(tenant))
            result = session.estimate(
                self._qualify(tenant, stream_a), self._qualify(tenant, stream_b)
            )
            return {
                "estimate": float(result.estimate),
                "num_reports": int(result.extras["num_reports"]),
                "streams": [stream_a, stream_b],
                "snapshot_digest": self._snapshot.digest,
            }

        return self._retry.call(run, operation="service.query.estimate")

    def _estimate_window(
        self, tenant: str, stream_a: str, stream_b: str, window: int
    ) -> dict:
        """Sliding-window estimate over the newest ``window`` epochs.

        The window session is a fresh sum of the ring's partials (plus
        the open epoch) — pure over deterministic WAL state, so the
        query is retry-safe and two replicas that agree on the WAL
        return identical bytes.  Each answered release is noted on the
        continual-observation ledger per covered epoch.
        """
        self._require_started()
        if not self.config.epoch_interval:
            raise ProtocolError(
                "temporal windows are disabled; start the service with "
                "epoch_interval > 0 to enable windowed estimates"
            )
        temporal = self._temporal

        def run() -> Tuple[list, dict]:
            fault_point("service.query", kind="window", tenant=str(tenant))
            entries = temporal.window_entries(window)
            session = temporal.merged_session(partial for _, partial in entries)
            result = session.estimate(
                self._qualify(tenant, stream_a), self._qualify(tenant, stream_b)
            )
            return entries, {
                "estimate": float(result.estimate),
                "num_reports": int(result.extras["num_reports"]),
                "streams": [stream_a, stream_b],
                "window": int(window),
                "epochs": [epoch for epoch, _ in entries],
            }

        entries, answer = self._retry.call(run, operation="service.query.window")
        temporal.note_release(tenant, entries)
        return answer

    def estimate_chain(self, tenant: str, streams: Sequence[str]) -> dict:
        """Eq. (27) chain-join estimate over a tenant's streams."""
        session = self._published_session()

        def run() -> dict:
            fault_point("service.query", kind="chain", tenant=str(tenant))
            result = session.estimate_chain(
                [self._qualify(tenant, name) for name in streams]
            )
            return {
                "estimate": float(result.estimate),
                "num_reports": int(result.extras["num_reports"]),
                "streams": list(streams),
                "snapshot_digest": self._snapshot.digest,
            }

        return self._retry.call(run, operation="service.query.chain")

    def frequencies(
        self,
        tenant: str,
        stream: str,
        values: Sequence[int],
        *,
        method: str = "mean",
    ) -> dict:
        """Theorem 7 frequency estimates against one published stream."""
        session = self._published_session()

        def run() -> dict:
            fault_point("service.query", kind="frequencies", tenant=str(tenant))
            estimates = session.frequencies(
                self._qualify(tenant, stream),
                np.asarray(values, dtype=np.int64),
                method=method,
            )
            return {
                "frequencies": [float(v) for v in estimates],
                "values": [int(v) for v in values],
                "stream": stream,
                "snapshot_digest": self._snapshot.digest,
            }

        return self._retry.call(run, operation="service.query.frequencies")

    # ------------------------------------------------------------------
    # Status
    # ------------------------------------------------------------------
    def status(self) -> dict:
        """JSON-compatible operational summary for status endpoints.

        ``role`` / ``fencing_epoch`` / ``wal_sequence`` /
        ``last_checkpoint_sequence`` are the replication observables:
        operators (and the chaos harness) read lag as the difference
        between two nodes' ``wal_sequence`` and verify failover by
        watching ``role`` flip and ``fencing_epoch`` bump — no log
        parsing required.
        """
        return {
            "started": self._started,
            "role": self.role,
            "fencing_epoch": self.wal.epoch,
            "wal_records": self._folded,
            "wal_sequence": self._folded,
            "wal_bytes": self.wal.size_bytes(),
            "last_checkpoint_sequence": self._last_checkpoint,
            "pending_records": self.pending_records() if self._started else 0,
            "dedup_entries": len(self._dedup),
            "snapshot": None if self._snapshot is None else self._snapshot.info(),
            "tenants": {name: dict(stats) for name, stats in self.tenants.items()},
            "recovery": self.recovery,
            "temporal": (
                None
                if not self.config.epoch_interval
                else dict(
                    self._temporal.status(),
                    epoch_interval=self.config.epoch_interval,
                )
            ),
        }
