"""Primary/standby replication with fenced failover.

:class:`ReplicatedService` extends the crash-safe
:class:`~repro.service.core.AggregationService` with a replication layer
whose whole design leans on one fact: the engine is a *pure function of
the WAL*.  The primary therefore ships nothing cleverer than its own WAL
frames — the exact crc32-framed bytes it appended, read back from the
log with :meth:`~repro.service.wal.WriteAheadLog.frame` — and a standby
appends those bytes unchanged, then folds the record through the very
same ``append → fold → checkpoint`` path ingest uses.  Two nodes that
agree on the record sequence are byte-identical: same WAL, same
accumulators, same published snapshot digest.  That is the headline
chaos property, and it is why failover needs no state transfer — the
survivor already *is* the primary, minus a name.

Protocol, frame by frame::

    primary                             standby
    ingest(batch)
      frame = encode_frame(record)
      wal.append(frame)     ──ack boundary
      fold into session
      ship {epoch, seq, wal.frame(seq)} ▶ apply_replication(payload)
                                          epoch checks (fencing)
                                          crc + record checks
                                          seq == wal length? append+fold
                                          seq <  length, same bytes as
                                            wal.frame(seq)?   duplicate ack
                                          seq <  length, bytes differ?
                                                              truncate fork,
                                                              rebuild,
                                                              append+fold
                                          seq >  length?      ReplicaGapError
      quorum reached? ack client ◀────── {applied: true, ...}

A standby that missed frames answers with the sequence it needs next
(:class:`~repro.errors.ReplicaGapError`); the primary rewinds that
link's cursor and re-ships frames read back from its WAL — catch-up is
the steady-state protocol run in a loop, not a separate code path, and
no node keeps its records in memory to serve it.

**Fencing.**  Failover is driven by the monotonic *fencing epoch*
persisted in the WAL header (:meth:`~repro.service.wal.WriteAheadLog.set_epoch`).
:meth:`ReplicatedService.promote` bumps the epoch and flips the node to
primary; from then on any shipment carrying the old epoch is rejected
with :class:`~repro.errors.FencedEpochError`, and a zombie primary that
sees that rejection **fences itself** — its own ``ingest`` starts
raising the typed 409 instead of accepting writes the cluster will
never acknowledge.  Split brain is prevented by arithmetic, not timing.

**Divergence repair.**  A zombie that appended (and folded) a record
locally before learning it was fenced holds a *forked* suffix: same
sequence numbers, different bytes.  Re-shipped frames from the new
primary byte-compare against the frame in the local WAL before any
duplicate ack; a mismatch truncates the fork (WAL first, fsynced, then
the node rebuilds through the same recovery :meth:`start` runs) and
applies the primary's frame in its place — the fencing check already
proved the sender's history authoritative.  Symmetrically, a standby
claiming to be *ahead* of the primary's WAL head raises
:class:`~repro.errors.ReplicaDivergenceError` on the primary instead of
silently counting toward quorum.

**Exactly-once interplay.**  Quorum failures surface *after* the local
WAL append, so the batch is durable but under-replicated.  The client
retries with its idempotency key; the dedup ledger short-circuits the
re-fold and :meth:`ReplicatedService._replication_repair` re-drives
shipping to quorum before re-acking.  Retries converge the cluster
instead of double-counting.

Fault points for the chaos suite (:data:`REPLICATION_FAULT_POINTS`):
``service.replicate.send`` fires per link before each shipment
(``torn-write``/``corrupt`` specs damage the frame in transit — the
standby's crc check turns the damage into a clean rejection),
``service.replicate.apply`` fires on the standby before any mutation,
and ``service.promote`` fires before the epoch bump.
"""

from __future__ import annotations

import base64
import binascii
import json
import logging
from typing import Any, Dict, List, Mapping, Optional, Sequence

from ..errors import (
    FencedEpochError,
    InjectedCrashError,
    InjectedFaultError,
    NotPrimaryError,
    ParameterError,
    ProtocolError,
    ReplicaDivergenceError,
    ReplicaGapError,
    ReplicationError,
    ReplicationQuorumError,
)
from ..reliability.faults import fault_point
from .core import AggregationService, ServiceConfig
from .wal import decode_frame

__all__ = [
    "ReplicatedService",
    "ReplicaLink",
    "LocalReplica",
    "HttpReplica",
    "ROLES",
    "ACK_MODES",
    "REPLICATION_FAULT_POINTS",
]

#: Roles a replicated node can be constructed with.
ROLES = ("primary", "standby")

#: Acknowledgement modes for primary → standby shipping.
ACK_MODES = ("quorum", "async")

#: Fault points this module threads for the chaos suite.
REPLICATION_FAULT_POINTS = (
    "service.replicate.send",
    "service.replicate.apply",
    "service.promote",
)

logger = logging.getLogger("repro.service")


class ReplicaLink:
    """One standby as seen from the primary: a named frame transport.

    Subclasses implement :meth:`replicate` — deliver one shipment
    payload and return the standby's response dict, raising the typed
    replication errors (or ``ConnectionError``) on rejection.  The
    primary tracks per-link ship cursors itself, so links are stateless
    beyond their address.
    """

    name: str = "replica"

    def replicate(self, payload: Mapping[str, Any]) -> dict:
        raise NotImplementedError


class LocalReplica(ReplicaLink):
    """In-process link to a standby service (tests and chaos schedules).

    Calls :meth:`ReplicatedService.apply_replication` directly — same
    protocol, no sockets — which lets the hypothesis suite run whole
    primary/standby/failover schedules deterministically in one process.
    """

    def __init__(self, service: "ReplicatedService", *, name: str = "local") -> None:
        self.service = service
        self.name = str(name)

    def replicate(self, payload: Mapping[str, Any]) -> dict:
        return self.service.apply_replication(payload)


class HttpReplica(ReplicaLink):
    """HTTP link to a standby's ``POST /v1/replicate`` endpoint.

    Synchronous by design: the primary's service core runs on the
    asyncio server's single worker thread, where blocking I/O is the
    contract (the event loop never sees it).  Typed 409 rejections are
    reconstructed from the response's ``error_kind`` so the primary's
    protocol handling is transport-agnostic.
    """

    def __init__(self, host: str, port: int, *, timeout: float = 5.0) -> None:
        self.host = str(host)
        self.port = int(port)
        self.timeout = float(timeout)
        self.name = f"{self.host}:{self.port}"

    def replicate(self, payload: Mapping[str, Any]) -> dict:
        import http.client

        body = json.dumps(dict(payload)).encode("utf-8")
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            connection.request(
                "POST",
                "/v1/replicate",
                body=body,
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            raw = response.read()
        except (OSError, http.client.HTTPException) as error:
            raise ConnectionError(
                f"replica {self.name} unreachable: {error}"
            ) from error
        finally:
            connection.close()
        try:
            parsed = json.loads(raw.decode("utf-8")) if raw else {}
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            raise ProtocolError(
                f"replica {self.name} returned undecodable body: {error}"
            ) from error
        if response.status < 400:
            return parsed
        raise self._rejection(response.status, parsed)

    def _rejection(self, status: int, body: Mapping[str, Any]) -> Exception:
        """Rebuild the standby's typed rejection from its JSON body."""
        kind = body.get("error_kind")
        if kind == "fenced":
            return FencedEpochError(body.get("observed", 0), body.get("required", 0))
        if kind == "gap":
            return ReplicaGapError(body.get("expected", 0), body.get("got", 0))
        if kind == "diverged":
            return ReplicaDivergenceError(
                body.get("sequence", 0), body.get("reason", "")
            )
        if kind == "not_primary":
            return NotPrimaryError(body.get("role", "unknown"), body.get("reason", ""))
        if kind == "bad_frame":
            return ParameterError(
                f"replica {self.name} rejected frame: {body.get('error', status)}"
            )
        if status in (429, 503):
            # Overload / quorum trouble downstream: transient, retryable.
            return ConnectionError(
                f"replica {self.name} unavailable (HTTP {status}): "
                f"{body.get('error', '')}"
            )
        return ProtocolError(
            f"replica {self.name} rejected replication with HTTP {status}: "
            f"{body.get('error', '')}"
        )


class ReplicatedService(AggregationService):
    """An :class:`AggregationService` that ships its WAL to standbys.

    A **primary** accepts client ingest and streams every appended
    record to its :class:`ReplicaLink`\\ s (``ack_mode="quorum"`` holds
    the client ack until a majority of standbys confirmed;
    ``"async"`` ships best-effort and lets gap catch-up heal stragglers).
    A **standby** rejects client writes with a typed 409 and accepts
    frames via :meth:`apply_replication` until :meth:`promote` flips it.
    With no links configured a primary degrades to exactly the standalone
    service (quorum of zero).
    """

    def __init__(
        self,
        config: ServiceConfig,
        *,
        role: str = "primary",
        replicas: Sequence[ReplicaLink] = (),
        ack_mode: str = "quorum",
    ) -> None:
        if role not in ROLES:
            raise ParameterError(f"role must be one of {ROLES}, got {role!r}")
        if ack_mode not in ACK_MODES:
            raise ParameterError(
                f"ack_mode must be one of {ACK_MODES}, got {ack_mode!r}"
            )
        super().__init__(config)
        self._role = role
        self.ack_mode = ack_mode
        self.replicas: List[ReplicaLink] = list(replicas)
        self._cursors: Dict[int, int] = {}  # link index -> next sequence to ship
        self._fenced_by: Optional[int] = None  # epoch that superseded this node

    # ------------------------------------------------------------------
    # Role / fencing
    # ------------------------------------------------------------------
    @property
    def role(self) -> str:
        """``primary`` / ``standby``, or ``fenced`` once superseded."""
        if self._fenced_by is not None:
            return "fenced"
        return self._role

    @property
    def quorum(self) -> int:
        """Standby acks needed before a quorum-mode client ack.

        ``(N + 1) // 2`` of ``N`` standbys — together with the primary's
        own WAL append that is a strict majority of the ``N + 1``-node
        cluster, so two disjoint quorums always share a node and a
        promoted epoch cannot be unknowingly forked.  Zero links means
        quorum zero: a lone primary is the standalone service.
        """
        return (len(self.replicas) + 1) // 2 if self.replicas else 0

    def _check_writable(self) -> None:
        if self._fenced_by is not None:
            raise FencedEpochError(self.wal.epoch, self._fenced_by)
        if self._role != "primary":
            raise NotPrimaryError(
                self._role, "client writes go to the primary; this node replicates"
            )

    def _fence(self, required: int) -> None:
        """Record that epoch ``required`` superseded us; stop accepting."""
        if self._fenced_by is None or required > self._fenced_by:
            self._fenced_by = int(required)
            logger.warning(
                "self-fenced: local epoch %d superseded by %d; rejecting writes",
                self.wal.epoch,
                required,
            )

    def promote(self) -> dict:
        """Make this node the primary under a freshly bumped epoch.

        The new epoch strictly exceeds both the local epoch and any
        epoch this node was fenced by, and it is fsynced into the WAL
        header *before* the role flips — a crash mid-promotion leaves
        either the old standby or a fully fenced-forward primary, never
        a primary running under a stale epoch.  Idempotent on a healthy
        primary.
        """
        self._require_started()
        fault_point(
            "service.promote", epoch=int(self.wal.epoch), role=str(self._role)
        )
        if self._role == "primary" and self._fenced_by is None:
            return {
                "role": "primary",
                "fencing_epoch": self.wal.epoch,
                "promoted": False,
            }
        new_epoch = max(self.wal.epoch, self._fenced_by or 0) + 1
        self.wal.set_epoch(new_epoch)
        self._fenced_by = None
        self._role = "primary"
        logger.warning("promoted to primary at fencing epoch %d", new_epoch)
        return {"role": "primary", "fencing_epoch": new_epoch, "promoted": True}

    # ------------------------------------------------------------------
    # Primary side: shipping
    # ------------------------------------------------------------------
    def _frame_payload(self, sequence: int) -> dict:
        frame = self.wal.frame(sequence)
        return {
            "epoch": int(self.wal.epoch),
            "sequence": int(sequence),
            "frame": base64.b64encode(frame).decode("ascii"),
        }

    def _after_append(self, record: Mapping[str, Any], sequence: int) -> None:
        if self.replicas:
            self._ship_all()

    def _replication_repair(self) -> None:
        if self._role == "primary" and self.replicas:
            self._ship_all()

    def _ship_all(self) -> None:
        """Ship every link to the WAL head; enforce quorum if asked.

        Each link advances independently from its own cursor, so one
        dead standby cannot stall the others.  In ``quorum`` mode a
        round that leaves fewer than :attr:`quorum` links fully caught
        up raises :class:`~repro.errors.ReplicationQuorumError` — the
        batch stays WAL-durable locally and a retried (idempotent)
        submission re-drives this exact method.
        """
        acked = 0
        for index, link in enumerate(self.replicas):
            try:
                self._ship_link(index, link)
            except FencedEpochError as error:
                # The standby runs a newer epoch: we are the zombie.
                self._fence(error.required)
                raise
            except InjectedCrashError:
                raise  # models this process dying mid-send
            except (
                InjectedFaultError,
                ReplicationError,
                ParameterError,
                ProtocolError,
                ConnectionError,
                OSError,
            ) as error:
                logger.warning("replication to %s failed: %s", link.name, error)
            else:
                acked += 1
        if self.ack_mode == "quorum" and acked < self.quorum:
            raise ReplicationQuorumError(acked, self.quorum, len(self.replicas))

    def _ship_link(self, index: int, link: ReplicaLink) -> None:
        """Advance one link's cursor to the WAL head (gap-healing loop)."""
        cursor = self._cursors.get(index, 0)
        rewinds = 0
        while cursor < len(self.wal):
            payload = self._frame_payload(cursor)
            spec = fault_point(
                "service.replicate.send",
                sequence=int(cursor),
                replica=str(link.name),
            )
            if spec is not None and spec.kind in ("torn-write", "corrupt"):
                payload = dict(payload, frame=self._damage(payload["frame"], spec.kind))
            try:
                link.replicate(payload)
            except ReplicaGapError as error:
                if error.expected > len(self.wal):
                    # The standby claims records past our WAL head: its
                    # history forked ahead of ours.  Counting the link
                    # as caught up would quorum-ack writes nobody
                    # shares; surface the fork instead.
                    raise ReplicaDivergenceError(
                        len(self.wal),
                        f"standby {link.name} expects sequence "
                        f"{error.expected} but this primary's WAL ends "
                        f"at {len(self.wal)}",
                    ) from error
                # The standby told us where it actually is; trust it —
                # backwards (it lost frames) or forwards (it already has
                # some) — but refuse to loop on a non-advancing answer.
                if error.expected == cursor or rewinds >= 2:
                    raise
                rewinds += 1
                cursor = max(0, int(error.expected))
                continue
            cursor += 1
            self._cursors[index] = cursor

    @staticmethod
    def _damage(frame_b64: str, kind: str) -> str:
        """Apply an injected in-transit tear/bit-flip to a frame."""
        raw = base64.b64decode(frame_b64)
        if kind == "torn-write":
            raw = raw[: max(1, len(raw) // 2)]
        else:
            flip = len(raw) // 2
            raw = raw[:flip] + bytes([raw[flip] ^ 0xFF]) + raw[flip + 1 :]
        return base64.b64encode(raw).decode("ascii")

    # ------------------------------------------------------------------
    # Standby side: applying
    # ------------------------------------------------------------------
    def apply_replication(self, payload: Mapping[str, Any]) -> dict:
        """Apply one shipped frame; the standby half of the protocol.

        Validation order is deliberate: fencing first (a stale sender
        must learn it is a zombie even when its frame is damaged or
        out of order), then frame integrity (crc inside the frame — a
        torn shipment is rejected *before* any state changes) and the
        record checks ingest makes before its append (a record that
        cannot fold would fail every replay), then sequencing.  The
        apply path is byte-for-byte the ingest path: ``wal.append`` of
        the received frame bytes, the same derived fold seed, the same
        checkpoint cadence — which is the whole theorem.
        """
        self._require_started()
        try:
            epoch = int(payload["epoch"])
            sequence = int(payload["sequence"])
            frame = base64.b64decode(str(payload["frame"]), validate=True)
        except (KeyError, TypeError, ValueError, binascii.Error) as error:
            raise ParameterError(
                f"malformed replication payload: {error}"
            ) from error
        if epoch < self.wal.epoch:
            raise FencedEpochError(epoch, self.wal.epoch)
        spec = fault_point(
            "service.replicate.apply", sequence=sequence, epoch=epoch
        )
        if spec is not None and spec.kind in ("torn-write", "corrupt"):
            frame = base64.b64decode(self._damage(payload["frame"], spec.kind))
        record = decode_frame(frame)  # crc-validated; ParameterError on damage
        # The primary's checks (names, attribute, integer values, domain)
        # but not its admission cap, which is a client policy.
        self._validate_batch(
            record.get("tenant"),
            record.get("stream"),
            record.get("values"),
            record.get("attribute"),
        )
        if epoch > self.wal.epoch:
            # A newer primary speaks: adopt its epoch (fsynced into the
            # WAL header) and, if we thought we led, stand down.
            self.wal.set_epoch(epoch)
            if self._role == "primary":
                logger.warning(
                    "demoted: epoch %d supersedes this primary", epoch
                )
                self._role = "standby"
            self._fenced_by = None
        elif self._role == "primary" and self._fenced_by is None:
            raise NotPrimaryError(
                "primary",
                f"two primaries share fencing epoch {epoch}; promote one "
                f"to fence the other",
            )
        expected = self._folded
        if sequence < expected:
            if self.wal.frame(sequence) == frame:
                return {
                    "applied": False,
                    "duplicate": True,
                    "sequence": sequence,
                    "wal_sequence": self._folded,
                    "epoch": self.wal.epoch,
                }
            # Same sequence, different bytes: our un-replicated suffix
            # lost a failover race.  The sender already passed the
            # fencing check, so its history is authoritative — drop the
            # fork and fall through to apply its frame at the new head.
            logger.warning(
                "divergent record at sequence %d (epoch %d): truncating "
                "%d forked local record(s) to re-sync with the primary",
                sequence,
                self.wal.epoch,
                expected - sequence,
            )
            self._rewind_to(sequence)
            expected = self._folded
        if sequence > expected:
            raise ReplicaGapError(expected, sequence)
        applied, _ = self._append(frame, record, "service.replicate.apply")
        if (applied + 1) % self.config.checkpoint_interval == 0:
            self.flush()
        return {
            "applied": True,
            "sequence": applied,
            "wal_sequence": self._folded,
            "epoch": self.wal.epoch,
        }

    def _rewind_to(self, sequence: int) -> None:
        """Drop every record at/after ``sequence``; rebuild through recovery.

        The WAL is truncated first (fsynced) so a crash mid-rebuild
        recovers the same shortened history.  The node then rebuilds
        through the same recovery :meth:`start` runs, under the retry
        policy: it resets the accumulator, ring, tenant counters and
        dedup ledger, and re-folds the kept prefix — from the checkpoint
        when a flush over the kept records could have written its cursor,
        else from the first record.  A fold is a pure function of ``(record, sequence)``, so
        the rebuilt state is byte-identical to a node that never held
        the fork.  A published snapshot that included dropped records is
        withdrawn, and the checkpoint is reflushed so no on-disk cursor
        outlives the truncation.
        """
        self.wal.truncate_to(sequence)
        self._retry.call(self._rebuild, operation="service.rewind")
        if self._snapshot is not None and self._snapshot.wal_records > sequence:
            self._snapshot = None
        self.flush()

    # ------------------------------------------------------------------
    # Status
    # ------------------------------------------------------------------
    def status(self) -> dict:
        summary = super().status()
        summary["ack_mode"] = self.ack_mode
        summary["quorum"] = self.quorum
        summary["fenced_by"] = self._fenced_by
        summary["replicas"] = [
            {"name": link.name, "cursor": self._cursors.get(index, 0)}
            for index, link in enumerate(self.replicas)
        ]
        return summary
