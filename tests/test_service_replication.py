"""Replication, fenced failover, and exactly-once ingest tests.

Four attack layers on the PR's headline property — *any schedule of
primary kills, torn replication streams, and client retries leaves the
surviving node's published snapshot byte-identical to a fault-free
single-node run*:

* Unit tests for the WAL v2 fencing-epoch header (persistence,
  monotonicity, legacy-file migration) and the ``fsync="batch"``
  mid-batch crash window (recovery truncates to the last intact frame
  and the service logs a typed tear reason).
* Deterministic protocol tests: frame shipping and digest parity, gap
  catch-up, quorum arithmetic, duplicate suppression across restarts,
  promotion/fencing/zombie rejection, epoch adoption, and divergence
  repair (a zombie's forked suffix is byte-checked, truncated and
  re-synced instead of being acked as a duplicate).
* A hypothesis property driving random absorbable fault schedules over
  every replication fault point through a primary/standby pair with a
  retrying idempotent client.
* A real two-process ``kill -9`` failover: SIGKILL the primary server
  mid-stream, promote the standby over HTTP, finish the stream through
  the re-targeting client, and compare digests.
"""

from __future__ import annotations

import asyncio
import base64
import logging
import os
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    FencedEpochError,
    InjectedCrashError,
    InjectedFaultError,
    NotPrimaryError,
    ParameterError,
    ReplicaDivergenceError,
    ReplicaGapError,
    ReplicationQuorumError,
    RetryExhaustedError,
)
from repro.reliability import FaultPlan
from repro.reliability.faults import injected
from repro.service import (
    REPLICATION_FAULT_POINTS,
    AggregationService,
    CircuitBreaker,
    LocalReplica,
    ReplicaLink,
    ReplicatedService,
    ResilientClient,
    ServerConfig,
    ServiceConfig,
    ServiceServer,
    WriteAheadLog,
)
from repro.service.wal import decode_frame, encode_frame

TENANT = "acme"
SEED = 17
RETRIES = 3
MAX_TIMES = RETRIES - 1
MAX_RESTARTS = 40

#: The full fault surface of a replicated pair: the single-node points
#: plus the shipping/apply/promote points this PR threads.
REPLICATED_POINTS = (
    "service.ingest",
    "service.wal.append",
) + REPLICATION_FAULT_POINTS


def make_config(data_dir, **overrides) -> ServiceConfig:
    options = dict(
        data_dir=data_dir,
        k=3,
        m=32,
        epsilon=2.0,
        seed=SEED,
        checkpoint_interval=4,
        retries=RETRIES,
    )
    options.update(overrides)
    return ServiceConfig(**options)


def make_batches(num_batches: int = 12, reports: int = 30, seed: int = 5):
    rng = np.random.default_rng(seed)
    return [
        (TENANT, "A" if i % 2 == 0 else "B", rng.integers(0, 48, size=reports))
        for i in range(num_batches)
    ]


BATCHES = make_batches()

_BASELINE: dict = {}


def baseline():
    """``(digest, estimate)`` of the fault-free single-node run."""
    if "outcome" not in _BASELINE:
        with tempfile.TemporaryDirectory(prefix="repro-repl-ref-") as tmp:
            service = AggregationService(make_config(Path(tmp)))
            service.start()
            for tenant, stream, values in BATCHES:
                service.ingest(tenant, stream, values)
            service.publish()
            _BASELINE["outcome"] = (
                service.snapshot.digest,
                service.estimate(TENANT, "A", "B")["estimate"],
            )
            service.close()
    return _BASELINE["outcome"]


# ---------------------------------------------------------------------------
# WAL v2: fencing-epoch header
# ---------------------------------------------------------------------------
class TestWalEpochHeader:
    def test_new_wal_starts_at_epoch_zero(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log")
        records, tear = wal.recover()
        assert (records, tear, wal.epoch) == ([], None, 0)
        wal.close()

    def test_set_epoch_persists_across_reopen(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log")
        wal.recover()
        wal.append(encode_frame({"n": 1}))
        assert wal.set_epoch(3) == 3
        wal.append(encode_frame({"n": 2}))
        wal.close()
        again = WriteAheadLog(tmp_path / "wal.log")
        records, tear = again.recover()
        assert again.epoch == 3
        assert [r["n"] for r in records] == [1, 2] and tear is None
        again.close()

    def test_epoch_is_monotonic(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log")
        wal.recover()
        wal.set_epoch(5)
        assert wal.set_epoch(5) == 5  # idempotent
        with pytest.raises(ParameterError, match="monotonic"):
            wal.set_epoch(4)
        wal.close()

    def test_set_epoch_requires_recover(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log")
        with pytest.raises(ParameterError):
            wal.set_epoch(1)

    def test_legacy_headerless_file_migrates(self, tmp_path):
        # A v1 WAL: frames only, no file header.
        path = tmp_path / "wal.log"
        legacy = [{"tenant": TENANT, "n": i} for i in range(4)]
        path.write_bytes(b"".join(encode_frame(r) for r in legacy))
        wal = WriteAheadLog(path)
        records, tear = wal.recover()
        assert records == legacy and tear is None
        assert wal.epoch == 0
        wal.append(encode_frame({"n": 99}))
        wal.close()
        # After migration the file is a v2 file: reopen reads the header.
        again = WriteAheadLog(path)
        records, tear = again.recover()
        assert [r["n"] for r in records] == [0, 1, 2, 3, 99]
        again.close()

    @pytest.mark.parametrize("size", [4, 6, 15])
    def test_torn_file_header_reinitialises_at_epoch_zero(self, tmp_path, size):
        # A power cut during file creation can leave any prefix of the
        # 16-byte header; recovery must treat it as a tear, not crash.
        path = tmp_path / "wal.log"
        seeded = WriteAheadLog(path)
        seeded.recover()
        seeded.close()
        path.write_bytes(path.read_bytes()[:size])
        wal = WriteAheadLog(path)
        records, tear = wal.recover()
        assert records == [] and wal.epoch == 0
        assert tear is not None and "file header" in tear.reason
        wal.append(encode_frame({"n": 1}))  # the reinitialised file accepts appends
        wal.close()
        again = WriteAheadLog(path)
        records, tear = again.recover()
        assert [r["n"] for r in records] == [1] and tear is None
        again.close()

    def test_truncate_to_drops_suffix_durably(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log")
        wal.recover()
        for n in range(5):
            wal.append(encode_frame({"n": n}))
        wal.set_epoch(2)
        assert wal.truncate_to(3) == 3
        assert len(wal) == 3
        wal.append(encode_frame({"n": 99}))
        wal.close()
        again = WriteAheadLog(tmp_path / "wal.log")
        records, tear = again.recover()
        assert [r["n"] for r in records] == [0, 1, 2, 99] and tear is None
        assert again.epoch == 2  # truncation spares the header
        with pytest.raises(ParameterError):
            again.truncate_to(99)  # only ever shortens
        again.close()

    def test_frame_codec_round_trip_and_crc(self):
        record = {"tenant": TENANT, "values": [1, 2, 3]}
        frame = encode_frame(record)
        assert decode_frame(frame) == record
        with pytest.raises(ParameterError):
            decode_frame(frame[: len(frame) // 2])  # torn
        flipped = frame[:-1] + bytes([frame[-1] ^ 0xFF])
        with pytest.raises(ParameterError):
            decode_frame(flipped)  # crc


# ---------------------------------------------------------------------------
# fsync="batch" mid-batch crash window (satellite)
# ---------------------------------------------------------------------------
class TestBatchFsyncCrashWindow:
    def _torn_dir(self, tmp_path) -> Path:
        """A data dir whose WAL lost its unsynced tail mid-frame.

        Three records are synced (explicit durability barrier), two more
        ride in the page cache; the simulated power cut then drops the
        cache and tears the fourth frame mid-write.
        """
        data_dir = tmp_path / "victim"
        service = AggregationService(
            make_config(data_dir, wal_fsync="batch", checkpoint_interval=100)
        )
        service.start()
        for index, (tenant, stream, values) in enumerate(BATCHES[:5]):
            service.ingest(tenant, stream, values)
            if index == 2:
                service.wal.sync()
                synced_size = (data_dir / "wal.log").stat().st_size
        # Crash: nothing past the sync is guaranteed. Model the worst
        # survivor the kernel can leave — the fourth frame half-written.
        wal_path = data_dir / "wal.log"
        raw = wal_path.read_bytes()
        fourth = raw[synced_size:]
        keep = synced_size + max(1, len(fourth) // 3)
        wal_path.write_bytes(raw[:keep])
        return data_dir

    def test_recovery_truncates_to_last_synced_frame(self, tmp_path):
        data_dir = self._torn_dir(tmp_path)
        wal = WriteAheadLog(data_dir / "wal.log", fsync="batch")
        records, tear = wal.recover()
        assert len(records) == 3  # the synced prefix, nothing else
        assert tear is not None and "truncated payload" in tear.reason
        wal.close()

    def test_service_downgrade_logs_typed_tear_reason(self, tmp_path, caplog):
        data_dir = self._torn_dir(tmp_path)
        service = AggregationService(make_config(data_dir, wal_fsync="batch"))
        with caplog.at_level(logging.WARNING, logger="repro.service"):
            recovery = service.start()
        assert recovery["wal_records"] == 3
        assert "truncated payload" in recovery["torn_tail"]["reason"]
        tear_logs = [
            record
            for record in caplog.records
            if "wal tear recovered" in record.getMessage()
        ]
        assert tear_logs, "recovery must log the typed tear reason"
        assert "truncated payload" in tear_logs[0].getMessage()
        # The surviving prefix folds to the fault-free bytes.
        reference = AggregationService(make_config(tmp_path / "ref"))
        reference.start()
        for tenant, stream, values in BATCHES[:3]:
            reference.ingest(tenant, stream, values)
        assert service.publish()["digest"] == reference.publish()["digest"]
        service.close()
        reference.close()


# ---------------------------------------------------------------------------
# Exactly-once ingest
# ---------------------------------------------------------------------------
class TestExactlyOnceIngest:
    def test_duplicate_returns_original_ack(self, tmp_path):
        service = AggregationService(make_config(tmp_path / "svc"))
        service.start()
        ack = service.ingest(TENANT, "A", [1, 2, 3], idempotency_key="k1")
        digest = service.publish()["digest"]
        dup = service.ingest(TENANT, "A", [1, 2, 3], idempotency_key="k1")
        assert dup == {**ack, "deduplicated": True}
        # No re-fold, no new WAL record: the published bytes stand.
        assert service.status()["wal_records"] == 1
        assert service.publish()["digest"] == digest
        service.close()

    def test_ledger_survives_restart(self, tmp_path):
        data_dir = tmp_path / "svc"
        service = AggregationService(make_config(data_dir))
        service.start()
        ack = service.ingest(TENANT, "A", [7, 8], idempotency_key="boot-1")
        service.close()
        reborn = AggregationService(make_config(data_dir))
        reborn.start()
        dup = reborn.ingest(TENANT, "A", [7, 8], idempotency_key="boot-1")
        assert dup == {**ack, "deduplicated": True}
        assert reborn.status()["wal_records"] == 1
        reborn.close()

    def test_retention_is_bounded(self, tmp_path):
        service = AggregationService(
            make_config(tmp_path / "svc", dedup_retention=2)
        )
        service.start()
        for index in range(3):
            service.ingest(TENANT, "A", [index], idempotency_key=f"k{index}")
        assert service.status()["dedup_entries"] == 2
        # k0 fell off the horizon: resubmitting it re-folds (documented).
        resent = service.ingest(TENANT, "A", [0], idempotency_key="k0")
        assert resent["sequence"] == 3 and "deduplicated" not in resent
        service.close()

    def test_keys_are_tenant_scoped(self, tmp_path):
        service = AggregationService(make_config(tmp_path / "svc"))
        service.start()
        first = service.ingest(TENANT, "A", [1], idempotency_key="shared")
        other = service.ingest("globex", "A", [1], idempotency_key="shared")
        assert other["sequence"] == first["sequence"] + 1
        service.close()


# ---------------------------------------------------------------------------
# Replication protocol (deterministic)
# ---------------------------------------------------------------------------
def make_pair(tmp_path, *, ack_mode="quorum"):
    standby = ReplicatedService(make_config(tmp_path / "standby"), role="standby")
    standby.start()
    primary = ReplicatedService(
        make_config(tmp_path / "primary"),
        role="primary",
        replicas=[LocalReplica(standby, name="standby-0")],
        ack_mode=ack_mode,
    )
    primary.start()
    return primary, standby


class TestReplicationProtocol:
    def test_pair_publishes_identical_bytes(self, tmp_path):
        primary, standby = make_pair(tmp_path)
        for index, (tenant, stream, values) in enumerate(BATCHES):
            primary.ingest(tenant, stream, values, idempotency_key=f"b{index}")
        assert primary.publish()["digest"] == standby.publish()["digest"]
        assert primary.publish()["digest"] == baseline()[0]
        assert standby.status()["wal_sequence"] == len(BATCHES)
        primary.close()
        standby.close()

    def test_standby_rejects_client_writes(self, tmp_path):
        _, standby = make_pair(tmp_path)
        with pytest.raises(NotPrimaryError):
            standby.ingest(TENANT, "A", [1])

    def test_quorum_failure_is_retryable_and_converges(self, tmp_path):
        primary, standby = make_pair(tmp_path)

        down = {"dead": True}
        original = standby.apply_replication

        def flaky(payload):
            if down["dead"]:
                raise ConnectionError("standby unreachable")
            return original(payload)

        primary.replicas[0].service = type(
            "Stub", (), {"apply_replication": staticmethod(flaky)}
        )()
        with pytest.raises(ReplicationQuorumError):
            primary.ingest(TENANT, "A", [1, 2], idempotency_key="q1")
        # Durable locally despite the failed round.
        assert primary.status()["wal_sequence"] == 1
        down["dead"] = False
        ack = primary.ingest(TENANT, "A", [1, 2], idempotency_key="q1")
        assert ack["deduplicated"] is True and ack["sequence"] == 0
        assert standby.status()["wal_sequence"] == 1
        assert primary.publish()["digest"] == standby.publish()["digest"]
        primary.close()
        standby.close()

    def test_async_mode_catches_up_on_later_traffic(self, tmp_path):
        primary, standby = make_pair(tmp_path, ack_mode="async")
        original = standby.apply_replication
        calls = {"drop": 2}

        def flaky(payload):
            if calls["drop"] > 0:
                calls["drop"] -= 1
                raise ConnectionError("flaky network")
            return original(payload)

        primary.replicas[0].service = type(
            "Stub", (), {"apply_replication": staticmethod(flaky)}
        )()
        for index, (tenant, stream, values) in enumerate(BATCHES[:6]):
            primary.ingest(tenant, stream, values, idempotency_key=f"a{index}")
        # Async mode never raised; later ingests re-shipped the backlog.
        assert standby.status()["wal_sequence"] == 6
        assert primary.publish()["digest"] == standby.publish()["digest"]
        primary.close()
        standby.close()

    def test_gap_rejection_names_the_expected_sequence(self, tmp_path):
        primary, standby = make_pair(tmp_path)
        primary.ingest(TENANT, "A", [1], idempotency_key="g0")
        payload = primary._frame_payload(0)
        ahead = dict(payload, sequence=7)
        with pytest.raises(ReplicaGapError) as excinfo:
            standby.apply_replication(ahead)
        assert (excinfo.value.expected, excinfo.value.got) == (1, 7)
        primary.close()
        standby.close()

    def test_each_record_is_framed_once(self, tmp_path, monkeypatch):
        """The primary ships the frame it appended; the standby appends
        the bytes it received.  Every binding of ``encode_frame`` in the
        package is counted, so a second encode anywhere shows up."""
        original = encode_frame
        calls = []

        def counting(record):
            calls.append(record)
            return original(record)

        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("repro") and (
                getattr(module, "encode_frame", None) is original
            ):
                monkeypatch.setattr(module, "encode_frame", counting)
        primary, standby = make_pair(tmp_path)
        for index, (tenant, stream, values) in enumerate(BATCHES):
            primary.ingest(tenant, stream, values, idempotency_key=f"once{index}")
        assert len(calls) == len(BATCHES)
        assert [standby.wal.frame(i) for i in range(len(BATCHES))] == [
            primary.wal.frame(i) for i in range(len(BATCHES))
        ]
        primary.close()
        standby.close()

    def test_torn_frame_is_rejected_by_crc(self, tmp_path):
        primary, standby = make_pair(tmp_path)
        primary.ingest(TENANT, "A", [1], idempotency_key="t0")
        payload = primary._frame_payload(0)
        raw = base64.b64decode(payload["frame"])
        torn = dict(
            payload,
            sequence=1,
            frame=base64.b64encode(raw[: len(raw) // 2]).decode("ascii"),
        )
        with pytest.raises(ParameterError):
            standby.apply_replication(torn)
        assert standby.status()["wal_sequence"] == 1  # nothing applied
        primary.close()
        standby.close()


class TestFencedFailover:
    def test_promotion_fences_the_zombie(self, tmp_path):
        primary, standby = make_pair(tmp_path)
        for index, (tenant, stream, values) in enumerate(BATCHES[:4]):
            primary.ingest(tenant, stream, values, idempotency_key=f"f{index}")
        info = standby.promote()
        assert info == {"role": "primary", "fencing_epoch": 1, "promoted": True}
        with pytest.raises(FencedEpochError) as excinfo:
            primary.ingest(TENANT, "A", [9], idempotency_key="zombie")
        assert excinfo.value.required == 1
        assert primary.role == "fenced"
        # Once fenced, the zombie rejects before touching its WAL.
        fenced_wal = primary.status()["wal_sequence"]
        with pytest.raises(FencedEpochError):
            primary.ingest(TENANT, "A", [9], idempotency_key="zombie-2")
        assert primary.status()["wal_sequence"] == fenced_wal
        # The survivor carries the acked prefix and keeps serving writes.
        ack = standby.ingest(TENANT, "B", [5, 6], idempotency_key="post")
        assert ack["sequence"] == 4
        standby.close()

    def test_promotion_epoch_survives_restart(self, tmp_path):
        primary, standby = make_pair(tmp_path)
        primary.ingest(TENANT, "A", [1], idempotency_key="e0")
        standby.promote()
        standby.close()
        reborn = ReplicatedService(
            make_config(tmp_path / "standby"), role="primary"
        )
        reborn.start()
        assert reborn.wal.epoch == 1
        assert reborn.status()["fencing_epoch"] == 1
        reborn.close()

    def test_promote_is_idempotent_on_a_healthy_primary(self, tmp_path):
        primary, standby = make_pair(tmp_path)
        info = primary.promote()
        assert info["promoted"] is False and info["fencing_epoch"] == 0
        primary.close()
        standby.close()

    def test_higher_epoch_frame_demotes_a_primary(self, tmp_path):
        primary, standby = make_pair(tmp_path)
        primary.ingest(TENANT, "A", [1], idempotency_key="d0")
        # The standby is promoted and starts shipping back.
        standby.promote()
        standby.ingest(TENANT, "B", [2], idempotency_key="d1")
        frame = standby._frame_payload(1)
        result = primary.apply_replication(frame)
        assert result["applied"] is True and result["epoch"] == 1
        assert primary.role == "standby"  # stood down, adopted the epoch
        primary.close()
        standby.close()

    def test_same_epoch_primaries_refuse_each_other(self, tmp_path):
        primary, standby = make_pair(tmp_path)
        other = ReplicatedService(make_config(tmp_path / "other"), role="primary")
        other.start()
        other.ingest(TENANT, "A", [1], idempotency_key="x0")
        with pytest.raises(NotPrimaryError):
            primary.apply_replication(other._frame_payload(0))
        primary.close()
        standby.close()
        other.close()

    def test_status_reports_replication_observables(self, tmp_path):
        primary, standby = make_pair(tmp_path)
        for index, (tenant, stream, values) in enumerate(BATCHES[:5]):
            primary.ingest(tenant, stream, values, idempotency_key=f"s{index}")
        status = primary.status()
        assert status["role"] == "primary"
        assert status["fencing_epoch"] == 0
        assert status["wal_sequence"] == 5
        assert status["last_checkpoint_sequence"] == 4  # interval 4
        assert status["quorum"] == 1
        assert status["replicas"] == [{"name": "standby-0", "cursor": 5}]
        assert standby.status()["role"] == "standby"
        primary.close()
        standby.close()


# ---------------------------------------------------------------------------
# Divergence repair: forked histories truncate, never count toward quorum
# ---------------------------------------------------------------------------
class TestDivergenceRepair:
    def test_zombie_fork_is_truncated_not_acked_as_duplicate(self, tmp_path):
        a = ReplicatedService(make_config(tmp_path / "a"), role="primary")
        a.start()
        b = ReplicatedService(make_config(tmp_path / "b"), role="standby")
        b.start()
        a.replicas = [LocalReplica(b, name="b")]
        for index, (tenant, stream, values) in enumerate(BATCHES[:3]):
            a.ingest(tenant, stream, values, idempotency_key=f"pre{index}")
        # Partition: A keeps appending but nothing reaches B any more.
        a.replicas = []
        a.ingest(TENANT, "A", [111], idempotency_key="forked")  # seq 3, A only
        # B is promoted and takes different traffic at the same sequence.
        b.promote()
        b.replicas = [LocalReplica(a, name="a")]
        ack = b.ingest(TENANT, "B", [222], idempotency_key="winner")
        assert ack["sequence"] == 3
        # Shipping demoted A, dropped its fork, and applied B's record —
        # a sequence-only duplicate ack here would lose the acked write.
        assert a.role == "standby"
        assert a.status()["wal_sequence"] == 4
        assert a.wal.frame(3) == b.wal.frame(3)
        assert (TENANT, "forked") not in a._dedup  # the fork's key died too
        assert a.publish()["digest"] == b.publish()["digest"]
        # The truncation is durable: a restart replays the healed history.
        a.close()
        reborn = ReplicatedService(make_config(tmp_path / "a"), role="standby")
        reborn.start()
        assert reborn.publish()["digest"] == b.publish()["digest"]
        reborn.close()
        b.close()

    @pytest.mark.parametrize("checkpoint_interval", [3, 4])
    def test_rewound_wal_is_byte_identical_to_the_primary(
        self, tmp_path, checkpoint_interval
    ):
        """The rewind rebuilds through recovery: from the checkpoint when
        its cursor is at or before the cut (interval 3), from the first
        record when the fork's own flush put it past the cut (interval 4)."""
        overrides = dict(
            checkpoint_interval=checkpoint_interval, epoch_interval=2, window_epochs=4
        )
        a = ReplicatedService(make_config(tmp_path / "a", **overrides), role="primary")
        a.start()
        b = ReplicatedService(make_config(tmp_path / "b", **overrides), role="standby")
        b.start()
        a.replicas = [LocalReplica(b, name="b")]
        for index, (tenant, stream, values) in enumerate(BATCHES[:3]):
            a.ingest(tenant, stream, values, idempotency_key=f"pre{index}")
        a.replicas = []
        a.ingest(TENANT, "A", [111], idempotency_key="forked")  # seq 3, A only
        b.promote()
        b.replicas = [LocalReplica(a, name="a")]
        for index, (tenant, stream, values) in enumerate(BATCHES[3:]):
            b.ingest(tenant, stream, values, idempotency_key=f"post{index}")
        assert a.role == "standby" and len(a.wal) == len(BATCHES)
        assert (tmp_path / "a" / "wal.log").read_bytes() == (
            tmp_path / "b" / "wal.log"
        ).read_bytes()
        assert a.publish()["digest"] == b.publish()["digest"]
        assert a.estimate(TENANT, "A", "B", window=3) == b.estimate(
            TENANT, "A", "B", window=3
        )
        a.close()
        b.close()

    def test_standby_ahead_of_wal_head_fails_quorum(self, tmp_path):
        primary, standby = make_pair(tmp_path)

        class Ahead(ReplicaLink):
            name = "ahead"

            def replicate(self, payload):
                raise ReplicaGapError(7, payload["sequence"])

        primary.replicas = [Ahead()]
        with pytest.raises(ReplicationQuorumError):
            primary.ingest(TENANT, "A", [1], idempotency_key="g0")
        # Durable locally, but the link never counted as caught up.
        assert primary.status()["wal_sequence"] == 1
        assert primary.status()["replicas"][0]["cursor"] == 0
        primary.close()
        standby.close()

    def test_gap_beyond_wal_head_raises_typed_divergence(self, tmp_path):
        primary, standby = make_pair(tmp_path)
        primary.ingest(TENANT, "A", [1], idempotency_key="d0")

        class Ahead(ReplicaLink):
            name = "ahead"

            def replicate(self, payload):
                raise ReplicaGapError(7, payload["sequence"])

        with pytest.raises(ReplicaDivergenceError) as excinfo:
            primary._ship_link(1, Ahead())
        assert excinfo.value.sequence == 1  # our WAL head, not theirs
        primary.close()
        standby.close()


# ---------------------------------------------------------------------------
# Shipped records pass the primary's checks before the standby appends them
# ---------------------------------------------------------------------------
#: Frames that pass their crc and hold a JSON object, yet no primary would
#: append: each would fail its fold, or fold what ingest refuses.
UNFOLDABLE_RECORDS = {
    "out-of-domain": {"tenant": TENANT, "stream": "A", "attribute": 0, "values": [-5, 2]},
    "missing-values": {"tenant": TENANT, "stream": "A", "attribute": 0},
    "refused-by-primary": {"tenant": "t#x", "stream": "A", "attribute": 0, "values": [1.5]},
    "string-attribute": {"tenant": TENANT, "stream": "A", "attribute": "0", "values": [1, 2]},
}


def _shipment(standby, record) -> dict:
    """A well-formed, in-sequence shipment of ``record`` to ``standby``."""
    return {
        "epoch": standby.wal.epoch,
        "sequence": len(standby.wal),
        "frame": base64.b64encode(encode_frame(record)).decode("ascii"),
    }


class TestStandbyRecordChecks:
    @pytest.mark.parametrize("name", sorted(UNFOLDABLE_RECORDS))
    def test_unfoldable_record_is_refused_before_the_append(self, tmp_path, name):
        primary, standby = make_pair(tmp_path)
        primary.ingest(TENANT, "A", [1, 2], idempotency_key="ok")
        digest = standby.publish()["digest"]
        with pytest.raises(ParameterError):
            standby.apply_replication(_shipment(standby, UNFOLDABLE_RECORDS[name]))
        assert len(standby.wal) == 1
        assert standby.publish()["digest"] == digest
        primary.close()
        standby.close()
        reborn = ReplicatedService(make_config(tmp_path / "standby"), role="standby")
        assert reborn.start()["wal_records"] == 1
        assert reborn.publish()["digest"] == digest
        reborn.close()

    def test_unfoldable_records_get_400_bad_frame_over_http(self, tmp_path):
        from .test_service import _request

        standby = ReplicatedService(make_config(tmp_path / "standby"), role="standby")
        answers = []

        async def scenario():
            server = ServiceServer(standby, ServerConfig(port=0, watchdog_interval=0.05))
            host, port = await server.start()
            try:
                for record in UNFOLDABLE_RECORDS.values():
                    status, body, _ = await _request(
                        host, port, "POST", "/v1/replicate", _shipment(standby, record)
                    )
                    answers.append((status, body["error_kind"]))
            finally:
                await server.shutdown()

        asyncio.run(scenario())
        assert answers == [(400, "bad_frame")] * len(UNFOLDABLE_RECORDS)
        assert len(standby.wal) == 0


# ---------------------------------------------------------------------------
# CLI: --replica argument validation
# ---------------------------------------------------------------------------
class TestReplicaFlagParsing:
    def test_bad_replica_addresses_exit_cleanly(self, tmp_path):
        from repro.service.__main__ import main

        for bad in ("host:abc", "host:", ":1234", "host:0", "host:99999"):
            with pytest.raises(SystemExit, match="HOST:PORT"):
                main(["--data-dir", str(tmp_path), "--replica", bad])


# ---------------------------------------------------------------------------
# Circuit breaker (client)
# ---------------------------------------------------------------------------
class TestCircuitBreaker:
    def test_opens_after_threshold_and_probes_half_open(self):
        breaker = CircuitBreaker(failure_threshold=2, cooldown=3)
        assert breaker.state == "closed" and breaker.allow()
        breaker.record_failure()
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "open"
        skips = [breaker.allow() for _ in range(3)]
        assert skips == [False, False, False]
        assert breaker.state == "half-open"
        assert breaker.allow()  # the probe
        breaker.record_failure()  # probe failed: back to a full cooldown
        assert breaker.state == "open"
        [breaker.allow() for _ in range(3)]
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed"

    def test_deterministic_replay(self):
        def drive(breaker):
            trace = []
            for step in range(20):
                allowed = breaker.allow()
                trace.append(allowed)
                if allowed:
                    (breaker.record_failure if step % 3 else breaker.record_success)()
            return trace

        a = CircuitBreaker(failure_threshold=2, cooldown=4)
        b = CircuitBreaker(failure_threshold=2, cooldown=4)
        assert drive(a) == drive(b)


# ---------------------------------------------------------------------------
# Hypothesis: the headline property
# ---------------------------------------------------------------------------
def _restart_primary(tmp_path, standby):
    """Supervisor: restart the primary engine from disk until replay wins."""
    for _ in range(MAX_RESTARTS):
        primary = ReplicatedService(
            make_config(tmp_path / "primary"),
            role="primary",
            replicas=[LocalReplica(standby, name="standby-0")],
            ack_mode="quorum",
        )
        try:
            primary.start()
            return primary
        except (InjectedFaultError, InjectedCrashError):
            primary.wal.close()
    raise AssertionError("replay faults never exhausted across restarts")


class TestReplicatedChaosProperty:
    """Kills + torn streams + retries → surviving bytes == fault-free."""

    @given(data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_surviving_node_matches_fault_free_run(self, data):
        plan_seed = data.draw(st.integers(0, 2**32 - 1), label="plan_seed")
        num_faults = data.draw(st.integers(1, 4), label="num_faults")
        plan = FaultPlan.random(
            plan_seed,
            points=REPLICATED_POINTS,
            num_faults=num_faults,
            max_times=MAX_TIMES,
            kinds=("error", "crash", "torn-write", "corrupt"),
        )
        assert plan.absorbable_by(RETRIES)
        with tempfile.TemporaryDirectory(prefix="repro-repl-chaos-") as tmp:
            tmp_path = Path(tmp)
            standby = ReplicatedService(
                make_config(tmp_path / "standby"), role="standby"
            )
            standby.start()
            with injected(plan):
                primary = _restart_primary(tmp_path, standby)
                for index, (tenant, stream, values) in enumerate(BATCHES):
                    # The idempotent client: resend one key until acked.
                    for _ in range(MAX_RESTARTS):
                        try:
                            primary.ingest(
                                tenant,
                                stream,
                                values,
                                idempotency_key=f"batch-{index}",
                            )
                            break
                        except (
                            InjectedFaultError,
                            InjectedCrashError,
                            RetryExhaustedError,
                            ReplicationQuorumError,
                        ):
                            # Unacked: the primary may have died mid-append
                            # or mid-ship. SIGKILL it, restart from disk,
                            # resend the same idempotency key.
                            primary.wal.close()
                            primary = _restart_primary(tmp_path, standby)
                    else:
                        raise AssertionError("batch never acknowledged")
                # The machine hosting the primary now dies for good; the
                # standby is promoted (also under the armed plan).
                for _ in range(MAX_RESTARTS):
                    try:
                        info = standby.promote()
                        break
                    except (InjectedFaultError, InjectedCrashError):
                        continue
                else:
                    raise AssertionError("promotion never succeeded")
                assert info["promoted"] is True and info["fencing_epoch"] >= 1
                standby.publish()
                outcome = (
                    standby.snapshot.digest,
                    standby.estimate(TENANT, "A", "B")["estimate"],
                )
                primary.wal.close()
                standby.close()
        assert outcome == baseline()


# ---------------------------------------------------------------------------
# Real two-process SIGKILL failover (the CI replication leg)
# ---------------------------------------------------------------------------
_SRC = Path(__file__).resolve().parents[1] / "src"


def _start_node(data_dir, role, *, replicas=()):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(_SRC)
    cmd = [
        sys.executable,
        "-m",
        "repro.service",
        "--data-dir",
        str(data_dir),
        "--port",
        "0",
        "--k",
        "3",
        "--m",
        "32",
        "--epsilon",
        "2.0",
        "--seed",
        str(SEED),
        "--checkpoint-interval",
        "4",
        "--publish-threshold",
        "100000",
        "--role",
        role,
    ]
    for address in replicas:
        cmd += ["--replica", address]
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env, text=True
    )
    line = proc.stdout.readline().strip()
    if not line.startswith("LISTENING "):
        proc.kill()
        rest = proc.stdout.read()
        raise AssertionError(f"{role} failed to bind: {line!r}\n{rest}")
    return proc, int(line.split()[2])


class TestKillNineFailover:
    """SIGKILL the primary process; the standby finishes the stream."""

    def test_sigkill_promotion_round_trip(self, tmp_path):
        reference_digest, reference_estimate = baseline()
        standby_proc, standby_port = _start_node(tmp_path / "standby", "standby")
        primary_proc, primary_port = _start_node(
            tmp_path / "primary",
            "primary",
            replicas=[f"127.0.0.1:{standby_port}"],
        )
        client = ResilientClient(
            [f"127.0.0.1:{primary_port}", f"127.0.0.1:{standby_port}"],
            client_id="failover-test",
            hedge_delay=0.2,
        )
        try:
            for index, (tenant, stream, values) in enumerate(BATCHES[:7]):
                ack = client.ingest(tenant, stream, values.tolist())
                assert ack["sequence"] == index

            # The machine dies: no drain, no flush, no goodbye.
            os.kill(primary_proc.pid, signal.SIGKILL)
            primary_proc.wait(timeout=30)
            assert primary_proc.returncode == -signal.SIGKILL

            # Runbook step 1: promote the standby (epoch 0 -> 1).
            info = client.promote(1)
            assert info == {
                "role": "primary",
                "fencing_epoch": 1,
                "promoted": True,
            }
            # The promoted node already owns every acked batch.
            status = client.status()
            assert status["wal_sequence"] == 7
            assert status["role"] == "primary"

            # The client finishes the stream without changing its code
            # path — re-targeting is the client's job, not the caller's.
            for tenant, stream, values in BATCHES[7:]:
                client.ingest(tenant, stream, values.tolist())
            published = client.publish()
            answer = client.estimate(TENANT, "A", "B")
        finally:
            if primary_proc.poll() is None:
                primary_proc.kill()
                primary_proc.wait(timeout=30)
            standby_proc.send_signal(signal.SIGTERM)
            try:
                standby_proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                standby_proc.kill()
                raise
        # Runbook step 3: digest parity with the fault-free run.
        assert published["digest"] == reference_digest
        assert answer["estimate"] == reference_estimate
        assert standby_proc.returncode == 0

    def test_zombie_restart_is_fenced_and_client_retargets(self, tmp_path):
        standby_proc, standby_port = _start_node(tmp_path / "standby", "standby")
        primary_proc, primary_port = _start_node(
            tmp_path / "primary",
            "primary",
            replicas=[f"127.0.0.1:{standby_port}"],
        )
        client = ResilientClient(
            [f"127.0.0.1:{primary_port}", f"127.0.0.1:{standby_port}"],
            client_id="zombie-test",
            hedge_delay=0.2,
        )
        try:
            for index, (tenant, stream, values) in enumerate(BATCHES[:3]):
                client.ingest(tenant, stream, values.tolist())
            os.kill(primary_proc.pid, signal.SIGKILL)
            primary_proc.wait(timeout=30)
            client.promote(1)

            # The old primary's supervisor restarts it, still thinking
            # it leads. Its first shipped frame must come back 409 and
            # fence it; a fresh client pointed at the zombie first must
            # land its write on the true primary.
            zombie_proc, zombie_port = _start_node(
                tmp_path / "primary",
                "primary",
                replicas=[f"127.0.0.1:{standby_port}"],
            )
            try:
                fresh = ResilientClient(
                    [f"127.0.0.1:{zombie_port}", f"127.0.0.1:{standby_port}"],
                    client_id="fresh",
                    hedge_delay=0.2,
                )
                ack = fresh.ingest(TENANT, "C", [1, 2, 3])
                assert ack["endpoint"] == f"127.0.0.1:{standby_port}"
                assert ack["attempts"] >= 2  # first try hit the zombie
            finally:
                zombie_proc.send_signal(signal.SIGTERM)
                zombie_proc.wait(timeout=30)
        finally:
            if primary_proc.poll() is None:
                primary_proc.kill()
            standby_proc.send_signal(signal.SIGTERM)
            try:
                standby_proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                standby_proc.kill()
                raise


# ---------------------------------------------------------------------------
# Temporal ring parity across the replication stream
# ---------------------------------------------------------------------------
class TestTemporalReplication:
    """The epoch ring is a pure function of the WAL sequence, so a
    standby that applied the same frames must answer every windowed
    estimate with the primary's exact bytes — before and after a
    failover promotion."""

    def _make_pair(self, tmp_path):
        overrides = dict(epoch_interval=2, window_epochs=4)
        standby = ReplicatedService(
            make_config(tmp_path / "standby", **overrides), role="standby"
        )
        standby.start()
        primary = ReplicatedService(
            make_config(tmp_path / "primary", **overrides),
            role="primary",
            replicas=[LocalReplica(standby, name="standby-0")],
        )
        primary.start()
        return primary, standby

    def test_standby_rebuilds_identical_ring(self, tmp_path):
        primary, standby = self._make_pair(tmp_path)
        for index, (tenant, stream, values) in enumerate(BATCHES):
            primary.ingest(tenant, stream, values, idempotency_key=f"t{index}")

        assert primary.status()["temporal"] == standby.status()["temporal"]
        for window in (2, 4):
            assert primary.estimate(TENANT, "A", "B", window=window) == (
                standby.estimate(TENANT, "A", "B", window=window)
            )
        primary.close()
        standby.close()

    def test_windowed_answers_survive_promotion(self, tmp_path):
        primary, standby = self._make_pair(tmp_path)
        for index, (tenant, stream, values) in enumerate(BATCHES):
            primary.ingest(tenant, stream, values, idempotency_key=f"p{index}")
        before = primary.estimate(TENANT, "A", "B", window=3)

        standby.promote()
        after = standby.estimate(TENANT, "A", "B", window=3)
        assert after == before
        primary.close()
        standby.close()
