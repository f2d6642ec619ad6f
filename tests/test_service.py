"""Tests for :mod:`repro.service` — WAL, engine, HTTP front-end, CLI.

The contract under test is the service's headline invariant: every
acknowledged batch is WAL-durable, and restarting from any crash point
republishes a snapshot *byte-identical* to a run that never crashed.
The chaos-schedule half of that claim lives in
``test_service_chaos.py``; this file covers the deterministic layers —
frame parsing and torn-tail recovery, checkpoint interplay, batch
validation, snapshot canonicalisation, the asyncio server's admission
control and lifecycle, and the ``serve`` CLI wiring.
"""

from __future__ import annotations

import asyncio
import gc
import json
import struct
import threading
import tracemalloc
import zlib

import numpy as np
import pytest

from repro.api import JoinSession
from repro.core import SketchParams
from repro.distributed import PartialAggregate, content_checksum
from repro.errors import (
    InjectedCrashError,
    ParameterError,
    PartialIntegrityError,
    ProtocolError,
)
from repro.reliability import FaultPlan, FaultSpec
from repro.reliability.faults import injected
from repro.service import (
    AggregationService,
    FSYNC_POLICIES,
    ServerConfig,
    ServiceConfig,
    ServiceServer,
    WriteAheadLog,
)
from repro.service.core import SNAPSHOT_FORMAT, SNAPSHOT_VERSION, batch_seed
from repro.service.wal import decode_frame, encode_frame

TENANT = "acme"


def make_batches(num_batches: int = 10, reports: int = 40, seed: int = 3):
    """A deterministic workload: alternating streams A and B."""
    rng = np.random.default_rng(seed)
    return [
        (TENANT, "A" if i % 2 == 0 else "B", rng.integers(0, 64, size=reports))
        for i in range(num_batches)
    ]


def make_config(data_dir, **overrides) -> ServiceConfig:
    base = dict(
        data_dir=data_dir,
        k=3,
        m=32,
        epsilon=2.0,
        seed=11,
        checkpoint_interval=4,
    )
    base.update(overrides)
    return ServiceConfig(**base)


def run_to_digest(data_dir, batches, **overrides) -> str:
    """Fault-free reference run: ingest everything, publish, digest."""
    service = AggregationService(make_config(data_dir, **overrides))
    service.start()
    for tenant, stream, values in batches:
        service.ingest(tenant, stream, values)
    service.publish()
    digest = service.snapshot.digest
    service.close()
    return digest


# ---------------------------------------------------------------------------
# Write-ahead log
# ---------------------------------------------------------------------------
class TestWriteAheadLog:
    def test_append_replay_roundtrip(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log")
        records, tear = wal.recover()
        assert records == [] and tear is None
        payloads = [{"n": i, "values": [i, i + 1]} for i in range(3)]
        for i, record in enumerate(payloads):
            assert wal.append(encode_frame(record)) == i
        assert len(wal) == 3
        assert [wal.frame(i) for i in range(3)] == [encode_frame(r) for r in payloads]
        wal.close()
        reopened = WriteAheadLog(tmp_path / "wal.log")
        records, tear = reopened.recover()
        assert records == payloads and tear is None
        assert reopened.append(encode_frame({"n": 3})) == 3

    def test_append_before_recover_raises(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log")
        with pytest.raises(ParameterError, match="recover"):
            wal.append(encode_frame({"n": 0}))

    def test_bad_fsync_policy_rejected(self, tmp_path):
        with pytest.raises(ParameterError, match="fsync"):
            WriteAheadLog(tmp_path / "wal.log", fsync="sometimes")
        assert set(FSYNC_POLICIES) == {"always", "batch", "never"}

    def _filled_wal(self, path, n=4) -> list:
        wal = WriteAheadLog(path)
        wal.recover()
        records = [{"n": i} for i in range(n)]
        for record in records:
            wal.append(encode_frame(record))
        wal.close()
        return records

    def test_torn_tail_truncated(self, tmp_path):
        path = tmp_path / "wal.log"
        records = self._filled_wal(path)
        clean_size = path.stat().st_size
        # A frame that claims 100 payload bytes but only wrote 10: the
        # classic power-cut tear.
        with open(path, "ab") as fh:
            fh.write(b"RW" + struct.pack("<II", 100, 0) + b"0123456789")
        wal = WriteAheadLog(path)
        recovered, tear = wal.recover()
        assert recovered == records
        assert tear is not None and "truncated payload" in tear.reason
        assert tear.offset == clean_size
        assert path.stat().st_size == clean_size  # tail trimmed
        assert wal.append(encode_frame({"n": len(records)})) == len(records)

    def test_crc_mismatch_stops_replay(self, tmp_path):
        path = tmp_path / "wal.log"
        records = self._filled_wal(path)
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF  # flip the last payload byte of the last frame
        path.write_bytes(bytes(data))
        recovered, tear = WriteAheadLog(path).recover()
        assert recovered == records[:-1]
        assert tear is not None and "crc32" in tear.reason

    def test_bad_magic_stops_replay(self, tmp_path):
        path = tmp_path / "wal.log"
        records = self._filled_wal(path)
        with open(path, "ab") as fh:
            fh.write(b"XX" + struct.pack("<II", 2, 0) + b"{}")
        recovered, tear = WriteAheadLog(path).recover()
        assert recovered == records
        assert tear is not None and "magic" in tear.reason

    def test_implausible_length_guard(self, tmp_path):
        path = tmp_path / "wal.log"
        self._filled_wal(path, n=1)
        with open(path, "ab") as fh:
            fh.write(b"RW" + struct.pack("<II", 0xFFFFFFF0, 0))
        recovered, tear = WriteAheadLog(path).recover()
        assert len(recovered) == 1
        assert tear is not None and "implausible" in tear.reason

    def test_recover_without_truncate_preserves_bytes(self, tmp_path):
        path = tmp_path / "wal.log"
        self._filled_wal(path)
        with open(path, "ab") as fh:
            fh.write(b"garbage")
        damaged_size = path.stat().st_size
        _, tear = WriteAheadLog(path).recover(truncate=False)
        assert tear is not None
        assert path.stat().st_size == damaged_size

    @pytest.mark.parametrize("kind", ["torn-write", "corrupt"])
    def test_injected_write_damage_is_recoverable(self, tmp_path, kind):
        """torn-write/corrupt specs damage the frame then kill the writer."""
        path = tmp_path / "wal.log"
        records = self._filled_wal(path)
        wal = WriteAheadLog(path)
        wal.recover()
        plan = FaultPlan(
            [FaultSpec(point="service.wal.append", kind=kind, times=1)]
        )
        with injected(plan):
            with pytest.raises(InjectedCrashError):
                wal.append(encode_frame({"n": 99}))
        wal.close()
        # The restart path: damage is on disk, recovery trims it away and
        # the record was never acknowledged, so dropping it is correct.
        recovered, tear = WriteAheadLog(path).recover()
        assert recovered == records
        assert tear is not None

    @pytest.mark.parametrize(
        "step", ["append", "reopen", "truncate_to", "v1-migration", "torn-tail"]
    )
    def test_frame_reads_back_the_appended_bytes(self, tmp_path, step):
        """The frame index stays exact through every way the file changes."""
        path = tmp_path / "wal.log"
        records = [{"n": i, "values": list(range(i + 1))} for i in range(5)]
        wal = WriteAheadLog(path)
        if step == "v1-migration":
            # A headerless v1 file: frames only, rewritten behind a header.
            path.write_bytes(b"".join(encode_frame(r) for r in records))
            wal.recover()
        else:
            wal.recover()
            for record in records:
                wal.append(encode_frame(record))
        if step == "reopen":
            wal.close()
            wal = WriteAheadLog(path)
            wal.recover()
        elif step == "truncate_to":
            assert wal.truncate_to(3) == 3
            records = records[:3]
        elif step == "torn-tail":
            wal.close()
            with open(path, "ab") as fh:
                fh.write(encode_frame({"n": 99})[:7])
            wal = WriteAheadLog(path)
            assert wal.recover()[1] is not None
        assert [wal.frame(i) for i in range(len(wal))] == [
            encode_frame(r) for r in records
        ]
        extra = encode_frame({"n": "appended after the step"})
        assert wal.append(extra) == len(records)
        assert wal.frame(len(records)) == extra
        with pytest.raises(ParameterError, match="no frame"):
            wal.frame(len(records) + 1)
        wal.close()
        again = WriteAheadLog(path)
        assert again.recover() == (records + [decode_frame(extra)], None)
        assert again.frame(len(records)) == extra
        again.close()

    def test_append_refused_past_a_kept_tear(self, tmp_path):
        """recover(truncate=False) keeps damage on disk; appends would land
        behind it and be lost to the next recovery, so they are refused."""
        path = tmp_path / "wal.log"
        records = self._filled_wal(path)
        with open(path, "ab") as fh:
            fh.write(b"garbage")
        wal = WriteAheadLog(path)
        _, tear = wal.recover(truncate=False)
        assert tear is not None
        assert wal.frame(len(records) - 1) == encode_frame(records[-1])
        with pytest.raises(ParameterError, match="past its last intact frame"):
            wal.append(encode_frame({"n": 99}))
        wal.close()


# ---------------------------------------------------------------------------
# Engine: config, ingest, recovery, snapshots
# ---------------------------------------------------------------------------
class TestServiceConfig:
    @pytest.mark.parametrize(
        "overrides,message",
        [
            (dict(dedup_retention=0), "dedup_retention"),
            (dict(checkpoint_interval=0), "checkpoint_interval"),
            (dict(wal_fsync="maybe"), "wal_fsync"),
            (dict(retries=0), "retries"),
            (dict(max_batch_reports=0), "max_batch_reports"),
            (dict(epoch_interval=-1), "epoch_interval"),
            (dict(window_epochs=0), "window_epochs"),
        ],
    )
    def test_invalid_config_rejected(self, tmp_path, overrides, message):
        with pytest.raises(ParameterError, match=message):
            make_config(tmp_path, **overrides)

    def test_node_holds_no_shard_option(self, tmp_path):
        """One accumulator per node: there is no shard count to set."""
        with pytest.raises(TypeError, match="num_shards"):
            make_config(tmp_path, num_shards=4)

    def test_batch_seed_is_deterministic_and_distinct(self):
        assert batch_seed(11, 0) == batch_seed(11, 0)
        seeds = {batch_seed(11, sequence) for sequence in range(64)}
        assert len(seeds) == 64
        assert batch_seed(11, 0) != batch_seed(12, 0)


class TestAggregationService:
    def test_ingest_acknowledgement(self, tmp_path):
        service = AggregationService(make_config(tmp_path))
        service.start()
        ack = service.ingest(TENANT, "A", [1, 2, 3])
        assert ack == {"sequence": 0, "reports": 3}
        ack = service.ingest(TENANT, "B", [4, 5])
        assert ack == {"sequence": 1, "reports": 2}
        assert service.pending_records() == 2
        status = service.status()
        assert status["wal_records"] == 2
        assert status["tenants"][TENANT] == {"batches": 2, "reports": 5}
        assert "num_shards" not in status
        service.close()

    def test_ingest_requires_start(self, tmp_path):
        service = AggregationService(make_config(tmp_path))
        with pytest.raises(ProtocolError, match="start"):
            service.ingest(TENANT, "A", [1])

    @pytest.mark.parametrize(
        "tenant,stream,values,message",
        [
            ("", "A", [1], "tenant"),
            ("a/b", "A", [1], "reserved"),
            (TENANT, "", [1], "stream"),
            (TENANT, "A", [], "non-empty"),
            (TENANT, "A", [[1, 2]], "1-D"),
            (TENANT, "A", ["x"], "integers"),
            # Ledger group suffixes: cohorts are "<stream>#<n>", merged
            # collisions "<group>@partial<n>", and a tenant's epochs are
            # charged to the name before its first '#'.
            ("t#2", "A", [1], "reserved"),
            ("t@x", "A", [1], "reserved"),
            (TENANT, "A#2", [1], "reserved"),
            (TENANT, "A@partial1", [1], "reserved"),
            # Values an int64 cast would coerce instead of refusing.
            (TENANT, "A", [1.7, 2.9, True], "integers"),
            (TENANT, "A", [1, True], "integers"),
            (TENANT, "A", [False], "integers"),
            (TENANT, "A", [1, 2.0], "integers"),
            (TENANT, "A", ["1"], "integers"),
            (TENANT, "A", np.array([1.0, 2.0]), "integers"),
            (TENANT, "A", np.array([True]), "integers"),
        ],
    )
    def test_batch_validation(self, tmp_path, tenant, stream, values, message):
        service = AggregationService(make_config(tmp_path))
        service.start()
        with pytest.raises(ParameterError, match=message):
            service.ingest(tenant, stream, values)
        assert len(service.wal) == 0  # rejected batches never hit the WAL
        service.close()

    @pytest.mark.parametrize(
        "values,attribute,message",
        [
            ([1, -1], 0, "domain"),
            ([2**31 - 1], 0, "domain"),
            ([2**40], 0, "domain"),
            ([1, 2], "abc", "attribute"),
            ([1, 2], None, "attribute"),
            ([1, 2], 1, "attribute"),
            # Attributes ``int()`` would coerce to 0 instead of refusing.
            ([1, 2], 0.7, "attribute"),
            ([1, 2], "0", "attribute"),
            ([1, 2], " 0 ", "attribute"),
            ([1, 2], False, "attribute"),
        ],
    )
    def test_unfoldable_batch_is_rejected_before_the_wal(
        self, tmp_path, values, attribute, message
    ):
        """A batch the fold would refuse never reaches the WAL.

        Were it appended, its fold would fail on every replay and the
        node could never restart.
        """
        service = AggregationService(make_config(tmp_path))
        service.start()
        service.ingest(TENANT, "A", [1, 2, 3])
        with pytest.raises(ParameterError, match=message):
            service.ingest(
                TENANT, "B", values, attribute=attribute, idempotency_key="bad"
            )
        assert len(service.wal) == 1
        assert service.ingest(TENANT, "B", [4])["sequence"] == 1
        service.wal.close()  # crash: the restart replays the WAL

        restarted = AggregationService(make_config(tmp_path))
        recovery = restarted.start()
        assert recovery["wal_records"] == 2
        # The rejected batch left no idempotency entry behind either.
        assert restarted.ingest(TENANT, "B", [5], idempotency_key="bad") == {
            "sequence": 2,
            "reports": 1,
        }
        restarted.close()

    def test_batch_admission_cap(self, tmp_path):
        service = AggregationService(make_config(tmp_path, max_batch_reports=8))
        service.start()
        with pytest.raises(ParameterError, match="admission cap"):
            service.ingest(TENANT, "A", list(range(9)))
        service.close()

    def test_queries_need_a_snapshot(self, tmp_path):
        service = AggregationService(make_config(tmp_path))
        service.start()
        service.ingest(TENANT, "A", [1, 2])
        with pytest.raises(ProtocolError, match="publish"):
            service.estimate(TENANT, "A", "B")
        service.close()

    def test_snapshot_payload_is_canonical(self, tmp_path):
        service = AggregationService(make_config(tmp_path))
        service.start()
        for tenant, stream, values in make_batches(4):
            service.ingest(tenant, stream, values)
        info = service.publish()
        snapshot = service.snapshot
        assert info["digest"] == snapshot.digest
        payload = json.loads(snapshot.payload_bytes)
        assert payload["format"] == SNAPSHOT_FORMAT
        assert payload["version"] == SNAPSHOT_VERSION
        assert payload["wal_records"] == 4
        # Re-publishing unchanged state reproduces the exact bytes.
        first = snapshot.payload_bytes
        service.publish()
        assert service.snapshot.payload_bytes == first
        service.close()

    def test_snapshot_partial_is_one_session(self, tmp_path):
        """The node holds one accumulator, across a checkpointed restart.

        The published partial is the canonical JSON of a single
        :class:`JoinSession` that folded every record with its derived
        seed: the same arrays, counters and ledger group names.
        """
        batches = make_batches(10)
        crashed = AggregationService(make_config(tmp_path))
        crashed.start()
        for tenant, stream, values in batches[:6]:
            crashed.ingest(tenant, stream, values)
        crashed.wal.close()  # crash after the checkpoint at sequence 3
        service = AggregationService(make_config(tmp_path))
        assert service.start()["replayed"] == 2
        for tenant, stream, values in batches[6:]:
            service.ingest(tenant, stream, values)
        service.publish()
        published = json.loads(service.snapshot.payload_bytes)["partial"]

        direct = JoinSession(SketchParams(3, 32, 2.0), seed=11)
        for sequence, (tenant, stream, values) in enumerate(batches):
            direct.collect(
                f"{tenant}/{stream}", values, seed=batch_seed(11, sequence)
            )
        expected = direct.to_partial(include_timing=False).to_dict()

        def canonical(payload):
            return json.dumps(payload, sort_keys=True, separators=(",", ":"))

        assert canonical(published) == canonical(expected)
        service.close()

    def test_checkpoint_leaves_wal_and_one_checkpoint(self, tmp_path):
        service = AggregationService(make_config(tmp_path))
        assert service.start()["cold_start"] is None
        for tenant, stream, values in make_batches(4):
            service.ingest(tenant, stream, values)  # flushes at sequence 3
        assert service.status()["last_checkpoint_sequence"] == 4
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "node.ckpt",
            "wal.log",
        ]
        service.close()

    @pytest.mark.parametrize("epoch_interval", [0, 3])
    def test_identical_runs_write_identical_checkpoints(self, tmp_path, epoch_interval):
        """``node.ckpt`` holds no wall-clock counter, epochs on or off."""
        checkpoints = []
        for run in ("first", "second"):
            service = AggregationService(
                make_config(tmp_path / run, epoch_interval=epoch_interval, window_epochs=2)
            )
            service.start()
            for tenant, stream, values in make_batches(12):
                service.ingest(tenant, stream, values)
            service.close()
            checkpoints.append((tmp_path / run / "node.ckpt").read_bytes())
        assert checkpoints[0] == checkpoints[1]
        assert b"offline_seconds" not in checkpoints[0]

    def test_stale_shard_checkpoint_is_ignored(self, tmp_path):
        """An old data dir's ``shard-0.ckpt`` is not read as node state.

        It holds a partial of only some records under a cursor equal to
        the WAL length; reading it would skip the replay of every other
        record.  The node replays the whole WAL instead.
        """
        from repro.distributed import ShardCheckpoint

        batches = make_batches(8)
        reference = run_to_digest(tmp_path / "ref", batches)

        data_dir = tmp_path / "old"
        crashed = AggregationService(make_config(data_dir, checkpoint_interval=64))
        crashed.start()
        for tenant, stream, values in batches:
            crashed.ingest(tenant, stream, values)
        crashed.wal.close()  # no checkpoint of its own yet
        stale = JoinSession(SketchParams(3, 32, 2.0), seed=11)
        for sequence in range(0, len(batches), 4):
            tenant, stream, values = batches[sequence]
            stale.collect(
                f"{tenant}/{stream}", values, seed=batch_seed(11, sequence)
            )
        ShardCheckpoint(data_dir / "shard-0.ckpt").flush(
            stale.to_partial(), cursor=len(batches)
        )

        restarted = AggregationService(make_config(data_dir))
        recovery = restarted.start()
        assert recovery["replayed"] == len(batches)
        assert recovery["cold_start"] is None
        restarted.publish()
        assert restarted.snapshot.digest == reference
        restarted.close()

    def test_queries_match_direct_session(self, tmp_path):
        batches = make_batches(6)
        service = AggregationService(make_config(tmp_path))
        service.start()
        for tenant, stream, values in batches:
            service.ingest(tenant, stream, values)
        service.publish()

        direct = JoinSession(SketchParams(3, 32, 2.0), seed=11)
        for sequence, (tenant, stream, values) in enumerate(batches):
            direct.collect(
                f"{tenant}/{stream}", values, seed=batch_seed(11, sequence)
            )
        expected = direct.estimate(f"{TENANT}/A", f"{TENANT}/B")
        answer = service.estimate(TENANT, "A", "B")
        assert answer["estimate"] == pytest.approx(float(expected.estimate))
        assert answer["snapshot_digest"] == service.snapshot.digest
        freqs = service.frequencies(TENANT, "A", [1, 2, 3])
        assert len(freqs["frequencies"]) == 3
        chain = service.estimate_chain(TENANT, ["A", "B"])
        assert chain["estimate"] == pytest.approx(answer["estimate"])
        service.close()

    def test_crash_recovery_is_byte_identical(self, tmp_path):
        batches = make_batches(10)
        reference = run_to_digest(tmp_path / "ref", batches)

        # Crash: ingest 7 of 10 batches, then abandon the instance with
        # no flush/close — the WAL is the only durable acknowledgement.
        crashed = AggregationService(make_config(tmp_path / "crash"))
        crashed.start()
        for tenant, stream, values in batches[:7]:
            crashed.ingest(tenant, stream, values)
        crashed.wal.close()  # release the handle; state is NOT flushed

        restarted = AggregationService(make_config(tmp_path / "crash"))
        recovery = restarted.start()
        assert recovery["wal_records"] == 7
        # checkpoint_interval=4: the flush at sequence 3 covers records
        # 0..3, so exactly records 4..6 replay.
        assert recovery["replayed"] == 3
        assert recovery["torn_tail"] is None
        for tenant, stream, values in batches[7:]:
            restarted.ingest(tenant, stream, values)
        restarted.publish()
        assert restarted.snapshot.digest == reference
        restarted.close()

    def test_corrupt_checkpoint_downgrades_to_cold_start(self, tmp_path):
        batches = make_batches(10)
        reference = run_to_digest(tmp_path / "ref", batches)

        crashed = AggregationService(make_config(tmp_path / "crash"))
        crashed.start()
        for tenant, stream, values in batches[:8]:
            crashed.ingest(tenant, stream, values)
        crashed.wal.close()
        (tmp_path / "crash" / "node.ckpt").write_text("{ not json")

        restarted = AggregationService(make_config(tmp_path / "crash"))
        recovery = restarted.start()
        assert "invalid JSON" in recovery["cold_start"]
        assert recovery["replayed"] == 8
        for tenant, stream, values in batches[8:]:
            restarted.ingest(tenant, stream, values)
        restarted.publish()
        assert restarted.snapshot.digest == reference
        restarted.close()

    def test_malformed_partial_in_checkpoint_cold_starts(self, tmp_path):
        """Valid JSON whose partial has the wrong shape is corruption too."""
        batches = make_batches(10)
        reference = run_to_digest(tmp_path / "ref", batches)

        crashed = AggregationService(make_config(tmp_path / "crash"))
        crashed.start()
        for tenant, stream, values in batches[:8]:
            crashed.ingest(tenant, stream, values)
        crashed.wal.close()
        path = tmp_path / "crash" / "node.ckpt"
        payload = json.loads(path.read_text())
        partial = payload["partial"]
        partial.update(arrays="not a mapping")
        del partial["checksum"]
        path.write_text(json.dumps(payload))

        restarted = AggregationService(make_config(tmp_path / "crash"))
        recovery = restarted.start()
        assert "arrays must map names" in recovery["cold_start"]
        assert recovery["replayed"] == 8
        for tenant, stream, values in batches[8:]:
            restarted.ingest(tenant, stream, values)
        restarted.publish()
        assert restarted.snapshot.digest == reference
        restarted.close()

    def test_checkpoint_relabelled_version_1_with_a_flipped_byte_cold_starts(self, tmp_path):
        """A ``version: 1`` label does not turn the checkpoint's crc off."""
        batches = make_batches(10)
        reference = run_to_digest(tmp_path / "ref", batches)

        crashed = AggregationService(make_config(tmp_path / "crash"))
        crashed.start()
        for tenant, stream, values in batches[:8]:
            crashed.ingest(tenant, stream, values)
        crashed.wal.close()
        path = tmp_path / "crash" / "node.ckpt"
        payload = json.loads(path.read_text())
        partial = payload["partial"]
        partial["version"] = 1
        entry = partial["arrays"][f"stream:{TENANT}/A:raw"]["data"]
        entry["data"] = ("A" if entry["data"][0] != "A" else "B") + entry["data"][1:]
        path.write_text(json.dumps(payload))

        restarted = AggregationService(make_config(tmp_path / "crash"))
        recovery = restarted.start()
        assert "unsupported partial-aggregate version 1" in recovery["cold_start"]
        assert recovery["replayed"] == 8
        for tenant, stream, values in batches[8:]:
            restarted.ingest(tenant, stream, values)
        restarted.publish()
        assert restarted.snapshot.digest == reference
        restarted.close()

    @pytest.mark.parametrize("epoch_interval", [0, 2], ids=["epochs-off", "epochs-on"])
    def test_checkpoint_with_a_nested_list_array_cold_starts(self, tmp_path, epoch_interval):
        """Arrays load only in their packed form, whatever the checksum says."""
        batches = make_batches(20)
        options = dict(epoch_interval=epoch_interval, window_epochs=1)
        reference = run_to_digest(tmp_path / "ref", batches, **options)

        crashed = AggregationService(make_config(tmp_path / "crash", **options))
        crashed.start()
        for tenant, stream, values in batches[:16]:
            crashed.ingest(tenant, stream, values)
        crashed.wal.close()
        path = tmp_path / "crash" / "node.ckpt"
        payload = json.loads(path.read_text())
        arrays = payload["partial"]["arrays"]
        name = f"stream:{TENANT}/A:raw"
        raw = PartialAggregate.from_dict(payload["partial"]).arrays[name]
        arrays[name]["data"] = raw.tolist()
        payload["partial"]["checksum"] = content_checksum(arrays)
        path.write_text(json.dumps(payload))

        restarted = AggregationService(make_config(tmp_path / "crash", **options))
        recovery = restarted.start()
        assert name in recovery["cold_start"]
        assert recovery["replayed"] == 16
        for tenant, stream, values in batches[16:]:
            restarted.ingest(tenant, stream, values)
        restarted.publish()
        assert restarted.snapshot.digest == reference
        restarted.close()

    @pytest.mark.parametrize("epoch_interval", [0, 2], ids=["epochs-off", "epochs-on"])
    def test_checkpoint_with_a_malformed_stream_entry_cold_starts(
        self, tmp_path, epoch_interval
    ):
        """The crc covers the arrays, not the stream schema beside them."""
        batches = make_batches(20)
        options = dict(epoch_interval=epoch_interval, window_epochs=1)
        reference = run_to_digest(tmp_path / "ref", batches, **options)

        crashed = AggregationService(make_config(tmp_path / "crash", **options))
        crashed.start()
        for tenant, stream, values in batches:
            crashed.ingest(tenant, stream, values)
        crashed.close()
        path = tmp_path / "crash" / "node.ckpt"
        payload = json.loads(path.read_text())
        del payload["partial"]["meta"]["streams"][f"{TENANT}/A"]["kind"]
        path.write_text(json.dumps(payload))

        restarted = AggregationService(make_config(tmp_path / "crash", **options))
        recovery = restarted.start()
        assert "kind" in recovery["cold_start"]
        assert recovery["replayed"] == len(batches)
        restarted.publish()
        assert restarted.snapshot.digest == reference
        restarted.close()

    def test_checkpoint_ahead_of_wal_is_cold_started(self, tmp_path):
        """A checkpoint past the WAL (lost log bytes) must not double-count."""
        data_dir = tmp_path / "svc"
        service = AggregationService(make_config(data_dir))
        service.start()
        for tenant, stream, values in make_batches(8):
            service.ingest(tenant, stream, values)
        service.close()  # flushes the checkpoint at cursor=8
        (data_dir / "wal.log").unlink()  # the WAL vanishes entirely

        restarted = AggregationService(make_config(data_dir))
        recovery = restarted.start()
        assert recovery["wal_records"] == 0
        assert "ahead of the 0-record WAL" in recovery["cold_start"]
        restarted.publish()
        # Cold-started from an empty log: the snapshot holds no streams.
        assert restarted.snapshot.info()["streams"] == []
        restarted.close()

    def test_torn_wal_record_recovery(self, tmp_path):
        """A torn final record is trimmed; the intact prefix replays."""
        batches = make_batches(6)
        reference = run_to_digest(tmp_path / "ref", batches)

        crashed = AggregationService(make_config(tmp_path / "crash"))
        crashed.start()
        for tenant, stream, values in batches[:5]:
            crashed.ingest(tenant, stream, values)
        crashed.wal.close()
        # The 6th record tears mid-write: header promises more bytes than
        # the process lived to append.
        payload = json.dumps({"torn": True}).encode()
        with open(tmp_path / "crash" / "wal.log", "ab") as fh:
            frame = (
                b"RW"
                + struct.pack("<II", len(payload), zlib.crc32(payload))
                + payload
            )
            fh.write(frame[: len(frame) // 2])

        restarted = AggregationService(make_config(tmp_path / "crash"))
        recovery = restarted.start()
        assert recovery["wal_records"] == 5
        assert recovery["torn_tail"] is not None
        assert recovery["torn_tail"]["dropped_bytes"] > 0
        # The torn batch was never acknowledged; the client re-sends it
        # (and the 6th batch gets the same sequence the tear occupied).
        for tenant, stream, values in batches[5:]:
            restarted.ingest(tenant, stream, values)
        restarted.publish()
        assert restarted.snapshot.digest == reference
        restarted.close()

    def test_ingest_holds_no_heap_per_report(self, tmp_path):
        """The WAL is the only record store: ingest keeps no record in memory."""
        service = AggregationService(
            make_config(tmp_path, wal_fsync="never", checkpoint_interval=32)
        )
        service.start()
        rng = np.random.default_rng(5)
        batches = [rng.integers(0, 1024, size=2048) for _ in range(8)]
        for index, values in enumerate(batches):  # warm every code path
            service.ingest(TENANT, "AB"[index % 2], values)
        num_batches = 128
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for index in range(num_batches):
                service.ingest(TENANT, "AB"[index % 2], batches[index % len(batches)])
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        service.close()
        assert held / (num_batches * 2048) < 4.0


# ---------------------------------------------------------------------------
# Partial-aggregate wire-version boundary (the snapshot payload's format)
# ---------------------------------------------------------------------------
class TestPartialWireVersionBoundary:
    def _payload(self) -> dict:
        session = JoinSession(SketchParams(3, 32, 2.0), seed=5)
        session.collect("A", np.arange(50) % 7, seed=9)
        return session.to_partial(include_timing=False).to_dict()

    def test_v1_payload_is_refused(self):
        """Version 1 predates the crc; no payload may load unchecked."""
        payload = self._payload()
        payload["version"] = 1
        del payload["checksum"]
        with pytest.raises(
            ParameterError,
            match=r"unsupported partial-aggregate version 1 \(this build "
            r"reads version 2\)",
        ):
            PartialAggregate.from_dict(payload)

    def test_future_version_rejected_with_documented_message(self):
        payload = self._payload()
        payload["version"] = 3
        with pytest.raises(
            ParameterError,
            match=r"unsupported partial-aggregate version 3 \(this build "
            r"reads version 2\)",
        ):
            PartialAggregate.from_dict(payload)

    def test_truncated_array_with_recomputed_crc_is_typed(self):
        """A crc recomputed over a cut array leaves the byte-count gate."""
        payload = self._payload()
        name = sorted(payload["arrays"])[0]
        entry = payload["arrays"][name]["data"]
        keep = max(4, (len(entry["data"]) // 2) // 4 * 4)  # valid b64 padding
        entry["data"] = entry["data"][:keep]
        payload["checksum"] = content_checksum(payload["arrays"])
        with pytest.raises(PartialIntegrityError, match="failed to decode"):
            PartialAggregate.from_dict(payload)


# ---------------------------------------------------------------------------
# HTTP front-end
# ---------------------------------------------------------------------------
async def _request(host, port, method, target, body=None, timeout=10.0, headers=None):
    """One HTTP/1.1 request over a fresh connection (bytes go as they are)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        payload = body if isinstance(body, bytes) else b"" if body is None else json.dumps(body).encode()
        extra = "".join(f"{name}: {value}\r\n" for name, value in (headers or {}).items())
        head = (
            f"{method} {target} HTTP/1.1\r\nHost: {host}\r\n{extra}"
            f"Content-Length: {len(payload)}\r\nConnection: close\r\n\r\n"
        ).encode()
        writer.write(head + payload)
        await writer.drain()
        status_line = await asyncio.wait_for(reader.readline(), timeout)
        status = int(status_line.split()[1])
        headers = {}
        while True:
            line = await asyncio.wait_for(reader.readline(), timeout)
            if line in (b"\r\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        raw = await asyncio.wait_for(
            reader.readexactly(int(headers.get("content-length", "0"))), timeout
        )
        return status, (json.loads(raw) if raw else {}), headers
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


class TestServiceServer:
    def _server(self, tmp_path, **overrides):
        service = AggregationService(make_config(tmp_path / "data"))
        defaults = dict(port=0, watchdog_interval=0.05)
        defaults.update(overrides)
        return ServiceServer(service, ServerConfig(**defaults))

    def test_config_validation(self):
        with pytest.raises(ParameterError):
            ServerConfig(queue_limit=0)
        with pytest.raises(ParameterError):
            ServerConfig(request_timeout=0)
        with pytest.raises(ParameterError):
            ServerConfig(publish_threshold=0)
        with pytest.raises(ParameterError):
            ServerConfig(watchdog_interval=0)

    def test_http_round_trip(self, tmp_path):
        async def scenario():
            server = self._server(tmp_path)
            host, port = await server.start()
            try:
                status, body, _ = await _request(host, port, "GET", "/healthz")
                assert (status, body["status"]) == (200, "ok")
                status, body, _ = await _request(host, port, "GET", "/readyz")
                assert (status, body["status"]) == (200, "ready")

                batch = {"tenant": TENANT, "stream": "A", "values": [1, 2, 3]}
                status, ack, _ = await _request(
                    host, port, "POST", "/v1/report", batch
                )
                assert status == 200 and ack["sequence"] == 0
                batch["stream"] = "B"
                status, ack, _ = await _request(
                    host, port, "POST", "/v1/report", batch
                )
                assert status == 200 and ack["sequence"] == 1

                status, info, _ = await _request(host, port, "POST", "/v1/publish")
                assert status == 200 and info["wal_records"] == 2
                status, answer, _ = await _request(
                    host,
                    port,
                    "GET",
                    f"/v1/estimate?tenant={TENANT}&kind=join&streams=A,B",
                )
                assert status == 200 and "estimate" in answer
                assert answer["snapshot_digest"] == info["digest"]

                status, body, _ = await _request(
                    host,
                    port,
                    "GET",
                    f"/v1/estimate?tenant={TENANT}&kind=frequencies"
                    "&streams=A&values=1,2",
                )
                assert status == 200 and len(body["frequencies"]) == 2

                status, body, _ = await _request(host, port, "GET", "/v1/status")
                assert status == 200 and body["wal_records"] == 2
                assert body["ready"] is True
            finally:
                await server.shutdown()

        asyncio.run(scenario())

    def test_http_error_mapping(self, tmp_path):
        async def scenario():
            server = self._server(tmp_path, max_body_bytes=256)
            host, port = await server.start()
            try:
                # 404 unknown path, 405 wrong method.
                status, _, _ = await _request(host, port, "GET", "/nope")
                assert status == 404
                status, _, _ = await _request(host, port, "GET", "/v1/report")
                assert status == 405
                # 400: not JSON, missing fields, invalid batch.
                reader_status, body, _ = await _request(
                    host, port, "POST", "/v1/report", {"tenant": TENANT}
                )
                assert reader_status == 400 and "stream" in body["error"]
                status, body, _ = await _request(
                    host,
                    port,
                    "POST",
                    "/v1/report",
                    {"tenant": TENANT, "stream": "A", "values": []},
                )
                assert status == 400
                # 400: bad estimate queries.
                status, _, _ = await _request(host, port, "GET", "/v1/estimate")
                assert status == 400
                status, _, _ = await _request(
                    host,
                    port,
                    "GET",
                    f"/v1/estimate?tenant={TENANT}&kind=warp&streams=A,B",
                )
                assert status == 400
                # 413: body over the configured cap.
                status, _, _ = await _request(
                    host,
                    port,
                    "POST",
                    "/v1/report",
                    {"tenant": TENANT, "stream": "A", "values": list(range(500))},
                )
                assert status == 413
            finally:
                await server.shutdown()

        asyncio.run(scenario())

    def test_report_nested_past_the_recursion_limit_is_400(self, tmp_path):
        async def scenario():
            server = self._server(tmp_path)
            host, port = await server.start()
            try:
                status, body, _ = await _request(
                    host, port, "POST", "/v1/report", b"[" * 100_000
                )
                assert status == 400 and "body must be JSON" in body["error"], body
                batch = {"tenant": TENANT, "stream": "A", "values": [1, 2]}
                status, ack, _ = await _request(
                    host, port, "POST", "/v1/report", batch
                )
                assert (status, ack) == (200, {"sequence": 0, "reports": 2})
            finally:
                await server.shutdown()

        asyncio.run(scenario())

    def test_unfoldable_report_is_400_and_the_worker_lives(self, tmp_path):
        async def scenario():
            server = self._server(tmp_path)
            host, port = await server.start()
            try:
                for bad in (
                    {"values": [1, 2**31 - 1]},
                    {"values": [1, 2], "attribute": "abc"},
                    {"values": [1, 2], "attribute": None},
                    {"values": [1, 2], "attribute": 0.7},
                    {"values": [1, 2], "attribute": "0"},
                    {"values": [1, 2], "attribute": False},
                    {"values": [1.7, 2.9, True]},
                    {"values": [1, True]},
                    {"stream": "A#2", "values": [1, 2]},
                ):
                    batch = {"tenant": TENANT, "stream": "A", **bad}
                    status, body, _ = await _request(
                        host, port, "POST", "/v1/report", batch
                    )
                    assert status == 400, body
                batch = {"tenant": TENANT, "stream": "A", "values": [1, 2]}
                status, ack, _ = await _request(
                    host, port, "POST", "/v1/report", batch
                )
                assert (status, ack) == (200, {"sequence": 0, "reports": 2})
                status, _, _ = await _request(host, port, "GET", "/healthz")
                assert status == 200
            finally:
                await server.shutdown()

        asyncio.run(scenario())
        assert len(WriteAheadLog(tmp_path / "data" / "wal.log").recover()[0]) == 1

    def test_malformed_tenant_is_400_and_holds_no_queue_slot(self, tmp_path):
        """A tenant that cannot key a queue slot is refused before queueing.

        A list tenant used to kill the ingest worker (its slot could not
        be released), and an int tenant leaked the slot of its string
        form until that real tenant was refused with 429 for good.
        """

        async def scenario():
            server = self._server(tmp_path, tenant_queue_limit=2)
            host, port = await server.start()
            try:
                for tenant in (["x"], 5, 5, 5, "", None):
                    batch = {"tenant": tenant, "stream": "A", "values": [1, 2]}
                    status, body, _ = await _request(
                        host, port, "POST", "/v1/report", batch
                    )
                    assert status == 400 and "tenant" in body["error"], body
                batch = {"tenant": "5", "stream": "A", "values": [1, 2]}
                status, ack, _ = await _request(
                    host, port, "POST", "/v1/report", batch
                )
                assert (status, ack) == (200, {"sequence": 0, "reports": 2})
                status, _, _ = await _request(host, port, "GET", "/healthz")
                assert status == 200
            finally:
                await server.shutdown()

        asyncio.run(scenario())

    @pytest.mark.parametrize("declared", ["abc", "-5", "+5", "1_0"])
    def test_bad_content_length_is_400_and_closes(self, tmp_path, declared):
        async def scenario():
            server = self._server(tmp_path)
            host, port = await server.start()
            try:
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(
                    (
                        f"POST /v1/report HTTP/1.1\r\nHost: {host}\r\n"
                        f"Content-Length: {declared}\r\n\r\n"
                    ).encode("latin-1")
                )
                await writer.drain()
                # read() returns only once the server closes the socket.
                raw = await asyncio.wait_for(reader.read(), 10.0)
                writer.close()
                head, _, body = raw.partition(b"\r\n\r\n")
                assert head.startswith(b"HTTP/1.1 400 ")
                assert b"Connection: close" in head
                assert "Content-Length" in json.loads(body)["error"]
            finally:
                await server.shutdown()

        asyncio.run(scenario())

    def test_worker_bug_is_reported_not_raised(self, tmp_path, monkeypatch):
        """A non-repro error stops the ingest worker cleanly.

        The request that hit it gets a 500 naming the error, ``/healthz``
        reports it, and nothing reaches the event loop's exception
        handler (no "Task exception was never retrieved").
        """
        handled = []

        def broken_ingest(*args, **kwargs):
            raise RuntimeError("fold exploded")

        async def scenario():
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: handled.append(context)
            )
            server = self._server(tmp_path)
            host, port = await server.start()
            monkeypatch.setattr(server.service, "ingest", broken_ingest)
            try:
                batch = {"tenant": TENANT, "stream": "A", "values": [1]}
                status, body, _ = await _request(
                    host, port, "POST", "/v1/report", batch
                )
                assert status == 500
                assert body["error"] == "RuntimeError: fold exploded"
                status, body, _ = await _request(host, port, "GET", "/healthz")
                assert (status, body["status"]) == (503, "dead")
                assert body["error"] == "RuntimeError: fold exploded"
            finally:
                await server.shutdown()
            gc.collect()

        asyncio.run(scenario())
        gc.collect()
        assert handled == []

    def test_dead_worker_refuses_batches_and_shuts_down(self, tmp_path, monkeypatch):
        """Once the ingest worker is dead, no batch waits on it.

        Batches queued behind the fatal one, and batches posted later,
        get a prompt 503 carrying the worker's error; none reaches the
        WAL, and ``shutdown()`` returns although the queue was full.
        """
        timeout = 6.0
        holding, release = threading.Event(), threading.Event()

        def broken_ingest(*args, **kwargs):
            holding.set()
            release.wait(timeout)  # hold the worker while two batches queue
            raise RuntimeError("fold exploded")

        async def scenario():
            loop = asyncio.get_running_loop()
            server = self._server(tmp_path, queue_limit=2, request_timeout=timeout)
            host, port = await server.start()
            monkeypatch.setattr(server.service, "ingest", broken_ingest)
            batch = {"tenant": TENANT, "stream": "A", "values": [1]}

            def post():
                return asyncio.ensure_future(
                    _request(host, port, "POST", "/v1/report", batch)
                )

            try:
                first = post()
                # The worker holds the first batch; two more fill the queue.
                assert await loop.run_in_executor(None, holding.wait, timeout)
                queued = [post(), post()]
                for _ in range(500):
                    _, body, _ = await _request(host, port, "GET", "/readyz")
                    if body["queue_depth"] == 2:
                        break
                    await asyncio.sleep(0.01)
                else:
                    raise AssertionError("the ingest queue never filled")
                released = loop.time()
                release.set()
                status, body, _ = await first
                assert (status, body["error"]) == (500, "RuntimeError: fold exploded")
                _, health, _ = await _request(host, port, "GET", "/healthz")
                for status, body, _ in [*await asyncio.gather(*queued), await post()]:
                    assert (status, body["error"]) == (503, health["error"])
                assert loop.time() - released < timeout / 3
            finally:
                release.set()
                await asyncio.wait_for(server.shutdown(), timeout)

        asyncio.run(scenario())
        assert WriteAheadLog(tmp_path / "data" / "wal.log").recover()[0] == []

    def test_backpressure_answers_429_with_retry_after(self, tmp_path):
        """A slow fold fills the per-tenant allowance; overflow gets 429."""

        async def scenario():
            service = AggregationService(make_config(tmp_path / "data"))
            server = ServiceServer(
                service,
                ServerConfig(
                    port=0,
                    queue_limit=4,
                    tenant_queue_limit=1,
                    watchdog_interval=0.05,
                ),
            )
            host, port = await server.start()
            try:
                # Stall the single service thread so the first batch stays
                # "pending" long enough for the second to be over-limit.
                plan = FaultPlan(
                    [
                        FaultSpec(
                            point="service.ingest",
                            kind="latency",
                            times=1,
                            delay=0.5,
                        )
                    ]
                )
                with injected(plan):
                    batch = {"tenant": TENANT, "stream": "A", "values": [1]}
                    first = asyncio.ensure_future(
                        _request(host, port, "POST", "/v1/report", batch)
                    )
                    await asyncio.sleep(0.15)  # first batch is now folding
                    status, body, headers = await _request(
                        host, port, "POST", "/v1/report", batch
                    )
                    assert status == 429, body
                    assert int(headers["retry-after"]) >= 1
                    status, ack, _ = await first
                    assert status == 200 and ack["sequence"] == 0
            finally:
                await server.shutdown()

        asyncio.run(scenario())

    def test_watchdog_publishes_at_threshold(self, tmp_path):
        async def scenario():
            server = self._server(tmp_path, publish_threshold=2)
            host, port = await server.start()
            try:
                boot = server.service.snapshot.wal_records
                assert boot == 0
                batch = {"tenant": TENANT, "stream": "A", "values": [1, 2]}
                for _ in range(2):
                    status, _, _ = await _request(
                        host, port, "POST", "/v1/report", batch
                    )
                    assert status == 200
                for _ in range(100):
                    if server.service.snapshot.wal_records >= 2:
                        break
                    await asyncio.sleep(0.05)
                assert server.service.snapshot.wal_records == 2
            finally:
                await server.shutdown()

        asyncio.run(scenario())

    def test_graceful_shutdown_publishes_final_snapshot(self, tmp_path):
        async def scenario():
            server = self._server(tmp_path)
            host, port = await server.start()
            batch = {"tenant": TENANT, "stream": "A", "values": [5, 6, 7]}
            status, _, _ = await _request(host, port, "POST", "/v1/report", batch)
            assert status == 200
            await server.shutdown()
            await server.serve_until_closed()  # resolves after shutdown
            assert server.service.snapshot.wal_records == 1

        asyncio.run(scenario())
        # The shutdown flushed durable state: a fresh engine recovers it.
        reopened = AggregationService(make_config(tmp_path / "data"))
        recovery = reopened.start()
        assert recovery["wal_records"] == 1
        assert recovery["replayed"] == 0  # checkpoints covered everything
        reopened.close()


# ---------------------------------------------------------------------------
# CLI wiring
# ---------------------------------------------------------------------------
class TestServeCli:
    def test_parser_flags(self, tmp_path):
        from repro.service.__main__ import build_parser

        args = build_parser().parse_args(
            [
                "--data-dir",
                str(tmp_path),
                "--port",
                "8123",
                "--wal-fsync",
                "batch",
                "--publish-threshold",
                "16",
            ]
        )
        assert args.port == 8123
        assert args.wal_fsync == "batch"
        assert args.publish_threshold == 16
        assert args.fault_plan is None

    def test_shards_flag_is_gone(self, tmp_path, capsys):
        from repro.service.__main__ import build_parser

        parser = build_parser()
        assert "--shards" not in parser.format_help()
        with pytest.raises(SystemExit):
            parser.parse_args(["--data-dir", str(tmp_path), "--shards", "4"])

    def test_data_dir_is_required(self, capsys):
        from repro.service.__main__ import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_invalid_fault_plan_fails_before_serving(self, tmp_path):
        from repro.service.__main__ import main as serve_main

        plan_path = tmp_path / "plan.json"
        plan_path.write_text("{ not json")
        with pytest.raises(ParameterError, match="not valid JSON"):
            serve_main(
                ["--data-dir", str(tmp_path / "data"), "--fault-plan", str(plan_path)]
            )

    def test_experiments_cli_forwards_serve(self):
        """`repro-experiments serve ...` hands its argv to the service CLI."""
        from repro.experiments.cli import _forwarded_args

        argv = ["serve", "--data-dir", "/tmp/x", "--port", "0"]
        assert _forwarded_args(argv, "serve") == argv[1:]
        assert _forwarded_args(["run", "--help"], "serve") is None


# ---------------------------------------------------------------------------
# Temporal windows through the service
# ---------------------------------------------------------------------------
class TestTemporalService:
    """Windowed estimates are pure over deterministic WAL state.

    The epoch index is ``sequence // epoch_interval``, so the ring is a
    function of the WAL alone — replay and replication must rebuild it
    bit-for-bit, and a windowed answer must match a hand-driven
    :class:`~repro.temporal.TemporalSession` fed the same batches.
    """

    INTERVAL = 2
    RETAINED = 4

    def _temporal_config(self, data_dir, **overrides):
        return make_config(
            data_dir,
            epoch_interval=self.INTERVAL,
            window_epochs=self.RETAINED,
            **overrides,
        )

    def test_windowed_estimate_matches_direct_temporal_session(self, tmp_path):
        from repro.temporal import TemporalSession

        batches = make_batches(8)
        service = AggregationService(self._temporal_config(tmp_path))
        service.start()
        for tenant, stream, values in batches:
            service.ingest(tenant, stream, values)

        direct = TemporalSession(
            SketchParams(3, 32, 2.0), window_epochs=self.RETAINED, seed=11
        )
        for sequence, (tenant, stream, values) in enumerate(batches):
            direct.roll_to(sequence // self.INTERVAL)
            direct.collect(
                f"{tenant}/{stream}", values, seed=batch_seed(11, sequence)
            )

        for window in (1, 2, 3):
            answer = service.estimate(TENANT, "A", "B", window=window)
            expected = direct.window_session(window).estimate(
                f"{TENANT}/A", f"{TENANT}/B"
            )
            assert answer["estimate"] == float(expected.estimate)
            assert answer["window"] == window
            assert answer["epochs"] == [
                epoch for epoch, _ in direct.window_entries(window)
            ]
        service.close()

    def test_window_replay_rebuilds_identical_ring(self, tmp_path):
        batches = make_batches(10)

        reference = AggregationService(self._temporal_config(tmp_path / "ref"))
        reference.start()
        for tenant, stream, values in batches[:7]:
            reference.ingest(tenant, stream, values)

        crashed = AggregationService(self._temporal_config(tmp_path / "crash"))
        crashed.start()
        for tenant, stream, values in batches[:7]:
            crashed.ingest(tenant, stream, values)
        crashed.wal.close()  # crash: no flush, no checkpoint of the ring

        restarted = AggregationService(self._temporal_config(tmp_path / "crash"))
        recovery = restarted.start()
        assert recovery["wal_records"] == 7

        # No epoch was evicted yet: the checkpoint holds an empty prefix,
        # so replay alone must rebuild the ring.
        assert restarted.status()["temporal"] == reference.status()["temporal"]
        for window in (2, 4):
            assert restarted.estimate(TENANT, "A", "B", window=window) == (
                reference.estimate(TENANT, "A", "B", window=window)
            )
        reference.close()
        restarted.close()

    @staticmethod
    def _count_encodes(monkeypatch) -> list:
        """Count client-simulation encodes (one per perturbed batch)."""
        import repro.api.session as session_module

        calls = []
        encode = session_module.encode_reports_into

        def counting(*args, **kwargs):
            calls.append(1)
            return encode(*args, **kwargs)

        monkeypatch.setattr(session_module, "encode_reports_into", counting)
        return calls

    def test_each_record_is_perturbed_once(self, tmp_path, monkeypatch):
        """The ring is the node's one accumulator: one encode per batch."""
        calls = self._count_encodes(monkeypatch)
        service = AggregationService(self._temporal_config(tmp_path))
        service.start()
        for tenant, stream, values in make_batches(12):
            before = len(calls)
            service.ingest(tenant, stream, values)
            assert len(calls) - before == 1
        service.close()

    def _ingest_with_keys(self, service, batches) -> None:
        for sequence, (tenant, stream, values) in enumerate(batches):
            service.ingest(tenant, stream, values, idempotency_key=f"k{sequence}")

    def _observe(self, service, batches) -> dict:
        """Everything a client or operator can read off a node."""
        status = service.status()
        status.pop("recovery")
        windows = [
            service.estimate(TENANT, "A", "B", window=window)
            for window in range(1, self.RETAINED + 2)
        ]
        tenant, stream, values = batches[3]
        replayed_ack = service.ingest(tenant, stream, values, idempotency_key="k3")
        service.publish()
        return {
            "status": status,
            "windows": windows,
            "dedup": replayed_ack,
            "digest": service.snapshot.digest,
            "after": service.status()["temporal"],
        }

    @pytest.mark.parametrize("num_batches", [20, 40])
    def test_restart_refolds_only_the_prefix_tail(
        self, tmp_path, monkeypatch, num_batches
    ):
        """A restart folds ``(window_epochs + 1) * epoch_interval`` records.

        The checkpoint holds the prefix of evicted epochs, so the re-fold
        covers only the retained epochs and the open one — the same count
        at any WAL length — and the restarted node answers exactly as a
        node that never crashed.
        """
        batches = make_batches(num_batches)
        reference = AggregationService(self._temporal_config(tmp_path / "ref"))
        reference.start()
        self._ingest_with_keys(reference, batches)

        crashed = AggregationService(self._temporal_config(tmp_path / "crash"))
        crashed.start()
        self._ingest_with_keys(crashed, batches)
        crashed.close()

        calls = self._count_encodes(monkeypatch)
        restarted = AggregationService(self._temporal_config(tmp_path / "crash"))
        recovery = restarted.start()
        refold = (self.RETAINED + 1) * self.INTERVAL
        assert len(calls) == refold
        assert recovery["replayed"] == refold
        assert restarted.status()["last_checkpoint_sequence"] == num_batches - refold
        assert self._observe(restarted, batches) == self._observe(reference, batches)
        reference.close()
        restarted.close()

    def test_snapshot_sums_every_epoch_the_ring_evicted(self, tmp_path):
        """An epochs node publishes all time: prefix + ring + open epoch.

        Its arrays, counters and per-stream charges are an epochs-off
        node's; only the ledger's group names differ (each epoch names
        its cohorts afresh and the sum renames them apart), and the
        worst-case spend stays the configured epsilon.
        """
        from repro.privacy import BudgetLedger

        batches = make_batches(20)  # 10 epochs of 2, 4 retained
        published = []
        for config in (make_config(tmp_path / "flat"), self._temporal_config(tmp_path / "ring")):
            service = AggregationService(config)
            service.start()
            for tenant, stream, values in batches:
                service.ingest(tenant, stream, values)
            service.publish()
            published.append(json.loads(service.snapshot.payload_bytes)["partial"])
            service.close()
        flat, ring = published
        assert ring["arrays"] == flat["arrays"]
        assert ring["counters"] == flat["counters"]
        charges = [meta.pop("charges") for meta in (flat["meta"], ring["meta"])]
        assert ring["meta"] == flat["meta"]

        def cohorts(rows):
            return sorted((group.split("#")[0].split("@")[0], eps) for group, eps, _ in rows)

        assert cohorts(charges[1]) == cohorts(charges[0])
        ledger = BudgetLedger([tuple(charge) for charge in charges[1]])
        assert ledger.worst_case_epsilon() == 2.0

    @pytest.mark.parametrize("written_at", [0, 2])
    def test_checkpoint_of_another_epoch_interval_cold_starts(
        self, tmp_path, written_at
    ):
        """Cursor 32 fits interval 4, but its prefix was cut at another one.

        Restored, its charges would keep the old epochs' cohort names (two
        old epochs' ``acme/A`` in one new epoch) and the snapshot would
        rename them apart differently from a node that always ran at 4.
        """
        batches = make_batches(40)
        options = dict(window_epochs=1, checkpoint_interval=16)
        crashed = AggregationService(
            make_config(tmp_path / "crash", epoch_interval=written_at, **options)
        )
        crashed.start()
        for tenant, stream, values in batches:
            crashed.ingest(tenant, stream, values)
        assert crashed.status()["last_checkpoint_sequence"] in (28, 32)
        crashed.wal.close()

        answers = []
        for data_dir in ("crash", "ref"):
            service = AggregationService(
                make_config(tmp_path / data_dir, epoch_interval=4, **options)
            )
            recovery = service.start()
            if data_dir == "ref":
                for tenant, stream, values in batches:
                    service.ingest(tenant, stream, values)
            else:
                assert f"epoch_interval {written_at}" in recovery["cold_start"]
            service.publish()
            answers.append(
                (
                    service.snapshot.digest,
                    service.estimate(TENANT, "A", "B", window=2),
                    service.status()["temporal"],
                )
            )
            service.close()
        assert answers[0] == answers[1]

    def test_corrupt_checkpoint_cold_starts_to_the_same_answers(self, tmp_path):
        batches = make_batches(20)
        reference = AggregationService(self._temporal_config(tmp_path / "ref"))
        reference.start()
        self._ingest_with_keys(reference, batches)

        crashed = AggregationService(self._temporal_config(tmp_path / "crash"))
        crashed.start()
        self._ingest_with_keys(crashed, batches)
        crashed.close()
        (tmp_path / "crash" / "node.ckpt").write_text("{ not json")

        restarted = AggregationService(self._temporal_config(tmp_path / "crash"))
        recovery = restarted.start()
        assert "invalid JSON" in recovery["cold_start"]
        assert recovery["replayed"] == len(batches)
        observed, expected = (
            self._observe(restarted, batches),
            self._observe(reference, batches),
        )
        # The cold-started node has not flushed a checkpoint of its own yet.
        assert observed["status"].pop("last_checkpoint_sequence") == 0
        assert expected["status"].pop("last_checkpoint_sequence") == 10
        assert observed == expected
        reference.close()
        restarted.close()

    def test_windowed_queries_require_epoch_interval(self, tmp_path):
        service = AggregationService(make_config(tmp_path))
        service.start()
        with pytest.raises(ProtocolError, match="disabled"):
            service.estimate(TENANT, "A", "B", window=1)
        service.close()

    def test_window_bounds_are_validated(self, tmp_path):
        service = AggregationService(self._temporal_config(tmp_path))
        service.start()
        for tenant, stream, values in make_batches(4):
            service.ingest(tenant, stream, values)
        with pytest.raises(ParameterError, match="window"):
            service.estimate(TENANT, "A", "B", window=0)
        with pytest.raises(ParameterError, match="retention"):
            # RETAINED closed epochs + the open one is the horizon.
            service.estimate(TENANT, "A", "B", window=self.RETAINED + 2)
        service.close()

    def test_status_reports_temporal_observables(self, tmp_path):
        service = AggregationService(self._temporal_config(tmp_path))
        service.start()
        assert service.status()["temporal"]["epoch"] == 0
        for tenant, stream, values in make_batches(6):
            service.ingest(tenant, stream, values)
        temporal = service.status()["temporal"]
        assert temporal["epoch"] == 5 // self.INTERVAL
        assert temporal["epoch_interval"] == self.INTERVAL
        assert temporal["window_epochs"] == self.RETAINED
        assert temporal["closed_epochs"] == 2
        assert temporal["retained_epochs"] == [0, 1]
        assert TENANT in temporal["continual"]
        service.close()

    def test_disabled_service_reports_no_temporal_state(self, tmp_path):
        service = AggregationService(make_config(tmp_path))
        service.start()
        assert service.status()["temporal"] is None
        service.close()

    def test_http_windowed_round_trip(self, tmp_path):
        async def scenario():
            service = AggregationService(self._temporal_config(tmp_path / "data"))
            server = ServiceServer(
                service, ServerConfig(port=0, watchdog_interval=0.05)
            )
            host, port = await server.start()
            try:
                for index in range(4):
                    status, ack, _ = await _request(
                        host,
                        port,
                        "POST",
                        "/v1/report",
                        {
                            "tenant": TENANT,
                            "stream": "A" if index % 2 == 0 else "B",
                            "values": [1, 2, 3],
                        },
                    )
                    assert status == 200 and ack["sequence"] == index

                # Windowed estimates need no publish: they answer from
                # the live ring.
                status, answer, _ = await _request(
                    host,
                    port,
                    "GET",
                    f"/v1/estimate?tenant={TENANT}&kind=join"
                    "&streams=A,B&window=2",
                )
                assert status == 200
                assert answer["window"] == 2
                assert answer["epochs"] == [0, 1]
                assert "snapshot_digest" not in answer

                status, body, _ = await _request(
                    host,
                    port,
                    "GET",
                    f"/v1/estimate?tenant={TENANT}&kind=join"
                    "&streams=A,B&window=nope",
                )
                assert status == 400 and "integer" in body["error"]

                status, body, _ = await _request(host, port, "GET", "/v1/status")
                assert status == 200
                assert body["temporal"]["epoch"] == 1
            finally:
                await server.shutdown()

        asyncio.run(scenario())

    def test_http_windowed_disabled_is_409(self, tmp_path):
        async def scenario():
            service = AggregationService(make_config(tmp_path / "data"))
            server = ServiceServer(
                service, ServerConfig(port=0, watchdog_interval=0.05)
            )
            host, port = await server.start()
            try:
                status, body, _ = await _request(
                    host,
                    port,
                    "GET",
                    f"/v1/estimate?tenant={TENANT}&kind=join"
                    "&streams=A,B&window=1",
                )
                assert status == 409 and "disabled" in body["error"]
            finally:
                await server.shutdown()

        asyncio.run(scenario())
