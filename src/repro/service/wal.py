"""Append-only write-ahead log: the service's durability boundary.

Every report batch the service *acknowledges* is first appended here —
one crc32-framed record per batch — so a ``kill -9`` at any instant
loses at most work the client was never told succeeded.  On restart the
log replays in order; per-batch randomness is derived from the record's
*sequence number* (see :func:`repro.service.core.batch_seed`), so the
replayed fold is byte-identical to the fold the dying process performed.

The log is the node's only record store.  :meth:`WriteAheadLog.append`
takes a frame already built by :func:`encode_frame` (the primary builds
each frame once; a standby appends the bytes it was shipped), and the
log keeps an index of every intact frame's byte offset, so
:meth:`WriteAheadLog.frame` reads any record's stored bytes back for
replication shipping, catch-up and duplicate checks, and
:meth:`WriteAheadLog.truncate_to` cuts at an indexed offset.

File format (little-endian)::

    +------+---------+------------+
    | RWHD | ver:u32 | epoch: u64 |   fixed 16-byte header
    +------+---------+------------+
    +----+----------+----------+------------------+
    | RW | len: u32 | crc: u32 | payload (len B)  |   one frame per record
    +----+----------+----------+------------------+

The header carries the **fencing epoch** of the replication layer
(:mod:`repro.service.replication`): a monotonic counter bumped by every
standby promotion and rewritten in place (16 bytes at offset 0, fsynced)
by :meth:`WriteAheadLog.set_epoch`.  A node that recovers its WAL knows
which epoch it last served in, so a zombie primary cannot forget it was
fenced.  Headerless (v1) files are migrated to the headered format at
epoch 0 on the first :meth:`WriteAheadLog.recover`.

``payload`` is the canonical JSON of the record (sorted keys, fixed
separators); ``crc`` is the crc32 of the payload bytes.  A crash mid
``write`` leaves a *torn tail*: a final frame whose magic, length, crc
or byte count does not check out.  :meth:`WriteAheadLog.recover` reads
every intact frame, stops cleanly at the first damaged one, and (by
default) truncates the file back to the last intact frame boundary so
subsequent appends continue from a clean edge.  Torn bytes are counted
and reported — a tear can only hold a record that was never
acknowledged, so dropping it is correct, but it must never be silent.

Durability knob (``fsync=``):

``"always"``
    ``os.fsync`` after every append — an acknowledged batch survives
    power loss, not just process death.  The default.
``"batch"``
    Data is flushed to the OS on every append (survives ``kill -9``)
    but fsynced only at :meth:`WriteAheadLog.sync` barriers — the
    service calls one before each checkpoint flush.
``"never"``
    No fsync at all; survives process death only.  For tests and
    benchmarks chasing the no-durability ceiling.

Fault points: ``service.wal.append`` fires before the frame is written.
``torn-write`` / ``corrupt`` specs damage the frame bytes (truncate /
flip one payload byte) and then raise
:class:`~repro.errors.InjectedCrashError`: a torn or corrupt frame can
only exist because the writer died mid-write, so the injection models
the whole event — damage on disk, process gone — and the chaos suite
restarts from the damaged file exactly as production would.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, List, Mapping, Optional, Tuple, Union

from ..errors import InjectedCrashError, ParameterError
from ..reliability.faults import fault_point

__all__ = [
    "WriteAheadLog",
    "WalTear",
    "FSYNC_POLICIES",
    "encode_frame",
    "decode_frame",
]

#: Two magic bytes opening every frame.
_MAGIC = b"RW"

#: Frame header layout after the magic: payload length, payload crc32.
_HEADER = struct.Struct("<II")

#: File header: magic, format version, fencing epoch.
_FILE_MAGIC = b"RWHD"
_FILE_HEADER = struct.Struct("<4sIQ")
_WAL_VERSION = 2

#: Supported fsync policies, strictest first.
FSYNC_POLICIES = ("always", "batch", "never")

#: Refuse to read frames claiming more than this many payload bytes —
#: a corrupt length field must not trigger a gigabyte allocation.
_MAX_FRAME_BYTES = 256 * 1024 * 1024


def encode_frame(record: Mapping[str, Any]) -> bytes:
    """The crc32-framed bytes of one record, exactly as appended.

    Framing is a pure function of the record (canonical JSON).  The
    primary builds each record's frame once, at ingest; the WAL stores
    those bytes, replication ships and re-ships them as stored, and a
    standby appends them as received — so both WALs (and hence both
    snapshot digests) stay in lockstep without a second encode.
    """
    payload = json.dumps(dict(record), sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )
    return _MAGIC + _HEADER.pack(len(payload), zlib.crc32(payload) & 0xFFFFFFFF) + payload


def decode_frame(frame: bytes) -> dict:
    """Parse and integrity-check one shipped frame; returns its record.

    Raises :class:`~repro.errors.ParameterError` naming the damage for
    any frame that does not verify — truncated, bad magic, crc mismatch,
    trailing bytes — so a replication stream corrupted in flight is
    rejected *before* it can touch a standby's WAL.
    """
    if len(frame) < len(_MAGIC) + _HEADER.size:
        raise ParameterError(
            f"replication frame truncated at {len(frame)} bytes (header needs "
            f"{len(_MAGIC) + _HEADER.size})"
        )
    if frame[:2] != _MAGIC:
        raise ParameterError("replication frame has bad magic")
    length, crc = _HEADER.unpack_from(frame, 2)
    body = frame[2 + _HEADER.size :]
    if len(body) != length:
        raise ParameterError(
            f"replication frame length mismatch ({len(body)} bytes of payload, "
            f"header claims {length})"
        )
    if zlib.crc32(body) & 0xFFFFFFFF != crc:
        raise ParameterError("replication frame payload crc32 mismatch")
    try:
        record = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ParameterError(
            f"replication frame payload is not valid JSON ({error})"
        ) from error
    if not isinstance(record, dict):
        raise ParameterError(
            f"replication frame payload must be a JSON object, got "
            f"{type(record).__name__}"
        )
    return record


@dataclass(frozen=True)
class WalTear:
    """One damaged tail: where the log stopped replaying and why."""

    offset: int  #: byte offset of the first damaged frame
    dropped_bytes: int  #: bytes past the offset that were discarded
    reason: str  #: human-readable damage description

    def to_dict(self) -> dict:
        return {
            "offset": self.offset,
            "dropped_bytes": self.dropped_bytes,
            "reason": self.reason,
        }


class WriteAheadLog:
    """Crc32-framed append-only record log with torn-tail recovery.

    Construction does not touch the file; call :meth:`recover` (which
    creates it when absent) before the first :meth:`append` so the
    in-memory frame index agrees with the bytes on disk.
    """

    def __init__(self, path: Union[str, Path], *, fsync: str = "always") -> None:
        if fsync not in FSYNC_POLICIES:
            raise ParameterError(
                f"fsync policy must be one of {FSYNC_POLICIES}, got {fsync!r}"
            )
        self.path = Path(path)
        self.fsync = fsync
        self._file = None
        # Byte offset of every intact frame plus the end of the last one
        # (empty until recover(); the record count is one less).
        self._offsets: List[int] = []
        self._epoch = 0  # fencing epoch from the file header

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def _scan(
        self, data: bytes, *, base: int = 0
    ) -> Tuple[List[dict], List[int], Optional[WalTear]]:
        """Parse frame ``data`` into records; stop at the first damaged frame.

        ``base`` is the file offset where ``data`` starts (the header
        size for a v2 file), so tear offsets name absolute positions an
        operator can seek to.  The returned offsets are absolute too:
        the start of every intact frame, then the end of the last one.
        """
        records: List[dict] = []
        offsets = [base]
        offset = 0
        total = len(data)
        while offset < total:
            head = offset
            if total - offset < len(_MAGIC) + _HEADER.size:
                return records, offsets, WalTear(
                    base + head, total - head, "truncated frame header"
                )
            if data[offset : offset + 2] != _MAGIC:
                return records, offsets, WalTear(
                    base + head, total - head, "bad frame magic"
                )
            offset += 2
            length, crc = _HEADER.unpack_from(data, offset)
            offset += _HEADER.size
            if length > _MAX_FRAME_BYTES:
                return records, offsets, WalTear(
                    base + head, total - head, f"implausible frame length {length}"
                )
            if total - offset < length:
                return records, offsets, WalTear(
                    base + head,
                    total - head,
                    f"truncated payload ({total - offset} of {length} bytes)",
                )
            payload = data[offset : offset + length]
            offset += length
            if zlib.crc32(payload) & 0xFFFFFFFF != crc:
                return records, offsets, WalTear(
                    base + head, total - head, "payload crc32 mismatch"
                )
            try:
                record = json.loads(payload.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as error:
                return records, offsets, WalTear(
                    base + head, total - head, f"payload not valid JSON ({error})"
                )
            records.append(record)
            offsets.append(base + offset)
        return records, offsets, None

    def recover(self, *, truncate: bool = True) -> Tuple[List[dict], Optional[WalTear]]:
        """Replay every intact record; optionally trim a damaged tail.

        Returns ``(records, tear)`` where ``tear`` is ``None`` for a
        clean log.  With ``truncate=True`` (default) the file is cut
        back to the last intact frame so :meth:`append` continues from a
        clean boundary; a tear holds at most never-acknowledged data, so
        trimming is safe.  The file then holds the 16-byte header and the
        intact frames, whose offsets (re)build the frame index — call
        this once before the first append.  A damaged tail kept with
        ``truncate=False`` leaves the log for reading only:
        :meth:`append` refuses to write past it.
        """
        self.close()
        if self.path.exists():
            data = self.path.read_bytes()
        else:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            data = b""
        epoch = 0
        legacy = False
        header_tear: Optional[WalTear] = None
        if data[:4] == _FILE_MAGIC and len(data) < _FILE_HEADER.size:
            # Torn file header: the crash hit the 16-byte create/migrate
            # write itself, so no frame can follow it and no epoch was
            # ever durable — reinitialise at epoch 0, but report the
            # tear like any other damaged tail.
            header_tear = WalTear(
                0,
                len(data),
                f"truncated file header ({len(data)} of "
                f"{_FILE_HEADER.size} bytes)",
            )
            frames, base = b"", len(data)
        elif data[:4] == _FILE_MAGIC:
            magic, version, epoch = _FILE_HEADER.unpack_from(data, 0)
            if version != _WAL_VERSION:
                raise ParameterError(
                    f"WAL {self.path} has unsupported format version {version}"
                )
            frames, base = data[_FILE_HEADER.size :], _FILE_HEADER.size
        else:
            # Either a brand-new/empty log or a headerless v1 file from
            # before fencing epochs existed; both migrate to v2 below.
            frames, base = data, 0
            legacy = len(data) > 0
        records, offsets, tear = self._scan(frames, base=base)
        if header_tear is not None:
            tear = header_tear
        self._epoch = int(epoch)
        header = _FILE_HEADER.pack(_FILE_MAGIC, _WAL_VERSION, self._epoch)
        good_offset = offsets[-1]
        if legacy or (header_tear is not None and truncate):
            # One-time migration (or torn-header reinit): rewrite as
            # header + intact frames via the atomic temp + replace
            # dance (also trims any tear).
            tmp = self.path.with_name(self.path.name + ".tmp")
            keep = frames[: good_offset - base] if (tear is None or truncate) else frames
            with open(tmp, "wb") as fh:
                fh.write(header + keep)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, self.path)
            self._fsync_parent()
        elif not data:
            with open(self.path, "wb") as fh:
                fh.write(header)
                fh.flush()
                os.fsync(fh.fileno())
            self._fsync_parent()
        elif tear is not None and truncate:
            with open(self.path, "r+b") as fh:
                fh.truncate(good_offset)
                fh.flush()
                os.fsync(fh.fileno())
        # In every branch the intact frames sit right after the header.
        self._offsets = [offset - base + _FILE_HEADER.size for offset in offsets]
        return records, tear

    def _fsync_parent(self) -> None:
        """Fsync the log's directory so a create/replace survives power loss."""
        fd = os.open(self.path.parent, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def frame(self, sequence: int) -> bytes:
        """The stored bytes of record ``sequence``, exactly as appended."""
        if not 0 <= sequence < len(self):
            raise ParameterError(
                f"WAL {self.path} holds {len(self)} record(s); no frame at "
                f"sequence {sequence}"
            )
        start, end = self._offsets[sequence], self._offsets[sequence + 1]
        return os.pread(self._handle().fileno(), end - start, start)

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def _require_recovered(self, before: str) -> None:
        if not self._offsets:
            raise ParameterError(
                f"WAL {self.path} used before recover(); call recover() before "
                f"{before} so the frame index matches the bytes on disk"
            )

    def _handle(self):
        """The read/append handle (appends always land at the file end)."""
        if self._file is None:
            self._require_recovered("reading or appending")
            self._file = open(self.path, "a+b")
        return self._file

    def append(self, frame: bytes) -> int:
        """Durably append one :func:`encode_frame` frame; returns its sequence.

        The returned sequence is the record's replay position (0-based)
        — the same number :func:`repro.service.core.batch_seed` derives
        the batch randomness from, which is what makes replay
        byte-identical.
        """
        fh = self._handle()
        sequence = len(self)
        if fh.tell() != self._offsets[-1]:
            raise ParameterError(
                f"WAL {self.path} holds bytes past its last intact frame; "
                f"recover() with truncate=True before appending"
            )
        spec = fault_point(
            "service.wal.append", sequence=sequence, bytes=len(frame)
        )
        if spec is not None and spec.kind in ("torn-write", "corrupt"):
            if spec.kind == "torn-write":
                damaged = frame[: max(1, len(frame) // 2)]
            else:
                flip = len(_MAGIC) + _HEADER.size  # first payload byte
                damaged = frame[:flip] + bytes([frame[flip] ^ 0xFF]) + frame[flip + 1 :]
            fh.write(damaged)
            fh.flush()
            os.fsync(fh.fileno())
            # A torn/corrupt frame only exists because the writer died
            # mid-write; model the whole event so the chaos suite
            # restarts from the damaged file exactly as production would.
            raise InjectedCrashError(
                "service.wal.append", {"sequence": sequence, "kind": spec.kind}
            )
        fh.write(frame)
        fh.flush()
        if self.fsync == "always":
            os.fsync(fh.fileno())
        self._offsets.append(self._offsets[-1] + len(frame))
        return sequence

    def sync(self) -> None:
        """Durability barrier: fsync pending bytes (``batch`` policy)."""
        if self._file is not None and self.fsync != "never":
            os.fsync(self._file.fileno())

    def truncate_to(self, records: int) -> int:
        """Durably cut the log back to its first ``records`` records.

        Divergence repair for the replication layer
        (:meth:`repro.service.replication.ReplicatedService.apply_replication`):
        a demoted node whose un-replicated suffix conflicts with the
        promoted primary's history drops that suffix here, then applies
        the primary's frames from the cut.  Only ever shortens the log;
        the cut lands at the indexed start of frame ``records`` and is
        fsynced before returning so a crash cannot resurrect the dropped
        fork.
        """
        self._require_recovered("truncate_to()")
        records = int(records)
        if records < 0 or records > len(self):
            raise ParameterError(
                f"cannot truncate a {len(self)}-record WAL to "
                f"{records} record(s)"
            )
        if records == len(self):
            return records
        self.close()  # flush the append handle before cutting beneath it
        with open(self.path, "r+b") as fh:
            fh.truncate(self._offsets[records])
            fh.flush()
            os.fsync(fh.fileno())
        del self._offsets[records + 1 :]
        return records

    # ------------------------------------------------------------------
    # Fencing epoch
    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        """The fencing epoch persisted in the file header."""
        return self._epoch

    def set_epoch(self, epoch: int) -> int:
        """Persist a monotonic fencing-epoch bump in the file header.

        The header is rewritten in place (16 bytes at offset 0) and
        fsynced regardless of the ``fsync`` policy — an epoch bump is a
        promotion or a fencing adoption, and forgetting one across a
        power cut is exactly the split-brain the epoch exists to stop.
        Lowering the epoch is refused with a typed error.
        """
        self._require_recovered("set_epoch()")
        epoch = int(epoch)
        if epoch < self._epoch:
            raise ParameterError(
                f"fencing epoch is monotonic: cannot lower {self._epoch} to {epoch}"
            )
        if epoch == self._epoch:
            return self._epoch
        with open(self.path, "r+b") as fh:
            fh.write(_FILE_HEADER.pack(_FILE_MAGIC, _WAL_VERSION, epoch))
            fh.flush()
            os.fsync(fh.fileno())
        self._epoch = epoch
        return self._epoch

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Records in the log (0 before :meth:`recover`)."""
        return max(len(self._offsets) - 1, 0)

    def size_bytes(self) -> int:
        """Current on-disk size of the log."""
        return self.path.stat().st_size if self.path.exists() else 0

    def close(self) -> None:
        if self._file is not None:
            self._file.flush()
            if self.fsync != "never":
                os.fsync(self._file.fileno())
            self._file.close()
            self._file = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"WriteAheadLog(path={str(self.path)!r}, fsync={self.fsync!r}, "
            f"records={len(self)})"
        )
