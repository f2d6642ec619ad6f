"""Crash-safe checkpointing of shard aggregators.

A shard aggregator that dies mid-period must not force its whole cohort
stream to replay: after every flushed batch the aggregator writes its
current :class:`~repro.distributed.PartialAggregate` plus a *cursor*
(how many cohorts it has folded) to disk, atomically.  On restart,
:meth:`ShardCheckpoint.load` hands back the last flushed state and the
ingest loop resumes from the cursor — since cohort seeds are fixed by
the plan, the resumed run is byte-identical to an uninterrupted one.

Atomicity uses the classic temp-file + :func:`os.replace` dance: the
checkpoint on disk is always a complete, valid payload — a crash during
a flush leaves the previous checkpoint intact, never a torn file.

A checkpoint that is nevertheless unreadable (torn by a power cut
mid-``os.replace`` on a non-atomic filesystem, bit-rotted, truncated by
an operator) raises the typed
:class:`~repro.errors.CheckpointCorruptError` instead of leaking
``json.JSONDecodeError`` / ``KeyError``; :func:`ingest_with_checkpoint`
treats that as a *cold start* — replays the full cohort plan from
scratch and records the recovery in the partial's meta — so a corrupt
checkpoint costs time, never correctness.

Fault points (armed by :class:`repro.reliability.FaultPlan`):
``checkpoint.flush`` (``torn-write`` specs truncate the bytes actually
written), ``checkpoint.load`` and ``checkpoint.ingest`` (one hit per
cohort folded).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Optional, Sequence, Tuple, Union

from ..errors import CheckpointCorruptError, ParameterError, PartialIntegrityError
from ..reliability.faults import fault_point
from .partial import PartialAggregate

__all__ = ["ShardCheckpoint", "ingest_with_checkpoint"]

#: Marker + version of the checkpoint file format.
CHECKPOINT_FORMAT = "repro/shard-checkpoint"
CHECKPOINT_VERSION = 1


class ShardCheckpoint:
    """Atomic flush/load of one shard aggregator's partial state.

    Every flush fsyncs the temp file *before* the rename and the
    directory *after* it.  Skipping the file fsync would let the classic
    rename-before-data crash surface the new name with empty or torn
    contents — the previous checkpoint gone, its replacement garbage —
    which is precisely what the atomic dance promises cannot happen;
    skipping the directory fsync would let a power cut forget the rename
    itself.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)

    def flush(self, partial: PartialAggregate, *, cursor: int) -> None:
        """Write ``partial`` + ``cursor`` atomically (temp + rename)."""
        if cursor < 0:
            raise ParameterError(f"cursor must be >= 0, got {cursor}")
        payload = {
            "format": CHECKPOINT_FORMAT,
            "version": CHECKPOINT_VERSION,
            "cursor": int(cursor),
            "partial": partial.to_dict(),
        }
        text = json.dumps(payload)
        spec = fault_point("checkpoint.flush", path=str(self.path), cursor=cursor)
        if spec is not None and spec.kind == "torn-write":
            # Model a write torn mid-payload: only half the bytes land.
            text = text[: max(1, len(text) // 2)]
        tmp = self.path.with_name(self.path.name + ".tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.path)
        fd = os.open(self.path.parent, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def load(self) -> Optional[Tuple[PartialAggregate, int]]:
        """The last flushed ``(partial, cursor)``, or ``None`` if absent.

        Raises :class:`~repro.errors.CheckpointCorruptError` on a file
        that exists but cannot be trusted: invalid JSON (torn write),
        missing fields, a malformed partial payload, or a partial whose
        content checksum fails.  A *valid* file of the wrong format or
        version still raises :class:`~repro.errors.ParameterError` —
        that is a configuration mistake, not corruption, and cold-start
        recovery must not paper over it.
        """
        if not self.path.exists():
            return None
        fault_point("checkpoint.load", path=str(self.path))
        try:
            payload = json.loads(self.path.read_text())
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            raise CheckpointCorruptError(self.path, f"invalid JSON ({error})") from error
        if not isinstance(payload, dict):
            raise CheckpointCorruptError(
                self.path, f"expected a JSON object, got {type(payload).__name__}"
            )
        if payload.get("format") != CHECKPOINT_FORMAT:
            raise ParameterError(
                f"{self.path} is not a shard checkpoint "
                f"(format={payload.get('format')!r})"
            )
        if payload.get("version") != CHECKPOINT_VERSION:
            raise ParameterError(
                f"unsupported checkpoint version {payload.get('version')!r}"
            )
        try:
            partial = PartialAggregate.from_dict(payload["partial"])
            cursor = int(payload["cursor"])
        except PartialIntegrityError as error:
            raise CheckpointCorruptError(self.path, str(error)) from error
        except (KeyError, TypeError, ValueError) as error:
            raise CheckpointCorruptError(
                self.path, f"malformed payload ({type(error).__name__}: {error})"
            ) from error
        if cursor < 0:
            raise CheckpointCorruptError(self.path, f"negative cursor {cursor}")
        return partial, cursor

    def clear(self) -> None:
        """Remove the checkpoint (after its partial reached the tree)."""
        if self.path.exists():
            self.path.unlink()


def ingest_with_checkpoint(
    shard_session,
    stream: str,
    cohorts: Sequence,
    cohort_seeds: Sequence,
    checkpoint: ShardCheckpoint,
    *,
    attribute: int = 0,
) -> PartialAggregate:
    """Fold ``cohorts`` into a shard session, checkpointing after each.

    ``shard_session`` is an *empty* :class:`~repro.api.JoinSession` shard
    (built from the coordinator's shared pairs); ``cohort_seeds[i]``
    fixes cohort ``i``'s client randomness, so a killed aggregator that
    restarts with the same arguments resumes from the last flushed
    cohort and finishes byte-identical to an uninterrupted run.  Returns
    the final partial (which the checkpoint also holds).

    A corrupt checkpoint (:class:`~repro.errors.CheckpointCorruptError`)
    downgrades to a **cold start**: the full cohort plan replays from
    cohort 0 — byte-identical to a never-checkpointed run, since the
    seeds are plan-fixed — and the recovery is recorded in the returned
    partial's ``meta["checkpoint_recovery"]`` (keyed by checkpoint path
    so the annotation survives meta's dict-union merge).
    """
    if len(cohorts) != len(cohort_seeds):
        raise ParameterError(
            f"got {len(cohorts)} cohorts but {len(cohort_seeds)} seeds"
        )
    start = 0
    state = None
    try:
        state = checkpoint.load()
    except CheckpointCorruptError as error:
        recovery = {
            "reason": error.reason,
            "cold_start": True,
            "cohorts_replayed": len(cohorts),
        }
    else:
        recovery = None
    if state is not None:
        partial, cursor = state
        if cursor > len(cohorts):
            raise ParameterError(
                f"checkpoint cursor {cursor} exceeds the {len(cohorts)}-cohort plan"
            )
        shard_session.merge(partial)
        start = cursor
    if start == len(cohorts) and state is not None:
        # Nothing to replay: hand back the flushed state itself.
        return state[0]
    for index in range(start, len(cohorts)):
        fault_point(
            "checkpoint.ingest", path=str(checkpoint.path), cohort=index
        )
        shard_session.collect(
            stream, cohorts[index], attribute=attribute, seed=cohort_seeds[index]
        )
        checkpoint.flush(shard_session.to_partial(), cursor=index + 1)
    result = shard_session.to_partial()
    if recovery is not None:
        result.meta["checkpoint_recovery"] = {str(checkpoint.path): recovery}
    return result
