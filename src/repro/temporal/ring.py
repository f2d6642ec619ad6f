"""Bounded ring of closed per-epoch partial aggregates.

The temporal subsystem buckets ingestion into *epochs* and keeps each
closed epoch as one mergeable
:class:`~repro.distributed.PartialAggregate` — the same wire object
shard collection uses, so answering "the last ``W`` epochs" is nothing
more than a sum of ``W`` partials.  The ring bounds retention: only the
newest ``capacity`` closed epochs stay queryable, older ones are evicted
in push order and handed back to the caller.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

from ..distributed.partial import PartialAggregate
from ..errors import ParameterError

__all__ = ["EpochRing"]


class EpochRing:
    """Newest ``capacity`` closed epochs, each one mergeable partial.

    Epochs are pushed strictly in order (they are closed in order), so
    the ring is always a contiguous-by-push, sorted sequence of
    ``(epoch, partial)`` entries.  Lookups and window slices are O(W)
    over the retained entries — capacities are small (a handful to a few
    hundred epochs), not unbounded history.
    """

    def __init__(self, capacity: int) -> None:
        if int(capacity) < 1:
            raise ParameterError(f"ring capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._entries: List[Tuple[int, PartialAggregate]] = []

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[Tuple[int, PartialAggregate]]:
        return iter(self._entries)

    def push(self, epoch: int, partial: PartialAggregate) -> List[Tuple[int, PartialAggregate]]:
        """Retain one closed epoch; return the entries it evicts, oldest first."""
        epoch = int(epoch)
        if self._entries and epoch <= self._entries[-1][0]:
            raise ParameterError(
                f"epochs close in order: got epoch {epoch} after "
                f"{self._entries[-1][0]}"
            )
        self._entries.append((epoch, partial))
        evicted = self._entries[: -self.capacity]
        del self._entries[: -self.capacity]
        return evicted

    def epochs(self) -> List[int]:
        """Retained epoch indices, oldest first."""
        return [epoch for epoch, _ in self._entries]

    def newest_epoch(self) -> Optional[int]:
        return self._entries[-1][0] if self._entries else None

    def oldest_epoch(self) -> Optional[int]:
        return self._entries[0][0] if self._entries else None

    def last(self, count: int) -> List[Tuple[int, PartialAggregate]]:
        """The newest ``count`` retained entries, oldest first."""
        if int(count) < 1:
            raise ParameterError(f"count must be >= 1, got {count}")
        return list(self._entries[-int(count):])

    def slice(self, start: int, stop: int) -> List[Tuple[int, PartialAggregate]]:
        """Retained entries with ``start <= epoch < stop``, oldest first.

        Raises if part of the requested range was already evicted — a
        silently short answer would read as "covered everything".
        """
        start, stop = int(start), int(stop)
        if stop <= start:
            raise ParameterError(f"empty epoch range [{start}, {stop})")
        picked = [entry for entry in self._entries if start <= entry[0] < stop]
        oldest = self.oldest_epoch()
        if oldest is not None and start < oldest and len(picked) < stop - start:
            raise ParameterError(
                f"epoch range [{start}, {stop}) reaches behind the ring's "
                f"retention (oldest retained epoch is {oldest})"
            )
        return picked
