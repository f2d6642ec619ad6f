"""Epoch-bucketed collection with sliding / tumbling window queries.

:class:`TemporalSession` runs one :class:`~repro.api.JoinSession` per
*epoch* (the open bucket) on hash pairs shared by every epoch, closes
each bucket into a mergeable
:class:`~repro.distributed.PartialAggregate` ring, and answers window
queries by summing the requested epochs into a fresh session, so a
window estimate equals, bit for bit, the estimate of a session that
ingested only the window's batches.  Evicted epochs merge into one
*prefix*, so prefix + ring + open epoch is all time: the online service
keeps no other accumulator, and checkpoints the prefix.

Three query shapes:

* **sliding** (:meth:`window_session`) — the newest ``W`` epochs at any
  moment, open bucket included by default;
* **tumbling** (:meth:`tumbling_session`) — the last *complete* aligned
  block of ``width`` epochs (``[b*width, (b+1)*width)``);
* **decayed** (:meth:`decayed_estimate`) — exponentially down-weighted
  combination with an exact rational decay factor
  (:mod:`repro.temporal.decay`).

Every epoch close also charges the
:class:`~repro.privacy.ContinualLedger`: epoch cohorts are keyed
``(subject, epoch, group)`` where the subject is the stream's namespace
prefix (``tenant/stream`` → ``tenant``), giving per-tenant
continual-observation accounting across re-released epochs.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from ..api.session import JoinSession, partial_charges, partial_streams
from ..core.params import SketchParams
from ..distributed.partial import PartialAggregate
from ..errors import ParameterError, ProtocolError
from ..hashing import HashPairs
from ..privacy.budget import ContinualLedger
from ..rng import RandomState, derive_seed, ensure_rng
from .decay import decayed_join_estimate
from .ring import EpochRing

__all__ = ["TemporalSession"]


class TemporalSession:
    """One collection timeline: shared pairs, epoch ring, window queries.

    Parameters
    ----------
    params:
        Sketch parameters of every epoch's streams.
    window_epochs:
        Ring capacity — the largest sliding window answerable, and the
        retention horizon of closed epochs.
    seed:
        Master seed of the coordinator session (draws the shared hash
        pairs when ``pairs`` is not given).
    pairs:
        Pre-built hash pairs to share (e.g. with a sibling service).
    backend:
        Compute-backend pin forwarded to every epoch session.
    """

    def __init__(
        self,
        params: SketchParams,
        *,
        window_epochs: int = 8,
        seed: RandomState = None,
        pairs: Optional[Sequence[HashPairs]] = None,
        backend=None,
    ) -> None:
        self.params = params
        self._coordinator = JoinSession(
            params, seed=seed, pairs=pairs, backend=backend
        )
        self._ring = EpochRing(window_epochs)
        # Epoch shards draw their client-simulation seeds from this
        # stream so a fixed master seed pins the whole timeline, not
        # just the hash pairs.
        self._shard_rng = ensure_rng(seed)
        self._open = self._spawn_epoch_shard()
        self._epoch = 0
        # Evicted epochs in order; their charges keep their epoch's names.
        self._prefix = self._coordinator.to_partial(include_timing=False)
        self.continual = ContinualLedger()

    def _spawn_epoch_shard(self) -> JoinSession:
        return self._coordinator.spawn_shard(
            seed=derive_seed(self._shard_rng)
        )

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    @property
    def pairs(self) -> Tuple[HashPairs, ...]:
        """The published hash pairs shared by every epoch."""
        return self._coordinator.pairs

    @property
    def epoch(self) -> int:
        """Index of the open (currently ingesting) epoch."""
        return self._epoch

    @property
    def ring(self) -> EpochRing:
        """The ring of closed epochs (read-only by convention)."""
        return self._ring

    @property
    def open_session(self) -> JoinSession:
        """The open epoch's session; every roll replaces it."""
        return self._open

    @property
    def prefix(self) -> PartialAggregate:
        """Every epoch the ring has evicted, merged into one partial."""
        return self._prefix

    def open_reports(self) -> int:
        """Reports ingested into the open epoch so far."""
        return sum(
            self._open.num_reports(name) for name in self._open.streams()
        )

    # ------------------------------------------------------------------
    # Ingestion / epoch roll
    # ------------------------------------------------------------------
    def collect(self, stream: str, values, **kwargs) -> "TemporalSession":
        """Fold one end-table cohort into the open epoch's ``stream``."""
        self._open.collect(stream, values, **kwargs)
        return self

    def roll(self) -> PartialAggregate:
        """Close the open epoch into the ring; open the next.

        The closed epoch's partial (timing excluded — epochs are part of
        published identity) is retained in the ring, the epoch the ring
        evicts for it is merged into :attr:`prefix`, its cohort charges
        land on the continual ledger under ``(subject, epoch, group)``,
        and a fresh sibling session on the same pairs starts the next
        epoch.  Empty epochs close too: the ring mirrors elapsed time,
        not traffic.
        """
        partial = self._open.to_partial(include_timing=False)
        for _, evicted in self._ring.push(self._epoch, partial):
            self._prefix.merge(evicted)
        for group, epsilon, mechanism in self._open.ledger.charges:
            self.continual.charge(
                self._subject_of(group), self._epoch, group, epsilon, mechanism
            )
        self._epoch += 1
        self._open = self._spawn_epoch_shard()
        return partial

    def roll_to(self, epoch: int) -> int:
        """Close epochs until ``epoch`` is the open one; returns rolls made.

        Idempotent: rolling to the current (or an earlier) epoch does
        nothing, which is what lets replay drive the roll from WAL
        sequence numbers without tracking extra state.
        """
        rolls = 0
        while self._epoch < int(epoch):
            self.roll()
            rolls += 1
        return rolls

    def resume(
        self, prefix: PartialAggregate, epochs: int, *, charges_per_epoch: int
    ) -> "TemporalSession":
        """Start this fresh session from a :attr:`prefix` of ``epochs`` epochs.

        Epoch ``epochs`` opens next.  The prefix's charges go back on the
        continual ledger in order, ``charges_per_epoch`` to an epoch.  A
        malformed stream entry or charge raises
        :class:`~repro.errors.PartialIntegrityError` before anything
        changes.
        """
        partial_streams(prefix)
        charges = partial_charges(prefix)
        self._prefix.merge(prefix)
        self._epoch = int(epochs)
        for index, (group, eps, mechanism) in enumerate(charges):
            epoch = index // charges_per_epoch
            self.continual.charge(self._subject_of(group), epoch, group, eps, mechanism)
        return self

    @staticmethod
    def _subject_of(group: str) -> str:
        """Accounting principal of one cohort group.

        Cohort groups are ``stream`` / ``stream#N``; service streams are
        namespaced ``tenant/stream``.  The subject is the namespace
        prefix when present, the bare stream otherwise.
        """
        stream = group.split("#", 1)[0]
        return stream.split("/", 1)[0]

    # ------------------------------------------------------------------
    # Window queries
    # ------------------------------------------------------------------
    def window_entries(
        self, window: Optional[int] = None, *, include_open: bool = True
    ) -> List[Tuple[int, PartialAggregate]]:
        """The ``(epoch, partial)`` pairs a window query merges, oldest first.

        ``window`` counts epochs, the open bucket included when
        ``include_open`` (the default — fresh data answers queries).
        ``None`` means everything retained.  Windows wider than the ring
        capacity are refused rather than silently under-covered.
        """
        capacity = self._ring.capacity + (1 if include_open else 0)
        if window is not None:
            window = int(window)
            if window < 1:
                raise ParameterError(f"window must be >= 1, got {window}")
            if window > capacity:
                raise ParameterError(
                    f"window {window} exceeds the {capacity}-epoch retention "
                    f"horizon (window_epochs={self._ring.capacity}"
                    f"{', open epoch included' if include_open else ''})"
                )
        entries = list(self._ring)
        if include_open:
            entries.append(
                (self._epoch, self._open.to_partial(include_timing=False))
            )
        if window is not None:
            entries = entries[-window:]
        if not entries:
            raise ProtocolError("no epochs to query yet")
        return entries

    def window_session(
        self, window: Optional[int] = None, *, include_open: bool = True
    ) -> JoinSession:
        """A fresh session holding exactly the window's accumulators.

        The result is byte-identical to a session that ingested only the
        window's batches (see :meth:`merged_session`), and every
        :class:`~repro.api.JoinSession` query runs on it unchanged.
        """
        entries = self.window_entries(window, include_open=include_open)
        return self.merged_session(partial for _, partial in entries)

    def partials(self) -> List[PartialAggregate]:
        """All time, oldest first: the prefix (if not empty), ring, open epoch."""
        partials = [self._prefix] if self._prefix.arrays else []
        partials.extend(partial for _, partial in self._ring)
        partials.append(self._open.to_partial(include_timing=False))
        return partials

    def merged_session(self, partials: Iterable[PartialAggregate]) -> JoinSession:
        """A fresh session holding the sum of ``partials``, left untouched.

        Integer adds, so any grouping gives the same bytes; colliding
        cohort names are renamed apart (``A@partial1``) as in every merge.
        """
        session = JoinSession(self.params, pairs=self._coordinator.pairs)
        for partial in partials:
            session.merge(partial)
        return session

    def tumbling_session(self, width: int) -> JoinSession:
        """The last complete aligned block of ``width`` epochs.

        Blocks tile the timeline as ``[b*width, (b+1)*width)``; the
        query answers for the newest *fully closed* block, which is the
        tumbling-window contract (no partial blocks, no overlap).
        """
        width = int(width)
        if width < 1:
            raise ParameterError(f"width must be >= 1, got {width}")
        if width > self._ring.capacity:
            raise ParameterError(
                f"width {width} exceeds the {self._ring.capacity}-epoch "
                f"retention horizon"
            )
        block_end = (self._epoch // width) * width
        if block_end == 0:
            raise ProtocolError(
                f"no complete {width}-epoch tumbling block closed yet "
                f"(open epoch is {self._epoch})"
            )
        entries = self._ring.slice(block_end - width, block_end)
        return self.merged_session(partial for _, partial in entries)

    def decayed_estimate(
        self,
        stream_a: str,
        stream_b: str,
        *,
        decay: Tuple[int, int] = (1, 2),
        window: Optional[int] = None,
        include_open: bool = True,
    ) -> float:
        """Exponentially decayed Eq. (5) estimate over the window.

        ``decay`` is the exact rational factor ``numerator/denominator``
        applied per epoch of age — see :mod:`repro.temporal.decay` for
        why the combination stays integer-exact.
        """
        entries = self.window_entries(window, include_open=include_open)
        estimate, _ = decayed_join_estimate(
            entries,
            params=self.params,
            pairs=self._coordinator.pairs,
            stream_a=stream_a,
            stream_b=stream_b,
            decay=decay,
            backend=self._coordinator.backend,
        )
        return estimate

    def note_release(
        self, subject: str, entries: Sequence[Tuple[int, PartialAggregate]]
    ) -> None:
        """Record that a window release for ``subject`` covered ``entries``."""
        self.continual.note_release(subject, [epoch for epoch, _ in entries])

    # ------------------------------------------------------------------
    # Status
    # ------------------------------------------------------------------
    def status(self) -> dict:
        """JSON-compatible operational summary for status endpoints."""
        return {
            "epoch": self._epoch,
            "window_epochs": self._ring.capacity,
            "closed_epochs": len(self._ring),
            "retained_epochs": self._ring.epochs(),
            "open_reports": self.open_reports(),
            "continual": self.continual.summary(),
        }
