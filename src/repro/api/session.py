"""Streaming, shardable collection sessions — one sketch, many queries.

A :class:`JoinSession` is the server side of one collection period.  It
owns the published hash pairs (one :class:`~repro.hashing.HashPairs` per
join attribute), ingests client reports incrementally per named *stream*
(a table's join column), merges losslessly with sibling shards, and
answers join-size / chain / frequency queries between waves — returning
the unified :class:`EstimateResult` with full cost accounting.

Three properties make this the production path the paper implies:

* **Incremental** — :meth:`collect` folds batches into a *pre-transform
  integer* accumulator (each report contributes ``y in {-1, +1}`` to one
  cell), so ingestion is O(batch) and exact; the debiasing scale and the
  Hadamard inversion are applied only when a query materialises a sketch.
  Simulated cohorts take the fused encode→accumulate fast path
  (:func:`repro.core.client.encode_reports_into`): clients are perturbed
  and folded in ``chunk_size`` slices straight into the accumulator, so
  peak memory stays chunk-bounded no matter how many clients report.
* **Mergeable** — because the accumulator is an integer sum, shards built
  on shared pairs merge associatively and *bit-for-bit* reproduce the
  single-collector state: ``shard_1 + shard_2`` is the same array as one
  session that saw both batches.  :meth:`spawn_shard` / :meth:`merge`
  implement scatter/gather collection.
* **Portable** — :meth:`to_partial` is the session's one wire form: the
  integer accumulators, accounting and ledger charges as a
  :class:`~repro.distributed.PartialAggregate`, whose ``to_dict`` is plain
  JSON.  With the published pairs (``HashPairs.to_dict``) it rebuilds the
  session in another process:
  ``JoinSession(params, pairs=pairs).merge(PartialAggregate.from_dict(payload))``.

Two-way joins need no schema: ``collect("A", ...)``, ``collect("B", ...)``,
``estimate()``.  Multiway chains declare one width per join attribute and
add middle tables with :meth:`collect_pair`; :meth:`estimate_chain`
evaluates Eq. (27).
"""

from __future__ import annotations

import itertools
import math
import time
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..accumulate import scatter_add_signed_units
from ..backend import resolve_backend, use_backend
from ..core.client import DEFAULT_CHUNK_SIZE, ReportBatch, encode_reports_into
from ..core.multiway import (
    LDPCompassProtocol,
    LDPMiddleSketch,
    MiddleReportBatch,
    finalize_middle_counts,
)
from ..core.params import SketchParams
from ..core.server import LDPJoinSketch
from ..errors import (
    IncompatibleSketchError,
    ParameterError,
    PartialIntegrityError,
    ProtocolError,
    require_merge_compatible,
)
from ..hashing import HashPairs
from ..privacy.budget import BudgetLedger
from ..reliability.faults import fault_point
from ..rng import RandomState, ensure_rng
from .result import EstimateResult

if TYPE_CHECKING:  # pragma: no cover - the distributed layer imports this module
    from ..distributed.partial import PartialAggregate

__all__ = ["JoinSession", "check_stream_name"]

#: Process-wide counter giving each session a unique label for ledger groups.
_SESSION_IDS = itertools.count(1)


def check_stream_name(stream: str) -> None:
    """Refuse a stream name a generated ledger group name could collide with.

    ``#`` and ``@`` mark generated groups: ``A#2`` is stream A's second
    cohort, ``g@partial1`` a group a merge renamed.
    """
    for mark in "#@":
        if mark in stream:
            raise ParameterError(
                f"stream name {stream!r} must not contain {mark!r} (reserved "
                f"for ledger group names)"
            )


class _EndStream:
    """Accumulator of one single-attribute stream (end table)."""

    __slots__ = ("attribute", "raw", "num_reports", "uplink_bits", "cohorts", "cached")

    def __init__(self, attribute: int, k: int, m: int) -> None:
        self.attribute = attribute
        self.raw = np.zeros((k, m), dtype=np.int64)
        self.num_reports = 0
        self.uplink_bits = 0
        self.cohorts = 0
        self.cached: Optional[LDPJoinSketch] = None


class _MiddleStream:
    """Accumulator of one two-attribute stream (middle table)."""

    __slots__ = (
        "left_attribute",
        "raw",
        "num_reports",
        "uplink_bits",
        "cohorts",
        "cached",
    )

    def __init__(self, left_attribute: int, k: int, m_left: int, m_right: int) -> None:
        self.left_attribute = left_attribute
        self.raw = np.zeros((k, m_left, m_right), dtype=np.int64)
        self.num_reports = 0
        self.uplink_bits = 0
        self.cohorts = 0
        self.cached: Optional[LDPMiddleSketch] = None


_StreamState = Union[_EndStream, _MiddleStream]


def session_fingerprint(params: SketchParams, pairs: Sequence[HashPairs]) -> dict:
    """The partial fingerprint of a session on ``params`` and ``pairs``.

    See :meth:`JoinSession.shard_fingerprint`.
    """
    from ..distributed.partial import pairs_digest

    return {
        "k": params.k,
        "m": params.m,
        "privacy budget (epsilon)": params.epsilon,
        "attribute widths": [p.m for p in pairs],
        "hash pairs digest": pairs_digest(pairs),
    }


def check_session_partial(fingerprint: dict, partial: "PartialAggregate") -> None:
    """Raise :class:`IncompatibleSketchError` unless ``partial`` is a
    session partial of this :func:`session_fingerprint`."""
    if partial.method == "join-session" and partial.fingerprint == fingerprint:
        return  # the common case, without the field-by-field walk
    require_merge_compatible(
        "join-session partials",
        method=("join-session", partial.method),
        **{key: (mine, partial.fingerprint.get(key)) for key, mine in fingerprint.items()},
    )


def partial_streams(
    partial: "PartialAggregate", names: Optional[Sequence[str]] = None
) -> Dict[str, Tuple[str, int, np.ndarray, List[int]]]:
    """Stream name -> ``(kind, attribute, raw, counts)`` of a session partial.

    Every stream the partial holds, or those of ``names`` it holds.
    ``counts`` are the stream's ``num_reports``, ``uplink_bits`` and
    ``cohorts``.  A partial read from disk is checksummed over its
    arrays only, so a stream its meta names without a well-formed entry,
    its raw array or a finite counter raises
    :class:`PartialIntegrityError`.  Reads only.
    """
    schema = partial.meta.get("streams", {})
    if not isinstance(schema, dict):
        raise PartialIntegrityError(
            f"partial meta 'streams' is a {type(schema).__name__}, not a mapping"
        )
    streams = {}
    for name in schema if names is None else [n for n in names if n in schema]:
        entry = schema[name]
        if not isinstance(entry, dict) or entry.get("kind") not in ("end", "middle"):
            raise PartialIntegrityError(
                f"partial stream {name!r} needs an 'end' or 'middle' kind, got {entry!r}"
            )
        attribute = entry.get("attribute")
        if isinstance(attribute, bool) or not isinstance(attribute, (int, np.integer)):
            raise PartialIntegrityError(
                f"partial stream {name!r} attribute must be an integer, got {attribute!r}"
            )
        raw = partial.arrays.get(f"stream:{name}:raw")
        if raw is None:
            raise PartialIntegrityError(
                f"partial stream {name!r} has no 'stream:{name}:raw' array"
            )
        counts = []
        for counter in ("num_reports", "uplink_bits", "cohorts"):
            value = partial.counters.get(f"stream:{name}:{counter}")
            if value is None or not math.isfinite(value):
                raise PartialIntegrityError(
                    f"partial stream {name!r} counter 'stream:{name}:{counter}' is "
                    f"{'missing' if value is None else value}"
                )
            counts.append(int(value))
        streams[name] = (entry["kind"], int(attribute), raw, counts)
    return streams


def partial_charges(partial: "PartialAggregate") -> List[Tuple[str, float, str]]:
    """The ledger charges of a partial; :class:`PartialIntegrityError` if malformed."""
    try:
        return [
            (str(group), float(epsilon), str(mechanism))
            for group, epsilon, mechanism in partial.meta.get("charges", [])
        ]
    except (TypeError, ValueError) as error:
        raise PartialIntegrityError(f"partial charges are malformed: {error}") from None


class JoinSession:
    """One collection period: shared hash pairs, named streams, queries.

    Parameters
    ----------
    params:
        Sketch depth ``k`` and privacy budget ``epsilon`` of every stream;
        ``params.m`` is the width of the (single) join attribute unless
        ``attribute_widths`` overrides it.
    attribute_widths:
        Optional width per join attribute for chain schemas (each a power
        of two).  Defaults to ``[params.m]`` — a plain two-way join.
    seed:
        Master seed: draws the hash pairs (when not shared via ``pairs``)
        and the default client-simulation randomness.
    pairs:
        Pre-built hash pairs to share with sibling shards; normally
        obtained from a coordinator session via :attr:`pairs` or
        :meth:`spawn_shard`.
    backend:
        Compute-backend pin (``"numpy"``, ``"numba"``, a live
        :class:`repro.backend.Backend`, or ``None`` to follow the
        process-wide selection).  Every ingest and sketch
        materialisation of this session runs scoped to it.  A runtime
        preference, not state: it does not travel through
        :meth:`to_partial` and does not affect mergeability — shards built
        on different backends produce bit-identical accumulators.
    """

    def __init__(
        self,
        params: SketchParams,
        *,
        attribute_widths: Optional[Sequence[int]] = None,
        seed: RandomState = None,
        pairs: Optional[Sequence[HashPairs]] = None,
        backend=None,
    ) -> None:
        self.params = params
        if backend is not None:
            # Fail at construction on a backend typo (the spec itself is
            # kept, not the resolved instance — names stay picklable).
            resolve_backend(backend)
        self.backend = backend
        self._rng = ensure_rng(seed)
        # The protocol owns (and validates) the pairs: shared ones must
        # match params.k and any declared widths; fresh ones are drawn
        # per attribute from the session generator.
        if pairs is not None:
            self._protocol = LDPCompassProtocol(
                () if attribute_widths is None else list(attribute_widths),
                params.k,
                params.epsilon,
                pairs=list(pairs),
            )
        else:
            widths = [params.m] if attribute_widths is None else list(attribute_widths)
            self._protocol = LDPCompassProtocol(
                widths, params.k, params.epsilon, seed=self._rng
            )
        self._pairs: List[HashPairs] = self._protocol.attribute_pairs
        self._streams: Dict[str, _StreamState] = {}
        self.ledger = BudgetLedger()
        self.offline_seconds = 0.0
        self._label = f"shard{next(_SESSION_IDS)}"

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    @property
    def pairs(self) -> Tuple[HashPairs, ...]:
        """The published hash pairs, one per join attribute."""
        return tuple(self._pairs)

    @property
    def num_attributes(self) -> int:
        """Number of join attributes in the session's schema."""
        return len(self._pairs)

    def streams(self) -> Tuple[str, ...]:
        """Stream names in insertion order."""
        return tuple(self._streams)

    def num_reports(self, stream: str) -> int:
        """Reports ingested so far for ``stream``."""
        return self._state(stream).num_reports

    def params_for(self, attribute: int) -> SketchParams:
        """The :class:`SketchParams` of one attribute's sketches."""
        if not 0 <= attribute < self.num_attributes:
            raise ParameterError(
                f"attribute must lie in [0, {self.num_attributes}), got {attribute}"
            )
        return SketchParams(self.params.k, self._pairs[attribute].m, self.params.epsilon)

    def spawn_shard(self, seed: RandomState = None) -> "JoinSession":
        """An empty sibling session sharing this session's pairs.

        Shards ingest independently (in other threads, processes or
        machines — see :meth:`to_partial`) and are folded back with
        :meth:`merge`.  The shard inherits this session's backend pin.
        """
        return JoinSession(
            self.params, seed=seed, pairs=self._pairs, backend=self.backend
        )

    def shard_fingerprint(self) -> dict:
        """The merge-compatibility fingerprint of this collection period.

        Everything two shards must share for their accumulators to sum
        into a valid sketch: shape, budget, the attribute schema and a
        digest of the published hash pairs.  Used by
        :meth:`to_partial` / :meth:`merge` to refuse unsafe merges
        (wrong seed, wrong ``m``, wrong ``epsilon``) at the wire level.
        """
        return session_fingerprint(self.params, self._pairs)

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def collect(
        self,
        stream: str,
        values: Union[np.ndarray, Sequence[int], ReportBatch],
        *,
        attribute: int = 0,
        seed: RandomState = None,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ) -> "JoinSession":
        """Fold one cohort of an end table into ``stream``.

        ``values`` is either raw client values (the session simulates the
        Algorithm 1 clients, drawing randomness from ``seed`` or the
        session generator) or a pre-encoded :class:`ReportBatch` received
        from real clients.  Cohorts are disjoint user groups, so each
        ``collect`` call composes in parallel on the privacy ledger.

        Simulated cohorts route through the fused
        :func:`~repro.core.client.encode_reports_into` kernel, which
        encodes and accumulates ``chunk_size`` clients at a time — peak
        transient memory is O(``chunk_size``), independent of the cohort
        size.  Lower ``chunk_size`` to cap memory tighter, raise it to
        shave per-chunk dispatch overhead; the estimate distribution is
        identical either way.
        """
        fault_point("session.ingest", stream=str(stream), attribute=int(attribute))
        start = time.perf_counter()
        check_stream_name(stream)
        state = self._end_state(stream, attribute)
        expected = self.params_for(state.attribute)
        if isinstance(values, ReportBatch):
            batch = values
            if batch.params != expected:
                raise IncompatibleSketchError(
                    f"report batch parameters {batch.params} do not match "
                    f"attribute {state.attribute} parameters {expected}"
                )
            num_new = len(batch)
            if num_new:
                with use_backend(self.backend):
                    scatter_add_signed_units(
                        state.raw, (batch.rows, batch.cols), batch.ys
                    )
        else:
            rng = self._rng if seed is None else ensure_rng(seed)
            num_new = encode_reports_into(
                values,
                expected,
                self._pairs[state.attribute],
                state.raw,
                rng,
                chunk_size=chunk_size,
                backend=self.backend,
            )
        if num_new:
            state.num_reports += num_new
            state.uplink_bits += num_new * expected.report_bits
            self._charge(stream, state, "LDPJoinSketch")
            state.cached = None
        self.offline_seconds += time.perf_counter() - start
        return self

    def collect_pair(
        self,
        stream: str,
        left_values: Union[np.ndarray, Sequence[int], MiddleReportBatch],
        right_values: Optional[Union[np.ndarray, Sequence[int]]] = None,
        *,
        left_attribute: int = 0,
        seed: RandomState = None,
    ) -> "JoinSession":
        """Fold one cohort of a two-attribute middle table into ``stream``.

        The table joins attribute ``left_attribute`` on its left column
        and ``left_attribute + 1`` on its right.  Accepts either the two
        raw columns or a pre-encoded :class:`MiddleReportBatch`.
        """
        start = time.perf_counter()
        check_stream_name(stream)
        state = self._middle_state(stream, left_attribute)
        left_pairs = self._pairs[state.left_attribute]
        right_pairs = self._pairs[state.left_attribute + 1]
        if isinstance(left_values, MiddleReportBatch):
            if right_values is not None:
                raise ParameterError(
                    "pass either a MiddleReportBatch or two value columns, not both"
                )
            batch = left_values
            if (
                batch.k != self.params.k
                or batch.m_left != left_pairs.m
                or batch.m_right != right_pairs.m
                or batch.epsilon != self.params.epsilon
            ):
                raise IncompatibleSketchError(
                    "middle report batch does not match the session schema"
                )
        else:
            if right_values is None:
                raise ParameterError("middle-table collection needs both value columns")
            rng = self._rng if seed is None else ensure_rng(seed)
            with use_backend(self.backend):
                batch = self._protocol.encode_middle(
                    state.left_attribute, left_values, right_values, rng
                )
        if len(batch):
            with use_backend(self.backend):
                scatter_add_signed_units(
                    state.raw,
                    (batch.replicas, batch.left_cols, batch.right_cols),
                    batch.ys,
                )
            state.num_reports += len(batch)
            state.uplink_bits += batch.total_bits
            self._charge(stream, state, "LDP-COMPASS")
            state.cached = None
        self.offline_seconds += time.perf_counter() - start
        return self

    # ------------------------------------------------------------------
    # Sharding
    # ------------------------------------------------------------------
    def collect_sharded(
        self,
        stream: str,
        values: Union[np.ndarray, Sequence[int]],
        *,
        num_shards: int = 1,
        strategy: str = "hash",
        seed: RandomState = None,
        attribute: int = 0,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ) -> "JoinSession":
        """Fold one cohort as ``num_shards`` deterministic shard cohorts.

        This is the *single-aggregator reference* of sharded collection:
        the population is partitioned by a
        :class:`~repro.distributed.ShardPlanner` and each shard's slice
        is ingested with that shard's derived seed — exactly the
        randomness the shard's own aggregator would draw.  A distributed
        run (shard sessions emitting
        :class:`~repro.distributed.PartialAggregate`\\ s, reduced by
        :func:`~repro.distributed.merge_tree`) therefore reproduces this
        session's accumulators byte for byte, for any merge topology.

        ``num_shards=1`` delegates straight to :meth:`collect` — the
        identity plan — so one-shard collection reproduces the unsharded
        figures bit for bit (``seed=None`` keeps using the session
        stream).
        """
        from ..distributed.planner import ShardPlanner

        if num_shards == 1:
            return self.collect(
                stream, values, attribute=attribute, seed=seed, chunk_size=chunk_size
            )
        planner = ShardPlanner(num_shards, strategy=strategy)
        shard_seeds = planner.shard_seeds(
            self._rng if seed is None else ensure_rng(seed)
        )
        for shard_values, shard_seed in zip(planner.split(values), shard_seeds):
            self.collect(
                stream,
                shard_values,
                attribute=attribute,
                seed=shard_seed,
                chunk_size=chunk_size,
            )
        return self

    def to_partial(self, *, include_timing: bool = True) -> "PartialAggregate":
        """This session's state as a mergeable wire partial.

        The partial carries the pre-transform integer accumulators, the
        additive accounting and the privacy-ledger charges, fingerprinted
        by :meth:`shard_fingerprint` — everything another aggregator
        needs to fold this shard in safely.  The hash pairs travel apart
        (``HashPairs.to_dict``); the partial holds only their digest.
        Feed it to :meth:`merge`, a
        :func:`~repro.distributed.merge_tree`, or a
        :class:`~repro.distributed.ShardCheckpoint`.

        ``include_timing=False`` drops the wall-clock ``offline_seconds``
        counter — the one field of a partial that varies between
        otherwise identical runs.  Callers that need *byte*-identical
        payloads (the online service publishing canonical snapshots)
        exclude it; accounting flows keep the default.
        """
        from ..distributed.partial import PartialAggregate

        partial = PartialAggregate(
            "join-session",
            self.shard_fingerprint(),
            counters=(
                {"offline_seconds": self.offline_seconds} if include_timing else {}
            ),
            meta={
                "streams": {
                    name: {
                        "kind": "end" if isinstance(state, _EndStream) else "middle",
                        "attribute": (
                            state.attribute
                            if isinstance(state, _EndStream)
                            else state.left_attribute
                        ),
                    }
                    for name, state in self._streams.items()
                },
                "charges": [list(charge) for charge in self.ledger.charges],
            },
        )
        for name, state in self._streams.items():
            # Snapshot, not alias: the session keeps ingesting after the
            # partial is emitted, and an in-place scatter-add must never
            # retroactively mutate an already-shipped payload.
            partial.add_array(f"stream:{name}:raw", state.raw.copy())
            partial.counters[f"stream:{name}:num_reports"] = float(state.num_reports)
            partial.counters[f"stream:{name}:uplink_bits"] = float(state.uplink_bits)
            partial.counters[f"stream:{name}:cohorts"] = float(state.cohorts)
        return partial

    def _merge_partial(
        self, partial: "PartialAggregate", label: str = "partial"
    ) -> "JoinSession":
        """Fold a shard's :class:`PartialAggregate` into this session.

        Every check runs before any state changes, so a refused partial
        leaves the accumulators and the ledger as they were: another
        configuration or a stream bound elsewhere raises
        :class:`IncompatibleSketchError`, a stream entry, array, counter
        or charge that is missing or malformed
        :class:`PartialIntegrityError`.  Shard
        charges describe disjoint cohorts: colliding group names are
        renamed with ``label`` (probe-until-unique), so parallel — not
        sequential — composition applies.
        """
        check_session_partial(self.shard_fingerprint(), partial)
        incoming = []
        charges = partial_charges(partial)
        for name, (kind, attribute, raw, counts) in partial_streams(partial).items():
            state = self._streams.get(name)
            if state is None:
                state = self._new_state(name, kind, attribute)
            else:
                bound = (
                    ("end", state.attribute)
                    if isinstance(state, _EndStream)
                    else ("middle", state.left_attribute)
                )
                if (kind, attribute) != bound:
                    raise IncompatibleSketchError(
                        f"stream {name!r} is bound to ({kind} table, attribute "
                        f"{attribute}) in the partial but to ({bound[0]} table, "
                        f"attribute {bound[1]}) here"
                    )
            if raw.shape != state.raw.shape:
                raise IncompatibleSketchError(
                    f"partial stream {name!r} accumulator shaped {raw.shape}, "
                    f"expected {state.raw.shape}"
                )
            incoming.append((name, state, raw, counts))
        for name, state, raw, (num_reports, uplink_bits, cohorts) in incoming:
            self._streams.setdefault(name, state)
            state.raw += raw
            state.num_reports += num_reports
            state.uplink_bits += uplink_bits
            state.cohorts += cohorts
            state.cached = None
        self.ledger.absorb(charges, label=label)
        self.offline_seconds += float(partial.counters.get("offline_seconds", 0.0))
        return self

    def merge(self, other) -> "JoinSession":
        """Fold another shard's state into this session. Returns self.

        ``other`` is either a sibling :class:`JoinSession` or a
        :class:`~repro.distributed.PartialAggregate` produced by
        :meth:`to_partial` (possibly already the reduction of a whole
        merge tree); a session merges as its own partial, its charges
        renamed under its ledger label on collision.  Requires identical
        :class:`SketchParams`, identical hash pairs for every attribute
        and, for every stream both sides hold, the same table kind and
        join attribute; raises :class:`IncompatibleSketchError` otherwise,
        before any state changes.  The pre-transform sum is exact, so a
        merged session is indistinguishable — bit for bit — from one that
        ingested every batch itself.
        """
        from ..distributed.partial import PartialAggregate

        if isinstance(other, PartialAggregate):
            return self._merge_partial(other)
        if not isinstance(other, JoinSession):
            raise IncompatibleSketchError(
                f"cannot merge JoinSession with {type(other).__name__}"
            )
        if other is self:
            raise IncompatibleSketchError(
                "cannot merge a session with itself (shards are distinct objects)"
            )
        return self._merge_partial(other.to_partial(), label=other._label)

    # ------------------------------------------------------------------
    # Materialisation
    # ------------------------------------------------------------------
    def sketch(self, stream: str) -> LDPJoinSketch:
        """The constructed :class:`LDPJoinSketch` of an end stream."""
        state = self._state(stream)
        if not isinstance(state, _EndStream):
            raise ProtocolError(f"stream {stream!r} is a middle table, not an end table")
        if state.num_reports == 0:
            raise ProtocolError(f"stream {stream!r} has no reports yet")
        if state.cached is None:
            # Cached until the next collect/merge invalidates it, so
            # back-to-back queries never re-run the FWHT.
            with use_backend(self.backend):
                state.cached = LDPJoinSketch.from_raw(
                    self.params_for(state.attribute),
                    self._pairs[state.attribute],
                    state.raw,
                    state.num_reports,
                )
        return state.cached

    def middle_sketch(self, stream: str) -> LDPMiddleSketch:
        """The constructed :class:`LDPMiddleSketch` of a middle stream."""
        state = self._state(stream)
        if not isinstance(state, _MiddleStream):
            raise ProtocolError(f"stream {stream!r} is an end table, not a middle table")
        if state.num_reports == 0:
            raise ProtocolError(f"stream {stream!r} has no reports yet")
        if state.cached is None:
            scaled = state.raw.astype(np.float64)
            scaled *= self.params.scale
            with use_backend(self.backend):
                counts = finalize_middle_counts(scaled)
            state.cached = LDPMiddleSketch(
                self._pairs[state.left_attribute],
                self._pairs[state.left_attribute + 1],
                counts,
                self.params.epsilon,
                state.num_reports,
            )
        return state.cached

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def estimate(
        self, stream_a: Optional[str] = None, stream_b: Optional[str] = None
    ) -> EstimateResult:
        """Eq. (5) join-size estimate between two end streams.

        With no arguments the session must hold exactly two end streams
        (the common two-way case); both streams must share the same join
        attribute.
        """
        name_a, name_b = self._resolve_pair(stream_a, stream_b)
        if name_a == name_b:
            raise ProtocolError(
                f"estimate({name_a!r}, {name_b!r}) would multiply a sketch by "
                f"itself, where the per-report noise does not cancel; use "
                f"second_moment({name_a!r}) for debiased self-joins"
            )
        state_a = self._state(name_a)
        state_b = self._state(name_b)
        for name, state in ((name_a, state_a), (name_b, state_b)):
            if not isinstance(state, _EndStream):
                raise ProtocolError(
                    f"stream {name!r} is a middle table; estimate() joins two "
                    f"end tables (use estimate_chain for multiway queries)"
                )
        if state_a.attribute != state_b.attribute:
            raise ProtocolError(
                f"streams {name_a!r} and {name_b!r} are bound to different join "
                f"attributes; use estimate_chain for multiway queries"
            )
        sketch_a = self.sketch(name_a)
        sketch_b = self.sketch(name_b)
        start = time.perf_counter()
        estimate = sketch_a.join_size(sketch_b)
        online = time.perf_counter() - start
        return EstimateResult(
            estimate=estimate,
            offline_seconds=self.offline_seconds,
            online_seconds=online,
            uplink_bits=state_a.uplink_bits + state_b.uplink_bits,
            sketch_bytes=sketch_a.memory_bytes() + sketch_b.memory_bytes(),
            ledger=self.ledger,
            extras={
                "num_reports": state_a.num_reports + state_b.num_reports,
                "streams": (name_a, name_b),
            },
        )

    def estimate_chain(self, streams: Optional[Sequence[str]] = None) -> EstimateResult:
        """Eq. (27) chain-join estimate over end/middle/.../end streams.

        ``streams`` defaults to every stream in insertion order.  The
        first and last must be end tables on the first and last join
        attributes; each middle table must bridge consecutive attributes.
        """
        names = list(streams) if streams is not None else list(self._streams)
        if len(names) < 2:
            raise ProtocolError("a chain query needs at least two streams")
        if len(set(names)) != len(names):
            # Same reason estimate() rejects identical streams: a sketch
            # multiplied by itself keeps its noise energy undebiased.
            raise ProtocolError(
                f"chain streams must be distinct, got {names}; use "
                f"second_moment for self-joins"
            )
        first_state = self._state(names[0])
        last_state = self._state(names[-1])
        for name, state, wanted in (
            (names[0], first_state, 0),
            (names[-1], last_state, self.num_attributes - 1),
        ):
            if not isinstance(state, _EndStream):
                raise ProtocolError(f"chain ends must be end tables; {name!r} is not")
            if state.attribute != wanted:
                raise ProtocolError(
                    f"chain end {name!r} is bound to attribute {state.attribute}, "
                    f"expected {wanted}"
                )
        middle_names = names[1:-1]
        for idx, name in enumerate(middle_names):
            state = self._state(name)
            if not isinstance(state, _MiddleStream):
                raise ProtocolError(f"chain middle {name!r} is not a middle table")
            if state.left_attribute != idx:
                raise ProtocolError(
                    f"chain middle {name!r} bridges attributes "
                    f"({state.left_attribute}, {state.left_attribute + 1}), "
                    f"expected ({idx}, {idx + 1})"
                )
        first = self.sketch(names[0])
        last = self.sketch(names[-1])
        middles = [self.middle_sketch(name) for name in middle_names]
        start = time.perf_counter()
        estimate = self._protocol.estimate_chain(first, middles, last)
        online = time.perf_counter() - start
        states = [self._state(name) for name in names]
        return EstimateResult(
            estimate=estimate,
            offline_seconds=self.offline_seconds,
            online_seconds=online,
            uplink_bits=sum(s.uplink_bits for s in states),
            sketch_bytes=first.memory_bytes()
            + last.memory_bytes()
            + sum(m.memory_bytes() for m in middles),
            ledger=self.ledger,
            extras={
                "num_reports": sum(s.num_reports for s in states),
                "streams": tuple(names),
            },
        )

    def frequencies(
        self, stream: str, values, *, method: str = "mean"
    ) -> np.ndarray:
        """Theorem 7 frequency estimates against one end stream."""
        return self.sketch(stream).frequencies(values, method=method)

    def second_moment(self, stream: str) -> float:
        """Debiased self-join (``F2``) estimate of one end stream."""
        return self.sketch(stream).second_moment()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _resolve_pair(
        self, stream_a: Optional[str], stream_b: Optional[str]
    ) -> Tuple[str, str]:
        if stream_a is not None and stream_b is not None:
            return stream_a, stream_b
        if stream_a is None and stream_b is None:
            ends = [
                name
                for name, state in self._streams.items()
                if isinstance(state, _EndStream)
            ]
            if len(ends) != 2:
                raise ProtocolError(
                    f"estimate() without stream names needs exactly two end "
                    f"streams, found {ends}"
                )
            return ends[0], ends[1]
        raise ProtocolError("pass both stream names or neither")

    def _state(self, stream: str) -> _StreamState:
        try:
            return self._streams[stream]
        except KeyError:
            raise ProtocolError(
                f"unknown stream {stream!r}; collected streams: {list(self._streams)}"
            ) from None

    def _end_state(self, stream: str, attribute: int) -> _EndStream:
        self.params_for(attribute)  # bounds check
        state = self._streams.get(stream)
        if state is None:
            state = self._streams[stream] = self._new_state(stream, "end", attribute)
            return state
        if not isinstance(state, _EndStream):
            raise ProtocolError(f"stream {stream!r} already collects middle tables")
        if state.attribute != attribute:
            raise ProtocolError(
                f"stream {stream!r} is bound to attribute {state.attribute}, "
                f"got {attribute}"
            )
        return state

    def _middle_state(self, stream: str, left_attribute: int) -> _MiddleStream:
        if not 0 <= left_attribute < self.num_attributes - 1:
            raise ParameterError(
                f"left_attribute must lie in [0, {self.num_attributes - 1}), "
                f"got {left_attribute}"
            )
        state = self._streams.get(stream)
        if state is None:
            state = self._streams[stream] = self._new_state(stream, "middle", left_attribute)
            return state
        if not isinstance(state, _MiddleStream):
            raise ProtocolError(f"stream {stream!r} already collects end tables")
        if state.left_attribute != left_attribute:
            raise ProtocolError(
                f"stream {stream!r} is bound to attributes "
                f"({state.left_attribute}, {state.left_attribute + 1}), "
                f"got left_attribute={left_attribute}"
            )
        return state

    def _new_state(self, stream: str, kind: str, attribute: int) -> _StreamState:
        """An empty accumulator for a stream of a shard or a payload."""
        widths = [p.m for p in self._pairs]
        if kind == "end" and 0 <= attribute < len(widths):
            return _EndStream(attribute, self.params.k, widths[attribute])
        if kind == "middle" and 0 <= attribute < len(widths) - 1:
            return _MiddleStream(
                attribute, self.params.k, widths[attribute], widths[attribute + 1]
            )
        raise IncompatibleSketchError(
            f"stream {stream!r} is a {kind!r} table on attribute {attribute}, "
            f"which this session's schema does not have"
        )

    def _charge(self, stream: str, state: _StreamState, mechanism: str) -> None:
        # Every cohort is a disjoint user group (parallel composition);
        # the first keeps the bare stream name so single-shot flows read
        # naturally in the ledger.
        group = stream if state.cohorts == 0 else f"{stream}#{state.cohorts + 1}"
        state.cohorts += 1
        self.ledger.charge(group, self.params.epsilon, mechanism)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        streams = ", ".join(
            f"{name}:{state.num_reports}" for name, state in self._streams.items()
        )
        return (
            f"JoinSession(k={self.params.k}, epsilon={self.params.epsilon:g}, "
            f"attributes={self.num_attributes}, streams=[{streams}])"
        )
