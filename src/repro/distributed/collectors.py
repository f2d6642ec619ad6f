"""Sharded collection drivers for every registered estimator.

:func:`estimate_sharded` runs any registry method as ``K`` shard
aggregators plus a merge tree: the client population is partitioned by a
:class:`~repro.distributed.ShardPlanner`, each shard folds its cohort
into a :class:`~repro.distributed.PartialAggregate` under plan-fixed
randomness, the partials reduce through :func:`~repro.distributed.merge_tree`
(or :func:`~repro.distributed.merge_sequential` — the single-aggregator
order), and a finaliser turns the merged state into the method's
:class:`~repro.api.EstimateResult`.

Determinism contract, enforced by the property suite:

* for any shard count ``K`` and either merge topology, the merged
  accumulators — and hence the estimate and every deterministic cost
  field — are **byte-identical**: partial merges are exact integer adds;
* ``K = 1`` replays the unsharded ``estimate(instance, epsilon, seed)``
  **bit for bit**: the identity plan hands the single shard the master
  randomness itself, so today's figures are the one-shard special case.

Each protocol family has one driver:

* ``join-session`` methods (LDPJoinSketch, LDP-COMPASS) shard through
  :meth:`JoinSession.to_partial`;
* frequency-oracle baselines (k-RR, OLH, FLH, Apple-HCMS) shard the
  oracle server state (count tables / per-user stores);
* the non-private FAGMS baseline shards its linear sketch counters;
* LDPJoinSketch+ runs the faithful *two-round* distributed protocol
  through the protocol's own phase steps
  (:class:`~repro.core.LDPJoinSketchPlus`): shards merge phase-1
  partials, the coordinator broadcasts the frequent-item set, shards
  produce phase-2 FAP partials, and the coordinator finalises
  Algorithm 5.

Every collection round of every driver runs through one loop
(:func:`_collect_round`): the ``shard.collect`` fault point, retries
with the shard's randomness restored, and degrade-or-raise on a lost
shard.
"""

from __future__ import annotations

import copy
import math
import time
from dataclasses import replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from ..api.registry import get_estimator, resolve_estimator
from ..api.result import EstimateResult
from ..api.session import JoinSession
from ..core.params import SketchParams
from ..core.plus import PLUS_METHOD
from ..errors import ParameterError, RetryExhaustedError, ShardLostError
from ..hashing import HashPairs
from ..privacy.budget import PrivacySpec
from ..reliability.faults import FaultPlan, as_fault_plan, fault_point, injected
from ..reliability.retry import DEFAULT_RETRYABLE, RetryPolicy, as_retry_policy
from ..rng import RandomState, derive_seed, ensure_rng, spawn
from ..sketches import FastAGMSSketch
from ..validation import as_value_array, require_positive_int
from .merge import merge_sequential, merge_tree
from .partial import PartialAggregate, fingerprint_digest
from .planner import ShardPlanner

__all__ = [
    "estimate_sharded",
    "prepare_shard_run",
    "ShardRun",
    "shardable_single_round",
]

#: Valid reducers (``merge=`` argument).
_MERGERS = {"tree": merge_tree, "sequential": merge_sequential}

#: Failures that mean "this shard's partial is gone" (degradable), as
#: opposed to configuration errors, which always propagate.
_SHARD_LOSS_ERRORS = (RetryExhaustedError,) + DEFAULT_RETRYABLE


def _reducer(merge: str) -> Callable[..., PartialAggregate]:
    """The reduction topology a ``merge=`` argument names."""
    try:
        return _MERGERS[merge]
    except KeyError:
        raise ParameterError(
            f"merge must be one of {tuple(_MERGERS)}, got {merge!r}"
        ) from None


def _generator_reset(seed) -> Optional[Callable[[], None]]:
    """A callback restoring ``seed``'s current stream position, if live.

    Retried collects must replay the original randomness byte-for-byte;
    plans that hand a shard a *live* generator (the K=1 identity plan,
    the plus driver's shard streams) snapshot its ``bit_generator.state``
    before the first attempt and restore it before every re-attempt.
    Integer seeds need nothing — each attempt rebuilds its own stream.
    """
    if not isinstance(seed, np.random.Generator):
        return None
    state = copy.deepcopy(seed.bit_generator.state)

    def reset() -> None:
        seed.bit_generator.state = copy.deepcopy(state)

    return reset


def _collect_shard(
    collect: Callable[[int], object],
    ctx,
    s: int,
    method: str,
    policy: Optional[RetryPolicy],
    round_: Optional[int] = None,
):
    """Shard ``s``'s ``collect(s)``, through the ``shard.collect`` fault point.

    With a policy, the collect is retried with the shard's plan seed
    (``ctx.shard_seeds[s]``, if any) restored, so an absorbed fault
    leaves the result byte-identical to a fault-free collect.
    ``round_`` tags the rounds of a multi-round protocol.
    """
    context = {} if round_ is None else {"round": round_}

    def attempt():
        fault_point("shard.collect", shard=s, method=method, **context)
        return collect(s)

    if policy is None:
        return attempt()
    seeds = getattr(ctx, "shard_seeds", None)
    reset = _generator_reset(seeds[s]) if seeds is not None else None
    step = f"collect shard {s}" if round_ is None else f"round-{round_} shard {s}"
    return policy.call(attempt, operation=f"{method}: {step}", reset=reset)


def _collect_round(
    collect: Callable[[int], object],
    ctx,
    num_shards: int,
    *,
    method: str,
    policy: Optional[RetryPolicy],
    degraded: bool,
    lost: Set[int],
    round_: Optional[int] = None,
) -> List:
    """One collection round: ``collect(s)`` for every shard not yet lost.

    A shard still failing after retries raises, or with ``degraded``
    joins ``lost`` and yields ``None``.  A loss that leaves no shard, or
    no surviving client of a stream, raises
    :class:`~repro.errors.ShardLostError` either way.  ``ctx`` supplies
    the plan's ``shard_seeds`` (if any) and, for the coverage check,
    ``splits_a`` / ``splits_b``.
    """
    collected: List = [None] * num_shards
    cause = None
    for s in range(num_shards):
        if s in lost:
            continue
        try:
            collected[s] = _collect_shard(collect, ctx, s, method, policy, round_)
        except _SHARD_LOSS_ERRORS as error:
            if not degraded:
                raise
            lost.add(s)
            cause = error
    if cause is not None:
        if len(lost) == num_shards:
            raise ShardLostError(
                f"all {num_shards} shard partial(s) lost; nothing to merge",
                lost=sorted(lost),
            ) from cause
        _require_surviving_coverage(*_shard_sizes(ctx, num_shards), lost)
    return collected


def _degradation_scale(strategy: str, cov_a: float, cov_b: float) -> float:
    """Fraction of the join mass the surviving shards cover.

    ``hash`` sharding partitions the *value domain*, and both streams of
    one shard hold the same value block — the join mass is block-diagonal
    across shards, so losing a shard removes its value block from both
    sides at once and the surviving mass is ≈ the covered value fraction
    (estimated by the mean client coverage).  ``range`` sharding splits
    *users* independently of value, so each stream thins independently
    and the surviving mass is the product of the two coverages.
    """
    if strategy == "range":
        return cov_a * cov_b
    return 0.5 * (cov_a + cov_b)


def _shard_sizes(ctx, num_shards: int) -> Tuple[List[int], List[int]]:
    return (
        [int(ctx.splits_a[s].size) for s in range(num_shards)],
        [int(ctx.splits_b[s].size) for s in range(num_shards)],
    )


def _require_surviving_coverage(
    sizes_a: Sequence[int], sizes_b: Sequence[int], lost: Set[int]
) -> None:
    """Degrading needs survivors that still hold clients of both streams.

    A hash split over a skewed domain can be degenerate — one shard holds
    every client of a stream — so losing it leaves nothing to rescale:
    coverage is zero and a survivors-only finalise would fail on empty
    accumulators.  Surface that as the same typed loss as losing every
    shard.
    """
    for stream, sizes in (("A", sizes_a), ("B", sizes_b)):
        if sum(sizes) and not any(
            sizes[s] for s in range(len(sizes)) if s not in lost
        ):
            raise ShardLostError(
                f"lost shard(s) {sorted(lost)} held every client of "
                f"stream {stream!r}; surviving coverage is zero",
                lost=sorted(lost),
            )


def _apply_degradation(
    result: EstimateResult,
    *,
    strategy: str,
    sizes_a: Sequence[int],
    sizes_b: Sequence[int],
    lost: Sequence[int],
) -> EstimateResult:
    """Rescale a survivors-only estimate and ledger the lost coverage.

    ``result.estimate`` is the join size of the *covered* population —
    single-round finalisers produce that implicitly (the merged
    accumulators simply hold fewer reports), and LDPJoinSketch+'s
    finalise computes it from the covered group sizes.  The ledgered
    ``bound_factor`` is the factor by which the estimate's error bound
    widens: the surviving mass was scaled up by ``1/scale``, so absolute
    error scales with it.
    """
    lost_set = set(lost)
    survivors = [s for s in range(len(sizes_a)) if s not in lost_set]
    total_a, total_b = sum(sizes_a), sum(sizes_b)
    cov_a = sum(sizes_a[s] for s in survivors) / total_a if total_a else 0.0
    cov_b = sum(sizes_b[s] for s in survivors) / total_b if total_b else 0.0
    scale = _degradation_scale(strategy, cov_a, cov_b)
    factor = 1.0 / scale if scale > 0.0 else 1.0
    degraded_info = {
        "shards_lost": sorted(lost_set),
        "coverage": {"A": cov_a, "B": cov_b},
        "strategy": strategy,
        "rescale": factor,
        "bound_factor": factor,
    }
    return replace(
        result,
        estimate=result.estimate * factor,
        extras={**result.extras, "degraded": degraded_info},
    )


class _LazySplits:
    """Defers the O(n) population partition until a shard is accessed.

    Re-planning a run for *finalisation* only needs its context (params,
    pairs, seeds) — never the splits — so the partition cost is paid
    exactly by the paths that collect shards, and a parent that merely
    finalises worker-collected partials stays O(1) in the population.
    """

    __slots__ = ("_planner", "_values", "_splits")

    def __init__(self, planner: ShardPlanner, values: np.ndarray) -> None:
        self._planner = planner
        self._values = values
        self._splits = None

    def __getitem__(self, index: int) -> np.ndarray:
        if self._splits is None:
            self._splits = self._planner.split(self._values)
            self._values = None
        return self._splits[index]


class ShardRun:
    """One planned sharded estimation: ``collect(s)`` then ``finalize``.

    Instances come from :func:`prepare_shard_run` and are pure functions
    of ``(estimator, instance, epsilon, num_shards, seed, strategy)`` —
    a worker process can rebuild the identical run from those arguments
    and execute any subset of its shards.
    """

    def __init__(self, driver, ctx, num_shards: int, method: str = "") -> None:
        self._driver = driver
        self._ctx = ctx
        self.num_shards = num_shards
        self.method = method

    def collect(
        self,
        shard_index: int,
        *,
        retries: Union[None, int, RetryPolicy] = None,
    ) -> PartialAggregate:
        """The partial of shard ``shard_index`` (plan-fixed randomness).

        Passes the ``shard.collect`` fault point; ``retries`` (an attempt
        count or a :class:`~repro.reliability.RetryPolicy`) absorbs
        transient failures with the randomness restored per attempt, so
        a retried collect stays byte-identical to a fault-free one.
        """
        if not 0 <= shard_index < self.num_shards:
            raise ParameterError(
                f"shard_index must lie in [0, {self.num_shards}), got {shard_index}"
            )
        return _collect_shard(
            lambda s: self._driver.collect(self._ctx, s),
            self._ctx,
            shard_index,
            self.method,
            as_retry_policy(retries),
        )

    def collect_all(self) -> List[PartialAggregate]:
        """Every shard's partial, in shard order."""
        return [self.collect(s) for s in range(self.num_shards)]

    def finalize(self, merged: PartialAggregate) -> EstimateResult:
        """Turn the reduced partial into the method's estimate."""
        return self._driver.finalize(self._ctx, merged)


# ======================================================================
# JoinSession family (LDPJoinSketch, LDP-COMPASS)
# ======================================================================
class _SessionContext:
    __slots__ = ("params", "pairs", "query", "splits_a", "splits_b", "shard_seeds")

    def __init__(self, params, pairs, query, splits_a, splits_b, shard_seeds):
        self.params = params
        self.pairs = pairs
        self.query = query
        self.splits_a = splits_a
        self.splits_b = splits_b
        self.shard_seeds = shard_seeds


class _SessionDriver:
    """LDPJoinSketch / LDP-COMPASS through ``JoinSession`` partials."""

    #: Finalisation is an FWHT + one einsum — O(k m log m), independent
    #: of the population — so a pool parent can afford to run it inline.
    cheap_finalize = True

    def __init__(self, query: str) -> None:
        self.query = query  # "join" or "chain"

    def prepare(self, estimator, instance, epsilon, num_shards, seed, strategy):
        params = SketchParams(estimator.k, estimator.m, epsilon)
        rng = ensure_rng(seed)
        # Same draw order as JoinSession(params, seed=rng): one spawned
        # child per attribute.
        pairs = [HashPairs(params.k, params.m, spawn(rng))]
        planner = ShardPlanner(num_shards, strategy=strategy)
        if num_shards == 1:
            # Identity plan: the single shard continues the master stream,
            # so K = 1 replays estimate(instance, epsilon, seed) bit for bit.
            shard_seeds: List = [rng]
        else:
            shard_seeds = ShardPlanner(
                num_shards, strategy=strategy, seed=derive_seed(rng)
            ).shard_seeds()
        return _SessionContext(
            params,
            pairs,
            self.query,
            _LazySplits(planner, as_value_array(instance.values_a, "values_a")),
            _LazySplits(planner, as_value_array(instance.values_b, "values_b")),
            shard_seeds,
        )

    def collect(self, ctx: _SessionContext, s: int) -> PartialAggregate:
        shard = JoinSession(ctx.params, pairs=ctx.pairs, seed=ctx.shard_seeds[s])
        shard.collect("A", ctx.splits_a[s])
        shard.collect("B", ctx.splits_b[s])
        return shard.to_partial()

    def finalize(self, ctx: _SessionContext, merged: PartialAggregate) -> EstimateResult:
        coordinator = JoinSession(ctx.params, pairs=ctx.pairs)
        coordinator.merge(merged)
        if ctx.query == "chain":
            result = coordinator.estimate_chain(["A", "B"])
        else:
            result = coordinator.estimate("A", "B")
        result.ledger.assert_within(PrivacySpec(ctx.params.epsilon))
        return result


# ======================================================================
# Non-private FAGMS baseline
# ======================================================================
class _FagmsContext:
    __slots__ = ("pairs", "splits_a", "splits_b", "domain_size")

    def __init__(self, pairs, splits_a, splits_b, domain_size):
        self.pairs = pairs
        self.splits_a = splits_a
        self.splits_b = splits_b
        self.domain_size = domain_size


class _FagmsDriver:
    """Fast-AGMS: deterministic linear updates, partials are counter sums."""

    cheap_finalize = True

    def prepare(self, estimator, instance, epsilon, num_shards, seed, strategy):
        rng = ensure_rng(seed)
        pairs = HashPairs(estimator.k, estimator.m, rng)  # serial draw order
        planner = ShardPlanner(num_shards, strategy=strategy)
        return _FagmsContext(
            pairs,
            _LazySplits(planner, as_value_array(instance.values_a, "values_a")),
            _LazySplits(planner, as_value_array(instance.values_b, "values_b")),
            instance.domain_size,
        )

    def _fingerprint(self, ctx: _FagmsContext) -> dict:
        return {
            "estimator": "fagms",
            "k": ctx.pairs.k,
            "m": ctx.pairs.m,
            "hash pairs digest": fingerprint_digest(ctx.pairs.to_dict()),
        }

    def collect(self, ctx: _FagmsContext, s: int) -> PartialAggregate:
        partial = PartialAggregate("fagms", self._fingerprint(ctx))
        for label, values in (("A", ctx.splits_a[s]), ("B", ctx.splits_b[s])):
            sketch = FastAGMSSketch(ctx.pairs)
            sketch.update_batch(values)
            partial.add_array(f"{label}:counts", sketch.counts)
            partial.counters[f"{label}:num_reports"] = float(values.size)
        return partial

    def finalize(self, ctx: _FagmsContext, merged: PartialAggregate) -> EstimateResult:
        sketches = {}
        for label in ("A", "B"):
            sketch = FastAGMSSketch(ctx.pairs)
            sketch.counts = merged.arrays[f"{label}:counts"].copy()
            sketch.total_weight = merged.counters[f"{label}:num_reports"]
            sketches[label] = sketch
        start = time.perf_counter()
        estimate = sketches["A"].inner_product(sketches["B"])
        online = time.perf_counter() - start
        n = int(
            merged.counters["A:num_reports"] + merged.counters["B:num_reports"]
        )
        raw_bits = max(1, math.ceil(math.log2(ctx.domain_size)))
        return EstimateResult(
            estimate=estimate,
            online_seconds=online,
            uplink_bits=n * raw_bits,
            sketch_bytes=sketches["A"].memory_bytes() + sketches["B"].memory_bytes(),
        )


# ======================================================================
# Frequency-oracle baselines (k-RR, OLH, FLH, Apple-HCMS)
# ======================================================================
#: Mergeable server state per oracle class: ``{suffix: (attr, op)}``.
#: ``attr`` is the oracle attribute holding the array (lists of arrays —
#: OLH's per-user stores — are consolidated and merge by concatenation).
_ORACLE_STATE: Dict[str, Dict[str, Tuple[str, str]]] = {
    "krr": {"report_counts": ("_report_counts", "sum")},
    "flh": {"counts": ("_counts", "sum")},
    "hcms": {"raw": ("_raw", "sum")},
    "olh": {
        "hash_a": ("_hash_a", "concat"),
        "hash_b": ("_hash_b", "concat"),
        "reports": ("_reports", "concat"),
    },
}


def _jsonable_state(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [_jsonable_state(v) for v in value]
    if hasattr(value, "to_dict"):
        return value.to_dict()
    return value


def _oracle_extra_fingerprint(oracle) -> dict:
    """Published state the shards must share, straight from the oracle.

    Derived from :meth:`FrequencyOracle._merge_fields` — the same single
    source of truth the in-memory merge gate validates — so the wire
    fingerprint can never drift from the in-memory checks: a new
    compatibility field added to an oracle's ``_merge_fields`` is
    fingerprinted here automatically.  Array-valued state (hash pools,
    hash pairs) is digested; scalars travel as-is.
    """
    extra = {}
    for name, (mine, _) in oracle._merge_fields(oracle).items():
        if isinstance(mine, np.ndarray) or (
            isinstance(mine, (list, tuple))
            and any(
                isinstance(v, np.ndarray) or hasattr(v, "to_dict") for v in mine
            )
        ) or hasattr(mine, "to_dict"):
            extra[f"{name} digest"] = fingerprint_digest(_jsonable_state(mine))
        else:
            extra[name] = mine
    return extra


class _OracleContext:
    __slots__ = (
        "key",
        "estimator",
        "domain_size",
        "epsilon",
        "oracle_seeds",
        "splits_a",
        "splits_b",
        "shard_seeds",
        "fingerprint",
    )

    def __init__(self, **attrs):
        for name, value in attrs.items():
            setattr(self, name, value)


class _OracleDriver:
    """Shards a ``_FrequencyOracleEstimator`` method's server state."""

    def __init__(self, key: str) -> None:
        self.key = key

    def _make(self, ctx: _OracleContext, seed):
        return ctx.estimator._make_oracle(ctx.domain_size, ctx.epsilon, seed)

    def prepare(self, estimator, instance, epsilon, num_shards, seed, strategy):
        rng = ensure_rng(seed)
        # Serial draw order: one derived oracle seed per attribute.
        oracle_seeds = (derive_seed(rng), derive_seed(rng))
        planner = ShardPlanner(num_shards, strategy=strategy)
        if num_shards == 1:
            shard_seeds: List = [None]  # each oracle uses its own stream
        else:
            shard_seeds = ShardPlanner(
                num_shards, strategy=strategy, seed=derive_seed(rng)
            ).shard_seeds()
        ctx = _OracleContext(
            key=self.key,
            estimator=estimator,
            domain_size=instance.domain_size,
            epsilon=float(epsilon),
            oracle_seeds=oracle_seeds,
            splits_a=_LazySplits(planner, as_value_array(instance.values_a, "values_a")),
            splits_b=_LazySplits(planner, as_value_array(instance.values_b, "values_b")),
            shard_seeds=shard_seeds,
            fingerprint=None,
        )
        probe = self._make(ctx, oracle_seeds[0])
        ctx.fingerprint = {
            "estimator": self.key,
            "domain_size": ctx.domain_size,
            "privacy budget (epsilon)": ctx.epsilon,
            "oracle seeds digest": fingerprint_digest(list(oracle_seeds)),
            **_oracle_extra_fingerprint(probe),
        }
        return ctx

    def _state_arrays(self, oracle) -> List[Tuple[str, np.ndarray, str]]:
        entries = []
        for suffix, (attr, op) in _ORACLE_STATE[self.key].items():
            value = getattr(oracle, attr)
            if isinstance(value, list):  # OLH per-user stores
                value = (
                    np.concatenate(value)
                    if value
                    else np.zeros(0, dtype=np.int64)
                )
            entries.append((suffix, value, op))
        return entries

    def collect(self, ctx: _OracleContext, s: int) -> PartialAggregate:
        shard_rng = (
            None if ctx.shard_seeds[s] is None else ensure_rng(ctx.shard_seeds[s])
        )
        partial = PartialAggregate(self.key, ctx.fingerprint)
        for label, seed, values in (
            ("A", ctx.oracle_seeds[0], ctx.splits_a[s]),
            ("B", ctx.oracle_seeds[1], ctx.splits_b[s]),
        ):
            oracle = self._make(ctx, seed)
            oracle.collect(values, rng=shard_rng)
            for suffix, array, op in self._state_arrays(oracle):
                partial.add_array(f"{label}:{suffix}", array, op=op)
            partial.counters[f"{label}:num_reports"] = float(oracle.num_reports)
        return partial

    def _restore(self, ctx: _OracleContext, merged: PartialAggregate, label: str):
        oracle = self._make(ctx, ctx.oracle_seeds[0 if label == "A" else 1])
        for suffix, (attr, op) in _ORACLE_STATE[self.key].items():
            array = merged.arrays[f"{label}:{suffix}"].copy()
            if op == "concat":
                setattr(oracle, attr, [array])
            else:
                setattr(oracle, attr, array)
        if hasattr(oracle, "_dirty"):
            oracle._dirty = True
        oracle.num_reports = int(merged.counters[f"{label}:num_reports"])
        return oracle

    def finalize(self, ctx: _OracleContext, merged: PartialAggregate) -> EstimateResult:
        from ..api.estimators import _two_stream_ledger
        from ..mechanisms import estimate_join_via_frequencies

        oracle_a = self._restore(ctx, merged, "A")
        oracle_b = self._restore(ctx, merged, "B")
        start = time.perf_counter()
        estimate = estimate_join_via_frequencies(
            oracle_a, oracle_b, clip_negative=ctx.estimator.calibrate
        )
        online = time.perf_counter() - start
        return EstimateResult(
            estimate=estimate,
            online_seconds=online,
            uplink_bits=oracle_a.num_reports * oracle_a.report_bits
            + oracle_b.num_reports * oracle_b.report_bits,
            sketch_bytes=oracle_a.memory_bytes() + oracle_b.memory_bytes(),
            ledger=_two_stream_ledger(ctx.epsilon, ctx.estimator.name),
        )


# ======================================================================
# LDPJoinSketch+ — the two-round distributed protocol
# ======================================================================
class _PlusContext:
    __slots__ = ("splits_a", "splits_b", "shard_seeds")

    def __init__(self, splits_a, splits_b, shard_seeds):
        self.splits_a = splits_a
        self.splits_b = splits_b
        self.shard_seeds = shard_seeds


class _PlusDriver:
    """Faithful distributed LDPJoinSketch+: merge, broadcast FI, merge again.

    Round 1: every shard splits *its own* users (per-shard permutation)
    and emits its phase-1 partial.  The coordinator reduces them, scans
    for frequent items and broadcasts ``FI``.  Round 2: each shard emits
    its phase-2 FAP partial; the coordinator reduces and finalises
    Algorithm 5.  Every step is the protocol's own
    (:class:`~repro.core.LDPJoinSketchPlus`); the driver only distributes
    them: plan-fixed randomness, splits, round fingerprints, reductions.

    Not expressible as a single-round :class:`ShardRun` (the FI broadcast
    is a barrier), so the driver owns the whole flow; both reduction
    rounds honour the requested merge topology.
    """

    rounds = 2

    def run(self, estimator, instance, epsilon, num_shards, seed, strategy, collect_round, reduce):
        protocol = estimator.protocol(epsilon)
        if num_shards == 1:
            # Identity plan: the serial two-phase run *is* the single
            # aggregator.
            ctx = _PlusContext(None, None, [seed])
            (result,) = collect_round(
                lambda s: protocol.estimate(
                    instance.values_a, instance.values_b, instance.domain_size, seed
                ),
                ctx,
            )
            return result, ctx
        arr_a = as_value_array(instance.values_a, "values_a")
        arr_b = as_value_array(instance.values_b, "values_b")
        rng = ensure_rng(seed)
        phase1, params = protocol.phase1_params, protocol.params
        pairs1 = HashPairs(phase1.k, phase1.m, spawn(rng))
        pairs2 = HashPairs(params.k, params.m, spawn(rng))
        planner = ShardPlanner(num_shards, strategy=strategy)
        shard_seeds = ShardPlanner(
            num_shards, strategy=strategy, seed=derive_seed(rng)
        ).shard_seeds()
        ctx = _PlusContext(
            planner.split(arr_a), planner.split(arr_b), [ensure_rng(s) for s in shard_seeds]
        )
        fingerprint = {
            "estimator": PLUS_METHOD,
            "k": params.k,
            "m": params.m,
            "phase1 m": phase1.m,
            "privacy budget (epsilon)": float(epsilon),
            "hash pairs digest": fingerprint_digest([pairs1.to_dict(), pairs2.to_dict()]),
        }
        start = time.perf_counter()
        groups: List[Optional[Dict[str, np.ndarray]]] = [None] * num_shards

        def phase1_shard(s: int) -> PartialAggregate:
            rs = ctx.shard_seeds[s]
            groups[s] = protocol.split(ctx.splits_a[s], ctx.splits_b[s], rs)
            return protocol.phase1_partial(groups[s], pairs1, rs, fingerprint)

        round1 = collect_round(phase1_shard, ctx, 1)
        merged1 = reduce(round1)
        scan = protocol.scan(merged1, pairs1, instance.domain_size)
        # FI is now broadcast: a round-2 loss cannot retract it.
        round2 = collect_round(
            lambda s: protocol.phase2_partial(
                groups[s], pairs2, scan.items, ctx.shard_seeds[s], fingerprint
            ),
            ctx,
            2,
        )
        lost_in_round2 = [
            s for s in range(num_shards) if round1[s] is not None and round2[s] is None
        ]
        if lost_in_round2:
            # Those shards took their phase-2 groups with them: drop their
            # phase-1 partials too, so sample and group accounting describe
            # one survivor population, and read the frequent mass from the
            # survivors' sketches instead of the scan.
            for s in lost_in_round2:
                round1[s] = None
            merged1 = reduce(round1)
            scan = protocol.rescan(merged1, pairs1, scan.items)
        result = protocol.finalize(merged1, reduce(round2), pairs2, scan, instance.domain_size)
        result = replace(
            result,
            offline_seconds=time.perf_counter() - start,
            extras={**result.extras, "num_shards": num_shards},
        )
        return result, ctx


# ======================================================================
# Dispatch
# ======================================================================
def _driver_for(estimator):
    """The sharding driver of a registry estimator (by canonical key)."""
    key = resolve_estimator(estimator.name)
    if key == "ldp-join-sketch":
        return key, _SessionDriver("join")
    if key == "compass":
        return key, _SessionDriver("chain")
    if key == "fagms":
        return key, _FagmsDriver()
    if key in _ORACLE_STATE:
        return key, _OracleDriver(key)
    if key == "ldp-join-sketch-plus":
        return key, _PlusDriver()
    raise ParameterError(
        f"estimator {estimator.name!r} has no sharded-collection driver"
    )


def shardable_single_round(estimator) -> bool:
    """Whether ``estimator`` shards into one round of independent partials.

    ``False`` for multi-round protocols (LDPJoinSketch+, whose FI
    broadcast is a barrier) and estimators with no driver.
    """
    try:
        _, driver = _driver_for(estimator)
    except ParameterError:
        return False
    return getattr(driver, "rounds", 1) == 1


def pool_shardable(estimator) -> bool:
    """Whether a sweep pool should split this method to shard granularity.

    Requires a single-round driver *and* a cheap finaliser: the pool
    parent runs ``finalize`` inline while draining futures, so
    estimation-dominated methods (the frequency-oracle baselines, whose
    finalise scans the whole domain — OLH even Θ(n·|D|)) are better off
    as whole-trial worker tasks, where the estimation runs in the worker.
    Whole-trial execution still honours the unit's shard plan in-process,
    so the records are identical either way.
    """
    if not shardable_single_round(estimator):
        return False
    _, driver = _driver_for(estimator)
    return getattr(driver, "cheap_finalize", False)


def prepare_shard_run(
    estimator,
    instance,
    epsilon: float,
    *,
    num_shards: int,
    seed: RandomState = None,
    strategy: str = "hash",
) -> Optional[ShardRun]:
    """Plan a single-round sharded run (``None`` for multi-round methods).

    The returned :class:`ShardRun` is deterministic in its arguments:
    rebuild it anywhere (e.g. inside a pool worker) and ``collect(s)``
    produces the identical shard partial.  Methods whose distributed
    protocol needs a mid-run broadcast (LDPJoinSketch+) return ``None``;
    run those through :func:`estimate_sharded`.
    """
    num_shards = require_positive_int("num_shards", num_shards)
    key, driver = _driver_for(estimator)
    if getattr(driver, "rounds", 1) != 1:
        return None
    ctx = driver.prepare(estimator, instance, epsilon, num_shards, seed, strategy)
    return ShardRun(driver, ctx, num_shards, method=key)


def estimate_sharded(
    method,
    instance,
    epsilon: float,
    *,
    num_shards: int,
    seed: RandomState = None,
    strategy: str = "hash",
    merge: str = "tree",
    retries: Union[None, int, RetryPolicy] = None,
    fault_plan: Union[None, str, Path, FaultPlan] = None,
    degraded: bool = False,
    **options,
) -> EstimateResult:
    """Estimate ``instance``'s join size through ``num_shards`` aggregators.

    ``method`` is a registry name (``options`` forwarded to the factory)
    or a live estimator.  ``merge`` selects the reduction topology —
    ``"tree"`` (pairwise, what distributed aggregators run) or
    ``"sequential"`` (the single-aggregator left fold); both produce
    byte-identical results.  ``num_shards=1`` replays the unsharded
    ``estimate(instance, epsilon, seed)`` bit for bit.

    Fault tolerance:

    * ``retries`` — an attempt count or a
      :class:`~repro.reliability.RetryPolicy`; each shard collect is
      retried with its randomness restored per attempt, so a run whose
      faults the budget absorbs is **byte-identical** to a fault-free
      run (the headline invariant of the chaos suite).
    * ``fault_plan`` — a :class:`~repro.reliability.FaultPlan` (or the
      path of one saved as JSON) armed for the duration of this call;
      the way a reported failure is replayed deterministically.
    * ``degraded`` — when a shard is still lost after retries, merge the
      K−f survivors instead of raising: the estimate is rescaled by the
      planner's known per-shard client coverage and the loss is recorded
      in ``result.extras["degraded"]`` (``shards_lost``, ``coverage``,
      ``bound_factor``).  Losing every shard raises
      :class:`~repro.errors.ShardLostError` regardless.
    """
    estimator = get_estimator(method, **options) if isinstance(method, str) else method
    num_shards = require_positive_int("num_shards", num_shards)
    key, driver = _driver_for(estimator)
    merger = _reducer(merge)
    policy = as_retry_policy(retries)
    lost: Set[int] = set()

    def collect_round(collect, ctx, round_=None):
        return _collect_round(
            collect,
            ctx,
            num_shards,
            method=key,
            policy=policy,
            degraded=degraded,
            lost=lost,
            round_=round_,
        )

    def reduce(partials):
        return merger(partials, degraded=degraded)

    with injected(as_fault_plan(fault_plan)):
        if getattr(driver, "rounds", 1) != 1:
            result, ctx = driver.run(
                estimator, instance, epsilon, num_shards, seed, strategy, collect_round, reduce
            )
        else:
            ctx = driver.prepare(
                estimator, instance, epsilon, num_shards, seed, strategy
            )
            start = time.perf_counter()
            merged = reduce(collect_round(lambda s: driver.collect(ctx, s), ctx))
            offline = time.perf_counter() - start
            result = driver.finalize(ctx, merged)
            if result.offline_seconds == 0.0:
                result = result.with_costs(offline_seconds=offline)
    if lost:
        sizes_a, sizes_b = _shard_sizes(ctx, num_shards)
        result = _apply_degradation(
            result,
            strategy=strategy,
            sizes_a=sizes_a,
            sizes_b=sizes_b,
            lost=sorted(lost),
        )
    return result
