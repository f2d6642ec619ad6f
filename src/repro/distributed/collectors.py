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
* LDPJoinSketch+ runs the faithful *two-round* distributed protocol:
  shards merge phase-1 partials, the coordinator broadcasts the
  frequent-item set, shards produce phase-2 FAP partials, and the
  coordinator finalises Algorithm 5.
"""

from __future__ import annotations

import copy
import math
import time
from dataclasses import replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from ..accumulate import scatter_add_signed_units
from ..api.registry import get_estimator, resolve_estimator
from ..api.result import EstimateResult
from ..api.session import JoinSession
from ..core.client import encode_reports
from ..core.estimator import find_frequent_items
from ..core.fap import MODE_HIGH, MODE_LOW, fap_encode_reports
from ..core.params import SketchParams
from ..core.plus import LDPJoinSketchPlus
from ..core.server import LDPJoinSketch
from ..errors import ParameterError, RetryExhaustedError, ShardLostError
from ..hashing import HashPairs
from ..privacy.budget import BudgetLedger, PrivacySpec
from ..reliability.faults import FaultPlan, fault_point, injected
from ..reliability.retry import DEFAULT_RETRYABLE, RetryPolicy
from ..rng import RandomState, derive_seed, ensure_rng, spawn
from ..sketches import FastAGMSSketch
from ..transform.hadamard import fwht_inplace
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


def _reduce(
    partials: Sequence[Optional[PartialAggregate]],
    merge: str,
    *,
    degraded: bool = False,
) -> PartialAggregate:
    try:
        reducer = _MERGERS[merge]
    except KeyError:
        raise ParameterError(
            f"merge must be one of {tuple(_MERGERS)}, got {merge!r}"
        ) from None
    return reducer(partials, degraded=degraded)


def _as_policy(retries: Union[None, int, RetryPolicy]) -> Optional[RetryPolicy]:
    """Normalise a ``retries=`` argument (attempt count or policy)."""
    if retries is None or isinstance(retries, RetryPolicy):
        return retries
    return RetryPolicy(int(retries))


def _as_plan(fault_plan: Union[None, str, Path, FaultPlan]) -> Optional[FaultPlan]:
    """Normalise a ``fault_plan=`` argument (plan object or JSON path)."""
    if fault_plan is None or isinstance(fault_plan, FaultPlan):
        return fault_plan
    return FaultPlan.load(fault_plan)


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
    driver, ctx, method: str, s: int, policy: Optional[RetryPolicy]
) -> PartialAggregate:
    """One shard's partial, through the ``shard.collect`` fault point.

    With a policy, the collect is retried under RNG-state restoration so
    an absorbed fault leaves the partial byte-identical to a fault-free
    collect.
    """

    def attempt() -> PartialAggregate:
        fault_point("shard.collect", shard=s, method=method)
        return driver.collect(ctx, s)

    if policy is None:
        return attempt()
    seeds = getattr(ctx, "shard_seeds", None)
    reset = _generator_reset(seeds[s]) if seeds is not None else None
    return policy.call(
        attempt, operation=f"{method}: collect shard {s}", reset=reset
    )


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
    sizes_a: Sequence[int], sizes_b: Sequence[int], lost: Sequence[int]
) -> None:
    """Degrading needs survivors that still hold clients of both streams.

    A hash split over a skewed domain can be degenerate — one shard holds
    every client of a stream — so losing it leaves nothing to rescale:
    coverage is zero and a survivors-only finalise would fail on empty
    accumulators.  Surface that as the same typed loss as losing every
    shard.
    """
    lost_set = set(lost)
    if len(lost_set) >= len(sizes_a):
        return  # every shard lost: the merger raises the canonical error
    for stream, sizes in (("A", sizes_a), ("B", sizes_b)):
        if sum(sizes) and not any(
            sizes[s] for s in range(len(sizes)) if s not in lost_set
        ):
            raise ShardLostError(
                f"lost shard(s) {sorted(lost_set)} held every client of "
                f"stream {stream!r}; surviving coverage is zero",
                lost=sorted(lost_set),
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
    accumulators simply hold fewer reports), the plus driver computes it
    explicitly over covered group sizes.  The ledgered ``bound_factor``
    is the factor by which the estimate's error bound widens: the
    surviving mass was scaled up by ``1/scale``, so absolute error
    scales with it.
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


def _two_stream_ledger(epsilon: float, mechanism: str) -> BudgetLedger:
    ledger = BudgetLedger()
    ledger.charge("A", epsilon, mechanism)
    ledger.charge("B", epsilon, mechanism)
    return ledger


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
            self._driver, self._ctx, self.method, shard_index, _as_policy(retries)
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
class _PlusDriver:
    """Faithful distributed LDPJoinSketch+: merge, broadcast FI, merge again.

    Round 1: every shard splits *its own* users (sample / group 1 /
    group 2, per-shard permutation), FAP-free-encodes its phase-1 sample
    against the shared ``pairs1`` and emits a phase-1 partial.  The
    coordinator reduces them, scans for frequent items and broadcasts
    ``FI``.  Round 2: each shard FAP-encodes its two phase-2 groups
    against the shared ``pairs2`` and emits a phase-2 partial; the
    coordinator reduces and runs Algorithm 5 on the merged sketches.

    Not expressible as a single-round :class:`ShardRun` (the FI broadcast
    is a barrier), so the driver owns the whole flow; both reduction
    rounds honour the requested merge topology.
    """

    rounds = 2

    def run(
        self,
        estimator,
        instance,
        epsilon,
        num_shards,
        seed,
        strategy,
        merge,
        *,
        policy: Optional[RetryPolicy] = None,
        degraded: bool = False,
    ) -> EstimateResult:
        from ..api.estimators import run_join_sketch_plus

        params = SketchParams(estimator.k, estimator.m, epsilon)
        phase1 = (
            SketchParams(estimator.k, estimator.phase1_m, epsilon)
            if estimator.phase1_m is not None
            else params
        )
        if merge not in _MERGERS:
            raise ParameterError(
                f"merge must be one of {tuple(_MERGERS)}, got {merge!r}"
            )
        if num_shards == 1:
            # Identity plan: the serial two-phase run *is* the single
            # aggregator.
            def serial() -> EstimateResult:
                fault_point(
                    "shard.collect", shard=0, method="ldp-join-sketch-plus"
                )
                return run_join_sketch_plus(
                    instance.values_a,
                    instance.values_b,
                    instance.domain_size,
                    params,
                    sample_rate=estimator.sample_rate,
                    threshold=estimator.threshold,
                    phase1_params=(
                        phase1 if estimator.phase1_m is not None else None
                    ),
                    paper_faithful_correction=estimator.paper_faithful_correction,
                    seed=seed,
                )

            try:
                if policy is None:
                    return serial()
                return policy.call(
                    serial,
                    operation="ldp-join-sketch-plus: collect shard 0",
                    reset=_generator_reset(seed),
                )
            except _SHARD_LOSS_ERRORS as error:
                if degraded:
                    raise ShardLostError(
                        "all 1 shard partial(s) lost; nothing to merge",
                        lost=[0],
                    ) from error
                raise
        protocol = LDPJoinSketchPlus(
            params,
            sample_rate=estimator.sample_rate,
            threshold=estimator.threshold,
            phase1_params=phase1,
            paper_faithful_correction=estimator.paper_faithful_correction,
        )
        arr_a = as_value_array(instance.values_a, "values_a")
        arr_b = as_value_array(instance.values_b, "values_b")
        rng = ensure_rng(seed)
        pairs1 = HashPairs(phase1.k, phase1.m, spawn(rng))
        pairs2 = HashPairs(params.k, params.m, spawn(rng))
        planner = ShardPlanner(num_shards, strategy=strategy)
        shard_rngs = [
            ensure_rng(s)
            for s in ShardPlanner(
                num_shards, strategy=strategy, seed=derive_seed(rng)
            ).shard_seeds()
        ]
        splits_a = planner.split(arr_a)
        splits_b = planner.split(arr_b)
        fingerprint = {
            "estimator": "ldp-join-sketch-plus",
            "k": params.k,
            "m": params.m,
            "phase1 m": phase1.m,
            "privacy budget (epsilon)": float(epsilon),
            "hash pairs digest": fingerprint_digest(
                [pairs1.to_dict(), pairs2.to_dict()]
            ),
        }
        # Phase partials never mix: the round travels in the fingerprint,
        # so a tree fed phase-1 and phase-2 partials refuses outright.
        fingerprint1 = {**fingerprint, "round": 1}
        fingerprint2 = {**fingerprint, "round": 2}

        start = time.perf_counter()
        lost: Set[int] = set()

        # ---------------- Round 1: phase-1 partials -------------------
        def round1_shard(s: int) -> Tuple[PartialAggregate, Tuple]:
            rs = shard_rngs[s]
            fault_point(
                "shard.collect", shard=s, method="ldp-join-sketch-plus", round=1
            )
            sample_a, ga1, ga2 = protocol._split_users(splits_a[s], rs, "A")
            sample_b, gb1, gb2 = protocol._split_users(splits_b[s], rs, "B")
            partial = PartialAggregate("ldp-join-sketch-plus", fingerprint1)
            for label, sample in (("SA", sample_a), ("SB", sample_b)):
                batch = encode_reports(sample, phase1, pairs1, rs)
                raw = np.zeros((phase1.k, phase1.m), dtype=np.int64)
                scatter_add_signed_units(raw, (batch.rows, batch.cols), batch.ys)
                partial.add_array(f"{label}:raw", raw)
                partial.counters[f"{label}:num_reports"] = float(sample.size)
            for name, group in (
                ("A1", ga1), ("A2", ga2), ("B1", gb1), ("B2", gb2)
            ):
                partial.counters[f"{name}:size"] = float(group.size)
            return partial, (ga1, ga2, gb1, gb2)

        groups: List[Optional[Tuple]] = [None] * num_shards
        round1: List[Optional[PartialAggregate]] = [None] * num_shards
        for s in range(num_shards):
            try:
                if policy is None:
                    round1[s], groups[s] = round1_shard(s)
                else:
                    round1[s], groups[s] = policy.call(
                        lambda s=s: round1_shard(s),
                        operation=f"ldp-join-sketch-plus: round-1 shard {s}",
                        reset=_generator_reset(shard_rngs[s]),
                    )
            except _SHARD_LOSS_ERRORS:
                # A shard that never produced a phase-1 partial is out of
                # the protocol entirely: it holds no groups for round 2.
                if not degraded:
                    raise
                lost.add(s)
        if lost:
            _require_surviving_coverage(
                [int(splits_a[s].size) for s in range(num_shards)],
                [int(splits_b[s].size) for s in range(num_shards)],
                lost,
            )
        merged1 = _reduce(round1, merge, degraded=bool(lost))

        # ---------------- Coordinator: FI broadcast -------------------
        def _phase1_sketch(label: str) -> LDPJoinSketch:
            counts = merged1.arrays[f"{label}:raw"].astype(np.float64)
            counts *= phase1.scale
            fwht_inplace(counts)
            return LDPJoinSketch(
                phase1, pairs1, counts,
                int(merged1.counters[f"{label}:num_reports"]),
            )

        domain = require_positive_int("domain_size", instance.domain_size)
        scan = find_frequent_items(
            (_phase1_sketch("SA"), _phase1_sketch("SB")),
            domain,
            protocol.threshold,
            method=protocol.fi_method,
        )
        frequent_items = scan.items
        sample_mass_a, sample_mass_b = scan.masses
        # The frequent-item set is now *broadcast*: round-2 losses cannot
        # retract it, but every downstream statistic (sample sizes, high
        # masses, group sizes) is computed after round 2, over the final
        # survivor set, so the accounting stays self-consistent.

        # ---------------- Round 2: phase-2 FAP partials ---------------
        def round2_shard(s: int) -> PartialAggregate:
            rs = shard_rngs[s]
            ga1, ga2, gb1, gb2 = groups[s]
            fault_point(
                "shard.collect", shard=s, method="ldp-join-sketch-plus", round=2
            )
            partial = PartialAggregate("ldp-join-sketch-plus", fingerprint2)
            # Same per-shard encode order as the serial protocol:
            # LA, LB, HA, HB.
            for label, group, mode in (
                ("LA", ga1, MODE_LOW),
                ("LB", gb1, MODE_LOW),
                ("HA", ga2, MODE_HIGH),
                ("HB", gb2, MODE_HIGH),
            ):
                batch = fap_encode_reports(
                    group, mode, params, pairs2, frequent_items, rs
                )
                raw = np.zeros((params.k, params.m), dtype=np.int64)
                scatter_add_signed_units(raw, (batch.rows, batch.cols), batch.ys)
                partial.add_array(f"{label}:raw", raw)
                partial.counters[f"{label}:num_reports"] = float(group.size)
            return partial

        lost_in_round1 = set(lost)
        round2: List[Optional[PartialAggregate]] = [None] * num_shards
        for s in range(num_shards):
            if s in lost:
                continue
            try:
                if policy is None:
                    round2[s] = round2_shard(s)
                else:
                    round2[s] = policy.call(
                        lambda s=s: round2_shard(s),
                        operation=f"ldp-join-sketch-plus: round-2 shard {s}",
                        reset=_generator_reset(shard_rngs[s]),
                    )
            except _SHARD_LOSS_ERRORS:
                if not degraded:
                    raise
                # Its phase-2 groups are gone; drop the shard's phase-1
                # contribution too, so sample/group accounting describes
                # one consistent survivor population.
                lost.add(s)
                round1[s] = None
        if lost != lost_in_round1:
            _require_surviving_coverage(
                [int(splits_a[s].size) for s in range(num_shards)],
                [int(splits_b[s].size) for s in range(num_shards)],
                lost,
            )
            merged1 = _reduce(round1, merge, degraded=True)
            # The scan read shards that are now dropped: read the
            # survivors' rebuilt sketches over the broadcast set instead.
            sample_mass_a, sample_mass_b = [
                float(np.sum(_phase1_sketch(label).frequencies(frequent_items)))
                for label in ("SA", "SB")
            ]
        merged2 = _reduce(round2, merge, degraded=bool(lost))

        # Covered population: in a fault-free run these equal the full
        # stream sizes exactly (the splits partition the population).
        covered_a = int(
            sum(splits_a[s].size for s in range(num_shards) if s not in lost)
        )
        covered_b = int(
            sum(splits_b[s].size for s in range(num_shards) if s not in lost)
        )
        sample_size_a = int(merged1.counters["SA:num_reports"])
        sample_size_b = int(merged1.counters["SB:num_reports"])
        high_mass_a = protocol._population_mass(
            sample_mass_a, covered_a, sample_size_a
        )
        high_mass_b = protocol._population_mass(
            sample_mass_b, covered_b, sample_size_b
        )

        def _phase2_sketch(label: str) -> LDPJoinSketch:
            counts = merged2.arrays[f"{label}:raw"].astype(np.float64)
            counts *= params.scale
            fwht_inplace(counts)
            return LDPJoinSketch(
                params, pairs2, counts,
                int(merged2.counters[f"{label}:num_reports"]),
            )

        size_a1 = int(merged1.counters["A1:size"])
        size_a2 = int(merged1.counters["A2:size"])
        size_b1 = int(merged1.counters["B1:size"])
        size_b2 = int(merged1.counters["B2:size"])
        low_est = protocol._join_est(
            _phase2_sketch("LA"),
            _phase2_sketch("LB"),
            nt_mass_a=protocol._group_mass(high_mass_a, size_a1, covered_a),
            nt_mass_b=protocol._group_mass(high_mass_b, size_b1, covered_b),
        )
        high_est = protocol._join_est(
            _phase2_sketch("HA"),
            _phase2_sketch("HB"),
            nt_mass_a=protocol._group_mass(
                covered_a - high_mass_a, size_a2, covered_a
            ),
            nt_mass_b=protocol._group_mass(
                covered_b - high_mass_b, size_b2, covered_b
            ),
        )
        low_scaled = (covered_a * covered_b) / (size_a1 * size_b1) * low_est
        high_scaled = (covered_a * covered_b) / (size_a2 * size_b2) * high_est
        offline = time.perf_counter() - start

        fi_bits = int(frequent_items.size) * max(
            1, int(np.ceil(np.log2(max(domain, 2))))
        )
        phase1_bits = phase1.report_bits * (sample_size_a + sample_size_b)
        phase2_bits = params.report_bits * (
            size_a1 + size_a2 + size_b1 + size_b2
        )
        ledger = BudgetLedger()
        for group_name in ("A-sample", "A1", "A2", "B-sample", "B1", "B2"):
            ledger.charge(group_name, params.epsilon, "LDPJoinSketch+/FAP")
        ledger.assert_within(PrivacySpec(params.epsilon))
        result = EstimateResult(
            estimate=low_scaled + high_scaled,
            offline_seconds=offline,
            uplink_bits=phase1_bits + phase2_bits,
            sketch_bytes=2 * phase1.k * phase1.m * 8
            + 4 * params.k * params.m * 8,
            ledger=ledger,
            extras={
                "low_estimate": low_scaled,
                "high_estimate": high_scaled,
                "frequent_items": frequent_items,
                "high_freq_mass_a": high_mass_a,
                "high_freq_mass_b": high_mass_b,
                "phase1_bits": phase1_bits,
                "phase2_bits": phase2_bits,
                "fi_broadcast_bits": fi_bits,
                "num_shards": num_shards,
            },
        )
        if lost:
            result = _apply_degradation(
                result,
                strategy=strategy,
                sizes_a=[int(splits_a[s].size) for s in range(num_shards)],
                sizes_b=[int(splits_b[s].size) for s in range(num_shards)],
                lost=sorted(lost),
            )
        return result


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
    policy = _as_policy(retries)
    plan = _as_plan(fault_plan)
    with injected(plan):
        if getattr(driver, "rounds", 1) != 1:
            return driver.run(
                estimator,
                instance,
                epsilon,
                num_shards,
                seed,
                strategy,
                merge,
                policy=policy,
                degraded=degraded,
            )
        ctx = driver.prepare(
            estimator, instance, epsilon, num_shards, seed, strategy
        )
        start = time.perf_counter()
        partials: List[Optional[PartialAggregate]] = []
        lost: List[int] = []
        for s in range(num_shards):
            try:
                partials.append(_collect_shard(driver, ctx, key, s, policy))
            except _SHARD_LOSS_ERRORS:
                if not degraded:
                    raise
                partials.append(None)
                lost.append(s)
        if lost:
            _require_surviving_coverage(*_shard_sizes(ctx, num_shards), lost)
        merged = _reduce(partials, merge, degraded=bool(lost))
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
                lost=lost,
            )
        return result
