"""Every join-size estimator of the evaluation, registered by name.

This module is the single home of per-method estimation logic.  The
experiment harness (:mod:`repro.experiments.methods`), the CLI, the
benchmarks and the examples all obtain these estimators through the
registry (:func:`repro.api.get_estimator`); the historical
``experiments.methods`` classes are aliases of the classes here.

Fig. 5's legend is the core line-up: FAGMS (non-private Fast-AGMS), k-RR,
Apple-HCMS, FLH, LDPJoinSketch, LDPJoinSketch+.  OLH (the exact variant
FLH approximates) and the Section VI COMPASS protocol complete the
registry.

Frequency-oracle baselines (k-RR, OLH, FLH, Apple-HCMS) estimate the join
size the way the paper describes: estimate the whole frequency vector of
each attribute, then sum the products over the domain — accumulating one
estimation error per candidate value.
"""

from __future__ import annotations

import abc
import math
import time
from typing import Iterable, List, Optional, Sequence

import numpy as np

from ..core.client import (
    DEFAULT_CHUNK_SIZE,
    encode_reports_grouped_into,
    encode_reports_trials_into,
)
from ..core.multiway import LDPCompassProtocol
from ..core.params import SketchParams
from ..core.plus import LDPJoinSketchPlus
from ..core.server import LDPJoinSketch
from ..data.base import JoinInstance
from ..hashing import HashPairs
from ..mechanisms import (
    FLHOracle,
    FrequencyOracle,
    HCMSOracle,
    KRROracle,
    OLHOracle,
    estimate_join_via_frequencies,
)
from ..privacy.budget import BudgetLedger, PrivacySpec
from ..rng import RandomState, derive_seed, ensure_rng, spawn
from ..sketches import FastAGMSSketch
from ..validation import as_value_array
from .registry import register
from .result import EstimateResult
from .session import JoinSession

__all__ = [
    "BaseEstimator",
    "FAGMSEstimator",
    "KRREstimator",
    "FLHEstimator",
    "HCMSEstimator",
    "OLHEstimator",
    "LDPJoinSketchEstimator",
    "LDPJoinSketchPlusEstimator",
    "CompassEstimator",
    "run_join_sketch",
    "run_join_sketch_trials",
    "run_join_sketch_trial_group",
    "run_join_sketch_plus",
]


# ----------------------------------------------------------------------
# One-call drivers: a whole protocol run from raw value arrays.
# ----------------------------------------------------------------------
def run_join_sketch(
    values_a: Iterable[int],
    values_b: Iterable[int],
    params: SketchParams,
    seed: RandomState = None,
) -> EstimateResult:
    """Run the single-phase LDPJoinSketch protocol end to end.

    Simulates every client of both attributes (Algorithm 1), builds the
    two sketches (Algorithm 2) through a :class:`JoinSession` and
    evaluates Eq. (5).
    """
    session = JoinSession(params, seed=seed)
    session.collect("A", values_a)
    session.collect("B", values_b)
    result = session.estimate("A", "B")
    result.ledger.assert_within(PrivacySpec(params.epsilon))
    return result


def _encode_trial_sketches(
    values_a: np.ndarray,
    values_b: np.ndarray,
    params: SketchParams,
    seeds: Sequence[RandomState],
    chunk_size: int,
):
    """Shared trial-axis encode for the LDPJoinSketch-family estimators.

    Replicates, per trial, the exact RNG flow of ``JoinSession(params,
    seed=seed)`` + ``collect("A", ...)`` + ``collect("B", ...)``: the
    session generator spawns the hash pairs, then drives both streams'
    client simulation — so trial ``t``'s two sketches are bit-for-bit the
    ones the serial session path would build under ``seeds[t]``
    (:mod:`tests.test_sweep` pins this).  All ``T`` trials ride the fused
    trial-axis kernel: one pass per value array, with the per-trial
    coefficient matrices stacked once for both streams.

    Returns ``(pairs_list, sketches_a, sketches_b, n_a, n_b, seconds)``.
    """
    rngs = [ensure_rng(s) for s in seeds]
    trials = len(rngs)
    start = time.perf_counter()
    pairs_list = [HashPairs(params.k, params.m, spawn(g)) for g in rngs]
    raw_a = np.zeros((trials, params.k, params.m), dtype=np.int64)
    n_a = encode_reports_trials_into(
        values_a, params, pairs_list, raw_a, rngs, chunk_size=chunk_size
    )
    raw_b = np.zeros_like(raw_a)
    n_b = encode_reports_trials_into(
        values_b, params, pairs_list, raw_b, rngs, chunk_size=chunk_size
    )
    sketches_a: List[LDPJoinSketch] = []
    sketches_b: List[LDPJoinSketch] = []
    for t in range(trials):
        sketches_a.append(LDPJoinSketch.from_raw(params, pairs_list[t], raw_a[t], n_a))
        sketches_b.append(LDPJoinSketch.from_raw(params, pairs_list[t], raw_b[t], n_b))
    seconds = time.perf_counter() - start
    return pairs_list, sketches_a, sketches_b, n_a, n_b, seconds


def run_join_sketch_trials(
    values_a: Iterable[int],
    values_b: Iterable[int],
    params: SketchParams,
    seeds: Sequence[RandomState],
    *,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    query: str = "join_size",
) -> List[EstimateResult]:
    """Run ``len(seeds)`` independent LDPJoinSketch trials in one pass.

    Result ``t`` carries exactly the estimate and cost accounting of
    ``run_join_sketch(values_a, values_b, params, seed=seeds[t])`` (or of
    the degenerate-chain Compass query with ``query="chain"``) — the
    trial axis is pure wall-clock: hashing and accumulation for all
    trials share one pass over each value array via
    :func:`repro.core.client.encode_reports_trials_into`.  Offline
    seconds are the batch time split evenly across trials.
    """
    if query not in ("join_size", "chain"):
        raise ValueError(f"unknown query {query!r}; use 'join_size' or 'chain'")
    seeds = list(seeds)
    if not seeds:
        return []
    arr_a = as_value_array(values_a, "values_a")
    arr_b = as_value_array(values_b, "values_b")
    pairs_list, sketches_a, sketches_b, n_a, n_b, offline = _encode_trial_sketches(
        arr_a, arr_b, params, seeds, chunk_size
    )
    per_trial_offline = offline / len(seeds)
    results = []
    for t in range(len(seeds)):
        start = time.perf_counter()
        if query == "chain":
            protocol = LDPCompassProtocol.from_pairs([pairs_list[t]], params.epsilon)
            estimate = protocol.estimate_chain(sketches_a[t], [], sketches_b[t])
        else:
            estimate = sketches_a[t].join_size(sketches_b[t])
        online = time.perf_counter() - start
        ledger = _two_stream_ledger(params.epsilon, "LDPJoinSketch")
        ledger.assert_within(PrivacySpec(params.epsilon))
        results.append(
            EstimateResult(
                estimate=estimate,
                offline_seconds=per_trial_offline,
                online_seconds=online,
                uplink_bits=(n_a + n_b) * params.report_bits,
                sketch_bytes=sketches_a[t].memory_bytes() + sketches_b[t].memory_bytes(),
                ledger=ledger,
                extras={"num_reports": n_a + n_b, "streams": ("A", "B")},
            )
        )
    return results


def run_join_sketch_trial_group(
    values_a: Iterable[int],
    values_b: Iterable[int],
    k: int,
    m: int,
    epsilons: Sequence[float],
    trial_seeds: Sequence[RandomState],
    *,
    group_seed: RandomState = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> List[List[EstimateResult]]:
    """Shared-pass evaluation of a whole (epsilon × trial) grid cell block.

    The sweep engine's opt-in fast mode: one hash-pair draw and one
    sample/hash pass (seeded by ``group_seed``) are shared by every
    ``(epsilon, trial)`` cell; each trial re-perturbs with its own flip
    uniforms and every epsilon thresholds those same uniforms (common
    random numbers) — see
    :func:`repro.core.client.encode_reports_grouped_into` for the exact
    semantics and the statistical trade (marginals unchanged, cross-cell
    correlation introduced).

    Returns one result list per epsilon, each with one
    :class:`EstimateResult` per trial seed.
    """
    epsilons = [float(e) for e in epsilons]
    trial_seeds = list(trial_seeds)
    if not epsilons or not trial_seeds:
        return [[] for _ in epsilons]
    arr_a = as_value_array(values_a, "values_a")
    arr_b = as_value_array(values_b, "values_b")
    params_per_eps = [SketchParams(k, m, e) for e in epsilons]
    trials, num_eps = len(trial_seeds), len(epsilons)
    start = time.perf_counter()
    rng = ensure_rng(group_seed)
    pairs = HashPairs(k, m, spawn(rng))
    trial_rngs = [ensure_rng(s) for s in trial_seeds]
    raw_a = np.zeros((trials, num_eps, k, m), dtype=np.int64)
    n_a = encode_reports_grouped_into(
        arr_a, pairs, epsilons, raw_a, rng, trial_rngs, chunk_size=chunk_size
    )
    raw_b = np.zeros_like(raw_a)
    n_b = encode_reports_grouped_into(
        arr_b, pairs, epsilons, raw_b, rng, trial_rngs, chunk_size=chunk_size
    )
    offline = time.perf_counter() - start
    start = time.perf_counter()
    # No FWHT at all: the transform is orthogonal up to ``m``
    # (``H H^T = m I``), so the Eq. (5) row inner products of the
    # *constructed* sketches equal ``m * scale^2`` times the inner
    # products of the raw pre-transform accumulators.  Those are int64,
    # so one exact integer einsum over the whole (T, E) block replaces
    # four block FWHTs and two float materialisations; the positive
    # factor commutes with the row median.
    per_row = np.einsum("tejx,tejx->tej", raw_a, raw_b).astype(np.float64)
    scales = np.asarray([m * p.scale**2 for p in params_per_eps], dtype=np.float64)
    estimates = np.median(per_row, axis=2) * scales[None, :]  # (T, E)
    online = time.perf_counter() - start
    cells = trials * num_eps
    sketch_bytes = 2 * k * m * 8
    results: List[List[EstimateResult]] = []
    for e, params in enumerate(params_per_eps):
        per_eps = []
        for t in range(trials):
            ledger = _two_stream_ledger(params.epsilon, "LDPJoinSketch")
            per_eps.append(
                EstimateResult(
                    estimate=float(estimates[t, e]),
                    offline_seconds=offline / cells,
                    online_seconds=online / cells,
                    uplink_bits=(n_a + n_b) * params.report_bits,
                    sketch_bytes=sketch_bytes,
                    ledger=ledger,
                    extras={"num_reports": n_a + n_b, "streams": ("A", "B")},
                )
            )
        results.append(per_eps)
    return results


def run_join_sketch_plus(
    values_a: Iterable[int],
    values_b: Iterable[int],
    domain_size: int,
    params: SketchParams,
    *,
    sample_rate: float = 0.1,
    threshold: float = 0.01,
    phase1_params: Optional[SketchParams] = None,
    paper_faithful_correction: bool = False,
    seed: RandomState = None,
) -> EstimateResult:
    """Run the two-phase LDPJoinSketch+ protocol end to end."""
    protocol = LDPJoinSketchPlus(
        params,
        sample_rate=sample_rate,
        threshold=threshold,
        phase1_params=phase1_params,
        paper_faithful_correction=paper_faithful_correction,
    )
    return protocol.estimate(
        np.asarray(values_a, dtype=np.int64),
        np.asarray(values_b, dtype=np.int64),
        domain_size,
        seed,
    )


# ----------------------------------------------------------------------
# Registry estimators
# ----------------------------------------------------------------------
class BaseEstimator(abc.ABC):
    """A join-size estimation method (private or baseline).

    Concrete subclasses satisfy the :class:`repro.api.JoinEstimator`
    protocol; the registry hands out instances by name.
    """

    #: Display name used in result tables (matches the figure legends).
    name: str = "abstract"
    #: Whether the method provides an LDP guarantee.
    private: bool = True

    @abc.abstractmethod
    def estimate(
        self,
        instance: JoinInstance,
        epsilon: float,
        seed: RandomState = None,
    ) -> EstimateResult:
        """Estimate the join size of ``instance`` under budget ``epsilon``."""

    def estimate_sharded(
        self,
        instance: JoinInstance,
        epsilon: float,
        *,
        num_shards: int,
        seed: RandomState = None,
        strategy: str = "hash",
        merge: str = "tree",
    ) -> EstimateResult:
        """Sharded-collection estimate: ``num_shards`` aggregators + merge tree.

        Routes through :func:`repro.distributed.estimate_sharded`.
        ``num_shards=1`` replays :meth:`estimate` bit for bit; any ``K``
        and either merge topology (``"tree"``/``"sequential"``) produce
        byte-identical results — see :mod:`repro.distributed`.
        """
        from ..distributed import estimate_sharded

        return estimate_sharded(
            self,
            instance,
            epsilon,
            num_shards=num_shards,
            seed=seed,
            strategy=strategy,
            merge=merge,
        )

    def report_bits_for(self, domain_size: int, epsilon: float) -> int:
        """Uplink bits one client transmits (cheap, no simulation).

        Default: the raw value, ``ceil(log2 domain)`` bits (non-private
        transmission); LDP methods override with their wire format.
        """
        return max(1, math.ceil(math.log2(domain_size)))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(name={self.name!r})"


def _two_stream_ledger(epsilon: float, mechanism: str) -> BudgetLedger:
    """The ledger of any one-report-per-user two-table collection."""
    ledger = BudgetLedger()
    ledger.charge("A", epsilon, mechanism)
    ledger.charge("B", epsilon, mechanism)
    return ledger


class _TwoStreamEstimator(BaseEstimator):
    """A method whose server state is one mergeable accumulator per table.

    The serial run and the sharded driver (:mod:`repro.distributed.collectors`)
    call only its two hooks.  The accumulators are
    :class:`~repro.mergeable.MergeableState`\\ s, so a shard ships them as
    one partial and the coordinator restores them.
    """

    def _collect_streams(self, values_a, values_b, domain_size, epsilon, rng, client_rng=None):
        """Both tables' accumulators, built and filled: ``(fingerprint, a, b)``.

        ``rng`` draws the published randomness, in the serial order;
        ``client_rng`` perturbs the clients (``None``: each accumulator's
        own stream).  The fingerprint pins what two shards must share.
        """
        raise NotImplementedError

    def _result(self, acc_a, acc_b, domain_size: int, epsilon: float) -> EstimateResult:
        """The estimate and its costs, from both tables' accumulators."""
        raise NotImplementedError

    def estimate(
        self,
        instance: JoinInstance,
        epsilon: float,
        seed: RandomState = None,
    ) -> EstimateResult:
        start = time.perf_counter()
        _, acc_a, acc_b = self._collect_streams(
            instance.values_a, instance.values_b, instance.domain_size, epsilon, ensure_rng(seed)
        )
        offline = time.perf_counter() - start
        return self._result(acc_a, acc_b, instance.domain_size, epsilon).with_costs(
            offline_seconds=offline
        )


class FAGMSEstimator(_TwoStreamEstimator):
    """Non-private Fast-AGMS — the accuracy ceiling of the sketch family."""

    name = "FAGMS"
    private = False

    def __init__(self, k: int = 18, m: int = 1024) -> None:
        self.k = k
        self.m = m

    def _collect_streams(self, values_a, values_b, domain_size, epsilon, rng, client_rng=None):
        """Two plain Fast-AGMS sketches on shared pairs; ``epsilon`` is ignored."""
        pairs = HashPairs(self.k, self.m, rng)
        sketch_a = FastAGMSSketch(pairs)
        sketch_a.update_batch(values_a)
        sketch_b = FastAGMSSketch(pairs)
        sketch_b.update_batch(values_b)
        return sketch_a.fingerprint(), sketch_a, sketch_b

    def _result(self, acc_a, acc_b, domain_size, epsilon):
        start = time.perf_counter()
        estimate = acc_a.inner_product(acc_b)
        online = time.perf_counter() - start
        raw_bits = max(1, math.ceil(math.log2(domain_size)))
        return EstimateResult(
            estimate=estimate,
            online_seconds=online,
            uplink_bits=int(acc_a.total_weight + acc_b.total_weight) * raw_bits,
            sketch_bytes=acc_a.memory_bytes() + acc_b.memory_bytes(),
        )


class _FrequencyOracleEstimator(_TwoStreamEstimator):
    """Shared driver for the frequency-vector join baselines.

    ``calibrate`` clips negative frequency estimates to zero before the
    product, matching the paper's "calibrated frequency vectors".  On
    large domains the clipped noise no longer cancels across candidates,
    which is precisely the cumulative-error behaviour the paper reports
    for these baselines; ``calibrate=False`` keeps the raw unbiased
    estimates (see the calibration ablation bench).
    """

    def __init__(self, *, calibrate: bool = True) -> None:
        self.calibrate = calibrate

    def _make_oracle(
        self, domain_size: int, epsilon: float, seed: RandomState
    ) -> FrequencyOracle:
        raise NotImplementedError

    def _collect_streams(self, values_a, values_b, domain_size, epsilon, rng, client_rng=None):
        """One oracle per table, each built from its own derived seed."""
        from ..distributed.partial import fingerprint_digest

        seeds = [derive_seed(rng), derive_seed(rng)]
        oracle_a = self._make_oracle(domain_size, epsilon, seeds[0])
        oracle_b = self._make_oracle(domain_size, epsilon, seeds[1])
        oracle_a.collect(values_a, rng=client_rng)
        oracle_b.collect(values_b, rng=client_rng)
        # Oracle A's fingerprint plus both seeds, the digest keyed right
        # after the budget as partials have always carried it.
        fingerprint = {
            "domain_size": oracle_a.domain_size,
            "privacy budget (epsilon)": oracle_a.epsilon,
            "oracle seeds digest": fingerprint_digest(seeds),
            **oracle_a.fingerprint(),
        }
        return fingerprint, oracle_a, oracle_b

    def _result(self, acc_a, acc_b, domain_size, epsilon):
        """Join via the two frequency vectors."""
        start = time.perf_counter()
        estimate = estimate_join_via_frequencies(acc_a, acc_b, clip_negative=self.calibrate)
        online = time.perf_counter() - start
        return EstimateResult(
            estimate=estimate,
            online_seconds=online,
            uplink_bits=acc_a.num_reports * acc_a.report_bits
            + acc_b.num_reports * acc_b.report_bits,
            sketch_bytes=acc_a.memory_bytes() + acc_b.memory_bytes(),
            ledger=_two_stream_ledger(epsilon, self.name),
        )


class KRREstimator(_FrequencyOracleEstimator):
    """k-RR with calibrated frequency vectors."""

    name = "k-RR"

    def _make_oracle(self, domain_size: int, epsilon: float, seed: RandomState) -> KRROracle:
        return KRROracle(domain_size, epsilon, seed)

    def report_bits_for(self, domain_size: int, epsilon: float) -> int:
        """One domain value per client."""
        return KRROracle(domain_size, epsilon, 0).report_bits


class FLHEstimator(_FrequencyOracleEstimator):
    """Fast Local Hashing with a shared hash pool.

    The pool size (``K'``) defaults to 256 — inside the range Cormode et
    al. recommend (1e2-1e4) and 2x cheaper to scan at estimation time than
    the oracle-level default; accuracy at laptop-scale n is unaffected.
    """

    name = "FLH"

    def __init__(self, pool_size: int = 256, *, calibrate: bool = True) -> None:
        super().__init__(calibrate=calibrate)
        self.pool_size = pool_size

    def _make_oracle(self, domain_size: int, epsilon: float, seed: RandomState) -> FLHOracle:
        return FLHOracle(domain_size, epsilon, seed, pool_size=self.pool_size)

    def report_bits_for(self, domain_size: int, epsilon: float) -> int:
        """Pool index plus a GRR report over [g]."""
        return FLHOracle(domain_size, epsilon, 0, pool_size=self.pool_size).report_bits


class HCMSEstimator(_FrequencyOracleEstimator):
    """Apple-HCMS summed over the domain."""

    name = "Apple-HCMS"

    def __init__(self, k: int = 18, m: int = 1024, *, calibrate: bool = True) -> None:
        super().__init__(calibrate=calibrate)
        self.k = k
        self.m = m

    def _make_oracle(self, domain_size: int, epsilon: float, seed: RandomState) -> HCMSOracle:
        return HCMSOracle(domain_size, epsilon, seed, k=self.k, m=self.m)

    def report_bits_for(self, domain_size: int, epsilon: float) -> int:
        """Sign bit plus row and column indices."""
        return SketchParams(self.k, self.m, epsilon).report_bits


class OLHEstimator(_FrequencyOracleEstimator):
    """Exact Optimal Local Hashing (one fresh hash per client).

    Not part of the paper's Fig. 5 line-up (FLH is its fast variant), but
    included for completeness; server-side estimation is Theta(n * |D|),
    so keep it to moderate domains.
    """

    name = "OLH"

    def _make_oracle(self, domain_size: int, epsilon: float, seed: RandomState) -> OLHOracle:
        return OLHOracle(domain_size, epsilon, seed)

    def report_bits_for(self, domain_size: int, epsilon: float) -> int:
        """64-bit hash seed plus a GRR report over [g]."""
        return OLHOracle(domain_size, epsilon, 0).report_bits


class LDPJoinSketchEstimator(BaseEstimator):
    """The paper's single-phase protocol (Algorithms 1-2, Eq. 5)."""

    name = "LDPJoinSketch"

    def __init__(self, k: int = 18, m: int = 1024) -> None:
        self.k = k
        self.m = m

    def estimate(
        self,
        instance: JoinInstance,
        epsilon: float,
        seed: RandomState = None,
    ) -> EstimateResult:
        """Run the full client/server simulation through a JoinSession."""
        return run_join_sketch(
            instance.values_a,
            instance.values_b,
            SketchParams(self.k, self.m, epsilon),
            seed=seed,
        )

    def estimate_trials(
        self,
        instance: JoinInstance,
        epsilon: float,
        seeds: Sequence[RandomState],
    ) -> List[EstimateResult]:
        """Trial-axis fast path: ``T`` estimates, bit-for-bit the serial ones.

        Result ``t`` equals ``estimate(instance, epsilon, seeds[t])`` in
        every deterministic field (estimate, uplink bits, sketch bytes);
        only timings differ because hashing/accumulation of all trials
        share one pass over each value array.
        """
        return run_join_sketch_trials(
            instance.values_a,
            instance.values_b,
            SketchParams(self.k, self.m, epsilon),
            seeds,
        )

    def estimate_trial_group(
        self,
        instance: JoinInstance,
        epsilons: Sequence[float],
        trial_seeds: Sequence[RandomState],
        *,
        group_seed: RandomState = None,
    ) -> List[List[EstimateResult]]:
        """Shared-pass (epsilon × trial) block — the sweep's grouped mode."""
        return run_join_sketch_trial_group(
            instance.values_a,
            instance.values_b,
            self.k,
            self.m,
            epsilons,
            trial_seeds,
            group_seed=group_seed,
        )

    def report_bits_for(self, domain_size: int, epsilon: float) -> int:
        """Sign bit plus row and column indices."""
        return SketchParams(self.k, self.m, epsilon).report_bits


class LDPJoinSketchPlusEstimator(BaseEstimator):
    """The paper's two-phase protocol (Algorithms 3-5)."""

    name = "LDPJoinSketch+"

    def __init__(
        self,
        k: int = 18,
        m: int = 1024,
        sample_rate: float = 0.1,
        threshold: float = 0.01,
        *,
        phase1_m: Optional[int] = None,
        paper_faithful_correction: bool = False,
    ) -> None:
        self.k = k
        self.m = m
        self.sample_rate = sample_rate
        self.threshold = threshold
        self.phase1_m = phase1_m
        self.paper_faithful_correction = paper_faithful_correction

    def protocol(self, epsilon: float) -> LDPJoinSketchPlus:
        """The configured two-phase protocol under budget ``epsilon``."""
        phase1 = (
            SketchParams(self.k, self.phase1_m, epsilon) if self.phase1_m is not None else None
        )
        return LDPJoinSketchPlus(
            SketchParams(self.k, self.m, epsilon),
            sample_rate=self.sample_rate,
            threshold=self.threshold,
            phase1_params=phase1,
            paper_faithful_correction=self.paper_faithful_correction,
        )

    def estimate(
        self,
        instance: JoinInstance,
        epsilon: float,
        seed: RandomState = None,
    ) -> EstimateResult:
        """Run both phases of the protocol."""
        return self.protocol(epsilon).estimate(
            instance.values_a, instance.values_b, instance.domain_size, seed
        )

    def report_bits_for(self, domain_size: int, epsilon: float) -> int:
        """Sign bit plus row and column indices (both phases)."""
        return SketchParams(self.k, self.m, epsilon).report_bits


class CompassEstimator(BaseEstimator):
    """The Section VI LDP-COMPASS protocol applied to a two-way join.

    A two-way join is the degenerate one-attribute chain: both tables are
    end tables over the same join attribute and Eq. (27) collapses to
    Eq. (5).  For real chains use :meth:`JoinSession.estimate_chain` or
    :func:`repro.experiments.chains.ldp_compass_estimate`; this adapter
    makes the multiway protocol addressable through the same registry as
    every other method.
    """

    name = "LDP-COMPASS"

    def __init__(self, k: int = 18, m: int = 1024) -> None:
        self.k = k
        self.m = m

    def estimate(
        self,
        instance: JoinInstance,
        epsilon: float,
        seed: RandomState = None,
    ) -> EstimateResult:
        """Run the chain protocol over the degenerate one-attribute chain."""
        params = SketchParams(self.k, self.m, epsilon)
        session = JoinSession(params, seed=seed)
        session.collect("A", instance.values_a)
        session.collect("B", instance.values_b)
        # estimate_chain over [A, B] contracts first[j] @ last[j] per
        # replica — exactly the row-wise inner products of Eq. (5).
        return session.estimate_chain(["A", "B"])

    def estimate_trials(
        self,
        instance: JoinInstance,
        epsilon: float,
        seeds: Sequence[RandomState],
    ) -> List[EstimateResult]:
        """Trial-axis fast path over the degenerate chain query.

        Per-trial results match :meth:`estimate` under the same seeds in
        every deterministic field; the chain contraction runs through the
        same :meth:`LDPCompassProtocol.estimate_chain` the session uses.
        """
        return run_join_sketch_trials(
            instance.values_a,
            instance.values_b,
            SketchParams(self.k, self.m, epsilon),
            seeds,
            query="chain",
        )

    def estimate_trial_group(
        self,
        instance: JoinInstance,
        epsilons: Sequence[float],
        trial_seeds: Sequence[RandomState],
        *,
        group_seed: RandomState = None,
    ) -> List[List[EstimateResult]]:
        """Shared-pass (epsilon × trial) block — the sweep's grouped mode.

        On a two-way join the chain estimate is the Eq. (5) median of
        per-replica inner products, so the grouped block is computed by
        the same batched contraction the plain sketch uses.
        """
        return run_join_sketch_trial_group(
            instance.values_a,
            instance.values_b,
            self.k,
            self.m,
            epsilons,
            trial_seeds,
            group_seed=group_seed,
        )

    def report_bits_for(self, domain_size: int, epsilon: float) -> int:
        """End-table clients transmit the LDPJoinSketch wire format."""
        return SketchParams(self.k, self.m, epsilon).report_bits


# ----------------------------------------------------------------------
# Registrations — canonical key first, figure-legend names as aliases.
# ----------------------------------------------------------------------
register("fagms", FAGMSEstimator, aliases=("fast-agms",))
register("krr", KRREstimator, aliases=("k-rr",))
register("olh", OLHEstimator)
register("flh", FLHEstimator, aliases=("fast-local-hashing",))
register("hcms", HCMSEstimator, aliases=("apple-hcms",))
register(
    "ldp-join-sketch",
    LDPJoinSketchEstimator,
    aliases=("ldpjs", "ldpjoinsketch"),
)
register(
    "ldp-join-sketch-plus",
    LDPJoinSketchPlusEstimator,
    aliases=("ldpjs+", "ldpjs-plus", "ldpjoinsketch+", "fap"),
)
register("compass", CompassEstimator, aliases=("ldp-compass", "multiway"))
