"""Hot-path microbenchmarks with a machine-readable trajectory file.

Unlike the figure benchmarks (which reproduce the paper's *accuracy*
plots), this suite tracks the *throughput* of the simulator's hot paths so
every PR has a perf baseline to beat:

* ``encode`` — client-side encoding throughput (clients/sec) of the
  batched and fused paths;
* ``aggregate`` — server-side accumulation throughput (reports/sec),
  ``np.add.at`` scatter versus flattened-index bincount;
* ``end_to_end`` — the headline number: encode→accumulate for ``n``
  clients, comparing a faithful replica of the pre-fused pipeline
  (per-row masked hashing, ``%``-reduction Horner, O(n) report arrays,
  ``np.add.at``) against :func:`repro.core.client.encode_reports_into`;
* ``estimate`` — query latency: sketch materialisation + Eq. (5), plus
  the cached re-query (the session keeps finalized post-FWHT sketches
  until the next collect/merge invalidates them);
* ``serialize`` — session payload round-trip, legacy ``tolist()`` JSON
  versus the packed base64 format, with payload sizes;
* ``sweep`` — the headline of the sweep engine: a paper-style
  (2 methods × 3 epsilons × 5 trials) grid on one dataset, comparing the
  pre-engine serial harness loop (one full ``estimate`` per trial)
  against the engine's exact mode (trial-axis fused kernel, bit-identical
  estimates) and grouped mode (one hash/sample pass per (dataset, method)
  block), plus a parallel-vs-serial bit-identity check;
* ``backends`` (schema v3) — per-compute-backend kernel throughput on the
  shared ABI (:mod:`repro.backend`): the fused encode→accumulate kernel,
  the FWHT butterfly and the k-wise Mersenne hash, one row per available
  backend (``numpy`` always; ``numba`` when importable).  This is the
  apples-to-apples compiled-vs-reference comparison CI's speedup floor
  reads;
* ``distributed`` (schema v4) — sharded scatter/gather collection
  (:mod:`repro.distributed`): one aggregator ingesting the whole
  population versus K shard aggregators ingesting their partitions.
  ``sharded_clients_per_sec`` is the parallel ingest capacity (the
  population over the *slowest shard's* wall-clock — K aggregators run
  concurrently in production), ``merge_seconds`` is the tree-merge cost
  of folding the K partials back, and ``identical`` certifies the merged
  accumulators are byte-identical to the single-aggregator run.
* ``service`` (schema v5) — the online aggregation service
  (:mod:`repro.service`) under load: a handful of keep-alive HTTP
  connections POST batched reports through the real asyncio server
  (socket → admission control → WAL append + fsync → session fold),
  recording sustained acknowledged-report throughput, per-batch ack
  latency and ``GET /v1/estimate`` p50/p99 against the published
  snapshot.  CI's ``--min-service-ingest`` floor reads
  ``ingest_reports_per_sec``.  Schema v6 adds the replicated leg: the
  same load shape through a primary/standby pair in quorum-ack mode
  (each ack held for the standby's ``POST /v1/replicate`` apply), with
  ``quorum_ingest_reports_per_sec`` read by ``--min-quorum-ingest`` and
  ``quorum_digest_match`` certifying both nodes published byte-identical
  snapshots.  Schema v7 adds the windowed (temporal) leg: the same load
  shape against a service running with ``epoch_interval`` set, then a
  burst of ``GET /v1/estimate?window=W`` sliding-window queries, with
  ``window_estimates_per_sec`` read by ``--min-window-estimate``.

:func:`run_suite` returns a JSON-compatible payload;
:func:`validate_payload` is the schema check CI runs against the emitted
file.  The legacy implementations live here on purpose — they are the
recorded baseline, kept runnable so the speedup numbers stay reproducible
instead of rotting in a commit message.
"""

from __future__ import annotations

import json
import time
from typing import Callable, Dict, Tuple

import numpy as np

from repro.accumulate import scatter_add_signed_units
from repro.api import JoinSession, get_estimator
from repro.backend import (
    available_backends,
    backend_available,
    get_backend,
    resolve_backend,
)
from repro.core import SketchParams, encode_reports, encode_reports_into
from repro.core.client import DEFAULT_CHUNK_SIZE
from repro.data import make_join_instance
from repro.experiments.sweep import plan_grid, run_sweep
from repro.hashing import HashPairs
from repro.hashing.kwise import MERSENNE_PRIME_31
from repro.rng import derive_seed, ensure_rng

SCHEMA_VERSION = 7

#: Shard count of the ``distributed`` section (one tree of depth 3).
DISTRIBUTED_SHARDS = 8

#: Headline population sizes.
FULL_N = 1_000_000
QUICK_N = 20_000

#: Per-stream population of the sweep grid (paper-style n >= 100k when full).
SWEEP_FULL_N = 100_000
SWEEP_QUICK_N = 20_000

#: The sweep grid: 2 methods x 3 epsilons x 5 trials on one dataset.
SWEEP_METHODS = ("ldp-join-sketch", "ldp-compass")
SWEEP_EPSILONS = (2.0, 4.0, 8.0)
SWEEP_TRIALS = 5
SWEEP_DATASET = "zipf-1.1"

#: Sketch shape of every benchmark (the paper's defaults).
BENCH_K = 18
BENCH_M = 1024
BENCH_EPSILON = 4.0
BENCH_SEED = 20240101


# ----------------------------------------------------------------------
# Pre-PR reference implementations (the recorded baseline)
# ----------------------------------------------------------------------
def _legacy_kwise(coefficients: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Horner evaluation with a ``%`` reduction per step (pre-PR KWiseHash)."""
    p = np.uint64(MERSENNE_PRIME_31)
    x = values.astype(np.uint64)
    acc = np.full(x.shape, coefficients[-1], dtype=np.uint64)
    for c in coefficients[-2::-1]:
        acc = (acc * x + c) % p
    return acc.astype(np.int64)


def _legacy_bucket_rows(pairs: HashPairs, rows: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Per-row masked bucket evaluation (pre-PR ``HashPairs.bucket_rows``)."""
    out = np.empty(values.shape, dtype=np.int64)
    for j in range(pairs.k):
        mask = rows == j
        if np.any(mask):
            out[mask] = _legacy_kwise(pairs.bucket_hashes[j].coefficients, values[mask]) % pairs.m
    return out


def _legacy_sign_rows(pairs: HashPairs, rows: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Per-row masked sign evaluation (pre-PR ``HashPairs.sign_rows``)."""
    out = np.empty(values.shape, dtype=np.int64)
    for j in range(pairs.k):
        mask = rows == j
        if np.any(mask):
            raw = _legacy_kwise(pairs.sign_hashes[j].base.coefficients, values[mask])
            out[mask] = 1 - 2 * (raw & 1)
    return out


def _legacy_encode_aggregate(
    values: np.ndarray, params: SketchParams, pairs: HashPairs, rng: np.random.Generator
) -> np.ndarray:
    """Pre-PR end-to-end path: O(n) report arrays + ``np.add.at`` scatter."""
    from repro.transform.hadamard import sample_hadamard_entries

    n = values.size
    rows = rng.integers(0, params.k, size=n)
    cols = rng.integers(0, params.m, size=n)
    buckets = _legacy_bucket_rows(pairs, rows, values)
    signs = _legacy_sign_rows(pairs, rows, values)
    w = signs * sample_hadamard_entries(buckets, cols, params.m)
    flips = rng.random(n) < params.flip_probability
    ys = np.where(flips, -w, w).astype(np.int64)
    raw = np.zeros((params.k, params.m), dtype=np.float64)
    np.add.at(raw, (rows, cols), params.scale * ys.astype(np.float64))
    return raw


# ----------------------------------------------------------------------
# Timing helpers
# ----------------------------------------------------------------------
def _best_of(func: Callable[[], object], repeats: int) -> float:
    """Best wall-clock seconds over ``repeats`` runs (noise floor).

    One untimed warmup run precedes the measurement so page faults, lazy
    imports and allocator growth don't land in the recorded numbers.
    """
    func()
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - start)
    return best


def _rate(n: int, seconds: float) -> float:
    return float(n / seconds) if seconds > 0 else float("inf")


# ----------------------------------------------------------------------
# Sections
# ----------------------------------------------------------------------
def _bench_encode(n: int, repeats: int) -> Dict[str, float]:
    params = SketchParams(BENCH_K, BENCH_M, BENCH_EPSILON)
    pairs = HashPairs(params.k, params.m, seed=BENCH_SEED)
    values = np.random.default_rng(BENCH_SEED).integers(0, 1 << 20, size=n)
    batched = _best_of(
        lambda: encode_reports(values, params, pairs, np.random.default_rng(1)), repeats
    )
    out = np.zeros((params.k, params.m), dtype=np.int64)
    fused = _best_of(
        lambda: encode_reports_into(values, params, pairs, out, np.random.default_rng(1)),
        repeats,
    )
    return {
        "n": n,
        "batched_seconds": batched,
        "batched_clients_per_sec": _rate(n, batched),
        "fused_seconds": fused,
        "fused_clients_per_sec": _rate(n, fused),
    }


def _bench_aggregate(n: int, repeats: int) -> Dict[str, float]:
    params = SketchParams(BENCH_K, BENCH_M, BENCH_EPSILON)
    rng = np.random.default_rng(BENCH_SEED)
    rows = rng.integers(0, params.k, size=n)
    cols = rng.integers(0, params.m, size=n)
    ys = rng.choice(np.array([-1, 1], dtype=np.int64), size=n)

    def run_add_at():
        raw = np.zeros((params.k, params.m), dtype=np.int64)
        np.add.at(raw, (rows, cols), ys)
        return raw

    def run_bincount():
        raw = np.zeros((params.k, params.m), dtype=np.int64)
        scatter_add_signed_units(raw, (rows, cols), ys)
        return raw

    assert np.array_equal(run_add_at(), run_bincount())
    add_at = _best_of(run_add_at, repeats)
    bincount = _best_of(run_bincount, repeats)
    return {
        "n": n,
        "add_at_seconds": add_at,
        "add_at_reports_per_sec": _rate(n, add_at),
        "bincount_seconds": bincount,
        "bincount_reports_per_sec": _rate(n, bincount),
        "speedup": add_at / bincount if bincount > 0 else float("inf"),
    }


def _bench_end_to_end(n: int, repeats: int) -> Dict[str, float]:
    params = SketchParams(BENCH_K, BENCH_M, BENCH_EPSILON)
    pairs = HashPairs(params.k, params.m, seed=BENCH_SEED)
    values = np.random.default_rng(BENCH_SEED).integers(0, 1 << 20, size=n)
    baseline = _best_of(
        lambda: _legacy_encode_aggregate(values, params, pairs, np.random.default_rng(1)),
        repeats,
    )

    def run_fused():
        out = np.zeros((params.k, params.m), dtype=np.int64)
        encode_reports_into(values, params, pairs, out, np.random.default_rng(1))
        return out

    fused = _best_of(run_fused, repeats)
    return {
        "n": n,
        "baseline_seconds": baseline,
        "baseline_clients_per_sec": _rate(n, baseline),
        "fused_seconds": fused,
        "fused_clients_per_sec": _rate(n, fused),
        "speedup": baseline / fused if fused > 0 else float("inf"),
    }


def _bench_estimate(n: int, repeats: int) -> Dict[str, float]:
    params = SketchParams(BENCH_K, BENCH_M, BENCH_EPSILON)
    session = JoinSession(params, seed=BENCH_SEED)
    rng = np.random.default_rng(BENCH_SEED)
    session.collect("A", rng.integers(0, 1 << 16, size=n))
    session.collect("B", rng.integers(0, 1 << 16, size=n))

    def run_estimate():
        # Invalidate the cache so each run pays materialisation + query.
        for state in session._streams.values():
            state.cached = None
        return session.estimate("A", "B")

    seconds = _best_of(run_estimate, repeats)
    # Cached re-query: the session holds the finalized post-FWHT sketches
    # until collect/merge invalidates them, so repeated queries skip the
    # transform entirely.
    session.estimate("A", "B")
    cached_seconds = _best_of(lambda: session.estimate("A", "B"), repeats)
    return {
        "n": n,
        "estimate_seconds": seconds,
        "estimate_cached_seconds": cached_seconds,
    }


def _sweep_estimates(records) -> Tuple[float, ...]:
    return tuple(r.estimate for unit_records in records for r in unit_records)


def _bench_sweep(n: int, repeats: int, parallel_workers: int = 2) -> Dict[str, float]:
    """Paper-style grid: pre-engine serial harness vs the sweep engine."""
    instance = make_join_instance(SWEEP_DATASET, size=n, seed=BENCH_SEED)
    instance.true_join_size  # materialise the ground truth outside timing
    methods = {}
    for name in SWEEP_METHODS:
        estimator = get_estimator(name, k=BENCH_K, m=BENCH_M)
        methods[estimator.name] = estimator
    epsilons = list(SWEEP_EPSILONS)
    master = BENCH_SEED

    def legacy_serial():
        # Faithful replica of the pre-engine harness: per grid point one
        # derived unit seed, per trial one full estimator run (fresh
        # session, fresh pairs, chunked encode, FWHT, query).  The seed
        # derivation order matches plan_grid, so the exact engine's
        # estimates can be compared 1:1.
        rng = ensure_rng(master)
        estimates = []
        derive_seed(rng)  # the dataset's instance seed
        for method in methods.values():
            for epsilon in epsilons:
                unit_rng = ensure_rng(derive_seed(rng))
                for _ in range(SWEEP_TRIALS):
                    estimates.append(
                        method.estimate(instance, epsilon, derive_seed(unit_rng)).estimate
                    )
        return tuple(estimates)

    def engine(trial_axis: str, workers: int = 1):
        plan = plan_grid(
            [SWEEP_DATASET],
            methods,
            epsilons,
            SWEEP_TRIALS,
            seed=master,
            trial_axis=trial_axis,
            instances={SWEEP_DATASET: instance},
        )
        return _sweep_estimates(run_sweep(plan, workers=workers))

    serial_seconds = _best_of(legacy_serial, repeats)
    exact_seconds = _best_of(lambda: engine("exact"), repeats)
    grouped_seconds = _best_of(lambda: engine("grouped"), repeats)
    exact_identical = legacy_serial() == engine("exact")
    serial_grouped = engine("grouped")
    parallel_start = time.perf_counter()
    parallel_grouped = engine("grouped", workers=parallel_workers)
    parallel_seconds = time.perf_counter() - parallel_start
    units = len(methods) * len(epsilons)
    return {
        "n": n,
        "datasets": 1,
        "methods": len(methods),
        "epsilons": len(epsilons),
        "trials": SWEEP_TRIALS,
        "units": units,
        "serial_seconds": serial_seconds,
        "exact_seconds": exact_seconds,
        "grouped_seconds": grouped_seconds,
        "speedup": serial_seconds / grouped_seconds if grouped_seconds > 0 else float("inf"),
        "exact_speedup": serial_seconds / exact_seconds if exact_seconds > 0 else float("inf"),
        "exact_identical": 1.0 if exact_identical else 0.0,
        "parallel_workers": parallel_workers,
        "parallel_seconds": parallel_seconds,
        "parallel_identical": 1.0 if parallel_grouped == serial_grouped else 0.0,
    }


#: Kernel names of the ``backends`` section (schema v3).
BACKEND_KERNELS = ("fused_encode", "fwht", "hashing")

#: FWHT batch shape of the backend comparison (rows × BENCH_M).
FWHT_BATCH_ROWS = 512


def _bench_backends(n: int, repeats: int) -> dict:
    """Per-backend kernel throughput on the shared ABI.

    One row per available backend and ABI kernel, measured on identical
    pre-drawn inputs (randomness is host-side by the ABI contract, so
    the kernels are pure functions and the comparison is exact).  The
    ``fwht`` timing transforms the same buffer repeatedly — the FWHT is
    linear, so growing magnitudes leave the flop count (and float64
    range, for any sane repeat count) untouched.
    """
    params = SketchParams(BENCH_K, BENCH_M, BENCH_EPSILON)
    pairs = HashPairs(params.k, params.m, seed=BENCH_SEED)
    rng = np.random.default_rng(BENCH_SEED)
    values = rng.integers(0, 1 << 20, size=n).astype(np.uint64)
    rows = rng.integers(0, params.k, size=n)
    cols = rng.integers(0, params.m, size=n)
    flips = rng.random(n) < params.flip_probability
    fwht_data = rng.normal(size=(FWHT_BATCH_ROWS, BENCH_M))
    kernels: Dict[str, dict] = {name: {} for name in BACKEND_KERNELS}
    # One row per registered-and-importable backend (not just the two
    # built-ins), so a register_backend() extension shows up in the
    # comparison exactly as the README promises.
    for backend_name in sorted(available_backends()):
        if not backend_available(backend_name):
            continue
        backend = resolve_backend(backend_name)

        def run_fused():
            out = np.zeros((params.k, params.m), dtype=np.int64)
            # Chunked exactly like encode_reports_into's production loop
            # (DEFAULT_CHUNK_SIZE per kernel call), so each backend's row
            # measures the kernel variant sessions actually execute —
            # not a one-shot giant call no library entry point makes.
            for start in range(0, n, DEFAULT_CHUNK_SIZE):
                sl = slice(start, start + DEFAULT_CHUNK_SIZE)
                backend.fused_encode_accumulate(
                    pairs._bucket_coeffs, pairs._sign_coeffs, values[sl],
                    rows[sl], cols[sl], flips[sl], params.m, out,
                )
            return out

        fused = _best_of(run_fused, repeats)
        hashing = _best_of(
            lambda: backend.polyval_mersenne_rows(pairs._bucket_coeffs, rows, values),
            repeats,
        )
        fwht = _best_of(lambda: backend.fwht_batch_inplace(fwht_data), repeats)
        kernels["fused_encode"][backend_name] = {
            "seconds": fused,
            "per_sec": _rate(n, fused),
        }
        kernels["hashing"][backend_name] = {
            "seconds": hashing,
            "per_sec": _rate(n, hashing),
        }
        kernels["fwht"][backend_name] = {
            "seconds": fwht,
            "per_sec": _rate(fwht_data.size, fwht),
        }
    return {
        "n": n,
        "active": get_backend().name,
        "numba_available": 1.0 if backend_available("numba") else 0.0,
        "kernels": kernels,
    }


def _bench_distributed(n: int, repeats: int, shards: int = DISTRIBUTED_SHARDS) -> Dict[str, float]:
    """Sharded ingest + merge-tree cost versus the single aggregator.

    The single-aggregator row times a plain whole-population ``collect``
    (what one process ingesting everything actually runs — no planner
    work); the sharded row times each shard aggregator separately on its
    pre-planned partition — production shards ingest concurrently, so
    capacity is the population over the *slowest* shard.  Separately
    (untimed), the tree-merged partials must reproduce the
    single-aggregator ``collect_sharded`` run of the same plan byte for
    byte — the ``identical`` flag CI asserts.
    """
    from repro.distributed import ShardPlanner, merge_tree

    params = SketchParams(BENCH_K, BENCH_M, BENCH_EPSILON)
    coordinator = JoinSession(params, seed=BENCH_SEED)
    values = np.random.default_rng(BENCH_SEED).integers(0, 1 << 16, size=n)
    planner = ShardPlanner(shards, strategy="hash")
    splits = planner.split(values)
    shard_seeds = planner.shard_seeds(BENCH_SEED)

    def run_single():
        session = JoinSession(params, pairs=coordinator.pairs)
        session.collect("A", values, seed=BENCH_SEED)
        return session

    single_seconds = _best_of(run_single, repeats)
    reference = JoinSession(params, pairs=coordinator.pairs)
    reference.collect_sharded("A", values, num_shards=shards, seed=BENCH_SEED)
    single_raw = reference._streams["A"].raw

    def run_shards():
        times, partials = [], []
        for shard_values, shard_seed in zip(splits, shard_seeds):
            shard = coordinator.spawn_shard()
            start = time.perf_counter()
            shard.collect("A", shard_values, seed=shard_seed)
            times.append(time.perf_counter() - start)
            partials.append(shard.to_partial())
        return times, partials

    run_shards()  # warmup
    # Best-of per statistic, independently: one stalled shard in the
    # best-total repeat must not deflate the capacity number (the same
    # noise-floor treatment _best_of applies to scalar timings).  The
    # partials themselves are plan-deterministic, identical every repeat.
    best_total, best_max, partials = float("inf"), float("inf"), None
    for _ in range(repeats):
        times, run_partials = run_shards()
        best_total = min(best_total, sum(times))
        best_max = min(best_max, max(times))
        partials = run_partials
    # Time the reduction alone: copies are staged untimed and consumed
    # with copy=False, so merge_seconds is the pure-adds cost aggregators
    # actually pay, not memcpy of the inputs.
    merge_seconds = float("inf")
    for i in range(repeats + 1):  # first pass is the warmup
        staged = [p.copy() for p in partials]
        start = time.perf_counter()
        merge_tree(staged, copy=False)
        elapsed = time.perf_counter() - start
        if i > 0:
            merge_seconds = min(merge_seconds, elapsed)

    merged_session = JoinSession(params, pairs=coordinator.pairs)
    merged_session.merge(merge_tree(partials))
    identical = np.array_equal(merged_session._streams["A"].raw, single_raw)
    payload_bytes = len(json.dumps(partials[0].to_dict()))
    single_rate = _rate(n, single_seconds)
    sharded_rate = _rate(n, best_max)
    return {
        "n": n,
        "shards": shards,
        "single_seconds": single_seconds,
        "single_clients_per_sec": single_rate,
        "shard_seconds_total": best_total,
        "shard_seconds_max": best_max,
        "sharded_clients_per_sec": sharded_rate,
        "ingest_speedup": sharded_rate / single_rate if single_rate > 0 else float("inf"),
        "merge_seconds": merge_seconds,
        "partial_payload_bytes": payload_bytes,
        "identical": 1.0 if identical else 0.0,
    }


def _bench_serialize(n: int, repeats: int) -> Dict[str, float]:
    params = SketchParams(BENCH_K, BENCH_M, BENCH_EPSILON)
    session = JoinSession(params, seed=BENCH_SEED)
    rng = np.random.default_rng(BENCH_SEED)
    session.collect("A", rng.integers(0, 1 << 16, size=n))
    session.collect("B", rng.integers(0, 1 << 16, size=n))

    def roundtrip_packed():
        return JoinSession.from_dict(json.loads(json.dumps(session.to_dict())))

    def legacy_payload() -> dict:
        # Rewrite the packed arrays as the pre-PR nested lists.
        payload = session.to_dict()
        for entry in payload["streams"].values():
            entry["raw"] = _decode_for_bench(entry["raw"]).tolist()
        return payload

    legacy = legacy_payload()

    def roundtrip_legacy():
        return JoinSession.from_dict(json.loads(json.dumps(legacy)))

    packed_seconds = _best_of(roundtrip_packed, repeats)
    legacy_seconds = _best_of(roundtrip_legacy, repeats)
    return {
        "n": n,
        "packed_roundtrip_seconds": packed_seconds,
        "legacy_roundtrip_seconds": legacy_seconds,
        "packed_payload_bytes": len(json.dumps(session.to_dict())),
        "legacy_payload_bytes": len(json.dumps(legacy)),
    }


def _decode_for_bench(raw_entry) -> np.ndarray:
    from repro.serialization import decode_array

    return decode_array(raw_entry, np.int64)


def _bench_service(quick: bool) -> dict:
    """The online-service load generator (lives in :mod:`bench_service`).

    Imported lazily so the suite module stays importable without the
    benchmarks directory on ``sys.path`` being a hard requirement at
    import time (``run_perf.py`` inserts it before calling us).
    """
    from bench_service import run_service_bench

    return run_service_bench(quick=quick)


# ----------------------------------------------------------------------
# Runner + schema
# ----------------------------------------------------------------------
def run_suite(quick: bool = False, backends_n: int = None) -> dict:
    """Run every section; returns the JSON-compatible payload.

    ``backends_n`` overrides the population of the ``backends`` section
    only — CI's numba leg passes ``FULL_N`` alongside ``quick=True`` so
    the compiled-vs-reference comparison (and its speedup floor) is
    measured at the headline n = 1M even in the fast smoke run, where the
    other sections stay small.
    """
    n = QUICK_N if quick else FULL_N
    repeats = 1 if quick else 9
    query_n = min(n, 200_000)
    sweep_n = SWEEP_QUICK_N if quick else SWEEP_FULL_N
    sweep_repeats = 1 if quick else 3
    if backends_n is None:
        backends_n, backends_repeats = n, repeats
    else:
        backends_repeats = max(repeats, 3)
    return {
        "schema_version": SCHEMA_VERSION,
        "mode": "quick" if quick else "full",
        "params": {"k": BENCH_K, "m": BENCH_M, "epsilon": BENCH_EPSILON},
        "sections": {
            "encode": _bench_encode(n, repeats),
            "aggregate": _bench_aggregate(n, repeats),
            "end_to_end": _bench_end_to_end(n, repeats),
            "estimate": _bench_estimate(query_n, repeats),
            "serialize": _bench_serialize(query_n, repeats),
            "sweep": _bench_sweep(sweep_n, sweep_repeats),
            "backends": _bench_backends(backends_n, backends_repeats),
            "distributed": _bench_distributed(n, repeats),
            "service": _bench_service(quick),
        },
    }


_SECTION_KEYS: Dict[str, Tuple[str, ...]] = {
    "encode": (
        "n",
        "batched_seconds",
        "batched_clients_per_sec",
        "fused_seconds",
        "fused_clients_per_sec",
    ),
    "aggregate": (
        "n",
        "add_at_seconds",
        "add_at_reports_per_sec",
        "bincount_seconds",
        "bincount_reports_per_sec",
        "speedup",
    ),
    "end_to_end": (
        "n",
        "baseline_seconds",
        "baseline_clients_per_sec",
        "fused_seconds",
        "fused_clients_per_sec",
        "speedup",
    ),
    "estimate": ("n", "estimate_seconds", "estimate_cached_seconds"),
    "serialize": (
        "n",
        "packed_roundtrip_seconds",
        "legacy_roundtrip_seconds",
        "packed_payload_bytes",
        "legacy_payload_bytes",
    ),
    "sweep": (
        "n",
        "datasets",
        "methods",
        "epsilons",
        "trials",
        "units",
        "serial_seconds",
        "exact_seconds",
        "grouped_seconds",
        "speedup",
        "exact_speedup",
        "exact_identical",
        "parallel_workers",
        "parallel_seconds",
        "parallel_identical",
    ),
    "distributed": (
        "n",
        "shards",
        "single_seconds",
        "single_clients_per_sec",
        "shard_seconds_total",
        "shard_seconds_max",
        "sharded_clients_per_sec",
        "ingest_speedup",
        "merge_seconds",
        "partial_payload_bytes",
        "identical",
    ),
    "service": (
        "n",
        "batch_reports",
        "batches",
        "connections",
        "throttled",
        "ingest_seconds",
        "ingest_reports_per_sec",
        "ingest_p50_ms",
        "ingest_p99_ms",
        "publish_seconds",
        "snapshot_wal_records",
        "queries",
        "query_p50_ms",
        "query_p99_ms",
        "wal_bytes",
        "quorum_n",
        "quorum_replicas",
        "quorum_throttled",
        "quorum_seconds",
        "quorum_ingest_reports_per_sec",
        "quorum_ingest_p50_ms",
        "quorum_ingest_p99_ms",
        "quorum_digest_match",
        "window_n",
        "window_epoch_interval",
        "window_epochs",
        "window_query_epochs",
        "window_throttled",
        "window_ingest_seconds",
        "window_ingest_reports_per_sec",
        "window_closed_epochs",
        "window_queries",
        "window_query_p50_ms",
        "window_query_p99_ms",
        "window_estimates_per_sec",
    ),
}


def _validate_backends_section(section) -> None:
    """Schema check of the v3 ``backends`` section."""
    if not isinstance(section, dict):
        raise ValueError("missing section 'backends'")
    for key in ("n", "numba_available"):
        value = section.get(key)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ValueError(f"backends key {key!r} must be a number, got {value!r}")
    if not isinstance(section.get("active"), str):
        raise ValueError("backends key 'active' must be a string")
    numba_required = section["numba_available"] == 1.0
    kernels = section.get("kernels")
    if not isinstance(kernels, dict):
        raise ValueError("backends section must carry a 'kernels' object")
    for kernel in BACKEND_KERNELS:
        entry = kernels.get(kernel)
        if not isinstance(entry, dict) or "numpy" not in entry:
            raise ValueError(f"backends kernel {kernel!r} must carry a numpy row")
        if numba_required and "numba" not in entry:
            raise ValueError(
                f"backends kernel {kernel!r} lacks a numba row although "
                f"numba_available is 1"
            )
        for backend_name, row in entry.items():
            if not isinstance(row, dict):
                raise ValueError(
                    f"backends kernel {kernel!r} row {backend_name!r} must be an object"
                )
            for key in ("seconds", "per_sec"):
                value = row.get(key)
                if (
                    not isinstance(value, (int, float))
                    or isinstance(value, bool)
                    or value < 0
                ):
                    raise ValueError(
                        f"backends kernel {kernel!r} row {backend_name!r} key "
                        f"{key!r} must be a non-negative number, got {value!r}"
                    )


def validate_payload(payload: dict) -> None:
    """Raise ``ValueError`` unless ``payload`` matches the BENCH_perf schema."""
    if not isinstance(payload, dict):
        raise ValueError("payload must be a JSON object")
    if payload.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(
            f"schema_version must be {SCHEMA_VERSION}, got {payload.get('schema_version')!r}"
        )
    if payload.get("mode") not in ("quick", "full"):
        raise ValueError(f"mode must be 'quick' or 'full', got {payload.get('mode')!r}")
    params = payload.get("params")
    if not isinstance(params, dict) or not {"k", "m", "epsilon"} <= set(params):
        raise ValueError("params must carry k, m and epsilon")
    sections = payload.get("sections")
    if not isinstance(sections, dict):
        raise ValueError("sections must be a JSON object")
    for name, keys in _SECTION_KEYS.items():
        section = sections.get(name)
        if not isinstance(section, dict):
            raise ValueError(f"missing section {name!r}")
        for key in keys:
            value = section.get(key)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ValueError(f"section {name!r} key {key!r} must be a number, got {value!r}")
            if value < 0:
                raise ValueError(f"section {name!r} key {key!r} must be non-negative")
    _validate_backends_section(sections.get("backends"))
