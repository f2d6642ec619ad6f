"""Vectorized multi-trial sweep engine: deterministic grids, parallel units.

Every figure of the paper is a sweep over (dataset × method × epsilon ×
trial).  This module turns that loop into an explicit, schedulable plan:

* :func:`plan_grid` expands a grid into :class:`SweepUnit` work units,
  drawing every seed up front **in the historical order** (one instance
  seed per dataset, then one unit seed per (method, epsilon)) — so the
  plan is a pure function of the master seed and ``workers=1`` reproduces
  the legacy serial harness bit for bit;
* :func:`run_sweep` / :func:`iter_sweep` execute the units either
  in-process or on a ``ProcessPoolExecutor``, with each dataset's value
  arrays placed once in ``multiprocessing.shared_memory`` and attached by
  the workers (never pickled per task).  Results stream back in plan
  order and are **bit-identical for every worker count**, because all
  randomness is fixed by the plan, not by scheduling;
* ``trial_axis="grouped"`` switches a grid cell block to the shared-pass
  fast mode: per (dataset, method) group, hash pairs and the sample/hash
  pass are drawn once and shared by every (epsilon × trial) cell, with
  only the flip channel re-drawn per trial (common random numbers across
  epsilons — see
  :func:`repro.core.client.encode_reports_grouped_into`).  Marginal
  per-cell distributions are unchanged; cross-cell correlations are the
  price of hashing once, so the exact mode stays the default.

The engine is what the CLI's ``--workers`` flag and the figure functions
route through; :func:`sweep_table` is the ad-hoc entry point
(``python -m repro.experiments sweep ...``).

Fault tolerance (:mod:`repro.reliability`): ``retries=`` / ``fault_plan=``
thread a :class:`~repro.reliability.RetryPolicy` and a deterministic
:class:`~repro.reliability.FaultPlan` through both execution paths.
In-process, each unit runs under the policy.  In a pool, each worker
arms the shipped plan, passes the ``sweep.unit`` fault point (marked
*crashable*, so ``hard_crashes`` plans produce a genuine
``BrokenProcessPool``) and runs its unit once; the parent resubmits a
unit that raised a retryable error or died with its worker, restarting
a broken pool, and raises :class:`~repro.errors.SweepWorkerLostError`
naming the lost grid cells when the retry budget runs out.  Absorbable
schedules leave the output bit-identical to a fault-free run, because
every unit is a pure function of plan data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..api.registry import JoinEstimator, get_estimator
from ..data.base import JoinInstance
from ..data.registry import make_join_instance
from ..errors import ParameterError, SweepWorkerLostError
from ..reliability.faults import (
    FaultPlan,
    as_fault_plan,
    attempt_scope,
    fault_point,
    injected,
)
from ..reliability.retry import DEFAULT_RETRYABLE, RetryPolicy, as_retry_policy
from ..rng import RandomState, derive_seed, ensure_rng
from ..validation import require_positive_int
from .harness import TrialRecord, run_seeded_trials, run_trials
from .reporting import ResultTable

__all__ = [
    "SweepUnit",
    "SweepPlan",
    "plan_grid",
    "run_sweep",
    "iter_sweep",
    "run_seeded_trials_parallel",
    "sweep_table",
    "window_sweep_table",
]


@dataclass(frozen=True)
class SweepUnit:
    """One schedulable work unit of a sweep.

    Three shapes, distinguished by which seed fields are set:

    * **exact grid point** — ``seed`` set: run ``trials`` trials of one
      (dataset, method, epsilon) point, deriving trial seeds from
      ``seed`` exactly as :func:`repro.experiments.harness.run_trials`
      does (the legacy-compatible default);
    * **explicit seeds** — ``trial_seeds`` set, ``group_seed`` unset: one
      trial per listed seed (used to split one grid point's trials
      across workers without changing their seeds);
    * **trial group** — ``group_seed`` set: a whole (epsilon × trial)
      block sharing one hash/sample pass (grouped mode).
    """

    index: int
    dataset: str
    method: str
    epsilons: Tuple[float, ...]
    trials: int
    seed: Optional[int] = None
    group_seed: Optional[int] = None
    trial_seeds: Tuple[int, ...] = ()
    #: False forces one full estimate per trial (timing-fidelity mode).
    vectorize: bool = True
    #: > 0 runs every trial as that many shard aggregators + a merge tree
    #: (:mod:`repro.distributed`); 0 keeps the whole-trial execution.
    shards: int = 0


@dataclass
class SweepPlan:
    """A fully expanded sweep: instances, estimators and ordered units."""

    instances: Dict[str, JoinInstance]
    estimators: Dict[str, JoinEstimator]
    units: List[SweepUnit] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.units)


def _resolve_methods(
    methods: Union[Dict[str, JoinEstimator], Iterable[Union[str, JoinEstimator]]],
    **options,
) -> Dict[str, JoinEstimator]:
    """Normalise a method spec into an ordered ``{display name: estimator}``."""
    if isinstance(methods, dict):
        return dict(methods)
    resolved: Dict[str, JoinEstimator] = {}
    for entry in methods:
        if isinstance(entry, str):
            try:
                estimator = get_estimator(entry, **options)
            except TypeError as exc:
                # Methods without sketch shape (k-RR, FLH, ...) reject the
                # k/m options the sketch methods take; retry bare — but
                # only for that specific rejection, so a genuine factory
                # bug (or a misspelled option on a method that *does*
                # accept options) still surfaces instead of silently
                # running a default configuration.
                if "unexpected keyword argument" not in str(exc):
                    raise
                estimator = get_estimator(entry)
        else:
            estimator = entry
        resolved[estimator.name] = estimator
    return resolved


def plan_grid(
    datasets: Sequence[str],
    methods: Union[Dict[str, JoinEstimator], Iterable[Union[str, JoinEstimator]]],
    epsilons: Sequence[float],
    trials: int,
    *,
    scale: float = 0.002,
    size: Optional[int] = None,
    seed: RandomState = None,
    trial_axis: str = "exact",
    shards: Optional[int] = None,
    instances: Optional[Dict[str, JoinInstance]] = None,
) -> SweepPlan:
    """Expand a (dataset × method × epsilon × trial) grid into a plan.

    Seeds derive from ``seed`` in the exact order the legacy serial
    figures used — per dataset one instance seed, then per (method,
    epsilon) one unit seed — so executing the plan with ``workers=1``
    reproduces the historical output bit for bit, and any other worker
    count reproduces ``workers=1``.  ``instances`` short-circuits dataset
    generation (the instance seeds are still drawn, keeping unit seeds
    stable).

    ``trial_axis="grouped"`` emits one unit per (dataset, method)
    covering the whole epsilon axis; its seeds (one group seed plus one
    seed per trial) come from the same master stream, so grouped plans
    are equally deterministic — but they are a *different* experiment
    layout, not a bit-compatible accelerator of the exact mode.

    ``shards=K`` (exact mode only) runs every trial as ``K`` shard
    aggregators reduced by a merge tree (:mod:`repro.distributed`), all
    inside the unit's own worker — still bit-identical for every worker
    count, because shard randomness is fixed by the plan.  ``shards=1``
    is the identity plan, bit-identical to an unsharded run.
    """
    if trial_axis not in ("exact", "grouped"):
        raise ParameterError(
            f"trial_axis must be 'exact' or 'grouped', got {trial_axis!r}"
        )
    if shards is not None:
        shards = require_positive_int("shards", shards)
        if trial_axis != "exact":
            raise ParameterError(
                "shards applies to the exact trial axis only (grouped units "
                "share one hash/sample pass and cannot split into partials)"
            )
    trials = require_positive_int("trials", trials)
    methods = _resolve_methods(methods)
    if not methods:
        raise ParameterError("need at least one method")
    epsilons = [float(e) for e in epsilons]
    if not epsilons:
        raise ParameterError("need at least one epsilon")
    rng = ensure_rng(seed)
    plan = SweepPlan(instances={}, estimators=methods)
    for dataset in datasets:
        instance_seed = derive_seed(rng)
        if instances is not None and dataset in instances:
            plan.instances[dataset] = instances[dataset]
        else:
            plan.instances[dataset] = make_join_instance(
                dataset, scale=scale, size=size, seed=instance_seed
            )
        for name in methods:
            if trial_axis == "grouped":
                group_seed = derive_seed(rng)
                trial_seeds = tuple(derive_seed(rng) for _ in range(trials))
                plan.units.append(
                    SweepUnit(
                        index=len(plan.units),
                        dataset=dataset,
                        method=name,
                        epsilons=tuple(epsilons),
                        trials=trials,
                        group_seed=group_seed,
                        trial_seeds=trial_seeds,
                    )
                )
            else:
                for epsilon in epsilons:
                    plan.units.append(
                        SweepUnit(
                            index=len(plan.units),
                            dataset=dataset,
                            method=name,
                            epsilons=(epsilon,),
                            trials=trials,
                            seed=derive_seed(rng),
                            shards=shards or 0,
                        )
                    )
    return plan


# ----------------------------------------------------------------------
# Unit execution (same code in-process and in workers)
# ----------------------------------------------------------------------
def _records_from_results(
    method_name: str, instance: JoinInstance, epsilon: float, results
) -> List[TrialRecord]:
    truth = float(instance.true_join_size)
    return [
        TrialRecord(
            method=method_name,
            dataset=instance.name,
            epsilon=epsilon,
            truth=truth,
            estimate=r.estimate,
            offline_seconds=r.offline_seconds,
            online_seconds=r.online_seconds,
            uplink_bits=r.uplink_bits,
            sketch_bytes=r.sketch_bytes,
        )
        for r in results
    ]


def _unit_trial_seeds(unit: SweepUnit) -> List[int]:
    """The unit's per-trial seeds, derived exactly as ``run_trials`` does."""
    if unit.trial_seeds:
        return list(unit.trial_seeds)
    rng = ensure_rng(unit.seed)
    return [derive_seed(rng) for _ in range(unit.trials)]


def _execute_unit_sharded(
    unit: SweepUnit, estimator: JoinEstimator, instance: JoinInstance
) -> List[TrialRecord]:
    """Sharded execution: per trial, K partials + a merge tree.

    Each trial is :func:`repro.distributed.estimate_sharded` with
    ``merge="tree"`` under that trial's seed.
    """
    from ..distributed import estimate_sharded

    if len(unit.epsilons) != 1 or unit.group_seed is not None:
        # plan_grid never builds these; a hand-built unit must fail loud
        # rather than silently evaluating only the first epsilon.
        raise ParameterError(
            "sharded sweep units are exact-mode single-epsilon units; "
            f"got epsilons={unit.epsilons} group_seed={unit.group_seed}"
        )
    epsilon = unit.epsilons[0]
    results = [
        estimate_sharded(
            estimator,
            instance,
            epsilon,
            num_shards=unit.shards,
            seed=trial_seed,
            merge="tree",
        )
        for trial_seed in _unit_trial_seeds(unit)
    ]
    return _records_from_results(estimator.name, instance, epsilon, results)


def execute_unit(
    unit: SweepUnit, estimator: JoinEstimator, instance: JoinInstance
) -> List[TrialRecord]:
    """Run one unit; epsilon-major record order for multi-epsilon units."""
    if unit.shards:
        return _execute_unit_sharded(unit, estimator, instance)
    if unit.group_seed is not None:
        group = getattr(estimator, "estimate_trial_group", None)
        if group is not None:
            blocks = group(
                instance,
                list(unit.epsilons),
                list(unit.trial_seeds),
                group_seed=unit.group_seed,
            )
            records: List[TrialRecord] = []
            for epsilon, results in zip(unit.epsilons, blocks):
                records.extend(
                    _records_from_results(estimator.name, instance, epsilon, results)
                )
            return records
        # No grouped fast path: evaluate each epsilon with the same trial
        # seeds (common random numbers at seed level) — still one
        # deterministic unit, still worker-count invariant.
        records = []
        for epsilon in unit.epsilons:
            records.extend(
                run_seeded_trials(
                    estimator, instance, epsilon, unit.trial_seeds,
                    vectorize=unit.vectorize,
                )
            )
        return records
    if unit.seed is not None:
        return run_trials(
            estimator, instance, unit.epsilons[0], unit.trials, unit.seed,
            vectorize=unit.vectorize,
        )
    return run_seeded_trials(
        estimator, instance, unit.epsilons[0], unit.trial_seeds,
        vectorize=unit.vectorize,
    )


# ----------------------------------------------------------------------
# Shared-memory dataset transport
# ----------------------------------------------------------------------
def _share_array(arr: np.ndarray):
    """Copy ``arr`` into a fresh shared-memory block; returns (ref, handle).

    Empty arrays travel inline (zero-size segments are not allowed)."""
    from multiprocessing import shared_memory

    arr = np.ascontiguousarray(arr)
    if arr.nbytes == 0:
        return {"inline": arr}, None
    shm = shared_memory.SharedMemory(create=True, size=arr.nbytes)
    view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf)
    view[:] = arr
    return {"shm": shm.name, "shape": arr.shape, "dtype": str(arr.dtype)}, shm


def _attach_array(ref):
    """Rebuild an array from a :func:`_share_array` reference (read-only).

    Returns ``(array, segment_or_None)``; the caller owns the segment's
    lifetime (the array views its buffer)."""
    if "inline" in ref:
        return ref["inline"], None
    from multiprocessing import shared_memory

    try:
        shm = shared_memory.SharedMemory(name=ref["shm"], track=False)
    except TypeError:
        # Python < 3.13 has no track flag.  Under the fork start method
        # the resource tracker is shared with the parent, so the attach
        # re-registers an already-tracked name (a no-op) and the parent's
        # unlink de-registers it exactly once — no manual bookkeeping.
        shm = shared_memory.SharedMemory(name=ref["shm"])
    arr = np.ndarray(
        tuple(ref["shape"]), dtype=np.dtype(ref["dtype"]), buffer=shm.buf
    )
    arr.flags.writeable = False
    return arr, shm


def _instance_ref(instance: JoinInstance):
    """Serialisable descriptor of one dataset (arrays via shared memory)."""
    ref_a, shm_a = _share_array(instance.values_a)
    ref_b, shm_b = _share_array(instance.values_b)
    ref = {
        "name": instance.name,
        "domain_size": instance.domain_size,
        "values_a": ref_a,
        "values_b": ref_b,
    }
    return ref, [h for h in (shm_a, shm_b) if h is not None]


#: Per-worker-process cache: shared-memory instances are attached (and
#: their frequency vectors / ground truth computed) once per dataset per
#: worker, not once per unit.  Bounded — evicting an entry closes its
#: segments, so a long session sweeping many datasets cannot pin
#: unbounded shared memory in every worker.
_WORKER_INSTANCES: Dict[Tuple, Tuple[JoinInstance, List]] = {}
_WORKER_CACHE_MAX = 8


def _instance_from_ref(ref) -> JoinInstance:
    key = (
        ref["name"],
        ref["values_a"].get("shm"),
        ref["values_b"].get("shm"),
        ref["domain_size"],
    )
    cached = _WORKER_INSTANCES.get(key)
    if cached is not None and key[1] is not None and key[2] is not None:
        return cached[0]
    arr_a, seg_a = _attach_array(ref["values_a"])
    arr_b, seg_b = _attach_array(ref["values_b"])
    instance = JoinInstance(
        name=ref["name"],
        values_a=np.asarray(arr_a),
        values_b=np.asarray(arr_b),
        domain_size=ref["domain_size"],
    )
    _WORKER_INSTANCES[key] = (instance, [s for s in (seg_a, seg_b) if s is not None])
    while len(_WORKER_INSTANCES) > _WORKER_CACHE_MAX:
        oldest = next(iter(_WORKER_INSTANCES))
        _, segments = _WORKER_INSTANCES.pop(oldest)
        for segment in segments:
            try:
                segment.close()
            except Exception:  # pragma: no cover - cleanup best effort
                pass
    return instance


#: The backend name this worker process last selected (avoids re-running
#: the registry resolution on every unit).
_WORKER_BACKEND: Optional[str] = None


def _ensure_worker_backend(name: Optional[str]) -> None:
    """Re-resolve the compute backend inside a pool worker.

    Under ``fork`` the parent's resolved backend object is inherited, but
    under ``spawn`` the worker re-imports :mod:`repro.backend` and would
    silently auto-detect — dropping an explicit parent-side
    :func:`repro.backend.set_backend` choice.  The parent therefore ships
    the *name* of its active backend with every unit and the worker
    re-resolves it here, once.  A backend that exists in the parent but
    not in the worker (exotic heterogeneous deployments) degrades to the
    worker's default with a warning instead of poisoning the sweep.
    """
    global _WORKER_BACKEND
    from ..backend import (
        BackendUnavailableError,
        _clear_context_override,
        set_backend,
    )

    # A use_backend scope active in the parent when the pool forked is
    # inherited through the contextvar and would shadow set_backend here
    # for every unit this worker ever runs — drop it first.
    _clear_context_override()
    if name is None or name == _WORKER_BACKEND:
        return
    try:
        set_backend(name)
    except BackendUnavailableError as exc:  # pragma: no cover - heterogeneous
        import warnings

        warnings.warn(
            f"sweep worker could not select backend {name!r} ({exc}); "
            f"continuing on the worker's default backend",
            RuntimeWarning,
        )
    _WORKER_BACKEND = name


#: The fault-plan payload this worker last armed.  Payload-equality cache
#: (mirroring ``_WORKER_BACKEND``): re-arming an unchanged plan on every
#: task would reset its hit counters mid-sweep.
_WORKER_FAULTS = None


def _ensure_worker_faults(payload) -> None:
    """Arm (or disarm) the parent's fault plan inside a pool worker.

    Fault plans are process-wide state, so like the backend choice they
    must be re-established in every worker: the parent ships
    ``plan.to_dict()`` with each task and the worker arms it once.
    """
    global _WORKER_FAULTS
    if payload == _WORKER_FAULTS:
        return
    from ..reliability.faults import arm, disarm

    if payload is None:
        disarm()
    else:
        arm(FaultPlan.from_dict(payload))
    _WORKER_FAULTS = payload


def _execute_remote(
    unit: SweepUnit,
    estimator: JoinEstimator,
    ref,
    backend=None,
    faults=None,
    attempt: int = 0,
):
    """Worker entry point: re-pin the backend, attach the dataset, run.

    The unit runs once.  ``attempt`` is the parent's resubmission count:
    the ``sweep.unit`` fault point and every inner point (``shard.collect``,
    ``session.ingest``) see it instead of per-worker hit counters, so a
    spec with ``times=t`` stops firing once the parent has resubmitted
    the unit ``t`` times, even on a fresh worker after a process death.
    """
    _ensure_worker_backend(backend)
    _ensure_worker_faults(faults)
    fault_point(
        "sweep.unit",
        unit=unit.index,
        dataset=unit.dataset,
        method=unit.method,
        attempt=int(attempt),
        crashable=True,
    )
    instance = _instance_from_ref(ref)
    with attempt_scope(int(attempt)):
        return execute_unit(unit, estimator, instance)


#: The parent-side process pool, created lazily and reused across sweeps
#: (a figure like fig9 calls ``run_trials(workers=N)`` once per grid
#: point; paying fork startup per call would swamp small units).
_EXECUTOR = None
_EXECUTOR_WORKERS = 0


def _get_executor(workers: int):
    global _EXECUTOR, _EXECUTOR_WORKERS
    from concurrent.futures import ProcessPoolExecutor

    if _EXECUTOR is None or _EXECUTOR_WORKERS < workers:
        _shutdown_executor()
        _EXECUTOR = ProcessPoolExecutor(max_workers=workers)
        _EXECUTOR_WORKERS = workers
        import atexit

        atexit.register(_shutdown_executor)
    return _EXECUTOR


def _shutdown_executor() -> None:
    global _EXECUTOR, _EXECUTOR_WORKERS
    if _EXECUTOR is not None:
        _EXECUTOR.shutdown(wait=False, cancel_futures=True)
        _EXECUTOR = None
        _EXECUTOR_WORKERS = 0


# ----------------------------------------------------------------------
# Drivers
# ----------------------------------------------------------------------
def _execute_unit_guarded(
    plan: SweepPlan, unit: SweepUnit, policy: Optional[RetryPolicy]
) -> List[TrialRecord]:
    """In-process unit execution behind the ``sweep.unit`` fault point."""
    estimator = plan.estimators[unit.method]
    instance = plan.instances[unit.dataset]

    def attempt() -> List[TrialRecord]:
        fault_point(
            "sweep.unit", unit=unit.index, dataset=unit.dataset, method=unit.method
        )
        return execute_unit(unit, estimator, instance)

    if policy is None:
        return attempt()
    return policy.call(
        attempt, operation=f"sweep unit {unit.index} ({unit.dataset}/{unit.method})"
    )


def _cell(unit: SweepUnit) -> str:
    """The grid-cell label a lost unit is reported under."""
    epsilons = ",".join(f"{epsilon:g}" for epsilon in unit.epsilons)
    return f"{unit.dataset}/{unit.method}/eps={epsilons}"


def iter_sweep(
    plan: SweepPlan,
    *,
    workers: int = 1,
    retries: Union[None, int, RetryPolicy] = None,
    fault_plan=None,
) -> Iterator[Tuple[SweepUnit, List[TrialRecord]]]:
    """Execute a plan, yielding ``(unit, records)`` in plan order.

    ``workers=1``, or a plan of at most one unit, runs in-process.
    Otherwise every unit is one task on a process pool: each dataset's
    value arrays are written once to shared memory and attached by the
    workers, and completed units are buffered so the stream still
    emerges in plan order.  A unit planned with ``shards=K`` runs its K
    shards and its merge tree inside its worker.  Output is
    bit-identical across worker counts — every unit's randomness is
    fixed by the plan, not by scheduling.

    ``retries`` (an attempt count or :class:`~repro.reliability.RetryPolicy`)
    bounds how often a failed unit is re-run; ``fault_plan`` (a
    :class:`~repro.reliability.FaultPlan` or a JSON file path) arms a
    deterministic fault schedule for the whole sweep, in-process and in
    every worker.  In-process, the policy retries each unit and raises
    :class:`~repro.errors.RetryExhaustedError` when spent.  In a pool,
    the parent resubmits a unit that raised a retryable error or lost
    its worker (``BrokenProcessPool`` restarts the pool and resubmits
    every in-flight unit); units still failing when the budget runs out
    raise :class:`~repro.errors.SweepWorkerLostError` naming the lost
    grid cells.  Because units are pure functions of plan data, any
    absorbed failure leaves the yielded records bit-identical.
    """
    workers = require_positive_int("workers", workers)
    policy = as_retry_policy(retries)
    faults = as_fault_plan(fault_plan)
    if workers == 1 or len(plan.units) <= 1:
        with injected(faults):
            for unit in plan.units:
                yield unit, _execute_unit_guarded(plan, unit, policy)
        return
    from concurrent.futures import FIRST_COMPLETED, wait
    from concurrent.futures.process import BrokenProcessPool

    from ..backend import get_backend

    refs = {}
    handles = []
    try:
        for name, instance in plan.instances.items():
            refs[name], shms = _instance_ref(instance)
            handles.extend(shms)
        pool_size = min(workers, len(plan.units))
        pool = _get_executor(pool_size)
        # Ship the parent's active backend name so workers re-resolve it
        # after fork/spawn (see _ensure_worker_backend).
        backend_name = get_backend().name
        fault_payload = faults.to_dict() if faults is not None else None
        max_attempts = policy.max_attempts if policy is not None else 1
        attempts = [0] * len(plan.units)
        future_units: Dict = {}
        results: Dict[int, List[TrialRecord]] = {}

        def _submit(unit: SweepUnit):
            nonlocal pool
            task = (
                _execute_remote,
                unit,
                plan.estimators[unit.method],
                refs[unit.dataset],
                backend_name,
                fault_payload,
                attempts[unit.index],
            )
            try:
                future = pool.submit(*task)
            except BrokenProcessPool:
                # A fast worker death can break the pool while submits
                # are still in flight, making submit itself raise —
                # restart and re-place this unit on the fresh pool.  No
                # attempt is burned: the unit never ran, and the unit
                # that broke the pool is charged when its own future
                # surfaces the breakage.
                _shutdown_executor()
                pool = _get_executor(pool_size)
                future = pool.submit(*task)
            future_units[future] = unit
            return future

        try:
            pending = {_submit(unit) for unit in plan.units}
            next_index = 0
            while True:
                while next_index in results:
                    yield plan.units[next_index], results.pop(next_index)
                    next_index += 1
                if next_index >= len(plan.units):
                    break
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                failed: List[SweepUnit] = []
                broken = False
                last_error: Optional[BaseException] = None
                for future in done:
                    unit = future_units.pop(future)
                    try:
                        results[unit.index] = future.result()
                    except BrokenProcessPool as error:
                        broken = True
                        failed.append(unit)
                        last_error = error
                    except DEFAULT_RETRYABLE as error:
                        failed.append(unit)
                        last_error = error
                if broken:
                    # A worker death breaks the whole pool: every other
                    # in-flight future fails with it.  Reclaim their
                    # units, restart the pool, resubmit everything.
                    failed.extend(future_units.pop(future) for future in pending)
                    pending = set()
                    _shutdown_executor()
                    pool = _get_executor(min(workers, len(failed)))
                exhausted = sorted(
                    unit.index
                    for unit in failed
                    if attempts[unit.index] + 1 >= max_attempts
                )
                if exhausted:
                    raise SweepWorkerLostError(
                        f"{len(exhausted)} sweep unit(s) failed past the "
                        f"retry budget (attempts={max_attempts}; pass "
                        f"retries= to raise it)",
                        cells=[_cell(plan.units[index]) for index in exhausted],
                    ) from last_error
                for unit in failed:
                    attempts[unit.index] += 1
                    pending.add(_submit(unit))
        except Exception:
            # A broken pool (killed worker, pickling failure) must not
            # poison later sweeps — drop the cached executor so the next
            # call starts a fresh one.
            _shutdown_executor()
            raise
    finally:
        for shm in handles:
            try:
                shm.close()
                shm.unlink()
            except Exception:  # pragma: no cover - cleanup best effort
                pass


def run_sweep(
    plan: SweepPlan,
    *,
    workers: int = 1,
    retries: Union[None, int, RetryPolicy] = None,
    fault_plan=None,
) -> List[List[TrialRecord]]:
    """Execute a plan; one record list per unit, in plan order."""
    return [
        records
        for _, records in iter_sweep(
            plan, workers=workers, retries=retries, fault_plan=fault_plan
        )
    ]


def run_seeded_trials_parallel(
    method: JoinEstimator,
    instance: JoinInstance,
    epsilon: float,
    trial_seeds: Sequence[int],
    *,
    workers: int,
    vectorize: bool = True,
) -> List[TrialRecord]:
    """Split one grid point's trials into contiguous seed blocks.

    The worker-side path of ``run_trials(..., workers=N)``: each block is
    one explicit-seeds unit, so the concatenated records carry exactly
    the seeds (hence estimates) the serial loop would produce.
    """
    trial_seeds = list(trial_seeds)
    workers = min(workers, len(trial_seeds)) or 1
    bounds = np.linspace(0, len(trial_seeds), workers + 1).astype(int)
    plan = SweepPlan(instances={"point": instance}, estimators={method.name: method})
    for i in range(workers):
        block = tuple(trial_seeds[bounds[i] : bounds[i + 1]])
        if not block:
            continue
        plan.units.append(
            SweepUnit(
                index=len(plan.units),
                dataset="point",
                method=method.name,
                epsilons=(float(epsilon),),
                trials=len(block),
                trial_seeds=block,
                vectorize=vectorize,
            )
        )
    records: List[TrialRecord] = []
    for block_records in run_sweep(plan, workers=workers):
        records.extend(block_records)
    return records


def sweep_table(
    datasets: Sequence[str],
    methods: Union[Dict[str, JoinEstimator], Iterable[Union[str, JoinEstimator]]],
    epsilons: Sequence[float],
    trials: int,
    *,
    scale: float = 0.002,
    size: Optional[int] = None,
    seed: RandomState = None,
    workers: int = 1,
    trial_axis: str = "exact",
    shards: Optional[int] = None,
    retries: Union[None, int, RetryPolicy] = None,
    fault_plan=None,
    title: str = "Sweep: (dataset x method x epsilon) accuracy grid",
    **method_options,
) -> ResultTable:
    """Plan, execute and summarise an ad-hoc grid (the CLI ``sweep`` cmd)."""
    from .harness import summarize

    methods = _resolve_methods(methods, **method_options)
    plan = plan_grid(
        datasets,
        methods,
        epsilons,
        trials,
        scale=scale,
        size=size,
        seed=seed,
        trial_axis=trial_axis,
        shards=shards,
    )
    table = ResultTable(
        title,
        ["dataset", "method", "epsilon", "truth", "mean_estimate", "ae", "re"],
    )
    for unit, records in iter_sweep(
        plan, workers=workers, retries=retries, fault_plan=fault_plan
    ):
        for epsilon in unit.epsilons:
            stats = summarize([r for r in records if r.epsilon == epsilon])
            table.add_row(
                unit.dataset,
                unit.method,
                float(epsilon),
                stats["truth"],
                stats["mean_estimate"],
                stats["ae"],
                stats["re"],
            )
    sharding = f", shards={shards}" if shards else ""
    table.add_note(
        f"trials={trials}, workers={workers}, trial_axis={trial_axis}{sharding}; "
        f"results are bit-identical for every worker count"
    )
    return table


def window_sweep_table(
    datasets: Sequence[str],
    windows: Sequence[int],
    *,
    epochs: int = 8,
    epsilon: float = 4.0,
    k: int = 18,
    m: int = 1024,
    trials: int = 3,
    scale: float = 0.002,
    size: Optional[int] = None,
    seed: RandomState = None,
    decay: Optional[Tuple[int, int]] = None,
    title: str = "Window sweep: (dataset x window) sliding-window accuracy",
) -> ResultTable:
    """A (dataset × window) grid over temporal sliding-window estimates.

    Each dataset's two streams are split into ``epochs`` contiguous
    epoch slices and ingested epoch by epoch into a
    :class:`~repro.temporal.TemporalSession`; every window ``W`` on the
    axis is then answered by tree-merging the newest ``W`` closed
    epochs.  The ground truth per window is the *exact* join size of the
    same slice concatenation, so the reported errors isolate sketch
    noise from windowing.  ``decay=(num, den)`` adds the exponentially
    decayed estimate of the full window as an extra column.

    Deterministic for a fixed master ``seed``: instance seeds and
    per-trial session seeds derive from it in plan order, exactly like
    :func:`sweep_table`.
    """
    from ..core.params import SketchParams
    from ..temporal import TemporalSession

    epochs = require_positive_int("epochs", epochs)
    trials = require_positive_int("trials", trials)
    windows = [int(w) for w in windows]
    if not windows:
        raise ParameterError("need at least one window")
    for window in windows:
        if not 1 <= window <= epochs:
            raise ParameterError(
                f"windows must lie in [1, {epochs}] (the epoch count), "
                f"got {window}"
            )
    params = SketchParams(int(k), int(m), float(epsilon))
    columns = ["dataset", "window", "truth", "mean_estimate", "ae", "re"]
    if decay is not None:
        columns.append("mean_decayed")
    table = ResultTable(title, columns)
    rng = ensure_rng(seed)
    for dataset in datasets:
        instance_seed = derive_seed(rng)
        trial_seeds = [derive_seed(rng) for _ in range(trials)]
        instance = make_join_instance(
            dataset, scale=scale, size=size, seed=instance_seed
        )
        slices_a = np.array_split(instance.values_a, epochs)
        slices_b = np.array_split(instance.values_b, epochs)
        estimates: Dict[int, List[float]] = {w: [] for w in windows}
        decayed: Dict[int, List[float]] = {w: [] for w in windows}
        for trial_seed in trial_seeds:
            session = TemporalSession(
                params, window_epochs=epochs, seed=trial_seed
            )
            for slice_a, slice_b in zip(slices_a, slices_b):
                session.collect("A", slice_a)
                session.collect("B", slice_b)
                session.roll()
            for window in windows:
                result = session.window_session(
                    window, include_open=False
                ).estimate("A", "B")
                estimates[window].append(float(result.estimate))
                if decay is not None:
                    decayed[window].append(
                        session.decayed_estimate(
                            "A",
                            "B",
                            decay=decay,
                            window=window,
                            include_open=False,
                        )
                    )
        for window in windows:
            values_a = np.concatenate(slices_a[epochs - window :])
            values_b = np.concatenate(slices_b[epochs - window :])
            counts_a = np.bincount(values_a, minlength=instance.domain_size)
            counts_b = np.bincount(values_b, minlength=instance.domain_size)
            truth = float(np.dot(counts_a, counts_b))
            mean_estimate = float(np.mean(estimates[window]))
            ae = abs(mean_estimate - truth)
            row = [
                dataset,
                window,
                truth,
                mean_estimate,
                ae,
                ae / truth if truth else float("inf"),
            ]
            if decay is not None:
                row.append(float(np.mean(decayed[window])))
            table.add_row(*row)
    note = f"epochs={epochs}, epsilon={epsilon:g}, trials={trials}"
    if decay is not None:
        note += f", decay={decay[0]}/{decay[1]}"
    table.add_note(
        f"{note}; window W sums the newest W epoch partials — "
        f"byte-identical to a session that ingested only those epochs"
    )
    return table
