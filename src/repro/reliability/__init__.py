"""Fault tolerance: deterministic fault injection, retry, degradation.

Three pieces, used together by the distributed and sweep tiers:

* :class:`FaultPlan` / :func:`fault_point` — seeded, serializable fault
  schedules fired at named points threaded through the pipeline
  (:mod:`repro.reliability.faults`).
* :class:`RetryPolicy` — bounded attempts with deterministic backoff
  jitter and a typed attempt ledger (:mod:`repro.reliability.retry`).
* Graceful degradation — ``merge_tree(..., degraded=True)`` and
  ``estimate_sharded(..., degraded=True)`` merge surviving shards and
  rescale by the planner's known client coverage, recording
  ``shards_lost`` / ``coverage`` in the result ledger
  (:mod:`repro.distributed`).

The headline contract, property-tested in the chaos suite: for any
fault schedule a retry budget can absorb, the final merged estimate is
byte-identical to the fault-free run.
"""

from ..errors import (
    CheckpointCorruptError,
    InjectedCrashError,
    InjectedFaultError,
    PartialIntegrityError,
    RetryExhaustedError,
    ShardLostError,
    SweepWorkerLostError,
)
from .faults import (
    FAULT_KINDS,
    FaultPlan,
    FaultSpec,
    active_plan,
    arm,
    as_fault_plan,
    attempt_scope,
    current_attempt,
    disarm,
    fault_point,
    injected,
)
from .retry import DEFAULT_RETRYABLE, AttemptRecord, RetryPolicy, as_retry_policy

__all__ = [
    # faults
    "FAULT_KINDS",
    "FaultSpec",
    "FaultPlan",
    "as_fault_plan",
    "fault_point",
    "arm",
    "disarm",
    "injected",
    "active_plan",
    "attempt_scope",
    "current_attempt",
    # retry
    "RetryPolicy",
    "as_retry_policy",
    "AttemptRecord",
    "DEFAULT_RETRYABLE",
    # typed errors (re-exported from repro.errors)
    "InjectedFaultError",
    "InjectedCrashError",
    "RetryExhaustedError",
    "ShardLostError",
    "SweepWorkerLostError",
    "CheckpointCorruptError",
    "PartialIntegrityError",
]
