"""Bounded retry with deterministic exponential backoff.

:class:`RetryPolicy` wraps an operation in a fixed attempt budget with
exponential backoff and *seeded* jitter: the jitter stream comes from
:func:`repro.rng.ensure_rng`, never from wall clock or a global RNG, so a
retried run sleeps the same schedule every time (RPR101 compliant) and
test runs can set ``base_delay=0`` to retry instantly.

Every failed attempt is recorded as an :class:`AttemptRecord`; when the
budget runs out the policy raises
:class:`~repro.errors.RetryExhaustedError` carrying the full ledger with
the final error chained as ``__cause__`` — the caller sees *every*
failure, not just the last.

Determinism under retry is a contract shared with the call site: an
operation wrapped by :meth:`RetryPolicy.call` must be idempotent, i.e.
re-running it after a partial failure must produce the same result.
Call sites that consume live RNG streams restore the generator state via
the ``reset`` callback before each re-attempt (the distributed
collectors snapshot ``bit_generator.state`` for exactly this).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence, Tuple, Type, Union

import numpy as np

from ..errors import (
    InjectedCrashError,
    InjectedFaultError,
    ParameterError,
    RetryExhaustedError,
)
from ..rng import RandomState, ensure_rng
from .faults import attempt_scope

__all__ = ["AttemptRecord", "RetryPolicy", "DEFAULT_RETRYABLE", "as_retry_policy"]

#: Errors a policy retries by default: injected faults/crashes (chaos
#: testing), plus the runtime errors a dying worker surfaces as.  Typed
#: configuration errors (ParameterError and friends) are never retried —
#: re-running a misconfigured operation cannot fix it.
DEFAULT_RETRYABLE: Tuple[Type[BaseException], ...] = (
    InjectedFaultError,
    InjectedCrashError,
    ConnectionError,
    TimeoutError,
    OSError,
)


@dataclass(frozen=True)
class AttemptRecord:
    """One failed attempt in a retry ledger."""

    attempt: int
    operation: str
    error_type: str
    message: str
    delay: float
    elapsed: float

    def to_dict(self) -> dict:
        return {
            "attempt": self.attempt,
            "operation": self.operation,
            "error_type": self.error_type,
            "message": self.message,
            "delay": self.delay,
            "elapsed": self.elapsed,
        }


class RetryPolicy:
    """Bounded attempts, exponential backoff, deterministic jitter.

    Parameters
    ----------
    max_attempts:
        Total attempt budget (1 = no retries).
    base_delay:
        Backoff before the second attempt, seconds.  Attempt ``i``
        (0-based) waits ``base_delay * backoff**(i-1)``, capped at
        ``max_delay``.  The default is 0 — deterministic tests and the
        in-process collectors gain nothing from sleeping.
    backoff:
        Multiplier between consecutive delays.
    jitter:
        Fraction of each delay randomised away: the actual sleep is
        ``delay * (1 - jitter * u)`` with ``u ~ U[0, 1)`` drawn from the
        policy's seeded stream.  0 disables jitter.
    max_delay:
        Upper bound on any single sleep, seconds.
    deadline:
        Optional per-attempt budget, seconds.  An attempt that *fails*
        after its deadline has passed is not retried (the work already
        consumed more than its share); a slow success is returned as
        usual — the policy cannot preempt the callable.
    retryable:
        Exception types worth retrying; anything else propagates
        immediately.
    seed:
        Seed for the jitter stream (only consulted when ``jitter > 0``
        and delays are nonzero).
    """

    def __init__(
        self,
        max_attempts: int = 3,
        *,
        base_delay: float = 0.0,
        backoff: float = 2.0,
        jitter: float = 0.5,
        max_delay: float = 30.0,
        deadline: Optional[float] = None,
        retryable: Sequence[Type[BaseException]] = DEFAULT_RETRYABLE,
        seed: RandomState = 0,
    ) -> None:
        if not isinstance(max_attempts, (int, np.integer)) or max_attempts < 1:
            raise ParameterError(
                f"max_attempts must be a positive int, got {max_attempts!r}"
            )
        if base_delay < 0 or max_delay < 0:
            raise ParameterError("delays must be >= 0")
        if backoff < 1.0:
            raise ParameterError(f"backoff must be >= 1, got {backoff!r}")
        if not 0.0 <= jitter <= 1.0:
            raise ParameterError(f"jitter must be in [0, 1], got {jitter!r}")
        if deadline is not None and deadline <= 0:
            raise ParameterError(f"deadline must be positive, got {deadline!r}")
        self.max_attempts = int(max_attempts)
        self.base_delay = float(base_delay)
        self.backoff = float(backoff)
        self.jitter = float(jitter)
        self.max_delay = float(max_delay)
        self.deadline = None if deadline is None else float(deadline)
        self.retryable = tuple(retryable)
        self.seed = seed
        self._rng: Optional[np.random.Generator] = None

    # ------------------------------------------------------------------
    def delay_for(self, attempt: int) -> float:
        """The pre-jitter backoff before ``attempt`` (0-based; 0 → 0.0)."""
        if attempt <= 0 or self.base_delay == 0.0:
            return 0.0
        return min(self.base_delay * self.backoff ** (attempt - 1), self.max_delay)

    def _jittered(self, delay: float) -> float:
        if delay == 0.0 or self.jitter == 0.0:
            return delay
        if self._rng is None:
            self._rng = ensure_rng(self.seed)
        return delay * (1.0 - self.jitter * float(self._rng.random()))

    def is_retryable(self, error: BaseException) -> bool:
        return isinstance(error, self.retryable)

    # ------------------------------------------------------------------
    def call(
        self,
        fn: Callable[[], Any],
        *,
        operation: str = "operation",
        reset: Optional[Callable[[], None]] = None,
        on_retry: Optional[Callable[[AttemptRecord], None]] = None,
    ) -> Any:
        """Run ``fn`` under the policy and return its result.

        ``reset`` (if given) runs before every attempt *after the
        first* — the hook call sites use to restore RNG snapshots and
        roll back partial state so the re-attempt replays the original
        byte-for-byte.  ``on_retry`` observes each failed attempt's
        :class:`AttemptRecord` (logging, metrics).

        Each attempt body runs inside
        :func:`~repro.reliability.attempt_scope`, so armed fault specs
        see the attempt number and an absorbable schedule stops firing
        while budget remains.
        """
        ledger = []
        for attempt in range(self.max_attempts):
            if attempt > 0:
                time.sleep(self._jittered(self.delay_for(attempt)))
                if reset is not None:
                    reset()
            started = time.monotonic()
            try:
                with attempt_scope(attempt):
                    return fn()
            except BaseException as error:  # noqa: BLE001 - ledger + re-raise
                elapsed = time.monotonic() - started
                record = AttemptRecord(
                    attempt=attempt,
                    operation=operation,
                    error_type=type(error).__name__,
                    message=str(error),
                    delay=self.delay_for(attempt),
                    elapsed=elapsed,
                )
                ledger.append(record)
                if not self.is_retryable(error):
                    raise
                over_deadline = self.deadline is not None and elapsed > self.deadline
                if attempt + 1 >= self.max_attempts or over_deadline:
                    raise RetryExhaustedError(operation, ledger) from error
                if on_retry is not None:
                    on_retry(record)
        raise RetryExhaustedError(operation, ledger)  # pragma: no cover - unreachable

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "max_attempts": self.max_attempts,
            "base_delay": self.base_delay,
            "backoff": self.backoff,
            "jitter": self.jitter,
            "max_delay": self.max_delay,
            "deadline": self.deadline,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"RetryPolicy(max_attempts={self.max_attempts}, "
            f"base_delay={self.base_delay}, backoff={self.backoff})"
        )


def as_retry_policy(
    retries: Union[None, int, dict, RetryPolicy],
) -> Optional[RetryPolicy]:
    """Normalise a ``retries=`` argument into a policy (or ``None``).

    Accepts an attempt count, a policy, or the :meth:`RetryPolicy.to_dict`
    payload a pool worker receives.
    """
    if retries is None or isinstance(retries, RetryPolicy):
        return retries
    if isinstance(retries, dict):
        return RetryPolicy(**retries)
    return RetryPolicy(int(retries))
