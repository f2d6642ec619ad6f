"""Deterministic fault injection at named fault points.

Production pipelines fail in boring, reproducible ways — a worker dies,
an ingest batch raises, a checkpoint write tears, a payload arrives with
a flipped bit, a shard responds late.  This module makes every one of
those failures a *plan datum*: a :class:`FaultPlan` is a seeded,
serializable schedule of :class:`FaultSpec` entries, armed process-wide
with :func:`arm` / :func:`injected`, and consulted by lightweight
:func:`fault_point` hooks threaded through the distributed and sweep
tiers (``shard.collect``, ``checkpoint.flush``, ``merge.reduce``,
``sweep.unit``, ...).

Determinism contract:

* With no plan armed, :func:`fault_point` is one global load and a
  ``None`` comparison — cheap enough to live on ingest paths (the CI
  ``chaos`` job enforces < 2% overhead on the n=1M fused ingest).
* A spec fires as a pure function of its *context*, never of wall clock
  or scheduling.  Specs with retry-aware semantics fire while
  ``attempt < times`` (the attempt number is threaded by
  :class:`~repro.reliability.RetryPolicy` through :func:`attempt_scope`),
  so "fail the first two attempts of shard 3's collect" replays
  identically on any machine, any worker count.  Specs at points with no
  attempt concept fall back to a per-spec hit counter (deterministic in
  serial flows; reset by :func:`arm`).
* Random schedules come from :meth:`FaultPlan.random`, which draws only
  from a seeded :mod:`repro.rng` stream — the same plan payload replays
  the same faults, which is what makes ``--fault-plan plan.json`` a
  reproduction recipe for a failure.

Fault kinds:

``error``
    Raise :class:`~repro.errors.InjectedFaultError` at the point.
``crash``
    Raise :class:`~repro.errors.InjectedCrashError` — or, when the plan
    sets ``hard_crashes=True`` *and* the point is marked crashable
    (worker-task entry points), kill the process with ``os._exit`` to
    produce a genuine ``BrokenProcessPool`` upstream.
``latency``
    Sleep ``spec.delay`` seconds, then continue.
``torn-write`` / ``corrupt``
    Do not raise; the spec is *returned* to the call site, which applies
    the damage it models (truncate the bytes being written, flip a byte
    in the payload).  Only sites that can act on corruption look at the
    return value.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, Mapping, Optional, Sequence, Tuple, Union

from ..errors import InjectedCrashError, InjectedFaultError, ParameterError
from ..rng import RandomState, ensure_rng

__all__ = [
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
]

#: Everything a spec can inject.
FAULT_KINDS = ("error", "crash", "latency", "torn-write", "corrupt")

#: Kinds that do not raise: the call site applies the damage itself.
_RETURNED_KINDS = frozenset({"torn-write", "corrupt"})

#: Payload marker + version of the serialized plan format.
FAULT_PLAN_FORMAT = "repro/fault-plan"
FAULT_PLAN_VERSION = 1


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault: where it fires, what it does, how often.

    Parameters
    ----------
    point:
        Fault-point name the spec listens at (e.g. ``"shard.collect"``).
    kind:
        One of :data:`FAULT_KINDS`.
    times:
        Fire on attempts ``0 .. times-1`` of the matching operation (or,
        at points without an attempt context, on the first ``times``
        hits).  A schedule is *absorbable* by a retry policy exactly when
        every spec's ``times`` is below the policy's attempt budget.
    match:
        Context fields that must equal the call site's (``shard=3``
        fires only at shard 3).  Empty matches everywhere.
    delay:
        Sleep duration for ``latency`` specs, seconds.
    """

    point: str
    kind: str = "error"
    times: int = 1
    match: Mapping[str, Any] = field(default_factory=dict)
    delay: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ParameterError(
                f"fault kind must be one of {FAULT_KINDS}, got {self.kind!r}"
            )
        if not isinstance(self.times, int) or self.times < 1:
            raise ParameterError(f"times must be a positive int, got {self.times!r}")
        if self.delay < 0:
            raise ParameterError(f"delay must be >= 0, got {self.delay!r}")
        object.__setattr__(self, "match", dict(self.match))

    def matches(self, context: Mapping[str, Any]) -> bool:
        """Whether the call site's context satisfies the spec's match."""
        return all(context.get(key) == value for key, value in self.match.items())

    def to_dict(self) -> dict:
        return {
            "point": self.point,
            "kind": self.kind,
            "times": self.times,
            "match": dict(self.match),
            "delay": self.delay,
        }

    #: The complete field set of a serialized spec — anything else in a
    #: hand-edited plan is a typo, not a forward-compatible extension.
    _FIELDS = frozenset({"point", "kind", "times", "match", "delay"})

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "FaultSpec":
        """Rebuild a spec, rejecting malformed payloads with typed errors.

        Hand-edited plan JSON is a supported workflow (``--fault-plan``),
        so every field is validated explicitly: unknown fields, unknown
        kinds, non-mapping match filters and non-numeric times/delay all
        raise :class:`~repro.errors.ParameterError` instead of leaking
        whatever ``int()``/``dict()`` happens to throw.
        """
        if not isinstance(payload, Mapping):
            raise ParameterError(
                f"fault spec must be a mapping, got {type(payload).__name__}"
            )
        unknown = sorted(set(payload) - cls._FIELDS)
        if unknown:
            raise ParameterError(
                f"fault spec has unknown field(s) {unknown}; expected a subset "
                f"of {sorted(cls._FIELDS)}"
            )
        point = payload.get("point")
        if not isinstance(point, str) or not point:
            raise ParameterError(
                f"fault spec 'point' must be a non-empty string, got {point!r}"
            )
        kind = payload.get("kind", "error")
        if not isinstance(kind, str):
            raise ParameterError(
                f"fault spec 'kind' must be one of {FAULT_KINDS}, got {kind!r}"
            )
        times = payload.get("times", 1)
        if isinstance(times, bool) or not isinstance(times, int):
            raise ParameterError(
                f"fault spec 'times' must be a positive int, got {times!r}"
            )
        match = payload.get("match", {})
        if not isinstance(match, Mapping):
            raise ParameterError(
                f"fault spec 'match' must be a mapping of context fields, got "
                f"{type(match).__name__} ({match!r})"
            )
        for key in match:
            if not isinstance(key, str):
                raise ParameterError(
                    f"fault spec 'match' keys must be strings (context field "
                    f"names), got {key!r}"
                )
        delay = payload.get("delay", 0.0)
        if isinstance(delay, bool) or not isinstance(delay, (int, float)):
            raise ParameterError(
                f"fault spec 'delay' must be a number of seconds, got {delay!r}"
            )
        return cls(
            point=point,
            kind=kind,  # unknown kinds rejected by __post_init__
            times=times,
            match=dict(match),
            delay=float(delay),
        )


class FaultPlan:
    """A seeded, serializable schedule of deterministic faults.

    Plans are plain data: :meth:`to_dict` / :meth:`from_dict` round-trip
    through JSON (``save`` / ``load`` for files), so the exact failure
    scenario that broke a run travels in a bug report and replays with
    ``--fault-plan``.  ``hard_crashes=True`` upgrades ``crash`` specs at
    crashable points (pool worker entry) from a raised
    :class:`~repro.errors.InjectedCrashError` to a real ``os._exit`` —
    the only way to manufacture a genuine ``BrokenProcessPool``.
    """

    def __init__(
        self,
        specs: Sequence[FaultSpec] = (),
        *,
        name: str = "fault-plan",
        seed: Optional[int] = None,
        hard_crashes: bool = False,
    ) -> None:
        self.specs: Tuple[FaultSpec, ...] = tuple(
            spec if isinstance(spec, FaultSpec) else FaultSpec.from_dict(spec)
            for spec in specs
        )
        self.name = str(name)
        self.seed = None if seed is None else int(seed)
        self.hard_crashes = bool(hard_crashes)
        self._hits = [0] * len(self.specs)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def random(
        cls,
        seed: RandomState,
        *,
        points: Sequence[str] = ("shard.collect",),
        num_faults: int = 1,
        num_shards: Optional[int] = None,
        max_times: int = 2,
        kinds: Sequence[str] = ("error", "crash"),
        name: str = "random-fault-plan",
    ) -> "FaultPlan":
        """A deterministic random schedule drawn from a seeded stream.

        The same ``seed`` (plus identical keyword arguments) always
        yields the same plan — the chaos property suite leans on this to
        generate schedules that replay bit-for-bit.  ``num_shards``
        attaches a ``shard=`` match to every spec so schedules target
        specific shards of a K-shard run.
        """
        rng = ensure_rng(seed)
        specs = []
        for _ in range(int(num_faults)):
            point = points[int(rng.integers(len(points)))]
            kind = kinds[int(rng.integers(len(kinds)))]
            times = int(rng.integers(1, max_times + 1))
            match = {}
            if num_shards is not None:
                match["shard"] = int(rng.integers(num_shards))
            specs.append(FaultSpec(point=point, kind=kind, times=times, match=match))
        plan_seed = None if not isinstance(seed, (int,)) else int(seed)
        return cls(specs, name=name, seed=plan_seed)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def absorbable_by(self, max_attempts: int) -> bool:
        """Whether every raising spec dies out within ``max_attempts``.

        True means a retry policy with that attempt budget absorbs the
        whole schedule: each fault fires on attempts ``< times`` and the
        policy always has a later attempt left to succeed on.
        """
        return all(
            spec.times < max_attempts
            for spec in self.specs
            if spec.kind in ("error", "crash")
        )

    def reset(self) -> None:
        """Zero the hit counters (called by :func:`arm`)."""
        self._hits = [0] * len(self.specs)

    # ------------------------------------------------------------------
    # Firing
    # ------------------------------------------------------------------
    def fire(self, point: str, context: Mapping[str, Any]) -> Optional[FaultSpec]:
        """Apply the plan at one fault point.

        Raises for ``error``/``crash`` specs, sleeps for ``latency``,
        and returns the first matching ``torn-write``/``corrupt`` spec
        for the call site to apply (``None`` when nothing matches).
        """
        returned: Optional[FaultSpec] = None
        for index, spec in enumerate(self.specs):
            if spec.point != point or not spec.matches(context):
                continue
            attempt = context.get("attempt")
            if attempt is not None:
                if int(attempt) >= spec.times:
                    continue
            else:
                if self._hits[index] >= spec.times:
                    continue
                self._hits[index] += 1
            if spec.kind == "latency":
                time.sleep(spec.delay)
            elif spec.kind == "error":
                raise InjectedFaultError(point, context)
            elif spec.kind == "crash":
                if self.hard_crashes and context.get("crashable"):
                    os._exit(17)  # a real worker death, not an exception
                raise InjectedCrashError(point, context)
            elif returned is None:
                returned = spec
        return returned

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "format": FAULT_PLAN_FORMAT,
            "version": FAULT_PLAN_VERSION,
            "name": self.name,
            "seed": self.seed,
            "hard_crashes": self.hard_crashes,
            "specs": [spec.to_dict() for spec in self.specs],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "FaultPlan":
        if not isinstance(payload, Mapping) or payload.get("format") != FAULT_PLAN_FORMAT:
            raise ParameterError(
                "not a fault-plan payload "
                f"(format={payload.get('format')!r})"
                if isinstance(payload, Mapping)
                else "not a fault-plan payload"
            )
        if payload.get("version") != FAULT_PLAN_VERSION:
            raise ParameterError(
                f"unsupported fault-plan version {payload.get('version')!r}"
            )
        specs = payload.get("specs", [])
        if isinstance(specs, (str, bytes)) or not isinstance(specs, Sequence):
            raise ParameterError(
                f"fault-plan 'specs' must be a list of spec mappings, got "
                f"{type(specs).__name__}"
            )
        seed = payload.get("seed")
        if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int)):
            raise ParameterError(
                f"fault-plan 'seed' must be an int or null, got {seed!r}"
            )
        return cls(
            [FaultSpec.from_dict(entry) for entry in specs],
            name=str(payload.get("name", "fault-plan")),
            seed=seed,
            hard_crashes=bool(payload.get("hard_crashes", False)),
        )

    def save(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=2))
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "FaultPlan":
        """Load a plan file, with every failure mode a typed error.

        Invalid JSON and malformed payloads (unknown kinds, bad match
        filters, stray fields — common outcomes of hand-editing a plan)
        raise :class:`~repro.errors.ParameterError` naming the file, so
        ``--fault-plan typo.json`` fails with a diagnosis instead of a
        traceback from whatever coercion broke first.
        """
        path = Path(path)
        try:
            payload = json.loads(path.read_text())
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            raise ParameterError(
                f"fault plan {path} is not valid JSON: {error}"
            ) from error
        try:
            return cls.from_dict(payload)
        except ParameterError as error:
            raise ParameterError(f"fault plan {path}: {error}") from error

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"FaultPlan(name={self.name!r}, specs={len(self.specs)}, "
            f"seed={self.seed}, hard_crashes={self.hard_crashes})"
        )


def as_fault_plan(fault_plan: Union[None, str, Path, FaultPlan]) -> Optional[FaultPlan]:
    """Normalise a ``fault_plan=`` argument: a plan or a saved plan's path."""
    if fault_plan is None or isinstance(fault_plan, FaultPlan):
        return fault_plan
    return FaultPlan.load(fault_plan)


# ----------------------------------------------------------------------
# Process-wide arming
# ----------------------------------------------------------------------
#: The armed plan (None = every fault point is a cheap no-op).
_ACTIVE: Optional[FaultPlan] = None

#: The retry attempt the current operation is on (set by attempt_scope).
_ATTEMPT: Optional[int] = None


def fault_point(name: str, **context: Any) -> Optional[FaultSpec]:
    """Declare a named fault point; a no-op unless a plan is armed.

    Call sites sprinkle this wherever a production failure could land.
    The return value is a ``torn-write``/``corrupt`` spec for sites that
    can apply payload damage; everyone else ignores it.
    """
    plan = _ACTIVE
    if plan is None:
        return None
    if "attempt" not in context and _ATTEMPT is not None:
        context["attempt"] = _ATTEMPT
    return plan.fire(name, context)


def arm(plan: FaultPlan) -> FaultPlan:
    """Arm ``plan`` process-wide (hit counters reset)."""
    global _ACTIVE
    if not isinstance(plan, FaultPlan):
        raise ParameterError(f"arm() takes a FaultPlan, got {type(plan).__name__}")
    plan.reset()
    _ACTIVE = plan
    return plan


def disarm() -> None:
    """Disarm whatever plan is active (fault points become no-ops)."""
    global _ACTIVE
    _ACTIVE = None


def active_plan() -> Optional[FaultPlan]:
    """The armed plan, or ``None``."""
    return _ACTIVE


@contextmanager
def injected(plan: Optional[FaultPlan]) -> Iterator[Optional[FaultPlan]]:
    """Arm ``plan`` for the scope of a with-block (``None`` = no-op)."""
    if plan is None:
        yield None
        return
    global _ACTIVE
    previous = _ACTIVE
    arm(plan)
    try:
        yield plan
    finally:
        _ACTIVE = previous


@contextmanager
def attempt_scope(attempt: int) -> Iterator[None]:
    """Mark the current retry attempt for fault points below this frame.

    :class:`~repro.reliability.RetryPolicy` wraps each attempt in this
    scope, so specs with attempt semantics (``times``) see which attempt
    they are firing on without every call site threading the number.
    """
    global _ATTEMPT
    previous = _ATTEMPT
    _ATTEMPT = int(attempt)
    try:
        yield
    finally:
        _ATTEMPT = previous


def current_attempt() -> Optional[int]:
    """The attempt number of the innermost :func:`attempt_scope`."""
    return _ATTEMPT
