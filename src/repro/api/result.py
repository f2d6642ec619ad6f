"""The one result type of the unified estimation API.

Every entry point — registry estimators, :class:`~repro.api.JoinSession`
queries, the one-call ``run_*`` drivers — returns the same frozen
:class:`EstimateResult`: the estimate plus the cost accounting the
experiments track (offline/online wall time, uplink bits, server-side
sketch memory, per-user-group privacy charges).  It replaces the
historical result dataclasses; ``PlusEstimate`` and ``MethodResult``
survive as aliases.

Method-specific artefacts (the frequent-item set of LDPJoinSketch+, the
per-phase bit counts, partial estimates, ...) travel in :attr:`extras` and
remain reachable as attributes, so ``result.frequent_items`` keeps working
for callers of the two-phase protocol.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, Mapping, Optional

from ..privacy.budget import BudgetLedger

__all__ = ["EstimateResult"]


@dataclass(frozen=True)
class EstimateResult:
    """An estimate with the full cost accounting of producing it."""

    estimate: float
    """The estimated quantity (join size, chain size, frequency, ...)."""

    offline_seconds: float = 0.0
    """Time to perturb all reports and construct the sketches."""

    online_seconds: float = 0.0
    """Time to answer the query from the constructed sketches."""

    uplink_bits: int = 0
    """Total client-to-server communication."""

    sketch_bytes: int = 0
    """Server-side memory held by the constructed sketches."""

    ledger: Optional[BudgetLedger] = None
    """Per-user-group privacy charges of the run (``None`` for
    non-private baselines)."""

    extras: Mapping[str, Any] = field(default_factory=dict)
    """Method-specific artefacts, also reachable as attributes."""

    def __post_init__(self) -> None:
        # Copy so later mutation of the caller's dict cannot alter a
        # published result.
        object.__setattr__(self, "extras", dict(self.extras))

    def __getattr__(self, name: str) -> Any:
        # Only called for attributes the dataclass does not define;
        # fall through to the extras mapping so protocol-specific fields
        # (e.g. ``frequent_items``) read like plain attributes.
        if name.startswith("__"):
            raise AttributeError(name)
        extras: Dict[str, Any] = object.__getattribute__(self, "extras")
        try:
            return extras[name]
        except KeyError:
            raise AttributeError(
                f"{type(self).__name__} has no field or extra {name!r}"
            ) from None

    def with_costs(
        self,
        *,
        offline_seconds: Optional[float] = None,
        online_seconds: Optional[float] = None,
        uplink_bits: Optional[int] = None,
        sketch_bytes: Optional[int] = None,
        ledger: Optional[BudgetLedger] = None,
    ) -> "EstimateResult":
        """A copy with some accounting fields replaced (estimate kept)."""
        changes: Dict[str, Any] = {}
        if offline_seconds is not None:
            changes["offline_seconds"] = offline_seconds
        if online_seconds is not None:
            changes["online_seconds"] = online_seconds
        if uplink_bits is not None:
            changes["uplink_bits"] = uplink_bits
        if sketch_bytes is not None:
            changes["sketch_bytes"] = sketch_bytes
        if ledger is not None:
            changes["ledger"] = ledger
        return replace(self, **changes)
