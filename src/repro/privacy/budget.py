"""Privacy-budget bookkeeping.

LDP budget accounting is simple but worth making explicit, because the
paper's two-phase protocol leans on both classic composition results:

* **sequential composition** — running mechanisms ``R1 (eps1)`` and
  ``R2 (eps2)`` on the *same* user costs ``eps1 + eps2``;
* **parallel composition** — running mechanisms on *disjoint* user groups
  costs only the maximum of their budgets.  LDPJoinSketch+ exploits this:
  phase-1 sample users, phase-2 group-1 users, and phase-2 group-2 users
  are disjoint, so each group enjoys the full ``eps`` (Section V-A).

:class:`BudgetLedger` records the charges a protocol makes per user group
and exposes the worst-case per-user spend, which tests assert equals the
configured ``eps`` for every protocol in :mod:`repro.core`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple

from ..errors import ParameterError
from ..validation import require_positive_float

__all__ = ["PrivacySpec", "BudgetLedger", "ContinualLedger"]


@dataclass(frozen=True)
class PrivacySpec:
    """Declared privacy target of a protocol run."""

    epsilon: float

    def __post_init__(self) -> None:
        require_positive_float("epsilon", self.epsilon)

    @property
    def e_epsilon(self) -> float:
        """``e^eps`` — the dominance ratio every output pair must satisfy."""
        import math

        return math.exp(self.epsilon)


@dataclass
class BudgetLedger:
    """Per-user-group ledger of privacy charges.

    Each charge records that every member of ``group`` was subjected to one
    ``eps``-LDP mechanism invocation.  Sequential composition applies within
    a group; parallel composition across groups.
    """

    charges: List[Tuple[str, float, str]] = field(default_factory=list)

    def charge(self, group: str, epsilon: float, mechanism: str) -> None:
        """Record one ``eps``-LDP invocation against every user in ``group``."""
        if not group:
            raise ParameterError("group must be a non-empty label")
        epsilon = require_positive_float("epsilon", epsilon)
        self.charges.append((group, epsilon, mechanism))

    def absorb(
        self,
        charges: Iterable[Sequence],
        *,
        label: str,
    ) -> None:
        """Fold another shard's charges in under *parallel* composition.

        Shard charges describe disjoint user cohorts, so a group name
        colliding with one already in this ledger must be *renamed*, not
        summed into the existing group — otherwise disjoint-cohort
        charges would compose sequentially and the worst-case spend
        would double.  The rename takes the first free name of
        ``group@{label}1``, ``group@{label}2``, ..., so absorbing shard
        after shard (each carrying the same bare stream groups, as
        happens when every shard was rebuilt from its partial in its own
        process) never lands two charges in one group.

        Every merge path — session-vs-session, session-vs-partial —
        must route through this helper so the rename rule cannot drift
        between them again.
        """
        if not label:
            raise ParameterError("label must be a non-empty string")
        existing = {group for group, _, _ in self.charges}
        # ``existing`` only grows during the call, so a group's first free
        # suffix never falls below the last one taken: resume the probe
        # there, and n charges sharing a few names cost O(n), not O(n^2).
        taken: Dict[str, int] = {}
        # Snapshot: ``charges`` may alias the very list we append to.
        for group, epsilon, mechanism in list(charges):
            name = candidate = str(group)
            suffix = taken.get(name, 0)
            while candidate in existing:
                suffix += 1
                candidate = f"{name}@{label}{suffix}"
            taken[name] = suffix
            existing.add(candidate)
            self.charges.append((candidate, float(epsilon), str(mechanism)))

    def spend_by_group(self) -> Dict[str, float]:
        """Total (sequentially composed) spend per user group."""
        spend: Dict[str, float] = {}
        for group, epsilon, _ in self.charges:
            spend[group] = spend.get(group, 0.0) + epsilon
        return spend

    def worst_case_epsilon(self) -> float:
        """Per-user privacy loss: max over groups (parallel composition)."""
        spend = self.spend_by_group()
        return max(spend.values()) if spend else 0.0

    def assert_within(self, spec: PrivacySpec) -> None:
        """Raise if any user group exceeded the declared budget."""
        worst = self.worst_case_epsilon()
        if worst > spec.epsilon + 1e-12:
            raise ParameterError(
                f"budget exceeded: worst-case spend {worst} > declared {spec.epsilon}"
            )


@dataclass
class ContinualLedger:
    """Continual-observation budget accounting across epochs and releases.

    Temporal estimation re-releases each epoch's data in every window
    that covers it, so the plain per-run :class:`BudgetLedger` no longer
    tells the whole story.  This ledger keys every charge by
    ``(subject, epoch, group)`` — subject is the accounting principal (a
    service tenant), epoch the time bucket, group the cohort within the
    epoch — and exposes the two readings that matter:

    * :meth:`worst_case_epsilon` — max over ``(epoch, group)`` spends:
      the per-user loss when cohorts are disjoint *across* epochs too
      (each user reports in one epoch only).
    * :meth:`lifetime_epsilon` — sum over epochs of the per-epoch worst
      case: the continual-observation bound for a user who returns
      every epoch (``W`` epochs of participation cost up to ``W * eps``).

    Window *queries* are post-processing of already-perturbed reports,
    so they never add spend — but they are recorded per epoch via
    :meth:`note_release` so operators can see re-release pressure.
    """

    #: (subject, epoch, group, epsilon, mechanism) charge rows.
    charges: List[Tuple[str, int, str, float, str]] = field(default_factory=list)
    #: (subject, epoch) -> number of window releases that covered it.
    releases: Dict[Tuple[str, int], int] = field(default_factory=dict)

    def charge(
        self,
        subject: str,
        epoch: int,
        group: str,
        epsilon: float,
        mechanism: str,
    ) -> None:
        """Record one ``eps``-LDP invocation against ``group`` in ``epoch``."""
        if not subject:
            raise ParameterError("subject must be a non-empty label")
        if not group:
            raise ParameterError("group must be a non-empty label")
        if int(epoch) < 0:
            raise ParameterError(f"epoch must be >= 0, got {epoch}")
        epsilon = require_positive_float("epsilon", epsilon)
        self.charges.append(
            (str(subject), int(epoch), str(group), epsilon, str(mechanism))
        )

    def note_release(self, subject: str, epochs: Iterable[int]) -> None:
        """Count one window release of ``subject`` covering ``epochs``."""
        for epoch in epochs:
            key = (str(subject), int(epoch))
            self.releases[key] = self.releases.get(key, 0) + 1

    def subjects(self) -> List[str]:
        """Every subject with at least one charge, in first-seen order."""
        seen: Dict[str, None] = {}
        for subject, _, _, _, _ in self.charges:
            seen.setdefault(subject, None)
        return list(seen)

    def epoch_spend(self, subject: str) -> Dict[int, float]:
        """Per-epoch worst-case spend of one subject.

        Within an epoch, groups are disjoint cohorts: sequential
        composition inside a group, parallel across groups — exactly the
        :class:`BudgetLedger` rule, applied epoch by epoch.
        """
        per_group: Dict[Tuple[int, str], float] = {}
        for row_subject, epoch, group, epsilon, _ in self.charges:
            if row_subject != subject:
                continue
            key = (epoch, group)
            per_group[key] = per_group.get(key, 0.0) + epsilon
        spend: Dict[int, float] = {}
        for (epoch, _), total in per_group.items():
            spend[epoch] = max(spend.get(epoch, 0.0), total)
        return spend

    def worst_case_epsilon(self, subject: str) -> float:
        """Per-user loss assuming disjoint cohorts across epochs."""
        spend = self.epoch_spend(subject)
        return max(spend.values()) if spend else 0.0

    def lifetime_epsilon(self, subject: str) -> float:
        """Continual-observation bound for a user present in every epoch."""
        return sum(self.epoch_spend(subject).values())

    def summary(self) -> Dict[str, dict]:
        """JSON-compatible per-subject view for status endpoints."""
        report: Dict[str, dict] = {}
        for subject in self.subjects():
            spend = self.epoch_spend(subject)
            report[subject] = {
                "epochs_charged": len(spend),
                "worst_case_epsilon": max(spend.values()) if spend else 0.0,
                "lifetime_epsilon": sum(spend.values()),
                "releases": sum(
                    count
                    for (row_subject, _), count in self.releases.items()
                    if row_subject == subject
                ),
            }
        return report
