"""The common interface of LDP frequency oracles.

A *frequency oracle* is the standard LDP primitive: each client perturbs
its private value locally, the server aggregates the reports and can later
estimate the frequency of any candidate value.  The paper evaluates three
published oracles (k-RR, FLH, Apple-HCMS; we also provide OLH, of which
FLH is the fast heuristic) as join-size baselines by summing the product
of estimated frequency vectors over the whole domain — the "cumulative
error" approach its Section II criticises.

Subclass contract
-----------------
``collect(values, rng)`` may be called repeatedly (streams of clients);
``frequencies(candidates)`` returns estimated *counts* (not proportions)
and must be unbiased for every published mechanism here; ``report_bits``
is the per-client uplink cost used by the Fig. 7 experiment.
``MERGEABLE`` names the attributes holding the server state and
``published()`` the configuration shards must share; from those the base
class derives the partial, the restore, the fingerprint and ``merge``.
"""

from __future__ import annotations

import abc
from typing import Iterable

import numpy as np

from ..errors import ProtocolError
from ..mergeable import MergeableState
from ..rng import RandomState, ensure_rng
from ..validation import require_domain_values, require_positive_float, require_positive_int

__all__ = ["FrequencyOracle", "estimate_join_via_frequencies"]


class FrequencyOracle(MergeableState, abc.ABC):
    """Base class of every LDP frequency oracle."""

    #: Human-readable mechanism name (used by reports and figures).
    name: str = "abstract"

    def __init__(self, domain_size: int, epsilon: float, seed: RandomState = None) -> None:
        self.domain_size = require_positive_int("domain_size", domain_size, minimum=2)
        self.epsilon = require_positive_float("epsilon", epsilon)
        self._rng = ensure_rng(seed)
        self.num_reports = 0
        # Read-side state derived from the mergeable arrays (an FWHT'd
        # sketch); cleared whenever those arrays change.
        self._cache = None

    # ------------------------------------------------------------------
    # Client side
    # ------------------------------------------------------------------
    def collect(self, values: Iterable[int], rng: RandomState = None) -> None:
        """Perturb one batch of client values and fold them into the state."""
        arr = require_domain_values(values, self.domain_size)
        if arr.size == 0:
            return
        generator = self._rng if rng is None else ensure_rng(rng)
        self._collect(arr, generator)
        self.num_reports += int(arr.size)
        self._cache = None

    @abc.abstractmethod
    def _collect(self, values: np.ndarray, rng: np.random.Generator) -> None:
        """Mechanism-specific perturbation + aggregation."""

    # ------------------------------------------------------------------
    # Sharding
    # ------------------------------------------------------------------
    # Every oracle's server state is a linear aggregate of its reports;
    # subclasses declare it in ``MERGEABLE`` and extend :meth:`published`.
    def published(self) -> dict:
        """Configuration every shard must share: domain, budget, and each
        mechanism's shape parameters and published randomness."""
        return {
            "domain_size": self.domain_size,
            "privacy budget (epsilon)": self.epsilon,
        }

    def _counters(self) -> dict:
        return {"num_reports": float(self.num_reports)}

    def _restored(self, counters: dict) -> None:
        self.num_reports = int(counters["num_reports"])
        self._cache = None

    # ------------------------------------------------------------------
    # Server side
    # ------------------------------------------------------------------
    def frequencies(self, candidates: Iterable[int]) -> np.ndarray:
        """Estimated counts for ``candidates`` (float64, may be negative)."""
        if self.num_reports == 0:
            raise ProtocolError(f"{self.name}: no reports collected yet")
        arr = require_domain_values(candidates, self.domain_size, "candidates")
        return self._frequencies(arr)

    @abc.abstractmethod
    def _frequencies(self, candidates: np.ndarray) -> np.ndarray:
        """Mechanism-specific frequency estimation."""

    def all_frequencies(self) -> np.ndarray:
        """Estimated counts for the entire domain."""
        return self.frequencies(np.arange(self.domain_size, dtype=np.int64))

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    @property
    @abc.abstractmethod
    def report_bits(self) -> int:
        """Uplink bits one client transmits."""

    def memory_bytes(self) -> int:
        """Server-side state size in bytes (subclasses refine)."""
        return 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"{type(self).__name__}(domain_size={self.domain_size}, "
            f"epsilon={self.epsilon:g}, num_reports={self.num_reports})"
        )


def estimate_join_via_frequencies(
    oracle_a: FrequencyOracle,
    oracle_b: FrequencyOracle,
    *,
    clip_negative: bool = False,
    chunk_size: int = 262_144,
) -> float:
    """Join-size estimate ``sum_d f^_A(d) * f^_B(d)`` over the full domain.

    This is how the paper turns frequency oracles (k-RR, FLH, Apple-HCMS)
    into join-size baselines.  The sum accumulates one estimation error per
    domain value — the cumulative-error weakness the sketch product avoids.

    Parameters
    ----------
    clip_negative:
        Clamp negative frequency estimates to zero before multiplying.
        The paper's baselines use "calibrated" frequency vectors; we keep
        the unclipped product as the default (unbiased) and expose the
        clipped variant for ablation.
    chunk_size:
        Candidates are processed in chunks to bound the memory of
        mechanisms whose estimation materialises per-candidate tables.
    """
    if oracle_a.domain_size != oracle_b.domain_size:
        raise ProtocolError(
            f"domain mismatch: {oracle_a.domain_size} vs {oracle_b.domain_size}"
        )
    total = 0.0
    domain = oracle_a.domain_size
    for start in range(0, domain, chunk_size):
        candidates = np.arange(start, min(start + chunk_size, domain), dtype=np.int64)
        fa = oracle_a.frequencies(candidates)
        fb = oracle_b.frequencies(candidates)
        if clip_negative:
            fa = np.maximum(fa, 0.0)
            fb = np.maximum(fb, 0.0)
        total += float(np.dot(fa, fb))
    return total
