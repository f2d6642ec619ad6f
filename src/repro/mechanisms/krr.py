"""k-ary Randomized Response (k-RR / GRR).

The canonical direct mechanism (Kairouz et al.; Wang et al., USENIX
Security 2017): each client reports its true value with probability
``p = e^eps / (e^eps + g - 1)`` and a uniformly random *other* value
otherwise.  The server debiases observed counts ``c(d)`` to

.. math::  \\hat f(d) = \\frac{c(d) - n q}{p - q},

which is unbiased.  On the large join domains of the paper the keep
probability ``p`` collapses towards ``1/g``, which is exactly why k-RR
performs poorly there — the behaviour Figs. 5, 8 and 14 exhibit.
"""

from __future__ import annotations

import math

import numpy as np

from ..privacy.response import grr_perturb, grr_probabilities
from ..rng import RandomState
from .base import FrequencyOracle

__all__ = ["KRROracle"]


class KRROracle(FrequencyOracle):
    """k-RR frequency oracle over ``[0, domain_size)``."""

    name = "k-RR"
    MERGEABLE = {"_report_counts": "sum"}

    def __init__(self, domain_size: int, epsilon: float, seed: RandomState = None) -> None:
        super().__init__(domain_size, epsilon, seed)
        self.p, self.q = grr_probabilities(epsilon, self.domain_size)
        self._report_counts = np.zeros(self.domain_size, dtype=np.int64)

    def _collect(self, values: np.ndarray, rng: np.random.Generator) -> None:
        reports = grr_perturb(values, self.domain_size, self.epsilon, rng)
        self._report_counts += np.bincount(reports, minlength=self.domain_size)

    def _frequencies(self, candidates: np.ndarray) -> np.ndarray:
        observed = self._report_counts[candidates].astype(np.float64)
        return (observed - self.num_reports * self.q) / (self.p - self.q)

    @property
    def report_bits(self) -> int:
        """One domain value per client."""
        return max(1, math.ceil(math.log2(self.domain_size)))

    def memory_bytes(self) -> int:
        """Size of the report-count vector."""
        return int(self._report_counts.nbytes)
