"""Optimized Unary Encoding (OUE).

OUE (Wang et al., USENIX Security 2017) is the variance-optimal unary
mechanism: the client one-hot encodes its value over the domain and
perturbs each bit independently — the true bit survives with probability
``p = 1/2``, every zero bit flips on with probability ``q = 1/(e^eps+1)``.
The server sums the reported bit-vectors and debiases

.. math::  \\hat f(d) = \\frac{C(d) - n q}{p - q}.

Its per-item variance beats k-RR for all but tiny domains, but each client
transmits ``|D|`` bits — the communication cost that motivates the
sketch-based approaches (Fig. 7's story).  Included to complete the
standard frequency-oracle family; the paper's Fig. 5 line-up uses k-RR /
FLH / Apple-HCMS.
"""

from __future__ import annotations

import math

import numpy as np

from ..rng import RandomState
from .base import FrequencyOracle

__all__ = ["OUEOracle"]


class OUEOracle(FrequencyOracle):
    """OUE frequency oracle over ``[0, domain_size)``."""

    name = "OUE"
    MERGEABLE = {"_bit_counts": "sum"}

    def __init__(self, domain_size: int, epsilon: float, seed: RandomState = None) -> None:
        super().__init__(domain_size, epsilon, seed)
        self.p = 0.5
        self.q = 1.0 / (math.exp(min(epsilon, 700)) + 1.0)
        self._bit_counts = np.zeros(self.domain_size, dtype=np.int64)

    def _collect(self, values: np.ndarray, rng: np.random.Generator) -> None:
        # Equivalent sampling without materialising n x |D| bit matrices:
        # each reported vector contributes Binomial(|D|-1, q) background
        # one-bits at uniform positions plus the true bit w.p. p.
        n = values.size
        keep = rng.random(n) < self.p
        kept = values[keep]
        self._bit_counts += np.bincount(kept, minlength=self.domain_size)

        # Background flips: total number across all reports is binomial;
        # positions are uniform among the domain minus the true position.
        flips_per_report = rng.binomial(self.domain_size - 1, self.q, size=n)
        total_flips = int(flips_per_report.sum())
        if total_flips:
            owners = np.repeat(np.arange(n), flips_per_report)
            offsets = rng.integers(0, self.domain_size - 1, size=total_flips)
            positions = np.where(offsets >= values[owners], offsets + 1, offsets)
            self._bit_counts += np.bincount(positions, minlength=self.domain_size)

    def _frequencies(self, candidates: np.ndarray) -> np.ndarray:
        observed = self._bit_counts[candidates].astype(np.float64)
        return (observed - self.num_reports * self.q) / (self.p - self.q)

    @property
    def report_bits(self) -> int:
        """The whole unary vector: one bit per domain value."""
        return self.domain_size

    def memory_bytes(self) -> int:
        """The per-position bit-count vector."""
        return int(self._bit_counts.nbytes)
