"""LDPJoinSketch as a frequency oracle.

Theorem 7 shows the LDPJoinSketch gives unbiased frequency estimates, and
Fig. 14 benchmarks it against the dedicated frequency oracles.  This
adapter wraps the core client/server pair (Algorithms 1-2) behind the
:class:`~repro.mechanisms.base.FrequencyOracle` interface so the
frequency-estimation experiments treat all mechanisms uniformly.
"""

from __future__ import annotations

import numpy as np

from ..core.client import encode_reports_into
from ..core.params import SketchParams
from ..core.server import LDPJoinSketch
from ..hashing import HashPairs
from ..rng import RandomState, spawn
from .base import FrequencyOracle

__all__ = ["LDPJoinSketchOracle"]


class LDPJoinSketchOracle(FrequencyOracle):
    """Frequency oracle backed by an LDPJoinSketch."""

    name = "LDPJoinSketch"
    MERGEABLE = {"_raw": "sum"}

    def __init__(
        self,
        domain_size: int,
        epsilon: float,
        seed: RandomState = None,
        *,
        k: int = 18,
        m: int = 1024,
    ) -> None:
        super().__init__(domain_size, epsilon, seed)
        self.params = SketchParams(k, m, epsilon)
        self.pairs = HashPairs(k, m, spawn(self._rng))
        self._raw = np.zeros((k, m), dtype=np.int64)

    def _collect(self, values: np.ndarray, rng: np.random.Generator) -> None:
        # Fused encode→accumulate: no O(n) report arrays, one bincount
        # pass per chunk; the debiasing scale is applied in sketch().
        encode_reports_into(values, self.params, self.pairs, self._raw, rng)

    def published(self) -> dict:
        return {
            **super().published(),
            "k": self.params.k,
            "m": self.params.m,
            "hash pairs": self.pairs,
        }

    def sketch(self) -> LDPJoinSketch:
        """The constructed (transformed) sketch for direct use."""
        if self._cache is None:
            self._cache = LDPJoinSketch.from_raw(
                self.params, self.pairs, self._raw, self.num_reports
            )
        return self._cache

    def _frequencies(self, candidates: np.ndarray) -> np.ndarray:
        return self.sketch().frequencies(candidates)

    @property
    def report_bits(self) -> int:
        """Sign bit plus row and column indices."""
        return self.params.report_bits

    def memory_bytes(self) -> int:
        """The ``(k, m)`` sketch."""
        return int(self._raw.nbytes)
