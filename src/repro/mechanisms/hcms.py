"""Apple's Hadamard Count-Mean Sketch (HCMS).

HCMS ("Learning with Privacy at Scale", Apple 2017) is the closest
published relative of LDPJoinSketch — the paper notes the client sides are
identical except for the encoding sign.  Each client:

1. samples a row ``j ~ U[k]`` and column ``l ~ U[m]``;
2. encodes its value as the (unsigned) one-hot ``v[h_j(d)] = 1``;
3. transmits the sign-channel-perturbed Hadamard sample
   ``y = b * H_m[h_j(d), l]``.

The server accumulates ``k * c_eps * y`` into ``[j, l]``, inverts the
transform per row, and answers point queries with the Count-Mean debiasing
(:func:`repro.sketches.count_mean.count_mean_frequencies`).  Used as a
frequency oracle (Fig. 14) and as a join-size baseline via frequency
inner products (Figs. 5-9).
"""

from __future__ import annotations

import numpy as np

from ..accumulate import scatter_add_signed_units
from ..hashing import HashPairs
from ..privacy.response import c_epsilon, flip_probability
from ..rng import RandomState, spawn
from ..sketches.count_mean import count_mean_frequencies
from ..transform.hadamard import fwht, sample_hadamard_entries
from ..validation import require_positive_int, require_power_of_two
from .base import FrequencyOracle

__all__ = ["HCMSOracle"]


class HCMSOracle(FrequencyOracle):
    """Apple-HCMS frequency oracle with a ``(k, m)`` sketch."""

    name = "Apple-HCMS"
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
        self.k = require_positive_int("k", k)
        self.m = require_power_of_two("m", m)
        self.pairs = HashPairs(self.k, self.m, spawn(self._rng))
        self._raw = np.zeros((self.k, self.m), dtype=np.int64)

    # ------------------------------------------------------------------
    # Client + aggregation
    # ------------------------------------------------------------------
    def _collect(self, values: np.ndarray, rng: np.random.Generator) -> None:
        n = values.size
        rows = rng.integers(0, self.k, size=n)
        cols = rng.integers(0, self.m, size=n)
        buckets = self.pairs.bucket_rows(rows, values)
        w = sample_hadamard_entries(buckets, cols, self.m)
        flips = rng.random(n) < flip_probability(self.epsilon)
        ys = np.where(flips, -w, w)
        # Integer accumulation; the debiasing scale is applied in _sketch().
        scatter_add_signed_units(self._raw, (rows, cols), ys)

    def published(self) -> dict:
        return {**super().published(), "k": self.k, "m": self.m, "hash pairs": self.pairs}

    def _sketch(self) -> np.ndarray:
        if self._cache is None:
            scale = self.k * c_epsilon(self.epsilon)
            self._cache = fwht(self._raw.astype(np.float64) * scale)
        return self._cache

    # ------------------------------------------------------------------
    # Server read-out
    # ------------------------------------------------------------------
    def _frequencies(self, candidates: np.ndarray) -> np.ndarray:
        return count_mean_frequencies(
            self._sketch(), self.pairs, float(self.num_reports), candidates
        )

    @property
    def report_bits(self) -> int:
        """One sign bit plus the row and column indices."""
        return (
            1
            + max(1, int(np.ceil(np.log2(self.k))))
            + max(1, int(np.ceil(np.log2(self.m))))
        )

    def memory_bytes(self) -> int:
        """The ``(k, m)`` sketch."""
        return int(self._raw.nbytes)
