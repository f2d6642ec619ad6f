"""Hadamard Response (HR).

Hadamard Response (Acharya, Sun, Zhang — AISTATS 2019) is a
communication-efficient mechanism for large domains built on the same
Sylvester matrices as our sketches.  Each value ``d`` owns the index set
``S_d = {j : H_K[d + 1, j] = 1}`` (row ``d + 1`` of the order-``K``
Hadamard matrix, ``K >= 2 |D|``; row 0 is excluded because it is all
ones).  The client reports

* a uniform member of ``S_d`` with probability ``e^eps / (e^eps + 1)``,
* a uniform member of the complement with probability ``1 / (e^eps + 1)``.

Because ``|S_d| = K/2`` for every ``d``, the output distribution of any
single report is a two-level function over ``[K]``, and

.. math::  \\Pr[y \\in S_d] = \\frac{e^\\epsilon}{e^\\epsilon + 1}
           \\quad\\text{vs}\\quad
           \\Pr[y \\in S_d \\mid d' \\ne d] = \\tfrac12 \\cdot
           \\frac{e^\\epsilon}{e^\\epsilon+1} + \\tfrac12 \\cdot
           \\frac{1}{e^\\epsilon+1} = \\tfrac12 ,

(rows of a Hadamard matrix agree on exactly half their positions), giving
the unbiased estimator

.. math::  \\hat f(d) = \\frac{C_d - n/2}{p - 1/2}, \\qquad
           C_d = \\#\\{i : y_i \\in S_{d}\\}, \\quad
           p = \\frac{e^\\epsilon}{e^\\epsilon + 1}.

Counting ``C_d`` for every candidate is one Walsh--Hadamard transform of
the report histogram, so whole-domain estimation costs ``O(K log K)``.
"""

from __future__ import annotations

import math

import numpy as np

from ..rng import RandomState
from ..transform.hadamard import fwht, hadamard_entry
from .base import FrequencyOracle

__all__ = ["HadamardResponseOracle"]


class HadamardResponseOracle(FrequencyOracle):
    """Hadamard Response frequency oracle over ``[0, domain_size)``."""

    name = "HR"
    MERGEABLE = {"_report_histogram": "sum"}

    def __init__(self, domain_size: int, epsilon: float, seed: RandomState = None) -> None:
        super().__init__(domain_size, epsilon, seed)
        # Need K >= domain_size + 1 rows (row 0 is reserved); power of two.
        self.order = 1 << max(1, int(math.ceil(math.log2(self.domain_size + 1))))
        self.p = math.exp(min(epsilon, 700)) / (math.exp(min(epsilon, 700)) + 1.0)
        self._report_histogram = np.zeros(self.order, dtype=np.int64)

    # ------------------------------------------------------------------
    # Client side
    # ------------------------------------------------------------------
    def _collect(self, values: np.ndarray, rng: np.random.Generator) -> None:
        n = values.size
        rows = values + 1  # row 0 of H is all-ones and unusable
        in_set = rng.random(n) < self.p
        # Sample uniformly from S_d (or its complement) by rejection-free
        # indexing: positions with H[row, j] = +1 are exactly those where
        # popcount(row & j) is even.  Draw a uniform j until the sign
        # matches; two draws suffice in expectation, so draw in rounds.
        out = np.empty(n, dtype=np.int64)
        pending = np.arange(n)
        while pending.size:
            draws = rng.integers(0, self.order, size=pending.size)
            signs = hadamard_entry(rows[pending], draws, self.order)
            want = np.where(in_set[pending], 1, -1)
            matched = signs == want
            out[pending[matched]] = draws[matched]
            pending = pending[~matched]
        self._report_histogram += np.bincount(out, minlength=self.order)

    # ------------------------------------------------------------------
    # Server side
    # ------------------------------------------------------------------
    def _frequencies(self, candidates: np.ndarray) -> np.ndarray:
        # C_d = #{i : H[d+1, y_i] = 1} = (n + sum_i H[d+1, y_i]) / 2 and
        # the vector of sums over all rows is the WHT of the histogram.
        transformed = fwht(self._report_histogram.astype(np.float64))
        sums = transformed[candidates + 1]
        support = 0.5 * (self.num_reports + sums)
        return (support - self.num_reports / 2.0) / (self.p - 0.5)

    @property
    def report_bits(self) -> int:
        """One index into the order-``K`` Hadamard matrix."""
        return max(1, int(math.ceil(math.log2(self.order))))

    def memory_bytes(self) -> int:
        """The report histogram."""
        return int(self._report_histogram.nbytes)
