"""Optimal Local Hashing (OLH).

OLH (Wang et al., USENIX Security 2017) shrinks the GRR domain by local
hashing: client ``i`` owns a random pairwise-independent hash
``H_i : D -> [g]`` with ``g = round(e^eps + 1)`` (the variance-optimal
choice), hashes its value, and runs GRR over ``[g]``.  The server counts,
for each candidate ``d``, the *support*
``S(d) = #{i : y_i = H_i(d)}`` and debiases with

.. math::  \\hat f(d) = \\frac{S(d) - n/g}{p - 1/g},

using ``p = e^eps / (e^eps + g - 1)`` (with ``g = e^eps + 1``, ``p = 1/2``).

Exact OLH keeps one hash per user, so answering a candidate costs O(n):
the server-side estimation is Theta(n * |D|).  This implementation is
faithful but therefore intended for moderate sizes; FLH
(:mod:`repro.mechanisms.flh`) is the fast heuristic the paper benchmarks
at scale.  Per-candidate work is chunked to bound memory.
"""

from __future__ import annotations

import math
from typing import List

import numpy as np

from ..hashing.kwise import MERSENNE_PRIME_31
from ..privacy.response import grr_perturb, grr_probabilities
from ..rng import RandomState
from ..validation import require_positive_int
from .base import FrequencyOracle

__all__ = ["OLHOracle"]

#: Transient-table budget of the chunked support scan (entries).
_TABLE_BUDGET = 8_388_608


class OLHOracle(FrequencyOracle):
    """Exact OLH frequency oracle (one fresh hash per client)."""

    name = "OLH"
    MERGEABLE = {"_hash_a": "concat", "_hash_b": "concat", "_reports": "concat"}

    def __init__(
        self,
        domain_size: int,
        epsilon: float,
        seed: RandomState = None,
        *,
        g: int = None,
    ) -> None:
        super().__init__(domain_size, epsilon, seed)
        self.g = require_positive_int("g", g, minimum=2) if g is not None else max(
            2, int(round(math.exp(min(epsilon, 50)) + 1))
        )
        self.p, self.q = grr_probabilities(epsilon, self.g)
        # Per-user hash parameters ((a*x + b) mod prime) mod g and reports.
        self._hash_a: List[np.ndarray] = []
        self._hash_b: List[np.ndarray] = []
        self._reports: List[np.ndarray] = []

    def _collect(self, values: np.ndarray, rng: np.random.Generator) -> None:
        n = values.size
        a = rng.integers(1, MERSENNE_PRIME_31, size=n, dtype=np.int64)
        b = rng.integers(0, MERSENNE_PRIME_31, size=n, dtype=np.int64)
        hashed = self._hash(a, b, values) % self.g
        reports = grr_perturb(hashed, self.g, self.epsilon, rng)
        self._hash_a.append(a)
        self._hash_b.append(b)
        self._reports.append(reports)

    def published(self) -> dict:
        return {**super().published(), "g": self.g}

    @staticmethod
    def _hash(a: np.ndarray, b: np.ndarray, values: np.ndarray) -> np.ndarray:
        prime = np.uint64(MERSENNE_PRIME_31)
        mixed = (a.astype(np.uint64) * values.astype(np.uint64) + b.astype(np.uint64)) % prime
        return mixed.astype(np.int64)

    def _consolidated(self) -> tuple:
        """Concatenate the per-cohort arrays into one flat store.

        ``_collect`` appends cohort-sized pieces; estimation
        wants one contiguous view so the support scan is a single chunked
        broadcast rather than a Python loop over cohorts.  The
        concatenation is cached back into the lists (length-one), so it
        costs one pass after any number of collects.
        """
        if len(self._hash_a) > 1:
            self._hash_a = [np.concatenate(self._hash_a)]
            self._hash_b = [np.concatenate(self._hash_b)]
            self._reports = [np.concatenate(self._reports)]
        if not self._hash_a:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty, empty
        return self._hash_a[0], self._hash_b[0], self._reports[0]

    def _frequencies(self, candidates: np.ndarray) -> np.ndarray:
        a, b, reports = self._consolidated()
        support = _support_scan(a, b, reports, candidates, self.g)
        return (support - self.num_reports / self.g) / (self.p - 1.0 / self.g)

    @property
    def report_bits(self) -> int:
        """Hash description (64-bit seed pair) plus the GRR report."""
        return 64 + max(1, math.ceil(math.log2(self.g)))

    def memory_bytes(self) -> int:
        """Per-user hash parameters and reports held by the server."""
        return int(sum(x.nbytes for x in self._hash_a + self._hash_b + self._reports))


def _support_scan(
    a: np.ndarray, b: np.ndarray, reports: np.ndarray, candidates: np.ndarray, g: int
) -> np.ndarray:
    """``S(d) = #{u : reports[u] = ((a[u] d + b[u]) mod p) mod g}`` per candidate.

    The Theta(users x candidates) scan of exact OLH: every candidate
    against every user's hash parameters, one broadcast per user chunk;
    the chunking bounds the transient ``(users, candidates)`` table.
    Returns float64 supports shaped like ``candidates``.
    """
    prime = np.uint64(MERSENNE_PRIME_31)
    g64 = np.uint64(g)
    cand = candidates.astype(np.uint64)[None, :]
    support = np.zeros(candidates.size, dtype=np.float64)
    if not candidates.size:
        return support
    user_chunk = max(1, _TABLE_BUDGET // candidates.size)
    for start in range(0, a.size, user_chunk):
        sl = slice(start, start + user_chunk)
        hashed = (
            (a[sl].astype(np.uint64)[:, None] * cand
             + b[sl].astype(np.uint64)[:, None]) % prime
        ) % g64
        support += np.count_nonzero(
            hashed.astype(np.int64) == reports[sl][:, None], axis=0
        )
    return support
