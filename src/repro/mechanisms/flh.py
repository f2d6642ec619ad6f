"""Fast Local Hashing (FLH).

FLH (Cormode, Maddock, Maple — VLDB 2021) is the heuristic fast variant of
OLH the paper benchmarks: instead of a fresh hash per client, clients pick
one of ``pool_size`` pre-agreed hash functions ``h_1 .. h_K`` uniformly at
random, hash their value into ``[g]`` and GRR-perturb it.  The server
keeps a ``(K, g)`` count matrix ``C`` — report ``(kappa, y)`` increments
``C[kappa, y]`` — so the support of a candidate ``d`` is read off with
``K`` table lookups instead of ``n``:

.. math::  S(d) = \\sum_{\\kappa} C[\\kappa, h_\\kappa(d)], \\qquad
           \\hat f(d) = \\frac{S(d) - n/g}{p - 1/g} .

The estimator matches OLH's in expectation (over the pool choice); the
finite pool trades a small accuracy loss for estimation time independent
of ``n`` — "sacrifices accuracy to achieve computational gains", as the
paper puts it.
"""

from __future__ import annotations

import math

import numpy as np

from ..accumulate import scatter_count
from ..hashing.kwise import MERSENNE_PRIME_31
from ..privacy.response import grr_perturb, grr_probabilities
from ..rng import RandomState
from ..validation import require_positive_int
from .base import FrequencyOracle

__all__ = ["FLHOracle"]

#: Transient-table budget of the chunked support scan (entries).
_TABLE_BUDGET = 4_194_304


class FLHOracle(FrequencyOracle):
    """FLH frequency oracle with a finite shared hash pool."""

    name = "FLH"
    MERGEABLE = {"_counts": "sum"}

    def __init__(
        self,
        domain_size: int,
        epsilon: float,
        seed: RandomState = None,
        *,
        g: int = None,
        pool_size: int = 512,
    ) -> None:
        super().__init__(domain_size, epsilon, seed)
        self.g = require_positive_int("g", g, minimum=2) if g is not None else max(
            2, int(round(math.exp(min(epsilon, 50)) + 1))
        )
        self.pool_size = require_positive_int("pool_size", pool_size)
        self.p, self.q = grr_probabilities(epsilon, self.g)
        # The shared hash pool: ((a_kappa * x + b_kappa) mod prime) mod g.
        self._pool_a = self._rng.integers(1, MERSENNE_PRIME_31, size=self.pool_size, dtype=np.int64)
        self._pool_b = self._rng.integers(0, MERSENNE_PRIME_31, size=self.pool_size, dtype=np.int64)
        self._counts = np.zeros((self.pool_size, self.g), dtype=np.int64)

    def _pool_hash(self, pool_index: np.ndarray, values: np.ndarray) -> np.ndarray:
        prime = np.uint64(MERSENNE_PRIME_31)
        a = self._pool_a[pool_index].astype(np.uint64)
        b = self._pool_b[pool_index].astype(np.uint64)
        mixed = (a * values.astype(np.uint64) + b) % prime
        return (mixed % np.uint64(self.g)).astype(np.int64)

    def _collect(self, values: np.ndarray, rng: np.random.Generator) -> None:
        kappa = rng.integers(0, self.pool_size, size=values.size)
        hashed = self._pool_hash(kappa, values)
        reports = grr_perturb(hashed, self.g, self.epsilon, rng)
        scatter_count(self._counts, (kappa, reports))

    def published(self) -> dict:
        return {
            **super().published(),
            "g": self.g,
            "pool_size": self.pool_size,
            "hash pool": (self._pool_a, self._pool_b),
        }

    def _frequencies(self, candidates: np.ndarray) -> np.ndarray:
        support = _support_scan(
            self._pool_a, self._pool_b, self._counts, candidates, self.g
        )
        return (support - self.num_reports / self.g) / (self.p - 1.0 / self.g)

    @property
    def report_bits(self) -> int:
        """Pool index plus the GRR report."""
        return max(1, math.ceil(math.log2(self.pool_size))) + max(
            1, math.ceil(math.log2(self.g))
        )

    def memory_bytes(self) -> int:
        """The ``(pool_size, g)`` count matrix."""
        return int(self._counts.nbytes)


def _support_scan(
    a: np.ndarray, b: np.ndarray, counts: np.ndarray, candidates: np.ndarray, g: int
) -> np.ndarray:
    """``S(d) = sum_r counts[r, ((a[r] d + b[r]) mod p) mod g]`` per candidate.

    Pool-sized table lookups per candidate instead of OLH's per-user
    comparison scan; the pool is walked in slices so the transient
    ``(pool, candidates)`` hash table stays bounded regardless of domain
    size.  Returns float64 supports shaped like ``candidates``.
    """
    prime = np.uint64(MERSENNE_PRIME_31)
    g64 = np.uint64(g)
    cand = candidates.astype(np.uint64)[None, :]
    support = np.zeros(candidates.size, dtype=np.float64)
    if not candidates.size:
        return support
    pool_chunk = max(1, _TABLE_BUDGET // candidates.size)
    for start in range(0, a.size, pool_chunk):
        stop = min(start + pool_chunk, a.size)
        table = (
            (a[start:stop].astype(np.uint64)[:, None] * cand
             + b[start:stop].astype(np.uint64)[:, None]) % prime
        ) % g64
        rows = np.arange(start, stop, dtype=np.int64)[:, None]
        support += np.sum(counts[rows, table.astype(np.int64)], axis=0)
    return support
