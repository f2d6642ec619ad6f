"""The Fast-AGMS sketch (Cormode & Garofalakis, VLDB 2005).

A Fast-AGMS sketch ``M`` of shape ``(k, m)`` maintains, for every row
``j``, the signed bucket counts

.. math::  M[j, h_j(d)] \\mathrel{+}= \\xi_j(d)

for each stream value ``d``.  Compared to the original AGMS sketch, each
update touches one counter per row instead of every counter, hence "fast".

Estimates supported here (all used by the paper):

* **join size** (Eq. 1): ``median_j sum_x MA[j, x] * MB[j, x]`` for two
  sketches built with the *same* hash pairs;
* **frequency**: ``median_j M[j, h_j(d)] * xi_j(d)`` (the Count-Sketch
  estimator — Fast-AGMS and Count-Sketch share their structure);
* **second moment** ``F2``: the self-join estimate.

This class is the non-private **FAGMS** baseline of the experiments and
the structure that :mod:`repro.core` privatises.  It is *linear*: the
sketch of two concatenated streams is the element-wise sum of their
sketches, which is what :meth:`FastAGMSSketch.merge` computes (through
the :class:`~repro.mergeable.MergeableState` partial form every baseline
accumulator shares).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..accumulate import scatter_add
from ..errors import IncompatibleSketchError, ParameterError
from ..hashing import HashPairs
from ..mergeable import MergeableState
from ..rng import RandomState
from ..validation import as_value_array

__all__ = ["FastAGMSSketch"]


class FastAGMSSketch(MergeableState):
    """Fast-AGMS sketch over integer ids.

    Parameters
    ----------
    pairs:
        The per-row hash pairs.  Two sketches that will be joined must be
        constructed from the *same* :class:`HashPairs` object.
    """

    MERGEABLE = {"counts": "sum"}

    def __init__(self, pairs: HashPairs) -> None:
        if not isinstance(pairs, HashPairs):
            raise ParameterError(f"pairs must be HashPairs, got {type(pairs).__name__}")
        self.pairs = pairs
        self.counts = np.zeros((pairs.k, pairs.m), dtype=np.float64)
        self.total_weight = 0.0

    @classmethod
    def create(cls, k: int, m: int, seed: RandomState = None) -> "FastAGMSSketch":
        """Convenience constructor drawing fresh hash pairs."""
        return cls(HashPairs(k, m, seed))

    # ------------------------------------------------------------------
    # Shape / compatibility
    # ------------------------------------------------------------------
    @property
    def k(self) -> int:
        """Number of rows (independent estimators)."""
        return self.pairs.k

    @property
    def m(self) -> int:
        """Number of buckets per row."""
        return self.pairs.m

    def check_compatible(self, other: "FastAGMSSketch") -> None:
        """Raise unless ``other`` is a Fast-AGMS sketch on the same hash pairs."""
        if type(other) is not type(self):
            raise IncompatibleSketchError(
                f"cannot combine {type(self).__name__} with {type(other).__name__}"
            )
        if self.pairs != other.pairs:
            raise IncompatibleSketchError(
                "sketches use different hash pairs; build both from the same HashPairs"
            )

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def update_batch(self, values: Iterable[int], weight: float = 1.0) -> None:
        """Fold ``values`` into every row of the sketch."""
        arr = as_value_array(values)
        if arr.size == 0:
            return
        buckets = self.pairs.bucket_all(arr)          # (k, n)
        signs = self.pairs.sign_all(arr)              # (k, n)
        rows = np.repeat(np.arange(self.k, dtype=np.int64), arr.size)
        scatter_add(
            self.counts,
            (rows, buckets.ravel()),
            weight * signs.ravel().astype(np.float64),
        )
        self.total_weight += weight * arr.size

    def update(self, value: int, weight: float = 1.0) -> None:
        """Fold a single value into the sketch."""
        self.update_batch(np.asarray([value], dtype=np.int64), weight)

    # ------------------------------------------------------------------
    # Merging (MergeableState): counters add, the total weight travels as
    # the partial's report count.
    # ------------------------------------------------------------------
    def published(self) -> dict:
        return {"k": self.k, "m": self.m, "hash pairs": self.pairs}

    def _counters(self) -> dict:
        return {"num_reports": self.total_weight}

    def _restored(self, counters: dict) -> None:
        self.total_weight = counters["num_reports"]

    # ------------------------------------------------------------------
    # Estimates
    # ------------------------------------------------------------------
    def inner_product(self, other: "FastAGMSSketch") -> float:
        """Eq. (1): median over rows of the row-wise inner products."""
        self.check_compatible(other)
        per_row = np.einsum("jx,jx->j", self.counts, other.counts)
        return float(np.median(per_row))

    def second_moment(self) -> float:
        """Self-join size estimate (``F2``)."""
        per_row = np.einsum("jx,jx->j", self.counts, self.counts)
        return float(np.median(per_row))

    def frequency(self, value: int) -> float:
        """Count-Sketch point estimate ``median_j M[j, h_j(d)] xi_j(d)``."""
        estimates = self.frequencies(np.asarray([value], dtype=np.int64))
        return float(estimates[0])

    def frequencies(self, values: Iterable[int]) -> np.ndarray:
        """Vectorised :meth:`frequency` for a batch of values."""
        arr = as_value_array(values)
        if arr.size == 0:
            return np.zeros(0, dtype=np.float64)
        buckets = self.pairs.bucket_all(arr)          # (k, n)
        signs = self.pairs.sign_all(arr)              # (k, n)
        rows = np.arange(self.k, dtype=np.int64)[:, None]
        picked = self.counts[rows, buckets] * signs
        return np.median(picked, axis=0)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def memory_bytes(self) -> int:
        """Size of the counter array in bytes (space-cost accounting)."""
        return int(self.counts.nbytes)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"FastAGMSSketch(k={self.k}, m={self.m}, "
            f"total_weight={self.total_weight:g})"
        )
