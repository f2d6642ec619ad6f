"""Estimation helpers on top of constructed LDPJoinSketches.

Two free functions keep the server read-out logic reusable outside the
sketch class:

* :func:`estimate_join_size` — Eq. (5) with input checking, the function
  the protocol drivers and experiment harness call;
* :func:`find_frequent_items` — the phase-1 step of LDPJoinSketch+
  (Section V-C): scan a candidate domain with Theorem 7 frequency
  estimates and keep every value whose estimate exceeds
  ``threshold * total``; the paper's frequent-item set is the *union*
  of the two attributes' sets.  Given both attributes' sketches, one
  scan hashes each chunk of the domain once, selects the union and
  returns each sketch's frequent mass with it (:class:`FrequentScan`).
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import ParameterError
from ..validation import require_positive_int, require_probability
from .server import LDPJoinSketch

__all__ = ["DEFAULT_SCAN_CHUNK", "FrequentScan", "estimate_join_size", "find_frequent_items"]

#: Domain values :func:`find_frequent_items` hashes and reads out at a
#: time: a few MB of ``(k, chunk)`` intermediates at the paper's ``k``.
DEFAULT_SCAN_CHUNK = 8_192


def estimate_join_size(sketch_a: LDPJoinSketch, sketch_b: LDPJoinSketch) -> float:
    """Eq. (5): ``median_j sum_x MA[j, x] * MB[j, x]``."""
    return sketch_a.join_size(sketch_b)


class FrequentScan(NamedTuple):
    """One domain scan over several sketches that share hash pairs.

    ``items`` is the sorted union of every sketch's frequent items.
    ``masses[i]`` is sketch ``i``'s Theorem 7 mean read-out summed over
    ``items``: its frequent mass at sample scale, not clipped.
    """

    items: np.ndarray
    masses: Tuple[float, ...]


def find_frequent_items(
    sketch: Union[LDPJoinSketch, Sequence[LDPJoinSketch]],
    domain_size: int,
    threshold: float,
    *,
    total: Optional[float] = None,
    chunk_size: int = DEFAULT_SCAN_CHUNK,
    method: str = "median",
) -> Union[np.ndarray, FrequentScan]:
    """Values whose estimated frequency exceeds ``threshold * total``.

    Parameters
    ----------
    sketch:
        A constructed LDPJoinSketch summarising the attribute (phase 1 of
        LDPJoinSketch+ builds it from sampled users), or a sequence of
        sketches that share hash pairs.  Each chunk of the domain is
        hashed once for all of them.
    domain_size:
        Candidate domain ``[0, domain_size)`` to scan.
    threshold:
        The paper's relative threshold ``theta`` in ``(0, 1]``.
    total:
        Reference total frequency; defaults to the number of reports that
        built each sketch (``|S_A|``), matching
        ``FI_A = {d : f~(d) > theta |A|}`` evaluated at sample scale.
    chunk_size:
        Domain values hashed and read out at a time.  The ``(k, chunk)``
        intermediates bound the scan's memory whatever the domain size.
    method:
        ``"median"`` (default) selects with the collision-robust
        Count-Sketch read-out; ``"mean"`` is the paper-verbatim Theorem 7
        estimator, which a single colliding heavy value can push over the
        threshold for thousands of light items (see the README section
        "Deviations from the paper").

    Returns
    -------
    numpy.ndarray or FrequentScan
        For one sketch, the sorted array of its frequent value ids.  For
        a sequence, a :class:`FrequentScan`: the union of the sketches'
        frequent items (the paper's ``FI = FI_A ∪ FI_B``) and each
        sketch's Theorem 7 mass over that union.
    """
    domain_size = require_positive_int("domain_size", domain_size)
    threshold = require_probability("threshold", threshold)
    chunk_size = require_positive_int("chunk_size", chunk_size)
    if method not in ("mean", "median"):
        raise ParameterError(f"method must be 'mean' or 'median', got {method!r}")
    single = isinstance(sketch, LDPJoinSketch)
    sketches = (sketch,) if single else tuple(sketch)
    if not sketches:
        raise ParameterError("find_frequent_items needs at least one sketch")
    for other in sketches[1:]:
        sketches[0].check_compatible(other)
    if total is not None and total < 0:
        raise ParameterError(f"total must be >= 0, got {total}")
    cutoffs = [
        threshold * (float(s.num_reports) if total is None else total) for s in sketches
    ]

    pairs, k, m = sketches[0].pairs, sketches[0].k, sketches[0].m
    tables = [s.counts.ravel() for s in sketches]
    row_offsets = np.arange(k, dtype=np.int64)[:, None] * m
    hits = []
    kept: List[List[np.ndarray]] = [[] for _ in sketches]
    for start in range(0, domain_size, chunk_size):
        candidates = np.arange(start, min(start + chunk_size, domain_size), dtype=np.int64)
        cells = pairs.bucket_all(candidates) + row_offsets
        signs = pairs.sign_all(candidates)
        frequent = np.zeros(candidates.size, dtype=bool)
        means = []
        for table, cutoff in zip(tables, cutoffs):
            # M[j, h_j(d)] * xi_j(d), as LDPJoinSketch.frequencies reads it.
            picked = table.take(cells) * signs
            mean = _row_means(picked)
            if method == "mean":
                frequent |= mean > cutoff
            else:
                frequent |= _median_exceeds(picked, cutoff)
            means.append(mean)
        hits.append(candidates[frequent])
        for out, mean in zip(kept, means):
            out.append(mean[frequent])
    items = np.concatenate(hits)
    if single:
        return items
    if items.size == 1:
        # NumPy sums a lone column pairwise rather than row by row; read
        # the one value as LDPJoinSketch.frequencies does.
        return FrequentScan(items, tuple(float(np.sum(s.frequencies(items))) for s in sketches))
    return FrequentScan(items, tuple(float(np.sum(np.concatenate(out))) for out in kept))


def _row_means(picked: np.ndarray) -> np.ndarray:
    """``picked.mean(axis=0)`` summed row by row for any column count.

    NumPy sums axis 0 of a C-ordered ``(k, n)`` matrix row by row when
    ``n >= 2`` but pairwise when ``n == 1``.  Fixing the order makes a
    value's read-out independent of the chunk it falls in.
    """
    total = picked[0].copy()
    for row in picked[1:]:
        total += row
    return total / picked.shape[0]


def _median_exceeds(picked: np.ndarray, cutoff: float) -> np.ndarray:
    """``np.median(picked, axis=0) > cutoff`` without sorting every column.

    The median of ``k`` values exceeds the cutoff when more than half of
    them do, and cannot when fewer than half do.  Only for even ``k``
    with exactly ``k / 2`` values above is the exact median (the mean of
    the two middle values) needed.
    """
    k = picked.shape[0]
    above = np.count_nonzero(picked > cutoff, axis=0)
    exceeds = above > k // 2
    if k % 2 == 0:
        tied = np.flatnonzero(above == k // 2)
        if tied.size:
            exceeds[tied] = np.median(picked[:, tied], axis=0) > cutoff
    return exceeds
