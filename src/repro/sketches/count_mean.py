"""The Count-Mean read-out (the server side of Apple's CMS / HCMS).

Apple's "Learning with Privacy at Scale" aggregates randomized one-hot
client reports into a ``(k, m)`` count array and answers point queries with
the *debiased mean* over rows

.. math::

    \\hat f(d) = \\frac{m}{m - 1}\\Big(\\tfrac1k \\sum_j M[j, h_j(d)]
                 - \\tfrac{n}{m}\\Big),

which corrects the expected ``n/m`` collision mass per bucket.  The LDP
client channel on top of it lives in :mod:`repro.mechanisms.hcms`.
"""

from __future__ import annotations

import numpy as np

from ..errors import ParameterError
from ..hashing import HashPairs

__all__ = ["count_mean_frequencies"]


def count_mean_frequencies(
    counts: np.ndarray,
    pairs: HashPairs,
    total: float,
    values: np.ndarray,
) -> np.ndarray:
    """Debiased Count-Mean point estimates for ``values``.

    ``counts`` is a ``(k, m)`` count array whose rows have expected
    bucket load ``total / m`` under no signal.
    """
    m = pairs.m
    if m < 2:
        raise ParameterError("count-mean read-out requires m >= 2")
    arr = np.asarray(values, dtype=np.int64)
    if arr.size == 0:
        return np.zeros(0, dtype=np.float64)
    buckets = pairs.bucket_all(arr)
    rows = np.arange(pairs.k, dtype=np.int64)[:, None]
    mean_counts = np.mean(counts[rows, buckets], axis=0)
    return (m / (m - 1.0)) * (mean_counts - total / m)
