"""Frequency-Aware Perturbation (FAP) — Algorithm 4 of the paper.

FAP is the client-side mechanism of LDPJoinSketch+ phase 2.  Given the
frequent-item set ``FI`` (public, computed in phase 1) and a ``mode``:

* ``mode="H"`` — the sketch being built targets **high-frequency** values:
  values in ``FI`` are *targets*, values outside are *non-targets*;
* ``mode="L"`` — the sketch targets **low-frequency** values: values
  outside ``FI`` are targets, values inside are non-targets.

A **target** value is encoded exactly as Algorithm 1 (LDPJoinSketch
client).  A **non-target** value is encoded *independently of its true
value*: the one-hot position is a fresh uniform ``r ~ U[m]`` with weight
``+1`` (no sign hash), i.e. ``y = b * H_m[r, l]``.  Both cases then pass
through the identical binary sign channel, so the server cannot tell from
a single report whether the client's value was frequent (Theorem 6) —
yet the aggregate contribution of non-targets is a uniform ``|NT| / m``
per counter (Theorem 8), which Algorithm 5 subtracts.
"""

from __future__ import annotations

from typing import Iterable, Tuple

import numpy as np

from ..errors import ParameterError
from ..hashing import HashPairs
from ..rng import RandomState, ensure_rng
from ..transform.hadamard import hadamard_entry, sample_hadamard_entries
from ..validation import as_value_array, require_choice
from .client import ReportBatch, encode_report
from .params import SketchParams

__all__ = ["fap_encode_report", "fap_encode_reports", "MODE_HIGH", "MODE_LOW"]

#: Sketch targets high-frequency values (non-targets are the infrequent ones).
MODE_HIGH = "H"
#: Sketch targets low-frequency values (non-targets are the frequent ones).
MODE_LOW = "L"


def _non_target_mask(values: np.ndarray, mode: str, fi: np.ndarray) -> np.ndarray:
    """Line 1 of Algorithm 4: non-target iff ``(mode == H) == (d not in FI)``.

    Membership needs neither a sorted nor a duplicate-free ``fi``, so the
    frequent-item set is used as given, not re-uniqued per encode.
    """
    in_fi = np.isin(values, fi)
    if mode == MODE_HIGH:
        return ~in_fi
    return in_fi


def fap_encode_report(
    value: int,
    mode: str,
    params: SketchParams,
    pairs: HashPairs,
    frequent_items: Iterable[int],
    rng: RandomState = None,
) -> Tuple[int, int, int]:
    """Algorithm 4 for a single client; returns ``(y, j, l)``.

    Scalar reference implementation mirroring the pseudo-code line by
    line; the batched :func:`fap_encode_reports` is the production path.
    """
    mode = str(require_choice("mode", mode, (MODE_HIGH, MODE_LOW)))
    fi = as_value_array(frequent_items, "frequent_items")
    generator = ensure_rng(rng)
    non_target = bool(_non_target_mask(np.asarray([value], dtype=np.int64), mode, fi)[0])
    if non_target:
        j = int(generator.integers(0, params.k))
        l = int(generator.integers(0, params.m))
        r = int(generator.integers(0, params.m))
        # v[r] = 1; w = v @ H_m; sample w[l] = H_m[r, l].
        w_l = hadamard_entry(r, l, params.m)
        b = -1 if generator.random() < params.flip_probability else 1
        return int(b * w_l), j, l
    return encode_report(value, params, pairs, generator)


def fap_encode_reports(
    values: Iterable[int],
    mode: str,
    params: SketchParams,
    pairs: HashPairs,
    frequent_items: Iterable[int],
    rng: RandomState = None,
) -> ReportBatch:
    """Vectorised Algorithm 4 over a batch of clients.

    Target values follow the Algorithm 1 encoding, non-target values the
    random-position encoding; the sampled ``(j, l)`` indices and the sign
    channel are identical in both branches, so the output batch is
    indistinguishable report-by-report.
    """
    mode = str(require_choice("mode", mode, (MODE_HIGH, MODE_LOW)))
    if pairs.k != params.k or pairs.m != params.m:
        raise ParameterError(
            f"hash pairs shaped ({pairs.k}, {pairs.m}) do not match params "
            f"({params.k}, {params.m})"
        )
    arr = as_value_array(values)
    fi = as_value_array(frequent_items, "frequent_items")
    generator = ensure_rng(rng)
    n = arr.size

    rows = generator.integers(0, params.k, size=n)
    cols = generator.integers(0, params.m, size=n)
    non_target = _non_target_mask(arr, mode, fi)

    # Effective one-hot position and weight per report: targets use
    # (h_j(d), xi_j(d)); non-targets use (r, +1) with fresh uniform r.
    positions = np.empty(n, dtype=np.int64)
    weights = np.ones(n, dtype=np.int64)
    if np.any(~non_target):
        target_idx = np.flatnonzero(~non_target)
        positions[target_idx] = pairs.bucket_rows(rows[target_idx], arr[target_idx])
        weights[target_idx] = pairs.sign_rows(rows[target_idx], arr[target_idx])
    if np.any(non_target):
        nt_idx = np.flatnonzero(non_target)
        positions[nt_idx] = generator.integers(0, params.m, size=nt_idx.size)

    w = weights * sample_hadamard_entries(positions, cols, params.m)
    flips = generator.random(n) < params.flip_probability
    ys = np.where(flips, -w, w).astype(np.int64)
    return ReportBatch(ys, rows, cols, params)
