"""Flattened-index scatter-add helpers.

Every aggregation hot path in this library folds per-report updates into a
small dense counter array.  The obvious NumPy spelling,
``np.add.at(out, (rows, cols), w)``, is a *buffered* scatter-add that
dispatches element by element and is roughly an order of magnitude slower
than histogramming the flattened indices with ``np.bincount`` and adding
the dense result once.  These helpers centralise the flatten-and-validate
step so the core protocol, the LDP mechanisms, the classical sketches and
the session layer all share one fast implementation,
:func:`bincount_accumulate` (a dense ``np.bincount`` histogram, with an
element-wise ``np.add.at`` scatter for batches much smaller than the
accumulator).

Three variants cover the accumulator dtypes in use:

* :func:`scatter_add` — float accumulators with arbitrary float weights
  (per-bin sums are formed in input order, matching the sequential order
  ``np.add.at`` would use);
* :func:`scatter_add_signed_units` — integer accumulators receiving
  ``{-1, +1}`` payloads; the histogram's float64 intermediate is
  exact bit-for-bit because every partial sum is an integer of magnitude
  at most ``len(ys) < 2**53``;
* :func:`scatter_count` — integer accumulators receiving unit increments.

All of them accept an index tuple (one array per accumulator axis, as
``np.add.at`` does).  Flat offsets are always computed in **int64** —
index arrays arrive in whatever dtype the caller drew them in (int32 on
some platforms / wire formats), and the raveling multiply
``rows * m * ...`` overflows int32 as soon as the accumulator crosses
``2**31`` cells, so every term is widened before the multiply (see the
regression test in ``tests/test_fused_path.py``).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "bincount_accumulate",
    "scatter_add",
    "scatter_add_signed_units",
    "scatter_count",
]

#: Batch-vs-accumulator ratio below which :func:`bincount_accumulate`
#: takes the element-wise scatter instead of a dense histogram.  For
#: float weights the two branches sum bins in different orders
#: (element-wise into ``out`` vs per-bin totals added once), so the
#: threshold is part of what a float result is.
SPARSE_RATIO = 16


def bincount_accumulate(
    out: np.ndarray, flat: np.ndarray, weights: Optional[np.ndarray]
) -> None:
    """``out.reshape(-1)[flat] += weights`` with repeated indices.

    ``out`` is a C-contiguous accumulator of any shape; ``flat`` holds
    int64 raveled indices (already bounds-checked and computed in int64
    — see :func:`_flat_indices` for the int32-overflow guard).
    ``weights`` is ``None`` for unit counts, else an array broadcastable
    against ``flat``.  Integer ``out`` with integer-valued ``weights``
    accumulates exactly; float accumulation sums each bin in input order.
    """
    size = out.size
    if flat.size * SPARSE_RATIO < size:
        # Small batch into a huge accumulator: the dense histogram's
        # O(size) transient dwarfs the scatter, so fall back to the
        # buffered element-wise scatter on the flat view.
        if weights is None:
            np.add.at(out.reshape(-1), flat, 1)
        elif np.issubdtype(out.dtype, np.integer):
            np.add.at(out.reshape(-1), flat, weights.astype(out.dtype, copy=False))
        else:
            np.add.at(out.reshape(-1), flat, np.asarray(weights, dtype=np.float64))
        return
    if weights is None:
        binned = np.bincount(flat, minlength=size)
    else:
        # The float64 intermediate is exact for the ±1 unit payloads
        # of the sketch hot path: every partial sum is an integer of
        # magnitude at most len(weights) < 2**53.
        binned = np.bincount(
            flat, weights=np.asarray(weights, dtype=np.float64), minlength=size
        )
    out += binned.reshape(out.shape).astype(out.dtype, copy=False)


def _flat_indices(out: np.ndarray, indices: Sequence[np.ndarray]) -> Tuple[np.ndarray, int]:
    """Ravel a tuple of per-axis index arrays into flat int64 offsets.

    The int64 widening is load-bearing, not cosmetic: with int32 index
    inputs and an accumulator of more than ``2**31`` cells (e.g. the
    ``(k, m_left, m_right)`` middle tensors at chain scale), the
    positional multiply would wrap and silently scatter into the wrong
    cells.  Each axis term is converted *before* the multiply so the
    arithmetic never runs in a narrower dtype.
    """
    if len(indices) != out.ndim:
        raise ValueError(
            f"need one index array per accumulator axis ({out.ndim}), got {len(indices)}"
        )
    flat = np.asarray(indices[0], dtype=np.int64)
    for axis in range(1, out.ndim):
        flat = flat * np.int64(out.shape[axis]) + np.asarray(
            indices[axis], dtype=np.int64
        )
    return flat, out.size


def _accumulate(
    out: np.ndarray, indices: Sequence[np.ndarray], weights: Optional[np.ndarray]
) -> np.ndarray:
    """Flatten, then scatter with :func:`bincount_accumulate`."""
    flat, _ = _flat_indices(out, indices)
    if not flat.size:
        return out
    if not out.flags.c_contiguous:
        # Exotic accumulator views cannot be raveled without copying (a
        # copy would lose the update).  Sparse batches take the
        # index-tuple scatter; fat batches stage the histogram in a
        # contiguous zero buffer and fold it in with one element-wise add
        # (valid for any layout), keeping the ~10x bincount advantage.
        if flat.size * SPARSE_RATIO < out.size:
            np.add.at(
                out,
                tuple(np.asarray(i) for i in indices),
                1 if weights is None else weights,
            )
        else:
            staged = np.zeros(out.shape, dtype=out.dtype)
            bincount_accumulate(staged, flat, weights)
            out += staged
        return out
    bincount_accumulate(out, flat, weights)
    return out


def scatter_add(out: np.ndarray, indices: Sequence[np.ndarray], weights: np.ndarray) -> np.ndarray:
    """``out[indices] += weights`` with repeated indices.

    Drop-in replacement for ``np.add.at(out, tuple(indices), weights)`` on
    float accumulators.  Returns ``out``.
    """
    if np.issubdtype(out.dtype, np.integer):
        # np.add.at raises on float-into-int; the histogram would
        # silently truncate instead, so keep the loud failure here.
        raise TypeError(
            "scatter_add writes float weights; integer accumulators take "
            "scatter_add_signed_units or scatter_count"
        )
    return _accumulate(out, indices, np.asarray(weights, dtype=np.float64))


def scatter_add_signed_units(
    out: np.ndarray, indices: Sequence[np.ndarray], ys: np.ndarray
) -> np.ndarray:
    """``out[indices] += ys`` for ``ys in {-1, +1}`` on integer accumulators.

    Exact bit-for-bit with integer ``np.add.at`` (see module
    docstring).  Returns ``out``.
    """
    return _accumulate(out, indices, np.asarray(ys))


def scatter_count(out: np.ndarray, indices: Sequence[np.ndarray]) -> np.ndarray:
    """``out[indices] += 1`` with repeated indices. Returns ``out``."""
    return _accumulate(out, indices, None)
