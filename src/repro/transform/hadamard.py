"""Walsh--Hadamard transform utilities.

The LDP protocols in this library (Algorithm 1 of the paper, the Apple-HCMS
baseline, and the multiway extension of Section VI) all rely on the
*naturally ordered* (Sylvester) Hadamard matrix ``H_m`` of a power-of-two
order ``m``:

.. math::

    H_1 = [1], \\qquad
    H_m = \\begin{pmatrix} H_{m/2} & H_{m/2} \\\\ H_{m/2} & -H_{m/2}
    \\end{pmatrix}

Three facts make the protocols cheap:

* individual entries have the closed form
  ``H_m[i, j] = (-1)^{popcount(i & j)}`` — a client never materialises the
  matrix, it evaluates one entry in O(1);
* ``H_m`` is symmetric and ``H_m @ H_m = m * I`` (so the inverse transform is
  the forward transform divided by ``m``);
* the matrix-vector product costs ``O(m log m)`` via the butterfly (the
  fast Walsh--Hadamard transform, FWHT), which the server uses to undo the
  client-side transform row by row.

The FWHT accepts either a single vector or a batch of row vectors;
:func:`fwht_inplace` validates its input and runs the constant-geometry
butterfly.
"""

from __future__ import annotations

import threading
from typing import Union

import numpy as np

from ..validation import require_power_of_two

__all__ = [
    "hadamard_entry",
    "hadamard_row",
    "hadamard_matrix",
    "fwht",
    "fwht_inplace",
    "sample_hadamard_entries",
    "sample_hadamard_parities",
]


def _build_parity_lut() -> np.ndarray:
    """Popcount-parity of every 16-bit word, built once at import."""
    v = np.arange(1 << 16, dtype=np.uint32)
    v ^= v >> 8
    v ^= v >> 4
    v ^= v >> 2
    v ^= v >> 1
    return (v & 1).astype(np.uint8)


#: 64 KiB popcount-parity lookup table (L2-resident) — one gather per
#: element replaces the last four XOR-fold passes of the word-parity
#: reduction.
_PARITY16 = _build_parity_lut()
_MASK16 = np.uint64(0xFFFF)


def _popcount_parity(x: np.ndarray, bits: int = 64, *, consume: bool = False) -> np.ndarray:
    """Return the parity (0 or 1) of the popcount of each element of ``x``.

    Folds each word down to 16 bits with the XOR identity
    ``parity(x) = parity(x ^ (x >> s))``, skipping folds above the stated
    bit width, then reads the answer from the precomputed 16-bit lookup
    table — sketch indices are ``log2(m)``-bit values, so the typical
    call is a single table gather with no fold passes at all.  ``x`` must
    be a non-negative integer array with values below ``2**bits`` (and
    below 2**63).  With ``consume=True`` the caller donates ``x`` as
    scratch (hot paths pass a freshly allocated array to fold fully in
    place); otherwise any applied fold allocates so the caller's buffer
    survives.
    """
    x = np.asarray(x)
    if x.dtype == np.int64:
        x = x.view(np.uint64)  # zero-copy; values are non-negative
        owned = consume
    elif x.dtype == np.uint64:
        owned = consume
    else:
        x = x.astype(np.uint64)
        owned = True
    for shift in (32, 16):
        if shift < bits:
            if owned:
                x ^= x >> np.uint64(shift)
            else:
                x = x ^ (x >> np.uint64(shift))
                owned = True
    return _PARITY16[np.bitwise_and(x, _MASK16)].astype(np.int64)


def hadamard_entry(i: Union[int, np.ndarray], j: Union[int, np.ndarray], order: int) -> Union[int, np.ndarray]:
    """Entry ``H_order[i, j]`` of the Sylvester Hadamard matrix.

    Supports broadcasting: ``i`` and ``j`` may be scalars or equally shaped
    arrays; the result is ``+1`` or ``-1`` (int64).

    >>> hadamard_entry(1, 1, 2)
    -1
    >>> hadamard_entry(0, 3, 4)
    1
    """
    order = require_power_of_two("order", order)
    i_arr = np.asarray(i, dtype=np.int64)
    j_arr = np.asarray(j, dtype=np.int64)
    if np.any(i_arr < 0) or np.any(i_arr >= order) or np.any(j_arr < 0) or np.any(j_arr >= order):
        raise IndexError(f"Hadamard indices must lie in [0, {order})")
    parity = _popcount_parity(np.bitwise_and(i_arr, j_arr))
    signs = 1 - 2 * parity
    if np.isscalar(i) and np.isscalar(j):
        return int(signs)
    return signs


def hadamard_row(i: int, order: int) -> np.ndarray:
    """Return row ``i`` of ``H_order`` as an int64 ``(-1/+1)`` vector."""
    order = require_power_of_two("order", order)
    cols = np.arange(order, dtype=np.int64)
    return np.asarray(hadamard_entry(int(i), cols, order), dtype=np.int64)


def hadamard_matrix(order: int) -> np.ndarray:
    """Materialise the full ``order x order`` Hadamard matrix (tests only).

    The matrix costs ``order**2`` memory; production code paths use
    :func:`hadamard_entry` / :func:`fwht` instead.
    """
    order = require_power_of_two("order", order)
    idx = np.arange(order, dtype=np.int64)
    return np.asarray(hadamard_entry(idx[:, None], idx[None, :], order), dtype=np.int64)


def fwht_inplace(data: np.ndarray) -> np.ndarray:
    """In-place fast Walsh--Hadamard transform along the last axis.

    ``data`` must be a float array whose last dimension is a power of two.
    Computes ``data @ H_m`` (equivalently ``H_m @ data`` per row, since the
    matrix is symmetric) without materialising ``H_m``.  Returns ``data``.
    """
    if data.ndim == 0:
        raise ValueError("fwht requires at least a 1-D array")
    if not np.issubdtype(data.dtype, np.floating):
        # An integer input would silently accumulate in integer arithmetic
        # (and a non-writable cast would corrupt the caller's buffer);
        # demand an explicit conversion instead.
        raise TypeError(
            f"fwht_inplace requires a float array, got dtype {data.dtype}; "
            f"convert with .astype(float) first (or use fwht for a copy)"
        )
    m = data.shape[-1]
    require_power_of_two("transform length", m)
    if m == 1:
        return data
    return _butterfly(data)


#: Per-thread scratch reused across :func:`_butterfly` calls — the
#: second buffer of the ping-pong is the transform's only transient, and
#: back-to-back sketch finalisations all need the same ``k * m`` floats.
#: Buffers above the cap are not retained so one giant transform cannot
#: pin memory for the rest of the process.
_SCRATCH = threading.local()
_SCRATCH_CACHE_MAX = 1 << 20  # elements (8 MiB of float64)


def _fwht_scratch(size: int, dtype: np.dtype) -> np.ndarray:
    buf = getattr(_SCRATCH, "buf", None)
    if buf is None or buf.dtype != dtype or buf.size < size:
        buf = np.empty(size, dtype=dtype)
        if size <= _SCRATCH_CACHE_MAX:
            _SCRATCH.buf = buf
    return buf[:size]


def _butterfly(data: np.ndarray) -> np.ndarray:
    """The butterfly behind :func:`fwht_inplace` (callers go through it).

    The constant-geometry (Pease) form: every pass reads the pairs
    ``(x[2i], x[2i+1])`` and writes ``a + b`` to slot ``i`` and
    ``a - b`` to slot ``i + m/2`` of the other buffer.  A pass thus
    combines the index bit at position 0 and rotates the bits right by
    one, so pass ``t`` combines bit ``t`` of the original index (bit 0
    first) and ``log2(m)`` passes restore the natural order.  Every
    element sees the same adds and subtracts, in the same order, as
    the in-place radix-2 butterfly that combines bit 0 first — the
    output is equal bit for bit — but each ufunc call runs over
    ``m/2`` elements of a row instead of ``h``-element blocks.  Data and one cached scratch
    buffer of the same size alternate as source and target; an odd
    pass count ends with one copy back into ``data``.
    """
    m = data.shape[-1]
    half = m // 2
    source = data
    target = _fwht_scratch(data.size, data.dtype).reshape(data.shape)
    for _ in range(m.bit_length() - 1):
        a = source[..., 0::2]
        b = source[..., 1::2]
        np.add(a, b, out=target[..., :half])
        np.subtract(a, b, out=target[..., half:])
        source, target = target, source
    if source is not data:
        data[...] = source
    return data


def fwht(data: np.ndarray) -> np.ndarray:
    """Return the Walsh--Hadamard transform of ``data`` (non-destructive).

    Works on a single vector or on a batch of rows; output dtype is float64.

    >>> fwht(np.array([1.0, 0.0]))
    array([1., 1.])
    """
    out = np.array(data, dtype=np.float64, copy=True)
    return fwht_inplace(out)


def sample_hadamard_entries(rows: np.ndarray, cols: np.ndarray, order: int) -> np.ndarray:
    """Vectorised ``H_order[rows[i], cols[i]]`` for report batches.

    This is the hot path of the batched client simulators: each client
    contributes one sampled Hadamard entry, so for ``n`` clients we evaluate
    ``n`` independent entries in one call.
    """
    return 1 - 2 * sample_hadamard_parities(rows, cols, order)


def sample_hadamard_parities(rows: np.ndarray, cols: np.ndarray, order: int) -> np.ndarray:
    """Parity bits of sampled Hadamard entries: ``0`` where the entry is +1.

    ``H_order[i, j] = (-1)^popcount(i & j)``, so the parity *is* the
    entry's sign bit.  The fused client path XORs this against the sign
    hash and flip-channel parities instead of multiplying three ``±1``
    arrays; the fold width is capped at ``log2(order)`` bits since
    ``i & j < order``.
    """
    order = require_power_of_two("order", order)
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    if rows.shape != cols.shape:
        raise ValueError(f"rows and cols must have the same shape, got {rows.shape} vs {cols.shape}")
    if rows.size and (
        rows.min() < 0 or rows.max() >= order or cols.min() < 0 or cols.max() >= order
    ):
        raise IndexError(f"Hadamard indices must lie in [0, {order})")
    # The AND result is freshly allocated, so donate it as fold scratch.
    return _popcount_parity(
        np.bitwise_and(rows, cols), bits=max(1, order.bit_length() - 1), consume=True
    )
