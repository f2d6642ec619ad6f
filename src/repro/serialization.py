"""Compact JSON-safe ndarray serialisation.

A nested Python list (``array.tolist()``) costs ~20 bytes of JSON per
float and an O(elements) Python-object round-trip on both ends.  The
codec here instead embeds the raw C-order array bytes as base64 with an
explicit dtype/shape header — about 11 bytes per float64 after base64
expansion, zero per-element Python work, and still plain JSON.
:func:`decode_array` reads only that packed form.
"""

from __future__ import annotations

import base64
from typing import Any, Dict

import numpy as np

from .errors import ParameterError

__all__ = ["encode_array", "decode_array"]

#: Marker of a packed payload.
_FORMAT = "ndarray/base64"


def encode_array(array: np.ndarray) -> Dict[str, Any]:
    """Pack an ndarray into a JSON-compatible dict.

    The payload records the dtype string, the shape, and the raw C-order
    bytes base64-encoded.  Integer arrays are narrowed losslessly to the
    smallest width holding their value range before packing (sketch
    accumulators hold small signed counts, so this typically shrinks the
    wire bytes 4-8x); :func:`decode_array` widens them back.  Only
    native-byte-order numeric dtypes are supported (everything this
    library serialises).
    """
    array = np.ascontiguousarray(array)
    if np.issubdtype(array.dtype, np.signedinteger) and array.size:
        low, high = int(array.min()), int(array.max())
        for narrow in (np.int8, np.int16, np.int32):
            info = np.iinfo(narrow)
            if info.min <= low and high <= info.max:
                array = array.astype(narrow)
                break
    if array.dtype.byteorder not in ("=", "|", "<"):
        array = array.astype(array.dtype.newbyteorder("<"))
    return {
        "format": _FORMAT,
        "dtype": array.dtype.str,
        "shape": list(array.shape),
        "data": base64.b64encode(array.tobytes()).decode("ascii"),
    }


def decode_array(payload: Dict[str, Any], dtype: np.dtype) -> np.ndarray:
    """Unpack :func:`encode_array` output.

    ``dtype`` is the accumulator dtype the caller expects; the decoded
    array is cast to it (a no-op when the dtypes already match).  Any
    other payload, such as a bare nested list, raises
    :class:`~repro.errors.ParameterError`.
    """
    if not isinstance(payload, dict):
        raise ParameterError(
            f"array payload must be a {_FORMAT!r} format object, "
            f"got a {type(payload).__name__}"
        )
    if payload.get("format") != _FORMAT:
        raise ParameterError(f"unknown array payload format {payload.get('format')!r}")
    raw = base64.b64decode(payload["data"])
    stored = np.dtype(payload["dtype"])
    shape = tuple(int(s) for s in payload["shape"])
    count = int(np.prod(shape, dtype=np.int64)) if shape else 1
    if len(raw) != count * stored.itemsize:
        raise ParameterError(
            f"array payload holds {len(raw)} bytes, expected "
            f"{count * stored.itemsize} for shape {shape} dtype {stored}"
        )
    array = np.frombuffer(raw, dtype=stored).reshape(shape)
    # np.frombuffer views are read-only; always hand back a writable copy.
    return np.array(array, dtype=dtype)
