"""Exponentially time-decayed estimation over per-epoch accumulators.

A decayed join-size query weights each epoch's contribution by
``lambda^age`` (``age`` 0 for the newest epoch) with a *rational* decay
factor ``lambda = numerator / denominator``.  Floats never touch the
accumulators: with ``A`` the maximum age, the integer weight

    ``w(age) = numerator^age * denominator^(A - age)``

equals ``denominator^A * lambda^age`` exactly, so the weighted sum of
int64 epoch accumulators is itself an exact int64 array and the whole
combination stays deterministic across platforms and merge orders.  The
estimator pipeline (debias scale, FWHT, Eq. (5) median of row inner
products) is linear in each stream's accumulator, so running it on the
weighted sums yields ``denominator^(2A)`` times the decayed estimate —
one exact integer division at the very end undoes the scaling.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..backend import use_backend
from ..core.params import SketchParams
from ..core.server import LDPJoinSketch
from ..distributed.partial import PartialAggregate
from ..errors import ParameterError, ProtocolError
from ..hashing import HashPairs

__all__ = ["decay_weights", "combine_decayed", "decayed_join_estimate"]

#: Per-term headroom bound: every ``weight * |cell|`` product (and their
#: running sum) must stay below this to rule out int64 wraparound.
_INT64_HEADROOM = 2**62


def decay_weights(count: int, numerator: int, denominator: int) -> List[int]:
    """Integer decay weights of ``count`` epochs, oldest first.

    Entry ``i`` (age ``count - 1 - i``) is
    ``numerator^(count-1-i) * denominator^i`` — exactly
    ``denominator^(count-1) * (numerator/denominator)^age`` as Python
    ints of unbounded precision.
    """
    if int(count) < 1:
        raise ParameterError(f"count must be >= 1, got {count}")
    numerator, denominator = _validate_decay(numerator, denominator)
    max_age = int(count) - 1
    return [
        numerator ** (max_age - i) * denominator**i for i in range(int(count))
    ]


def _validate_decay(numerator: int, denominator: int) -> Tuple[int, int]:
    numerator, denominator = int(numerator), int(denominator)
    if numerator < 1 or denominator < 1:
        raise ParameterError(
            f"decay must be a positive rational, got {numerator}/{denominator}"
        )
    if numerator > denominator:
        raise ParameterError(
            f"decay factor must not exceed 1, got {numerator}/{denominator}"
        )
    return numerator, denominator


def combine_decayed(
    arrays: Sequence[Optional[np.ndarray]], weights: Sequence[int]
) -> np.ndarray:
    """Exact ``sum_i weights[i] * arrays[i]`` on int64 accumulators.

    ``None`` entries (epochs in which the stream saw no reports)
    contribute zero.  Raises :class:`~repro.errors.ParameterError`
    instead of silently wrapping when a product could leave int64 —
    deepen the denominator or shorten the window rather than trust a
    wrapped estimate.
    """
    if len(arrays) != len(weights):
        raise ParameterError(
            f"{len(arrays)} arrays but {len(weights)} weights"
        )
    shaped = [a for a in arrays if a is not None]
    if not shaped:
        raise ParameterError("cannot combine an all-empty array list")
    shape = shaped[0].shape
    terms = sum(1 for a in arrays if a is not None)
    combined = np.zeros(shape, dtype=np.int64)
    for array, weight in zip(arrays, weights):
        if array is None:
            continue
        if array.shape != shape:
            raise ParameterError(
                f"accumulator shaped {array.shape} does not match {shape}"
            )
        weight = int(weight)
        peak = int(np.abs(array).max(initial=0)) * weight
        if peak > _INT64_HEADROOM // max(terms, 1):
            raise ParameterError(
                f"decayed combination would overflow int64 (peak term "
                f"{peak} across {terms} epochs); use a shorter window or "
                f"a smaller decay denominator"
            )
        combined += array * np.int64(weight)
    return combined


def decayed_join_estimate(
    partials: Sequence[Tuple[int, PartialAggregate]],
    *,
    params: SketchParams,
    pairs: Sequence[HashPairs],
    stream_a: str,
    stream_b: str,
    decay: Tuple[int, int],
    backend=None,
) -> float:
    """Eq. (5) join-size estimate with per-epoch exponential decay.

    ``partials`` are ``(epoch, partial)`` pairs oldest first — the shape
    :meth:`~repro.temporal.TemporalSession.window_entries` returns.  The
    newest epoch has age 0; epoch ``e``'s reports are weighted
    ``(decay[0]/decay[1]) ** age`` exactly (see module docstring).
    """
    if not partials:
        raise ParameterError("decayed estimate needs at least one epoch")
    if stream_a == stream_b:
        raise ProtocolError(
            "decayed_join_estimate needs two distinct streams; a stream "
            "joined with itself keeps its noise energy undebiased"
        )
    numerator, denominator = _validate_decay(*decay)
    weights = decay_weights(len(partials), numerator, denominator)
    sketches = []
    for name in (stream_a, stream_b):
        attribute: Optional[int] = None
        arrays: List[Optional[np.ndarray]] = []
        num_reports = 0
        for _, partial in partials:
            entry = partial.meta.get("streams", {}).get(name)
            if entry is None:
                arrays.append(None)
                continue
            if entry["kind"] != "end":
                raise ProtocolError(
                    f"stream {name!r} is a middle table; decayed estimates "
                    f"join two end tables"
                )
            if attribute is None:
                attribute = int(entry["attribute"])
            elif attribute != int(entry["attribute"]):
                raise ProtocolError(
                    f"stream {name!r} is bound to different join attributes "
                    f"across epochs"
                )
            arrays.append(partial.arrays[f"stream:{name}:raw"])
            num_reports += int(partial.counters[f"stream:{name}:num_reports"])
        if attribute is None:
            raise ProtocolError(
                f"stream {name!r} has no reports in any epoch of the window"
            )
        stream_params = SketchParams(params.k, pairs[attribute].m, params.epsilon)
        combined = combine_decayed(arrays, weights)
        with use_backend(backend):
            sketches.append(
                LDPJoinSketch.from_raw(stream_params, pairs[attribute], combined, num_reports)
            )
    raw_estimate = sketches[0].join_size(sketches[1])
    return float(raw_estimate) / float(denominator ** (2 * (len(partials) - 1)))
