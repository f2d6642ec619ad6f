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

Decay ``1/1`` is the plain sliding window: every weight is 1, the sums
are the accumulators a merge of the window's epochs would hold, and the
estimate is bit for bit the merged session's.  The online service
answers its window queries this way, from the two queried streams'
arrays alone.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..api.session import check_session_partial, partial_streams, session_fingerprint
from ..core.params import SketchParams
from ..core.server import LDPJoinSketch
from ..distributed.partial import PartialAggregate
from ..errors import IncompatibleSketchError, ParameterError, ProtocolError
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
        # Python ints: -min cannot wrap as np.abs does at -2**63.
        peak = max(int(array.max(initial=0)), -int(array.min(initial=0))) * weight
        if peak > _INT64_HEADROOM // max(terms, 1):
            raise ParameterError(
                f"decayed combination would overflow int64 (peak term "
                f"{peak} across {terms} epochs); use a shorter window or "
                f"a smaller decay denominator"
            )
        combined += array if weight == 1 else array * np.int64(weight)
    return combined


def decayed_join_estimate(
    partials: Sequence[Tuple[int, PartialAggregate]],
    *,
    params: SketchParams,
    pairs: Sequence[HashPairs],
    stream_a: str,
    stream_b: str,
    decay: Tuple[int, int],
) -> Tuple[float, int]:
    """Eq. (5) join-size estimate with per-epoch exponential decay.

    ``partials`` are ``(epoch, partial)`` pairs oldest first — the shape
    :meth:`~repro.temporal.TemporalSession.window_entries` returns.  The
    newest epoch has age 0; epoch ``e``'s reports are weighted
    ``(decay[0]/decay[1]) ** age`` exactly (see module docstring).
    Returns ``(estimate, num_reports)``: ``num_reports`` counts both
    streams' reports over the window, unweighted.

    Only the two streams' entries are read.  Each partial must carry the
    fingerprint of a session on ``params`` and ``pairs``, as a merge
    would demand (:class:`~repro.errors.IncompatibleSketchError`), and a
    malformed stream entry raises
    :class:`~repro.errors.PartialIntegrityError`.
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
    fingerprint = session_fingerprint(params, pairs)
    for _, partial in partials:
        check_session_partial(fingerprint, partial)
    attribute, arrays_a, reports_a = _window_stream(partials, stream_a, len(pairs))
    attribute_b, arrays_b, reports_b = _window_stream(partials, stream_b, len(pairs))
    if attribute != attribute_b:
        raise ProtocolError(
            f"streams {stream_a!r} and {stream_b!r} are bound to different "
            f"join attributes"
        )
    stream_params = SketchParams(params.k, pairs[attribute].m, params.epsilon)
    combined_a = combine_decayed(arrays_a, weights)
    combined_b = combine_decayed(arrays_b, weights)
    sketch_a = LDPJoinSketch.from_raw(stream_params, pairs[attribute], combined_a, reports_a)
    sketch_b = LDPJoinSketch.from_raw(stream_params, pairs[attribute], combined_b, reports_b)
    raw_estimate = sketch_a.join_size(sketch_b)
    scaled = float(raw_estimate) / float(denominator ** (2 * (len(partials) - 1)))
    return scaled, reports_a + reports_b


def _window_stream(
    partials: Sequence[Tuple[int, PartialAggregate]], name: str, num_attributes: int
) -> Tuple[int, List[Optional[np.ndarray]], int]:
    """``(attribute, arrays, num_reports)`` of end stream ``name`` over the window.

    ``arrays`` holds one raw accumulator per epoch, ``None`` where the
    epoch saw no report of the stream.
    """
    attribute: Optional[int] = None
    arrays: List[Optional[np.ndarray]] = []
    reports = 0
    for _, partial in partials:
        stream = partial_streams(partial, [name]).get(name)
        if stream is None:
            arrays.append(None)
            continue
        kind, bound, raw, counts = stream
        if kind != "end":
            raise ProtocolError(
                f"stream {name!r} is a middle table; decayed estimates "
                f"join two end tables"
            )
        if attribute is None:
            attribute = bound
        elif attribute != bound:
            raise ProtocolError(
                f"stream {name!r} is bound to different join attributes "
                f"across epochs"
            )
        arrays.append(raw)
        reports += counts[0]
    if attribute is None or not reports:
        raise ProtocolError(
            f"stream {name!r} has no reports in any epoch of the window"
        )
    if not 0 <= attribute < num_attributes:
        raise IncompatibleSketchError(
            f"stream {name!r} is bound to attribute {attribute}, which the "
            f"{num_attributes}-attribute schema does not have"
        )
    return attribute, arrays, reports
