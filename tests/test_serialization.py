"""Serialisation round-trips for sketches and their hash substrate.

A sketch has no wire form of its own: it travels as the int64 sum of its
``(y, j, l)`` reports in a :class:`PartialAggregate`, beside the
published hash pairs, and :meth:`LDPJoinSketch.from_raw` rebuilds it.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import LDPJoinSketch, SketchParams, build_sketch, encode_reports
from repro.distributed import PartialAggregate
from repro.hashing import HashPairs

from .conftest import zipf_values


def ship(reports, pairs):
    """The JSON texts another process receives for ``reports``' sketch:
    its raw accumulator in a partial, and the published pairs."""
    raw = np.zeros((pairs.k, pairs.m), dtype=np.int64)
    np.add.at(raw, (reports.rows, reports.cols), reports.ys)
    partial = PartialAggregate(
        "ldp-join-sketch",
        {"k": pairs.k, "m": pairs.m},
        {"raw": raw},
        counters={"num_reports": len(reports)},
    )
    return json.dumps(partial.to_dict()), json.dumps(pairs.to_dict())


def receive(params, partial_text, pairs_text):
    """The sketch rebuilt from :func:`ship`'s texts alone."""
    partial = PartialAggregate.from_dict(json.loads(partial_text))
    return LDPJoinSketch.from_raw(
        params,
        HashPairs.from_dict(json.loads(pairs_text)),
        partial.arrays["raw"],
        int(partial.counters["num_reports"]),
    )


class TestLDPJoinSketchSerialization:
    def _reports(self):
        params = SketchParams(k=3, m=32, epsilon=4.0)
        pairs = HashPairs(params.k, params.m, seed=1)
        values = zipf_values(2_000, 64, 1.3, seed=2)
        return params, pairs, encode_reports(values, params, pairs, 3)

    def test_roundtrip_preserves_state(self):
        params, pairs, reports = self._reports()
        sketch = build_sketch(reports, pairs)
        clone = receive(params, *ship(reports, pairs))
        assert np.array_equal(clone.counts, sketch.counts)
        assert clone.params == sketch.params
        assert clone.pairs == sketch.pairs
        assert clone.num_reports == sketch.num_reports

    def test_payload_is_json_compatible(self):
        params, pairs, reports = self._reports()
        partial_text, pairs_text = ship(reports, pairs)
        restored = receive(params, partial_text, pairs_text)
        assert restored.num_reports == build_sketch(reports, pairs).num_reports

    def test_restored_sketch_is_joinable_with_original(self):
        params = SketchParams(k=3, m=64, epsilon=8.0)
        pairs = HashPairs(params.k, params.m, seed=4)
        a = zipf_values(5_000, 64, 1.3, seed=5)
        b = zipf_values(5_000, 64, 1.3, seed=6)
        reports_a = encode_reports(a, params, pairs, 7)
        sketch_a = build_sketch(reports_a, pairs)
        sketch_b = build_sketch(encode_reports(b, params, pairs, 8), pairs)
        direct = sketch_a.join_size(sketch_b)
        revived = receive(params, *ship(reports_a, pairs))
        assert revived.join_size(sketch_b) == pytest.approx(direct)

    def test_frequencies_survive_roundtrip(self):
        params, pairs, reports = self._reports()
        sketch = build_sketch(reports, pairs)
        clone = receive(params, *ship(reports, pairs))
        candidates = np.arange(20)
        assert np.allclose(clone.frequencies(candidates), sketch.frequencies(candidates))
