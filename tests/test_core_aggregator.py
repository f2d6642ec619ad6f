"""Streaming aggregation of wire report batches.

:class:`repro.api.JoinSession` is the one aggregator: it folds pre-encoded
:class:`~repro.core.ReportBatch` cohorts into int64 accumulators and builds
sketches on query through :meth:`~repro.core.LDPJoinSketch.from_raw`.  These
tests hold it to the core batch builder :func:`repro.core.build_sketch` and
to its ingest, caching and merge contract.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import JoinSession
from repro.core import ReportBatch, SketchParams, build_sketch, encode_reports
from repro.errors import IncompatibleSketchError, ParameterError, ProtocolError
from repro.hashing import HashPairs

from .conftest import zipf_values


@pytest.fixture
def setup():
    params = SketchParams(k=3, m=64, epsilon=4.0)
    pairs = HashPairs(params.k, params.m, seed=1)
    return params, pairs


def _session(params, pairs) -> JoinSession:
    return JoinSession(params, pairs=[pairs])


def _slice(reports: ReportBatch, lo: int, hi: int) -> ReportBatch:
    return ReportBatch(
        reports.ys[lo:hi], reports.rows[lo:hi], reports.cols[lo:hi], reports.params
    )


class TestIngestion:
    def test_incremental_equals_batch(self, setup):
        params, pairs = setup
        values = zipf_values(5_000, 100, 1.3, seed=2)
        reports = encode_reports(values, params, pairs, 3)
        batch_sketch = build_sketch(reports, pairs)

        session = _session(params, pairs)
        third = len(reports) // 3
        session.collect("A", _slice(reports, 0, third))
        session.collect("A", _slice(reports, third, len(reports)))
        # Integer accumulation is exact and both paths share one
        # raw->sketch step, so batch boundaries leave no trace.
        np.testing.assert_array_equal(session.sketch("A").counts, batch_sketch.counts)
        assert session.num_reports("A") == batch_sketch.num_reports

    def test_ingest_many(self, setup):
        params, pairs = setup
        batches = [
            encode_reports(zipf_values(500, 50, 1.1, seed=s), params, pairs, s)
            for s in range(4)
        ]
        session = _session(params, pairs)
        for batch in batches:
            session.collect("A", batch)
        assert session.num_reports("A") == 2_000
        merged = build_sketch(batches[0], pairs)
        for batch in batches[1:]:
            merged = merged.merge(build_sketch(batch, pairs))
        # Merged sketches sum four transforms in float; near-zero cells carry
        # rounding only, so the tolerance is absolute, scaled to the sketch.
        np.testing.assert_allclose(
            session.sketch("A").counts,
            merged.counts,
            rtol=1e-9,
            atol=1e-9 * float(np.abs(merged.counts).max()),
        )

    def test_param_mismatch_rejected(self, setup):
        params, pairs = setup
        wide = SketchParams(params.k, 2 * params.m, params.epsilon)
        reports = encode_reports([1, 2], wide, HashPairs(wide.k, wide.m, 4), 4)
        session = _session(params, pairs)
        with pytest.raises(IncompatibleSketchError, match="do not match"):
            session.collect("A", reports)
        # A refused batch spends no budget and leaves nothing to query.
        assert session.ledger.charges == []
        assert session.num_reports("A") == 0

    def test_pairs_shape_validated(self, setup):
        params, _ = setup
        with pytest.raises(ParameterError, match="k=3"):
            JoinSession(params, pairs=[HashPairs(params.k + 1, params.m, 5)])

    def test_query_before_ingest_rejected(self, setup):
        params, pairs = setup
        session = _session(params, pairs)
        with pytest.raises(ProtocolError, match="two end streams"):
            session.estimate()
        empty = encode_reports(np.zeros(0, dtype=np.int64), params, pairs, 5)
        session.collect("A", empty)
        with pytest.raises(ProtocolError, match="no reports"):
            session.sketch("A")


class TestCachingAndQueries:
    def test_sketch_cached_until_new_data(self, setup):
        params, pairs = setup
        session = _session(params, pairs)
        session.collect("A", encode_reports([1, 2, 3], params, pairs, 6))
        first = session.sketch("A")
        assert session.sketch("A") is first  # cached
        session.collect("A", encode_reports([4], params, pairs, 7))
        second = session.sketch("A")
        assert second is not first  # invalidated by collect
        shard = _session(params, pairs)
        shard.collect("A", encode_reports([5], params, pairs, 8))
        session.merge(shard)
        assert session.sketch("A") is not second  # invalidated by merge
        assert session.num_reports("A") == 5

    def test_join_between_aggregators(self, setup):
        params, pairs = setup
        a = zipf_values(20_000, 128, 1.4, seed=8)
        b = zipf_values(20_000, 128, 1.4, seed=9)
        reports_a = encode_reports(a, params, pairs, 10)
        reports_b = encode_reports(b, params, pairs, 11)
        session = _session(params, pairs)
        session.collect("A", reports_a)
        session.collect("B", reports_b)
        direct = build_sketch(reports_a, pairs).join_size(build_sketch(reports_b, pairs))
        assert session.estimate("A", "B").estimate == pytest.approx(direct)

    def test_frequencies_passthrough(self, setup):
        params, pairs = setup
        values = np.full(3_000, 7, dtype=np.int64)
        session = _session(params, pairs)
        session.collect("A", encode_reports(values, params, pairs, 12))
        assert session.frequencies("A", np.asarray([7]))[0] == pytest.approx(
            session.sketch("A").frequency(7)
        )


class TestSharding:
    def test_merge_equals_single_collector(self, setup):
        params, pairs = setup
        values = zipf_values(4_000, 100, 1.2, seed=13)
        reports = encode_reports(values, params, pairs, 14)
        half = len(reports) // 2

        shard1 = _session(params, pairs).collect("A", _slice(reports, 0, half))
        shard2 = _session(params, pairs).collect("A", _slice(reports, half, len(reports)))
        # The second shard arrives over the wire as a partial aggregate.
        shard1.merge(shard2.to_partial())

        single = _session(params, pairs).collect("A", reports)
        np.testing.assert_array_equal(shard1.sketch("A").counts, single.sketch("A").counts)
        assert shard1.num_reports("A") == len(reports)

    def test_merge_requires_shared_pairs(self, setup):
        params, pairs = setup
        other = _session(params, HashPairs(params.k, params.m, 15))
        other.collect("A", [1, 2, 3], seed=16)
        session = _session(params, pairs)
        with pytest.raises(IncompatibleSketchError, match="hash pairs"):
            session.merge(other)
        with pytest.raises(IncompatibleSketchError, match="hash pairs"):
            session.merge(other.to_partial())

    def test_merge_type_checked(self, setup):
        params, pairs = setup
        session = _session(params, pairs)
        sketch = build_sketch(encode_reports([1, 2], params, pairs, 17), pairs)
        with pytest.raises(IncompatibleSketchError, match="LDPJoinSketch"):
            session.merge(sketch)
        with pytest.raises(IncompatibleSketchError):
            session.merge("not an aggregator")
