"""Fused encode→accumulate path: bit-for-bit equivalence + memory bounds.

The fused kernel (:func:`repro.core.client.encode_reports_into`) and the
bincount aggregation helpers replace the batched-encode + ``np.add.at``
pipeline.  These tests pin the replacements to the reference paths under
identical seeds — including odd chunk boundaries — and verify the fused
path's chunk-bounded memory claim with tracemalloc.
"""

from __future__ import annotations

import json
import tracemalloc

import numpy as np
import pytest

from repro.accumulate import scatter_add, scatter_add_signed_units, scatter_count
from repro.api import JoinSession
from repro.core import (
    SketchParams,
    build_sketch,
    encode_report,
    encode_reports,
    encode_reports_into,
)
from repro.errors import ParameterError
from repro.hashing import HashPairs
from repro.serialization import decode_array, encode_array


@pytest.fixture
def params():
    return SketchParams(k=5, m=64, epsilon=3.0)


@pytest.fixture
def pairs(params):
    return HashPairs(params.k, params.m, seed=101)


def _reference_accumulate(batch, params):
    """The pre-fused reference: ``np.add.at`` on an integer accumulator."""
    out = np.zeros((params.k, params.m), dtype=np.int64)
    np.add.at(
        out,
        (batch.rows.astype(np.int64), batch.cols.astype(np.int64)),
        batch.ys.astype(np.int64),
    )
    return out


class TestScatterHelpers:
    def test_scatter_add_matches_add_at(self):
        rng = np.random.default_rng(0)
        out = rng.normal(size=(7, 33))
        expected = out.copy()
        rows = rng.integers(0, 7, size=5_000)
        cols = rng.integers(0, 33, size=5_000)
        weights = rng.normal(size=5_000)
        np.add.at(expected, (rows, cols), weights)
        scatter_add(out, (rows, cols), weights)
        np.testing.assert_allclose(out, expected, rtol=1e-12)

    def test_scatter_add_signed_units_exact(self):
        rng = np.random.default_rng(1)
        out = np.zeros((4, 16, 8), dtype=np.int64)
        expected = out.copy()
        idx = tuple(rng.integers(0, s, size=20_000) for s in out.shape)
        ys = rng.choice(np.array([-1, 1], dtype=np.int8), size=20_000)
        np.add.at(expected, idx, ys.astype(np.int64))
        scatter_add_signed_units(out, idx, ys)
        assert np.array_equal(out, expected)

    def test_scatter_count_exact(self):
        rng = np.random.default_rng(2)
        out = np.zeros((512, 9), dtype=np.int64)
        expected = out.copy()
        idx = (rng.integers(0, 512, size=30_000), rng.integers(0, 9, size=30_000))
        np.add.at(expected, idx, 1)
        scatter_count(out, idx)
        assert np.array_equal(out, expected)

    def test_empty_updates_are_noops(self):
        out = np.ones((3, 4), dtype=np.int64)
        scatter_add_signed_units(
            out, (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)), np.zeros(0)
        )
        scatter_count(out, (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)))
        assert np.array_equal(out, np.ones((3, 4), dtype=np.int64))

    def test_index_arity_checked(self):
        with pytest.raises(ValueError, match="one index array per"):
            scatter_count(np.zeros((2, 2), dtype=np.int64), (np.zeros(1, dtype=np.int64),))


class TestFusedEquivalence:
    @pytest.mark.parametrize("n,chunk_size", [
        (10_000, 4_096),   # n not divisible by chunk_size
        (10_000, 10_000),  # exactly one chunk
        (10_000, 64_000),  # chunk larger than n
        (10_000, 1),       # degenerate chunking
        (10_000, 3_333),   # odd chunk with remainder
        (1, 4_096),        # single client
        (0, 4_096),        # empty batch
    ])
    def test_bit_for_bit_against_chunked_encode_reports(self, params, pairs, n, chunk_size):
        values = np.random.default_rng(7).integers(0, 5_000, size=n)
        out = np.zeros((params.k, params.m), dtype=np.int64)
        count = encode_reports_into(
            values, params, pairs, out, np.random.default_rng(42), chunk_size=chunk_size
        )
        assert count == n
        # Reference: the same chunks through encode_reports + np.add.at,
        # consuming the same generator stream.
        reference = np.zeros((params.k, params.m), dtype=np.int64)
        rng = np.random.default_rng(42)
        for start in range(0, n, chunk_size):
            batch = encode_reports(values[start : start + chunk_size], params, pairs, rng)
            reference += _reference_accumulate(batch, params)
        assert np.array_equal(out, reference)

    def test_single_chunk_matches_single_batch(self, params, pairs):
        """chunk_size >= n reproduces the one-shot encode_reports stream."""
        values = np.random.default_rng(8).integers(0, 5_000, size=2_500)
        out = np.zeros((params.k, params.m), dtype=np.int64)
        encode_reports_into(
            values, params, pairs, out, np.random.default_rng(9), chunk_size=1 << 20
        )
        batch = encode_reports(values, params, pairs, np.random.default_rng(9))
        assert np.array_equal(out, _reference_accumulate(batch, params))

    def test_batched_encode_matches_scalar_reference(self, params, pairs):
        """encode_reports stays pinned to the scalar Algorithm 1 formula."""
        h_free = SketchParams(params.k, params.m, 100.0)  # no flips
        values = np.arange(40)
        batch = encode_reports(values, h_free, pairs, np.random.default_rng(3))
        for i, d in enumerate(values):
            y, j, l = int(batch.ys[i]), int(batch.rows[i]), int(batch.cols[i])
            # Scalar re-derivation of the payload for the sampled (j, l).
            bucket = int(pairs.bucket(j, np.asarray([d]))[0])
            sign = int(pairs.sign(j, np.asarray([d]))[0])
            from repro.transform import hadamard_entry

            assert y == sign * hadamard_entry(bucket, l, h_free.m)

    def test_scalar_encode_report_unchanged(self, params, pairs):
        out1 = encode_report(17, params, pairs, np.random.default_rng(5))
        out2 = encode_report(17, params, pairs, np.random.default_rng(5))
        assert out1 == out2
        y, j, l = out1
        assert y in (-1, 1) and 0 <= j < params.k and 0 <= l < params.m

    def test_build_sketch_matches_fused_session(self, params, pairs):
        """Oracle/sketch construction is unchanged by the fused rewiring."""
        values = np.random.default_rng(11).integers(0, 1_000, size=6_000)
        batch = encode_reports(values, params, pairs, np.random.default_rng(12))
        direct = build_sketch(batch, pairs)
        session = JoinSession(params, pairs=[pairs]).collect("A", batch)
        np.testing.assert_allclose(direct.counts, session.sketch("A").counts, rtol=1e-12)

    def test_merge_results_unchanged_by_fused_ingestion(self, params):
        """Sharded sessions reproduce the single-collector accumulator."""
        coordinator = JoinSession(params, seed=21)
        s1 = coordinator.spawn_shard()
        s2 = coordinator.spawn_shard()
        rng = np.random.default_rng(22)
        a1, a2 = rng.integers(0, 500, size=9_000), rng.integers(0, 500, size=4_321)
        s1.collect("A", a1, seed=31)
        s2.collect("A", a2, seed=32)
        merged = s1.merge(s2)
        single = coordinator.spawn_shard()
        single.collect("A", a1, seed=31).collect("A", a2, seed=32)
        assert np.array_equal(
            merged._streams["A"].raw, single._streams["A"].raw
        )

    def test_out_validation(self, params, pairs):
        with pytest.raises(ParameterError, match="integer ndarray"):
            encode_reports_into([1], params, pairs, np.zeros((params.k, params.m)))
        with pytest.raises(ParameterError, match="does not match"):
            encode_reports_into(
                [1], params, pairs, np.zeros((params.k, params.m + 1), dtype=np.int64)
            )
        with pytest.raises(ParameterError, match="chunk_size"):
            encode_reports_into(
                [1],
                params,
                pairs,
                np.zeros((params.k, params.m), dtype=np.int64),
                chunk_size=0,
            )


class TestChunkBoundedMemory:
    def test_fused_path_peak_memory_is_chunk_bounded(self):
        """No O(n) allocations: peak transient memory tracks chunk_size, not n."""
        params = SketchParams(k=6, m=256, epsilon=3.0)
        pairs = HashPairs(params.k, params.m, seed=55)
        chunk_size = 4_096
        n = 600_000
        values = np.random.default_rng(0).integers(0, 10_000, size=n)
        out = np.zeros((params.k, params.m), dtype=np.int64)
        # Warm up lazy imports/caches so they don't count against the peak.
        encode_reports_into(values[:chunk_size], params, pairs, out, 1, chunk_size=chunk_size)
        tracemalloc.start()
        encode_reports_into(values, params, pairs, out, 2, chunk_size=chunk_size)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        # The per-chunk pipeline allocates a few dozen chunk-sized arrays
        # (~100 bytes/client); an O(n) path would need >= 3 n-sized int64
        # arrays = 14.4 MB.  Bound the peak well below that, scaled to the
        # chunk: 4096 clients x 400 bytes = 1.6 MB plus the accumulator.
        assert peak < chunk_size * 400 + out.nbytes
        # And the bound must not scale with n: re-running at double n
        # stays under the same ceiling.
        doubled = np.concatenate([values, values])
        tracemalloc.start()
        encode_reports_into(doubled, params, pairs, out, 3, chunk_size=chunk_size)
        _, peak2 = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak2 < chunk_size * 400 + out.nbytes


class TestSerializationCompat:
    def test_session_roundtrips_old_list_payloads(self, params):
        session = JoinSession(params, seed=61)
        session.collect("A", np.random.default_rng(62).integers(0, 300, size=3_000))
        payload = session.to_dict()
        # Downgrade to the legacy wire format: nested lists.
        for entry in payload["streams"].values():
            entry["raw"] = decode_array(entry["raw"], np.int64).tolist()
        restored = JoinSession.from_dict(json.loads(json.dumps(payload)))
        assert np.array_equal(
            restored._streams["A"].raw, session._streams["A"].raw
        )

    def test_sketch_roundtrips_old_list_payloads(self, params, pairs):
        values = np.random.default_rng(63).integers(0, 300, size=3_000)
        sketch = build_sketch(
            encode_reports(values, params, pairs, np.random.default_rng(64)), pairs
        )
        payload = sketch.to_dict()
        payload["counts"] = decode_array(payload["counts"], np.float64).tolist()
        from repro.core import LDPJoinSketch

        restored = LDPJoinSketch.from_dict(json.loads(json.dumps(payload)))
        assert np.array_equal(restored.counts, sketch.counts)

    def test_packed_format_roundtrip_exact(self):
        rng = np.random.default_rng(65)
        for arr in (
            rng.integers(-3, 4, size=(5, 7)),
            rng.integers(-(2**40), 2**40, size=(3,)),
            rng.normal(size=(4, 4)),
            np.zeros((2, 0), dtype=np.int64),
        ):
            decoded = decode_array(json.loads(json.dumps(encode_array(arr))), arr.dtype)
            assert decoded.dtype == arr.dtype
            assert np.array_equal(decoded, arr)
            decoded += 1  # must be writable

    def test_unknown_format_rejected(self):
        with pytest.raises(ParameterError, match="format"):
            decode_array({"format": "mystery", "data": ""}, np.int64)

    def test_narrowed_integers_survive(self):
        arr = np.array([[-128, 127], [0, 1]], dtype=np.int64)
        payload = encode_array(arr)
        assert payload["dtype"] == "|i1"
        assert np.array_equal(decode_array(payload, np.int64), arr)


class TestFlatIndexInt64Guard:
    """Flat offsets must be computed in int64 even from int32 index input.

    Regression guard for the ``k * m * chunk > 2**31`` regime: a
    ``(2**17, 2**15)`` accumulator has ``2**32`` cells, so raveling an
    int32 row/col pair in the index dtype would wrap negative.  The
    accumulator is a zero-strided phantom (no 4 GiB allocation) — only
    the shape arithmetic is under test.
    """

    def test_flat_indices_int64_beyond_2_31(self):
        from repro.accumulate import _flat_indices

        out = np.lib.stride_tricks.as_strided(
            np.zeros(1, dtype=np.int8), shape=(1 << 17, 1 << 15), strides=(0, 0)
        )
        rows = np.array([1 << 16, (1 << 17) - 1], dtype=np.int32)
        cols = np.array([5, (1 << 15) - 1], dtype=np.int32)
        flat, size = _flat_indices(out, (rows, cols))
        assert size == 1 << 32
        assert flat.dtype == np.int64
        expected = rows.astype(np.int64) * (1 << 15) + cols.astype(np.int64)
        assert np.array_equal(flat, expected)
        assert flat[0] == (1 << 31) + 5  # would wrap negative in int32
        assert flat[1] == (1 << 32) - 1

    def test_three_axis_middle_tensor_shape(self):
        from repro.accumulate import _flat_indices

        # (k, m_left, m_right) middle tensor crossing 2**31 cells.
        out = np.lib.stride_tricks.as_strided(
            np.zeros(1, dtype=np.int8),
            shape=(18, 1 << 14, 1 << 14),
            strides=(0, 0, 0),
        )
        replicas = np.array([17], dtype=np.int32)
        left = np.array([(1 << 14) - 1], dtype=np.int32)
        right = np.array([(1 << 14) - 1], dtype=np.int32)
        flat, size = _flat_indices(out, (replicas, left, right))
        assert flat[0] == 18 * (1 << 28) - 1
        assert flat[0] > np.iinfo(np.int32).max
