"""Tests for the LDPJoinSketch server (Algorithm 2) and its estimators.

The statistical tests here are the executable versions of the paper's
Theorems 2, 3 and 7 — expectations checked by Monte Carlo with fixed seeds
and >= 4-sigma tolerances.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import LDPJoinSketch, SketchParams, build_sketch, encode_reports
from repro.errors import IncompatibleSketchError, ParameterError
from repro.hashing import HashPairs
from repro.join import exact_join_size
from repro.sketches import FastAGMSSketch
from repro.transform import fwht, hadamard_matrix

from .conftest import zipf_values


class TestConstruction:
    def test_matches_literal_algorithm2(self, small_params, small_pairs):
        """build_sketch == accumulate(k c_eps y at [j,l]) then M @ H^T."""
        values = np.arange(20) % 11
        reports = encode_reports(values, small_params, small_pairs, 1)
        sketch = build_sketch(reports, small_pairs)

        raw = np.zeros((small_params.k, small_params.m))
        for y, j, l in zip(reports.ys, reports.rows, reports.cols):
            raw[j, l] += small_params.k * small_params.c_epsilon * y
        expected = raw @ hadamard_matrix(small_params.m).T
        assert np.allclose(sketch.counts, expected)

    def test_from_raw_scales_then_inverts(self, small_params, small_pairs):
        """from_raw: one float copy scaled by k c_eps, one FWHT; raw untouched."""
        raw = np.random.default_rng(3).integers(-40, 40, size=(small_params.k, small_params.m))
        before = raw.copy()
        sketch = LDPJoinSketch.from_raw(small_params, small_pairs, raw, 9)
        np.testing.assert_array_equal(sketch.counts, fwht(raw.astype(np.float64) * small_params.scale))
        np.testing.assert_array_equal(raw, before)
        assert sketch.num_reports == 9

    def test_num_reports_recorded(self, small_params, small_pairs):
        reports = encode_reports(np.arange(17), small_params, small_pairs, 2)
        assert build_sketch(reports, small_pairs).num_reports == 17

    def test_empty_reports(self, small_params, small_pairs):
        reports = encode_reports([], small_params, small_pairs)
        sketch = build_sketch(reports, small_pairs)
        assert not sketch.counts.any()

    def test_pairs_shape_validated(self, small_params):
        with pytest.raises(ParameterError, match="do not match"):
            LDPJoinSketch(small_params, HashPairs(small_params.k + 1, small_params.m, 1))

    def test_counts_shape_validated(self, small_params, small_pairs):
        with pytest.raises(ParameterError, match="counts"):
            LDPJoinSketch(small_params, small_pairs, np.zeros((1, 1)))

    def test_memory_bytes(self, small_params, small_pairs):
        sketch = LDPJoinSketch(small_params, small_pairs)
        assert sketch.memory_bytes() == small_params.k * small_params.m * 8


class TestExpectationTheorems:
    """Theorem 2 / Theorem 7: expected counts match the Fast-AGMS sketch."""

    def test_expected_counts_equal_fast_agms(self):
        params = SketchParams(k=3, m=16, epsilon=4.0)
        pairs = HashPairs(params.k, params.m, seed=3)
        values = zipf_values(3_000, 40, 1.2, seed=4)

        reference = FastAGMSSketch(pairs)
        reference.update_batch(values)

        total = np.zeros((params.k, params.m))
        runs = 80
        rng = np.random.default_rng(5)
        for _ in range(runs):
            reports = encode_reports(values, params, pairs, rng)
            total += build_sketch(reports, pairs).counts
        mean_counts = total / runs

        # Per-cell sd ~ sqrt(k c^2 F1) / sqrt(runs) ~ 11; tolerance 6 sd.
        assert np.all(np.abs(mean_counts - reference.counts) < 66)

    def test_frequency_unbiased_theorem7(self):
        params = SketchParams(k=3, m=16, epsilon=3.0)
        pairs = HashPairs(params.k, params.m, seed=6)
        heavy, count = 7, 4_000
        values = np.concatenate(
            [np.full(count, heavy, dtype=np.int64), zipf_values(2_000, 40, 1.1, 7)]
        )
        rng = np.random.default_rng(8)
        estimates = [
            build_sketch(encode_reports(values, params, pairs, rng), pairs).frequency(heavy)
            for _ in range(60)
        ]
        mean = float(np.mean(estimates))
        sem = float(np.std(estimates) / np.sqrt(len(estimates)))
        # Fixed hashes leave a small collision offset of order F1/m ~ 375/m;
        # allow 5 SEM plus that offset.
        assert abs(mean - count) < 5 * sem + 6_000 / params.m

    def test_join_rows_unbiased_theorem3(self):
        params = SketchParams(k=2, m=32, epsilon=4.0)
        pairs = HashPairs(params.k, params.m, seed=9)
        a = zipf_values(3_000, 64, 1.2, seed=10)
        b = zipf_values(3_000, 64, 1.2, seed=11)
        truth = exact_join_size(a, b, 64)
        rng = np.random.default_rng(12)
        row_products = []
        for _ in range(100):
            sa = build_sketch(encode_reports(a, params, pairs, rng), pairs)
            sb = build_sketch(encode_reports(b, params, pairs, rng), pairs)
            row_products.extend(sa.row_inner_products(sb).tolist())
        mean = float(np.mean(row_products))
        sem = float(np.std(row_products) / np.sqrt(len(row_products)))
        assert abs(mean - truth) < 5 * sem


class TestEstimation:
    def test_join_size_close_to_truth(self, skewed_pair):
        a, b, domain = skewed_pair
        params = SketchParams(k=9, m=512, epsilon=6.0)
        pairs = HashPairs(params.k, params.m, seed=13)
        rng = np.random.default_rng(14)
        sa = build_sketch(encode_reports(a, params, pairs, rng), pairs)
        sb = build_sketch(encode_reports(b, params, pairs, rng), pairs)
        truth = exact_join_size(a, b, domain)
        assert abs(sa.join_size(sb) - truth) / truth < 0.35

    def test_join_is_median_of_rows(self, small_params, small_pairs):
        rng = np.random.default_rng(15)
        sa = build_sketch(
            encode_reports(np.arange(50), small_params, small_pairs, rng), small_pairs
        )
        sb = build_sketch(
            encode_reports(np.arange(50), small_params, small_pairs, rng), small_pairs
        )
        assert sa.join_size(sb) == pytest.approx(
            float(np.median(sa.row_inner_products(sb)))
        )

    def test_frequencies_batch_matches_scalar(self, small_params, small_pairs):
        rng = np.random.default_rng(16)
        sketch = build_sketch(
            encode_reports(np.arange(100) % 13, small_params, small_pairs, rng),
            small_pairs,
        )
        batch = sketch.frequencies(np.arange(13))
        for v in range(13):
            assert batch[v] == pytest.approx(sketch.frequency(v))

    def test_second_moment_debiased(self):
        """The F2 estimate must remove the per-report noise energy."""
        from repro.join import FrequencyVector

        params = SketchParams(k=9, m=256, epsilon=4.0)
        pairs = HashPairs(params.k, params.m, seed=30)
        a = zipf_values(100_000, 2048, 1.4, seed=31)
        truth = FrequencyVector.from_values(a, 2048).second_moment
        estimates = [
            build_sketch(encode_reports(a, params, pairs, seed), pairs).second_moment()
            for seed in range(5)
        ]
        assert abs(float(np.mean(estimates)) - truth) / truth < 0.15
        # Sanity: the raw (un-debiased) self product is far above truth.
        sketch = build_sketch(encode_reports(a, params, pairs, 99), pairs)
        raw = float(np.median(np.einsum("jx,jx->j", sketch.counts, sketch.counts)))
        assert raw > 1.1 * truth

    def test_shifted_subtracts_constant(self, small_params, small_pairs):
        rng = np.random.default_rng(17)
        sketch = build_sketch(
            encode_reports(np.arange(30), small_params, small_pairs, rng), small_pairs
        )
        shifted = sketch.shifted(2.5)
        assert np.allclose(shifted.counts, sketch.counts - 2.5)
        assert shifted.num_reports == sketch.num_reports
        # Original untouched.
        assert not np.allclose(shifted.counts, sketch.counts)


class TestCompatibility:
    def test_join_requires_shared_pairs(self, small_params):
        p1 = HashPairs(small_params.k, small_params.m, 18)
        p2 = HashPairs(small_params.k, small_params.m, 19)
        s1 = LDPJoinSketch(small_params, p1)
        s2 = LDPJoinSketch(small_params, p2)
        with pytest.raises(IncompatibleSketchError, match="hash pairs"):
            s1.join_size(s2)

    def test_join_requires_same_shape(self):
        s1 = LDPJoinSketch(SketchParams(2, 8, 1.0), HashPairs(2, 8, 20))
        s2 = LDPJoinSketch(SketchParams(2, 16, 1.0), HashPairs(2, 16, 20))
        with pytest.raises(IncompatibleSketchError, match="shape"):
            s1.join_size(s2)

    def test_join_rejects_foreign_type(self, small_params, small_pairs):
        sketch = LDPJoinSketch(small_params, small_pairs)
        with pytest.raises(IncompatibleSketchError):
            sketch.join_size(FastAGMSSketch(small_pairs))

