"""Tests for the non-private sketch substrates (:mod:`repro.sketches`)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import IncompatibleSketchError, ParameterError
from repro.hashing import HashPairs
from repro.join import FrequencyVector, exact_join_size, exact_multiway_chain_size
from repro.sketches import (
    AGMSSketch,
    CompassChainSketches,
    FastAGMSSketch,
)
from repro.sketches.count_mean import count_mean_frequencies

from .conftest import zipf_values


class TestFastAGMS:
    def test_update_equals_counts_definition(self):
        pairs = HashPairs(3, 16, seed=1)
        sketch = FastAGMSSketch(pairs)
        values = np.array([5, 5, 9])
        sketch.update_batch(values)
        expected = np.zeros((3, 16))
        for j in range(3):
            for v in values:
                expected[j, pairs.bucket(j, np.array([v]))[0]] += pairs.sign(
                    j, np.array([v])
                )[0]
        assert np.array_equal(sketch.counts, expected)

    def test_update_scalar_matches_batch(self):
        pairs = HashPairs(2, 8, seed=2)
        s1 = FastAGMSSketch(pairs)
        s2 = FastAGMSSketch(pairs)
        s1.update(3)
        s2.update_batch([3])
        assert np.array_equal(s1.counts, s2.counts)

    def test_empty_update_noop(self):
        sketch = FastAGMSSketch.create(2, 8, seed=3)
        sketch.update_batch([])
        assert sketch.total_weight == 0
        assert not sketch.counts.any()

    def test_inner_product_accuracy(self):
        a = zipf_values(30_000, 256, 1.4, seed=4)
        b = zipf_values(30_000, 256, 1.4, seed=5)
        truth = exact_join_size(a, b, 256)
        pairs = HashPairs(7, 512, seed=6)
        sa = FastAGMSSketch(pairs)
        sa.update_batch(a)
        sb = FastAGMSSketch(pairs)
        sb.update_batch(b)
        est = sa.inner_product(sb)
        # Fast-AGMS error bound: ~ F2 / sqrt(m); 10% is > 5x slack here.
        assert abs(est - truth) / truth < 0.10

    def test_inner_product_unbiased_over_hash_draws(self):
        a = zipf_values(2_000, 64, 1.2, seed=7)
        b = zipf_values(2_000, 64, 1.2, seed=8)
        truth = exact_join_size(a, b, 64)
        estimates = []
        for seed in range(40):
            pairs = HashPairs(1, 128, seed=seed)
            sa = FastAGMSSketch(pairs)
            sa.update_batch(a)
            sb = FastAGMSSketch(pairs)
            sb.update_batch(b)
            estimates.append(sa.inner_product(sb))
        mean = float(np.mean(estimates))
        sd = float(np.std(estimates) / np.sqrt(len(estimates)))
        assert abs(mean - truth) < 5 * sd + 0.01 * truth

    def test_second_moment(self):
        a = zipf_values(20_000, 128, 1.5, seed=9)
        truth = FrequencyVector.from_values(a, 128).second_moment
        sketch = FastAGMSSketch.create(7, 512, seed=10)
        sketch.update_batch(a)
        assert abs(sketch.second_moment() - truth) / truth < 0.10

    def test_frequency_estimates(self):
        a = np.concatenate([np.zeros(5000, dtype=np.int64), zipf_values(5000, 100, 1.1, 11)])
        sketch = FastAGMSSketch.create(7, 256, seed=12)
        sketch.update_batch(a)
        f0 = FrequencyVector.from_values(a, 100).frequency(0)
        assert abs(sketch.frequency(0) - f0) < 0.05 * f0

    def test_frequencies_batch_matches_scalar(self):
        sketch = FastAGMSSketch.create(3, 64, seed=13)
        sketch.update_batch(zipf_values(1000, 50, 1.0, 14))
        batch = sketch.frequencies(np.arange(10))
        for v in range(10):
            assert batch[v] == sketch.frequency(v)

    def test_requires_shared_pairs(self):
        sa = FastAGMSSketch.create(2, 8, seed=15)
        sb = FastAGMSSketch.create(2, 8, seed=16)
        with pytest.raises(IncompatibleSketchError, match="hash pairs"):
            sa.inner_product(sb)

    def test_type_mismatch_rejected(self):
        sa = FastAGMSSketch(HashPairs(2, 8, seed=17))
        agms = AGMSSketch.create(2, 8, seed=17)
        with pytest.raises(IncompatibleSketchError, match="AGMSSketch"):
            sa.inner_product(agms)
        with pytest.raises(IncompatibleSketchError, match="AGMSSketch"):
            sa.merge(agms)

    def test_merge_linearity(self):
        pairs = HashPairs(2, 16, seed=18)
        a = zipf_values(500, 40, 1.0, 19)
        b = zipf_values(500, 40, 1.0, 20)
        merged = FastAGMSSketch(pairs)
        merged.update_batch(a)
        other = FastAGMSSketch(pairs)
        other.update_batch(b)
        merged.merge(other)
        combined = FastAGMSSketch(pairs)
        combined.update_batch(np.concatenate([a, b]))
        assert np.array_equal(merged.counts, combined.counts)
        assert merged.total_weight == combined.total_weight

    def test_memory_bytes(self):
        sketch = FastAGMSSketch.create(4, 128, seed=21)
        assert sketch.memory_bytes() == 4 * 128 * 8

    def test_weighted_updates(self):
        pairs = HashPairs(2, 16, seed=22)
        s1 = FastAGMSSketch(pairs)
        s1.update_batch([3], weight=5.0)
        s2 = FastAGMSSketch(pairs)
        s2.update_batch([3, 3, 3, 3, 3])
        assert np.allclose(s1.counts, s2.counts)


class TestAGMS:
    def test_second_moment_statistical(self):
        a = zipf_values(5_000, 64, 1.3, seed=23)
        truth = FrequencyVector.from_values(a, 64).second_moment
        sketch = AGMSSketch.create(5, 64, seed=24)
        sketch.update_batch(a)
        assert abs(sketch.second_moment() - truth) / truth < 0.25

    def test_inner_product_statistical(self):
        a = zipf_values(4_000, 64, 1.3, seed=25)
        b = zipf_values(4_000, 64, 1.3, seed=26)
        truth = exact_join_size(a, b, 64)
        sa = AGMSSketch.create(5, 64, seed=27)
        sa.update_batch(a)
        sb = AGMSSketch(sa.sign_hashes)
        sb.update_batch(b)
        assert abs(sa.inner_product(sb) - truth) / truth < 0.3

    def test_counter_definition(self):
        sketch = AGMSSketch.create(2, 3, seed=28)
        values = np.array([1, 1, 7])
        sketch.update_batch(values)
        for j in range(2):
            for x in range(3):
                expected = float(np.sum(sketch.sign_hashes[j][x](values)))
                assert sketch.counts[j, x] == expected

    def test_incompatible_sign_hashes(self):
        sa = AGMSSketch.create(2, 4, seed=29)
        sb = AGMSSketch.create(2, 4, seed=30)
        with pytest.raises(IncompatibleSketchError, match="sign hashes"):
            sa.inner_product(sb)

    def test_shape_mismatch(self):
        sa = AGMSSketch.create(2, 4, seed=31)
        sb = AGMSSketch.create(3, 4, seed=31)
        with pytest.raises(IncompatibleSketchError, match="shape"):
            sa.inner_product(sb)

    def test_grid_validation(self):
        with pytest.raises(ParameterError):
            AGMSSketch([])

    def test_update_scalar(self):
        sketch = AGMSSketch.create(1, 2, seed=32)
        sketch.update(5)
        assert sketch.total_weight == 1


def _count_mean_counts(pairs, values):
    """Unsigned one-hot ``(k, m)`` counts: ``M[j, h_j(d)] += 1`` per item."""
    counts = np.zeros((pairs.k, pairs.m))
    buckets = pairs.bucket_all(np.asarray(values, dtype=np.int64))
    for j in range(pairs.k):
        np.add.at(counts[j], buckets[j], 1.0)
    return counts


class TestCountMean:
    def test_debiased_estimates(self):
        a = zipf_values(20_000, 128, 1.3, seed=43)
        freq = FrequencyVector.from_values(a, 128)
        pairs = HashPairs(18, 256, seed=44)
        top = freq.top_k(5)
        counts = _count_mean_counts(pairs, a)
        estimates = count_mean_frequencies(counts, pairs, a.size, top)
        for value, est in zip(top, estimates):
            true = freq.frequency(int(value))
            assert abs(est - true) < 0.15 * true + 100

    def test_mean_debias_zero_for_absent_items(self):
        # Items never inserted should estimate ~0 on average.
        a = zipf_values(20_000, 64, 1.1, seed=45)
        pairs = HashPairs(18, 256, seed=46)
        absent = np.arange(64, 128)  # outside the data range
        counts = _count_mean_counts(pairs, a)
        estimates = count_mean_frequencies(counts, pairs, a.size, absent)
        assert abs(float(np.mean(estimates))) < 60

    def test_requires_m_at_least_two(self):
        pairs = HashPairs(2, 1, seed=47)
        with pytest.raises(ParameterError, match="m >= 2"):
            count_mean_frequencies(np.zeros((2, 1)), pairs, 1.0, [0])


class TestCompass:
    def test_three_way_accuracy(self):
        d = 64
        t1 = zipf_values(8_000, d, 1.3, seed=49)
        t2 = (zipf_values(8_000, d, 1.3, seed=50), zipf_values(8_000, d, 1.3, seed=51))
        t3 = zipf_values(8_000, d, 1.3, seed=52)
        truth = exact_multiway_chain_size((t1, t3), [t2], [d, d])
        sketches = CompassChainSketches([256, 256], k=7, seed=53)
        first = sketches.build_end(0, t1)
        mid = sketches.build_middle(0, *t2)
        last = sketches.build_end(1, t3)
        est = sketches.estimate_chain(first, [mid], last)
        assert abs(est - truth) / truth < 0.25

    def test_two_way_reduces_to_fast_agms(self):
        a = zipf_values(5_000, 64, 1.2, seed=54)
        b = zipf_values(5_000, 64, 1.2, seed=55)
        sketches = CompassChainSketches([256], k=5, seed=56)
        first = sketches.build_end(0, a)
        last = sketches.build_end(0, b)
        est = sketches.estimate_chain(first, [], last)
        assert est == pytest.approx(first.inner_product(last))

    def test_middle_counter_definition(self):
        sketches = CompassChainSketches([8, 8], k=2, seed=57)
        left = np.array([3, 3])
        right = np.array([5, 1])
        mid = sketches.build_middle(0, left, right)
        lp, rp = mid.left_pairs, mid.right_pairs
        expected = np.zeros((2, 8, 8))
        for j in range(2):
            for a, b in zip(left, right):
                expected[
                    j, lp.bucket(j, np.array([a]))[0], rp.bucket(j, np.array([b]))[0]
                ] += lp.sign(j, np.array([a]))[0] * rp.sign(j, np.array([b]))[0]
        assert np.array_equal(mid.counts, expected)

    def test_column_length_mismatch(self):
        sketches = CompassChainSketches([8, 8], k=2, seed=58)
        with pytest.raises(ParameterError, match="equal length"):
            sketches.build_middle(0, np.array([1, 2]), np.array([3]))

    def test_wrong_middle_count_rejected(self):
        sketches = CompassChainSketches([8, 8], k=2, seed=59)
        first = sketches.build_end(0, [1])
        last = sketches.build_end(1, [1])
        with pytest.raises(IncompatibleSketchError, match="middle"):
            sketches.estimate_chain(first, [], last)

    def test_foreign_end_sketch_rejected(self):
        sketches = CompassChainSketches([8, 8], k=2, seed=60)
        other = CompassChainSketches([8, 8], k=2, seed=61)
        first = other.build_end(0, [1])
        mid = sketches.build_middle(0, [1], [1])
        last = sketches.build_end(1, [1])
        with pytest.raises(IncompatibleSketchError):
            sketches.estimate_chain(first, [mid], last)

    def test_attribute_out_of_range(self):
        sketches = CompassChainSketches([8], k=2, seed=62)
        with pytest.raises(ParameterError):
            sketches.build_end(1, [0])
