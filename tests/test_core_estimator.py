"""Tests for :mod:`repro.core.estimator` (Eq. 5 wrapper + frequent items)."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.core import (
    LDPJoinSketch,
    LDPJoinSketchPlus,
    SketchParams,
    build_sketch,
    encode_reports,
    estimate_join_size,
    find_frequent_items,
)
from repro.core.estimator import DEFAULT_SCAN_CHUNK, FrequentScan
from repro.core.fap import MODE_HIGH, MODE_LOW
from repro.errors import IncompatibleSketchError, ParameterError
from repro.hashing import HashPairs, KWiseHash, SignHash
from repro.rng import ensure_rng, spawn

from .conftest import zipf_values


def _sketch_of(values, params, pairs, seed):
    return build_sketch(encode_reports(values, params, pairs, seed), pairs)


def _reference_scan(sketches, domain_size, threshold, method, total=None):
    """The shared scan rebuilt from one read-out per sketch.

    Each sketch reads the whole domain through
    :meth:`LDPJoinSketch.frequencies`; the frequent mass reads the union
    again with the Theorem 7 mean, one sketch at a time.
    """
    domain = np.arange(domain_size, dtype=np.int64)
    items = np.zeros(0, dtype=np.int64)
    for sketch in sketches:
        reference = sketch.num_reports if total is None else total
        estimates = sketch.frequencies(domain, method=method)
        items = np.union1d(items, domain[estimates > threshold * reference])
    masses = tuple(float(np.sum(sketch.frequencies(items))) for sketch in sketches)
    return items, masses


class TestEstimateJoinSize:
    def test_delegates_to_sketch(self, medium_params, medium_pairs):
        a = zipf_values(5_000, 100, 1.3, 1)
        b = zipf_values(5_000, 100, 1.3, 2)
        sa = _sketch_of(a, medium_params, medium_pairs, 3)
        sb = _sketch_of(b, medium_params, medium_pairs, 4)
        assert estimate_join_size(sa, sb) == sa.join_size(sb)


class TestFindFrequentItems:
    def _heavy_sketch(self, params, pairs, seed=5):
        # Three planted heavy hitters over light zipf noise.
        values = np.concatenate(
            [
                np.full(6_000, 3, dtype=np.int64),
                np.full(5_000, 17, dtype=np.int64),
                np.full(4_000, 41, dtype=np.int64),
                zipf_values(5_000, 100, 1.05, seed),
            ]
        )
        return _sketch_of(values, params, pairs, seed + 1), values

    def test_recovers_planted_heavy_hitters(self):
        params = SketchParams(k=5, m=256, epsilon=6.0)
        pairs = HashPairs(params.k, params.m, seed=6)
        sketch, values = self._heavy_sketch(params, pairs)
        fi = find_frequent_items(sketch, 100, threshold=0.1)
        assert {3, 17, 41} <= set(fi.tolist())

    def test_excludes_light_items(self):
        params = SketchParams(k=5, m=512, epsilon=6.0)
        pairs = HashPairs(params.k, params.m, seed=7)
        sketch, values = self._heavy_sketch(params, pairs)
        fi = find_frequent_items(sketch, 100, threshold=0.1)
        # The 10% cutoff sits far above the LDP noise floor here
        # (~c*sqrt(F1) ~ 145), so only the planted heavy hitters (15-30%
        # shares) should pass; nothing under a 3% share may appear.
        counts = np.bincount(values, minlength=100)
        for item in fi:
            assert counts[item] / values.size > 0.03

    def test_median_detection_robust_to_heavy_collision(self):
        # One enormous value plus a light tail: the mean read-out lets the
        # heavy item's collisions push light items over the threshold; the
        # median read-out does not.
        params = SketchParams(k=9, m=64, epsilon=50.0)
        pairs = HashPairs(params.k, params.m, seed=21)
        values = np.concatenate(
            [np.full(50_000, 11, dtype=np.int64), zipf_values(5_000, 100, 1.01, 22)]
        )
        sketch = _sketch_of(values, params, pairs, 23)
        fi_median = find_frequent_items(sketch, 100, threshold=0.05, method="median")
        fi_mean = find_frequent_items(sketch, 100, threshold=0.05, method="mean")
        assert 11 in fi_median
        # Median keeps the set at (or very near) the single true heavy
        # hitter; the mean read-out admits collision-inflated extras.
        assert fi_median.size <= fi_mean.size
        assert fi_median.size <= 3

    def test_method_validation(self):
        params = SketchParams(k=2, m=8, epsilon=1.0)
        pairs = HashPairs(2, 8, 24)
        sketch = _sketch_of([1], params, pairs, 25)
        with pytest.raises(ParameterError, match="method"):
            find_frequent_items(sketch, 10, threshold=0.1, method="mode")

    def test_chunking_invariance(self):
        params = SketchParams(k=3, m=64, epsilon=4.0)
        pairs = HashPairs(params.k, params.m, seed=8)
        sketch, _ = self._heavy_sketch(params, pairs)
        full = find_frequent_items(sketch, 100, threshold=0.05)
        chunked = find_frequent_items(sketch, 100, threshold=0.05, chunk_size=7)
        assert np.array_equal(full, chunked)

    def test_total_override(self):
        params = SketchParams(k=3, m=64, epsilon=4.0)
        pairs = HashPairs(params.k, params.m, seed=9)
        sketch, _ = self._heavy_sketch(params, pairs)
        # Doubling the reference total halves the effective threshold mass.
        lenient = find_frequent_items(sketch, 100, threshold=0.05, total=sketch.num_reports / 4)
        strict = find_frequent_items(sketch, 100, threshold=0.05, total=sketch.num_reports * 4)
        assert set(strict.tolist()) <= set(lenient.tolist())

    def test_threshold_one_returns_empty(self):
        params = SketchParams(k=3, m=64, epsilon=4.0)
        pairs = HashPairs(params.k, params.m, seed=10)
        sketch, _ = self._heavy_sketch(params, pairs)
        assert find_frequent_items(sketch, 100, threshold=1.0).size == 0

    def test_validation(self):
        params = SketchParams(k=2, m=8, epsilon=1.0)
        pairs = HashPairs(2, 8, 11)
        sketch = _sketch_of([1], params, pairs, 12)
        with pytest.raises(ParameterError):
            find_frequent_items(sketch, 0, threshold=0.1)
        with pytest.raises(ParameterError):
            find_frequent_items(sketch, 10, threshold=2.0)
        with pytest.raises(ParameterError):
            find_frequent_items(sketch, 10, threshold=0.1, total=-5)

    def test_result_sorted_unique(self):
        params = SketchParams(k=5, m=256, epsilon=6.0)
        pairs = HashPairs(params.k, params.m, seed=13)
        sketch, _ = self._heavy_sketch(params, pairs)
        fi = find_frequent_items(sketch, 100, threshold=0.05)
        assert np.array_equal(fi, np.unique(fi))


class TestSharedScan:
    """Several sketches in one scan == one whole-domain read-out per sketch."""

    DOMAIN = 1_000

    def _two_sketches(self, k, m=64):
        params = SketchParams(k=k, m=m, epsilon=2.0)
        pairs = HashPairs(k, m, seed=31)
        sketch_a = _sketch_of(zipf_values(4_000, self.DOMAIN, 1.1, 32), params, pairs, 33)
        sketch_b = _sketch_of(zipf_values(3_000, self.DOMAIN, 1.3, 34), params, pairs, 35)
        return sketch_a, sketch_b

    @pytest.mark.parametrize("method", ["median", "mean"])
    # 1 and 333 leave one-value chunks, whose column NumPy would sum
    # pairwise rather than row by row.
    @pytest.mark.parametrize("chunk_size", [1, 7, 64, 333, 4_096])
    @pytest.mark.parametrize("k", [3, 4, 5, 18])
    def test_matches_reference_read_out(self, k, chunk_size, method):
        sketches = self._two_sketches(k)
        scan = find_frequent_items(
            sketches, self.DOMAIN, 0.01, chunk_size=chunk_size, method=method
        )
        items, masses = _reference_scan(sketches, self.DOMAIN, 0.01, method)
        assert isinstance(scan, FrequentScan)
        assert scan.items.dtype == np.int64
        np.testing.assert_array_equal(scan.items, items)
        assert scan.masses == masses
        assert 0 < items.size < self.DOMAIN
        # One sketch alone: the sorted array, as before the shared scan.
        alone = find_frequent_items(
            sketches[0], self.DOMAIN, 0.01, chunk_size=chunk_size, method=method
        )
        assert isinstance(alone, np.ndarray)
        np.testing.assert_array_equal(
            alone, _reference_scan(sketches[:1], self.DOMAIN, 0.01, method)[0]
        )

    def test_even_k_reaches_both_sides_of_the_tie_branch(self):
        # Columns with exactly k/2 rows above the cutoff need the exact
        # median; this data has such columns on both sides of the cutoff.
        sketch, _ = self._two_sketches(18)
        domain = np.arange(self.DOMAIN)
        picked = sketch.counts[
            np.arange(18)[:, None], sketch.pairs.bucket_all(domain)
        ] * sketch.pairs.sign_all(domain)
        cutoff = 0.01 * sketch.num_reports
        tied = np.count_nonzero(picked > cutoff, axis=0) == 9
        selected = np.isin(domain, find_frequent_items(sketch, self.DOMAIN, 0.01))
        assert np.any(tied & selected) and np.any(tied & ~selected)

    @pytest.mark.parametrize("method", ["median", "mean"])
    def test_empty_frequent_set(self, method):
        sketches = self._two_sketches(4)
        scan = find_frequent_items(sketches, self.DOMAIN, 1.0, chunk_size=64, method=method)
        assert scan.items.size == 0 and scan.items.dtype == np.int64
        assert scan.masses == (0.0, 0.0)

    def test_single_frequent_value_mass(self):
        # NumPy reduces a lone (k, 1) column pairwise; the mass of a
        # one-value set must still equal the read-out of that value.
        params = SketchParams(k=18, m=64, epsilon=8.0)
        pairs = HashPairs(18, 64, seed=36)
        values = np.concatenate([np.full(5_000, 7), zipf_values(500, 200, 1.0, 37)])
        sketches = [_sketch_of(values, params, pairs, seed) for seed in (38, 39)]
        scan = find_frequent_items(sketches, 200, 0.2, chunk_size=64)
        items, masses = _reference_scan(sketches, 200, 0.2, "median")
        np.testing.assert_array_equal(scan.items, [7])
        np.testing.assert_array_equal(items, [7])
        assert scan.masses == masses

    def test_hand_built_ties(self):
        # Identity hashes (h_j(d) = d, xi_j(d) = +1) make column d of the
        # counts matrix the k row read-outs of value d.
        k, m = 4, 8
        pairs = HashPairs(
            k,
            m,
            bucket_hashes=[KWiseHash(2, coefficients=[0, 1])] * k,
            sign_hashes=[SignHash(base=KWiseHash(1, coefficients=[0]))] * k,
        )
        columns = [
            (9, 9, 1, 1),  # 2 above, median 5.0: not above the cutoff
            (9, 9, 2, 2),  # 2 above, median 5.5
            (6, 6, 4.5, -100),  # 2 above, median 5.25
            (20, 7, -30, 0),  # 2 above, median 3.5
            (6, 6, 6, 1),  # 3 above
            (5, 5, 5, 5),  # 0 above: equal is not above
            (-1, -2, -3, 100),  # 1 above, mean 23.5
            (100, 100, 100, 100),
        ]
        counts = np.array(columns, dtype=np.float64).T
        sketch = LDPJoinSketch(SketchParams(k=k, m=m, epsilon=1.0), pairs, counts, 100)
        domain = np.arange(m)
        np.testing.assert_array_equal(
            sketch.frequencies(domain, method="median"), np.median(counts, axis=0)
        )
        cutoff_total = dict(threshold=0.05, total=100.0)  # cutoff 5.0
        for chunk_size in (1, 3, 8):
            np.testing.assert_array_equal(
                find_frequent_items(sketch, m, chunk_size=chunk_size, **cutoff_total),
                [1, 2, 4, 7],
            )
            np.testing.assert_array_equal(
                find_frequent_items(
                    sketch, m, chunk_size=chunk_size, method="mean", **cutoff_total
                ),
                [1, 6, 7],
            )
        for method in ("median", "mean"):
            items, masses = _reference_scan([sketch], m, 0.05, method, total=100.0)
            scan = find_frequent_items([sketch], m, method=method, **cutoff_total)
            np.testing.assert_array_equal(scan.items, items)
            assert scan.masses == masses

    def test_total_applies_to_every_sketch(self):
        sketches = self._two_sketches(4)
        scan = find_frequent_items(sketches, self.DOMAIN, 0.01, total=5_000)
        items, masses = _reference_scan(sketches, self.DOMAIN, 0.01, "median", total=5_000)
        np.testing.assert_array_equal(scan.items, items)
        assert scan.masses == masses

    def test_sketches_must_share_pairs(self):
        sketch_a, _ = self._two_sketches(4)
        params = SketchParams(k=4, m=64, epsilon=2.0)
        other = _sketch_of([1, 2, 3], params, HashPairs(4, 64, seed=99), 1)
        with pytest.raises(IncompatibleSketchError):
            find_frequent_items([sketch_a, other], self.DOMAIN, 0.01)
        with pytest.raises(ParameterError, match="at least one sketch"):
            find_frequent_items([], self.DOMAIN, 0.01)

    def test_memory_is_bounded_by_the_chunk(self):
        # The paper-scale domain: one (18, 2**18) float64 read-out matrix
        # alone would take 36 MiB.  Chunked, the scan's peak stays a few
        # (18, chunk) intermediates plus the kept frequent read-outs.
        domain_size = 2**18
        params = SketchParams(k=18, m=1024, epsilon=4.0)
        pairs = HashPairs(18, 1024, seed=40)
        sketches = [
            _sketch_of(zipf_values(20_000, domain_size, 1.1, seed), params, pairs, seed)
            for seed in (41, 42)
        ]
        tracemalloc.start()
        try:
            scan = find_frequent_items(sketches, domain_size, 0.01)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert scan.items.size > 0
        assert peak < 16 * 2**20


def _reference_plus(protocol, values_a, values_b, domain_size, seed):
    """:meth:`LDPJoinSketchPlus.estimate` with phase 1 read out per sketch.

    Same random draws in the same order; only the frequent items and the
    frequent mass come from :func:`_reference_scan` instead of the shared
    scan.
    """
    generator = ensure_rng(seed)
    sample_a, a1, a2 = protocol._split_users(values_a, generator, "A")
    sample_b, b1, b2 = protocol._split_users(values_b, generator, "B")
    phase1 = protocol.phase1_params
    pairs1 = HashPairs(phase1.k, phase1.m, spawn(generator))
    reports_sa = encode_reports(sample_a, phase1, pairs1, generator)
    reports_sb = encode_reports(sample_b, phase1, pairs1, generator)
    sketches = (build_sketch(reports_sa, pairs1), build_sketch(reports_sb, pairs1))
    fi, masses = _reference_scan(sketches, domain_size, protocol.threshold, protocol.fi_method)
    n_a, n_b = values_a.size, values_b.size
    mass_a = protocol._population_mass(masses[0], n_a, sample_a.size)
    mass_b = protocol._population_mass(masses[1], n_b, sample_b.size)

    params = protocol.params
    pairs2 = HashPairs(params.k, params.m, spawn(generator))
    la = protocol._fap_sketch(a1, MODE_LOW, pairs2, fi, generator)
    lb = protocol._fap_sketch(b1, MODE_LOW, pairs2, fi, generator)
    ha = protocol._fap_sketch(a2, MODE_HIGH, pairs2, fi, generator)
    hb = protocol._fap_sketch(b2, MODE_HIGH, pairs2, fi, generator)
    low = protocol._join_est(
        la,
        lb,
        nt_mass_a=protocol._group_mass(mass_a, a1.size, n_a),
        nt_mass_b=protocol._group_mass(mass_b, b1.size, n_b),
    )
    high = protocol._join_est(
        ha,
        hb,
        nt_mass_a=protocol._group_mass(n_a - mass_a, a2.size, n_a),
        nt_mass_b=protocol._group_mass(n_b - mass_b, b2.size, n_b),
    )
    low_scaled = (n_a * n_b) / (a1.size * b1.size) * low
    high_scaled = (n_a * n_b) / (a2.size * b2.size) * high
    return low_scaled + high_scaled, {
        "low_estimate": low_scaled,
        "high_estimate": high_scaled,
        "frequent_items": fi,
        "high_freq_mass_a": mass_a,
        "high_freq_mass_b": mass_b,
        "phase1_bits": reports_sa.total_bits + reports_sb.total_bits,
        "phase2_bits": params.report_bits * (a1.size + a2.size + b1.size + b2.size),
        "fi_broadcast_bits": fi.size * int(np.ceil(np.log2(domain_size))),
    }


class TestPlusUsesTheSharedScan:
    def test_estimate_matches_per_sketch_read_outs(self):
        # k=18, m=1024 as in the paper; the domain spans several scan chunks.
        protocol = LDPJoinSketchPlus(
            SketchParams(k=18, m=1024, epsilon=2.0), sample_rate=0.1, threshold=0.01
        )
        domain_size = 2 * DEFAULT_SCAN_CHUNK + 1_000
        values_a = zipf_values(30_000, domain_size, 1.1, seed=41)
        values_b = zipf_values(30_000, domain_size, 1.2, seed=42)
        result = protocol.estimate(values_a, values_b, domain_size, rng=43)
        estimate, extras = _reference_plus(protocol, values_a, values_b, domain_size, 43)
        assert result.estimate == estimate
        assert set(result.extras) == set(extras)
        for key, expected in extras.items():
            if isinstance(expected, np.ndarray):
                np.testing.assert_array_equal(result.extras[key], expected)
                assert result.extras[key].dtype == expected.dtype
            else:
                assert result.extras[key] == expected, key
        assert extras["frequent_items"].size > 1
