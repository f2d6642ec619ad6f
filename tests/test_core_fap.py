"""Tests for Frequency-Aware Perturbation (Algorithm 4) and Theorem 8."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SketchParams, build_sketch, encode_reports, fap_encode_reports
from repro.core.fap import MODE_HIGH, MODE_LOW, fap_encode_report
from repro.errors import ParameterError
from repro.hashing import HashPairs

from .conftest import zipf_values


class TestModeLogic:
    """Line 1 of Algorithm 4: non-target iff (mode == H) == (d not in FI)."""

    def test_mode_low_with_empty_fi_equals_algorithm1(self, small_params, small_pairs):
        # Every value is a target, and the batched code paths draw the RNG
        # in the same order, so outputs are bit-identical under one seed.
        values = np.array([3, 1, 4, 1, 5, 9, 2, 6])
        plain = encode_reports(values, small_params, small_pairs, np.random.default_rng(1))
        fap = fap_encode_reports(
            values, MODE_LOW, small_params, small_pairs, [], np.random.default_rng(1)
        )
        assert np.array_equal(plain.ys, fap.ys)
        assert np.array_equal(plain.rows, fap.rows)
        assert np.array_equal(plain.cols, fap.cols)

    def test_mode_high_with_full_fi_equals_algorithm1(self, small_params, small_pairs):
        values = np.array([3, 1, 4, 1, 5])
        fi = np.arange(16)
        plain = encode_reports(values, small_params, small_pairs, np.random.default_rng(2))
        fap = fap_encode_reports(
            values, MODE_HIGH, small_params, small_pairs, fi, np.random.default_rng(2)
        )
        assert np.array_equal(plain.ys, fap.ys)

    def test_nontarget_output_independent_of_value(self, small_params, small_pairs):
        # mode=H, FI empty: everything is non-target; two different value
        # arrays must produce identical reports under the same seed.
        values_a = np.zeros(100, dtype=np.int64)
        values_b = np.arange(100) % 13
        out_a = fap_encode_reports(
            values_a, MODE_HIGH, small_params, small_pairs, [], np.random.default_rng(3)
        )
        out_b = fap_encode_reports(
            values_b, MODE_HIGH, small_params, small_pairs, [], np.random.default_rng(3)
        )
        assert np.array_equal(out_a.ys, out_b.ys)
        assert np.array_equal(out_a.rows, out_b.rows)
        assert np.array_equal(out_a.cols, out_b.cols)

    def test_mode_validation(self, small_params, small_pairs):
        with pytest.raises(ParameterError, match="mode"):
            fap_encode_reports([1], "X", small_params, small_pairs, [])
        with pytest.raises(ParameterError, match="mode"):
            fap_encode_report(1, "X", small_params, small_pairs, [])

    def test_pairs_shape_validated(self, small_params):
        wrong = HashPairs(small_params.k + 1, small_params.m, 4)
        with pytest.raises(ParameterError, match="do not match"):
            fap_encode_reports([1], MODE_LOW, small_params, wrong, [])

    def test_scalar_output_ranges(self, small_params, small_pairs):
        rng = np.random.default_rng(5)
        for d in range(10):
            for mode in (MODE_HIGH, MODE_LOW):
                y, j, l = fap_encode_report(d, mode, small_params, small_pairs, [2, 3], rng)
                assert y in (-1, 1)
                assert 0 <= j < small_params.k
                assert 0 <= l < small_params.m


class TestTheorem8:
    """Non-target values contribute |NT| / m to every counter in expectation."""

    def test_nontarget_mass_spreads_uniformly(self):
        params = SketchParams(k=2, m=16, epsilon=4.0)
        pairs = HashPairs(params.k, params.m, seed=6)
        n = 20_000
        values = zipf_values(n, 50, 1.3, seed=7)  # all non-target (FI empty, mode H)
        total = np.zeros((params.k, params.m))
        runs = 30
        rng = np.random.default_rng(8)
        for _ in range(runs):
            reports = fap_encode_reports(values, MODE_HIGH, params, pairs, [], rng)
            total += build_sketch(reports, pairs).counts
        mean_counts = total / runs
        expected = n / params.m
        # Per-cell sd ~ sqrt(k c^2 n) / sqrt(runs) ~ 38; allow 6 sd.
        assert np.all(np.abs(mean_counts - expected) < 6 * 40)

    def test_nontarget_mass_invisible_to_sign_readout(self):
        # Frequency estimates multiply by xi, so uniform non-target mass
        # cancels: estimates should be near zero, not near the counts.
        params = SketchParams(k=3, m=32, epsilon=4.0)
        pairs = HashPairs(params.k, params.m, seed=9)
        values = np.full(30_000, 7, dtype=np.int64)
        rng = np.random.default_rng(10)
        reports = fap_encode_reports(values, MODE_HIGH, params, pairs, [], rng)
        sketch = build_sketch(reports, pairs)
        # Raw counter at (j, h_j(7)) holds ~ n/m mass ...
        assert sketch.counts.mean() == pytest.approx(30_000 / 32, rel=0.2)
        # ... but the signed frequency estimate of 7 stays near zero.
        assert abs(sketch.frequency(7)) < 3_000


class TestMixedBatches:
    def test_target_and_nontarget_separation(self):
        """mode=H: FI values keep their identity, others melt into noise."""
        params = SketchParams(k=3, m=64, epsilon=6.0)
        pairs = HashPairs(params.k, params.m, seed=11)
        heavy, light = 5, 23
        values = np.concatenate(
            [np.full(8_000, heavy, dtype=np.int64), np.full(8_000, light, dtype=np.int64)]
        )
        rng = np.random.default_rng(12)
        reports = fap_encode_reports(values, MODE_HIGH, params, pairs, [heavy], rng)
        sketch = build_sketch(reports, pairs)
        # Target keeps its frequency (up to sketch noise) ...
        assert sketch.frequency(heavy) == pytest.approx(8_000, rel=0.25)
        # ... non-target's frequency signal is destroyed.
        assert abs(sketch.frequency(light)) < 2_000

    def test_mode_low_flips_roles(self):
        params = SketchParams(k=3, m=64, epsilon=6.0)
        pairs = HashPairs(params.k, params.m, seed=13)
        heavy, light = 5, 23
        values = np.concatenate(
            [np.full(8_000, heavy, dtype=np.int64), np.full(8_000, light, dtype=np.int64)]
        )
        rng = np.random.default_rng(14)
        reports = fap_encode_reports(values, MODE_LOW, params, pairs, [heavy], rng)
        sketch = build_sketch(reports, pairs)
        assert sketch.frequency(light) == pytest.approx(8_000, rel=0.25)
        assert abs(sketch.frequency(heavy)) < 2_000

    def test_fi_accepts_any_integer_iterable(self, small_params, small_pairs):
        out1 = fap_encode_reports(
            [1, 2], MODE_HIGH, small_params, small_pairs, [2, 2, 1], np.random.default_rng(15)
        )
        out2 = fap_encode_reports(
            [1, 2],
            MODE_HIGH,
            small_params,
            small_pairs,
            np.array([1, 2]),
            np.random.default_rng(15),
        )
        assert np.array_equal(out1.ys, out2.ys)

    @pytest.mark.parametrize("mode", [MODE_LOW, MODE_HIGH])
    def test_fi_order_and_duplicates_do_not_matter(self, mode, medium_params, medium_pairs):
        # The set is used as given (not re-uniqued per encode): an
        # unsorted FI with repeats must encode exactly like its sorted,
        # duplicate-free form.
        values = zipf_values(5_000, 300, 1.1, seed=16)
        fi = np.unique(zipf_values(200, 300, 0.8, seed=17))
        messy = np.concatenate([fi[::-1], fi[: fi.size // 2]])
        reports = [
            fap_encode_reports(
                values, mode, medium_params, medium_pairs, given, np.random.default_rng(18)
            )
            for given in (fi, messy, messy.tolist())
        ]
        for other in reports[1:]:
            assert np.array_equal(reports[0].ys, other.ys)
            assert np.array_equal(reports[0].rows, other.rows)
            assert np.array_equal(reports[0].cols, other.cols)
