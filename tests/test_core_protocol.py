"""Tests for the one-call protocol drivers (``repro.api.run_join_sketch[_plus]``)."""

from __future__ import annotations

import pytest

from repro.api import run_join_sketch, run_join_sketch_plus
from repro.core import SketchParams
from repro.join import exact_join_size

from .conftest import zipf_values


class TestRunLDPJoinSketch:
    def test_estimates_reasonably(self, skewed_pair):
        a, b, domain = skewed_pair
        params = SketchParams(k=9, m=512, epsilon=8.0)
        truth = exact_join_size(a, b, domain)
        result = run_join_sketch(a, b, params, seed=1)
        assert abs(result.estimate - truth) / truth < 0.4

    def test_deterministic_given_seed(self, skewed_pair):
        a, b, _ = skewed_pair
        params = SketchParams(k=3, m=64, epsilon=4.0)
        r1 = run_join_sketch(a, b, params, seed=7)
        r2 = run_join_sketch(a, b, params, seed=7)
        assert r1.estimate == r2.estimate

    def test_different_seeds_differ(self, skewed_pair):
        a, b, _ = skewed_pair
        params = SketchParams(k=3, m=64, epsilon=4.0)
        assert (
            run_join_sketch(a, b, params, seed=1).estimate
            != run_join_sketch(a, b, params, seed=2).estimate
        )

    def test_accounting_fields(self, skewed_pair):
        a, b, _ = skewed_pair
        params = SketchParams(k=3, m=64, epsilon=4.0)
        result = run_join_sketch(a, b, params, seed=3)
        assert result.uplink_bits == (a.size + b.size) * params.report_bits
        assert result.sketch_bytes == 2 * params.k * params.m * 8
        assert result.offline_seconds > 0
        assert result.online_seconds >= 0

    def test_budget_ledger(self, skewed_pair):
        a, b, _ = skewed_pair
        params = SketchParams(k=3, m=64, epsilon=4.0)
        result = run_join_sketch(a, b, params, seed=4)
        assert result.ledger.worst_case_epsilon() == pytest.approx(4.0)
        assert {group for group, _, _ in result.ledger.charges} == {"A", "B"}


class TestRunLDPJoinSketchPlus:
    def test_estimates_reasonably(self):
        a = zipf_values(40_000, 512, 1.4, seed=5)
        b = zipf_values(40_000, 512, 1.4, seed=6)
        params = SketchParams(k=9, m=512, epsilon=20.0)
        truth = exact_join_size(a, b, 512)
        result = run_join_sketch_plus(
            a, b, 512, params, sample_rate=0.2, threshold=0.02, seed=7
        )
        assert abs(result.estimate - truth) / truth < 0.5

    def test_budget_is_parallel_composed(self, skewed_pair):
        a, b, domain = skewed_pair
        params = SketchParams(k=3, m=64, epsilon=4.0)
        result = run_join_sketch_plus(a, b, domain, params, seed=8)
        assert result.ledger.worst_case_epsilon() == pytest.approx(4.0)
        assert len(result.ledger.charges) == 6

    def test_uplink_covers_every_user_once(self, skewed_pair):
        a, b, domain = skewed_pair
        params = SketchParams(k=3, m=64, epsilon=4.0)
        result = run_join_sketch_plus(a, b, domain, params, seed=9)
        assert result.uplink_bits == (a.size + b.size) * params.report_bits

    def test_phase1_shape_override(self, skewed_pair):
        a, b, domain = skewed_pair
        params = SketchParams(k=4, m=128, epsilon=4.0)
        phase1 = SketchParams(k=4, m=32, epsilon=4.0)
        result = run_join_sketch_plus(
            a, b, domain, params, phase1_params=phase1, seed=10
        )
        assert result.sketch_bytes == 2 * 4 * 32 * 8 + 4 * 4 * 128 * 8
