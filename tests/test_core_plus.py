"""Tests for LDPJoinSketch+ (Algorithms 3 and 5)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import LDPJoinSketchPlus, SketchParams
from repro.distributed import PartialAggregate
from repro.errors import IncompatibleSketchError, ParameterError, ProtocolError
from repro.hashing import HashPairs
from repro.join import exact_join_size
from repro.privacy.budget import PrivacySpec
from repro.rng import spawn

from .conftest import zipf_values


def make_protocol(**overrides):
    defaults = dict(sample_rate=0.2, threshold=0.01)
    defaults.update(overrides)
    params = defaults.pop("params", SketchParams(k=5, m=256, epsilon=8.0))
    return LDPJoinSketchPlus(params, **defaults)


class TestConfiguration:
    def test_sample_rate_validation(self):
        with pytest.raises(ParameterError):
            make_protocol(sample_rate=0.0)
        with pytest.raises(ParameterError):
            make_protocol(sample_rate=1.0)

    def test_threshold_validation(self):
        with pytest.raises(ParameterError):
            make_protocol(threshold=0.0)
        with pytest.raises(ParameterError):
            make_protocol(threshold=1.5)

    def test_phase1_budget_must_match(self):
        with pytest.raises(ParameterError, match="same privacy budget"):
            make_protocol(phase1_params=SketchParams(k=5, m=256, epsilon=2.0))

    def test_phase1_shape_may_differ(self):
        protocol = make_protocol(phase1_params=SketchParams(k=3, m=64, epsilon=8.0))
        assert protocol.phase1_params.m == 64


class TestUserSplitting:
    def test_split_partitions_users(self):
        protocol = make_protocol(sample_rate=0.25)
        values = np.arange(1_000)
        rng = np.random.default_rng(1)
        sample, g1, g2 = protocol._split_users(values, rng, "A")
        assert sample.size == 250
        assert abs(g1.size - g2.size) <= 1
        recombined = np.sort(np.concatenate([sample, g1, g2]))
        assert np.array_equal(recombined, values)

    def test_too_few_users_rejected(self):
        protocol = make_protocol()
        with pytest.raises(ProtocolError, match="at least 4"):
            protocol._split_users(np.arange(3), np.random.default_rng(2), "A")

    def test_estimate_rejects_tiny_inputs(self):
        protocol = make_protocol()
        with pytest.raises(ProtocolError):
            protocol.estimate(np.arange(2), np.arange(100), 100, 3)


class TestEndToEnd:
    def test_accurate_on_skewed_data_with_large_budget(self):
        # eps=50 kills the privacy noise; remaining error is sketch error.
        protocol = make_protocol(
            params=SketchParams(k=5, m=512, epsilon=50.0), threshold=0.005
        )
        a = zipf_values(30_000, 256, 1.4, seed=4)
        b = zipf_values(30_000, 256, 1.4, seed=5)
        truth = exact_join_size(a, b, 256)
        result = protocol.estimate(a, b, 256, rng=6)
        assert abs(result.estimate - truth) / truth < 0.2

    def test_low_high_decomposition_sums_to_estimate(self):
        protocol = make_protocol()
        a = zipf_values(10_000, 128, 1.3, seed=7)
        b = zipf_values(10_000, 128, 1.3, seed=8)
        result = protocol.estimate(a, b, 128, rng=9)
        assert result.estimate == pytest.approx(
            result.low_estimate + result.high_estimate
        )

    def test_frequent_items_found_on_heavy_head(self):
        protocol = make_protocol(threshold=0.05)
        head = np.full(20_000, 3, dtype=np.int64)
        tail = zipf_values(10_000, 128, 1.05, seed=10)
        values = np.concatenate([head, tail])
        result = protocol.estimate(values, values, 128, rng=11)
        assert 3 in result.frequent_items

    def test_high_mass_estimates_clipped_to_population(self):
        protocol = make_protocol(threshold=0.05)
        values = np.full(5_000, 9, dtype=np.int64)
        result = protocol.estimate(values, values, 64, rng=12)
        assert 0.0 <= result.high_freq_mass_a <= values.size
        assert 0.0 <= result.high_freq_mass_b <= values.size

    def test_bit_accounting(self):
        params = SketchParams(k=5, m=256, epsilon=8.0)
        protocol = make_protocol(params=params, sample_rate=0.2)
        n = 10_000
        a = zipf_values(n, 64, 1.2, seed=13)
        result = protocol.estimate(a, a, 64, rng=14)
        sample = int(round(0.2 * n))
        assert result.phase1_bits == 2 * sample * params.report_bits
        assert result.phase2_bits == 2 * (n - sample) * params.report_bits
        assert result.fi_broadcast_bits == result.frequent_items.size * 6  # log2(64)

    def test_deterministic_given_seed(self):
        protocol = make_protocol()
        a = zipf_values(5_000, 64, 1.2, seed=15)
        r1 = protocol.estimate(a, a, 64, rng=16)
        r2 = protocol.estimate(a, a, 64, rng=16)
        assert r1.estimate == r2.estimate
        assert np.array_equal(r1.frequent_items, r2.frequent_items)

    def test_paper_faithful_correction_changes_result(self):
        a = np.concatenate(
            [np.full(8_000, 2, dtype=np.int64), zipf_values(8_000, 64, 1.1, 17)]
        )
        corrected = make_protocol(threshold=0.05).estimate(a, a, 64, rng=18)
        faithful = make_protocol(threshold=0.05, paper_faithful_correction=True).estimate(
            a, a, 64, rng=18
        )
        # Same randomness, different non-target subtraction -> different answer.
        assert corrected.estimate != faithful.estimate

    def test_group_mass_scaling(self):
        protocol = make_protocol()
        # 40% of the population mass, group of 100 out of 1000 users.
        assert protocol._group_mass(400.0, 100, 1000) == pytest.approx(40.0)
        faithful = make_protocol(paper_faithful_correction=True)
        assert faithful._group_mass(400.0, 100, 1000) == pytest.approx(400.0)

    def test_group_mass_clipped(self):
        protocol = make_protocol()
        assert protocol._group_mass(-5.0, 100, 1000) == 0.0
        assert protocol._group_mass(2_000.0, 100, 1000) == pytest.approx(100.0)


def _through_json(partial: PartialAggregate) -> PartialAggregate:
    return PartialAggregate.from_dict(json.loads(json.dumps(partial.to_dict())))


class TestPhaseBoundary:
    """``estimate`` is the phase steps run once, as a single shard."""

    DOMAIN = 512

    def _by_hand(self, protocol, a, b, seed):
        generator = np.random.default_rng(seed)
        groups = protocol.split(a, b, generator)
        phase1 = protocol.phase1_params
        pairs1 = HashPairs(phase1.k, phase1.m, spawn(generator))
        merged1 = _through_json(protocol.phase1_partial(groups, pairs1, generator, {}))
        scan = protocol.scan(merged1, pairs1, self.DOMAIN)
        pairs2 = HashPairs(protocol.params.k, protocol.params.m, spawn(generator))
        merged2 = _through_json(
            protocol.phase2_partial(groups, pairs2, scan.items, generator, {})
        )
        return merged1, merged2, protocol.finalize(merged1, merged2, pairs2, scan, self.DOMAIN)

    def test_estimate_equals_phase_steps_through_the_wire(self):
        protocol = make_protocol(phase1_params=SketchParams(k=5, m=128, epsilon=8.0))
        a = zipf_values(20_000, self.DOMAIN, 1.3, seed=61)
        b = zipf_values(18_000, self.DOMAIN, 1.2, seed=62)
        result = protocol.estimate(a, b, self.DOMAIN, rng=63)
        merged1, merged2, by_hand = self._by_hand(protocol, a, b, 63)

        assert sorted(merged1.arrays) == ["SA:raw", "SB:raw"]
        assert sorted(merged2.arrays) == ["HA:raw", "HB:raw", "LA:raw", "LB:raw"]
        assert all(array.dtype == np.int64 for array in merged1.arrays.values())
        assert {"A1:size", "A2:size", "B1:size", "B2:size"} <= set(merged1.counters)
        assert by_hand.estimate == result.estimate
        assert by_hand.uplink_bits == result.uplink_bits
        assert by_hand.sketch_bytes == result.sketch_bytes
        assert by_hand.ledger.charges == result.ledger.charges
        assert set(by_hand.extras) == set(result.extras)
        for key, value in result.extras.items():
            if isinstance(value, np.ndarray):
                np.testing.assert_array_equal(by_hand.extras[key], value)
                assert by_hand.extras[key].dtype == value.dtype
            else:
                assert by_hand.extras[key] == value, key
        assert result.frequent_items.size > 0

    def test_estimate_carries_the_six_group_ledger(self, skewed_pair):
        a, b, domain = skewed_pair
        result = make_protocol().estimate(a, b, domain, rng=5)
        charges = result.ledger.charges
        assert [group for group, _, _ in charges] == [
            "A-sample", "A1", "A2", "B-sample", "B1", "B2"
        ]
        assert all(epsilon == 8.0 for _, epsilon, _ in charges)
        result.ledger.assert_within(PrivacySpec(8.0))
        assert result.ledger.worst_case_epsilon() == pytest.approx(8.0)

    def test_rescan_reads_the_scan_mass_back(self, skewed_pair):
        a, b, domain = skewed_pair
        protocol = make_protocol()
        generator = np.random.default_rng(7)
        groups = protocol.split(a, b, generator)
        pairs1 = HashPairs(5, 256, spawn(generator))
        merged1 = protocol.phase1_partial(groups, pairs1, generator, {})
        scan = protocol.scan(merged1, pairs1, domain)
        again = protocol.rescan(merged1, pairs1, scan.items)
        assert again.items is scan.items
        assert again.masses == pytest.approx(scan.masses)

    def test_phase_partials_never_merge_across_rounds(self, skewed_pair):
        a, b, _ = skewed_pair
        protocol = make_protocol()
        generator = np.random.default_rng(8)
        groups = protocol.split(a, b, generator)
        pairs = HashPairs(5, 256, spawn(generator))
        phase1 = protocol.phase1_partial(groups, pairs, generator, {})
        phase2 = protocol.phase2_partial(groups, pairs, np.arange(3), generator, {})
        with pytest.raises(IncompatibleSketchError):
            phase1.merge(phase2)


class TestSeparationMechanism:
    """Algorithm 5's claim: the partial join sizes are recovered separately.

    A plain sketch cannot answer "join size of the infrequent values only"
    at all — the frequent mass drowns it.  LDPJoinSketch+ can, because FAP
    reduces frequent values to removable uniform mass.  (End-to-end
    dominance over plain LDPJoinSketch requires the paper's tens of
    millions of users, where collision error towers over LDP noise; see
    EXPERIMENTS.md.)
    """

    def test_partial_join_sizes_recovered(self):
        from repro.join import FrequencyVector

        params = SketchParams(k=9, m=256, epsilon=50.0)
        rng_data = np.random.default_rng(19)
        heavy = np.repeat(np.array([7, 19, 101], dtype=np.int64), 25_000)
        tail_a = rng_data.integers(0, 512, size=60_000)
        tail_b = rng_data.integers(0, 512, size=60_000)
        a = np.concatenate([heavy, tail_a])
        b = np.concatenate([heavy, tail_b])

        plus = LDPJoinSketchPlus(params, sample_rate=0.2, threshold=0.05)
        result = plus.estimate(a, b, 512, rng=20)
        fi = result.frequent_items
        assert {7, 19, 101} <= set(fi.tolist())

        fa = FrequencyVector.from_values(a, 512)
        fb = FrequencyVector.from_values(b, 512)
        true_high = fa.restrict(fi).inner(fb.restrict(fi))
        true_low = fa.exclude(fi).inner(fb.exclude(fi))
        # The heavy part carries ~99% of the join; both parts must come
        # back at the right scale rather than bleeding into each other.
        assert result.high_estimate == pytest.approx(true_high, rel=0.15)
        assert abs(result.low_estimate - true_low) < 0.05 * true_high

    def test_comparable_to_plain_at_moderate_scale(self):
        """LDPJS+ stays within a small factor of plain LDPJS when FI is
        clean — the regression guard for the laptop-scale regime."""
        from repro.api import run_join_sketch

        params = SketchParams(k=9, m=128, epsilon=8.0)
        a = zipf_values(50_000, 1024, 1.3, seed=21)
        b = zipf_values(50_000, 1024, 1.3, seed=22)
        truth = exact_join_size(a, b, 1024)
        plus = LDPJoinSketchPlus(params, sample_rate=0.2, threshold=0.02)
        errors_plain, errors_plus = [], []
        for seed in range(5):
            plain = run_join_sketch(a, b, params, seed=seed).estimate
            errors_plain.append(abs(plain - truth))
            errors_plus.append(abs(plus.estimate(a, b, 1024, rng=seed).estimate - truth))
        assert np.mean(errors_plus) < 10 * np.mean(errors_plain) + 0.05 * truth
