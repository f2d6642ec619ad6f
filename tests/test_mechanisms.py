"""Tests for the competitor LDP frequency oracles (:mod:`repro.mechanisms`)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import DomainError, ProtocolError
from repro.join import exact_join_size
from repro.mechanisms import (
    FLHOracle,
    HCMSOracle,
    KRROracle,
    LDPJoinSketchOracle,
    OLHOracle,
    OUEOracle,
    estimate_join_via_frequencies,
)

from .conftest import zipf_values

ALL_ORACLES = [
    (KRROracle, {}),
    (OLHOracle, {}),
    (FLHOracle, {}),
    (HCMSOracle, {"k": 9, "m": 128}),
    (LDPJoinSketchOracle, {"k": 9, "m": 128}),
    (OUEOracle, {}),
]


@pytest.mark.parametrize("oracle_cls,kwargs", ALL_ORACLES)
class TestOracleContract:
    """Behaviour every frequency oracle must share."""

    def test_unbiased_on_planted_frequency(self, oracle_cls, kwargs):
        domain, count, n_noise = 64, 6_000, 6_000
        values = np.concatenate(
            [np.full(count, 3, dtype=np.int64), zipf_values(n_noise, domain, 1.1, 1)]
        )
        estimates = []
        for seed in range(8):
            oracle = oracle_cls(domain, 4.0, seed=seed, **kwargs)
            oracle.collect(values)
            estimates.append(float(oracle.frequencies(np.asarray([3]))[0]))
        mean = float(np.mean(estimates))
        true = count + int(np.sum(zipf_values(n_noise, domain, 1.1, 1) == 3))
        assert abs(mean - true) < 0.15 * true

    def test_rejects_queries_before_collect(self, oracle_cls, kwargs):
        oracle = oracle_cls(32, 2.0, seed=0, **kwargs)
        with pytest.raises(ProtocolError):
            oracle.frequencies(np.asarray([1]))

    def test_rejects_out_of_domain_values(self, oracle_cls, kwargs):
        oracle = oracle_cls(32, 2.0, seed=0, **kwargs)
        with pytest.raises(DomainError):
            oracle.collect(np.asarray([32]))

    def test_num_reports_accumulates(self, oracle_cls, kwargs):
        oracle = oracle_cls(32, 2.0, seed=0, **kwargs)
        oracle.collect(np.arange(10))
        oracle.collect(np.arange(5))
        assert oracle.num_reports == 15

    def test_all_frequencies_total_mass(self, oracle_cls, kwargs):
        # Debiased estimates should roughly preserve the total count.
        domain, n = 32, 20_000
        values = zipf_values(n, domain, 1.2, 2)
        oracle = oracle_cls(domain, 4.0, seed=3, **kwargs)
        oracle.collect(values)
        total = float(np.sum(oracle.all_frequencies()))
        assert abs(total - n) < 0.25 * n

    def test_report_bits_positive(self, oracle_cls, kwargs):
        oracle = oracle_cls(32, 2.0, seed=0, **kwargs)
        assert oracle.report_bits >= 1

    def test_memory_bytes_nonnegative(self, oracle_cls, kwargs):
        oracle = oracle_cls(32, 2.0, seed=0, **kwargs)
        oracle.collect(np.arange(10))
        assert oracle.memory_bytes() >= 0


class TestKRRSpecifics:
    def test_debias_formula(self):
        # With no perturbation (huge eps) estimates equal raw counts.
        values = zipf_values(5_000, 16, 1.1, 4)
        oracle = KRROracle(16, 100.0, seed=5)
        oracle.collect(values)
        counts = np.bincount(values, minlength=16)
        assert np.allclose(oracle.all_frequencies(), counts, atol=1e-6)

    def test_error_grows_with_domain(self):
        # k-RR degrades on large domains (the paper's core criticism).
        def mse_for(domain: int) -> float:
            values = np.zeros(10_000, dtype=np.int64)
            oracle = KRROracle(domain, 2.0, seed=6)
            oracle.collect(values)
            est = oracle.frequencies(np.asarray([0]))[0]
            return (est - 10_000) ** 2

        assert mse_for(2048) > mse_for(4)

    def test_report_bits_scale_with_domain(self):
        assert KRROracle(1024, 1.0, 0).report_bits == 10
        assert KRROracle(1 << 20, 1.0, 0).report_bits == 20


class TestOLHSpecifics:
    def test_default_g_is_optimal(self):
        oracle = OLHOracle(64, 2.0, seed=7)
        assert oracle.g == round(np.exp(2.0) + 1)

    def test_explicit_g(self):
        assert OLHOracle(64, 2.0, seed=8, g=16).g == 16

    def test_matches_flh_shape(self):
        # OLH and FLH should agree closely on a moderate workload.
        domain, n = 32, 15_000
        values = zipf_values(n, domain, 1.3, 9)
        truth = np.bincount(values, minlength=domain)
        olh = OLHOracle(domain, 3.0, seed=10)
        olh.collect(values)
        flh = FLHOracle(domain, 3.0, seed=11)
        flh.collect(values)
        top = np.argsort(truth)[-3:]
        for idx in top:
            assert abs(olh.frequencies(np.asarray([idx]))[0] - truth[idx]) < 0.25 * truth[idx] + 300
            assert abs(flh.frequencies(np.asarray([idx]))[0] - truth[idx]) < 0.25 * truth[idx] + 300


class TestFLHSpecifics:
    def test_pool_size_recorded(self):
        oracle = FLHOracle(64, 2.0, seed=12, pool_size=32)
        assert oracle.pool_size == 32
        assert oracle._counts.shape == (32, oracle.g)

    def test_report_bits(self):
        oracle = FLHOracle(64, 2.0, seed=13, pool_size=256)
        g_bits = int(np.ceil(np.log2(oracle.g)))
        assert oracle.report_bits == 8 + g_bits

    def test_small_pool_still_unbiased(self):
        values = np.full(20_000, 5, dtype=np.int64)
        estimates = []
        for seed in range(6):
            oracle = FLHOracle(64, 4.0, seed=seed, pool_size=16)
            oracle.collect(values)
            estimates.append(oracle.frequencies(np.asarray([5]))[0])
        assert abs(float(np.mean(estimates)) - 20_000) < 3_000


class TestHCMSSpecifics:
    def test_m_power_of_two_required(self):
        with pytest.raises(ValueError):
            HCMSOracle(64, 2.0, seed=14, k=4, m=100)

    def test_sketch_updates_lazily_transformed(self):
        oracle = HCMSOracle(64, 4.0, seed=15, k=4, m=64)
        oracle.collect(np.full(5_000, 9, dtype=np.int64))
        first = oracle.frequencies(np.asarray([9]))[0]
        oracle.collect(np.full(5_000, 9, dtype=np.int64))
        second = oracle.frequencies(np.asarray([9]))[0]
        assert second > first  # new mass visible after re-transform

    def test_report_bits(self):
        oracle = HCMSOracle(64, 2.0, seed=16, k=16, m=1024)
        assert oracle.report_bits == 1 + 4 + 10


class TestLDPJSOracleSpecifics:
    def test_sketch_accessor_returns_join_capable_sketch(self):
        a = zipf_values(20_000, 64, 1.3, 17)
        b = zipf_values(20_000, 64, 1.3, 18)
        truth = exact_join_size(a, b, 64)
        oracle_a = LDPJoinSketchOracle(64, 8.0, seed=19, k=9, m=256)
        oracle_b = LDPJoinSketchOracle(64, 8.0, seed=19, k=9, m=256)
        # Same seed -> same hash pairs -> joinable sketches.
        oracle_a.collect(a)
        oracle_b.collect(b)
        est = oracle_a.sketch().join_size(oracle_b.sketch())
        assert abs(est - truth) / truth < 0.5


class TestJoinViaFrequencies:
    def test_matches_truth_with_huge_budget(self):
        domain = 64
        a = zipf_values(15_000, domain, 1.3, 20)
        b = zipf_values(15_000, domain, 1.3, 21)
        truth = exact_join_size(a, b, domain)
        oa = KRROracle(domain, 100.0, seed=22)
        ob = KRROracle(domain, 100.0, seed=23)
        oa.collect(a)
        ob.collect(b)
        assert estimate_join_via_frequencies(oa, ob) == pytest.approx(truth, rel=1e-6)

    def test_domain_mismatch_rejected(self):
        oa = KRROracle(16, 1.0, seed=24)
        ob = KRROracle(32, 1.0, seed=25)
        oa.collect(np.arange(16))
        ob.collect(np.arange(32))
        with pytest.raises(ProtocolError, match="domain"):
            estimate_join_via_frequencies(oa, ob)

    def test_chunking_invariance(self):
        domain = 64
        a = zipf_values(5_000, domain, 1.2, 26)
        oa = KRROracle(domain, 4.0, seed=27)
        ob = KRROracle(domain, 4.0, seed=28)
        oa.collect(a)
        ob.collect(a)
        full = estimate_join_via_frequencies(oa, ob)
        chunked = estimate_join_via_frequencies(oa, ob, chunk_size=7)
        assert full == pytest.approx(chunked)

    def test_clip_negative_option(self):
        domain = 64
        a = zipf_values(2_000, domain, 1.2, 29)
        oa = KRROracle(domain, 0.5, seed=30)
        ob = KRROracle(domain, 0.5, seed=31)
        oa.collect(a)
        ob.collect(a)
        unclipped = estimate_join_via_frequencies(oa, ob)
        clipped = estimate_join_via_frequencies(oa, ob, clip_negative=True)
        assert clipped != unclipped  # small-eps estimates go negative
