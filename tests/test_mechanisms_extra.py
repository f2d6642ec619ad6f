"""Tests for the extended mechanism family (OUE) and the
predicate-restricted join feature."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from repro.core import SketchParams, build_sketch, encode_reports
from repro.hashing import HashPairs
from repro.join import FrequencyVector
from repro.mechanisms import OUEOracle
from repro.privacy import verify_ldp

from .conftest import zipf_values


class TestOUE:
    def test_unbiased_on_planted_value(self):
        domain, count = 64, 8_000
        values = np.concatenate(
            [np.full(count, 5, dtype=np.int64), zipf_values(4_000, domain, 1.2, 1)]
        )
        estimates = []
        for seed in range(8):
            oracle = OUEOracle(domain, 2.0, seed=seed)
            oracle.collect(values)
            estimates.append(float(oracle.frequencies(np.asarray([5]))[0]))
        true = count + int(np.sum(zipf_values(4_000, domain, 1.2, 1) == 5))
        assert abs(float(np.mean(estimates)) - true) < 0.1 * true

    def test_report_bits_is_domain(self):
        assert OUEOracle(1024, 1.0, 0).report_bits == 1024

    def test_total_mass_preserved(self):
        domain = 32
        values = zipf_values(20_000, domain, 1.3, 2)
        oracle = OUEOracle(domain, 3.0, seed=3)
        oracle.collect(values)
        assert abs(float(np.sum(oracle.all_frequencies())) - 20_000) < 3_000

    def test_exact_ldp_audit(self):
        """Enumerate OUE's bit-vector distribution on a tiny domain."""
        domain, eps = 3, 1.2
        p, q = 0.5, 1.0 / (math.exp(eps) + 1.0)

        def dist(x: int):
            out = {}
            for bits in itertools.product((0, 1), repeat=domain):
                prob = 1.0
                for position, bit in enumerate(bits):
                    on = p if position == x else q
                    prob *= on if bit else (1.0 - on)
                out[bits] = prob
            return out

        ok, ratio = verify_ldp(dist, list(range(domain)), eps)
        assert ok
        assert ratio == pytest.approx(math.exp(eps))


class TestRestrictedJoin:
    def test_matches_partial_truth(self):
        params = SketchParams(k=9, m=512, epsilon=20.0)
        pairs = HashPairs(params.k, params.m, seed=9)
        a = zipf_values(40_000, 256, 1.4, seed=10)
        b = zipf_values(40_000, 256, 1.4, seed=11)
        sa = build_sketch(encode_reports(a, params, pairs, 12), pairs)
        sb = build_sketch(encode_reports(b, params, pairs, 13), pairs)
        fa = FrequencyVector.from_values(a, 256)
        fb = FrequencyVector.from_values(b, 256)
        subset = fa.top_k(5)
        truth = fa.restrict(subset).inner(fb.restrict(subset))
        estimate = sa.join_size_restricted(sb, subset)
        assert estimate == pytest.approx(truth, rel=0.2)

    def test_full_domain_restriction_approximates_join(self):
        params = SketchParams(k=9, m=512, epsilon=20.0)
        pairs = HashPairs(params.k, params.m, seed=14)
        a = zipf_values(30_000, 128, 1.4, seed=15)
        sa = build_sketch(encode_reports(a, params, pairs, 16), pairs)
        sb = build_sketch(encode_reports(a, params, pairs, 17), pairs)
        full = sa.join_size(sb)
        restricted = sa.join_size_restricted(sb, np.arange(128))
        # Different estimators, same quantity: agree within sketch noise.
        assert restricted == pytest.approx(full, rel=0.3)

    def test_requires_compatible_sketches(self):
        params = SketchParams(k=2, m=16, epsilon=2.0)
        s1 = build_sketch(
            encode_reports([1], params, HashPairs(2, 16, 18), 19), HashPairs(2, 16, 18)
        )
        s2 = build_sketch(
            encode_reports([1], params, HashPairs(2, 16, 20), 21), HashPairs(2, 16, 20)
        )
        with pytest.raises(Exception):
            s1.join_size_restricted(s2, [1])
