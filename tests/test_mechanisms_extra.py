"""Tests for the predicate-restricted join feature."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SketchParams, build_sketch, encode_reports
from repro.hashing import HashPairs
from repro.join import FrequencyVector

from .conftest import zipf_values


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
