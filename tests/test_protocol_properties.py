"""Property-based tests of the core protocol (hypothesis).

These explore the parameter space (k, m, epsilon, value sets) rather than
fixed configurations: wire-format invariants, determinism, and structural
identities that must hold for *every* legal configuration.
"""

from __future__ import annotations

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SketchParams, build_sketch, encode_reports, fap_encode_reports
from repro.core.fap import MODE_HIGH, MODE_LOW
from repro.hashing import HashPairs

params_strategy = st.builds(
    SketchParams,
    k=st.integers(min_value=1, max_value=6),
    m=st.sampled_from([2, 4, 8, 16, 32]),
    epsilon=st.floats(min_value=0.1, max_value=20.0),
)

values_strategy = st.lists(
    st.integers(min_value=0, max_value=500), min_size=1, max_size=64
).map(lambda xs: np.asarray(xs, dtype=np.int64))


class TestClientProperties:
    @given(params_strategy, values_strategy, st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_wire_format_always_valid(self, params, values, seed):
        pairs = HashPairs(params.k, params.m, seed=seed)
        batch = encode_reports(values, params, pairs, seed)
        assert len(batch) == values.size
        assert set(np.unique(batch.ys)) <= {-1, 1}
        assert batch.rows.min() >= 0 and batch.rows.max() < params.k
        assert batch.cols.min() >= 0 and batch.cols.max() < params.m

    @given(params_strategy, values_strategy, st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_deterministic_under_seed(self, params, values, seed):
        pairs = HashPairs(params.k, params.m, seed=seed)
        b1 = encode_reports(values, params, pairs, seed)
        b2 = encode_reports(values, params, pairs, seed)
        assert np.array_equal(b1.ys, b2.ys)
        assert np.array_equal(b1.rows, b2.rows)
        assert np.array_equal(b1.cols, b2.cols)

    @given(params_strategy, values_strategy, st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_fap_wire_format_matches_plain(self, params, values, seed):
        """FAP output is indistinguishable from Algorithm 1 at the format
        level regardless of mode or FI content."""
        pairs = HashPairs(params.k, params.m, seed=seed)
        fi = values[: max(1, values.size // 2)]
        for mode in (MODE_HIGH, MODE_LOW):
            batch = fap_encode_reports(values, mode, params, pairs, fi, seed)
            assert len(batch) == values.size
            assert set(np.unique(batch.ys)) <= {-1, 1}


class TestServerProperties:
    @given(params_strategy, values_strategy, st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_construction_linearity(self, params, values, seed):
        """Sketch(batch1) + Sketch(batch2) == Sketch(batch1 ++ batch2)."""
        pairs = HashPairs(params.k, params.m, seed=seed)
        rng = np.random.default_rng(seed)
        half = values.size // 2
        b1 = encode_reports(values[:half], params, pairs, rng)
        b2 = encode_reports(values[half:], params, pairs, rng)
        first, second = build_sketch(b1, pairs), build_sketch(b2, pairs)
        combined = build_sketch(b1.concat(b2), pairs)
        assert np.allclose(first.counts + second.counts, combined.counts)
        assert first.num_reports + second.num_reports == combined.num_reports

    @given(params_strategy, values_strategy, st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_join_size_symmetry(self, params, values, seed):
        pairs = HashPairs(params.k, params.m, seed=seed)
        rng = np.random.default_rng(seed)
        sa = build_sketch(encode_reports(values, params, pairs, rng), pairs)
        sb = build_sketch(encode_reports(values[::-1].copy(), params, pairs, rng), pairs)
        assert sa.join_size(sb) == pytest.approx(sb.join_size(sa))

    @given(
        params_strategy,
        values_strategy,
        st.floats(min_value=-100, max_value=100),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_shift_identity(self, params, values, mass, seed):
        """shifted(x).shifted(-x) restores the counters."""
        pairs = HashPairs(params.k, params.m, seed=seed)
        sketch = build_sketch(encode_reports(values, params, pairs, seed), pairs)
        restored = sketch.shifted(mass).shifted(-mass)
        assert np.allclose(restored.counts, sketch.counts)
