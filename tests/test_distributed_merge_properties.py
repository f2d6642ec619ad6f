"""Property suite for sharded mergeable aggregation (repro.distributed).

The core guarantee, enforced for every registry method: for any shard
count K and any merge topology, the reduced state — and every
deterministic field of the resulting :class:`EstimateResult` — is
byte-identical to the single-aggregator run, and K = 1 replays the
unsharded estimate bit for bit.  On top of that, partial merging is a
monoid: associative, commutative (for element-wise sums), with the empty
partial as identity.
"""

from __future__ import annotations

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import JoinSession, get_estimator
from repro.backend import backend_available, use_backend
from repro.core import SketchParams
from repro.core.estimator import DEFAULT_SCAN_CHUNK
from repro.data.base import JoinInstance
from repro.distributed import (
    ShardPlanner,
    estimate_sharded,
    merge_sequential,
    merge_tree,
    prepare_shard_run,
)

from .conftest import zipf_values

#: Shard counts of the invariance grid (deliberately including 1, primes
#: and a power of two deeper than one tree level).
SHARD_COUNTS = (1, 2, 3, 7, 16)

#: Compute backends to pin the grid to (numba rows skip when absent).
BACKENDS = [name for name in ("numpy", "numba") if backend_available(name)]

#: Small shared shapes so the 8-method grid stays fast.
DOMAIN = 64
N = 1_600
EPSILON = 4.0

#: Every registered method with small-configuration options and the
#: partition strategy its sharded run uses in this suite (LDPJoinSketch+
#: needs >= 4 users per shard, which the balanced range split guarantees).
METHOD_CONFIGS = {
    "fagms": (dict(k=3, m=32), "hash"),
    "krr": (dict(), "hash"),
    "olh": (dict(), "hash"),
    "flh": (dict(pool_size=16), "hash"),
    "hcms": (dict(k=3, m=32), "hash"),
    "ldp-join-sketch": (dict(k=3, m=32), "hash"),
    "ldp-join-sketch-plus": (dict(k=3, m=32), "range"),
    "compass": (dict(k=3, m=32), "hash"),
}


@pytest.fixture(scope="module")
def instance() -> JoinInstance:
    return JoinInstance(
        name="prop-zipf",
        values_a=zipf_values(N, DOMAIN, 1.2, seed=21),
        values_b=zipf_values(N, DOMAIN, 1.1, seed=22),
        domain_size=DOMAIN,
    )


def _make(name: str):
    options, strategy = METHOD_CONFIGS[name]
    return get_estimator(name, **options), strategy


def _deterministic_fields(result):
    return (result.estimate, result.uplink_bits, result.sketch_bytes)


class TestShardCountInvariance:
    """Acceptance grid: 8 methods x K in {1, 2, 3, 7, 16}."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("name", sorted(METHOD_CONFIGS))
    def test_tree_merge_matches_single_aggregator(self, name, backend, instance):
        estimator, strategy = _make(name)
        with use_backend(backend):
            serial = estimator.estimate(instance, EPSILON, seed=77)
            for num_shards in SHARD_COUNTS:
                tree = estimate_sharded(
                    estimator,
                    instance,
                    EPSILON,
                    num_shards=num_shards,
                    seed=77,
                    strategy=strategy,
                    merge="tree",
                )
                single = estimate_sharded(
                    estimator,
                    instance,
                    EPSILON,
                    num_shards=num_shards,
                    seed=77,
                    strategy=strategy,
                    merge="sequential",
                )
                assert _deterministic_fields(tree) == _deterministic_fields(single), (
                    f"{name}: tree != single-aggregator at K={num_shards}"
                )
                if num_shards == 1:
                    assert _deterministic_fields(tree) == _deterministic_fields(
                        serial
                    ), f"{name}: K=1 does not replay the unsharded estimate"

    @pytest.mark.parametrize("name", ["ldp-join-sketch", "krr", "flh", "hcms", "olh", "fagms"])
    def test_merged_partial_state_is_byte_identical(self, name, instance):
        """Not just the estimate: the reduced accumulators match bitwise."""
        estimator, strategy = _make(name)
        for num_shards in (2, 7, 16):
            run = prepare_shard_run(
                estimator,
                instance,
                EPSILON,
                num_shards=num_shards,
                seed=31,
                strategy=strategy,
            )
            partials = run.collect_all()
            tree = merge_tree(partials)
            single = merge_sequential(partials)
            assert set(tree.arrays) == set(single.arrays)
            for key in tree.arrays:
                assert tree.arrays[key].dtype == single.arrays[key].dtype
                np.testing.assert_array_equal(tree.arrays[key], single.arrays[key])
            assert tree.counters == single.counters

    def test_shard_runs_are_rebuildable(self, instance):
        """A run re-planned from the same arguments emits identical partials
        (what lets pool workers rebuild plans instead of shipping them)."""
        estimator, strategy = _make("ldp-join-sketch")
        kwargs = dict(num_shards=5, seed=13, strategy=strategy)
        first = prepare_shard_run(estimator, instance, EPSILON, **kwargs)
        second = prepare_shard_run(estimator, instance, EPSILON, **kwargs)
        for s in range(5):
            a, b = first.collect(s), second.collect(s)
            assert a.fingerprint == b.fingerprint
            assert set(a.arrays) == set(b.arrays)
            for key in a.arrays:
                assert a.arrays[key].dtype == b.arrays[key].dtype
                np.testing.assert_array_equal(a.arrays[key], b.arrays[key])
            # Counters match except wall-clock accounting.
            for key in a.counters:
                if "seconds" not in key:
                    assert a.counters[key] == b.counters[key]


class TestPlusWideDomainInvariance:
    """LDPJoinSketch+ at an even k over a domain wider than one scan chunk.

    The main grid's k=3, 64-value configuration never takes the phase-1
    scan's tie branch (exactly k/2 rows above the cutoff) or crosses a
    chunk boundary; this one does both.
    """

    DOMAIN = DEFAULT_SCAN_CHUNK + 1_000

    @pytest.fixture(scope="class")
    def wide_instance(self) -> JoinInstance:
        return JoinInstance(
            name="prop-zipf-wide",
            values_a=zipf_values(N, self.DOMAIN, 1.2, seed=23),
            values_b=zipf_values(N, self.DOMAIN, 1.1, seed=24),
            domain_size=self.DOMAIN,
        )

    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    def test_tree_merge_matches_single_aggregator(self, num_shards, wide_instance):
        estimator = get_estimator("ldp-join-sketch-plus", k=4, m=32)
        kwargs = dict(num_shards=num_shards, seed=77, strategy="range")
        tree = estimate_sharded(estimator, wide_instance, EPSILON, merge="tree", **kwargs)
        single = estimate_sharded(
            estimator, wide_instance, EPSILON, merge="sequential", **kwargs
        )
        assert _deterministic_fields(tree) == _deterministic_fields(single)
        np.testing.assert_array_equal(
            tree.extras["frequent_items"], single.extras["frequent_items"]
        )
        for key in ("high_freq_mass_a", "high_freq_mass_b", "low_estimate", "high_estimate"):
            assert tree.extras[key] == single.extras[key], key
        assert 1 < tree.extras["frequent_items"].size < self.DOMAIN
        if num_shards == 1:
            serial = estimator.estimate(wide_instance, EPSILON, seed=77)
            assert _deterministic_fields(tree) == _deterministic_fields(serial)


class TestHashRouting:
    """The hash strategy spreads even a small domain over every shard."""

    @pytest.mark.parametrize("n", [64, 256])
    @pytest.mark.parametrize("num_shards", [2, 3, 4, 8])
    def test_small_domains_reach_every_shard(self, n, num_shards):
        owners = ShardPlanner(num_shards, strategy="hash").shard_of(np.arange(n))
        counts = np.bincount(owners, minlength=num_shards)
        assert counts.min() >= n / (2 * num_shards), counts.tolist()

    def test_plus_runs_hash_sharded_on_a_small_domain(self):
        domain = 256
        small = JoinInstance(
            name="small-zipf",
            values_a=zipf_values(N, domain, 1.3, seed=25),
            values_b=zipf_values(N, domain, 1.3, seed=26),
            domain_size=domain,
        )
        estimator = get_estimator("ldp-join-sketch-plus", k=4, m=32)
        result = estimate_sharded(
            estimator, small, EPSILON, num_shards=4, seed=77, strategy="hash"
        )
        assert np.isfinite(result.estimate)


class TestSessionLevelInvariance:
    """JoinSession.collect_sharded vs distributed partials, per K."""

    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    @pytest.mark.parametrize("strategy", ["hash", "range"])
    def test_distributed_partials_reproduce_collect_sharded(
        self, num_shards, strategy
    ):
        params = SketchParams(k=3, m=32, epsilon=2.0)
        values_a = zipf_values(900, DOMAIN, 1.3, seed=5)
        values_b = zipf_values(1_100, DOMAIN, 1.2, seed=6)

        reference = JoinSession(params, seed=42)
        reference.collect_sharded(
            "A", values_a, num_shards=num_shards, strategy=strategy, seed=101
        )
        reference.collect_sharded(
            "B", values_b, num_shards=num_shards, strategy=strategy, seed=102
        )

        coordinator = JoinSession(params, pairs=reference.pairs)
        partials = []
        for stream, values, seed in (("A", values_a, 101), ("B", values_b, 102)):
            planner = ShardPlanner(num_shards, strategy=strategy)
            for shard_values, shard_seed in zip(
                planner.split(values), planner.shard_seeds(seed)
            ):
                shard = coordinator.spawn_shard()
                shard.collect(stream, shard_values, seed=shard_seed)
                partials.append(shard.to_partial())
        coordinator.merge(merge_tree(partials))

        for stream in ("A", "B"):
            np.testing.assert_array_equal(
                coordinator._streams[stream].raw, reference._streams[stream].raw
            )
            assert coordinator.num_reports(stream) == reference.num_reports(stream)
        assert coordinator.estimate().estimate == reference.estimate().estimate

    def test_collect_sharded_k1_is_plain_collect(self):
        """The identity plan: K=1 reproduces today's figures bit for bit."""
        params = SketchParams(k=3, m=32, epsilon=2.0)
        values = zipf_values(700, DOMAIN, 1.3, seed=7)
        plain = JoinSession(params, seed=9)
        plain.collect("A", values)
        sharded = JoinSession(params, seed=9)
        sharded.collect_sharded("A", values, num_shards=1)
        np.testing.assert_array_equal(
            sharded._streams["A"].raw, plain._streams["A"].raw
        )


class TestMergeAlgebra:
    """Partial merging is a monoid (hypothesis over shard populations)."""

    @staticmethod
    def _partials(value_lists, seed_base):
        params = SketchParams(k=2, m=16, epsilon=1.5)
        coordinator = JoinSession(params, seed=3)
        partials = []
        for i, values in enumerate(value_lists):
            shard = coordinator.spawn_shard()
            if len(values):
                shard.collect("A", np.asarray(values, dtype=np.int64), seed=seed_base + i)
            partials.append(shard.to_partial())
        return partials

    values_lists = st.lists(
        st.lists(st.integers(min_value=0, max_value=200), min_size=0, max_size=40),
        min_size=3,
        max_size=3,
    )

    @given(values_lists, st.integers(min_value=0, max_value=2**20))
    @settings(max_examples=25, deadline=None)
    def test_associativity(self, lists, seed_base):
        p1, p2, p3 = self._partials(lists, seed_base)
        left = p1.copy().merge(p2.copy()).merge(p3.copy())
        right = p1.copy().merge(p2.copy().merge(p3.copy()))
        assert left == right

    @given(values_lists, st.integers(min_value=0, max_value=2**20))
    @settings(max_examples=25, deadline=None)
    def test_commutativity(self, lists, seed_base):
        p1, p2, _ = self._partials(lists, seed_base)
        assert p1.copy().merge(p2.copy()) == p2.copy().merge(p1.copy())

    @given(values_lists, st.integers(min_value=0, max_value=2**20))
    @settings(max_examples=25, deadline=None)
    def test_identity_element(self, lists, seed_base):
        partials = self._partials(lists, seed_base)
        empty = self._partials([[]], 0)[0]
        # Strip the empty shard's (zero-report) stream entry so it is the
        # true identity: no streams, no charges, only matching fingerprints.
        merged_with_empty = partials[0].copy().merge(empty)
        alone = partials[0].copy()
        for key in alone.arrays:
            np.testing.assert_array_equal(
                merged_with_empty.arrays[key], alone.arrays[key]
            )
        assert merged_with_empty.counters.get("stream:A:num_reports", 0.0) == (
            alone.counters.get("stream:A:num_reports", 0.0)
        )

    def test_concat_stores_commute_at_the_estimate_level(self):
        """OLH partials hold per-user stores (concatenation is order-
        sensitive state), but the support scan sums exact integers, so
        either merge order yields the same estimates."""
        inst = JoinInstance(
            name="olh-comm",
            values_a=zipf_values(400, DOMAIN, 1.2, seed=41),
            values_b=zipf_values(400, DOMAIN, 1.2, seed=42),
            domain_size=DOMAIN,
        )
        estimator, _ = _make("olh")
        run = prepare_shard_run(estimator, inst, EPSILON, num_shards=2, seed=8)
        p0, p1 = run.collect_all()
        forward = run.finalize(merge_sequential([p0, p1]))
        backward = run.finalize(merge_sequential([p1, p0]))
        assert forward.estimate == backward.estimate


class TestSweepViaPartials:
    """sweep --shards: partial-shipping stays bit-identical for every N."""

    def test_worker_invariance(self):
        from repro.experiments.sweep import plan_grid, run_sweep

        inst = JoinInstance(
            name="sweep-shards",
            values_a=zipf_values(1_200, DOMAIN, 1.2, seed=61),
            values_b=zipf_values(1_200, DOMAIN, 1.1, seed=62),
            domain_size=DOMAIN,
        )

        def estimates(shards, workers):
            plan = plan_grid(
                ["sweep-shards"],
                {"LDPJoinSketch": get_estimator("ldp-join-sketch", k=3, m=32)},
                [2.0, 8.0],
                3,
                seed=55,
                shards=shards,
                instances={"sweep-shards": inst},
            )
            return tuple(
                r.estimate for block in run_sweep(plan, workers=workers) for r in block
            )

        unsharded = estimates(None, 1)
        assert estimates(1, 1) == unsharded  # identity plan
        assert estimates(1, 2) == unsharded  # partial shipping, K=1
        sharded = estimates(4, 1)
        assert estimates(4, 2) == sharded
        assert estimates(4, 3) == sharded
