"""Cross-module integration tests.

These tests stitch together multiple subsystems the way a downstream user
would — data generators feeding protocol drivers scored against the exact
join substrate — and assert *relationships between methods* rather than
absolute numbers.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import run_join_sketch
from repro.core import SketchParams, build_sketch, encode_reports
from repro.data import ZipfGenerator, make_join_instance
from repro.hashing import HashPairs
from repro.mechanisms import LDPJoinSketchOracle
from repro.sketches import FastAGMSSketch


class TestEpsilonLimit:
    """eps -> infinity removes the privacy noise, not the sketch noise."""

    def test_large_epsilon_approaches_fast_agms_accuracy(self):
        instance = ZipfGenerator(512, alpha=1.4).make_join_instance(40_000, rng=1)
        truth = instance.true_join_size
        params = SketchParams(k=9, m=512, epsilon=100.0)

        ldp_errors, fagms_errors = [], []
        for seed in range(4):
            ldp = run_join_sketch(
                instance.values_a, instance.values_b, params, seed=seed
            ).estimate
            ldp_errors.append(abs(ldp - truth) / truth)
            pairs = HashPairs(params.k, params.m, seed)
            sa = FastAGMSSketch(pairs)
            sa.update_batch(instance.values_a)
            sb = FastAGMSSketch(pairs)
            sb.update_batch(instance.values_b)
            fagms_errors.append(abs(sa.inner_product(sb) - truth) / truth)

        # Row/column sampling keeps LDPJoinSketch noisier than FAGMS even
        # without privacy noise, but within a moderate factor.
        assert np.mean(ldp_errors) < 0.2
        assert np.mean(fagms_errors) <= np.mean(ldp_errors)

    def test_error_monotone_in_epsilon_on_average(self):
        instance = ZipfGenerator(512, alpha=1.3).make_join_instance(30_000, rng=2)
        truth = instance.true_join_size

        def mean_error(epsilon: float) -> float:
            params = SketchParams(k=9, m=256, epsilon=epsilon)
            return float(
                np.mean(
                    [
                        abs(
                            run_join_sketch(
                                instance.values_a, instance.values_b, params, seed=s
                            ).estimate
                            - truth
                        )
                        for s in range(6)
                    ]
                )
            )

        assert mean_error(8.0) < mean_error(0.3)


class TestOracleSketchConsistency:
    """The frequency-oracle adapter and raw protocol agree exactly."""

    def test_oracle_sketch_equals_manual_construction(self):
        domain = 128
        values = ZipfGenerator(domain, alpha=1.2).sample(5_000, rng=3)
        oracle = LDPJoinSketchOracle(domain, 4.0, seed=4, k=3, m=64)
        oracle.collect(values, rng=np.random.default_rng(5))

        manual = build_sketch(
            encode_reports(values, oracle.params, oracle.pairs, np.random.default_rng(5)),
            oracle.pairs,
        )
        assert np.allclose(oracle.sketch().counts, manual.counts)


class TestRegistryToProtocolPipeline:
    @pytest.mark.parametrize("name", ["facebook", "tpcds"])
    def test_registry_instance_flows_through_protocol(self, name):
        instance = make_join_instance(name, scale=0.003, seed=6)
        params = SketchParams(k=5, m=256, epsilon=8.0)
        result = run_join_sketch(
            instance.values_a, instance.values_b, params, seed=7
        )
        assert np.isfinite(result.estimate)
        assert result.uplink_bits == (instance.size_a + instance.size_b) * params.report_bits

    def test_split_mode_self_join_larger_than_independent(self):
        # "split" shares the realised empirical distribution, which for a
        # fixed population usually raises the realised join size slightly;
        # mostly this guards that both modes produce valid instances.
        gen = ZipfGenerator(256, alpha=1.5)
        split = gen.make_join_instance(20_000, rng=8, mode="split")
        indep = gen.make_join_instance(20_000, rng=8, mode="independent")
        assert split.true_join_size > 0
        assert indep.true_join_size > 0
