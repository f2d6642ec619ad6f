"""Tests for the estimator registry and the unified result type."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.api import (
    BaseEstimator,
    EstimateResult,
    JoinEstimator,
    available_estimators,
    get_estimator,
    register,
    resolve_estimator,
)
from repro.data import ZipfGenerator
from repro.errors import UnknownEstimatorError
from repro.privacy.budget import BudgetLedger


CORE_LINEUP = [
    "fagms",
    "krr",
    "olh",
    "flh",
    "hcms",
    "ldp-join-sketch",
    "ldp-join-sketch-plus",
    "compass",
]


@pytest.fixture(scope="module")
def instance():
    return ZipfGenerator(128, alpha=1.4).make_join_instance(6_000, rng=1)


class TestRegistry:
    def test_at_least_seven_estimators(self):
        assert len(available_estimators()) >= 7

    def test_core_lineup_registered(self):
        names = available_estimators()
        for expected in CORE_LINEUP:
            assert expected in names

    @pytest.mark.parametrize("name", CORE_LINEUP)
    def test_round_trip_every_name(self, name, instance):
        """Every registered name resolves, instantiates and estimates."""
        estimator = get_estimator(name)
        assert isinstance(estimator, JoinEstimator)
        result = estimator.estimate(instance, epsilon=8.0, seed=3)
        assert isinstance(result, EstimateResult)
        assert np.isfinite(result.estimate)
        truth = instance.true_join_size
        assert abs(result.estimate - truth) < 3 * truth
        assert estimator.report_bits_for(instance.domain_size, 8.0) >= 1

    def test_display_name_aliases(self):
        assert resolve_estimator("LDPJoinSketch") == "ldp-join-sketch"
        assert resolve_estimator("LDPJoinSketch+") == "ldp-join-sketch-plus"
        assert resolve_estimator("k-RR") == "krr"
        assert resolve_estimator("Apple-HCMS") == "hcms"
        assert resolve_estimator("FAGMS") == "fagms"
        assert resolve_estimator("ldpjs+") == "ldp-join-sketch-plus"
        assert resolve_estimator("fap") == "ldp-join-sketch-plus"

    def test_names_are_canonicalised(self):
        assert resolve_estimator(" LDP_Join_Sketch ") == "ldp-join-sketch"

    def test_unknown_name_raises_with_suggestions(self):
        with pytest.raises(UnknownEstimatorError, match="registered estimators"):
            get_estimator("no-such-method")

    def test_options_forwarded_to_factory(self):
        estimator = get_estimator("ldpjs+", k=5, m=64, sample_rate=0.2)
        assert estimator.k == 5
        assert estimator.m == 64
        assert estimator.sample_rate == 0.2

    def test_private_flags(self):
        assert get_estimator("fagms").private is False
        assert get_estimator("ldp-join-sketch").private is True

    @pytest.mark.parametrize("name", CORE_LINEUP)
    def test_unknown_option_is_refused(self, name):
        # Options go straight to the estimator's constructor, so a
        # misspelt one fails at lookup instead of being ignored.
        with pytest.raises(TypeError, match="no_such_option"):
            get_estimator(name, no_such_option=1)

    def test_base_estimator_is_abstract(self):
        with pytest.raises(TypeError, match="estimate"):
            BaseEstimator()

    def test_estimator_without_estimate_cannot_be_built(self):
        class Incomplete(BaseEstimator):
            name = "Incomplete"

        with pytest.raises(TypeError, match="estimate"):
            Incomplete()

    def test_register_decorator_and_collision(self, instance):
        @register("test-constant", aliases=("tc",))
        class ConstantEstimator(BaseEstimator):
            name = "Constant"
            private = False

            def estimate(self, instance, epsilon, seed=None):
                return EstimateResult(estimate=42.0)

        try:
            assert get_estimator("tc").estimate(instance, 1.0).estimate == 42.0
            with pytest.raises(UnknownEstimatorError, match="already registered"):
                register("test-constant", ConstantEstimator)
        finally:
            from repro.api import registry

            registry._FACTORIES.pop("test-constant", None)
            registry._ALIASES.pop("tc", None)

    def test_failed_registration_leaves_registry_untouched(self):
        # Regression: a rejected alias used to leave the canonical name
        # half-registered.
        before = available_estimators()
        with pytest.raises(UnknownEstimatorError, match="shadow"):
            register("brand-new-method", lambda: None, aliases=("krr",))
        assert available_estimators() == before

    def test_alias_cannot_shadow_canonical_name_even_with_replace(self):
        with pytest.raises(UnknownEstimatorError, match="shadow"):
            register("another-method", lambda: None, aliases=("fagms",), replace=True)

    def test_early_user_registration_cannot_claim_builtin_name(self):
        # Regression: register() loads the builtins first, so claiming a
        # builtin name collides immediately instead of poisoning the
        # registry on first lookup.
        with pytest.raises(UnknownEstimatorError, match="already registered"):
            register("fagms", lambda: None)

    def test_replace_clears_stale_alias(self, instance):
        from repro.api import registry

        class ConstantEstimator(BaseEstimator):
            name = "Constant"
            private = False

            def estimate(self, instance, epsilon, seed=None):
                return EstimateResult(estimate=7.0)

        original_factory = registry._FACTORIES["ldp-join-sketch"]
        try:
            register("ldpjs", ConstantEstimator, replace=True)
            # The alias redirect must not shadow the replacement.
            assert get_estimator("ldpjs").estimate(instance, 1.0).estimate == 7.0
            # The canonical builtin name is untouched.
            assert resolve_estimator("ldp-join-sketch") == "ldp-join-sketch"
        finally:
            registry._FACTORIES.pop("ldpjs", None)
            registry._ALIASES["ldpjs"] = "ldp-join-sketch"
            registry._FACTORIES["ldp-join-sketch"] = original_factory

    def test_private_baselines_carry_ledger(self, instance):
        result = get_estimator("krr").estimate(instance, epsilon=4.0, seed=5)
        assert result.ledger is not None
        assert result.ledger.worst_case_epsilon() == pytest.approx(4.0)

    def test_compass_matches_ldpjs_on_two_way(self, instance):
        """The degenerate one-attribute chain is exactly Eq. (5)."""
        a = get_estimator("ldp-join-sketch", k=5, m=64).estimate(instance, 8.0, seed=11)
        b = get_estimator("compass", k=5, m=64).estimate(instance, 8.0, seed=11)
        # Same reports, same sketches; the two query paths only differ in
        # float summation order (einsum vs per-replica matmul).
        assert a.estimate == pytest.approx(b.estimate, rel=1e-12)


class TestEstimateResult:
    def test_frozen(self):
        result = EstimateResult(estimate=1.0)
        with pytest.raises(AttributeError):
            result.estimate = 2.0

    def test_extras_attribute_access(self):
        result = EstimateResult(estimate=1.0, extras={"low_estimate": 0.4})
        assert result.low_estimate == 0.4
        with pytest.raises(AttributeError):
            result.not_a_field

    def test_extras_copied(self):
        extras = {"a": 1}
        result = EstimateResult(estimate=1.0, extras=extras)
        extras["a"] = 2
        assert result.extras["a"] == 1

    def test_picklable(self):
        ledger = BudgetLedger()
        ledger.charge("A", 2.0, "test")
        result = EstimateResult(estimate=3.0, ledger=ledger, extras={"x": 7})
        clone = pickle.loads(pickle.dumps(result))
        assert clone == result
        assert clone.x == 7

    def test_with_costs(self):
        result = EstimateResult(estimate=1.0).with_costs(uplink_bits=8, sketch_bytes=16)
        assert (result.estimate, result.uplink_bits, result.sketch_bytes) == (1.0, 8, 16)

    def test_unifies_legacy_result_types(self):
        from repro.core import PlusEstimate
        from repro.experiments.methods import MethodResult

        assert PlusEstimate is EstimateResult
        assert MethodResult is EstimateResult


class TestDeprecatedShims:
    def test_default_methods_dispatch_through_registry(self):
        from repro.experiments.methods import default_methods

        methods = default_methods(k=5, m=64)
        assert list(methods) == [
            "FAGMS",
            "k-RR",
            "Apple-HCMS",
            "FLH",
            "LDPJoinSketch",
            "LDPJoinSketch+",
        ]
        for method in methods.values():
            assert isinstance(method, JoinEstimator)
