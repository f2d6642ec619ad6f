"""Tests for :mod:`repro.privacy`: primitives, budgets, exact LDP audits.

The audit tests are the executable versions of Theorems 1 and 6: for small
``(k, m)`` we enumerate the *exact* output distribution of the client
algorithms and assert the e^eps dominance bound over every input pair.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ParameterError
from repro.privacy import (
    BudgetLedger,
    PrivacySpec,
    c_epsilon,
    flip_probability,
    grr_perturb,
    grr_probabilities,
    keep_probability,
    max_privacy_ratio,
    random_signs,
    verify_ldp,
)


class TestResponsePrimitives:
    def test_flip_keep_sum_to_one(self):
        for eps in (0.1, 1.0, 4.0, 10.0):
            assert flip_probability(eps) + keep_probability(eps) == pytest.approx(1.0)

    def test_flip_probability_values(self):
        assert flip_probability(0.0001) == pytest.approx(0.5, abs=1e-4)
        assert flip_probability(4.0) == pytest.approx(1 / (math.exp(4) + 1))

    def test_flip_probability_monotone(self):
        eps = np.linspace(0.1, 10, 20)
        probs = [flip_probability(e) for e in eps]
        assert all(a > b for a, b in zip(probs, probs[1:]))

    def test_c_epsilon_value(self):
        assert c_epsilon(1.0) == pytest.approx((math.e + 1) / (math.e - 1))

    def test_c_epsilon_is_inverse_mean_of_sign(self):
        # E[b] = p - q = (e^eps - 1)/(e^eps + 1) = 1 / c_eps.
        for eps in (0.5, 2.0, 6.0):
            mean_b = keep_probability(eps) - flip_probability(eps)
            assert mean_b * c_epsilon(eps) == pytest.approx(1.0)

    def test_large_epsilon_does_not_overflow(self):
        assert flip_probability(10_000) == pytest.approx(0.0)
        assert c_epsilon(10_000) == pytest.approx(1.0)

    def test_invalid_epsilon(self):
        with pytest.raises(ParameterError):
            flip_probability(0.0)
        with pytest.raises(ParameterError):
            c_epsilon(-1.0)

    def test_random_signs_values(self):
        signs = random_signs(10_000, 4.0, rng=0)
        assert set(np.unique(signs)) <= {-1, 1}

    def test_random_signs_flip_rate(self):
        signs = random_signs(200_000, 2.0, rng=1)
        observed = float(np.mean(signs == -1))
        expected = flip_probability(2.0)
        # Binomial sd ~ 0.0007; allow 5 sd.
        assert abs(observed - expected) < 0.004

    def test_random_signs_deterministic(self):
        assert np.array_equal(random_signs(100, 1.0, rng=7), random_signs(100, 1.0, rng=7))

    def test_random_signs_negative_size(self):
        with pytest.raises(ParameterError):
            random_signs(-1, 1.0)

    def test_grr_probabilities_sum(self):
        p, q = grr_probabilities(2.0, 10)
        assert p + 9 * q == pytest.approx(1.0)
        assert p / q == pytest.approx(math.exp(2.0))

    def test_grr_perturb_domain(self):
        values = np.zeros(10_000, dtype=np.int64)
        out = grr_perturb(values, 7, 1.0, rng=2)
        assert out.min() >= 0 and out.max() < 7

    def test_grr_perturb_keep_rate(self):
        values = np.full(100_000, 3, dtype=np.int64)
        out = grr_perturb(values, 16, 2.0, rng=3)
        p, _ = grr_probabilities(2.0, 16)
        observed = float(np.mean(out == 3))
        assert abs(observed - p) < 0.01

    def test_grr_perturb_uniform_replacement(self):
        values = np.zeros(200_000, dtype=np.int64)
        out = grr_perturb(values, 4, 0.5, rng=4)
        _, q = grr_probabilities(0.5, 4)
        for other in (1, 2, 3):
            assert abs(float(np.mean(out == other)) - q) < 0.01

    def test_grr_perturb_large_epsilon_identity(self):
        values = np.arange(1000) % 50
        out = grr_perturb(values, 50, 100.0, rng=5)
        assert np.array_equal(out, values)

    def test_grr_perturb_rejects_out_of_domain(self):
        with pytest.raises(ParameterError):
            grr_perturb(np.array([5]), 5, 1.0)

    @given(st.integers(min_value=2, max_value=64), st.floats(min_value=0.1, max_value=8))
    @settings(max_examples=50, deadline=None)
    def test_grr_probability_identity(self, domain, eps):
        p, q = grr_probabilities(eps, domain)
        assert p + (domain - 1) * q == pytest.approx(1.0)
        assert p / q == pytest.approx(math.exp(eps))


class TestBudget:
    def test_spec_validation(self):
        with pytest.raises(ParameterError):
            PrivacySpec(0.0)
        assert PrivacySpec(2.0).e_epsilon == pytest.approx(math.exp(2.0))

    def test_sequential_composition_within_group(self):
        ledger = BudgetLedger()
        ledger.charge("A", 1.0, "m1")
        ledger.charge("A", 2.0, "m2")
        assert ledger.spend_by_group() == {"A": 3.0}
        assert ledger.worst_case_epsilon() == 3.0

    def test_parallel_composition_across_groups(self):
        ledger = BudgetLedger()
        ledger.charge("A1", 4.0, "fap")
        ledger.charge("A2", 4.0, "fap")
        assert ledger.worst_case_epsilon() == 4.0
        ledger.assert_within(PrivacySpec(4.0))

    def test_assert_within_raises_on_overspend(self):
        ledger = BudgetLedger()
        ledger.charge("A", 3.0, "m")
        ledger.charge("A", 2.0, "m")
        with pytest.raises(ParameterError, match="budget exceeded"):
            ledger.assert_within(PrivacySpec(4.0))

    def test_empty_ledger(self):
        assert BudgetLedger().worst_case_epsilon() == 0.0

    def test_charge_validation(self):
        ledger = BudgetLedger()
        with pytest.raises(ParameterError):
            ledger.charge("", 1.0, "m")
        with pytest.raises(ParameterError):
            ledger.charge("A", -1.0, "m")


#: Group names that collide often: bare names, their renames and
#: look-alikes such as ``A@p2`` without ``A@p1``, or ``A@p1@p1``.
LOOK_ALIKE_GROUPS = st.sampled_from(
    ["A", "B", "A#2", "A@p1", "A@p2", "A@p1@p1", "A@q1", "B@p3"]
)


def absorb_probing_from_one(existing, charges, label):
    """``existing`` plus ``charges`` renamed by probing ``group@{label}1``,
    ``group@{label}2``, ... from 1 for every charge."""
    taken = {group for group, _, _ in existing}
    renamed = []
    for group, epsilon, mechanism in charges:
        candidate, suffix = group, 0
        while candidate in taken:
            suffix += 1
            candidate = f"{group}@{label}{suffix}"
        taken.add(candidate)
        renamed.append((candidate, epsilon, mechanism))
    return existing + renamed


class TestAbsorbAndRestore:
    def test_absorb_renames_collisions(self):
        ledger = BudgetLedger()
        ledger.charge("A", 4.0, "fap")
        ledger.absorb([("A", 4.0, "fap")], label="shard2")
        assert ledger.worst_case_epsilon() == 4.0
        groups = [g for g, _, _ in ledger.charges]
        assert groups == ["A", "A@shard21"]

    def test_absorb_probes_until_unique(self):
        # Absorbing shard after shard with the SAME label must still keep
        # every cohort's group distinct — the probe walks @label1, @label2,
        # ... instead of landing the third shard's charge on the second's.
        ledger = BudgetLedger()
        ledger.charge("A", 4.0, "fap")
        ledger.absorb([("A", 4.0, "fap")], label="shard")
        ledger.absorb([("A", 4.0, "fap")], label="shard")
        groups = [g for g, _, _ in ledger.charges]
        assert len(groups) == len(set(groups)) == 3
        assert ledger.worst_case_epsilon() == 4.0

    def test_absorb_without_collision_keeps_name(self):
        ledger = BudgetLedger()
        ledger.charge("A", 4.0, "fap")
        ledger.absorb([("B", 4.0, "fap")], label="shard2")
        assert [g for g, _, _ in ledger.charges] == ["A", "B"]

    def test_absorb_treats_same_name_rows_as_disjoint_cohorts(self):
        # Sessions name every cohort uniquely (``A``, ``A#2``, ...), so two
        # same-named rows inside one absorb call are by construction
        # disjoint cohorts from different lineages — the second probes to a
        # fresh group instead of sequentially composing with the first.
        ledger = BudgetLedger()
        ledger.absorb([("A", 1.0, "m"), ("A", 2.0, "m")], label="s")
        assert ledger.spend_by_group() == {"A": 1.0, "A@s1": 2.0}

    def test_absorb_self_alias_terminates(self):
        # Absorbing a ledger's own charge list must not loop on the rows
        # it appends (the iterable aliases the destination list).
        ledger = BudgetLedger()
        ledger.charge("A", 1.0, "m")
        ledger.absorb(ledger.charges, label="clone")
        assert [g for g, _, _ in ledger.charges] == ["A", "A@clone1"]

    def test_absorb_label_required(self):
        with pytest.raises(ParameterError, match="label"):
            BudgetLedger().absorb([("A", 1.0, "m")], label="")

    def test_restore_is_verbatim(self):
        # A ledger rebuilt from its own charge list must NOT rename:
        # duplicate groups there legitimately encode sequential composition.
        ledger = BudgetLedger([("A", 1.0, "m"), ("A", 2.0, "m")])
        assert ledger.spend_by_group() == {"A": 3.0}
        assert ledger.worst_case_epsilon() == 3.0

    @given(
        existing=st.lists(LOOK_ALIKE_GROUPS, max_size=8),
        batches=st.lists(st.lists(LOOK_ALIKE_GROUPS, max_size=12), min_size=1, max_size=4),
        label=st.sampled_from(["p", "q", "p1"]),
    )
    @example(existing=["A", "A@p2"], batches=[["A", "A", "A"]], label="p")
    @example(existing=["A", "A@p1", "A@p1@p1"], batches=[["A@p1", "A@p1", "A"]], label="p")
    @settings(max_examples=200, deadline=None)
    def test_absorb_matches_probing_from_one(self, existing, batches, label):
        """Resuming each group's probe renames exactly as probing from 1."""
        ledger = BudgetLedger()
        for group in existing:
            ledger.charge(group, 1.0, "m")
        expected = list(ledger.charges)
        for batch in batches:
            charges = [(group, float(i + 1), "m") for i, group in enumerate(batch)]
            expected = absorb_probing_from_one(expected, charges, label)
            ledger.absorb(charges, label=label)
        assert ledger.charges == expected


class TestContinualLedger:
    def _make(self):
        from repro.privacy import ContinualLedger

        return ContinualLedger()

    def test_charge_and_readings(self):
        ledger = self._make()
        ledger.charge("tenant", 0, "tenant/A", 4.0, "fap")
        ledger.charge("tenant", 1, "tenant/A", 4.0, "fap")
        ledger.charge("tenant", 1, "tenant/B", 4.0, "fap")
        # Parallel across groups within an epoch, disjoint across epochs:
        assert ledger.worst_case_epsilon("tenant") == 4.0
        # A user present in both epochs pays both:
        assert ledger.lifetime_epsilon("tenant") == 8.0
        assert ledger.epoch_spend("tenant") == {0: 4.0, 1: 4.0}

    def test_sequential_within_epoch_group(self):
        ledger = self._make()
        ledger.charge("t", 0, "t/A", 1.0, "m")
        ledger.charge("t", 0, "t/A", 2.0, "m")
        assert ledger.worst_case_epsilon("t") == 3.0

    def test_subjects_isolated(self):
        ledger = self._make()
        ledger.charge("t1", 0, "t1/A", 4.0, "m")
        ledger.charge("t2", 0, "t2/A", 2.0, "m")
        assert ledger.subjects() == ["t1", "t2"]
        assert ledger.worst_case_epsilon("t1") == 4.0
        assert ledger.worst_case_epsilon("t2") == 2.0
        assert ledger.worst_case_epsilon("absent") == 0.0

    def test_releases_are_counted_not_charged(self):
        ledger = self._make()
        ledger.charge("t", 0, "t/A", 4.0, "m")
        ledger.charge("t", 1, "t/A", 4.0, "m")
        before = ledger.lifetime_epsilon("t")
        ledger.note_release("t", [0, 1])
        ledger.note_release("t", [1])
        assert ledger.lifetime_epsilon("t") == before  # post-processing
        assert ledger.releases[("t", 0)] == 1
        assert ledger.releases[("t", 1)] == 2

    def test_summary_shape(self):
        ledger = self._make()
        ledger.charge("t", 0, "t/A", 4.0, "m")
        ledger.note_release("t", [0])
        summary = ledger.summary()
        assert summary == {
            "t": {
                "epochs_charged": 1,
                "worst_case_epsilon": 4.0,
                "lifetime_epsilon": 4.0,
                "releases": 1,
            }
        }

    def test_validation(self):
        ledger = self._make()
        with pytest.raises(ParameterError):
            ledger.charge("", 0, "g", 1.0, "m")
        with pytest.raises(ParameterError):
            ledger.charge("t", -1, "g", 1.0, "m")
        with pytest.raises(ParameterError):
            ledger.charge("t", 0, "", 1.0, "m")
        with pytest.raises(ParameterError):
            ledger.charge("t", 0, "g", 0.0, "m")


class TestAuditMachinery:
    def test_perfect_mechanism_ratio_one(self):
        dist = lambda x: {0: 0.5, 1: 0.5}
        assert max_privacy_ratio(dist, [0, 1]) == pytest.approx(1.0)

    def test_deterministic_mechanism_infinite(self):
        dist = lambda x: {x: 1.0}
        assert max_privacy_ratio(dist, [0, 1]) == math.inf

    def test_known_ratio(self):
        # Binary RR with keep prob p: ratio = p / (1 - p).
        p = 0.8
        dist = lambda x: {x: p, 1 - x: 1 - p}
        assert max_privacy_ratio(dist, [0, 1]) == pytest.approx(p / (1 - p))

    def test_verify_ldp_pass_and_fail(self):
        p = keep_probability(1.0)
        dist = lambda x: {x: p, 1 - x: 1 - p}
        ok, ratio = verify_ldp(dist, [0, 1], epsilon=1.0)
        assert ok and ratio == pytest.approx(math.exp(1.0))
        ok, _ = verify_ldp(dist, [0, 1], epsilon=0.5)
        assert not ok

    def test_distribution_must_sum_to_one(self):
        with pytest.raises(ParameterError, match="sums to"):
            max_privacy_ratio(lambda x: {0: 0.4}, [0, 1])

    def test_needs_two_inputs(self):
        with pytest.raises(ParameterError):
            max_privacy_ratio(lambda x: {0: 1.0}, [0])

    def test_grr_exact_audit(self):
        domain, eps = 6, 1.5
        p, q = grr_probabilities(eps, domain)

        def dist(x):
            return {y: (p if y == x else q) for y in range(domain)}

        ok, ratio = verify_ldp(dist, list(range(domain)), epsilon=eps)
        assert ok
        assert ratio == pytest.approx(math.exp(eps))
