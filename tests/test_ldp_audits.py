"""Exact LDP audits of the paper's client algorithms (Theorems 1 and 6).

For small ``(k, m)`` the output space of Algorithm 1 and Algorithm 4 is
finite, and their output distributions have closed forms:

* Algorithm 1 (target encoding):
  ``Pr[(y, j, l) | d] = (1/(km)) * (p if y == H[h_j(d), l] * xi_j(d) else q)``;
* Algorithm 4 non-target encoding:
  ``Pr[(y, j, l) | d] = (1/(km)) * mean_r (p if y == H[r, l] else q)``.

These tests (a) verify the implementations *follow* the closed forms by
comparing empirical frequencies against them, then (b) enumerate the
closed forms over all inputs and outputs and assert the e^eps dominance
bound exactly — turning the privacy theorems into regression tests.
"""

from __future__ import annotations

import math
from typing import Dict, Tuple

import numpy as np
import pytest

from repro.core import SketchParams, encode_report, fap_encode_report
from repro.core.fap import MODE_HIGH, MODE_LOW
from repro.hashing import HashPairs
from repro.privacy import keep_probability, verify_ldp
from repro.transform import hadamard_matrix

PARAMS = SketchParams(k=2, m=4, epsilon=1.5)
PAIRS = HashPairs(PARAMS.k, PARAMS.m, seed=99)
H = hadamard_matrix(PARAMS.m)
P_KEEP = keep_probability(PARAMS.epsilon)
P_FLIP = 1.0 - P_KEEP

Output = Tuple[int, int, int]


def algorithm1_distribution(d: int) -> Dict[Output, float]:
    """Closed-form output distribution of Algorithm 1 for input ``d``."""
    dist: Dict[Output, float] = {}
    for j in range(PARAMS.k):
        bucket = PAIRS.bucket(j, np.array([d]))[0]
        sign = PAIRS.sign(j, np.array([d]))[0]
        for l in range(PARAMS.m):
            w = sign * H[bucket, l]
            base = 1.0 / (PARAMS.k * PARAMS.m)
            dist[(int(w), j, l)] = dist.get((int(w), j, l), 0.0) + base * P_KEEP
            dist[(int(-w), j, l)] = dist.get((int(-w), j, l), 0.0) + base * P_FLIP
    return dist


def fap_nontarget_distribution(d: int) -> Dict[Output, float]:
    """Closed-form FAP non-target distribution (input-independent)."""
    dist: Dict[Output, float] = {}
    for j in range(PARAMS.k):
        for l in range(PARAMS.m):
            base = 1.0 / (PARAMS.k * PARAMS.m)
            for r in range(PARAMS.m):
                w = int(H[r, l])
                dist[(w, j, l)] = dist.get((w, j, l), 0.0) + base * P_KEEP / PARAMS.m
                dist[(-w, j, l)] = dist.get((-w, j, l), 0.0) + base * P_FLIP / PARAMS.m
    return dist


def fap_distribution(mode: str, frequent_items: Tuple[int, ...]):
    """Closed-form Algorithm 4 distribution for a given mode and FI set."""

    def dist(d: int) -> Dict[Output, float]:
        non_target = (mode == MODE_HIGH) == (d not in frequent_items)
        if non_target:
            return fap_nontarget_distribution(d)
        return algorithm1_distribution(d)

    return dist


def empirical_distribution(sampler, runs: int) -> Dict[Output, float]:
    counts: Dict[Output, int] = {}
    rng = np.random.default_rng(123)
    for _ in range(runs):
        out = sampler(rng)
        counts[out] = counts.get(out, 0) + 1
    return {key: value / runs for key, value in counts.items()}


class TestAlgorithm1Audit:
    def test_analytic_distribution_normalises(self):
        for d in range(6):
            assert sum(algorithm1_distribution(d).values()) == pytest.approx(1.0)

    def test_implementation_matches_analytic_distribution(self):
        d, runs = 3, 120_000
        analytic = algorithm1_distribution(d)
        empirical = empirical_distribution(
            lambda rng: encode_report(d, PARAMS, PAIRS, rng), runs
        )
        for output, prob in analytic.items():
            observed = empirical.get(output, 0.0)
            sd = math.sqrt(prob * (1 - prob) / runs)
            assert abs(observed - prob) < 6 * sd + 1e-4

    def test_theorem1_exact_epsilon_ldp(self):
        """Theorem 1: Algorithm 1 satisfies eps-LDP, tightly."""
        ok, ratio = verify_ldp(algorithm1_distribution, list(range(12)), PARAMS.epsilon)
        assert ok
        # The sign channel makes the bound tight: ratio == e^eps exactly.
        assert ratio == pytest.approx(math.exp(PARAMS.epsilon))

    def test_weaker_epsilon_fails(self):
        ok, _ = verify_ldp(algorithm1_distribution, list(range(12)), PARAMS.epsilon / 2)
        assert not ok


class TestFAPAudit:
    def test_nontarget_distribution_is_input_independent(self):
        base = fap_nontarget_distribution(0)
        for d in range(1, 8):
            other = fap_nontarget_distribution(d)
            assert base == other

    def test_implementation_matches_analytic_nontarget(self):
        # mode=H with FI empty -> every value is non-target.
        d, runs = 5, 120_000
        analytic = fap_nontarget_distribution(d)
        empirical = empirical_distribution(
            lambda rng: fap_encode_report(d, MODE_HIGH, PARAMS, PAIRS, [], rng), runs
        )
        for output, prob in analytic.items():
            observed = empirical.get(output, 0.0)
            sd = math.sqrt(prob * (1 - prob) / runs)
            assert abs(observed - prob) < 6 * sd + 1e-4

    @pytest.mark.parametrize("mode", [MODE_HIGH, MODE_LOW])
    def test_theorem6_mixed_inputs_epsilon_ldp(self, mode):
        """Theorem 6: outputs of target and non-target inputs are mutually
        e^eps-indistinguishable."""
        frequent_items = (0, 1, 2)
        inputs = list(range(8))  # values 0-2 frequent, 3-7 not
        dist = fap_distribution(mode, frequent_items)
        ok, ratio = verify_ldp(dist, inputs, PARAMS.epsilon)
        assert ok
        assert ratio <= math.exp(PARAMS.epsilon) * (1 + 1e-9)

    def test_target_branch_equals_algorithm1(self):
        # mode=L with FI empty -> every value is a target; same closed form.
        dist = fap_distribution(MODE_LOW, ())
        for d in range(4):
            assert dist(d) == algorithm1_distribution(d)


class TestHCMSAudit:
    def test_hcms_client_epsilon_ldp(self):
        """Apple-HCMS client: same channel, unsigned encoding."""

        def dist(d: int) -> Dict[Output, float]:
            out: Dict[Output, float] = {}
            for j in range(PARAMS.k):
                bucket = PAIRS.bucket(j, np.array([d]))[0]
                for l in range(PARAMS.m):
                    w = int(H[bucket, l])
                    base = 1.0 / (PARAMS.k * PARAMS.m)
                    out[(w, j, l)] = out.get((w, j, l), 0.0) + base * P_KEEP
                    out[(-w, j, l)] = out.get((-w, j, l), 0.0) + base * P_FLIP
            return out

        ok, ratio = verify_ldp(dist, list(range(10)), PARAMS.epsilon)
        assert ok
        assert ratio == pytest.approx(math.exp(PARAMS.epsilon))


class TestCompositionOfPlusProtocol:
    def test_groups_are_disjoint_so_budget_is_epsilon(self):
        """LDPJoinSketch+ charges each user exactly once (Section V-A)."""
        from repro.api import run_join_sketch_plus

        rng = np.random.default_rng(7)
        values = rng.integers(0, 64, size=2_000)
        result = run_join_sketch_plus(
            values, values, 64, SketchParams(2, 16, 2.0), seed=8
        )
        assert result.ledger.worst_case_epsilon() == pytest.approx(2.0)
        # Six disjoint groups, each charged once.
        assert len(result.ledger.charges) == 6
