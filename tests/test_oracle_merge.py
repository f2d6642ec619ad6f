"""Sharded-collection merge path of the LDP frequency oracles."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import IncompatibleSketchError
from repro.mechanisms import (
    FLHOracle,
    HCMSOracle,
    KRROracle,
    LDPJoinSketchOracle,
    OLHOracle,
)

from .conftest import zipf_values

DOMAIN = 128
EPSILON = 4.0


def _factories():
    return {
        "krr": lambda seed: KRROracle(DOMAIN, EPSILON, seed),
            "olh": lambda seed: OLHOracle(DOMAIN, EPSILON, seed),
        "flh": lambda seed: FLHOracle(DOMAIN, EPSILON, seed, pool_size=32),
        "hcms": lambda seed: HCMSOracle(DOMAIN, EPSILON, seed, k=3, m=64),
        "ldpjs": lambda seed: LDPJoinSketchOracle(DOMAIN, EPSILON, seed, k=3, m=64),
    }


@pytest.mark.parametrize("name", sorted(_factories()))
def test_merged_shards_match_single_collection(name):
    """Two shards with shared hashes reproduce one oracle's estimates.

    The perturbation draws differ between the single and sharded runs (the
    generator streams diverge), so we compare each merged estimate against
    the truth rather than bit-for-bit; state bookkeeping must match exactly.
    """
    make = _factories()[name]
    values = zipf_values(30_000, DOMAIN, 1.2, seed=3)
    half = values.size // 2

    merged = make(7)
    shard = make(7)  # same seed => shared published hashes/pools
    merged.collect(values[:half], rng=1)
    shard.collect(values[half:], rng=2)
    merged.merge(shard)

    assert merged.num_reports == values.size
    candidates = np.arange(8)
    truth = np.array([(values == c).sum() for c in candidates], dtype=float)
    estimates = merged.frequencies(candidates)
    # Unbiased estimators at this n: generous 4-sigma-ish bound.
    assert np.all(np.abs(estimates - truth) < 3_000)


def test_merge_rejects_mismatched_configuration():
    a = KRROracle(DOMAIN, EPSILON, 1)
    with pytest.raises(IncompatibleSketchError, match="domain"):
        a.merge(KRROracle(DOMAIN * 2, EPSILON, 1))
    with pytest.raises(IncompatibleSketchError, match="budget"):
        a.merge(KRROracle(DOMAIN, 8.0, 1))
    with pytest.raises(IncompatibleSketchError, match="cannot merge"):
        a.merge(FLHOracle(DOMAIN, EPSILON, 1))


def test_merge_rejects_unshared_hashes():
    values = zipf_values(1_000, DOMAIN, 1.2, seed=4)
    for make in (_factories()["flh"], _factories()["hcms"], _factories()["ldpjs"]):
        a, b = make(1), make(2)  # different seeds => different hashes
        a.collect(values, rng=1)
        b.collect(values, rng=2)
        with pytest.raises(IncompatibleSketchError, match="share"):
            a.merge(b)


class TestCentralizedCompatibilityGate:
    """Every mismatch class flows through ``require_merge_compatible``:
    the checks (and messages) are uniform across oracles, not a per-class
    hand-rolled subset — k, m, g, pool size, epsilon and hash seed are
    all rejected even when the base domain/budget checks pass."""

    def test_flh_rejects_mismatched_g_and_pool_size(self):
        a = FLHOracle(DOMAIN, EPSILON, 1, g=4, pool_size=32)
        with pytest.raises(IncompatibleSketchError, match="g mismatch"):
            a.merge(FLHOracle(DOMAIN, EPSILON, 1, g=8, pool_size=32))
        with pytest.raises(IncompatibleSketchError, match="pool_size mismatch"):
            a.merge(FLHOracle(DOMAIN, EPSILON, 1, g=4, pool_size=64))

    def test_olh_rejects_mismatched_g(self):
        a = OLHOracle(DOMAIN, EPSILON, 1, g=4)
        with pytest.raises(IncompatibleSketchError, match="g mismatch"):
            a.merge(OLHOracle(DOMAIN, EPSILON, 1, g=8))

    def test_hcms_rejects_mismatched_shape(self):
        a = HCMSOracle(DOMAIN, EPSILON, 1, k=3, m=64)
        with pytest.raises(IncompatibleSketchError, match="k mismatch"):
            a.merge(HCMSOracle(DOMAIN, EPSILON, 1, k=4, m=64))
        with pytest.raises(IncompatibleSketchError, match="m mismatch"):
            a.merge(HCMSOracle(DOMAIN, EPSILON, 1, k=3, m=32))

    def test_ldpjs_rejects_mismatched_shape(self):
        a = LDPJoinSketchOracle(DOMAIN, EPSILON, 1, k=3, m=64)
        with pytest.raises(IncompatibleSketchError, match="k mismatch"):
            a.merge(LDPJoinSketchOracle(DOMAIN, EPSILON, 1, k=4, m=64))
        with pytest.raises(IncompatibleSketchError, match="m mismatch"):
            a.merge(LDPJoinSketchOracle(DOMAIN, EPSILON, 1, k=3, m=32))

    def test_hash_seed_mismatch_names_the_published_state(self):
        """Seed mismatches surface as 'share the published ...' errors,
        never as silent state corruption."""
        a = FLHOracle(DOMAIN, EPSILON, 1, g=4, pool_size=32)
        b = FLHOracle(DOMAIN, EPSILON, 2, g=4, pool_size=32)
        with pytest.raises(
            IncompatibleSketchError, match="share the published hash pool"
        ):
            a.merge(b)

    def test_epsilon_mismatch_checked_before_state_is_touched(self):
        values = zipf_values(500, DOMAIN, 1.2, seed=4)
        a = FLHOracle(DOMAIN, EPSILON, 1, g=4, pool_size=32)
        a.collect(values, rng=1)
        before = a._counts.copy()
        b = FLHOracle(DOMAIN, 2.0, 1, g=4, pool_size=32)
        b.collect(values, rng=2)
        with pytest.raises(IncompatibleSketchError, match="budget"):
            a.merge(b)
        np.testing.assert_array_equal(a._counts, before)
        assert a.num_reports == values.size
