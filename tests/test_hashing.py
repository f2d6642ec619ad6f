"""Unit + property + statistical tests for :mod:`repro.hashing`."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DomainError, ParameterError
from repro.hashing import MERSENNE_PRIME_31, HashPairs, KWiseHash, SignHash

values_strategy = st.integers(min_value=0, max_value=MERSENNE_PRIME_31 - 1)

#: numpy scalars warn on the uint64 wrap-around the Mersenne reduction
#: relies on; no hashing path may compute on them.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


class TestKWiseHash:
    def test_deterministic_given_seed(self):
        h1 = KWiseHash(4, seed=42)
        h2 = KWiseHash(4, seed=42)
        x = np.arange(1000)
        assert np.array_equal(h1(x), h2(x))

    def test_different_seeds_differ(self):
        x = np.arange(1000)
        assert not np.array_equal(KWiseHash(4, seed=1)(x), KWiseHash(4, seed=2)(x))

    def test_scalar_matches_batch(self):
        h = KWiseHash(4, seed=3)
        batch = h(np.arange(50))
        for i in range(50):
            assert h(i) == batch[i]

    def test_scalar_returns_int(self):
        assert isinstance(KWiseHash(2, seed=1)(5), int)

    def test_output_range(self):
        h = KWiseHash(4, seed=4)
        out = h(np.arange(10_000))
        assert out.min() >= 0 and out.max() < MERSENNE_PRIME_31

    def test_rejects_out_of_field_inputs(self):
        h = KWiseHash(2, seed=5)
        with pytest.raises(DomainError):
            h(np.array([MERSENNE_PRIME_31]))
        with pytest.raises(DomainError):
            h(np.array([-1]))

    def test_explicit_coefficients(self):
        # g(x) = (3 + 2x) mod p
        h = KWiseHash(2, coefficients=[3, 2])
        assert h(0) == 3
        assert h(10) == 23

    def test_explicit_coefficients_validation(self):
        with pytest.raises(ParameterError, match="coefficients"):
            KWiseHash(3, coefficients=[1, 2])  # wrong count
        with pytest.raises(ParameterError, match="leading"):
            KWiseHash(2, coefficients=[1, 0])  # degenerate degree
        with pytest.raises(ParameterError):
            KWiseHash(2, coefficients=[1, MERSENNE_PRIME_31])  # out of field

    def test_serialisation_roundtrip(self):
        h = KWiseHash(4, seed=6)
        clone = KWiseHash.from_dict(h.to_dict())
        assert clone == h
        x = np.arange(100)
        assert np.array_equal(h(x), clone(x))

    def test_equality_and_hash(self):
        h1 = KWiseHash(2, coefficients=[1, 2])
        h2 = KWiseHash(2, coefficients=[1, 2])
        h3 = KWiseHash(2, coefficients=[1, 3])
        assert h1 == h2 and hash(h1) == hash(h2)
        assert h1 != h3

    def test_bucket_range(self):
        h = KWiseHash(2, seed=7)
        out = h.bucket(np.arange(10_000), 37)
        assert out.min() >= 0 and out.max() < 37

    def test_bucket_scalar(self):
        h = KWiseHash(2, seed=8)
        assert h.bucket(123, 16) == h.bucket(np.array([123]), 16)[0]

    def test_horner_exactness_against_python_ints(self):
        # uint64 modular Horner must agree with arbitrary-precision math.
        h = KWiseHash(4, seed=9)
        coeffs = [int(c) for c in h.coefficients]
        for x in [0, 1, 12345, MERSENNE_PRIME_31 - 1]:
            expected = sum(c * x**t for t, c in enumerate(coeffs)) % MERSENNE_PRIME_31
            assert h(x) == expected

    @given(values_strategy, st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=100, deadline=None)
    def test_property_batch_scalar_agreement(self, value, seed):
        h = KWiseHash(4, seed=seed)
        assert h(value) == h(np.array([value]))[0]

    def test_pairwise_uniformity_statistical(self):
        # Bucket counts over a modest domain should look uniform.
        h = KWiseHash(2, seed=10)
        buckets = h.bucket(np.arange(100_000), 16)
        counts = np.bincount(buckets, minlength=16)
        expected = 100_000 / 16
        chi2 = float(np.sum((counts - expected) ** 2 / expected))
        # 15 dof; P(chi2 > 45) < 1e-4 for a uniform sample.
        assert chi2 < 45


class TestSignHash:
    def test_outputs_are_signs(self):
        s = SignHash(seed=11)
        out = s(np.arange(10_000))
        assert set(np.unique(out)) <= {-1, 1}

    def test_scalar_returns_int(self):
        out = SignHash(seed=12)(3)
        assert out in (-1, 1) and isinstance(out, int)

    def test_deterministic(self):
        x = np.arange(100)
        assert np.array_equal(SignHash(seed=13)(x), SignHash(seed=13)(x))

    def test_balance_statistical(self):
        out = SignHash(seed=14)(np.arange(100_000))
        # Mean of 1e5 fair signs has sd ~ 0.0032; allow 5 sd.
        assert abs(float(np.mean(out))) < 0.016

    def test_fourwise_cancellation_statistical(self):
        # E[xi(a) xi(b)] = 0 for a != b: empirical mean over many pairs.
        rng = np.random.default_rng(15)
        means = []
        for seed in range(200):
            s = SignHash(seed=seed)
            a, b = rng.integers(0, 10_000, size=2)
            if a == b:
                continue
            means.append(s(int(a)) * s(int(b)))
        assert abs(float(np.mean(means))) < 0.2

    def test_serialisation_roundtrip(self):
        s = SignHash(seed=16)
        clone = SignHash.from_dict(s.to_dict())
        assert clone == s
        assert np.array_equal(s(np.arange(64)), clone(np.arange(64)))


class TestHashPairs:
    def test_shapes(self):
        pairs = HashPairs(4, 32, seed=17)
        assert pairs.k == 4 and pairs.m == 32
        assert len(pairs.bucket_hashes) == 4 and len(pairs.sign_hashes) == 4

    def test_bucket_range(self):
        pairs = HashPairs(3, 16, seed=18)
        out = pairs.bucket_all(np.arange(1000))
        assert out.shape == (3, 1000)
        assert out.min() >= 0 and out.max() < 16

    def test_sign_all_values(self):
        pairs = HashPairs(3, 16, seed=19)
        out = pairs.sign_all(np.arange(1000))
        assert set(np.unique(out)) <= {-1, 1}

    def test_rows_variants_match_all(self):
        pairs = HashPairs(4, 32, seed=20)
        rng = np.random.default_rng(21)
        values = rng.integers(0, 1000, size=500)
        rows = rng.integers(0, 4, size=500)
        bucket_all = pairs.bucket_all(values)
        sign_all = pairs.sign_all(values)
        assert np.array_equal(
            pairs.bucket_rows(rows, values), bucket_all[rows, np.arange(500)]
        )
        assert np.array_equal(
            pairs.sign_rows(rows, values), sign_all[rows, np.arange(500)]
        )

    def test_row_out_of_range(self):
        pairs = HashPairs(2, 8, seed=22)
        with pytest.raises(ParameterError):
            pairs.bucket(2, np.array([1]))
        with pytest.raises(ParameterError):
            pairs.sign(-1, np.array([1]))

    def test_shape_mismatch_rejected(self):
        pairs = HashPairs(2, 8, seed=23)
        with pytest.raises(ParameterError, match="same shape"):
            pairs.bucket_rows(np.zeros(2, dtype=int), np.zeros(3, dtype=int))

    def test_serialisation_roundtrip(self):
        pairs = HashPairs(3, 16, seed=24)
        clone = HashPairs.from_dict(pairs.to_dict())
        assert clone == pairs
        values = np.arange(200)
        assert np.array_equal(pairs.bucket_all(values), clone.bucket_all(values))
        assert np.array_equal(pairs.sign_all(values), clone.sign_all(values))

    def test_equality_semantics(self):
        p1 = HashPairs(2, 8, seed=25)
        p2 = HashPairs.from_dict(p1.to_dict())
        p3 = HashPairs(2, 8, seed=26)
        assert p1 == p2
        assert p1 != p3

    def test_mixed_constructor_args_rejected(self):
        p = HashPairs(2, 8, seed=27)
        with pytest.raises(ParameterError, match="together"):
            HashPairs(2, 8, bucket_hashes=p.bucket_hashes, sign_hashes=None)

    def test_wrong_hash_count_rejected(self):
        p = HashPairs(3, 8, seed=28)
        with pytest.raises(ParameterError, match="expected 2"):
            HashPairs(2, 8, bucket_hashes=p.bucket_hashes, sign_hashes=p.sign_hashes)
