"""Pins of the NumPy kernels that sit beside their callers.

Each kernel is checked against a slower, obviously-correct spelling of
the same computation: the lazy-fold Horner loops against the fully
reduced one (at every fold schedule, and at the operands that bound the
fold), the fused client encode against the batched encode plus
``np.add.at`` (and the generic paths that hand-built pairs or a strided
accumulator take), the scatter-add against ``np.add.at`` on both of its
branches, and the OLH / FLH support scans against their broadcast
definitions, in one block or many.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.accumulate import bincount_accumulate
from repro.core import SketchParams, encode_reports
from repro.core.client import (
    _fused_encode_shared_pass,
    encode_reports_grouped_into,
    encode_reports_into,
    encode_reports_trials_into,
)
from repro.hashing import HashPairs
from repro.hashing.kwise import (
    MERSENNE_PRIME_31,
    KWiseHash,
    polyval_all,
    polyval_mersenne,
    polyval_rows,
)
from repro.hashing.sign import SignHash
from repro.mechanisms import flh, olh
from repro.privacy.response import flip_probability
from repro.transform.hadamard import sample_hadamard_parities

#: Polynomial degrees covering every fold schedule of the lazy Horner
#: loop: 1 skips the loop, 2-3 single-fold only, 4 ends on the step
#: that would double-fold, 5 and 8 double-fold mid-loop, 7 ends right
#: after a double-fold step.
DEGREES = [1, 2, 3, 4, 5, 7, 8]


@pytest.fixture
def params():
    return SketchParams(k=6, m=64, epsilon=2.0)


@pytest.fixture
def pairs(params):
    return HashPairs(params.k, params.m, seed=1234)


def _heterogeneous_pairs(k, m, seed=0):
    """Hand-built pairs with mixed hash degrees: no stacked coefficients."""
    bucket_hashes = [KWiseHash(independence=2 + (j % 2), seed=seed + j) for j in range(k)]
    sign_hashes = [SignHash(seed=seed + 100 + j) for j in range(k)]
    pairs = HashPairs(k, m, bucket_hashes=bucket_hashes, sign_hashes=sign_hashes)
    assert pairs._bucket_coeffs is None
    return pairs


def _batched_reference(values, params, pairs, seed, chunk):
    """``encode_reports`` per chunk on one generator, folded by ``np.add.at``."""
    reference = np.zeros((params.k, params.m), dtype=np.int64)
    generator = np.random.default_rng(seed)
    for start in range(0, values.size, chunk):
        batch = encode_reports(values[start : start + chunk], params, pairs, generator)
        np.add.at(
            reference,
            (batch.rows.astype(np.int64), batch.cols.astype(np.int64)),
            batch.ys.astype(np.int64),
        )
    return reference


def _python_polyval(coefficients, x):
    """``sum_t c_t x^t mod p`` in Python integers, low degree first."""
    p = MERSENNE_PRIME_31
    return sum(int(c) * pow(int(x), t, p) for t, c in enumerate(coefficients)) % p


class TestPolyval:
    def test_lazy_fold_matches_full_reduction(self, pairs):
        rng = np.random.default_rng(7)
        rows = rng.integers(0, pairs.k, size=257)
        x = rng.integers(0, MERSENNE_PRIME_31, size=257).astype(np.uint64)
        coefficients = pairs._bucket_coeffs.T  # (k, degree), low degree first
        assert np.array_equal(
            polyval_rows(pairs._bucket_coeffs, rows, x),
            polyval_mersenne(coefficients[rows], x),
        )
        assert np.array_equal(
            polyval_all(pairs._sign_coeffs, x),
            polyval_mersenne(pairs._sign_coeffs.T[:, None, :], x[None, :]),
        )

    @pytest.mark.parametrize("degree", DEGREES)
    def test_every_fold_schedule_matches_full_reduction(self, degree):
        rng = np.random.default_rng(degree)
        k = 5
        coefficients_t = rng.integers(
            0, MERSENNE_PRIME_31, size=(degree, k), dtype=np.int64
        ).astype(np.uint64)
        rows = rng.integers(0, k, size=301)
        x = rng.integers(0, MERSENNE_PRIME_31, size=301).astype(np.uint64)
        assert np.array_equal(
            polyval_rows(coefficients_t, rows, x),
            polyval_mersenne(coefficients_t.T[rows], x),
        )
        assert np.array_equal(
            polyval_all(coefficients_t, x),
            polyval_mersenne(coefficients_t.T[:, None, :], x[None, :]),
        )

    @pytest.mark.parametrize("degree", DEGREES)
    def test_worst_case_operands_stay_canonical(self, degree):
        # Every coefficient and the largest point at p - 1 drive each
        # Horner step to its bound; the result must still be exact and
        # fully reduced into [0, p).
        p = MERSENNE_PRIME_31
        coefficients_t = np.full((degree, 2), p - 1, dtype=np.uint64)
        coefficients_t[:, 1] = np.arange(p - degree, p, dtype=np.uint64)
        x = np.array([0, 1, 2, p - 2, p - 1], dtype=np.uint64)
        expected = np.array(
            [[_python_polyval(coefficients_t[:, j], v) for v in x] for j in range(2)],
            dtype=np.uint64,
        )
        for j in range(2):
            rows = np.full(x.size, j, dtype=np.int64)
            assert np.array_equal(polyval_rows(coefficients_t, rows, x), expected[j])
        assert np.array_equal(polyval_all(coefficients_t, x), expected)


class TestFusedEncode:
    @pytest.mark.parametrize("epsilon", [1.0, 4.0])
    @pytest.mark.parametrize("n", [0, 1, 3, 1000])
    def test_matches_batched_reference(self, pairs, epsilon, n):
        params = SketchParams(pairs.k, pairs.m, epsilon)
        values = np.random.default_rng(n).integers(0, 5000, size=n)
        out = np.zeros((params.k, params.m), dtype=np.int64)
        encode_reports_into(values, params, pairs, out, rng=99, chunk_size=7)
        assert np.array_equal(out, _batched_reference(values, params, pairs, 99, 7))

    def test_shared_pass_matches_pairs_reference(self, pairs):
        rng = np.random.default_rng(5)
        n = 513
        values = rng.integers(0, 4096, size=n)
        rows = rng.integers(0, pairs.k, size=n)
        cols = rng.integers(0, pairs.m, size=n)
        cell, base_signs = _fused_encode_shared_pass(
            pairs._bucket_coeffs,
            pairs._sign_coeffs,
            values.astype(np.uint64),
            rows,
            cols,
            pairs.m,
        )
        buckets, sign_parity = pairs.bucket_and_sign_parity_rows(rows, values)
        expected_signs = 1 - 2 * (
            sign_parity ^ sample_hadamard_parities(buckets, cols, pairs.m)
        )
        assert np.array_equal(cell, rows * pairs.m + cols)
        assert np.array_equal(base_signs, expected_signs)

    def test_heterogeneous_pairs_fall_back(self, params):
        # Hand-built pairs with mixed hash degrees have no stacked
        # coefficient matrices; the encode must take the generic path
        # and still match the batched reference.
        pairs = _heterogeneous_pairs(params.k, params.m)
        values = np.random.default_rng(0).integers(0, 1000, size=333)
        out = np.zeros((params.k, params.m), dtype=np.int64)
        encode_reports_into(values, params, pairs, out, rng=5, chunk_size=50)
        assert np.array_equal(out, _batched_reference(values, params, pairs, 5, 50))

    def test_strided_accumulator_falls_back(self, params, pairs):
        # A transposed view is (k, m) but not C-contiguous: the flat
        # histogram cannot target it, so the generic scatter runs.
        out = np.zeros((params.m, params.k), dtype=np.int64).T
        assert not out.flags.c_contiguous
        values = np.random.default_rng(2).integers(0, 1000, size=211)
        encode_reports_into(values, params, pairs, out, rng=8, chunk_size=64)
        assert np.array_equal(out, _batched_reference(values, params, pairs, 8, 64))

    def test_trials_with_heterogeneous_pairs_fall_back(self, params, pairs):
        # One hand-built trial leaves nothing to stack: every trial runs
        # the serial encode on its own generator instead.
        trial_pairs = [_heterogeneous_pairs(params.k, params.m, seed=3), pairs]
        values = np.random.default_rng(3).integers(0, 1000, size=257)
        out = np.zeros((2, params.k, params.m), dtype=np.int64)
        encode_reports_trials_into(values, params, trial_pairs, out, [5, 6], chunk_size=50)
        for t, seed in enumerate([5, 6]):
            expected = _batched_reference(values, params, trial_pairs[t], seed, 50)
            assert np.array_equal(out[t], expected)

    def test_trials_into_strided_accumulator_falls_back(self, params, pairs):
        # Each trial's (k, m) slab is a transposed view that no flat
        # index can address, so every trial runs the serial encode.
        out = np.zeros((3, params.m, params.k), dtype=np.int64).transpose(0, 2, 1)
        assert not out[0].flags.c_contiguous
        values = np.random.default_rng(4).integers(0, 1000, size=190)
        encode_reports_trials_into(values, params, pairs, out, [1, 2, 3], chunk_size=17)
        for t, seed in enumerate([1, 2, 3]):
            expected = _batched_reference(values, params, pairs, seed, 17)
            assert np.array_equal(out[t], expected)

    def test_grouped_with_heterogeneous_pairs_matches_every_cell(self, params):
        # Without stacked coefficients the grouped encode derives the
        # shared pass from the pairs' own hashes; each (trial, epsilon)
        # cell must still equal its materialised reports.
        pairs = _heterogeneous_pairs(params.k, params.m, seed=9)
        values = np.random.default_rng(6).integers(0, 1000, size=300)
        epsilons, chunk = [4.0, 1.0], 70
        out = np.zeros((2, len(epsilons), params.k, params.m), dtype=np.int64)
        encode_reports_grouped_into(values, pairs, epsilons, out, 11, [21, 22], chunk)
        expected = np.zeros_like(out)
        sampler = np.random.default_rng(11)
        generators = [np.random.default_rng(s) for s in (21, 22)]
        for start in range(0, values.size, chunk):
            block = values[start : start + chunk]
            rows = sampler.integers(0, params.k, size=block.size)
            cols = sampler.integers(0, params.m, size=block.size)
            buckets, parity = pairs.bucket_and_sign_parity_rows(rows, block)
            base = parity ^ sample_hadamard_parities(buckets, cols, params.m)
            for t, generator in enumerate(generators):
                uniforms = generator.random(block.size)
                for e, epsilon in enumerate(epsilons):
                    flips = uniforms < flip_probability(epsilon)
                    np.add.at(expected[t, e], (rows, cols), 1 - 2 * (base ^ flips))
        assert np.array_equal(out, expected)


def _bincount_case(weights_kind, branch, rng):
    """An accumulator, its flat indices and weights for one kernel branch.

    The dense branch folds a fat batch into a small accumulator; the
    sparse branch (``flat.size * SPARSE_RATIO < out.size``) scatters a
    tiny batch into a huge one.  Integer accumulators start non-zero
    (integer sums are exact in any order); float ones start at zero so
    the per-bin input-order sum is bit-comparable with ``np.add.at``.
    """
    shape, n = ((4, 8), 1000) if branch == "dense" else ((100, 1000), 8)
    size = shape[0] * shape[1]
    flat = rng.integers(0, size, size=n)
    if weights_kind == "float":
        return np.zeros(shape, dtype=np.float64), flat, rng.normal(size=n)
    out = rng.integers(-50, 50, size=shape).astype(np.int64)
    if weights_kind == "units":
        return out, flat, None
    return out, flat, rng.choice(np.array([-1, 1], dtype=np.int64), size=n)


class TestBincountAccumulate:
    @pytest.mark.parametrize("branch", ["dense", "sparse"])
    @pytest.mark.parametrize("weights_kind", ["units", "signs", "float"])
    def test_matches_add_at(self, weights_kind, branch):
        rng = np.random.default_rng(len(weights_kind) + len(branch))
        out, flat, weights = _bincount_case(weights_kind, branch, rng)
        expected = out.copy()
        np.add.at(expected.reshape(-1), flat, 1 if weights is None else weights)
        bincount_accumulate(out, flat, weights)
        assert out.dtype == expected.dtype
        assert np.array_equal(out, expected)


def _olh_reference(a, b, reports, candidates, g):
    hashed = ((a[:, None] * candidates[None, :] + b[:, None]) % MERSENNE_PRIME_31) % g
    return np.count_nonzero(hashed == reports[:, None], axis=0).astype(float)


def _flh_reference(a, b, counts, candidates, g):
    table = ((a[:, None] * candidates[None, :] + b[:, None]) % MERSENNE_PRIME_31) % g
    return counts[np.arange(a.size)[:, None], table].sum(axis=0).astype(float)


def _scan_inputs(users, g, num_candidates, seed):
    rng = np.random.default_rng(seed)
    a = rng.integers(1, MERSENNE_PRIME_31, size=users, dtype=np.int64)
    b = rng.integers(0, MERSENNE_PRIME_31, size=users, dtype=np.int64)
    candidates = rng.integers(0, 1000, size=num_candidates).astype(np.int64)
    return rng, a, b, candidates


class TestSupportScans:
    def test_olh_reports_scan(self):
        rng, a, b, candidates = _scan_inputs(200, 8, 37, seed=11)
        reports = rng.integers(0, 8, size=200, dtype=np.int64)
        support = olh._support_scan(a, b, reports, candidates, 8)
        assert np.array_equal(support, _olh_reference(a, b, reports, candidates, 8))

    def test_flh_counts_scan(self):
        rng, a, b, candidates = _scan_inputs(31, 6, 23, seed=13)
        counts = rng.integers(0, 50, size=(31, 6)).astype(np.int64)
        support = flh._support_scan(a, b, counts, candidates, 6)
        assert np.array_equal(support, _flh_reference(a, b, counts, candidates, 6))

    def test_olh_scan_in_many_blocks(self, monkeypatch):
        # A table budget of five users per block splits 203 users into
        # 41 blocks, the last one short.
        rng, a, b, candidates = _scan_inputs(203, 4, 37, seed=17)
        reports = rng.integers(0, 4, size=203, dtype=np.int64)
        monkeypatch.setattr(olh, "_TABLE_BUDGET", 5 * candidates.size + 3)
        support = olh._support_scan(a, b, reports, candidates, 4)
        assert np.array_equal(support, _olh_reference(a, b, reports, candidates, 4))

    def test_flh_scan_in_many_blocks(self, monkeypatch):
        rng, a, b, candidates = _scan_inputs(31, 6, 23, seed=19)
        counts = rng.integers(0, 50, size=(31, 6)).astype(np.int64)
        monkeypatch.setattr(flh, "_TABLE_BUDGET", 4 * candidates.size + 1)
        support = flh._support_scan(a, b, counts, candidates, 6)
        assert np.array_equal(support, _flh_reference(a, b, counts, candidates, 6))

    def test_olh_scan_of_no_candidates(self):
        rng, a, b, _ = _scan_inputs(50, 8, 0, seed=23)
        reports = rng.integers(0, 8, size=50, dtype=np.int64)
        support = olh._support_scan(a, b, reports, np.empty(0, dtype=np.int64), 8)
        assert support.dtype == np.float64 and support.shape == (0,)

    def test_flh_scan_of_no_candidates(self):
        rng, a, b, _ = _scan_inputs(31, 6, 0, seed=29)
        counts = rng.integers(0, 50, size=(31, 6)).astype(np.int64)
        support = flh._support_scan(a, b, counts, np.empty(0, dtype=np.int64), 6)
        assert support.dtype == np.float64 and support.shape == (0,)
