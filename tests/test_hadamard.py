"""Unit + property tests for :mod:`repro.transform.hadamard`."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.transform import (
    fwht,
    fwht_inplace,
    hadamard_entry,
    hadamard_matrix,
    hadamard_row,
    sample_hadamard_entries,
)

ORDERS = [1, 2, 4, 8, 16, 64]


class TestHadamardEntry:
    def test_base_case(self):
        assert hadamard_entry(0, 0, 1) == 1

    def test_order_two(self):
        assert hadamard_entry(0, 0, 2) == 1
        assert hadamard_entry(0, 1, 2) == 1
        assert hadamard_entry(1, 0, 2) == 1
        assert hadamard_entry(1, 1, 2) == -1

    @pytest.mark.parametrize("order", ORDERS)
    def test_first_row_and_column_all_ones(self, order):
        idx = np.arange(order)
        assert np.all(hadamard_entry(np.zeros(order, dtype=int), idx, order) == 1)
        assert np.all(hadamard_entry(idx, np.zeros(order, dtype=int), order) == 1)

    @pytest.mark.parametrize("order", ORDERS)
    def test_symmetry(self, order):
        rng = np.random.default_rng(1)
        i = rng.integers(0, order, size=50)
        j = rng.integers(0, order, size=50)
        assert np.array_equal(
            hadamard_entry(i, j, order), hadamard_entry(j, i, order)
        )

    @pytest.mark.parametrize("order", [2, 4, 8, 32])
    def test_matches_recursive_definition(self, order):
        # Build H recursively and compare with the closed form.
        h = np.array([[1]])
        while h.shape[0] < order:
            h = np.block([[h, h], [h, -h]])
        assert np.array_equal(hadamard_matrix(order), h)

    def test_out_of_range_rejected(self):
        with pytest.raises(IndexError):
            hadamard_entry(4, 0, 4)
        with pytest.raises(IndexError):
            hadamard_entry(0, -1, 4)

    def test_non_power_of_two_order_rejected(self):
        with pytest.raises(ValueError):
            hadamard_entry(0, 0, 3)

    def test_scalar_returns_python_int(self):
        assert isinstance(hadamard_entry(1, 1, 4), int)


class TestHadamardMatrix:
    @pytest.mark.parametrize("order", ORDERS)
    def test_orthogonality(self, order):
        h = hadamard_matrix(order)
        assert np.array_equal(h @ h.T, order * np.eye(order, dtype=np.int64))

    @pytest.mark.parametrize("order", ORDERS)
    def test_entries_are_signs(self, order):
        h = hadamard_matrix(order)
        assert set(np.unique(h)) <= {-1, 1}

    def test_row_extraction(self):
        h = hadamard_matrix(16)
        for i in (0, 5, 15):
            assert np.array_equal(hadamard_row(i, 16), h[i])


class TestFWHT:
    @pytest.mark.parametrize("order", ORDERS)
    def test_matches_matrix_product(self, order):
        rng = np.random.default_rng(2)
        x = rng.normal(size=order)
        assert np.allclose(fwht(x), x @ hadamard_matrix(order))

    def test_batch_rows(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(5, 32))
        expected = x @ hadamard_matrix(32)
        assert np.allclose(fwht(x), expected)

    def test_three_dimensional_batch(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(2, 3, 16))
        out = fwht(x)
        for i in range(2):
            for j in range(3):
                assert np.allclose(out[i, j], fwht(x[i, j]))

    def test_involution(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=64)
        assert np.allclose(fwht(fwht(x)) / 64, x)

    def test_non_destructive(self):
        x = np.ones(8)
        fwht(x)
        assert np.array_equal(x, np.ones(8))

    def test_inplace_returns_same_object(self):
        x = np.ones(8)
        assert fwht_inplace(x) is x

    def test_inplace_modifies(self):
        x = np.array([1.0, 0.0])
        fwht_inplace(x)
        assert np.array_equal(x, [1.0, 1.0])

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            fwht(np.ones(6))

    def test_rejects_scalar(self):
        with pytest.raises(ValueError):
            fwht_inplace(np.float64(1.0))

    def test_inplace_rejects_integer_dtypes(self):
        # Integer input used to silently transform in integer arithmetic;
        # the in-place butterfly now demands an explicit float conversion.
        with pytest.raises(TypeError, match="float"):
            fwht_inplace(np.ones(8, dtype=np.int64))

    def test_order_one_is_identity(self):
        x = np.array([[3.0], [4.0]])
        assert np.array_equal(fwht_inplace(x), [[3.0], [4.0]])

    def test_one_hot_transform_is_matrix_row(self):
        # The client-side identity: fwht(one-hot at r) == H[r, :].
        m = 32
        for r in (0, 7, 31):
            v = np.zeros(m)
            v[r] = 1.0
            assert np.array_equal(fwht(v), hadamard_matrix(m)[r].astype(float))


class TestFWHTProperties:
    @given(
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_involution_random(self, log_m, seed):
        m = 2**log_m
        x = np.random.default_rng(seed).normal(size=m)
        assert np.allclose(fwht(fwht(x)) / m, x, atol=1e-9)

    @given(
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_parseval(self, log_m, seed):
        m = 2**log_m
        x = np.random.default_rng(seed).normal(size=m)
        assert np.isclose(np.sum(fwht(x) ** 2), m * np.sum(x**2))

    @given(
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=0, max_value=2**31 - 1),
        st.floats(min_value=-5, max_value=5),
    )
    @settings(max_examples=50, deadline=None)
    def test_linearity(self, log_m, seed, scale):
        m = 2**log_m
        rng = np.random.default_rng(seed)
        x, y = rng.normal(size=m), rng.normal(size=m)
        assert np.allclose(fwht(x + scale * y), fwht(x) + scale * fwht(y), atol=1e-8)


class TestSampleHadamardEntries:
    def test_matches_matrix(self):
        order = 16
        rng = np.random.default_rng(6)
        rows = rng.integers(0, order, size=100)
        cols = rng.integers(0, order, size=100)
        h = hadamard_matrix(order)
        assert np.array_equal(sample_hadamard_entries(rows, cols, order), h[rows, cols])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="same shape"):
            sample_hadamard_entries(np.zeros(3, dtype=int), np.zeros(4, dtype=int), 8)


class TestPopcountParityLUT:
    """The 16-bit lookup-table parity must pin to the word-level fold."""

    @staticmethod
    def _reference_fold(x, bits=64):
        # The pre-LUT implementation: XOR folds down to one bit.
        x = np.asarray(x)
        if x.dtype == np.int64:
            x = x.view(np.uint64)
        else:
            x = x.astype(np.uint64)
        x = x.copy()
        shift = 32
        while shift:
            if shift < bits:
                x = x ^ (x >> np.uint64(shift))
            shift //= 2
        return (x & np.uint64(1)).astype(np.int64)

    @pytest.mark.parametrize("bits", [1, 4, 10, 16, 17, 31, 63, 64])
    def test_matches_fold_reference(self, bits):
        from repro.transform.hadamard import _popcount_parity

        rng = np.random.default_rng(bits)
        high = min(1 << bits, 1 << 62)
        x = rng.integers(0, high, size=2000, dtype=np.int64)
        assert np.array_equal(
            _popcount_parity(x, bits=bits), self._reference_fold(x, bits=bits)
        )

    def test_exhaustive_16_bit(self):
        from repro.transform.hadamard import _popcount_parity

        x = np.arange(1 << 16, dtype=np.int64)
        expected = np.array([bin(int(v)).count("1") & 1 for v in range(1 << 16)])
        assert np.array_equal(_popcount_parity(x, bits=16), expected)

    def test_caller_buffer_survives_without_consume(self):
        from repro.transform.hadamard import _popcount_parity

        x = np.arange(100, dtype=np.uint64) << np.uint64(20)
        original = x.copy()
        _popcount_parity(x, bits=64, consume=False)
        assert np.array_equal(x, original)

    def test_dtypes_and_edge_values(self):
        from repro.transform.hadamard import _popcount_parity

        for dtype in (np.int32, np.uint32, np.int64, np.uint64):
            x = np.array([0, 1, 2, 3, (1 << 31) - 1], dtype=dtype)
            assert np.array_equal(
                _popcount_parity(x), self._reference_fold(x.astype(np.int64))
            )


def _inplace_butterfly(data: np.ndarray) -> np.ndarray:
    """The in-place radix-2 butterfly, combining index bit 0 first."""
    m = data.shape[-1]
    h = 1
    while h < m:
        view = data.reshape(*data.shape[:-1], m // (2 * h), 2, h)
        a = view[..., 0, :]
        b = view[..., 1, :]
        a[...], b[...] = a + b, a - b
        h *= 2
    return data


class TestConstantGeometryButterfly:
    """The reference butterfly equals the in-place one bit for bit."""

    @pytest.mark.parametrize("log_m", range(13))  # m = 1 .. 4096, odd and even log2
    @pytest.mark.parametrize("lead", [(), (5,), (2, 3)], ids=["1-D", "2-D", "3-D"])
    def test_bit_identical_to_the_inplace_butterfly(self, log_m, lead):
        from repro.transform.hadamard import _butterfly

        data = np.random.default_rng(log_m).normal(scale=1e3, size=(*lead, 1 << log_m))
        expected = _inplace_butterfly(data.copy())
        for transform in (_butterfly, fwht_inplace):
            out = transform(data.copy())
            np.testing.assert_array_equal(out.view(np.int64), expected.view(np.int64))

    @pytest.mark.parametrize("m", [8, 16])
    def test_non_contiguous_view(self, m):
        from repro.transform.hadamard import _butterfly

        base = np.random.default_rng(m).normal(size=(m, 6))
        expected = _inplace_butterfly(np.ascontiguousarray(base.T))
        for transform in (_butterfly, fwht_inplace):
            view = base.copy().T  # (6, m), not C-contiguous
            assert transform(view) is view
            np.testing.assert_array_equal(
                np.ascontiguousarray(view).view(np.int64), expected.view(np.int64)
            )


class TestFwhtScratchCache:
    """The cached scratch buffer must never leak state across calls."""

    def test_interleaved_shapes_stay_correct(self):
        rng = np.random.default_rng(7)
        for m in (8, 64, 16, 256, 8, 1024, 32):
            x = rng.normal(size=(3, m))
            expected = x @ hadamard_matrix(m)
            assert np.allclose(fwht_inplace(x.copy()), expected)

    def test_cache_is_reused_between_calls(self):
        from repro.transform import hadamard as hd

        a = np.random.default_rng(8).normal(size=(4, 64))
        fwht_inplace(a.copy())
        buf_first = getattr(hd._SCRATCH, "buf", None)
        fwht_inplace(a.copy())
        assert getattr(hd._SCRATCH, "buf", None) is buf_first

    def test_oversized_scratch_not_retained(self, monkeypatch):
        from repro.transform import hadamard as hd

        monkeypatch.setattr(hd, "_SCRATCH_CACHE_MAX", 16)
        before = getattr(hd._SCRATCH, "buf", None)
        data = np.random.default_rng(9).normal(size=(4, 64))  # scratch = 256 > 16
        expected = data @ hadamard_matrix(64)
        assert np.allclose(fwht_inplace(data.copy()), expected)
        after = getattr(hd._SCRATCH, "buf", None)
        assert after is before or (after is not None and after.size <= 16)
