"""Tests for blockwise quantization, packing, and the binary file formats."""

import contextlib
import dataclasses
import math
import os
import re
import stat
import struct
import subprocess
import sys
import threading
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import quantlab.blockquant as bq
import quantlab.codebook as qc
from quantlab.errors import DataError, DomainError, FormatError


@pytest.fixture(scope="module")
def codes():
    bins = qc.uniform_bins(64)
    lo, hi = qc.feasible_seed_interval(bins)
    return {
        "nf4": qc.nf4_code(),
        "af4": qc.af4_code(64),
        "balanced": qc.balanced_code(0.5 * (lo + hi), bins, block_size=64),
        "custom": qc.Code16(np.linspace(-1, 1, 16)),
    }


def blocks_view(values, axis, block_size):
    """Rearrange a tensor into (num_blocks, block_size) rows in block order.

    Short final blocks are padded with zeros, which cannot raise a block's
    absmax.  Returns the row matrix and the effective length of the final
    block along the axis.  ``bq.quantize`` does not pad; this padded layout
    is its reference.
    """
    arr = np.asarray(values)
    moved = np.moveaxis(arr, axis, -1)
    length = moved.shape[-1]
    nb_axis = -(-length // block_size)
    pad = nb_axis * block_size - length
    if pad:
        width = [(0, 0)] * (moved.ndim - 1) + [(0, pad)]
        moved = np.pad(moved, width)
    split = moved.reshape(moved.shape[:-1] + (nb_axis, block_size))
    # Put the block counter back at the block axis so a plain ravel yields
    # row-major block order.
    ordered = np.moveaxis(split, -2, axis)
    rows = ordered.reshape(-1, block_size)
    tail = length - (nb_axis - 1) * block_size
    return rows, tail


def unblock(rows, dims, axis, block_size):
    """Inverse of blocks_view: padded rows in block order back to tensor
    shape, dropping the padding."""
    dims = tuple(dims)
    nb_axis = -(-dims[axis] // block_size)
    bshape = list(dims)
    bshape[axis] = nb_axis
    ordered = rows.reshape(tuple(bshape) + (block_size,))
    split = np.moveaxis(ordered, axis, -2)
    moved = split.reshape(split.shape[:-2] + (nb_axis * block_size,))
    moved = moved[..., : dims[axis]]
    return np.moveaxis(moved, -1, axis)


def tail_block_mask(dims, axis, block_size):
    """Boolean mask over block order marking short final blocks, if any,
    and the effective length of the final block."""
    bshape = list(dims)
    nb_axis = -(-dims[axis] // block_size)
    bshape[axis] = nb_axis
    nb = int(np.prod(bshape))
    if dims[axis] % block_size == 0:
        return np.zeros(nb, dtype=bool), block_size
    k = np.unravel_index(np.arange(nb), bshape)[axis]
    tail = dims[axis] - (nb_axis - 1) * block_size
    return k == nb_axis - 1, tail


def fqz1_records(dims, axis, block_size, scales, packed):
    """The FQZ1 body of per-block ``scales`` and zero-padded ``packed``
    rows, both in row-major block order, built one record at a time with
    struct: each block's float32 scale, then the first ceil(block_len / 2)
    bytes of its row."""
    (before, nblocks, after), _ = bq._geometry(dims, axis, block_size)
    s = np.asarray(scales).reshape(before, nblocks, after)
    pk = np.asarray(packed).reshape(before, nblocks, after, -1)
    widths = [(min(block_size, dims[axis] - k * block_size) + 1) // 2
              for k in range(nblocks)]
    body = b"".join(
        struct.pack("<f", s[i, k, j]) + pk[i, k, j, :widths[k]].tobytes()
        for i in range(before) for k in range(nblocks) for j in range(after))
    return np.frombuffer(body, dtype=np.uint8).copy()


def brute_force_indices(normalized, values):
    """Exhaustive nearest-value scan; first minimal index wins ties."""
    dist = np.abs(np.asarray(normalized, dtype=np.float64)[..., None] - values)
    return dist.argmin(axis=-1)


class TestNearestIndex:
    def test_matches_exhaustive_oracle(self, codes):
        rng = np.random.default_rng(2024)
        for code in codes.values():
            x = rng.uniform(-1.02, 1.02, size=5000)
            got = bq.nearest_index(x, code.values)
            np.testing.assert_array_equal(got, brute_force_indices(x, code.values))

    def test_exact_midpoint_goes_low(self, codes):
        v = codes["custom"].values
        mids = 0.5 * (v[:-1] + v[1:])
        got = bq.nearest_index(mids, v)
        expected = brute_force_indices(mids, v)
        np.testing.assert_array_equal(got, expected)
        # np.argmin picks the first minimum, i.e. the lower index
        assert np.all(got == np.arange(15))

    @pytest.mark.parametrize("code_values", [
        [0.5, -0.5, 0.0], [-0.5, np.nan, 0.5], [-0.5, 0.5, np.inf], [-0.5, 0.0, 0.0],
        [0.5], [], np.linspace(-1, 1, 257), np.linspace(-1, 1, 300),
    ], ids=["unsorted", "nan", "inf", "repeated", "one", "none", "257", "300"])
    def test_code_values_that_are_not_a_code(self, code_values):
        # these gave wrong indices ([0, 2, 2, 2] unsorted, all 0 with a NaN,
        # [15, 135, 149, 149] from 300 values through the uint8 output) or
        # raised IndexError
        with pytest.raises(DomainError, match="need 2 to 256 finite, increasing"):
            bq.nearest_index([-0.9, -0.1, 0.2, 0.95], code_values)

    @pytest.mark.parametrize("shape", [(4, 4), (16, 1), (1, 16), (2, 2, 4)])
    def test_code_of_more_than_one_dimension(self, shape):
        # a (4, 4) code's values gave index 10 for 0.3 as if flattened
        with pytest.raises(DomainError, match="need one dimension"):
            bq.nearest_index([0.3], np.linspace(-1, 1, 16).reshape(shape))

    @pytest.mark.parametrize("n", [2, 3, 255, 256])
    def test_codes_of_2_to_256_values(self, n):
        q = np.linspace(-1, 1, n)
        x = np.random.default_rng(n).uniform(-1.1, 1.1, 4096)
        np.testing.assert_array_equal(bq.nearest_index(x, q),
                                      bq._nearest_index_reference(x, q))


@pytest.fixture(scope="module")
def threshold_codes(codes):
    return {
        **codes,
        "af4_4096": qc.af4_code(4096),
        # endpoints inside (-1, 1): inputs beyond them must still clamp
        "narrow": qc.Code16(np.concatenate(
            [np.linspace(-0.9, -0.1, 8), np.geomspace(0.05, 0.8, 8)])),
    }


_SIGNED = {np.dtype(np.float32): np.int32, np.dtype(np.float64): np.int64}


def ulp_steps(t, steps):
    """The values ``steps`` units in the last place away from float t."""
    dtype = t.dtype
    bits = int(t.reshape(1).view(_SIGNED[dtype])[0])
    sign = 1 << (8 * dtype.itemsize - 1)
    key = bits if bits >= 0 else -(bits & (sign - 1)) - 1  # -0.0 -> -1
    keys = key + np.asarray(steps, dtype=np.int64)
    out = np.where(keys >= 0, keys, (-keys - 1) | -sign)
    return out.astype(_SIGNED[dtype]).view(dtype)


def thresholds(code, dtype):
    return bq._thresholds(code.values.tobytes(), np.dtype(dtype))


class TestNearestIndexThresholds:
    """The threshold search against the double-precision reference rule."""

    @pytest.mark.parametrize("dtype,radius", [(np.float32, 1 << 16),
                                              (np.float64, 1 << 12)])
    def test_ulp_neighbourhood_of_every_threshold(self, threshold_codes,
                                                  dtype, radius):
        steps = np.arange(-radius, radius + 1)
        for name, code in threshold_codes.items():
            t = thresholds(code, dtype)
            assert t.dtype == dtype and t.shape == (15,)
            for k, tk in enumerate(t, start=1):
                below, at = ulp_steps(tk, [-1, 0])
                ref = bq._nearest_index_reference([below, at], code.values)
                assert list(ref) == [k - 1, k], (name, k)
            x = np.concatenate([ulp_steps(tk, steps) for tk in t])
            np.testing.assert_array_equal(
                bq.nearest_index(x, code.values),
                bq._nearest_index_reference(x, code.values), err_msg=name)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_special_values(self, threshold_codes, dtype):
        fi = np.finfo(dtype)
        for name, code in threshold_codes.items():
            q = code.values
            mids = 0.5 * (q[:-1] + q[1:])
            x = np.concatenate([
                [-0.0, 0.0, fi.smallest_subnormal, -fi.smallest_subnormal,
                 3 * fi.smallest_subnormal, fi.smallest_normal,
                 -fi.smallest_normal, -1.0, 1.0, -2.0, 2.0, fi.max, -fi.max,
                 np.inf, -np.inf],
                q, mids, np.nextafter(mids, -2.0), np.nextafter(mids, 2.0),
                q[0] - np.geomspace(1e-9, 10, 8), q[-1] + np.geomspace(1e-9, 10, 8),
            ]).astype(dtype)
            np.testing.assert_array_equal(
                bq.nearest_index(x, q), bq._nearest_index_reference(x, q),
                err_msg=name)

    def test_float16_and_integers_search_in_double(self, threshold_codes):
        halves = np.arange(1 << 16, dtype=np.uint16).view(np.float16)
        halves = halves[~np.isnan(halves)]
        ints = [np.arange(-3, 4, dtype=t) for t in (np.int8, np.int32)]
        ints.append(np.arange(7, dtype=np.uint8))
        ints.append(np.array([-(1 << 62), -1, 0, 1, 1 << 62], dtype=np.int64))
        ints.append(np.array([True, False, True]))
        for name, code in threshold_codes.items():
            for x in [halves] + ints:
                got = bq.nearest_index(x, code.values)
                np.testing.assert_array_equal(
                    got, bq._nearest_index_reference(x, code.values), err_msg=name)
                np.testing.assert_array_equal(
                    got, bq.nearest_index(x.astype(np.float64), code.values))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_whole_input_in_one_pass(self, threshold_codes, dtype):
        # 0-d, empty, strided and reversed inputs, and one longer than a
        # tensor piece (_CHUNK), keep their shape and the reference indices
        rng = np.random.default_rng(31)
        big = rng.uniform(-1.1, 1.1, bq._CHUNK + 5).astype(dtype)
        inputs = [np.array(0.3, dtype), dtype(-0.7), np.empty((0, 3), dtype),
                  big, big[::-1], big[:-5].reshape(256, -1)[:, ::3],
                  big[:-5].reshape(-1, 256).T]
        for name, code in threshold_codes.items():
            for x in inputs:
                got = bq.nearest_index(x, code.values)
                assert got.shape == np.shape(x) and got.dtype == np.uint8
                np.testing.assert_array_equal(
                    got, bq._nearest_index_reference(x, code.values), err_msg=name)

    def test_shape_and_nan(self, codes):
        q = codes["nf4"].values
        x = np.linspace(-1, 1, 24, dtype=np.float32).reshape(2, 3, 4)[:, ::2]
        got = bq.nearest_index(x, q)
        assert got.shape == x.shape and got.dtype == np.uint8
        np.testing.assert_array_equal(got, bq._nearest_index_reference(x, q))
        assert bq.nearest_index(np.array([np.nan]), q)[0] == 0


class TestQuantize:
    def test_lattice_tensor_recovers_exactly(self, codes):
        code = codes["nf4"]
        rng = np.random.default_rng(5)
        idx = rng.integers(0, 16, size=(8, 64))
        idx[:, 0] = 15  # force each block's absmax to the code point 1.0
        scale = 4.0  # power of two keeps the float32 lattice exact
        w = (code.values[idx].astype(np.float32) * np.float32(scale))
        qt = bq.quantize(w, code, 64, axis=1)
        np.testing.assert_array_equal(
            bq.unpack_nibbles(qt.packed, 64), idx.astype(np.uint8)
        )
        np.testing.assert_allclose(bq.dequantize(qt), w, atol=0)
        assert bq.reconstruction_errors(w, bq.dequantize(qt))["max_abs"] == 0.0

    def test_zero_block(self, codes):
        code = codes["nf4"]
        qt = bq.quantize(np.zeros(64, dtype=np.float32), code, 64, axis=0)
        assert qt.scales[0] == 0.0
        expected_idx = int(np.argmin(np.abs(code.values)))
        assert np.all(bq.unpack_nibbles(qt.packed, 64) == expected_idx)
        assert np.all(bq.dequantize(qt) == 0.0)

    @pytest.mark.parametrize("values", [
        np.array([0.5 + 1j, -1.0, 2j, 0.25]),
        np.array(["1", "2", "-3", "4"]),
        np.array(["2024-01-01", "2024-01-02", "2024-01-03", "2024-01-04"],
                 dtype="datetime64[D]"),
        np.array([0.5, -1.0, 2, 0.25], dtype=object),
    ], ids=["complex", "str", "datetime64", "object"])
    def test_values_that_are_not_real_numbers(self, codes, values, tmp_path):
        # rejected by dtype before any element is converted: a complex
        # input would otherwise lose its imaginary part
        with pytest.raises(DomainError, match=re.escape(f"dtype {values.dtype}")):
            bq.quantize(values, codes["nf4"], 2)
        with pytest.raises(DomainError, match=re.escape(f"dtype {values.dtype}")):
            bq.tensor_write(values, tmp_path / "t.fqt")
        assert not (tmp_path / "t.fqt").exists()
        with pytest.raises(DomainError, match=re.escape(f"dtype {values.dtype}")):
            bq.nearest_index(values, codes["nf4"].values)
        real = np.zeros(values.shape)
        for pair in ((values, real), (real, values)):
            with pytest.raises(DomainError, match=re.escape(f"dtype {values.dtype}")):
                bq.reconstruction_errors(*pair)

    def test_bool_and_integer_values_quantize_as_float32(self, codes):
        ints = np.array([[3, -1], [0, 2]], dtype=np.int16)
        for values in (ints, np.abs(ints).astype(np.uint8), ints > 0):
            expected = bq.quantize(values.astype(np.float32), codes["nf4"], 2)
            assert bq.quantize(values, codes["nf4"], 2).records.tobytes() == (
                expected.records.tobytes())

    def test_oracle_equivalence_random_blocks(self, codes):
        rng = np.random.default_rng(11)
        for name, code in codes.items():
            w = rng.standard_normal((256, 64)).astype(np.float32)
            qt = bq.quantize(w, code, 64, axis=1)
            idx = bq.unpack_nibbles(qt.packed, 64)
            M = np.abs(w).max(axis=1).astype(np.float32)
            x = w / M[:, None]
            np.testing.assert_array_equal(
                idx, brute_force_indices(x, code.values), err_msg=name
            )

    def test_per_element_error_bound(self, codes):
        rng = np.random.default_rng(12)
        code = codes["af4"]
        gap = np.diff(code.values).max()
        w = rng.standard_normal((64, 129))
        qt = bq.quantize(w, code, 32, axis=1)
        err = np.abs(w - bq.dequantize(qt))
        rows, _ = blocks_view(w, 1, 32)
        M = np.abs(rows).max(axis=1)
        bound = unblock(np.repeat(M[:, None], 32, axis=1), w.shape, 1, 32)
        assert np.all(err <= bound * gap / 2 + 1e-12)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_round_trip_property(self, codes, tmp_path_factory, data):
        dtype = data.draw(st.sampled_from([np.float16, np.float32, np.float64]))
        shape = tuple(data.draw(st.lists(st.integers(1, 9), min_size=1, max_size=3)))
        axis = data.draw(st.integers(-len(shape), len(shape) - 1))
        B = data.draw(st.integers(1, shape[axis] + 3))
        w = data.draw(hnp.arrays(dtype, shape, elements=st.floats(
            -1e4, 1e4, width=8 * np.dtype(dtype).itemsize)))
        code = codes[data.draw(st.sampled_from(sorted(codes)))]

        qt = bq.quantize(w, code, B, axis=axis)
        path = tmp_path_factory.getbasetemp() / "round-trip.fqz"
        bq.qtensor_write(qt, path)
        back = bq.qtensor_read(path)
        assert back.dims == qt.dims == shape
        np.testing.assert_array_equal(back.scales, qt.scales)
        np.testing.assert_array_equal(back.packed, qt.packed)

        # Largest distance from a point of [-1, 1] to its nearest code value;
        # the slack covers rounding of the ratio in the input dtype and of the
        # float32 scale and product, plus float32 subnormal products.
        q = code.values
        half_gap = max(np.diff(q).max() / 2, q[0] + 1, 1 - q[-1])
        k = axis % len(shape)
        rows, _ = blocks_view(np.abs(w.astype(np.float64)), k, B)
        absmax = unblock(np.repeat(rows.max(axis=1)[:, None], B, axis=1),
                         shape, k, B)
        slack = np.finfo(dtype).eps + 2.0 ** -21
        err = np.abs(w.astype(np.float64) - bq.dequantize(qt))
        assert np.all(err <= absmax * (half_gap + slack) + 2.0 ** -140)
        assert bq.usage_histogram(qt).sum() == w.size

    def test_partial_final_block_absmax(self, codes):
        code = codes["nf4"]
        w = np.zeros(70, dtype=np.float32)
        w[:64] = 0.001
        w[64:] = np.array([5.0, -1.0, 2.0, 0.5, 0.25, 0.125], dtype=np.float32)
        qt = bq.quantize(w, code, 64, axis=0)
        # absmax of the short block covers only its own 6 elements
        assert qt.scales[1] == 5.0
        np.testing.assert_allclose(bq.dequantize(qt)[:64], 0.001, atol=1e-3)

    def test_non_finite_rejected(self, codes):
        w = np.ones((4, 8), dtype=np.float32)
        w[2, 3] = np.nan
        with pytest.raises(DataError, match=r"\(2, 3\)"):
            bq.quantize(w, codes["nf4"], 4, axis=1)
        # the first in row-major order of a transposed input, found slice
        # by slice
        w = np.ones((3, bq._CHUNK + 1), dtype=np.float32)
        w[2, 5] = np.inf
        w[1, 7] = np.nan
        with pytest.raises(DataError, match=r"position \(5, 2\)$"):
            bq.quantize(w.T, codes["nf4"], 64, axis=0)

    def test_scale_overflowing_float32_rejected(self, codes):
        w = np.ones((3, 8))
        w[2, 5] = 1e39
        with pytest.raises(DataError, match="block 2"):
            bq.quantize(w, codes["nf4"], 8, axis=1)
        w[2, 5] = np.finfo(np.float32).max
        assert bq.quantize(w, codes["nf4"], 8, axis=1).scales[2] == w[2, 5]

    @pytest.mark.parametrize("shape,axis", [((37, 3), 0), ((2, 3, 37), 2),
                                            ((37,), 0), ((3, 37, 2), 1)])
    def test_short_tails_match_padded_reference(self, tmp_path, codes,
                                                shape, axis):
        rng = np.random.default_rng(22)
        code = codes["af4"]
        table = code.values.astype(np.float32)
        for dtype in (np.float32, np.float64):
            w = rng.standard_normal(shape).astype(dtype)
            for B in (1, 2, 5, 8, 36, 37, 64):
                qt = bq.quantize(w, code, B, axis=axis)
                # the padded path: zero-padded rows, then pad nibbles zeroed
                rows, _ = blocks_view(w, axis, B)
                scales = np.abs(rows).max(axis=1).astype(np.float32)
                safe = np.where(scales > 0, scales, np.float32(1)).astype(dtype)
                idx = bq._nearest_index_reference(rows / safe[:, None], code.values)
                tail_mask, tail_len = tail_block_mask(w.shape, axis, B)
                idx[np.ix_(tail_mask, np.arange(tail_len, B))] = 0
                # packed rows are as wide as the longest block
                width = (min(B, shape[axis]) + 1) // 2
                packed = bq.pack_nibbles(idx)[:, :width]
                ref = bq.QuantizedTensor(w.shape, axis, B, code, fqz1_records(
                    w.shape, axis, B, scales, packed))
                np.testing.assert_array_equal(qt.records, ref.records)
                np.testing.assert_array_equal(qt.scales, scales)
                np.testing.assert_array_equal(qt.packed, packed)

                deq = bq.dequantize(qt)
                assert deq.dtype == np.float32 and deq.flags.c_contiguous
                np.testing.assert_array_equal(
                    deq, unblock(table[idx] * scales[:, None], w.shape, axis, B))
                effective = unblock(idx, w.shape, axis, B).ravel()
                np.testing.assert_array_equal(
                    bq.usage_histogram(qt), np.bincount(effective, minlength=16))

                bq.qtensor_write(qt, tmp_path / "a.fqz")
                bq.qtensor_write(ref, tmp_path / "b.fqz")
                assert ((tmp_path / "a.fqz").read_bytes()
                        == (tmp_path / "b.fqz").read_bytes())
                back = bq.qtensor_read(tmp_path / "a.fqz")
                np.testing.assert_array_equal(back.scales, scales)
                np.testing.assert_array_equal(back.packed, packed)

    def test_axis_handling(self, codes):
        rng = np.random.default_rng(13)
        w = rng.standard_normal((6, 8, 10)).astype(np.float32)
        for axis in (0, 1, 2, -1):
            qt = bq.quantize(w, codes["nf4"], 4, axis=axis)
            assert bq.dequantize(qt).shape == w.shape
        with pytest.raises(DomainError):
            bq.quantize(w, codes["nf4"], 4, axis=3)

    @pytest.mark.parametrize("block_size", [2.5, True, 0, -3])
    def test_block_size_must_be_positive_int(self, codes, block_size):
        w = np.ones((4, 8), dtype=np.float32)
        with pytest.raises(DomainError, match="block size must be"):
            bq.quantize(w, codes["nf4"], block_size, axis=1)

    def test_numpy_integer_block_size_is_stored_as_int(self, codes):
        w = np.ones((4, 8), dtype=np.float32)
        qt = bq.quantize(w, codes["nf4"], np.int64(4), axis=1)
        assert qt.block_size == 4 and type(qt.block_size) is int
        with pytest.raises(DomainError, match="block size must be"):
            bq.QuantizedTensor(qt.dims, 1, 4.0, qt.code, qt.records)

    # One block of 4: a 4-byte scale and 2 index bytes.
    @pytest.mark.parametrize("records", [
        np.array([0, 0, 128, 63, 300, 0]), np.zeros(6, np.int8),
        np.zeros(6, np.float32), [0] * 6, bytes(6)])
    def test_records_dtype_is_checked(self, records):
        # an int64 byte of 300 would dequantize as 44; a list and bytes
        # have no dtype
        with pytest.raises(DomainError, match="records must be a uint8 array"):
            bq.QuantizedTensor((4,), 0, 4, qc.nf4_code(), records)

    @pytest.mark.parametrize("code", [np.linspace(-1, 1, 16), None, "nf4"])
    def test_code_must_be_a_code16(self, code):
        # checked when the QuantizedTensor is made, before the absmax pass
        # reads the input: its NaN would be a DataError there
        w = np.full((4, 8), np.nan, np.float32)
        with pytest.raises(DomainError, match="code must be a Code16"):
            bq.quantize(w, code, 4)
        with pytest.raises(DomainError, match="code must be a Code16"):
            bq.QuantizedTensor((4,), 0, 4, code, np.zeros(6, np.uint8))

    # Records of 4 + 2 bytes per block of 4, and of 4 + 1 for a tail of 2.
    @pytest.mark.parametrize("dims, axis, records, message", [
        ((), 0, 6, "invalid dims"),
        ((4, 0), 0, 6, r"extent of \(4, 0\) must be >= 1, got 0"),
        ((4,), 1, 6, "block_axis 1 out of range"),
        ((4,), -1, 6, "block_axis -1 out of range"),
        ((8,), 0, 6, r"expected 12 record bytes, got shape \(6,\)"),
        ((8,), 0, (2, 6), r"expected 12 record bytes, got shape \(2, 6\)"),
        ((6,), 0, 12, r"expected 11 record bytes, got shape \(12,\)"),
    ])
    def test_geometry_is_checked(self, dims, axis, records, message):
        with pytest.raises(DomainError, match=message):
            bq.QuantizedTensor(dims, axis, 4, qc.nf4_code(), np.zeros(records, np.uint8))

    # dataclasses.replace keeps the records of a valid (4, 4) tensor quantized
    # in blocks of 4 along axis 1, and runs the checks again.
    @pytest.mark.parametrize("dims, message", [
        ((4.7, 4), "must be an integer, got 4.7"),
        ((True, 4), "must be an integer, got True"),
        (("4", 4), "must be an integer, got '4'"),
    ], ids=["float", "bool", "str"])
    def test_extents_must_be_integers(self, codes, dims, message):
        qt = bq.quantize(np.ones((4, 4), np.float32), codes["nf4"], 4, axis=1)
        with pytest.raises(DomainError, match=f"extent of .* {message}"):
            dataclasses.replace(qt, dims=dims)

    @pytest.mark.parametrize("axis", [True, 1.0], ids=["bool", "float"])
    def test_block_axis_must_be_an_integer(self, codes, axis):
        qt = bq.quantize(np.ones((4, 4), np.float32), codes["nf4"], 4, axis=1)
        with pytest.raises(DomainError, match="block_axis must be an integer"):
            dataclasses.replace(qt, block_axis=axis)

    def test_numpy_integer_block_axis_is_stored_as_int(self, codes):
        qt = bq.quantize(np.ones((4, 4), np.float32), codes["nf4"], 4, axis=1)
        qt = dataclasses.replace(qt, block_axis=np.int64(1))
        assert qt.block_axis == 1 and type(qt.block_axis) is int

    def test_quantize_axis_must_be_an_integer(self, codes):
        with pytest.raises(DomainError, match="axis must be an integer, got 1.0"):
            bq.quantize(np.ones((4, 4), np.float32), codes["nf4"], 2, axis=1.0)

    def test_integer_tensor_quantizes_as_float32(self, codes):
        w = np.arange(-12, 12).reshape(3, 8)
        a = bq.quantize(w, codes["nf4"], 4, axis=1)
        b = bq.quantize(w.astype(np.float32), codes["nf4"], 4, axis=1)
        np.testing.assert_array_equal(a.scales, b.scales)
        np.testing.assert_array_equal(a.packed, b.packed)

    @pytest.mark.parametrize("w, message", [
        (np.float32(1.0), "cannot quantize a scalar"),
        (np.ones((3, 0), np.float32), r"empty tensor of shape \(3, 0\)"),
    ])
    def test_scalar_and_empty_tensor_rejected(self, codes, w, message):
        with pytest.raises(DomainError, match=message):
            bq.quantize(w, codes["nf4"], 4)

    def test_idempotence(self, codes):
        rng = np.random.default_rng(14)
        w = rng.standard_normal((16, 64)).astype(np.float32)
        qt = bq.quantize(w, codes["nf4"], 64, axis=1)
        deq = bq.dequantize(qt)
        qt2 = bq.quantize(deq, codes["nf4"], 64, axis=1)
        np.testing.assert_array_equal(bq.dequantize(qt2), deq)

    def test_determinism(self, codes):
        rng = np.random.default_rng(15)
        w = rng.standard_normal((33, 21)).astype(np.float32)
        a = bq.quantize(w, codes["af4"], 5, axis=0)
        b = bq.quantize(w, codes["af4"], 5, axis=0)
        assert np.array_equal(a.scales, b.scales)
        assert np.array_equal(a.packed, b.packed)


class TestUsageHistogram:
    def test_zeros_concentrate_on_smallest_value(self, codes):
        code = codes["nf4"]
        qt = bq.quantize(np.zeros((4, 64), dtype=np.float32), code, 64, axis=1)
        counts = bq.usage_histogram(qt)
        assert counts.dtype == np.int64 and counts.shape == (16,)
        assert counts.sum() == 256
        assert counts[int(np.argmin(np.abs(code.values)))] == 256

    def test_nf4_usage_spread(self, codes):
        rng = np.random.default_rng(16)
        w = rng.standard_normal(1 << 22).astype(np.float32)
        qt = bq.quantize(w, codes["nf4"], 64, axis=0)
        counts = bq.usage_histogram(qt)
        props = counts / counts.sum()
        assert props.min() < 0.03
        assert props.max() > 0.08

    def test_partial_blocks_not_counted_as_padding(self, codes):
        w = np.ones(65, dtype=np.float32)
        qt = bq.quantize(w, codes["nf4"], 64, axis=0)
        counts = bq.usage_histogram(qt)
        assert counts.sum() == 65
        assert counts[15] == 65


class TestReconstructionError:
    def test_identical_tensors(self):
        w = np.ones((3, 3))
        assert bq.reconstruction_errors(w, w) == {
            "mean_abs": 0.0, "mean_sq": 0.0, "max_abs": 0.0}

    def test_known_values(self):
        a = np.array([0.0, 1.0, 2.0])
        b = np.array([0.5, 1.0, 0.0])
        report = bq.reconstruction_errors(a, b)
        assert report["mean_abs"] == pytest.approx(2.5 / 3)
        assert report["mean_sq"] == pytest.approx(4.25 / 3)
        assert report["max_abs"] == 2.0

    def test_dim_mismatch(self):
        with pytest.raises(DomainError, match="mismatch"):
            bq.reconstruction_errors(np.ones(3), np.ones(4))

    def test_one_pass_report_matches_each_metric(self, codes):
        rng = np.random.default_rng(23)
        w = rng.standard_normal((33, 70)).astype(np.float32)
        for axis in (0, 1):
            recon = bq.dequantize(bq.quantize(w, codes["af4"], 16, axis=axis))
            report = bq.reconstruction_errors(w, recon)
            assert list(report) == ["mean_abs", "mean_sq", "max_abs"]
            assert all(type(v) is float for v in report.values())
            # numpy oracle on float64 copies of the inputs
            diff = np.abs(w.astype(np.float64) - recon.astype(np.float64))
            assert report == {"mean_abs": float(diff.mean()),
                              "mean_sq": float((diff * diff).mean()),
                              "max_abs": float(diff.max())}

    # Sizes below numpy's 8-element unrolled sum and its 128-element pairwise
    # block, odd sizes, and one above both.
    @pytest.mark.parametrize("shape", [(1,), (7,), (3, 5), (127,), (129,),
                                       (13, 11), (1001,)])
    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    def test_report_equals_unfused_expressions(self, shape, dtype):
        rng = np.random.default_rng(sum(shape))
        a = rng.standard_normal(shape).astype(dtype)
        b = (a + rng.standard_normal(shape) / 8).astype(dtype)
        diff = np.abs(a.astype(np.float64) - b.astype(np.float64))
        expected = {"mean_abs": float(diff.mean()),
                    "mean_sq": float((diff * diff).mean()),
                    "max_abs": float(diff.max())}
        got = bq.reconstruction_errors(a, b)
        assert {k: v.hex() for k, v in got.items()} == {
            k: v.hex() for k, v in expected.items()}

    def test_report_memory_is_a_fixed_multiple_of_the_chunk(self):
        # one float64 slice of differences plus the iterator's cast buffers,
        # whatever the tensor's size
        for size in (1 << 18, 1 << 22):
            a = np.ones(size, dtype=np.float32)
            b = np.zeros_like(a)
            with traced_peak() as peak:
                bq.reconstruction_errors(a, b)
            assert peak[0] < 16 * bq._CHUNK

    @pytest.mark.parametrize("layout", ["transposed", "fortran-against-c", "strided"])
    def test_report_memory_on_other_layouts(self, layout):
        # An input that is not C-contiguous is read through the iterator's
        # buffers too, never copied whole (16 MiB for 2^22 float32 elements).
        rng = np.random.default_rng(41)
        cols = 4100 if layout == "strided" else 2050
        x, y = (rng.standard_normal((2048, cols), dtype=np.float32) for _ in "xy")
        if layout == "transposed":
            a, b = x.T, y.T
        elif layout == "fortran-against-c":
            a, b = np.asfortranarray(x), y
        else:
            a, b = x[:, ::2], y[:, ::2]
        assert a.size >= 1 << 22 and not a.flags.c_contiguous
        assert_same_report(a, b)
        with traced_peak() as peak:
            bq.reconstruction_errors(a, b)
        assert peak[0] < 16 * bq._CHUNK

    def test_empty_tensors_rejected(self):
        with pytest.raises(DomainError, match="no elements"):
            bq.reconstruction_errors(np.ones((3, 0)), np.ones((3, 0)))

    def test_af4_beats_nf4_at_large_blocks(self, codes):
        rng = np.random.default_rng(17)
        w = rng.standard_normal((512, 4096)).astype(np.float32)
        af4 = qc.af4_code(4096)
        err_af4 = bq.reconstruction_errors(
            w, bq.dequantize(bq.quantize(w, af4, 4096, axis=1)))["mean_abs"]
        err_nf4 = bq.reconstruction_errors(
            w, bq.dequantize(bq.quantize(w, codes["nf4"], 4096, axis=1)))["mean_abs"]
        assert err_af4 < err_nf4

    def test_mean_abs_tracks_l1_times_mean_absmax(self):
        # mean_abs ~ expected_l1 * E[absmax]: approximate only, because the
        # per-block scale and the conditional distance are correlated; the
        # gap shrinks as the absmax concentrates with growing block size
        from scipy import integrate

        import quantlab.distributions as qd

        gaps = []
        for B, nblk in ((64, 1 << 14), (4096, 1 << 9)):
            code = qc.af4_code(B)
            mean_absmax, _ = integrate.quad(
                lambda m: m * qd.absmax_pdf(m, B), 0, 30, limit=200
            )
            product = qc.expected_l1(code, B) * mean_absmax
            rng = np.random.default_rng(77)
            w = rng.standard_normal((nblk, B))
            qt = bq.quantize(w, code, B, axis=1)
            est = np.abs(w - bq.dequantize(qt)).mean()
            gaps.append(abs(est - product) / est)
        assert gaps[0] < 0.02 and gaps[1] < 0.02
        assert gaps[1] < gaps[0]


def unchunked_report(a, b):
    """numpy's own whole-tensor expressions for the three report figures."""
    diff = np.abs(np.subtract(a, b, dtype=np.float64))
    return {"mean_abs": float(diff.mean()), "mean_sq": float((diff * diff).mean()),
            "max_abs": float(diff.max())}


def assert_same_report(a, b):
    got = bq.reconstruction_errors(a, b)
    expected = unchunked_report(a, b)
    assert {k: v.hex() for k, v in got.items()} == {
        k: v.hex() for k, v in expected.items()}


LEAF = bq._CHUNK


def report_of_quantize(values, code, block_size, axis):
    """quantize's QuantizedTensor and the report fused into its second
    pass, over the array's C-order elements."""
    a = np.asarray(values)
    flat = a.reshape(-1)
    return bq._quantize(a.shape, lambda start, stop: flat[start:stop], code,
                        block_size, axis, report=True)


class TestStreamedReport:
    """The report sums chunk by chunk along numpy's pairwise tree, and must
    give numpy's unchunked figures bit for bit: at sizes below numpy's
    8-element unroll and 128-element pairwise block, around the chunk size,
    across several chunks, for every float input dtype and memory layout."""

    @pytest.mark.parametrize("size", [1, 7, 8, 127, 128, 129, LEAF - 1, LEAF,
                                      LEAF + 1, 3 * LEAF + 5])
    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    @pytest.mark.parametrize("layout", ["contiguous", "strided", "reversed"])
    def test_one_dimensional(self, size, dtype, layout):
        rng = np.random.default_rng(size)
        step = {"contiguous": 1, "strided": 3, "reversed": -1}[layout]
        a = rng.standard_normal(size * abs(step)).astype(dtype)[::step]
        b = (a + rng.standard_normal(size) / 8).astype(dtype)
        assert_same_report(a, b)

    @pytest.mark.parametrize("shape", [(257, 33), (3, LEAF // 2 + 7), (9, 70, 33)])
    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    @pytest.mark.parametrize("layout", ["C", "F", "strided", "mixed", "negative"])
    def test_layouts(self, shape, dtype, layout):
        rng = np.random.default_rng(len(shape))
        a = rng.standard_normal(shape).astype(dtype)
        b = (a + rng.standard_normal(shape) / 8).astype(dtype)
        a, b = {"C": lambda: (a, b),
                "F": lambda: (a.T, b.T),
                "strided": lambda: (a[::2, ::3], b[::2, ::3]),
                "mixed": lambda: (a.T, np.ascontiguousarray(b.T)),
                "negative": lambda: (a[::-1, ::-2], b[::-1, ::-2])}[layout]()
        assert_same_report(a, b)

    def test_large_tensor(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((4096, 4100), dtype=np.float32)
        b = a + np.float32(1 / 64) * rng.standard_normal(a.shape, dtype=np.float32)
        assert_same_report(a, b)
        assert_same_report(a.T, b.T)

    @pytest.mark.parametrize("leaf", [128, 129, 4096])
    def test_smaller_chunks_split_deeper(self, monkeypatch, leaf):
        monkeypatch.setattr(bq, "_CHUNK", leaf)
        rng = np.random.default_rng(leaf)
        for size in (5, 129, 257 * 33, 1_000_003):
            a = rng.standard_normal(size)
            assert_same_report(a, a + rng.standard_normal(size) / 8)

    # Tail blocks down the first axis, along rows and along a middle axis; a
    # block longer than its row; and a block axis between two unit axes.
    @pytest.mark.parametrize("shape, B, axis", [
        ((257, 33), 16, 0), ((33, 257), 64, 1), ((9, 70, 33), 64, 1),
        ((3, 1000), 4096, 1), ((5, 1, 7, 1, 3), 2, 2)])
    # "permuted" keeps the memory order of some pairs of axes and reverses
    # that of others (on 2-D shapes it is the F layout): numpy's iterator
    # still sums in C order against the C-order dequantized copy.
    @pytest.mark.parametrize("layout", ["C", "F", "strided", "negative", "permuted"])
    @pytest.mark.parametrize("leaf", [LEAF, 128, 129, 4096])
    def test_quantized_tensor_equals_its_dequantized_copy(
            self, monkeypatch, tmp_path, codes, shape, B, axis, layout, leaf):
        # The report quantize's second pass fuses in, against the report on
        # the dequantized tensor; and the same FQZ1 bytes as without it.
        monkeypatch.setattr(bq, "_CHUNK", leaf)
        rng = np.random.default_rng(B + axis)
        for dtype in (np.float16, np.float32, np.float64):
            w = rng.standard_normal(shape).astype(dtype)
            qt = bq.quantize(w, codes["af4"], B, axis=axis)
            if layout == "F":
                a = np.asfortranarray(w)
            elif layout == "strided":
                a = np.zeros(tuple(2 * n for n in shape), dtype=dtype)[
                    tuple(slice(None, None, 2) for _ in shape)]
                a[...] = w
            elif layout == "negative":
                a = np.flip(np.flip(w).copy())
            elif layout == "permuted":
                p = np.roll(np.arange(w.ndim), 1)
                a = np.ascontiguousarray(w.transpose(p)).transpose(np.argsort(p))
            else:
                a = w
            fused, got = report_of_quantize(a, codes["af4"], B, axis)
            expected = bq.reconstruction_errors(a, bq.dequantize(fused))
            assert {k: v.hex() for k, v in got.items()} == {
                k: v.hex() for k, v in expected.items()}
            bq.qtensor_write(fused, tmp_path / "fused.fqz")
            bq.qtensor_write(qt, tmp_path / "alone.fqz")
            assert ((tmp_path / "fused.fqz").read_bytes()
                    == (tmp_path / "alone.fqz").read_bytes())

    def test_quantized_tensor_is_not_a_tensor(self, codes):
        qt = bq.quantize(np.ones((4, 6)), codes["nf4"], 4)
        with pytest.raises(DomainError, match="mismatch"):
            bq.reconstruction_errors(np.ones((4, 6)), qt)

    def test_nan_in_a_later_chunk_reaches_the_maximum(self):
        # Python's max would keep the first chunk's maximum over a later NaN
        a = np.zeros(3 * LEAF + 5)
        b = np.zeros_like(a)
        a[0] = 5.0
        a[-1] = np.nan
        assert_same_report(a, b)
        report = bq.reconstruction_errors(a, b)
        assert all(np.isnan(v) for v in report.values())

    def test_infinities(self):
        a = np.zeros(2 * LEAF + 3)
        b = np.zeros_like(a)
        a[LEAF + 1] = np.inf
        assert bq.reconstruction_errors(a, b) == {
            "mean_abs": np.inf, "mean_sq": np.inf, "max_abs": np.inf}
        b[LEAF + 1] = np.inf
        with np.errstate(invalid="ignore"):
            assert_same_report(a, b)
            assert np.isnan(bq.reconstruction_errors(a, b)["max_abs"])


# Tensors of at least 2^22 elements, in geometries that _runs and _pieces
# cut differently: many short blocks across rows, long rows with a tail
# block, blocks along a middle axis with a tail, and one block longer than
# its row (the runs then cut through the block).
WORKING_SET_GEOMETRIES = {
    "axis0-short-blocks": ((2048, 2048), 64, 0),
    "axis1-tail": ((1024, 4100), 4096, 1),
    "middle-axis-3d": ((64, 1000, 66), 64, 1),
    "block-longer-than-axis": ((2, (1 << 21) + 3), 1 << 22, 1),
}


class TestWorkingSet:
    """No function on the tensor path makes a temporary that grows with the
    tensor: beyond its inputs and outputs, each peaks at a fixed multiple of
    the chunk (16 bytes per chunk element, against 16 MiB of tensor).  The
    report fused into quantize holds no dequantized tensor."""

    @pytest.mark.parametrize("geometry", sorted(WORKING_SET_GEOMETRIES))
    def test_quantize_dequantize_report(self, geometry):
        shape, B, axis = WORKING_SET_GEOMETRIES[geometry]
        w = np.random.default_rng(8).standard_normal(shape, dtype=np.float32)
        assert w.size >= 1 << 22
        slack = 16 * bq._CHUNK
        code = qc.nf4_code()
        with traced_peak() as peak:
            qt = bq.quantize(w, code, B, axis=axis)
        assert peak[0] < qt.records.nbytes + slack
        with traced_peak() as peak:
            restored = bq.dequantize(qt)
        assert peak[0] < restored.nbytes + slack
        with traced_peak() as peak:
            report = bq.reconstruction_errors(w, restored)
        assert peak[0] < slack
        with traced_peak() as peak:
            fused, streamed = report_of_quantize(w, code, B, axis)
        assert peak[0] < qt.records.nbytes + slack
        assert {k: v.hex() for k, v in streamed.items()} == {
            k: v.hex() for k, v in report.items()}
        np.testing.assert_array_equal(fused.records, qt.records)

    @pytest.mark.parametrize("geometry", sorted(WORKING_SET_GEOMETRIES))
    def test_scales_and_packed_copy_out_the_records(self, geometry):
        # Against the padded layout built from the tensor; then a write
        # through the part views lands in the records, pad bytes excepted.
        shape, B, axis = WORKING_SET_GEOMETRIES[geometry]
        w = np.random.default_rng(8).standard_normal(shape, dtype=np.float32)
        code = qc.nf4_code()
        qt = bq.quantize(w, code, B, axis=axis)
        rows, _ = blocks_view(w, axis, B)
        scales = np.abs(rows).max(axis=1)
        safe = np.where(scales > 0, scales, np.float32(1))
        idx = bq.nearest_index(rows / safe[:, None], code.values)
        del rows
        tail_mask, tail_len = tail_block_mask(shape, axis, B)
        idx[np.ix_(tail_mask, np.arange(tail_len, B))] = 0
        packed = bq.pack_nibbles(idx)[:, :(min(B, shape[axis]) + 1) // 2]
        np.testing.assert_array_equal(qt.scales, scales)
        np.testing.assert_array_equal(qt.packed, packed)
        # copies, so a write to them would change nothing
        assert not (qt.scales.flags.writeable or qt.packed.flags.writeable)

        for _, _, _, s, pk in bq._parts(qt):
            s *= 2
            pk ^= 0xFF
        packed ^= 0xFF
        packed[np.ix_(tail_mask, np.arange((tail_len + 1) // 2, packed.shape[1]))] = 0
        np.testing.assert_array_equal(qt.scales, 2 * scales)
        np.testing.assert_array_equal(qt.packed, packed)

    @pytest.mark.parametrize("geometry", sorted(WORKING_SET_GEOMETRIES))
    def test_usage_histogram_counts_every_block_part(self, geometry):
        # Against unpacking each block part whole at its own length, which
        # leaves out the pad nibbles.
        shape, B, axis = WORKING_SET_GEOMETRIES[geometry]
        w = np.random.default_rng(8).standard_normal(shape, dtype=np.float32)
        qt = bq.quantize(w, qc.af4_code(64), B, axis=axis)
        grid, parts = bq._geometry(qt.dims, axis, B)
        packed = qt.packed.reshape(grid + (-1,))
        expected = sum(np.bincount(bq.unpack_nibbles(
            packed[:, first:first + n], block_len).reshape(-1), minlength=16)
            for first, n, block_len in parts)
        np.testing.assert_array_equal(bq.usage_histogram(qt), expected)

    def test_tensor_read_allocates_the_array_once(self, tmp_path):
        w = np.random.default_rng(9).standard_normal((1024, 4097), dtype=np.float32)
        path = tmp_path / "w.fqt"
        bq.tensor_write(w, path)
        with traced_peak() as peak:
            back = bq.tensor_read(path)
        assert peak[0] < back.nbytes + (64 << 10)
        np.testing.assert_array_equal(back, w)

    def test_qtensor_read_allocates_the_body_once(self, tmp_path):
        # a tail block of 96 elements per row: its record is 52 bytes, not
        # the full block's 2,004
        w = np.random.default_rng(9).standard_normal((1024, 4096), dtype=np.float32)
        qt = bq.quantize(w, qc.nf4_code(), 4000, axis=1)
        path = tmp_path / "w.fqz"
        bq.qtensor_write(qt, path)
        with traced_peak() as peak:
            back = bq.qtensor_read(path)
        assert back.records.nbytes == 1024 * (4 + 2000 + 4 + 48)
        assert peak[0] < back.records.nbytes + (64 << 10)
        np.testing.assert_array_equal(back.records, qt.records)

    def test_tensor_write_copies_nothing_contiguous(self, tmp_path):
        w = np.ones((1024, 4097), dtype=np.float32)
        with traced_peak() as peak:
            bq.tensor_write(w, tmp_path / "w.fqt")
        assert peak[0] < 64 << 10


class TestSlices:
    """Quantizing piece by piece is quantizing the whole tensor at once."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_pieces_cover_every_element_once(self, data):
        shape = tuple(data.draw(st.lists(st.integers(1, 9), min_size=1, max_size=4)))
        axis = data.draw(st.integers(0, len(shape) - 1))
        B = data.draw(st.integers(1, shape[axis] + 3))
        chunk = data.draw(st.integers(1, 40))
        (before, nblocks, after), _ = bq._geometry(shape, axis, B)
        length = shape[axis]
        # byte numbers stand in for the record bytes, so a scale field's
        # <f4 view holds the bit pattern of its record's first byte number
        qt = types.SimpleNamespace(
            dims=shape, block_axis=axis, block_size=B,
            records=np.arange(bq._fqz1_body_length(shape, axis, B), dtype=np.uint32))
        record = 4 + (np.minimum(B, length - B * np.arange(nblocks)) + 1) // 2
        sizes = np.broadcast_to(record[:, None], (before, nblocks, after)).ravel()
        starts = np.cumsum(sizes) - sizes
        size = math.prod(shape)
        seen = np.zeros(size, dtype=int)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bq, "_CHUNK", chunk)
            runs = list(bq._runs(shape))
            assert [0] + [stop for _, stop in runs] == [start for start, _ in runs] + [
                size]
            for start, stop in runs:
                out = np.full(stop - start, -1)
                for offset, n, (v, o), s, pk in bq._pieces(
                        bq._layout(qt), start, stop, np.arange(start, stop), out):
                    assert v.size > 0
                    seen[v] += 1
                    o[...] = v
                    pos = v // after % length
                    assert np.unique(pos // B >= length // B).size == 1
                    assert np.all(pos % B == offset + np.arange(n)[:, None])
                    block = ((v // (length * after) * nblocks + pos // B) * after
                             + v % after)
                    first = s.view(np.uint32)
                    assert np.all(starts[block] == first[:, :, None])
                    assert pk.shape[-1] == bq._width(offset % 2 + n)
                    assert np.all(pk[..., 0] == first + 4 + offset // 2)
                np.testing.assert_array_equal(out, np.arange(start, stop))
        assert np.all(seen == 1)

    def test_pieces_at_odd_offsets(self, codes):
        # Rows along the trailing axis longer than the chunk start pieces at
        # every position in their blocks, and a piece at an odd one shares
        # its first packed byte with an earlier piece.
        w = np.random.default_rng(12).standard_normal((3, 5, 40)).astype(np.float32)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bq, "_CHUNK", 1 << 30)
            whole = bq.quantize(w, codes["af4"], 5, axis=1)
            mp.setattr(bq, "_CHUNK", 16)
            odd = [offset for start, stop in bq._runs(w.shape)
                   for offset, *_ in bq._pieces(bq._layout(whole), start, stop)
                   if offset % 2]
            assert len(odd) == 18
            pieces = bq.quantize(w, codes["af4"], 5, axis=1)
        np.testing.assert_array_equal(pieces.scales, whole.scales)
        np.testing.assert_array_equal(pieces.packed, whole.packed)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_chunked_equals_one_piece(self, codes, data):
        dtype = data.draw(st.sampled_from([np.float16, np.float32, np.float64]))
        shape = tuple(data.draw(st.lists(st.integers(1, 11), min_size=1, max_size=3)))
        axis = data.draw(st.integers(0, len(shape) - 1))
        B = data.draw(st.integers(1, shape[axis] + 3))
        w = np.random.default_rng(data.draw(st.integers(0, 99))).standard_normal(
            shape).astype(dtype)
        code = codes[data.draw(st.sampled_from(sorted(codes)))]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bq, "_CHUNK", 1 << 30)
            whole = bq.quantize(w, code, B, axis=axis)
            restored = bq.dequantize(whole)
            counts = bq.usage_histogram(whole)
            mp.setattr(bq, "_CHUNK", data.draw(st.integers(1, 24)))
            pieces = bq.quantize(w, code, B, axis=axis)
            np.testing.assert_array_equal(pieces.scales, whole.scales)
            np.testing.assert_array_equal(pieces.packed, whole.packed)
            np.testing.assert_array_equal(bq.dequantize(pieces), restored)
            np.testing.assert_array_equal(bq.usage_histogram(pieces), counts)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_a_slab_is_its_own_tensor(self, codes, data):
        # Each slab is a (rows, extent, after) tensor blocked along axis 1:
        # quantized alone, its elements give exactly the records and scales
        # that are its byte range and its blocks of the whole tensor's.  The
        # slabs follow one another in elements, blocks and bytes; each holds
        # at most a chunk of elements, or one block group.
        shape = tuple(data.draw(st.lists(st.integers(1, 11), min_size=1, max_size=3)))
        axis = data.draw(st.integers(0, len(shape) - 1))
        B = data.draw(st.integers(1, shape[axis] + 3))
        chunk = data.draw(st.integers(1, 300))
        w = np.random.default_rng(data.draw(st.integers(0, 99))).standard_normal(
            shape).astype(np.float32)
        qt = bq.quantize(w, codes["af4"], B, axis=axis)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bq, "_CHUNK", chunk)
            layout = list(bq._slab_layout(shape, axis, B))
        after = math.prod(shape[axis + 1:])
        element = block = byte = 0
        for start, slab, blocks, part in layout:
            assert (start, blocks.start, part.start) == (element, block, byte)
            size = math.prod(slab)
            assert slab[2] == after
            assert size <= chunk or slab[:2] == (1, min(B, shape[axis] - (
                start // after) % shape[axis]))
            alone = bq.quantize(w.reshape(-1)[start:start + size].reshape(slab),
                                codes["af4"], B, axis=1)
            np.testing.assert_array_equal(alone.records, qt.records[part])
            np.testing.assert_array_equal(alone.scales, qt.scales[blocks])
            element, block, byte = start + size, blocks.stop, part.stop
        assert (element, block, byte) == (w.size, qt.num_blocks, qt.records.size)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_every_record_byte_is_written(self, codes, data):
        # Neither quantize nor the quantize command fills the records before
        # the passes: the scales and the second pass write every byte, pad
        # nibbles included, whatever the records held.
        shape = tuple(data.draw(st.lists(st.integers(1, 11), min_size=1, max_size=3)))
        axis = data.draw(st.integers(0, len(shape) - 1))
        B = data.draw(st.integers(1, shape[axis] + 3))
        w = np.random.default_rng(data.draw(st.integers(0, 99))).standard_normal(
            shape).astype(np.float32)
        flat = w.reshape(-1)
        qt = bq.quantize(w, codes["af4"], B, axis=axis)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bq, "_CHUNK", data.draw(st.integers(1, 40)))
            for fill in (0x00, 0xFF, 0xA5):
                written = []
                slabs = bq._slabs(shape, axis, B, qt.code, lambda part: np.full(
                    part.stop - part.start, fill, dtype=np.uint8), qt.scales)
                bq._encode_slabs(shape, lambda start, stop: flat[start:stop], slabs,
                                 False, written.append)
                np.testing.assert_array_equal(np.concatenate(written), qt.records)


class TestPacking:
    def test_roundtrip_even_and_odd(self):
        rng = np.random.default_rng(18)
        for n in (2, 7, 16, 33):
            idx = rng.integers(0, 16, size=(5, n)).astype(np.uint8)
            packed = bq.pack_nibbles(idx)
            assert packed.shape == (5, (n + 1) // 2)
            np.testing.assert_array_equal(bq.unpack_nibbles(packed, n), idx)
            # bytes of a wider integer dtype unpack alike
            np.testing.assert_array_equal(
                bq.unpack_nibbles(packed.astype(np.int64), n), idx)

    def test_layout(self):
        packed = bq.pack_nibbles(np.array([[1, 2, 3, 4]], dtype=np.uint8))
        # element 2k -> low nibble of byte k
        np.testing.assert_array_equal(packed, [[0x21, 0x43]])

    @pytest.mark.parametrize("dtype", [np.uint8, np.int8, np.int64, np.uint64])
    def test_every_integer_dtype_packs_alike(self, dtype):
        idx = np.arange(16).reshape(2, 8)
        packed = bq.pack_nibbles(idx.astype(dtype))
        np.testing.assert_array_equal(packed, bq.pack_nibbles(idx.astype(np.uint8)))
        np.testing.assert_array_equal(bq.unpack_nibbles(packed, 8), idx)

    @pytest.mark.parametrize("indices, message", [
        ([17, 3], "0 to 15"),            # packed as [1, 3]: 17's fifth bit spilled
        ([3, 16], "0 to 15"),
        ([-1, 3], "0 to 15"),
        (np.array([[0, 255]], np.uint8), "0 to 15"),
        ([1.7, 3], "integers"),         # truncated to [1, 3]
        ([1.0, 3.0], "integers"),
        ([True, False], "integers"),
        ([], "integers"),               # float64 when empty
        (5, "integers"),                # no rows
        (["5", "3"], "real numbers"),   # parsed as [5, 3]
        ([1j, 3], "real numbers"),
    ], ids=["17", "16", "negative", "uint8-255", "fraction", "whole-floats", "bool",
            "empty-list", "scalar", "strings", "complex"])
    def test_indices_that_are_not_nibbles(self, indices, message):
        with pytest.raises(DomainError, match=message):
            bq.pack_nibbles(indices)

    def test_empty_rows_of_integers(self):
        packed = bq.pack_nibbles(np.zeros((3, 0), dtype=np.uint8))
        assert packed.shape == (3, 0) and packed.dtype == np.uint8

    @pytest.mark.parametrize("packed, length, message", [
        ([1.7, 3.2], 4, "integers"),            # truncated to [1, 3]
        (["5", "3"], 4, "real numbers"),        # parsed as [5, 3]
        (np.array([300, -1]), 4, "0 to 255"),   # wrapped to [44, 255]
        ([True], 2, "integers"),
        ([[0x21]], -1, "length must be >= 0"),  # unpacked to nothing
        ([300], 2, "0 to 255"),                 # OverflowError
        ([0x21], 2.5, "length must be an integer"),  # TypeError
        (np.uint8(33), 2, "integers"),          # IndexError: no rows
    ], ids=["fraction", "strings", "wrapped", "bool", "negative-length", "300",
            "fractional-length", "scalar"])
    def test_bytes_that_cannot_be_unpacked(self, packed, length, message):
        with pytest.raises(DomainError, match=message):
            bq.unpack_nibbles(packed, length)


@contextlib.contextmanager
def traced_peak():
    """Trace Python and numpy allocations; the yielded list receives the
    peak traced bytes on exit."""
    peak = []
    tracemalloc.start()
    try:
        yield peak
    finally:
        peak.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()


def lying_fqz1(path, dims, block_size=64, axis=0):
    """An FQZ1 header declaring ``dims`` followed by no block data."""
    path.write_bytes(
        b"FQZ1" + struct.pack(f"<BB{len(dims)}I", 1, len(dims), *dims)
        + struct.pack("<IBB", block_size, axis, 16)
        + np.linspace(-1, 1, 16).astype("<f4").tobytes())
    return path


class TestTensorFiles:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(19)
        for shape in ((7,), (5, 9), (2, 3, 4)):
            w = rng.standard_normal(shape).astype(np.float32)
            path = tmp_path / "t.fqt"
            bq.tensor_write(w, path)
            back = bq.tensor_read(path)
            assert back.dtype == np.float32
            np.testing.assert_array_equal(back, w)
        # a strided float64 view is written row-major as float32
        w = rng.standard_normal((6, 10))[::2, ::-3].T
        bq.tensor_write(w, path)
        np.testing.assert_array_equal(bq.tensor_read(path), w.astype(np.float32))

    def test_writer_takes_pieces(self, tmp_path):
        w = np.arange(12, dtype=np.float64).reshape(3, 4)
        path = tmp_path / "t.fqt"
        with bq.tensor_writer(w.shape, path) as write:
            write(w[:1])
            write(w[1:].ravel())
        np.testing.assert_array_equal(bq.tensor_read(path), w)
        with pytest.raises(DomainError, match="wrote 3 elements of 4$"):
            with bq.tensor_writer((2, 2), path) as write:
                write(np.ones(3))
        # The short file never replaced the good one, nor was left beside it.
        np.testing.assert_array_equal(bq.tensor_read(path), w)
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("writer", ["tensor", "qtensor", "code"])
    def test_failed_write_keeps_the_target(self, tmp_path, writer):
        path = tmp_path / "out"
        path.write_bytes(b"good")
        w = np.ones((4, 4), dtype=np.float32)
        write = {"tensor": lambda: bq.tensor_write(w, path),
                 "qtensor": lambda: bq.qtensor_write(
                     bq.quantize(w, qc.nf4_code(), 4), path),
                 "code": lambda: qc.code_write(qc.nf4_code(), path)}[writer]
        with pytest.MonkeyPatch.context() as mp:
            def fail(*args):
                raise OSError(27, "File too large")

            mp.setattr(os, "replace", fail)
            with pytest.raises(OSError, match="File too large"):
                write()
        assert path.read_bytes() == b"good"
        assert list(tmp_path.iterdir()) == [path]
        write()
        assert path.read_bytes() != b"good"
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("mode", [0o600, 0o640], ids=["0600", "0640"])
    def test_rewrite_keeps_the_permissions(self, tmp_path, mode):
        path = tmp_path / "code.json"
        qc.code_write(qc.nf4_code(), path)
        path.chmod(mode)
        old_umask = os.umask(0o022)
        try:
            qc.code_write(qc.af4_code(64), path)
            new = tmp_path / "new.json"
            qc.code_write(qc.nf4_code(), new)
        finally:
            os.umask(old_umask)
        assert qc.code_read(path).kind == "af4"
        assert stat.S_IMODE(path.stat().st_mode) == mode
        assert stat.S_IMODE(new.stat().st_mode) == 0o644
        assert sorted(tmp_path.iterdir()) == [path, new]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_writes_into_a_pipe_in_place(self, tmp_path):
        w = np.arange(6, dtype=np.float32)
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()),
                                  daemon=True)
        reader.start()
        bq.tensor_write(w, fifo)
        reader.join(timeout=10)
        assert received[0] == b"FQT1" + struct.pack("<BBI", 0, 1, 6) + w.tobytes()
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert list(tmp_path.iterdir()) == [fifo]

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
    def test_writes_to_dev_stdout_on_a_pipe(self):
        src = os.path.dirname(os.path.dirname(bq.__file__))
        result = subprocess.run(
            [sys.executable, "-c", "import numpy as np, quantlab.blockquant as bq; "
             "bq.tensor_write(np.arange(6, dtype=np.float32), '/dev/stdout')"],
            capture_output=True, env=dict(os.environ, PYTHONPATH=src), timeout=60)
        assert result.returncode == 0, result.stderr
        assert result.stdout == (b"FQT1" + struct.pack("<BBI", 0, 1, 6)
                                 + np.arange(6, dtype=np.float32).tobytes())

    def test_symbolic_link_is_written_through(self, tmp_path):
        real = tmp_path / "real.fqt"
        real.write_bytes(b"old")
        link = tmp_path / "link.fqt"
        link.symlink_to(real)
        bq.tensor_write(np.ones(2), link)
        assert link.is_symlink()
        np.testing.assert_array_equal(bq.tensor_read(real), np.ones(2))

    def test_missing_directory_names_the_target(self, tmp_path):
        path = tmp_path / "missing" / "t.fqt"
        with pytest.raises(FileNotFoundError) as info:
            bq.tensor_write(np.ones(3), path)
        assert info.value.filename == str(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.fqt"
        path.write_bytes(b"NOPE" + bytes(16))
        with pytest.raises(FormatError, match=r": bad magic b'NOPE', expected b'FQT1'$"):
            bq.tensor_read(path)

    def test_truncation_reports_lengths(self, tmp_path):
        w = np.ones((4, 4), dtype=np.float32)
        path = tmp_path / "t.fqt"
        bq.tensor_write(w, path)
        data = path.read_bytes()
        path.write_bytes(data[:-7])
        with pytest.raises(FormatError, match="expected 64 bytes, got 57"):
            bq.tensor_read(path)

    @pytest.mark.parametrize("side", [1 << 14, 1 << 19])
    def test_lying_extents_fail_before_allocating(self, tmp_path, side):
        path = tmp_path / "lie.fqt"
        path.write_bytes(b"FQT1" + struct.pack("<BB2I", 0, 2, side, side)
                         + bytes(64))
        with pytest.raises(FormatError, match="truncated"):
            with traced_peak() as peak:
                bq.tensor_read(path)
        assert peak[0] < 1 << 20

    def test_trailing_bytes(self, tmp_path):
        w = np.ones(3, dtype=np.float32)
        path = tmp_path / "t.fqt"
        bq.tensor_write(w, path)
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(FormatError, match=r": trailing bytes at end of file$"):
            bq.tensor_read(path)

    def test_zero_dimensional_header(self, tmp_path):
        # tensor_write stores a 0-d tensor with shape (1,), never ndim 0
        path = tmp_path / "t.fqt"
        bq.tensor_write(np.float32(1.5), path)
        assert bq.tensor_read(path).shape == (1,)
        path.write_bytes(b"FQT1" + struct.pack("<BBf", 0, 0, 1.5))
        with pytest.raises(FormatError, match="no dimensions"):
            bq.tensor_read(path)

    def test_more_dimensions_than_numpy_allows(self, tmp_path):
        def unit_tensor(ndim):  # one element, ndim extents of 1
            path = tmp_path / f"{ndim}.fqt"
            path.write_bytes(b"FQT1" + struct.pack(f"<BB{ndim}I", 0, ndim, *[1] * ndim)
                             + bytes(4))
            return path

        assert bq.tensor_read(unit_tensor(64)).shape == (1,) * 64
        with pytest.raises(FormatError, match="65 dimensions"):
            bq.tensor_read(unit_tensor(65))


class TestQuantizedTensorFiles:
    @pytest.mark.parametrize(
        "shape,B,axis",
        [((128,), 64, 0), ((100,), 7, 0), ((5, 33), 8, 1), ((5, 33), 8, 0),
         ((3, 4, 5), 4, 1), ((17,), 32, 0)],
    )
    def test_roundtrip_bit_exact(self, tmp_path, codes, shape, B, axis):
        rng = np.random.default_rng(20)
        w = rng.standard_normal(shape).astype(np.float32)
        qt = bq.quantize(w, codes["af4"], B, axis=axis)
        path = tmp_path / "t.fqz"
        bq.qtensor_write(qt, path)
        back = bq.qtensor_read(path)
        assert back.dims == qt.dims
        assert back.block_axis == qt.block_axis
        assert back.block_size == qt.block_size
        np.testing.assert_array_equal(back.scales, qt.scales)
        np.testing.assert_array_equal(back.packed, qt.packed)
        # code values survive as float32
        np.testing.assert_allclose(
            back.code.values, qt.code.values, atol=1e-7
        )

    @pytest.mark.parametrize("dims, axis", [((7, 10), 1), ((10, 3), 0),
                                            ((2, 9, 3), 1), ((6,), 0)])
    def test_records_hold_scales_bit_for_bit(self, tmp_path, dims, axis):
        # B = 4 leaves a tail part of 2, 2, 1 and 2 elements; the records
        # are built one by one with struct (fqz1_records)
        B, f32 = 4, np.finfo(np.float32)
        rng = np.random.default_rng(22)
        grid, _ = bq._geometry(dims, axis, B)
        nb = math.prod(grid)
        scales = rng.random(nb).astype(np.float32)
        special = [0.0, f32.smallest_subnormal, f32.smallest_normal - f32.smallest_subnormal,
                   f32.smallest_normal, f32.max, 1.0]
        scales[:min(nb, 6)] = special[:nb]
        packed = rng.integers(0, 256, (nb, 2), dtype=np.uint8)
        tail = dims[axis] % B
        packed.reshape(grid + (2,))[:, -1, :, bq._width(tail):] = 0  # pad bytes
        body = fqz1_records(dims, axis, B, scales, packed)
        qt = bq.QuantizedTensor(dims, axis, B, qc.nf4_code(), body)
        path = tmp_path / "t.fqz"
        bq.qtensor_write(qt, path)

        assert path.read_bytes()[4 + 2 + 4 * len(dims) + 6 + 64:] == body.tobytes()
        back = bq.qtensor_read(path)
        for got in (qt, back):
            np.testing.assert_array_equal(got.scales.view(np.uint32),
                                          scales.view(np.uint32))
            np.testing.assert_array_equal(got.packed, packed)

    @pytest.mark.parametrize("chunk", [bq._CHUNK, 7])
    def test_readers_ignore_nonzero_pad_nibbles(self, tmp_path, codes, chunk):
        # Blocks of 5 along an axis of 13: two full blocks and a tail of 3,
        # so every record ends in a pad nibble; here each is 0xF.
        w = np.random.default_rng(14).standard_normal((4, 13, 3)).astype(np.float32)
        qt = bq.quantize(w, codes["af4"], 5, axis=1)
        padded = bq.QuantizedTensor(qt.dims, 1, 5, qt.code, qt.records.copy())
        for *_, pk in bq._parts(padded):
            pk[..., -1] |= 0xF0
        assert np.count_nonzero(padded.records != qt.records) == qt.num_blocks
        bq.qtensor_write(padded, tmp_path / "pad.fqz")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bq, "_CHUNK", chunk)
            back = bq.qtensor_read(tmp_path / "pad.fqz")
            np.testing.assert_array_equal(back.records, padded.records)
            np.testing.assert_array_equal(bq.usage_histogram(back),
                                          bq.usage_histogram(qt))
            np.testing.assert_array_equal(bq.dequantize(back), bq.dequantize(qt))

    def test_byte_identical_rewrite(self, tmp_path, codes):
        rng = np.random.default_rng(21)
        w = rng.standard_normal((9, 31)).astype(np.float32)
        qt = bq.quantize(w, codes["nf4"], 6, axis=1)
        p1, p2 = tmp_path / "a.fqz", tmp_path / "b.fqz"
        bq.qtensor_write(qt, p1)
        bq.qtensor_write(bq.qtensor_read(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.fqz"
        path.write_bytes(b"QZF1" + bytes(32))
        with pytest.raises(FormatError, match=r": bad magic b'QZF1', expected b'FQZ1'$"):
            bq.qtensor_read(path)

    def test_bad_version(self, tmp_path, codes):
        w = np.ones(8, dtype=np.float32)
        qt = bq.quantize(w, codes["nf4"], 8, axis=0)
        path = tmp_path / "t.fqz"
        bq.qtensor_write(qt, path)
        data = bytearray(path.read_bytes())
        data[4] = 9
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match=r": unsupported FQZ1 version 9$"):
            bq.qtensor_read(path)

    def test_truncated_blocks(self, tmp_path, codes):
        w = np.ones(64, dtype=np.float32)
        qt = bq.quantize(w, codes["nf4"], 64, axis=0)
        path = tmp_path / "t.fqz"
        bq.qtensor_write(qt, path)
        path.write_bytes(path.read_bytes()[:-3])
        # one record: 4 scale bytes and 32 packed bytes
        with pytest.raises(FormatError,
                           match=r": truncated blocks: expected 36 bytes, got 33$"):
            bq.qtensor_read(path)

    def test_lying_extents_fail_before_allocating(self, tmp_path):
        path = lying_fqz1(tmp_path / "lie.fqz", (1 << 31, 1 << 31))
        with pytest.raises(FormatError, match="truncated"):
            with traced_peak() as peak:
                bq.qtensor_read(path)
        assert peak[0] < 1 << 20

    def test_more_dimensions_than_numpy_allows(self, tmp_path):
        path = lying_fqz1(tmp_path / "t.fqz", (1,) * 65)
        with pytest.raises(FormatError, match="65 dimensions"):
            bq.qtensor_read(path)

    def test_block_longer_than_axis_allocates_by_axis(self, tmp_path, codes):
        w = np.random.default_rng(24).standard_normal((1000, 1)).astype(np.float32)
        path = tmp_path / "t.fqz"
        with traced_peak() as peak:
            qt = bq.quantize(w, codes["nf4"], 1 << 31, axis=1)
            bq.qtensor_write(qt, path)
            back = bq.qtensor_read(path)
        assert peak[0] < 1 << 20
        assert qt.packed.shape == back.packed.shape == (1000, 1)
        np.testing.assert_array_equal(back.scales, qt.scales)
        np.testing.assert_array_equal(back.packed, qt.packed)
        np.testing.assert_array_equal(bq.dequantize(back), bq.dequantize(qt))

    def test_header_overflow_raises_format_error(self, tmp_path, codes):
        path = tmp_path / "t.fqz"
        qt = bq.quantize(np.ones((3, 2), dtype=np.float32), codes["nf4"],
                         1 << 32, axis=1)
        with pytest.raises(FormatError, match="block size 4294967296"):
            bq.qtensor_write(qt, path)
        # a zero-stride array stands in for the records of 2^32 blocks of 2
        nb = 1 << 32
        big = bq.QuantizedTensor((2, nb), 0, 2, codes["nf4"],
                                 np.broadcast_to(np.uint8(0), (5 * nb,)))
        with pytest.raises(FormatError, match="extent 4294967296"):
            with traced_peak() as peak:
                bq.qtensor_write(big, path)
        assert peak[0] < 1 << 20
        assert not path.exists()

    def test_codes_colliding_in_float32_are_not_written(self, tmp_path):
        values = np.linspace(-1, 1, 16)
        values[3] = np.nextafter(values[4], -2.0)  # distinct only in float64
        qt = bq.quantize(np.ones(8, np.float32), qc.Code16(values), 8)
        path = tmp_path / "t.fqz"
        with pytest.raises(FormatError, match="collide after float32 rounding"):
            bq.qtensor_write(qt, path)
        assert not path.exists()

    @pytest.mark.parametrize("block_size, axis, message", [
        (0, 0, "invalid block size 0"), (2, 2, "block axis 2 out of range")])
    def test_bad_block_header_is_format_error(self, tmp_path, block_size, axis,
                                              message):
        path = lying_fqz1(tmp_path / "t.fqz", (2, 3), block_size, axis)
        with pytest.raises(FormatError, match=f": {message}$"):
            bq.qtensor_read(path)

    def test_non_ascending_code_rejected(self, tmp_path, codes):
        w = np.ones(8, dtype=np.float32)
        qt = bq.quantize(w, codes["nf4"], 8, axis=0)
        path = tmp_path / "t.fqz"
        bq.qtensor_write(qt, path)
        data = bytearray(path.read_bytes())
        # code values start after 4 magic + 2 header + 4 extent + 6 block hdr
        offset = 4 + 2 + 4 + 6
        data[offset:offset + 4], data[offset + 4:offset + 8] = (
            data[offset + 4:offset + 8], data[offset:offset + 4])
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match=r": code values must be strictly "
                           r"increasing; value 1 >= value 2$"):
            bq.qtensor_read(path)

    # (byte offset from the end of the 16 code values, little-endian float32
    # bits); 0x7FA00000 is a signalling NaN, whose cast to float64 warns.
    @pytest.mark.parametrize("where, bits", [
        (-4, 0x7FC00000), (-4, 0x7FA00000), (-4, 0x7F800000), (-4, 0x3FC00000),
        (-64, 0xBFC00000), (0, 0x7FA00000), (0, 0x7F800000), (0, 0xBF800000),
    ], ids=["code-nan", "code-snan", "code-inf", "code-1.5", "code-minus-1.5",
            "scale-snan", "scale-inf", "scale-negative"])
    def test_bad_code_values_and_scales_are_format_errors(self, tmp_path, codes,
                                                          where, bits):
        qt = bq.quantize(np.ones(8, dtype=np.float32), codes["nf4"], 8, axis=0)
        path = tmp_path / "t.fqz"
        bq.qtensor_write(qt, path)
        data = bytearray(path.read_bytes())
        # code values end after 4 magic + 2 header + 4 extent + 6 block
        # header + 64 code bytes; the first block's scale follows
        offset = 4 + 2 + 4 + 6 + 64 + where
        data[offset:offset + 4] = struct.pack("<I", bits)
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError):
            bq.qtensor_read(path)


# The header shared by FQT1 and FQZ1, per format: magic, tag byte, the name
# of the tag byte in messages, and a writer of a valid (2, 3) file.
HEADER_FORMATS = {
    "fqt1": (b"FQT1", 0, "dtype tag", bq.tensor_read,
             lambda path: bq.tensor_write(np.ones((2, 3), np.float32), path)),
    "fqz1": (b"FQZ1", 1, "FQZ1 version", bq.qtensor_read,
             lambda path: bq.qtensor_write(bq.quantize(
                 np.ones((2, 3), np.float32), qc.nf4_code(), 2, axis=1), path)),
}

FQZ1_TAIL = (struct.pack("<IBB", 2, 0, 16)
             + np.linspace(-1, 1, 16).astype("<f4").tobytes())


class TestHeaderRules:
    """Each header rule holds for both formats, with one message after the
    path; only the expected magic and the tag byte's name differ."""

    # (ndim and extents after the tag byte, what follows them, message); a
    # valid FQZ1 block header and code follow the extents unless they are
    # cut short
    @pytest.mark.parametrize("after_tag, tail, message", [
        (struct.pack("<B", 0), FQZ1_TAIL, "tensor with no dimensions"),
        (struct.pack("<B65I", 65, *[1] * 65), FQZ1_TAIL,
         "65 dimensions, more than 64"),
        (struct.pack("<B2I", 2, 2, 0), FQZ1_TAIL, "zero extent in (2, 0)"),
        (struct.pack("<BI", 2, 2), b"", "truncated extents: expected 8 bytes, got 4"),
    ], ids=["ndim-0", "ndim-65", "zero-extent", "truncated-extents"])
    @pytest.mark.parametrize("fmt", sorted(HEADER_FORMATS))
    def test_bad_header(self, tmp_path, fmt, after_tag, tail, message):
        magic, tag, _, read, _ = HEADER_FORMATS[fmt]
        path = tmp_path / "t.bin"
        path.write_bytes(magic + bytes([tag]) + after_tag + tail)
        with pytest.raises(FormatError) as exc:
            read(path)
        assert str(exc.value) == f"{path}: {message}"

    @pytest.mark.parametrize("fmt", sorted(HEADER_FORMATS))
    def test_bad_magic_and_tag(self, tmp_path, fmt):
        magic, tag, what, read, write = HEADER_FORMATS[fmt]
        path = tmp_path / "t.bin"
        write(path)
        data = path.read_bytes()
        assert data[:5] == magic + bytes([tag])
        path.write_bytes(b"NOPE" + data[4:])
        with pytest.raises(FormatError) as exc:
            read(path)
        assert str(exc.value) == f"{path}: bad magic b'NOPE', expected {magic!r}"
        path.write_bytes(magic + bytes([tag + 1]) + data[5:])
        with pytest.raises(FormatError) as exc:
            read(path)
        assert str(exc.value) == f"{path}: unsupported {what} {tag + 1}"

    @pytest.mark.parametrize("fmt", sorted(HEADER_FORMATS))
    def test_trailing_byte(self, tmp_path, fmt):
        read, write = HEADER_FORMATS[fmt][3:]
        path = tmp_path / "t.bin"
        write(path)
        read(path)
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(FormatError) as exc:
            read(path)
        assert str(exc.value) == f"{path}: trailing bytes at end of file"

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    @pytest.mark.parametrize("extra", [0, 1, -1], ids=["exact", "long", "short"])
    @pytest.mark.parametrize("fmt", sorted(HEADER_FORMATS))
    def test_pipe_payload_and_trailing_byte(self, tmp_path, fmt, extra):
        # A pipe has no length to check up front: the reader takes the exact
        # payload in pieces (FQT1: more than one), then must still see the
        # one byte after it.  A short or long body fails with the text a
        # regular file of the same bytes gives.
        read = HEADER_FORMATS[fmt][3]
        w = np.random.default_rng(2).standard_normal((700, 500)).astype(np.float32)
        source = tmp_path / "source.bin"
        if fmt == "fqt1":
            bq.tensor_write(w, source)
        else:
            bq.qtensor_write(bq.quantize(w, qc.nf4_code(), 64), source)
        data = source.read_bytes()
        data = data[:len(data) + extra] if extra < 0 else data + bytes(extra)
        regular = tmp_path / "regular.bin"
        regular.write_bytes(data)
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(data,), daemon=True)
        writer.start()
        try:
            if extra:
                with pytest.raises(FormatError) as exc:
                    read(fifo)
                with pytest.raises(FormatError) as from_file:
                    read(regular)
                assert str(exc.value) == str(from_file.value).replace(
                    str(regular), str(fifo))
                if extra > 0:
                    assert str(exc.value) == f"{fifo}: trailing bytes at end of file"
                else:
                    what = "payload" if fmt == "fqt1" else "blocks"
                    assert str(exc.value).startswith(f"{fifo}: truncated {what}: ")
            elif fmt == "fqt1":
                np.testing.assert_array_equal(read(fifo), w)
            else:
                back, ref = read(fifo), bq.qtensor_read(source)
                np.testing.assert_array_equal(back.packed, ref.packed)
                np.testing.assert_array_equal(back.scales, ref.scales)
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()

    @pytest.mark.parametrize("fmt", sorted(HEADER_FORMATS))
    def test_extent_overflow_on_write_creates_no_file(self, tmp_path, fmt):
        nb = 1 << 32
        # zero-stride arrays stand in for 2^32 elements (FQZ1: the records
        # of 2^32 blocks of 2)
        if fmt == "fqt1":
            obj, write = np.broadcast_to(np.float32(1), (2, nb)), bq.tensor_write
        else:
            obj = bq.QuantizedTensor((2, nb), 0, 2, qc.nf4_code(),
                                     np.broadcast_to(np.uint8(0), (5 * nb,)))
            write = bq.qtensor_write
        path = tmp_path / "t.bin"
        with pytest.raises(FormatError) as exc:
            with traced_peak() as peak:
                write(obj, path)
        assert str(exc.value) == "extent 4294967296 overflows the 32-bit header"
        assert peak[0] < 1 << 20
        assert not path.exists()

    @pytest.mark.parametrize("dims", [(0,), (3, 0), (2, 0, 5), (-1, 3), (2.5,)])
    def test_zero_extent_on_write_creates_no_file(self, tmp_path, dims):
        # the reader rejects a zero extent, so the writer must not make one;
        # a negative or fractional extent, which no numpy shape has, must
        # not reach struct.pack
        path = tmp_path / "t.fqt"
        if 0 in dims:
            message = f"zero extent in {dims}"
            with pytest.raises(FormatError, match=re.escape(message)):
                bq.tensor_write(np.zeros(dims, np.float32), path)
        else:
            message = f"extent in {dims} must be"
        with pytest.raises(FormatError, match=re.escape(message)):
            with bq.tensor_writer(dims, path):
                pass
        assert not path.exists()

    @pytest.mark.parametrize("ndim", [65, 256])
    def test_too_many_dimensions_on_write_creates_no_file(self, tmp_path, ndim):
        # numpy arrays stop at 64 dimensions, so only a hand-built
        # QuantizedTensor can declare more; its reader would reject the file
        qt = bq.QuantizedTensor((1,) * ndim, 0, 2, qc.nf4_code(), np.zeros(5, np.uint8))
        path = tmp_path / "t.fqz"
        with pytest.raises(FormatError) as exc:
            bq.qtensor_write(qt, path)
        assert str(exc.value) == f"{ndim} dimensions, not 1 to 64"
        assert not path.exists()


def test_unordered_code_fails_by_code16s_rule(tmp_path, capsys):
    """Both code readers leave the order rule to Code16, and the CLI reports
    its FormatError as exit 2 with one error line."""
    from quantlab.cli import main

    values = np.linspace(-1, 1, 16)
    values[[4, 5]] = values[[5, 4]]
    with pytest.raises(DomainError) as rule:
        qc.Code16(values)
    assert "strictly increasing" in str(rule.value)

    code_path = tmp_path / "c.json"
    code_path.write_text(
        '{"format": "code16/v1", "kind": "custom", "block_size": null, '
        f'"values": {values.tolist()}, "params": {{}}}}')
    qt_path = tmp_path / "t.fqz"
    qt = bq.quantize(np.ones(8, np.float32), qc.Code16(np.linspace(-1, 1, 16)), 8)
    bq.qtensor_write(qt, qt_path)
    data = bytearray(qt_path.read_bytes())
    # code values start after 4 magic + 2 header + 4 extent + 6 block header
    data[16:80] = values.astype("<f4").tobytes()
    qt_path.write_bytes(bytes(data))
    tensor_path = tmp_path / "t.fqt"
    bq.tensor_write(np.ones(8, np.float32), tensor_path)

    for read, path in [(qc.code_read, code_path), (bq.qtensor_read, qt_path)]:
        with pytest.raises(FormatError) as exc:
            read(path)
        assert str(exc.value) == f"{path}: {rule.value}"
    for argv, path in [
            (["quantize", tensor_path, tmp_path / "o.fqz", "--code", code_path],
             code_path),
            (["dequantize", qt_path, tmp_path / "o.fqt"], qt_path)]:
        assert main([str(a) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {path}: {rule.value}\n"
