"""Tests for blockwise quantization, packing, and the binary file formats."""

import contextlib
import struct
import tracemalloc

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
        for name, code in threshold_codes.items():
            for x in [halves] + ints:
                got = bq.nearest_index(x, code.values)
                np.testing.assert_array_equal(
                    got, bq._nearest_index_reference(x, code.values), err_msg=name)
                np.testing.assert_array_equal(
                    got, bq.nearest_index(x.astype(np.float64), code.values))

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
        assert bq.usage_histogram(qt).total == w.size

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
                ref = bq.QuantizedTensor(w.shape, axis, B, code, scales,
                                         bq.pack_nibbles(idx)[:, :width])
                np.testing.assert_array_equal(qt.scales, ref.scales)
                np.testing.assert_array_equal(qt.packed, ref.packed)

                deq = bq.dequantize(qt)
                assert deq.dtype == np.float32 and deq.flags.c_contiguous
                np.testing.assert_array_equal(
                    deq, unblock(table[idx] * scales[:, None], w.shape, axis, B))
                effective = unblock(idx, w.shape, axis, B).ravel()
                assert bq.usage_histogram(qt).counts == tuple(
                    np.bincount(effective, minlength=16))

                bq.qtensor_write(qt, tmp_path / "a.fqz")
                bq.qtensor_write(ref, tmp_path / "b.fqz")
                assert ((tmp_path / "a.fqz").read_bytes()
                        == (tmp_path / "b.fqz").read_bytes())
                back = bq.qtensor_read(tmp_path / "a.fqz")
                np.testing.assert_array_equal(back.scales, ref.scales)
                np.testing.assert_array_equal(back.packed, ref.packed)

    def test_axis_handling(self, codes):
        rng = np.random.default_rng(13)
        w = rng.standard_normal((6, 8, 10)).astype(np.float32)
        for axis in (0, 1, 2, -1):
            qt = bq.quantize(w, codes["nf4"], 4, axis=axis)
            assert bq.dequantize(qt).shape == w.shape
        with pytest.raises(DomainError):
            bq.quantize(w, codes["nf4"], 4, axis=3)

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
        hist = bq.usage_histogram(qt)
        assert hist.total == 256
        assert hist.counts[int(np.argmin(np.abs(code.values)))] == 256

    def test_nf4_usage_spread(self, codes):
        rng = np.random.default_rng(16)
        w = rng.standard_normal(1 << 22).astype(np.float32)
        qt = bq.quantize(w, codes["nf4"], 64, axis=0)
        props = bq.usage_histogram(qt).proportions
        assert props.min() < 0.03
        assert props.max() > 0.08

    def test_partial_blocks_not_counted_as_padding(self, codes):
        w = np.ones(65, dtype=np.float32)
        qt = bq.quantize(w, codes["nf4"], 64, axis=0)
        hist = bq.usage_histogram(qt)
        assert hist.total == 65
        assert hist.counts[15] == 65

    def test_invariants(self):
        with pytest.raises(DomainError):
            bq.UsageHistogram(tuple(range(16)), total=3)
        with pytest.raises(DomainError):
            bq.UsageHistogram((1,) * 15, total=15)


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


class TestPacking:
    def test_roundtrip_even_and_odd(self):
        rng = np.random.default_rng(18)
        for n in (2, 7, 16, 33):
            idx = rng.integers(0, 16, size=(5, n)).astype(np.uint8)
            packed = bq.pack_nibbles(idx)
            assert packed.shape == (5, (n + 1) // 2)
            np.testing.assert_array_equal(bq.unpack_nibbles(packed, n), idx)

    def test_layout(self):
        packed = bq.pack_nibbles(np.array([[1, 2, 3, 4]], dtype=np.uint8))
        # element 2k -> low nibble of byte k
        np.testing.assert_array_equal(packed, [[0x21, 0x43]])


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

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.fqt"
        path.write_bytes(b"NOPE" + bytes(16))
        with pytest.raises(FormatError, match="magic"):
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
        with pytest.raises(FormatError, match="trailing"):
            bq.tensor_read(path)

    def test_zero_dimensional_header(self, tmp_path):
        # tensor_write stores a 0-d tensor with shape (1,), never ndim 0
        path = tmp_path / "t.fqt"
        bq.tensor_write(np.float32(1.5), path)
        assert bq.tensor_read(path).shape == (1,)
        path.write_bytes(b"FQT1" + struct.pack("<BBf", 0, 0, 1.5))
        with pytest.raises(FormatError, match="no dimensions"):
            bq.tensor_read(path)


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
        with pytest.raises(FormatError, match="magic"):
            bq.qtensor_read(path)

    def test_bad_version(self, tmp_path, codes):
        w = np.ones(8, dtype=np.float32)
        qt = bq.quantize(w, codes["nf4"], 8, axis=0)
        path = tmp_path / "t.fqz"
        bq.qtensor_write(qt, path)
        data = bytearray(path.read_bytes())
        data[4] = 9
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="version"):
            bq.qtensor_read(path)

    def test_truncated_blocks(self, tmp_path, codes):
        w = np.ones(64, dtype=np.float32)
        qt = bq.quantize(w, codes["nf4"], 64, axis=0)
        path = tmp_path / "t.fqz"
        bq.qtensor_write(qt, path)
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(FormatError, match="truncated"):
            bq.qtensor_read(path)

    def test_lying_extents_fail_before_allocating(self, tmp_path):
        path = lying_fqz1(tmp_path / "lie.fqz", (1 << 31, 1 << 31))
        with pytest.raises(FormatError, match="truncated"):
            with traced_peak() as peak:
                bq.qtensor_read(path)
        assert peak[0] < 1 << 20

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
        # zero-stride arrays stand in for the 2^32 blocks
        nb = 1 << 32
        big = bq.QuantizedTensor((2, nb), 0, 2, codes["nf4"],
                                 np.broadcast_to(np.float32(1), (nb,)),
                                 np.broadcast_to(np.uint8(0), (nb, 1)))
        with pytest.raises(FormatError, match="extent 4294967296"):
            with traced_peak() as peak:
                bq.qtensor_write(big, path)
        assert peak[0] < 1 << 20
        assert not path.exists()

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
        with pytest.raises(FormatError, match="ascending"):
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
