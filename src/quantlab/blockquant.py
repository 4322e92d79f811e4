"""Blockwise absmax quantization of tensors against a 16-value code.

A tensor is cut into blocks of ``block_size`` consecutive elements along one
axis (the final block may be short).  Each block stores one float32 scale --
its largest absolute value -- and one 4-bit code index per element, packed
two per byte.  Dequantization is ``code.values[index] * scale``.

Blocks are ordered row-major over the tensor's dimensions with the block
axis replaced by the block number, and that order is what the FQZ1 file
format serializes.  All operations are deterministic: ties in the
nearest-value search go to the lower index, all-zero blocks store a scale
of zero, and pad nibbles are zero.

The nearest-value search compares each element with 15 decision
thresholds, one set per code and search dtype (float32 for float32 input,
float64 otherwise).  The thresholds are derived from, and give the same
indices as, the double-precision tie rule of ``_nearest_index_reference``.
Short final blocks are searched at their effective length; only their
packed row is padded.
"""

from __future__ import annotations

import functools
import math
import os
import stat
import struct
from dataclasses import dataclass

import numpy as np

from .codebook import KIND_CUSTOM, Code16
from .errors import DataError, DomainError, FormatError

FQT1_MAGIC = b"FQT1"
FQZ1_MAGIC = b"FQZ1"
_FQT1_DTYPE_F32 = 0


@dataclass(frozen=True)
class UsageHistogram:
    """Counts of code-index occurrences."""

    counts: tuple
    total: int

    def __post_init__(self):
        counts = tuple(int(c) for c in self.counts)
        if len(counts) != 16 or any(c < 0 for c in counts):
            raise DomainError("usage histogram needs 16 nonnegative counts")
        if sum(counts) != self.total:
            raise DomainError(
                f"histogram counts sum to {sum(counts)}, expected total {self.total}"
            )
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "total", int(self.total))

    @property
    def proportions(self):
        if self.total == 0:
            return np.zeros(16)
        return np.array(self.counts, dtype=float) / self.total


@dataclass(frozen=True, eq=False)
class QuantizedTensor:
    """Blockwise-quantized tensor: scales plus packed 4-bit indices.

    ``scales`` holds one float32 absmax per block, in row-major block order.
    ``packed`` is a (num_blocks, ceil(block_size/2)) uint8 array; the final
    (possibly short) block of each run is padded with zero nibbles up to the
    fixed row width, but only its effective bytes are serialized.
    """

    dims: tuple
    block_axis: int
    block_size: int
    code: Code16
    scales: np.ndarray
    packed: np.ndarray

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if not dims or any(d <= 0 for d in dims):
            raise DomainError(f"invalid dims {self.dims}")
        if not 0 <= self.block_axis < len(dims):
            raise DomainError(f"block_axis {self.block_axis} out of range for {dims}")
        if self.block_size < 1:
            raise DomainError("block_size must be >= 1")
        object.__setattr__(self, "dims", dims)
        nb = _num_blocks(dims, self.block_axis, self.block_size)
        if self.scales.shape != (nb,):
            raise DomainError(f"expected {nb} scales, got {self.scales.shape}")
        row = (self.block_size + 1) // 2
        if self.packed.shape != (nb, row):
            raise DomainError(
                f"expected packed shape {(nb, row)}, got {self.packed.shape}"
            )

    @property
    def num_blocks(self):
        return self.scales.shape[0]

    def block_extent_shape(self):
        """dims with the block axis replaced by the number of blocks."""
        shape = list(self.dims)
        shape[self.block_axis] = -(-shape[self.block_axis] // self.block_size)
        return tuple(shape)


def _num_blocks(dims, axis, block_size):
    per_axis = -(-dims[axis] // block_size)
    other = 1
    for i, d in enumerate(dims):
        if i != axis:
            other *= d
    return other * per_axis


def _blocks_view(values, axis, block_size):
    """Rearrange a tensor into (num_blocks, block_size) rows in block order.

    Short final blocks are padded with zeros, which cannot raise a block's
    absmax.  Returns the row matrix and the effective length of the final
    block along the axis.  ``quantize`` does not pad; the tests use this
    padded layout as its reference.
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


def _unblock(rows, dims, axis, block_size):
    """Inverse of _blocks_view: rows in block order back to tensor shape."""
    dims = tuple(dims)
    nb_axis = -(-dims[axis] // block_size)
    bshape = list(dims)
    bshape[axis] = nb_axis
    ordered = rows.reshape(tuple(bshape) + (block_size,))
    split = np.moveaxis(ordered, axis, -2)
    moved = split.reshape(split.shape[:-2] + (nb_axis * block_size,))
    moved = moved[..., : dims[axis]]
    return np.moveaxis(moved, -1, axis)


def _tail_block_mask(dims, axis, block_size):
    """Boolean mask over block order marking short final blocks, if any."""
    bshape = list(dims)
    nb_axis = -(-dims[axis] // block_size)
    bshape[axis] = nb_axis
    nb = int(np.prod(bshape))
    if dims[axis] % block_size == 0:
        return np.zeros(nb, dtype=bool), block_size
    k = np.unravel_index(np.arange(nb), bshape)[axis]
    tail = dims[axis] - (nb_axis - 1) * block_size
    return k == nb_axis - 1, tail


def _nearest_index_reference(normalized, code_values):
    """The nearest-value rule itself, evaluated in double precision.

    ``nearest_index`` derives its thresholds from this rule and must return
    the same indices; the tests compare the two.
    """
    x = np.asarray(normalized, dtype=np.float64)
    q = np.asarray(code_values, dtype=np.float64)
    pos = np.searchsorted(q, x).clip(1, len(q) - 1)
    left = q[pos - 1]
    right = q[pos]
    # strict inequality: equidistant elements keep the lower index
    use_right = (x - left) > (right - x)
    return (pos - 1 + use_right).astype(np.uint8)


_UINT_OF = {np.dtype(np.float32): np.uint32, np.dtype(np.float64): np.uint64}


def _to_ordered(x):
    """Float bit patterns as unsigned keys that sort like the floats."""
    u = x.view(_UINT_OF[x.dtype])
    sign = u.dtype.type(1) << (8 * u.itemsize - 1)
    return np.where(u & sign, ~u, u | sign)


def _from_ordered(keys, dtype):
    """Inverse of _to_ordered."""
    sign = keys.dtype.type(1) << (8 * keys.itemsize - 1)
    return np.where(keys & sign, keys ^ sign, ~keys).view(dtype)


@functools.lru_cache(maxsize=64)
def _thresholds(code_bytes, dtype):
    """Decision thresholds of the reference rule for inputs of ``dtype``.

    The rule is monotone in x, so for k = 1..len(q)-1 the inputs it maps to
    k or above are exactly those >= some value t_k of ``dtype``.  Each t_k
    is found by bisection over the ordered bit patterns between -inf (index
    0) and +inf (the last index), with the rule as the oracle.
    """
    q = np.frombuffer(code_bytes, dtype=np.float64)
    ks = np.arange(1, q.size)
    inf = np.full(ks.size, np.inf, dtype=dtype)
    lo, hi = _to_ordered(-inf), _to_ordered(inf)
    one, two = lo.dtype.type(1), lo.dtype.type(2)
    while np.any(hi - lo > one):
        mid = lo + (hi - lo) // two
        reached = _nearest_index_reference(_from_ordered(mid, dtype), q) >= ks
        hi = np.where(reached, mid, hi)
        lo = np.where(reached, lo, mid)
    t = _from_ordered(hi, dtype)
    t.setflags(write=False)
    return t


# Elements per pass of the threshold loop: the chunk, its hit mask and its
# output stay in cache across the 15 comparisons.
_INDEX_CHUNK = 1 << 15


def nearest_index(normalized, code_values):
    """Nearest code index for each element, ties toward the lower index.

    The index is the number of decision thresholds the element reaches.
    The thresholds are exact for the search dtype -- float32 for float32
    input, float64 for any other input (which is converted first) -- so the
    result equals the double-precision rule of ``_nearest_index_reference``
    for every finite or infinite input.  NaN maps to index 0.
    """
    x = np.asarray(normalized)
    dtype = np.dtype(np.float32 if x.dtype == np.float32 else np.float64)
    q = np.ascontiguousarray(code_values, dtype=np.float64)
    t = _thresholds(q.tobytes(), dtype)
    x = x.astype(dtype, copy=False)
    out = np.empty(x.shape, dtype=np.uint8)
    flat, dest = x.reshape(-1), out.reshape(-1)
    hit = np.empty(min(_INDEX_CHUNK, flat.size), dtype=bool)
    for start in range(0, flat.size, _INDEX_CHUNK):
        xs = flat[start:start + _INDEX_CHUNK]
        d = dest[start:start + _INDEX_CHUNK]
        h = hit[:xs.size]
        np.greater_equal(xs, t[0], out=d)
        for tk in t[1:]:
            np.greater_equal(xs, tk, out=h)
            np.add(d, h.view(np.uint8), out=d)
    return out


def pack_nibbles(indices):
    """Pack rows of 4-bit values: element 2k -> low nibble of byte k."""
    idx = np.asarray(indices, dtype=np.uint8)
    if idx.shape[-1] % 2:
        pad = [(0, 0)] * (idx.ndim - 1) + [(0, 1)]
        idx = np.pad(idx, pad)
    low = idx[..., 0::2]
    high = idx[..., 1::2]
    return (low | (high << 4)).astype(np.uint8)


def unpack_nibbles(packed, length):
    """Inverse of pack_nibbles, trimming to the requested element count."""
    b = np.asarray(packed, dtype=np.uint8)
    out = np.empty(b.shape[:-1] + (b.shape[-1] * 2,), dtype=np.uint8)
    out[..., 0::2] = b & 0x0F
    out[..., 1::2] = b >> 4
    return out[..., :length]


def quantize(values, code, block_size, axis=0):
    """Quantize a tensor blockwise against a code.

    Each block of ``block_size`` consecutive elements along ``axis`` is
    scaled by its absmax and every element mapped to the nearest code value.
    All-zero blocks store scale 0 and the index of the code value nearest 0.
    Raises DataError for non-finite input and for a block whose absmax
    overflows the float32 scale.
    """
    arr = np.asarray(values)
    if not np.issubdtype(arr.dtype, np.floating):
        arr = arr.astype(np.float32)
    if arr.ndim == 0:
        raise DomainError("cannot quantize a scalar")
    if 0 in arr.shape:
        raise DomainError(f"cannot quantize an empty tensor of shape {arr.shape}")
    if not -arr.ndim <= axis < arr.ndim:
        raise DomainError(f"axis {axis} out of range for {arr.shape}")
    axis = axis % arr.ndim
    if block_size < 1:
        raise DomainError("block_size must be >= 1")

    # View the tensor as (before, axis, after); blocks run along the middle
    # and (before, block number, after) is row-major block order.
    length = arr.shape[axis]
    shape3 = (math.prod(arr.shape[:axis]), length, math.prod(arr.shape[axis + 1:]))
    arr3 = arr.reshape(shape3)
    nfull, tail = divmod(length, block_size)
    parts = []  # (before, blocks, block length, after) views, no padding
    if nfull:
        full = arr3[:, :nfull * block_size]
        parts.append(full.reshape(shape3[0], nfull, block_size, shape3[2]))
    if tail:
        parts.append(arr3[:, nfull * block_size:, None].swapaxes(1, 2))

    absmax = [np.abs(p).max(axis=2) for p in parts]
    # NaN and inf propagate into their block's absmax.
    if not all(np.isfinite(m).all() for m in absmax):
        finite = np.isfinite(arr)
        pos = np.unravel_index(int(np.argmax(~finite)), arr.shape)
        raise DataError(
            f"non-finite input value at position {tuple(int(i) for i in pos)}"
        )
    with np.errstate(over="ignore"):
        scales = np.concatenate([m.astype(np.float32) for m in absmax], axis=1)
    overflow = np.isinf(scales).ravel()
    if overflow.any():
        raise DataError(f"block {int(np.argmax(overflow))}: absmax exceeds "
                        "the float32 range of the stored scale")

    width = (block_size + 1) // 2
    packed = np.zeros(scales.shape + (width,), dtype=np.uint8)
    first = 0
    for p in parts:
        n = p.shape[1]
        s = scales[:, first:first + n]
        # Divide in the tensor's working precision by the stored (float32)
        # scale so dequantization sees the same quantity.
        safe = np.where(s > 0, s, np.float32(1.0)).astype(p.dtype)
        idx = nearest_index(p / safe[:, :, None, :], code.values)
        row = pack_nibbles(np.moveaxis(idx, 2, -1))
        packed[:, first:first + n, :, :row.shape[-1]] = row
        first += n
    return QuantizedTensor(
        dims=arr.shape,
        block_axis=axis,
        block_size=int(block_size),
        code=code,
        scales=scales.reshape(-1),
        packed=packed.reshape(-1, width),
    )


def _indices_rows(qt):
    idx = unpack_nibbles(qt.packed, qt.block_size)
    if np.any(idx >= 16):
        raise FormatError("corrupt storage: index >= 16")
    return idx


def dequantize(qt):
    """Reconstruct a float32 tensor: code value times block scale."""
    idx = _indices_rows(qt)
    # Rounding each code value to float32 before the gather gives the same
    # elements as gathering in float64 and rounding after.
    values = qt.code.values.astype(np.float32)[idx]
    values *= qt.scales[:, None]
    return _unblock(values, qt.dims, qt.block_axis, qt.block_size)


def usage_histogram(qt):
    """Tally how often each code index occurs (pad nibbles excluded)."""
    idx = _indices_rows(qt)
    tail_mask, tail_len = _tail_block_mask(qt.dims, qt.block_axis, qt.block_size)
    if tail_mask.any():
        full = np.bincount(idx[~tail_mask].ravel(), minlength=16)
        part = np.bincount(idx[tail_mask, :tail_len].ravel(), minlength=16)
        counts = full + part
    else:
        counts = np.bincount(idx.ravel(), minlength=16)
    return UsageHistogram(tuple(int(c) for c in counts), int(counts.sum()))


_METRICS = ("mean_abs", "mean_sq", "max_abs")


def _abs_diff(original, reconstructed):
    """|original - reconstructed| in double precision, without float64
    copies of the inputs."""
    a = np.asarray(original)
    b = np.asarray(reconstructed)
    if a.shape != b.shape:
        raise DomainError(f"shape mismatch: {a.shape} vs {b.shape}")
    diff = np.subtract(a, b, dtype=np.float64)
    return np.abs(diff, out=diff)


def _summarize(diff, metric):
    if metric == "mean_abs":
        return float(diff.mean())
    if metric == "mean_sq":
        return float((diff * diff).mean())
    return float(diff.max())


def reconstruction_error(original, reconstructed, metric="mean_abs"):
    """Elementwise error summary between two same-shape tensors.

    The difference is taken in double precision; ``metric`` is one of
    "mean_abs", "mean_sq" and "max_abs".
    """
    if metric not in _METRICS:
        raise DomainError(f"metric must be one of {_METRICS}, got {metric!r}")
    return _summarize(_abs_diff(original, reconstructed), metric)


def reconstruction_errors(original, reconstructed):
    """Every ``reconstruction_error`` metric, as {metric: value}, from one
    difference of the two tensors."""
    diff = _abs_diff(original, reconstructed)
    return {m: _summarize(diff, m) for m in _METRICS}


# ---------------------------------------------------------------------------
# FQT1: plain float32 tensors
# ---------------------------------------------------------------------------

def tensor_write(tensor, path):
    """Write a tensor as FQT1 (float32, row-major, little-endian)."""
    arr = np.ascontiguousarray(np.asarray(tensor, dtype=np.float32))
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim > 255:
        raise FormatError(f"too many dimensions for FQT1: {arr.ndim}")
    for d in arr.shape:
        if d >= 1 << 32:
            raise FormatError(f"extent {d} overflows the 32-bit FQT1 header")
    with open(path, "wb") as fh:
        fh.write(FQT1_MAGIC)
        fh.write(struct.pack("<BB", _FQT1_DTYPE_F32, arr.ndim))
        fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
        fh.write(arr.astype("<f4", copy=False).tobytes())


def _read_exact(fh, n, path, what):
    """Read n bytes, failing before any allocation if the file is shorter."""
    st = os.fstat(fh.fileno())
    if stat.S_ISREG(st.st_mode):
        left = max(st.st_size - fh.tell(), 0)
        if n > left:
            raise FormatError(
                f"{path}: truncated {what}: expected {n} bytes, got {left}"
            )
    data = fh.read(n)
    if len(data) != n:
        raise FormatError(
            f"{path}: truncated {what}: expected {n} bytes, got {len(data)}"
        )
    return data


def tensor_read(path):
    """Read an FQT1 file back into a float32 array."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != FQT1_MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}, expected {FQT1_MAGIC!r}")
        dtype_tag, ndim = struct.unpack("<BB", _read_exact(fh, 2, path, "header"))
        if dtype_tag != _FQT1_DTYPE_F32:
            raise FormatError(f"{path}: unsupported dtype tag {dtype_tag}")
        dims = struct.unpack(f"<{ndim}I", _read_exact(fh, 4 * ndim, path, "extents"))
        if any(d == 0 for d in dims):
            raise FormatError(f"{path}: zero extent in {dims}")
        count = 1
        for d in dims:
            count *= d
        if count > (1 << 40):
            raise FormatError(f"{path}: dimension overflow: {count} elements")
        payload = _read_exact(fh, 4 * count, path, "payload")
        extra = fh.read(1)
        if extra:
            raise FormatError(f"{path}: trailing bytes after payload")
    return np.frombuffer(payload, dtype="<f4").reshape(dims).copy()


# ---------------------------------------------------------------------------
# FQZ1: quantized tensors
# ---------------------------------------------------------------------------

def qtensor_write(qt, path):
    """Write a QuantizedTensor as FQZ1.

    Per block, in row-major block order: the float32 absmax followed by the
    packed indices, trimmed to ceil(effective_block_len / 2) bytes for a
    short final block.
    """
    code_vals = qt.code.values.astype("<f4")
    if np.any(np.diff(code_vals) <= 0):
        raise FormatError(
            "code values collide after float32 rounding; cannot serialize"
        )
    tail_mask, tail_len = _tail_block_mask(qt.dims, qt.block_axis, qt.block_size)
    full_width = (qt.block_size + 1) // 2
    tail_width = (tail_len + 1) // 2
    with open(path, "wb") as fh:
        fh.write(FQZ1_MAGIC)
        fh.write(struct.pack("<BB", 1, len(qt.dims)))
        fh.write(struct.pack(f"<{len(qt.dims)}I", *qt.dims))
        fh.write(struct.pack("<IBB", qt.block_size, qt.block_axis, 16))
        fh.write(code_vals.tobytes())
        scale_bytes = qt.scales.astype("<f4", copy=False).reshape(-1, 1).view(np.uint8)
        widths = np.where(tail_mask, tail_width, full_width)
        stream = np.hstack([scale_bytes, qt.packed])
        keep = np.arange(4 + full_width)[None, :] < (4 + widths)[:, None]
        fh.write(stream[keep].tobytes())


def qtensor_read(path):
    """Read an FQZ1 file back into a QuantizedTensor.

    The code arrives as float32 values with kind "custom"; any richer
    provenance lives in code16/v1 files, not here.
    """
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != FQZ1_MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}, expected {FQZ1_MAGIC!r}")
        version, ndim = struct.unpack("<BB", _read_exact(fh, 2, path, "header"))
        if version != 1:
            raise FormatError(f"{path}: unsupported FQZ1 version {version}")
        dims = struct.unpack(f"<{ndim}I", _read_exact(fh, 4 * ndim, path, "extents"))
        if any(d == 0 for d in dims):
            raise FormatError(f"{path}: zero extent in {dims}")
        block_size, axis, code_len = struct.unpack(
            "<IBB", _read_exact(fh, 6, path, "block header")
        )
        if code_len != 16:
            raise FormatError(f"{path}: code length must be 16, got {code_len}")
        if block_size < 1:
            raise FormatError(f"{path}: invalid block size {block_size}")
        if axis >= ndim:
            raise FormatError(f"{path}: block axis {axis} out of range")
        code_vals = np.frombuffer(
            _read_exact(fh, 64, path, "code values"), dtype="<f4"
        ).astype(np.float64)
        if np.any(np.diff(code_vals) <= 0):
            raise FormatError(f"{path}: code values are not ascending")
        code = Code16(code_vals, kind=KIND_CUSTOM, params={"source": "fqz1"})

        # Body length from the header alone, so a lying header fails in
        # _read_exact before the per-block arrays below are built.
        full_width = (block_size + 1) // 2
        nb_axis = -(-dims[axis] // block_size)
        tail_width = (dims[axis] - (nb_axis - 1) * block_size + 1) // 2
        runs = math.prod(dims) // dims[axis]
        body_len = runs * (4 * nb_axis + (nb_axis - 1) * full_width + tail_width)
        body = np.frombuffer(_read_exact(fh, body_len, path, "blocks"), dtype=np.uint8)
        extra = fh.read(1)
        if extra:
            raise FormatError(f"{path}: trailing bytes after blocks")

    tail_mask, _ = _tail_block_mask(dims, axis, block_size)
    nb = tail_mask.shape[0]
    widths = np.where(tail_mask, tail_width, full_width)
    starts = np.concatenate(([0], np.cumsum(4 + widths)[:-1]))
    scale_idx = starts[:, None] + np.arange(4)[None, :]
    scales = body[scale_idx].copy().view("<f4").reshape(nb)
    packed = np.zeros((nb, full_width), dtype=np.uint8)
    byte_idx = starts[:, None] + 4 + np.arange(full_width)[None, :]
    valid = np.arange(full_width)[None, :] < widths[:, None]
    packed[valid] = body[byte_idx[valid]]
    return QuantizedTensor(
        dims=dims,
        block_axis=int(axis),
        block_size=int(block_size),
        code=code,
        scales=scales.astype(np.float32),
        packed=packed,
    )
