"""Blockwise absmax quantization of tensors against a 16-value code.

A tensor is cut into blocks of ``block_size`` consecutive elements along one
axis (the final block may be short).  Each block stores one float32 scale --
its largest absolute value -- and one 4-bit code index per element, packed
two per byte.  Dequantization is ``code.values[index] * scale``.

One block geometry serves every function here: the tensor is viewed as
(before, length, after) with blocks along the middle axis, so row-major
block order -- of ``scales``, of ``packed`` rows and of FQZ1 records -- is
(before, block number, after).  The full blocks and a short final block are
processed as separate parts at their own block length; ``packed`` rows are
``ceil(min(block_size, length) / 2)`` bytes, as wide as the longest block.

All operations are deterministic: ties in the nearest-value search go to
the lower index, all-zero blocks store a scale of zero, and pad nibbles are
zero.  The nearest-value search compares each element with 15 decision
thresholds, one set per code and search dtype (float32 for float32 input,
float64 otherwise).  The thresholds are derived from, and give the same
indices as, the double-precision tie rule of ``_nearest_index_reference``.
"""

from __future__ import annotations

import functools
import math
import os
import stat
import struct
from dataclasses import dataclass

import numpy as np

from .codebook import Code16
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
    ``packed`` is a (num_blocks, ceil(min(block_size, dims[block_axis]) / 2))
    uint8 array, rows as wide as the longest block; a short final block's
    row is padded with zero nibbles, which are not serialized.
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
        grid, parts = _geometry(dims, self.block_axis, self.block_size)
        nb = math.prod(grid)
        if self.scales.shape != (nb,):
            raise DomainError(f"expected {nb} scales, got {self.scales.shape}")
        row = _width(parts[0][2])
        if self.packed.shape != (nb, row):
            raise DomainError(
                f"expected packed shape {(nb, row)}, got {self.packed.shape}"
            )

    @property
    def num_blocks(self):
        return self.scales.shape[0]


def _geometry(dims, axis, block_size):
    """The block layout: the (before, blocks along the axis, after) grid of
    row-major block order, and the parts -- (first block, block count, block
    length) for the full blocks, then for a short final block, each only if
    present."""
    nfull, tail = divmod(dims[axis], block_size)
    parts = [(0, nfull, block_size)] if nfull else []
    if tail:
        parts.append((nfull, 1, tail))
    grid = (math.prod(dims[:axis]), nfull + (tail > 0), math.prod(dims[axis + 1:]))
    return grid, parts


def _width(block_len):
    """Packed bytes of a block of ``block_len`` indices."""
    return (block_len + 1) // 2


def _part_views(dims, axis, block_size, tensor, *arrays):
    """Per part: its block length, ``tensor`` (shape ``dims``, or None) as a
    (before, blocks, block length, after) view, and each of ``arrays`` (one
    row per block in block order) as a (before, blocks, after, ...) view."""
    grid, parts = _geometry(dims, axis, block_size)
    before, _, after = grid
    if tensor is not None:
        tensor = tensor.reshape(before, dims[axis], after)
    arrays = [a.reshape(grid + a.shape[1:]) for a in arrays]
    for first, n, block_len in parts:
        start = first * block_size
        t = None if tensor is None else tensor[
            :, start:start + n * block_len].reshape(before, n, block_len, after)
        yield (block_len, t, *(a[:, first:first + n] for a in arrays))


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
    """Inverse of pack_nibbles for the first ``length`` elements of each
    row; bytes past them are not unpacked."""
    b = np.asarray(packed, dtype=np.uint8)[..., :(length + 1) // 2]
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

    grid, parts = _geometry(arr.shape, axis, block_size)
    scales = np.empty(math.prod(grid), dtype=np.float32)
    packed = np.zeros((scales.size, _width(parts[0][2])), dtype=np.uint8)
    views = list(_part_views(arr.shape, axis, block_size, arr, scales, packed))

    with np.errstate(over="ignore"):
        for _, v, s, _ in views:
            s[...] = np.abs(v).max(axis=2)
    # NaN and inf propagate into their block's scale, and so does an absmax
    # beyond the float32 range.
    bad = ~np.isfinite(scales)
    if bad.any():
        finite = np.isfinite(arr)
        if not finite.all():
            flat = int(np.argmax(~finite))
            pos = tuple(flat // math.prod(arr.shape[k + 1:]) % n
                        for k, n in enumerate(arr.shape))
            raise DataError(f"non-finite input value at position {pos}")
        raise DataError(f"block {int(np.argmax(bad))}: absmax exceeds "
                        "the float32 range of the stored scale")

    for block_len, v, s, pk in views:
        # Divide in the tensor's working precision by the stored (float32)
        # scale so dequantization sees the same quantity.
        safe = np.where(s > 0, s, np.float32(1.0)).astype(v.dtype)
        idx = nearest_index(v / safe[:, :, None, :], code.values)
        pk[..., :_width(block_len)] = pack_nibbles(np.moveaxis(idx, 2, -1))
    return QuantizedTensor(
        dims=arr.shape,
        block_axis=axis,
        block_size=int(block_size),
        code=code,
        scales=scales,
        packed=packed,
    )


def dequantize(qt):
    """Reconstruct a C-contiguous float32 tensor: code value times scale."""
    # Rounding each code value to float32 before the gather gives the same
    # elements as gathering in float64 and rounding after.
    table = qt.code.values.astype(np.float32)
    out = np.empty(qt.dims, dtype=np.float32)
    for block_len, o, s, pk in _part_views(qt.dims, qt.block_axis,
                                           qt.block_size, out, qt.scales,
                                           qt.packed):
        idx = unpack_nibbles(pk, block_len).swapaxes(2, 3)
        np.multiply(table[idx], s[:, :, None, :], out=o)
    return out


def usage_histogram(qt):
    """Tally how often each code index occurs (pad nibbles excluded)."""
    counts = np.zeros(16, dtype=np.int64)
    for block_len, _, pk in _part_views(qt.dims, qt.block_axis, qt.block_size,
                                        None, qt.packed):
        counts += np.bincount(unpack_nibbles(pk, block_len).ravel(), minlength=16)
    return UsageHistogram(tuple(int(c) for c in counts), int(counts.sum()))


def reconstruction_errors(original, reconstructed):
    """Error summaries between two same-shape tensors, from one double
    precision difference: {"mean_abs", "mean_sq", "max_abs"}."""
    a = np.asarray(original)
    b = np.asarray(reconstructed)
    if a.shape != b.shape:
        raise DomainError(f"shape mismatch: {a.shape} vs {b.shape}")
    # No float64 copies of the inputs: subtract straight into double.
    diff = np.subtract(a, b, dtype=np.float64)
    diff = np.abs(diff, out=diff)
    return {"mean_abs": float(diff.mean()),
            "mean_sq": float((diff * diff).mean()),
            "max_abs": float(diff.max())}


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
        if ndim == 0:
            raise FormatError(f"{path}: FQT1 tensor with no dimensions")
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

def _fqz1_body_length(dims, axis, block_size):
    """Bytes of the per-block records of an FQZ1 file."""
    (before, _, after), parts = _geometry(dims, axis, block_size)
    return before * after * sum(n * (4 + _width(block_len))
                                for _, n, block_len in parts)


def _fqz1_records(dims, axis, block_size, body, scale_bytes, packed):
    """Per part: its FQZ1 records (4 scale bytes, then the packed bytes) as a
    (before, blocks, after, 4 + bytes) view of ``body``, and its views of
    ``scale_bytes`` and ``packed``, trimmed to the part's bytes.  Within each
    ``before`` row the full blocks' records precede the tail block's."""
    body = body.reshape(math.prod(dims[:axis]), -1)
    start = 0
    for block_len, _, sb, pk in _part_views(dims, axis, block_size, None,
                                            scale_bytes, packed):
        pk = pk[..., :_width(block_len)]
        shape = pk.shape[:3] + (4 + pk.shape[3],)
        size = math.prod(shape[1:])
        yield body[:, start:start + size].reshape(shape), sb, pk
        start += size


def qtensor_write(qt, path):
    """Write a QuantizedTensor as FQZ1.

    Per block, in row-major block order: the float32 absmax followed by the
    packed indices, trimmed to ceil(effective_block_len / 2) bytes for a
    short final block.  A block size or extent of 2^32 or more does not fit
    the header and raises FormatError.
    """
    code_vals = qt.code.values.astype("<f4")
    if np.any(np.diff(code_vals) <= 0):
        raise FormatError(
            "code values collide after float32 rounding; cannot serialize"
        )
    for what, v in [("block size", qt.block_size)] + [("extent", d) for d in qt.dims]:
        if v >= 1 << 32:
            raise FormatError(f"{what} {v} overflows the 32-bit FQZ1 header")
    body = np.empty(_fqz1_body_length(qt.dims, qt.block_axis, qt.block_size),
                    dtype=np.uint8)
    scale_bytes = np.ascontiguousarray(qt.scales, dtype="<f4").view(np.uint8)
    for rec, sb, pk in _fqz1_records(qt.dims, qt.block_axis, qt.block_size,
                                     body, scale_bytes.reshape(-1, 4), qt.packed):
        rec[..., :4] = sb
        rec[..., 4:] = pk
    with open(path, "wb") as fh:
        fh.write(FQZ1_MAGIC)
        fh.write(struct.pack("<BB", 1, len(qt.dims)))
        fh.write(struct.pack(f"<{len(qt.dims)}I", *qt.dims))
        fh.write(struct.pack("<IBB", qt.block_size, qt.block_axis, 16))
        fh.write(code_vals.tobytes())
        fh.write(body)


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
        # Non-finite values, signalling NaNs included, fail in Code16.
        with np.errstate(invalid="ignore"):
            code_vals = np.frombuffer(
                _read_exact(fh, 64, path, "code values"), dtype="<f4"
            ).astype(np.float64)
            if np.any(np.diff(code_vals) <= 0):
                raise FormatError(f"{path}: code values are not ascending")
        try:
            code = Code16(code_vals, params={"source": "fqz1"})
        except DomainError as exc:
            raise FormatError(f"{path}: {exc}") from exc

        # Body length from the header alone, so a lying header fails in
        # _read_exact before the per-block arrays below are built.
        body_len = _fqz1_body_length(dims, axis, block_size)
        body = np.frombuffer(_read_exact(fh, body_len, path, "blocks"), dtype=np.uint8)
        extra = fh.read(1)
        if extra:
            raise FormatError(f"{path}: trailing bytes after blocks")

    grid, parts = _geometry(dims, axis, block_size)
    scale_bytes = np.empty((math.prod(grid), 4), dtype=np.uint8)
    packed = np.zeros((math.prod(grid), _width(parts[0][2])), dtype=np.uint8)
    for rec, sb, pk in _fqz1_records(dims, axis, block_size, body,
                                     scale_bytes, packed):
        sb[...] = rec[..., :4]
        pk[...] = rec[..., 4:]
    scales = scale_bytes.view("<f4").reshape(-1).astype(np.float32, copy=False)
    if not np.all(np.isfinite(scales)) or np.any(scales < 0):
        raise FormatError(f"{path}: block scales must be finite and nonnegative")
    return QuantizedTensor(
        dims=dims,
        block_axis=int(axis),
        block_size=int(block_size),
        code=code,
        scales=scales,
        packed=packed,
    )
