"""Blockwise absmax quantization of tensors against a 16-value code.

A tensor is cut into blocks of ``block_size`` consecutive elements along one
axis (the final block may be short).  Each block stores one float32 scale --
its largest absolute value -- and one 4-bit code index per element, packed
two per byte.  Dequantization is ``code.values[index] * scale``.

A QuantizedTensor is its FQZ1 body: per block, in row-major block order,
a float32 scale and ``ceil(block_len / 2)`` bytes of packed indices.  The
tensor is viewed as (before, length, after) with blocks along the middle
axis, so that order is (before, block number, after).  The full blocks and
a short final block are separate parts; ``_parts`` gives each part's
fields as strided views of the records, and every pass goes through them.

Quantization, dequantization, the usage histogram and the error report cut
the tensor the same way, so no temporary grows with the tensor: ``_runs``
splits it into C-order ranges of at most ``_CHUNK`` elements (the report
into its pairwise-sum leaves instead), and ``_pieces`` cuts a range into
pieces that each lie inside one block part.  ``_slab_layout`` cuts the tensor
into slabs of whole block groups, at most a chunk of elements or one
group; a slab is a small tensor of its own, whose records are one byte
range of the body.  Quantization reads the tensor range by range, from an
array or an FQT1 file, in two passes: the first raises every block's
scale to its absmax in one array of 4 bytes per block, wherever the
records go, and the second encodes each range into the few slabs it
reaches, with one nearest-value search per range, and hands each slab on
once it is complete; the report is fused into the second, which
dequantizes each leaf's new indices and subtracts.
Dequantization expands one slab at a time.  So the tensor commands never
hold the body: ``quantize --report`` peaks at about 4 bytes per block,
one leaf and the slabs it reaches, and ``dequantize`` at one run and one
slab.  Each piece's results are a whole-tensor pass's, bit for bit.

All operations are deterministic: ties in the nearest-value search go to
the lower index, all-zero blocks store a scale of zero, and pad nibbles are
zero.  The nearest-value search compares each element with 15 decision
thresholds, one set per code and search dtype (float32 for float32 input,
float64 otherwise), one threshold at a time over the whole range.  The
thresholds are derived from, and give the same indices as, the
double-precision tie rule of ``_nearest_index_reference``.

FQT1 (plain float32 tensors) and FQZ1 (quantized tensors) share one header,
written by ``_header`` and read by ``_read_header``: a 4-byte magic, a tag
byte (FQT1's dtype, FQZ1's version), ndim from 1 to 64 and ndim nonzero u32
LE extents.  The payload or block records are exactly the rest of the file;
every reader takes them through ``_payload``, the one place that tells a
regular file (its length checked up front) from a pipe (read whole).
Every broken rule is a FormatError, which a writer raises before it opens
the file.  Writers go through ``errors.output_file``: a failed write leaves
the target as it was.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import math
import os
import stat
import struct
from dataclasses import dataclass

import numpy as np

from .codebook import Code16, _check_code
from .errors import (DataError, DomainError, FormatError, _check_integer, _real,
                     check_block_size, output_file)

FQT1_MAGIC = b"FQT1"
FQZ1_MAGIC = b"FQZ1"
_FQT1_DTYPE_F32 = 0
# numpy arrays have at most 64 dimensions: a header declaring more
# describes no array.
_MAX_NDIM = 64


@dataclass(frozen=True, eq=False)
class QuantizedTensor:
    """Blockwise-quantized tensor, held as its FQZ1 block records.

    ``records`` is a contiguous 1-D uint8 array: per block, in row-major
    block order, the little-endian float32 absmax, then ceil(block_len / 2)
    bytes of packed indices.  ``scales`` and ``packed`` are read-only copies
    of the fields: (num_blocks,) float32, and uint8 rows as wide as the
    longest block, every nibble past a block's end zero, whatever the
    records hold there.
    """

    dims: tuple
    block_axis: int
    block_size: int
    code: Code16
    records: np.ndarray

    def __post_init__(self):
        dims = tuple(_check_integer(d, f"extent of {self.dims}", 1) for d in self.dims)
        if not dims:
            raise DomainError(f"invalid dims {self.dims}")
        axis = _check_integer(self.block_axis, "block_axis")
        if not 0 <= axis < len(dims):
            raise DomainError(f"block_axis {axis} out of range for {dims}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "block_axis", axis)
        object.__setattr__(self, "block_size", check_block_size(self.block_size))
        _check_code(self.code)
        if not isinstance(self.records, np.ndarray) or self.records.dtype != np.uint8:
            got = getattr(self.records, "dtype", type(self.records).__name__)
            raise DomainError(f"records must be a uint8 array, got {got}")
        size = _fqz1_body_length(dims, axis, self.block_size)
        if self.records.shape != (size,):
            raise DomainError(f"expected {size} record bytes, got shape "
                              f"{self.records.shape}")

    @property
    def num_blocks(self):
        return math.prod(_geometry(self.dims, self.block_axis, self.block_size)[0])

    @property
    def scales(self):
        grid, _ = _geometry(self.dims, self.block_axis, self.block_size)
        out = np.empty(grid, dtype=np.float32)
        for first, n, _, s, _ in _parts(self):
            out[:, first:first + n] = s
        out.setflags(write=False)
        return out.reshape(-1)

    @property
    def packed(self):
        grid, parts = _geometry(self.dims, self.block_axis, self.block_size)
        out = np.zeros(grid + (_width(parts[0][2]),), dtype=np.uint8)
        for first, n, block_len, _, pk in _parts(self):
            out[:, first:first + n, :, :pk.shape[-1]] = pk
            if block_len % 2:  # the record's last high nibble is a pad nibble
                out[:, first:first + n, :, pk.shape[-1] - 1] &= 0x0F
        out.setflags(write=False)
        return out.reshape(-1, out.shape[-1])


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


def _fqz1_body_length(dims, axis, block_size):
    """Bytes of the per-block records of an FQZ1 file."""
    (before, _, after), parts = _geometry(dims, axis, block_size)
    return before * after * sum(n * (4 + _width(block_len))
                                for _, n, block_len in parts)


def _parts(qt):
    """Per block part (see _geometry): its first block, block count and
    block length, and views of its fields in ``qt.records`` -- the scales
    as a (before, blocks, after) ``<f4`` array and the index bytes as a
    (before, blocks, after, bytes) array.  Within each ``before`` row the
    full blocks' records precede the tail block's."""
    grid, parts = _geometry(qt.dims, qt.block_axis, qt.block_size)
    rows = qt.records.reshape(grid[0], -1)
    start = 0
    for first, n, block_len in parts:
        shape = (grid[0], n, grid[2], 4 + _width(block_len))
        size = math.prod(shape[1:])
        rec = rows[:, start:start + size].reshape(shape)
        yield first, n, block_len, rec[..., :4].view("<f4")[..., 0], rec[..., 4:]
        start += size


# Elements per run of the tensor path.  A run's temporaries -- its
# absolute values, quotients, indices and packed bytes, or its float64
# differences -- stay near the cache, and none grows with the tensor.  At
# least 128, numpy's pairwise-sum block, for reconstruction_errors' sums
# to split where numpy's do.
_CHUNK = 1 << 17


def _boxes(shape, start, stop):
    """Boxes -- a (start, stop) per axis -- covering the elements [start,
    stop) of an array of ``shape`` in C order, one after another: each box
    is a run of the range in its own C order, and there are at most two per
    axis after the first."""
    if start >= stop:
        return
    if len(shape) == 1:
        yield ((start, stop),)
        return
    inner = math.prod(shape[1:])
    (i, r), (j, q) = divmod(start, inner), divmod(stop, inner)
    if r or i == j:
        for box in _boxes(shape[1:], r, q if i == j else inner):
            yield ((i, i + 1),) + box
        i += 1
    if i < j:
        yield ((i, j),) + tuple((0, n) for n in shape[1:])
    if q and i <= j:
        for box in _boxes(shape[1:], 0, q):
            yield ((j, j + 1),) + box


def _runs(dims):
    """Consecutive C-order ranges (start, stop) covering a tensor of extents
    ``dims``: as many whole rows of the trailing axes as fit in _CHUNK
    elements, or _CHUNK elements of a longer row."""
    row = 1
    for n in reversed(dims):
        if row * n > _CHUNK:
            break
        row *= n
    step, size = _CHUNK // row * row, math.prod(dims)
    return ((start, min(start + step, size)) for start in range(0, size, step))


def _slab_layout(dims, axis, block_size):
    """The tensor's slabs, in order.  A block group -- block j of one
    ``before`` row across all ``after`` columns -- is one C-order range of
    elements and one byte range of the records, in the same order.  A slab
    is as many whole groups as fit in _CHUNK elements, at least one: whole
    before rows if one fits, else groups of one before row.  So a slab is a
    (rows, extent, after) tensor blocked along axis 1 whose records are its
    byte range.  Per slab: its first element, those extents, and its blocks
    and its bytes as slices of the block order and of the records."""
    (before, nblocks, after), _ = _geometry(dims, axis, block_size)
    length = dims[axis]
    row_bytes = _fqz1_body_length((length, after), 0, block_size)
    if length * after <= _CHUNK:
        step = _CHUNK // (length * after)
        spans = ((b, min(step, before - b), 0, length) for b in range(0, before, step))
    else:
        step = max(_CHUNK // (block_size * after), 1) * block_size
        spans = ((b, 1, lo, min(lo + step, length))
                 for b in range(before) for lo in range(0, length, step))
    for b, rows, lo, hi in spans:
        slab = (rows, hi - lo, after)
        first = (b * nblocks + lo // block_size) * after
        at = b * row_bytes + lo // block_size * after * (4 + _width(block_size))
        yield ((b * length + lo) * after, slab,
               slice(first, first + math.prod(_geometry(slab, 1, block_size)[0])),
               slice(at, at + _fqz1_body_length(slab, 1, block_size)))


def _slabs(dims, axis, block_size, code, records, scales=None):
    """Per slab (_slab_layout): its first element, its blocks' slice of the
    block order, and the slab as a QuantizedTensor over ``records(part)``:
    the bytes ``part`` of the tensor's records, or an array standing in for
    them.  Given the tensor's (num_blocks,) ``scales``, each slab's scales
    are set from them."""
    for start, slab, blocks, part in _slab_layout(dims, axis, block_size):
        qt = QuantizedTensor(slab, 1, block_size, code, records(part))
        if scales is not None:
            _set_scales(qt, scales[blocks])
        yield start, blocks, qt


def _set_scales(qt, scales):
    """Write the (num_blocks,) ``scales``, in block order, into
    ``qt.records``: the inverse of ``qt.scales``."""
    grid, _ = _geometry(qt.dims, qt.block_axis, qt.block_size)
    scales = scales.reshape(grid)
    for first, n, _, s, _ in _parts(qt):
        s[...] = scales[:, first:first + n]


def _layout(qt):
    """``qt``'s (dims, block axis, block size, block parts) for _pieces."""
    return qt.dims, qt.block_axis, qt.block_size, list(_parts(qt))


def _pieces(layout, start, stop, *ranges):
    """Cut the elements [start, stop) of a tensor, counted in C order, into
    pieces that each lie inside one block part: the range splits into boxes
    of the (before, length, after) view, and each box along the block axis
    into a partial first block, whole blocks and a partial last block.
    ``layout`` is the tensor's (dims, axis, block size, parts): the parts
    as _parts yields them, whose index bytes may be None.

    Per piece: its offset and length inside its blocks; a tuple of its
    (before, blocks, length, after) views of each of ``ranges`` -- flat
    arrays of the range's elements; and its views of the part's fields: the
    (before, blocks, after) scales and the (before, blocks, after, bytes)
    index bytes that hold its nibbles.  A piece at an odd offset shares its
    first byte with an earlier piece."""
    dims, axis, block_size, parts = layout
    grid, _ = _geometry(dims, axis, block_size)
    at = 0
    for (b0, b1), (l0, l1), (a0, a1) in _boxes((grid[0], dims[axis], grid[2]),
                                               start, stop):
        shape = (b1 - b0, l1 - l0, a1 - a0)
        boxes = [r[at:at + math.prod(shape)].reshape(shape) for r in ranges]
        at += math.prod(shape)
        for first, n, block_len, scales, packed in parts:
            begin = first * block_size
            for (k0, k1), (j0, j1) in _boxes((n, block_len), max(l0 - begin, 0),
                                             min(l1, begin + n * block_len) - begin):
                lo = begin + k0 * block_len + j0 - l0
                views = tuple(box[:, lo:lo + (k1 - k0) * (j1 - j0)].reshape(
                    shape[0], k1 - k0, j1 - j0, shape[2]) for box in boxes)
                blocks = (slice(b0, b1), slice(k0, k1), slice(a0, a1))
                nibbles = slice(j0 // 2, j0 // 2 + _width(j0 % 2 + j1 - j0))
                yield (j0, j1 - j0, views, scales[blocks],
                       None if packed is None else packed[blocks + (nibbles,)])


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


def nearest_index(normalized, code):
    """Nearest code index for each element, ties toward the lower index.

    The index is the number of decision thresholds the element reaches,
    counted one threshold at a time over the whole input.  The thresholds
    are exact for the search dtype -- float32 for float32 input, float64
    for any other bool, integer or float input (which is converted first)
    -- so the result equals the double-precision rule of
    ``_nearest_index_reference`` for every finite or infinite input.  NaN
    maps to index 0.  Other dtypes, and a code that is not a Code16 (which
    alone holds the rules on code values), raise DomainError.
    """
    x = _real(normalized, "normalized")
    x = x.astype(np.float32 if x.dtype == np.float32 else np.float64, copy=False)
    t = _thresholds(_check_code(code).values.tobytes(), x.dtype)
    out = np.greater_equal(x, t[0], out=np.empty(x.shape, dtype=np.uint8))
    hit = np.empty(x.shape, dtype=bool)
    for tk in t[1:]:
        np.add(out, np.greater_equal(x, tk, out=hit).view(np.uint8), out=out)
    return out


def pack_nibbles(indices):
    """Pack rows of 4-bit values: element 2k -> low nibble of byte k.
    Raises DomainError unless indices has integer dtype, at least one
    dimension and values from 0 to 15."""
    idx = _real(indices, "indices")
    if idx.dtype.kind not in "iu" or idx.ndim == 0:
        raise DomainError(f"indices: need rows of integers, got dtype {idx.dtype}"
                          f" and shape {idx.shape}")
    if idx.size and (idx.max() > 15 or (idx.dtype.kind == "i" and idx.min() < 0)):
        raise DomainError("indices: need values from 0 to 15")
    idx = idx.astype(np.uint8, copy=False)
    packed = np.array(idx[..., 0::2], order="K")
    packed[..., :idx.shape[-1] // 2] |= idx[..., 1::2] << 4
    return packed


def unpack_nibbles(packed, length):
    """Inverse of pack_nibbles for the first ``length`` (an integer >= 0)
    elements of each row; bytes past them are not unpacked.  Raises
    DomainError unless packed is rows of integers from 0 to 255."""
    b = _real(packed, "packed")
    if b.dtype.kind not in "iu" or b.ndim == 0:
        raise DomainError(f"packed: need rows of integers, got dtype {b.dtype}"
                          f" and shape {b.shape}")
    if b.dtype != np.uint8 and b.size and (b.max() > 255 or b.min() < 0):
        raise DomainError("packed: need values from 0 to 255")
    length = _check_integer(length, "length", 0)
    b = b[..., :(length + 1) // 2].astype(np.uint8, copy=False)
    out = np.empty(b.shape[:-1] + (b.shape[-1] * 2,), dtype=np.uint8)
    out[..., 0::2] = b & 0x0F
    out[..., 1::2] = b >> 4
    return out[..., :length]


def quantize(values, code, block_size, axis=0):
    """Quantize a tensor blockwise against a code.

    Each block of ``block_size`` consecutive elements along ``axis`` is
    scaled by its absmax and every element mapped to the nearest code value.
    All-zero blocks store scale 0 and the index of the code value nearest 0.
    Raises DomainError for input that is not of bool, integer or float
    dtype, and DataError for non-finite input and for a block whose absmax
    overflows the float32 scale.
    """
    arr = _real(values, "values")
    if not np.issubdtype(arr.dtype, np.floating):
        arr = arr.astype(np.float32)
    if arr.ndim == 0:
        raise DomainError("cannot quantize a scalar")
    if 0 in arr.shape:
        raise DomainError(f"cannot quantize an empty tensor of shape {arr.shape}")
    flat = arr.reshape(-1)
    return _quantize(arr.shape, lambda start, stop: flat[start:stop], code,
                     block_size, axis)[0]


def _quantize(dims, elements, code, block_size, axis=0, report=False, path=None):
    """quantize() in two passes over ``elements(start, stop)``, the C-order
    elements of the tensor of extents ``dims``, at most _CHUNK at a time:
    _absmax_scales, then _encode_slabs.  Returns the QuantizedTensor and,
    if ``report``, reconstruction_errors against its dequantized copy (else
    None).  Given ``path``, the FQZ1 file is written there slab by slab
    instead, once every input check has passed (the header's before the
    first element is read), and the tensor returned is None: no array
    holds its records."""
    axis = _check_integer(axis, "axis")
    if not -len(dims) <= axis < len(dims):
        raise DomainError(f"axis {axis} out of range for {dims}")
    axis %= len(dims)
    block_size = check_block_size(block_size)
    if path is None:
        qt = QuantizedTensor(dims, axis, block_size, code, np.empty(
            _fqz1_body_length(dims, axis, block_size), dtype=np.uint8))
        _set_scales(qt, _absmax_scales(dims, elements, axis, block_size))
        slabs = _slabs(dims, axis, block_size, code, qt.records.__getitem__)
        return qt, _encode_slabs(dims, elements, slabs, report, lambda _: None)
    header = _fqz1_header(dims, axis, block_size, code)
    scales = _absmax_scales(dims, elements, axis, block_size)
    slabs = _slabs(dims, axis, block_size, code, lambda part: np.empty(
        part.stop - part.start, dtype=np.uint8), scales)
    with output_file(path) as fh:
        fh.write(header)
        return None, _encode_slabs(dims, elements, slabs, report, fh.write)


def _absmax_scales(dims, elements, axis, block_size):
    """The first pass of _quantize: every block's absmax, as (num_blocks,)
    float32 scales in block order, raised from zero in a (before, blocks,
    after) array, 4 bytes per block.  Non-finite input, and a block whose
    absmax overflows float32, raise DataError."""
    grid, parts = _geometry(dims, axis, block_size)
    scales = np.zeros(grid, dtype=np.float32)
    layout = (dims, axis, block_size,
              [(first, n, block_len, scales[:, first:first + n], None)
               for first, n, block_len in parts])
    # A piece may hold part of a block, so the absmax is accumulated; the
    # maximum commutes with the rounding to the float32 scale.
    with np.errstate(over="ignore"):
        for start, stop in _runs(dims):
            run = elements(start, stop)
            for _, _, (v,), s, _ in _pieces(layout, start, stop, run):
                np.maximum(s, np.abs(v).max(axis=2), out=s)
    # NaN and inf propagate into their block's scale, and so does an absmax
    # beyond the float32 range; max() propagates NaN.
    if not scales.max() < np.inf:
        for start, stop in _runs(dims):
            found = np.flatnonzero(~np.isfinite(elements(start, stop)))
            if found.size:
                pos = np.unravel_index(start + found[0], dims)
                raise DataError("non-finite input value at position "
                                f"{tuple(int(i) for i in pos)}")
        block = int(np.argmax(~np.isfinite(scales)))
        raise DataError(f"block {block}: absmax exceeds the float32 range of "
                        "the stored scale")
    return scales.reshape(-1)


def _encode_slabs(dims, elements, slabs, report, write):
    """The second pass of _quantize.  Walk the tensor in C order -- the
    ranges of _runs, or the report's leaves -- and encode each range into
    the slabs it reaches, which are opened in order and whose scales are
    set; pass each slab's records to ``write`` once the walk is past its
    last element.  Returns the report, or None."""
    opened = collections.deque()

    def encode(start, values, *out):
        stop = start + values.size
        while not opened or opened[-1][1] < stop:
            first, _, slab = next(slabs)
            opened.append((first, first + math.prod(slab.dims), slab))
        # every open slab ends after ``start`` and begins before ``stop``
        _encode(opened, start, values, *out)
        while opened and opened[0][1] <= stop:
            write(opened.popleft()[2].records)

    if not report:
        for start, stop in _runs(dims):
            encode(start, elements(start, stop))
        return None

    def differences(start, d):
        x = elements(start, start + d.size)
        encode(start, x, d)
        np.subtract(x, d, out=d)

    return _summary(differences, math.prod(dims))


def _encode(slabs, start, values, *out):
    """Quantize the C-order elements [start, start + values.size) of a
    tensor into the records of ``slabs``: (first element, end, slab) per
    slab (see _slabs) that the range reaches, each with its scales set.
    Given a flat array ``out``, also write the dequantized values into it.
    The range is normalized into one array, so one nearest_index call
    searches it whatever the slabs and block parts it spans."""
    stop = start + values.size
    # v / s has the dtype of v, in native byte order
    normalized = np.empty(values.size, dtype=np.result_type(values.dtype))
    indices = np.empty(values.size, dtype=np.uint8)
    pieces, scaled = [], []
    for first, end, qt in slabs:
        lo, hi = max(start, first), min(stop, end)
        ranges = (r[lo - start:hi - start] for r in (values, normalized, indices, *out))
        for offset, _, (v, n, i, *o), s, pk in _pieces(_layout(qt), lo - first,
                                                        hi - first, *ranges):
            s = s.copy()  # aligned, as in _dequantize_run
            # Divide in the tensor's working precision by the stored
            # (float32) scale so dequantization sees the same quantity.
            safe = np.where(s > 0, s, np.float32(1.0)).astype(v.dtype)
            np.divide(v, safe[:, :, None], out=n)
            pieces.append((offset, i.transpose(0, 1, 3, 2), pk))
            if o:
                scaled.append((o[0], s))
    code = slabs[0][2].code
    indices[...] = nearest_index(normalized, code)
    for offset, idx, pk in pieces:
        # At an odd offset the first byte's low nibble is an earlier
        # piece's, so only the high nibble is ORed in; an odd length
        # leaves its last high nibble zero for a later piece.
        if offset % 2:
            pk[..., 0] |= idx[..., 0] << 4
            pk, idx = pk[..., 1:], idx[..., 1:]
        pk[...] = pack_nibbles(idx)
    if out:
        _dequantize_pieces(code, indices, out[0], scaled)


def _dequantize_run(qt, start, out):
    """Write the elements [start, start + out.size) of the dequantized
    tensor, in C order, into the flat array ``out``."""
    indices = np.empty(out.size, dtype=np.uint8)
    scaled = []
    for offset, length, (o, i), s, pk in _pieces(_layout(qt), start, start + out.size,
                                                 out, indices):
        idx = unpack_nibbles(pk, offset % 2 + length)[..., offset % 2:]
        i[...] = idx.transpose(0, 1, 3, 2)
        # A copy: with records not a multiple of 4 bytes long the scale
        # view is unaligned, and numpy multiplies by it about 4x slower.
        scaled.append((o, s.copy()))
    _dequantize_pieces(qt.code, indices, out, scaled)


# Indices per np.take call: it casts them to intp, 8 bytes each.
_GATHER = 1 << 14


def _dequantize_pieces(code, indices, out, scaled):
    """Dequantize a range whose pieces' (view of ``out``, scales) pairs are
    ``scaled``: gather the code values at ``indices`` into ``out``, both
    flat and in the range's order, then scale each piece in place, in
    float32 whatever the dtype of ``out``."""
    # Rounding each code value to float32 before the gather gives the same
    # elements as gathering in float64 and rounding after.
    table = code.values.astype(np.float32).astype(out.dtype)
    for i in range(0, out.size, _GATHER):
        np.take(table, indices[i:i + _GATHER], out=out[i:i + _GATHER], mode="clip")
    for o, s in scaled:
        np.multiply(o, s[:, :, None], out=o, dtype=np.float32)


def dequantize(qt):
    """Reconstruct a C-contiguous float32 tensor: code value times scale."""
    out = np.empty(qt.dims, dtype=np.float32)
    flat = out.reshape(-1)
    for first, _, slab in _slabs(qt.dims, qt.block_axis, qt.block_size, qt.code,
                                 qt.records.__getitem__):
        for start, stop in _runs(slab.dims):
            _dequantize_run(slab, start, flat[first + start:first + stop])
    return out


def usage_histogram(qt):
    """How often each code index occurs (pad nibbles excluded): 16 int64
    counts."""
    counts = np.zeros(16, dtype=np.int64)
    layout = _layout(qt)
    for start, stop in _runs(qt.dims):
        for offset, length, _, _, pk in _pieces(layout, start, stop):
            # Count both nibbles of every byte, high by low, then take back
            # the ones that are not the piece's: the low nibble before an odd
            # offset and the high nibble after an odd end.
            pairs = np.bincount(pk.reshape(-1), minlength=256).reshape(16, 16)
            counts += pairs.sum(axis=0) + pairs.sum(axis=1)
            if offset % 2:
                counts -= np.bincount((pk[..., 0] & 0x0F).reshape(-1), minlength=16)
            if (offset + length) % 2:
                counts -= np.bincount((pk[..., -1] >> 4).reshape(-1), minlength=16)
    return counts


def reconstruction_errors(original, reconstructed):
    """{"mean_abs", "mean_sq", "max_abs"} of the double precision difference
    of two same-shape tensors of real numbers (``errors._real``), else DomainError.

    The difference is formed and reduced _CHUNK elements at a time, in the
    order numpy's own ``diff.mean()`` sums it, and the run sums are added
    up numpy's pairwise tree; so every figure equals the unchunked numpy
    expression bit for bit, NaN included.
    """
    shapes = None, None  # shapes first: a QuantizedTensor reads as a mismatch
    with contextlib.suppress(ValueError):  # ragged nesting, which _real names
        shapes = np.shape(original), np.shape(reconstructed)
    if shapes[0] != shapes[1]:
        raise DomainError(f"shape mismatch: {shapes[0]} vs {shapes[1]}")
    a, b = _real(original, "original"), _real(reconstructed, "reconstructed")
    if a.size == 0:
        raise DomainError(f"no elements to compare in shape {a.shape}")
    # np.subtract lays its output out in the inputs' memory order, and
    # diff.mean() sums in that order; a 2-wide corner of each input shows it.
    corner = tuple(slice(0, 2) for _ in a.shape)
    strides = np.subtract(a[corner], b[corner], dtype=np.float64).strides
    order = sorted(range(a.ndim), key=lambda k: -strides[k])
    with np.nditer([a.transpose(order), b.transpose(order)],
                   flags=["external_loop", "buffered", "ranged"],
                   op_dtypes=[np.float64] * 2, casting="same_kind",
                   order="C", buffersize=_CHUNK // 8) as it:
        return _summary(functools.partial(_differences, it), a.size)


def _differences(it, start, d):
    """Write the differences of the iterator's two operands, elements
    [start, start + d.size), into d."""
    it.iterrange = (start, start + d.size)
    filled = 0
    for x, y in it:
        np.subtract(x, y, out=d[filled:filled + x.size])
        filled += x.size


def _summary(differences, size):
    """The report of the ``size`` differences _pairwise_sums asks for."""
    maxima = []
    sums = _pairwise_sums(differences, 0, size, np.empty(min(size, _CHUNK)), maxima)
    mean_abs, mean_sq = sums / size
    return {"mean_abs": float(mean_abs), "mean_sq": float(mean_sq),
            "max_abs": float(np.max(maxima))}


def _pairwise_sums(differences, start, n, buf, maxima):
    """Sums of |d| and d^2 over the differences of elements [start, start +
    n), as numpy's pairwise summation adds them: a run of more than _CHUNK
    elements splits where numpy's does, and a shorter run is one numpy sum,
    whose differences ``differences(start, d)`` writes into ``d``.  Appends
    each run's largest |d| to ``maxima``.  A module-level recursion, so no
    reference cycle keeps the iterator's views alive."""
    if n > _CHUNK:
        n2 = n // 2 - (n // 2) % 8
        return (_pairwise_sums(differences, start, n2, buf, maxima)
                + _pairwise_sums(differences, start + n2, n - n2, buf, maxima))
    d = buf[:n]
    differences(start, d)
    np.abs(d, out=d)
    maxima.append(d.max())
    sum_abs = d.sum()
    np.multiply(d, d, out=d)
    return np.array([sum_abs, d.sum()])


# ---------------------------------------------------------------------------
# FQT1 and FQZ1 headers; FQT1: plain float32 tensors
# ---------------------------------------------------------------------------

def _header(magic, tag, dims):
    """Header bytes: magic, tag, ndim and u32 LE extents; FormatError for
    ndim outside 1 to _MAX_NDIM or an extent not an integer in [1, 2^32)."""
    if not 1 <= len(dims) <= _MAX_NDIM:
        raise FormatError(f"{len(dims)} dimensions, not 1 to {_MAX_NDIM}")
    try:
        dims = [_check_integer(d, f"extent in {tuple(dims)}", 0) for d in dims]
    except DomainError as exc:
        raise FormatError(str(exc)) from None
    if 0 in dims:
        raise FormatError(f"zero extent in {tuple(dims)}")
    if max(dims) >= 1 << 32:
        raise FormatError(f"extent {max(dims)} overflows the 32-bit header")
    return magic + struct.pack(f"<BB{len(dims)}I", tag, len(dims), *dims)


# Bytes per read from a pipe or other non-regular file, whose length is
# unknown until its end: a lying header costs at most what the input holds.
_PIPE_PIECE = 1 << 20


def _read_exact(fh, n, path, what):
    """Read n bytes into a uint8 array, in pieces of at most _PIPE_PIECE
    bytes; fewer before the end of the input raise FormatError."""
    data = bytearray()
    while len(data) < n:
        piece = fh.read(min(n - len(data), _PIPE_PIECE))
        if not piece:
            raise _truncated(path, what, n, len(data))
        data += piece
    return np.frombuffer(data, dtype=np.uint8)


def _truncated(path, what, n, got):
    return FormatError(f"{path}: truncated {what}: expected {n} bytes, got {got}")


def _read_header(fh, path, magic, tag, what):
    """Read a header written by _header and return its extents: 1 to
    _MAX_NDIM of them, all nonzero.  ``what`` names the tag byte."""
    found = fh.read(4)
    if found != magic:
        raise FormatError(f"{path}: bad magic {found!r}, expected {magic!r}")
    found, ndim = struct.unpack("<BB", _read_exact(fh, 2, path, "header"))
    if found != tag:
        raise FormatError(f"{path}: unsupported {what} {found}")
    if ndim == 0:
        raise FormatError(f"{path}: tensor with no dimensions")
    if ndim > _MAX_NDIM:
        raise FormatError(f"{path}: {ndim} dimensions, more than {_MAX_NDIM}")
    dims = struct.unpack(f"<{ndim}I", _read_exact(fh, 4 * ndim, path, "extents"))
    if 0 in dims:
        raise FormatError(f"{path}: zero extent in {dims}")
    return dims


@contextlib.contextmanager
def tensor_writer(dims, path):
    """Write an FQT1 file of extents ``dims`` piece by piece.  The yielded
    function takes the tensor's next row-major elements, as any array; the
    pieces must add up to the tensor.  A header that cannot hold ``dims``
    raises FormatError before the file is opened; a failure after that, or
    pieces that do not add up, leave ``path`` as it was (``output_file``)."""
    header = _header(FQT1_MAGIC, _FQT1_DTYPE_F32, dims)
    written = 0
    with output_file(path) as fh:
        fh.write(header)

        def write(piece):
            nonlocal written
            piece = np.ascontiguousarray(piece, dtype="<f4")
            fh.write(piece)
            written += piece.size

        yield write
        if written != math.prod(dims):
            raise DomainError(f"{path}: wrote {written} elements of {math.prod(dims)}")


def tensor_write(tensor, path):
    """Write a real tensor as FQT1 (float32, row-major, little-endian)."""
    arr = _real(tensor, "tensor").astype(np.float32, copy=False)
    with tensor_writer(arr.shape or (1,), path) as write:
        write(arr)


def tensor_read(path):
    """Read an FQT1 file back into a float32 array."""
    with open(path, "rb") as fh:
        dims = _read_header(fh, path, FQT1_MAGIC, _FQT1_DTYPE_F32, "dtype tag")
        size = math.prod(dims)
        payload = _payload(fh, path, "payload", 4 * size)(0, np.empty(size, "<f4"))
    return payload.astype(np.float32, copy=False).reshape(dims)


def _payload(fh, path, what, size):
    """The ``size`` bytes that must be the rest of the file past the header
    read so far, else FormatError: read(offset, out) gives the ``out.nbytes``
    of them from ``offset`` on as an array of ``out``'s dtype.  A regular
    file's length is checked here; each call reads into ``out`` and returns
    it, and a short read (the file shrank) raises FormatError.  Any other
    input, such as a pipe, has no length until its end, so it is read whole
    here, in pieces, and each call returns a view of those bytes; ``out``
    then gives only the dtype and length: an np.empty left untouched holds
    no resident memory."""
    st = os.fstat(fh.fileno())
    if not stat.S_ISREG(st.st_mode):
        data = _read_exact(fh, size, path, what)
        if fh.read(1):
            raise FormatError(f"{path}: trailing bytes at end of file")
        return lambda offset, out: data[offset:offset + out.nbytes].view(out.dtype)
    header = fh.tell()
    left = st.st_size - header
    if left != size:
        raise (_truncated(path, what, size, left) if left < size else
               FormatError(f"{path}: trailing bytes at end of file"))

    def read(offset, out):
        fh.seek(header + offset)
        got = fh.readinto(out)
        if got != out.nbytes:
            raise _truncated(path, what, size, offset + got)
        return out

    return read


# ---------------------------------------------------------------------------
# FQZ1: quantized tensors
# ---------------------------------------------------------------------------

def _check_fqz1_block_size(block_size):
    """FormatError unless block_size fits FQZ1's u32 field."""
    if block_size >= 1 << 32:
        raise FormatError(f"block size {block_size} overflows the 32-bit header")


def _fqz1_header(dims, axis, block_size, code):
    """FQZ1 header bytes.  More than 64 dimensions, a block size or extent
    of 2^32 or more, or code values that collide in float32 raise
    FormatError."""
    code_vals = code.values.astype("<f4")
    if np.any(np.diff(code_vals) <= 0):
        raise FormatError(
            "code values collide after float32 rounding; cannot serialize"
        )
    _check_fqz1_block_size(block_size)
    return (_header(FQZ1_MAGIC, 1, dims)
            + struct.pack("<IBB", block_size, axis, 16)
            + code_vals.tobytes())


def qtensor_write(qt, path):
    """Write a QuantizedTensor as FQZ1: the header, then ``qt.records``.

    More than 64 dimensions, or a block size or extent of 2^32 or more,
    does not fit the header and raises FormatError.
    """
    header = _fqz1_header(qt.dims, qt.block_axis, qt.block_size, qt.code)
    with output_file(path) as fh:
        fh.write(header)
        fh.write(qt.records)


def _read_fqz1_header(fh, path):
    """Read an FQZ1 header written by _fqz1_header and return its extents,
    block axis, block size and code."""
    dims = _read_header(fh, path, FQZ1_MAGIC, 1, "FQZ1 version")
    block_size, axis, code_len = struct.unpack(
        "<IBB", _read_exact(fh, 6, path, "block header")
    )
    if code_len != 16:
        raise FormatError(f"{path}: code length must be 16, got {code_len}")
    if block_size < 1:
        raise FormatError(f"{path}: invalid block size {block_size}")
    if axis >= len(dims):
        raise FormatError(f"{path}: block axis {axis} out of range")
    # Code16 rejects non-finite and unordered values; sNaN casts warn.
    with np.errstate(invalid="ignore"):
        code_vals = _read_exact(fh, 64, path, "code values").view(
            "<f4").astype(np.float64)
    try:
        code = Code16(code_vals, params={"source": "fqz1"})
    except DomainError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    return dims, axis, block_size, code


def _check_scales(qt, path):
    """FormatError unless every block scale of ``qt`` is finite and
    nonnegative."""
    for _, _, _, scales, _ in _parts(qt):
        # NaN propagates through min and max
        if not (scales.min() >= 0 and scales.max() < np.inf):
            raise FormatError(f"{path}: block scales must be finite and nonnegative")


def qtensor_read(path):
    """Read an FQZ1 file back into a QuantizedTensor.

    The code arrives as float32 values with kind "custom"; any richer
    provenance lives in code16/v1 files, not here.
    """
    with open(path, "rb") as fh:
        dims, axis, block_size, code = _read_fqz1_header(fh, path)
        # Body length from the header alone, so a lying header fails in
        # _payload before the body is read.
        size = _fqz1_body_length(dims, axis, block_size)
        body = _payload(fh, path, "blocks", size)(0, np.empty(size, dtype=np.uint8))
    qt = QuantizedTensor(dims, axis, block_size, code, body)
    _check_scales(qt, path)
    return qt


def _quantize_file(src, dst, code, block_size, axis, report):
    """Quantize the FQT1 file ``src`` into the FQZ1 file ``dst`` (see
    _quantize) and return the report, or None.  The header's block-size
    field is checked before ``src`` is opened.  The elements are read
    through _payload, from a regular file into one reused buffer.  ``dst``
    replaces its path only at the end, so it may be ``src``."""
    _check_fqz1_block_size(block_size)
    with open(src, "rb") as fh:
        dims = _read_header(fh, src, FQT1_MAGIC, _FQT1_DTYPE_F32, "dtype tag")
        read = _payload(fh, src, "payload", 4 * math.prod(dims))
        buf = np.empty(min(math.prod(dims), _CHUNK), dtype="<f4")
        return _quantize(dims, lambda start, stop: read(4 * start, buf[:stop - start]),
                         code, block_size, axis, report, dst)[1]


def _dequantize_file(src, dst):
    """Dequantize the FQZ1 file ``src`` into the FQT1 file ``dst``, slab by
    slab (see _slabs) and run by run (_runs), through one reused buffer
    each, the slabs read through _payload.  Every check of qtensor_read
    runs before ``dst`` is opened -- the header, the exact body length and
    every scale -- so a bad file fails before anything is written.  Each
    slab's scales are checked again as it is read back, so a file that
    changes in between fails too, though an output written in place, such
    as a pipe, may then have had part of the tensor."""
    with open(src, "rb") as fh:
        dims, axis, block_size, code = _read_fqz1_header(fh, src)
        read = _payload(fh, src, "blocks", _fqz1_body_length(dims, axis, block_size))
        buf = np.empty(max(part.stop - part.start for *_, part in
                           _slab_layout(dims, axis, block_size)), dtype=np.uint8)

        def checked():
            for _, _, slab in _slabs(
                    dims, axis, block_size, code,
                    lambda part: read(part.start, buf[:part.stop - part.start])):
                _check_scales(slab, src)
                yield slab

        for _ in checked():
            pass
        run = np.empty(_CHUNK, dtype=np.float32)
        with tensor_writer(dims, dst) as write:
            for slab in checked():
                for start, stop in _runs(slab.dims):
                    _dequantize_run(slab, start, run[:stop - start])
                    write(run[:stop - start])
