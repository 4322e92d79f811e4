"""Reproducible sampling from the absmax-normalization generative process.

Blocks of standard normals are produced by a counter-based stream (Philox)
keyed on the run seed, with block k owning the counter range
[k * ceil(B/4), (k+1) * ceil(B/4)).  Every block is therefore reproducible
in isolation and the sampled values never depend on how the run is chunked
or parallelized.  Normals come from inverting the Gaussian CDF on uniform
64-bit draws, which is slower than ziggurat-style samplers but exactly
reproducible given the same numpy, scipy and libm.  Samples are plain
(blocks, B) arrays.

Every estimator takes a ``McConfig`` first and returns ``(estimate,
stderr)``.  Within one block the normalized entries are dependent (they
share the absmax divisor).  The CDF estimator therefore keeps one
designated entry per block (entry 0), which makes its binomial error
valid.  Every other per-block figure goes through one batch loop,
``block_moments``, and carries a standard error clustered by block: its
users are ``usage_statistics``, ``l1_statistics`` and the command line's
``mc sample``.

A chunk (``CHUNK_ELEMENTS``) is the summation group: float results are
summed chunk by chunk, which fixes their last bits.  A batch
(``_BATCH_ELEMENTS``, at least one block) is the working set, sized to stay
in a core's L2 cache; integer counts are summed batch by batch.  A batch
holds at most ``_BATCH_ELEMENTS // 16`` blocks, so a per-block row of 16
counts, or the CDF estimator's few values a block, take no more room than
the batch.

The CDF estimator never normalizes a whole block.  The map from a raw
draw to u is monotone, so a block's largest |z| comes from its smallest
or its largest raw draw, and ``ndtri`` runs on three draws per block:
entry 0 and the two extremes.  ``ndtri`` itself is monotone only up to
rounding, between doubles closer than a measured window; a block with
another draw that close to an extreme (about 2B * 2^-30 of the blocks)
takes its absmax from all of its entries.  Entry 0 therefore comes out
bit for bit as ``sample_block_values`` gives it, at about a third of the
cost.

Batches run on a pool of ``_THREADS`` threads, one per CPU the process
may use but no more than ``_MAX_THREADS`` (two), with at most one call a
thread alive at once (``_in_order``).  The CDF estimator hands the pool
each call's draws, ``_first_values``, sort and ``searchsorted``; its calls
alive share ``_MAX_THREADS`` batches, a whole batch a thread at the most
threads.  ``block_moments`` hands it the draws alone, its calls alive
sharing one batch, and runs ``per_block`` on the calling thread, batch by
batch in block order, since ``mc sample`` writes from inside it.  So
neither holds more at more threads.  The pool runs only private
functions, so a tracer that wraps the public ones sees every span on one
thread.  Nothing a thread does can move a result: each block's draws are
fixed by its counter range, counts are exact integers added in block
order, and float results are summed chunk by chunk as before.
"""

from __future__ import annotations

import contextlib
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from . import blockquant
from .codebook import _check_code
from .errors import DomainError, _check_integer, _real, check_block_size

# Elements per summation group (chunk).  The draws and every count taken
# from them are the same whatever it is; a float sum over chunks, as in
# l1_statistics, rounds by chunk and moves in its last bits with it.  So
# changing it moves the `validate l1` digits of runs longer than one chunk:
# a golden re-pin (tests/test_golden.py pins a four-chunk run).
CHUNK_ELEMENTS = 1 << 21
# Elements drawn and processed at once, shared among the threads; results
# do not depend on it.
_BATCH_ELEMENTS = 1 << 16
# Threads that run batches: the CPUs this process may run on, but at most
# _MAX_THREADS, which leaves a thread 2^15 elements of a batch of blocks of
# 16 or more (shares of 2^14 lost the pool's gain to hand-offs).  Results
# do not depend on it either.
_MAX_THREADS = max(1, _BATCH_ELEMENTS >> 15)
_THREADS = min(len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
               else os.cpu_count() or 1, _MAX_THREADS)
# Largest block size McConfig accepts: one block fits in one default chunk.
MAX_BLOCK_SIZE = 1 << 21


@dataclass(frozen=True)
class McConfig:
    """Deterministic sampling plan: num_blocks blocks of block_size normals
    from the stream keyed on seed.  All three are integers: block_size from
    1 to MAX_BLOCK_SIZE, num_blocks at least 1, and seed any (taken modulo
    2^64)."""

    seed: int
    block_size: int
    num_blocks: int

    def __post_init__(self):
        object.__setattr__(self, "block_size",
                           check_block_size(self.block_size, MAX_BLOCK_SIZE))
        object.__setattr__(self, "num_blocks",
                           _check_integer(self.num_blocks, "num_blocks", 1))
        object.__setattr__(self, "seed", _check_integer(self.seed, "seed") % (1 << 64))


def _raw_block_range(seed, block_size, start, stop):
    """Philox uint64 draws for absolute blocks [start, stop), shape (n, B)."""
    states_per_block = -(-block_size // 4)
    bg = np.random.Philox(key=seed)
    if start:
        bg.advance(start * states_per_block)
    n = stop - start
    raw = bg.random_raw(n * states_per_block * 4)
    return raw.reshape(n, states_per_block * 4)[:, :block_size]


# Every raw draw from 2^64 - 2^10 up rounds to 2^64 in float64, which would
# give u == 1.0 and ndtri == inf.  Clamped to 2^64 - 2^11, the double below,
# they give the largest u below 1 instead; no other draw moves.
_RAW_CLAMP = 2.0**64 - 2.0**11
_HI = int(np.little_endian)  # index of the high 32-bit half of a uint64


def _uniform(raw):
    """u = (raw + 0.5) * 2^-64 in (0, 1) for uint64 draws; monotone in raw."""
    # raw as float64 from its exact halves: one rounding, as numpy's cast
    # rounds it, in half the time on a batch.
    halves = raw[..., None].view(np.uint32)
    u = halves[..., _HI] * 2.0**32
    u += halves[..., 1 - _HI]
    np.minimum(u, _RAW_CLAMP, out=u)
    u += 0.5
    u *= 2.0**-64
    return u


def sample_block_values(cfg, start=0, stop=None):
    """Normalized values for blocks [start, stop) of the run, shape
    (stop-start, B); every row's absmax is exactly 1."""
    start = _check_integer(start, "start")
    stop = cfg.num_blocks if stop is None else _check_integer(stop, "stop")
    if not 0 <= start <= stop <= cfg.num_blocks:
        raise DomainError(f"invalid block range [{start}, {stop})")
    return _block_values(cfg, start, stop)


def _block_values(cfg, start, stop):
    """sample_block_values without its argument checks, for the pool."""
    z = ndtri(_uniform(_raw_block_range(cfg.seed, cfg.block_size, start, stop)))
    # The extreme entry divides to exactly +/-1; everything else stays
    # strictly inside (-1, 1) after rounding.
    return _normalize(z, np.abs(z).max(axis=1))


def _normalize(z, absmax):
    """z / absmax row by row, for (n, k) z and (n,) absmax.  A row whose
    absmax is 0 -- every draw of its block maps to u = 0.5 -- comes out all
    +1.0: each of its entries is an extreme, and +0 counts as positive."""
    zero = absmax == 0
    if zero.any():
        z[zero] = absmax[zero] = 1.0
    return z / absmax[:, None]


def _ranges(cfg, elements, start=0, stop=None):
    """(a, b) of consecutive block ranges of about `elements` elements (at
    least one block each) covering blocks [start, stop) of the run, by
    default all of it: its chunks or its batches."""
    stop = cfg.num_blocks if stop is None else stop
    step = max(1, elements // cfg.block_size)
    for a in range(start, stop, step):
        yield a, min(a + step, stop)


def _in_order(fn, ranges):
    """fn(a, b) for each (a, b) of ranges, in that order, from a pool of
    _THREADS threads with at most _THREADS calls alive, counting the result
    being consumed; the next call starts when the consumer asks for it."""
    with ThreadPoolExecutor(_THREADS) as pool:
        alive = deque()
        for a, b in ranges:
            alive.append(pool.submit(fn, a, b))
            if len(alive) == _THREADS:
                yield alive.popleft().result()
        while alive:
            yield alive.popleft().result()


# Raw units (2^-30 in u) within which ndtri is not trusted to be monotone.
# Measured: between nearby doubles ndtri decreases by at most 2^-50, and
# only across gaps below 2^13 raw units (2^-51 in u); across 2^-30 its true
# rise, at least sqrt(2 pi) * 2^-30, dwarfs any rounding.
_TIE_WINDOW = np.uint64(1 << 34)


def _tied_extremes(raw, lo, hi):
    """Rows of raw with a second draw within _TIE_WINDOW of the row's
    minimum lo or maximum hi (saturating: no bound wraps past 0 or 2^64)."""
    near_hi = raw >= (hi - np.minimum(hi, _TIE_WINDOW))[:, None]
    near_lo = raw <= (lo + np.minimum(~lo, _TIE_WINDOW))[:, None]
    # Each row meets both bounds at least once; ties are rare, so a count
    # over the whole chunk usually shows there is none.
    if np.count_nonzero(near_hi) + np.count_nonzero(near_lo) == 2 * len(raw):
        return np.zeros(len(raw), dtype=bool)
    return ((np.count_nonzero(near_hi, axis=1) > 1)
            | (np.count_nonzero(near_lo, axis=1) > 1))


def _first_values(raw):
    """Entry 0 of every normalized row of raw draws, bit for bit as
    sample_block_values gives it, from ndtri on entry 0 and the row's
    extreme draws (on the whole row where those are tied)."""
    lo = raw.min(axis=1)
    hi = raw.max(axis=1)
    z = ndtri(_uniform(np.stack([raw[:, 0], lo, hi], axis=1)))
    absmax = np.maximum(np.abs(z[:, 1]), np.abs(z[:, 2]))
    tied = _tied_extremes(raw, lo, hi)
    if tied.any():
        absmax[tied] = np.abs(ndtri(_uniform(raw[tied]))).max(axis=1)
    return _normalize(z[:, :1], absmax)[:, 0]


def empirical_cdf_stream(cfg, xs):
    """Empirical P[X <= x] for each x in xs, from entry 0 of every block,
    with its binomial standard error: (p, stderr) arrays aligned with xs.

    Entry 0 is i.i.d. across blocks; counting every entry would report an
    error that understates the truth, since entries within a block are
    dependent.
    """
    xs = np.atleast_1d(_real(xs, "xs")).astype(float)
    if np.isnan(xs).any():
        raise DomainError("xs must not contain NaN")

    def count(start, stop):
        first = _first_values(_raw_block_range(cfg.seed, cfg.block_size, start, stop))
        return np.searchsorted(np.sort(first), xs, side="right")

    # _MAX_THREADS batches shared among the threads, a whole batch a thread
    # at the most threads: a thread's share of one would multiply the
    # hand-offs, each over too little work.
    batch = _BATCH_ELEMENTS // max(cfg.block_size, 16) * cfg.block_size
    counts = np.zeros(xs.shape, dtype=np.int64)
    for c in _in_order(count, _ranges(cfg, _MAX_THREADS * batch // _THREADS)):
        counts += c
    n = cfg.num_blocks
    p = counts / n
    stderr = np.sqrt(p * (1.0 - p) / n)
    return p, stderr


def block_moments(cfg, per_block):
    """Sum over the blocks of cfg of per_block(batch values) -- one value or
    row per block -- and the standard error of its mean (NaN for one block).
    per_block sees each batch once, in block order.  Integer results sum
    exactly batch by batch; float results are summed chunk by chunk, so
    their last bits rest on CHUNK_ELEMENTS, never on the batch size."""
    total = sq = 0
    # At most _BATCH_ELEMENTS // 16 blocks: 16 counts a block fit in a batch.
    batch = _BATCH_ELEMENTS // _THREADS // max(cfg.block_size, 16) * cfg.block_size
    batches = ((a, b) for chunk in _ranges(cfg, CHUNK_ELEMENTS)
               for a, b in _ranges(cfg, batch, *chunk))
    draws = _in_order(lambda a, b: _block_values(cfg, a, b), batches)
    with contextlib.closing(draws):  # the pool ends here if per_block raises
        for start, stop in _ranges(cfg, CHUNK_ELEMENTS):
            floats = None  # this chunk's float results, summed once it is whole
            for a, b in _ranges(cfg, batch, start, stop):
                s = per_block(next(draws))
                if np.issubdtype(s.dtype, np.integer):
                    total, sq = total + s.sum(axis=0), sq + (s * s).sum(axis=0)
                else:
                    if floats is None:
                        floats = np.empty((stop - start,) + s.shape[1:], s.dtype)
                    floats[a - start:b - start] = s
                del s  # released before another batch is drawn
            if floats is not None:
                total = total + floats.sum(axis=0)
                floats *= floats  # squared in place: no second chunk-sized array
                sq = sq + floats.sum(axis=0)
    total, sq = np.asarray(total, dtype=float), np.asarray(sq, dtype=float)
    nb = cfg.num_blocks
    if nb < 2:
        return total, np.full(np.shape(total), np.nan)
    var = (sq - total * total / nb) / (nb - 1)
    return total, np.sqrt(np.maximum(var, 0.0) / nb)


def usage_statistics(cfg, code):
    """Share of the sampled entries nearest each code value, with standard
    errors clustered by block: (proportions, stderr), two arrays of 16."""
    _check_code(code)

    def counts(values):
        # Sampled rows have absmax exactly 1: quantizing is nearest_index.
        idx = blockquant.nearest_index(values, code)
        idx = idx + 16 * np.arange(len(idx))[:, None]
        return np.bincount(idx.ravel(), minlength=16 * len(idx)).reshape(-1, 16)

    total, stderr = block_moments(cfg, counts)
    return total / (cfg.num_blocks * cfg.block_size), stderr / cfg.block_size


def l1_statistics(cfg, code):
    """Mean distance of a sampled entry to its nearest code value, with the
    standard error clustered by block: (mean, stderr) floats."""
    q = _check_code(code).values

    def block_means(values):
        return np.abs(values - q[blockquant.nearest_index(values, code)]).mean(axis=1)

    total, stderr = block_moments(cfg, block_means)
    return float(total / cfg.num_blocks), float(stderr)
