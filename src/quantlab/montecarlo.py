"""Reproducible sampling from the absmax-normalization generative process.

Blocks of standard normals are produced by a counter-based stream (Philox)
keyed on the run seed, with block k owning the counter range
[k * ceil(B/4), (k+1) * ceil(B/4)).  Every block is therefore reproducible
in isolation and the sampled values never depend on how the run is chunked
or parallelized.  Normals come from inverting the Gaussian CDF on uniform
64-bit draws, which is slower than ziggurat-style samplers but exactly
reproducible across platforms.  Samples are plain (blocks, B) arrays.

Within one block the normalized entries are dependent (they share the
absmax divisor).  The CDF estimator therefore keeps one designated entry
per block (entry 0), which makes its binomial error valid; the usage and
L1 estimators report standard errors clustered by block.  All three run on
one chunked driver, ``_block_moments``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from . import blockquant
from .blockquant import UsageHistogram
from .distributions import _check_block_size
from .errors import DomainError

# Elements per generated chunk; only batching depends on it, never values.
CHUNK_ELEMENTS = 1 << 21
# Largest block size McConfig accepts: one block fits in one default chunk.
MAX_BLOCK_SIZE = 1 << 21


@dataclass(frozen=True)
class McConfig:
    """Deterministic sampling plan: num_blocks blocks of block_size normals
    from the stream keyed on seed.  block_size is an integer from 1 to
    MAX_BLOCK_SIZE."""

    seed: int
    block_size: int
    num_blocks: int

    def __post_init__(self):
        if _check_block_size(self.block_size) > MAX_BLOCK_SIZE:
            raise DomainError(
                f"block size must be <= {MAX_BLOCK_SIZE}, got {self.block_size}")
        if self.num_blocks < 1:
            raise DomainError("num_blocks must be >= 1")
        object.__setattr__(self, "seed", int(self.seed) % (1 << 64))


def _raw_block_range(seed, block_size, start, stop):
    """Uniform draws for absolute blocks [start, stop), shape (n, B)."""
    states_per_block = -(-block_size // 4)
    bg = np.random.Philox(key=seed)
    if start:
        bg.advance(start * states_per_block)
    n = stop - start
    raw = bg.random_raw(n * states_per_block * 4)
    raw = raw.reshape(n, states_per_block * 4)[:, :block_size]
    return (raw.astype(np.float64) + 0.5) * 2.0**-64


def sample_block_values(cfg, start=0, stop=None):
    """Normalized values for blocks [start, stop) of the run, shape
    (stop-start, B); every row's absmax is exactly 1."""
    if stop is None:
        stop = cfg.num_blocks
    if not 0 <= start <= stop <= cfg.num_blocks:
        raise DomainError(f"invalid block range [{start}, {stop})")
    if start == stop:
        return np.empty((0, cfg.block_size))
    u = _raw_block_range(cfg.seed, cfg.block_size, start, stop)
    z = ndtri(u)
    absmax = np.abs(z).max(axis=1)
    # The extreme entry divides to exactly +/-1; everything else stays
    # strictly inside (-1, 1) after rounding.
    return z / absmax[:, None]


def iter_sample_chunks(cfg):
    """Yield the run as consecutive (blocks, B) arrays of about
    CHUNK_ELEMENTS elements (at least one block each)."""
    step = max(1, CHUNK_ELEMENTS // cfg.block_size)
    for start in range(0, cfg.num_blocks, step):
        yield sample_block_values(cfg, start, min(start + step, cfg.num_blocks))


def empirical_cdf_stream(cfg, xs):
    """Empirical P[X <= x] for each x in xs, from entry 0 of every block,
    with its binomial standard error: (p, stderr) arrays aligned with xs.

    Entry 0 is i.i.d. across blocks; counting every entry would report an
    error that understates the truth, since entries within a block are
    dependent.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    counts, _ = _block_moments(cfg, lambda v: v[:, :1] <= xs)
    n = cfg.num_blocks
    p = counts / n
    stderr = np.sqrt(p * (1.0 - p) / n)
    return p, stderr


def _block_moments(cfg, per_block):
    """Sum over the blocks of cfg of per_block(chunk values) -- one value or
    row per block -- and the standard error of its mean (NaN for one block).

    Integer-valued results (counts) sum exactly, whatever the chunking;
    float results round by chunk in their last bits."""
    total = sq = 0.0
    for values in iter_sample_chunks(cfg):
        s = per_block(values)
        total = total + s.sum(axis=0)
        sq = sq + (s * s).sum(axis=0)
        # Release this chunk before the generator draws the next one, so
        # that two chunks are never alive at once.
        del values, s
    nb = cfg.num_blocks
    if nb < 2:
        return total, np.full(np.shape(total), np.nan)
    var = (sq - total * total / nb) / (nb - 1)
    return total, np.sqrt(np.maximum(var, 0.0) / nb)


@dataclass(frozen=True)
class UsageStats:
    """Usage histogram plus block-clustered standard errors.

    stderr is the standard error of each proportion computed from the
    spread of per-block proportions, which stays valid despite the
    within-block dependence of the samples.  It is NaN when num_blocks is 1.
    """

    histogram: UsageHistogram
    stderr: np.ndarray
    num_blocks: int

    @property
    def proportions(self):
        return self.histogram.proportions


def usage_statistics(code, block_size, num_blocks, seed):
    """Quantize sampled blocks and tally code usage with clustered errors."""
    cfg = McConfig(seed, block_size, num_blocks)

    def counts(values):
        # Sampled rows have absmax exactly 1: quantizing is nearest_index.
        idx = blockquant.nearest_index(values, code.values)
        idx = idx + 16 * np.arange(len(idx))[:, None]
        return np.bincount(idx.ravel(), minlength=16 * len(idx)).reshape(
            -1, 16).astype(np.float64)

    total, stderr = _block_moments(cfg, counts)
    hist = UsageHistogram(tuple(int(c) for c in total), int(total.sum()))
    return UsageStats(histogram=hist, stderr=stderr / block_size,
                      num_blocks=cfg.num_blocks)


def l1_statistics(code, block_size, num_blocks, seed):
    """(mean, clustered stderr) of the distance to the nearest code value
    over sampled blocks; the stderr is NaN when num_blocks is 1."""
    cfg = McConfig(seed=seed, block_size=block_size, num_blocks=num_blocks)
    q = code.values

    def block_means(values):
        return np.abs(values - q[blockquant.nearest_index(values, q)]).mean(axis=1)

    total, stderr = _block_moments(cfg, block_means)
    return float(total / cfg.num_blocks), float(stderr)


def ci_halfwidth(p, n, z=1.96):
    """Normal-approximation confidence halfwidth z * sqrt(p(1-p)/n)."""
    if n < 1:
        raise DomainError("n must be >= 1")
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"p must be in [0, 1], got {p}")
    return z * math.sqrt(p * (1.0 - p) / n)
