"""Reproducible sampling from the absmax-normalization generative process.

Blocks of standard normals are produced by a counter-based stream (Philox)
keyed on the run seed, with block k owning the counter range
[k * ceil(B/4), (k+1) * ceil(B/4)).  Every block is therefore reproducible
in isolation and results never depend on how the run is chunked or
parallelized.  Normals come from inverting the Gaussian CDF on uniform
64-bit draws, which is slower than ziggurat-style samplers but exactly
reproducible across platforms.

Within one block the normalized entries are dependent (they share the
absmax divisor), so estimators either retain a single designated entry per
block (``independent_only``) or report block-clustered standard errors.
The two clustered estimators, ``usage_statistics`` and ``l1_statistics``,
share one chunked driver, ``_block_moments``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import ndtri

from . import blockquant
from .blockquant import UsageHistogram
from .errors import DomainError

DEFAULT_CHUNK_ELEMENTS = 1 << 21


@dataclass(frozen=True)
class McConfig:
    """Deterministic sampling plan.

    chunk_size (blocks per generated chunk) only affects batching, never
    values.  block_offset shifts which absolute block indices this config
    covers, so sub-ranges of a larger run can be regenerated exactly.
    """

    seed: int
    block_size: int
    num_blocks: int
    chunk_size: int | None = None
    block_offset: int = 0

    def __post_init__(self):
        if self.block_size < 1:
            raise DomainError("block_size must be >= 1")
        if self.num_blocks < 1:
            raise DomainError("num_blocks must be >= 1")
        if self.block_offset < 0:
            raise DomainError("block_offset must be >= 0")
        if self.chunk_size is None:
            object.__setattr__(
                self,
                "chunk_size",
                max(1, DEFAULT_CHUNK_ELEMENTS // self.block_size),
            )
        if self.chunk_size < 1:
            raise DomainError("chunk_size must be >= 1")
        object.__setattr__(self, "seed", int(self.seed) % (1 << 64))


@dataclass(frozen=True, eq=False)
class SampleBatch:
    """Normalized samples, one row per block; row maxima are exactly +/-1."""

    config: McConfig
    values: np.ndarray

    @property
    def independent_samples(self):
        """The designated per-block entry (position 0), i.i.d. across blocks."""
        return self.values[:, 0]


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
    """Values for blocks [start, stop) of the run, shape (stop-start, B).

    Counting is relative to the config; block_offset is applied on top.
    """
    if stop is None:
        stop = cfg.num_blocks
    if not 0 <= start <= stop <= cfg.num_blocks:
        raise DomainError(f"invalid block range [{start}, {stop})")
    if start == stop:
        return np.empty((0, cfg.block_size))
    lo = cfg.block_offset + start
    hi = cfg.block_offset + stop
    u = _raw_block_range(cfg.seed, cfg.block_size, lo, hi)
    z = ndtri(u)
    absmax = np.abs(z).max(axis=1)
    # The extreme entry divides to exactly +/-1; everything else stays
    # strictly inside (-1, 1) after rounding.
    return z / absmax[:, None]


def sample_blocks(cfg):
    """Materialize the whole run as one SampleBatch."""
    return SampleBatch(config=cfg, values=sample_block_values(cfg))


def iter_sample_chunks(cfg):
    """Yield the run as chunk_size-block SampleBatches (values identical to
    sample_blocks; only the batching differs)."""
    for start in range(0, cfg.num_blocks, cfg.chunk_size):
        stop = min(start + cfg.chunk_size, cfg.num_blocks)
        sub = replace(
            cfg,
            num_blocks=stop - start,
            block_offset=cfg.block_offset + start,
            chunk_size=cfg.chunk_size,
        )
        yield SampleBatch(config=sub, values=sample_block_values(cfg, start, stop))


def empirical_cdf(batch, x, independent_only=True):
    """Empirical P[X <= x] with its binomial standard error.

    With independent_only the estimate uses one designated sample per block,
    making the binomial error valid.  With all samples the estimate is
    labeled the same way but the dependence within blocks means the reported
    error understates the truth.
    """
    if batch.values.size == 0:
        raise DomainError("empty sample batch")
    data = batch.independent_samples if independent_only else batch.values.ravel()
    n = data.size
    p = float(np.count_nonzero(data <= x)) / n
    stderr = math.sqrt(p * (1.0 - p) / n)
    return p, stderr


def empirical_cdf_stream(cfg, xs, independent_only=True):
    """Chunked empirical_cdf over a full config, for runs too big to hold.

    Returns (p, stderr) arrays aligned with xs.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    counts = np.zeros(xs.shape, dtype=np.int64)
    n = 0
    for chunk in iter_sample_chunks(cfg):
        data = (
            chunk.independent_samples if independent_only else chunk.values.ravel()
        )
        counts += (data[:, None] <= xs[None, :]).sum(axis=0)
        n += data.size
    p = counts / n
    stderr = np.sqrt(p * (1.0 - p) / n)
    return p, stderr


def _block_moments(cfg, per_block):
    """Sum over the blocks of cfg of per_block(chunk values) -- one value or
    row per block -- and the standard error of its mean (NaN for one block)."""
    total = sq = 0.0
    for chunk in iter_sample_chunks(cfg):
        s = per_block(chunk.values)
        total = total + s.sum(axis=0)
        sq = sq + (s * s).sum(axis=0)
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


def usage_statistics(code, block_size, num_blocks, seed, chunk_size=None):
    """Quantize sampled blocks and tally code usage with clustered errors."""
    cfg = McConfig(seed, block_size, num_blocks, chunk_size)

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


def estimate_usage(code, block_size, num_blocks, seed, chunk_size=None):
    """UsageHistogram of a code over sampled blocks (deterministic in seed)."""
    return usage_statistics(code, block_size, num_blocks, seed, chunk_size).histogram


def ci_halfwidth(p, n, z=1.96):
    """Normal-approximation confidence halfwidth z * sqrt(p(1-p)/n)."""
    if n < 1:
        raise DomainError("n must be >= 1")
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"p must be in [0, 1], got {p}")
    return z * math.sqrt(p * (1.0 - p) / n)
