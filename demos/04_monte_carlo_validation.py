# Every analytic quantity in this package can be checked by simulation:
# draw blocks of normals, divide by the block absmax, and compare.  The
# sampler is counter-based (Philox keyed per block), so any sub-range of a
# run reproduces exactly, no matter how it is chunked.

import numpy as np

from quantlab import (
    McConfig,
    balanced_code,
    empirical_cdf_stream,
    feasible_seed_interval,
    fx_cdf,
    nf4_code,
    sample_block_values,
    uniform_bins,
    usage_statistics,
)

# --- the generative process ---------------------------------------------------
cfg = McConfig(seed=2024, block_size=32, num_blocks=1 << 16)
v = sample_block_values(cfg)  # one row per block
print(f"{cfg.num_blocks} blocks of {cfg.block_size}")
print(f"  exactly one |x| = 1 per block: {bool((np.abs(v) == 1.0).sum(1).all())}")
print(f"  share of entries at -1: {np.mean(v == -1.0):.5f}  (expect {1/64:.5f})")

# Determinism: the same config always produces identical bits.
again = sample_block_values(cfg)
print(f"  re-draw identical: {np.array_equal(v, again)}")
# ... and any sub-range of blocks reproduces on its own.
part = sample_block_values(cfg, 1000, 1010)
print(f"  blocks 1000-1009 alone identical: {np.array_equal(v[1000:1010], part)}")

# --- empirical CDF vs the exact mixed CDF --------------------------------------
# One retained sample per block (entry 0) keeps the binomial error bar
# honest; the estimate streams over the run in cache-sized batches.
print("\nempirical vs exact CDF (B=32):")
xs = (-0.5, 0.0, 0.5, 0.9)
for x, p, se in zip(xs, *empirical_cdf_stream(cfg, xs)):
    exact = fx_cdf(x, 32)
    print(f"  x={x:+.1f}: {p:.5f} +- {se:.5f}   exact {exact:.5f}   "
          f"z = {(p - exact) / se:+.2f}")

# --- usage histograms -----------------------------------------------------------
# NF4 does NOT use its 16 values equally; a balanced code does.  Like the
# CDF above, every estimator takes a McConfig and returns (estimate, stderr).
cfg = McConfig(seed=7, block_size=64, num_blocks=1 << 15)
nf4_props, _ = usage_statistics(cfg, nf4_code())
print("\nNF4 usage at B=64 (%):")
print("  " + " ".join(f"{100 * p:.1f}" for p in nf4_props))

B = 4096
bins = uniform_bins(B)
lo, hi = feasible_seed_interval(bins)
balanced = balanced_code(0.5 * (lo + hi), bins, block_size=B)
cfg = McConfig(seed=7, block_size=B, num_blocks=1 << 9)
props, stderr = usage_statistics(cfg, balanced)
dev = np.abs(props - 1 / 16)
print(f"\nbalanced code at B={B}: max |usage - 6.25%| = {dev.max():.2e} "
      f"(4 sigma = {4 * stderr.max():.2e})")

# The CLI wraps these comparisons with an assertion gate:
#   quantlab validate usage --kind nf4 --block-size 64 --n 65536 --csv --assert
