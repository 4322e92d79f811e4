# Constructing 16-value codes: NF4, AF4, and balanced codes.
#
# Every code here lives on [-1, 1] and is scored by the expected absolute
# reconstruction error under the block-size-dependent law of normalized
# inputs.  The punchline: quantile-based NF4 ignores the block size, the
# expected-L1-optimal AF4 adapts to it, and exactly-uniform usage is
# possible but not desirable.

import os
import tempfile

import numpy as np

from quantlab import (
    af4_code,
    balanced_code,
    balanced_code_with_endpoints,
    code_bin_masses,
    code_write,
    expected_l1,
    feasible_seed_interval,
    median_condition_residuals,
    nf4_code,
    uniform_bins,
)


def show(name, code):
    vals = ", ".join(f"{v:+.4f}" for v in code.values)
    print(f"{name}:\n  [{vals}]")


# --- NF4: Gaussian quantiles, block-size independent -------------------------
nf4 = nf4_code("quantile_of_average")
show("NF4 (quantile of averaged probabilities)", nf4)
nf4_alt = nf4_code("average_of_quantile")
gap = np.abs(nf4.values - nf4_alt.values).max()
print(f"  the other construction variant differs by at most {gap:.2e}\n")

# --- AF4: expected-L1 stationary codes ---------------------------------------
# Each interior value must be the median of its nearest-value bin; solving
# the resulting recurrence with -1, 0, 1 pinned gives one code per block
# size.  Larger blocks concentrate the inputs, so the values pull inward.
for B in (64, 1024, 4096):
    af4 = af4_code(B)
    residual = median_condition_residuals(af4, B).max()
    show(f"AF4-{B} (max stationarity residual {residual:.1e})", af4)
print()

# --- scoring: expected absolute reconstruction error -------------------------
print("expected |X - nearest(X)| under the normalized-input law:")
print(f"{'B':>6}  {'NF4':>10}  {'AF4-B':>10}")
for B in (64, 1024, 4096):
    print(f"{B:>6}  {expected_l1(nf4, B):>10.6f}  {expected_l1(af4_code(B), B):>10.6f}")
print("-> AF4 wins at large B; at B=64 the two nearly tie\n")

# --- balanced codes: exactly uniform usage -----------------------------------
# Put bin edges at the 1/16-quantiles of the law and reflect a seed value
# through them.  Any seed in a certain sub-interval of the first bin works.
B = 4096
bins = uniform_bins(B)
lo, hi = feasible_seed_interval(bins)
print(f"feasible balanced seeds for B={B}: [{lo:.4f}, {hi:.4f}]")
balanced = balanced_code(0.5 * (lo + hi), bins, block_size=B)
show("balanced (midpoint seed)", balanced)
masses = code_bin_masses(balanced, B)
print(f"  analytic usage of each value: {masses.min():.6f}..{masses.max():.6f}")

# Snapping the nearest values onto -1, 0, 1 (needed in practice) breaks the
# exact uniformity:
bwe = balanced_code_with_endpoints(B)
show("balanced with endpoints", bwe)
masses = code_bin_masses(bwe, B)
print(f"  usage now spans {masses.min():.6f}..{masses.max():.6f}")
print(f"  but its expected L1 error is {expected_l1(bwe, B):.6f} "
      f"vs {expected_l1(balanced, B):.6f} for the exactly-balanced one")

# Codes serialize to a small JSON document (code16/v1):
with tempfile.TemporaryDirectory() as td:
    path = os.path.join(td, "af4-64.json")
    code_write(af4_code(64), path)
    print(f"\nwrote af4-64.json ({os.path.getsize(path)} bytes)")
