"""Blockwise absmax 4-bit quantization toolkit.

Codebook construction (NF4 variants, expected-L1-optimal AF4, balanced
uniform-usage codes), exact distribution numerics for absmax-normalized
Gaussian blocks, blockwise quantization with bit-exact packed storage, and
Monte Carlo validation of every analytic quantity.
"""

from .blockquant import (
    QuantizedTensor,
    dequantize,
    qtensor_read,
    qtensor_write,
    quantize,
    reconstruction_errors,
    tensor_read,
    tensor_write,
    usage_histogram,
)
from .codebook import (
    BinEdges,
    Code16,
    af4_code,
    balanced_code,
    balanced_code_with_endpoints,
    code_bin_masses,
    code_read,
    code_write,
    expected_l1,
    feasible_seed_interval,
    median_condition_residuals,
    nf4_code,
    stationarity_step,
    uniform_bins,
)
from .distributions import (
    ScaledMaxDistribution,
    absmax_median,
    absmax_pdf,
    fx_cdf,
    fx_cdf_approx,
    fx_quantile,
    halfnormal_quantile,
    normal_quantile,
    scaled_max_distribution,
    trunc_normal_cdf,
)
from .errors import (
    ConstructionError,
    DataError,
    DomainError,
    FormatError,
    NumericalError,
    QuantLabError,
)
from .montecarlo import (
    McConfig,
    empirical_cdf_stream,
    iter_sample_chunks,
    l1_statistics,
    sample_block_values,
    usage_statistics,
)

__version__ = "0.1.0"

__all__ = [
    "BinEdges",
    "Code16",
    "ConstructionError",
    "DataError",
    "DomainError",
    "FormatError",
    "McConfig",
    "NumericalError",
    "QuantLabError",
    "QuantizedTensor",
    "ScaledMaxDistribution",
    "absmax_median",
    "absmax_pdf",
    "af4_code",
    "balanced_code",
    "balanced_code_with_endpoints",
    "code_bin_masses",
    "code_read",
    "code_write",
    "dequantize",
    "empirical_cdf_stream",
    "expected_l1",
    "feasible_seed_interval",
    "fx_cdf",
    "fx_cdf_approx",
    "fx_quantile",
    "halfnormal_quantile",
    "iter_sample_chunks",
    "l1_statistics",
    "median_condition_residuals",
    "nf4_code",
    "normal_quantile",
    "qtensor_read",
    "qtensor_write",
    "quantize",
    "reconstruction_errors",
    "sample_block_values",
    "scaled_max_distribution",
    "stationarity_step",
    "tensor_read",
    "tensor_write",
    "trunc_normal_cdf",
    "uniform_bins",
    "usage_histogram",
    "usage_statistics",
]
