"""Blockwise absmax 4-bit quantization toolkit.

Codebook construction (NF4 variants, expected-L1-optimal AF4, balanced
uniform-usage codes), exact distribution numerics for absmax-normalized
Gaussian blocks, blockwise quantization with bit-exact packed storage, and
Monte Carlo validation of every analytic quantity.

The public names are imported from their modules on first use, so
``import quantlab`` loads nothing else.
"""

import importlib

__version__ = "0.1.0"

# Module -> the public names it defines.
_EXPORTS = {
    "blockquant": """QuantizedTensor dequantize qtensor_read qtensor_write quantize
        reconstruction_errors tensor_read tensor_write usage_histogram""",
    "codebook": """BinEdges Code16 af4_code balanced_code balanced_code_with_endpoints
        code_bin_masses code_read code_write expected_l1 feasible_seed_interval
        median_condition_residuals nf4_code stationarity_step uniform_bins""",
    "distributions": """ScaledMaxDistribution absmax_median absmax_pdf fx_cdf
        fx_cdf_approx fx_quantile halfnormal_quantile normal_quantile
        scaled_max_distribution trunc_normal_cdf""",
    "errors": """ConstructionError DataError DomainError FormatError
        NumericalError QuantLabError""",
    "montecarlo": """McConfig empirical_cdf_stream l1_statistics sample_block_values
        usage_statistics""",
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_OWNER)


def __getattr__(name):
    # An unknown name raises AttributeError, so `from quantlab import
    # <submodule>` falls through to importing the submodule.
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
