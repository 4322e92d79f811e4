"""Exception types shared across the package, and the one block-size rule.

The CLI maps these onto exit codes, so library code should raise the most
specific type that applies rather than bare ValueError/RuntimeError.
"""

import numbers


class QuantLabError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(QuantLabError, ValueError):
    """An argument is outside the mathematical domain of an operation."""


class DataError(QuantLabError, ValueError):
    """Input data is invalid (e.g. non-finite values in a tensor)."""


class FormatError(QuantLabError, ValueError):
    """A file does not conform to its declared binary or text format."""


class NumericalError(QuantLabError, RuntimeError):
    """A numerical procedure failed to converge within its budget."""


class ConstructionError(NumericalError):
    """A code construction (shooting/seed search) could not be completed."""


def check_block_size(block_size):
    """block_size as an int; DomainError unless it is an integer >= 1.

    Python and numpy integers pass; bools, floats and strings do not.
    """
    if isinstance(block_size, bool) or not isinstance(block_size, numbers.Integral):
        raise DomainError(f"block size must be an integer, got {block_size!r}")
    if block_size < 1:
        raise DomainError(f"block size must be >= 1, got {block_size}")
    return int(block_size)
