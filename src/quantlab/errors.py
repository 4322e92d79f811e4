"""Exception types shared across the package, and the one integer rule
(block sizes, Monte Carlo seeds and block counts).

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
    return _check_integer(block_size, "block size", 1)


def _check_integer(value, name, minimum=None):
    """value as an int; DomainError unless it is an integer (not a bool)
    of at least minimum, if given."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise DomainError(f"{name} must be >= {minimum}, got {value}")
    return int(value)
