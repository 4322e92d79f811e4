"""Exception types shared across the package, the argument rules that say
what every module takes as a number (``_check_integer``, ``_check_real``,
``_real``), and the one way an output file is written (``output_file``).

The CLI maps these onto exit codes, so library code should raise the most
specific type that applies rather than bare ValueError/RuntimeError.
"""

import contextlib
import numbers
import os
import stat

import numpy as np


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


def check_block_size(block_size, maximum=None):
    """block_size as an int; DomainError unless it is an integer >= 1, and
    <= maximum if given.

    Python and numpy integers pass; bools, floats and strings do not.
    """
    return _check_integer(block_size, "block size", 1, maximum)


def _check_integer(value, name, minimum=None, maximum=None):
    """value as an int; DomainError unless it is an integer (not a bool)
    of at least minimum and at most maximum, each if given."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise DomainError(f"{name} must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise DomainError(f"{name} must be <= {maximum}, got {value}")
    return int(value)


def _check_real(value, name):
    """value as a float if it is one real number, not NaN; else DomainError."""
    if not isinstance(value, float) and (not isinstance(value, numbers.Number)
                                         or np.iscomplexobj(value)):
        value = _real(value, name)  # a 0-d array passes; a complex number does not
    try:
        value = float(value)
    except (TypeError, ValueError, OverflowError) as exc:  # e.g. [0.5], 10**400
        raise DomainError(f"{name}: expected one real number ({exc})") from None
    if value != value:
        raise DomainError(f"{name} must be a number, got nan")
    return value


def _real(values, name):
    """values as an array of bool, integer or float dtype, else DomainError."""
    try:
        arr = np.asarray(values)
    except ValueError:  # ragged nesting
        raise DomainError(f"{name}: ragged nesting, not real numbers") from None
    if arr.dtype.kind not in "biuf":
        raise DomainError(f"{name}: expected real numbers, got dtype {arr.dtype}")
    return arr


@contextlib.contextmanager
def output_file(path):
    """A binary file whose bytes replace ``path`` only if the block ends
    without an exception.  They go to a new sibling file, which replaces
    ``path`` on success and is removed on any failure, so a failed write
    leaves neither a partial file nor a changed ``path``.  A new file gets
    the umask's permissions, and a rewritten regular file keeps its own.  An
    existing path that is not a regular file, such as a device, a pipe or
    /dev/stdout on one, is written in place; a symbolic link is written
    through."""
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "wb") as fh:
            yield fh
        return
    target = os.path.realpath(path)
    head, tail = os.path.split(target)
    tmp = os.path.join(head, f".{tail}.{os.urandom(6).hex()}.tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:  # name the path asked for, not the sibling
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    try:
        with open(fd, "wb") as fh:
            if os.path.isfile(target):
                os.fchmod(fd, stat.S_IMODE(os.stat(target).st_mode))
            yield fh
        os.replace(tmp, target)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
