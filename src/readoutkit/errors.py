"""Exception types, and the check for a finite number, shared across the toolkit.

The CLI maps these onto exit statuses: configuration/validation problems
exit 2, numerical failures exit 3, I/O problems exit 4.
"""

import sys
from numbers import Real


def is_finite_number(value) -> bool:
    """A real number that is finite as a float; bools are not numbers."""
    finite = isinstance(value, Real) and abs(value) <= sys.float_info.max
    return finite and not isinstance(value, bool)


class ReadoutKitError(Exception):
    """Base class for all readoutkit errors."""


class ConfigurationError(ReadoutKitError, ValueError):
    """A config object, descriptor, or parameter failed validation."""


class DataError(ReadoutKitError, ValueError):
    """Insufficient, degenerate, or oversized data for the requested fit."""


class IncompatibilityError(ReadoutKitError, ValueError):
    """A model was applied to data it was not trained for."""


class FileFormatError(ReadoutKitError, OSError):
    """A dataset or model file is unreadable, truncated, or corrupt."""


class NumericalError(ReadoutKitError, RuntimeError):
    """A numerical failure (NaN/overflow) during training or inference."""

    def __init__(self, message: str, batch_index: int | None = None):
        super().__init__(message)
        self.batch_index = batch_index
