"""Exception types, and the checker every mapping the toolkit reads is held
to (one table of :class:`Field` entries per mapping, beside its owner).

The CLI maps these onto exit statuses: configuration/validation problems
exit 2, numerical failures exit 3, I/O problems exit 4.
"""

import copy
import sys
from collections.abc import Mapping
from numbers import Integral, Real
from typing import Callable, NamedTuple

import numpy as np


def is_finite_number(value) -> bool:
    """A real number that is finite as a float; bools are not numbers."""
    finite = isinstance(value, Real) and abs(value) <= sys.float_info.max
    return finite and not isinstance(value, bool)


def is_integer(value) -> bool:
    """An integer; bools are not integers."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def is_size(value) -> bool:
    """An integer >= 1, such as a width, a count or a length."""
    return is_integer(value) and value >= 1


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


REQUIRED = object()  # a field that must be given
ABSENT = object()  # a field that stays missing when not given


class Field(NamedTuple):
    """One entry of a field table: ``test(value)`` holds for a valid value,
    ``rule`` says in words what it demands, and ``default`` fills the field
    in when it is missing (unless it is ``REQUIRED`` or ``ABSENT``)."""

    test: Callable[[object], bool]
    rule: str
    default: object = ABSENT


# entries that several tables share
SIZE = Field(is_size, "an integer >= 1")
POSITIVE = Field(lambda v: is_finite_number(v) and v > 0, "a finite number > 0")
NON_NEGATIVE = Field(lambda v: is_finite_number(v) and v >= 0, "a finite number >= 0")
SEED = Field(lambda v: is_integer(v) and 0 <= v < 2**64, "an integer in [0, 2**64)")


def _plain(value):
    """``value`` with every numpy scalar in it, inside lists, tuples and
    dicts too, turned into the Python ``int``, ``float`` or ``bool`` it
    holds, so that JSON can write it."""
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, list):
        return list(map(_plain, value))
    if isinstance(value, tuple):
        return tuple(map(_plain, value))
    if isinstance(value, dict):
        return {key: _plain(v) for key, v in value.items()}
    return value


def check(mapping, table: dict, what: str, tag: str | None = None) -> dict:
    """``mapping`` as a new dict with the table's defaults filled in, or
    ``ConfigurationError`` unless it holds only the table's fields, every
    required one among them, each passing its test.  Numpy scalars in the
    values become Python ones (see ``_plain``) before they are tested.
    With a ``tag``, ``table`` maps each allowed value of ``mapping[tag]``
    to its table."""
    if not isinstance(mapping, Mapping):
        raise ConfigurationError(f"{what} must be a mapping, not {type(mapping).__name__}")
    if tag is not None:
        name = mapping.get(tag)
        if name not in tuple(table):
            raise ConfigurationError(f"{what} {tag} must be one of {tuple(table)}, not {name!r}")
        table = {tag: Field(lambda v: True, "the tag"), **table[name]}
        what = f"{what} ({name})"
    unknown = sorted(map(str, mapping.keys() - table.keys()))
    if unknown:
        raise ConfigurationError(f"{what} has unknown fields {unknown}; it takes {list(table)}")
    d = {key: _plain(value) for key, value in mapping.items()}
    for key, field in table.items():
        if key not in d:
            if field.default is REQUIRED:
                raise ConfigurationError(f"{what} needs {key!r}, {field.rule}")
            if field.default is ABSENT:
                continue
            d[key] = copy.deepcopy(field.default)
        if not field.test(d[key]):
            raise ConfigurationError(f"{what} field {key!r} must be {field.rule}, not {d[key]!r}")
    return d
