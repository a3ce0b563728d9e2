"""Exception types and the numeric-setting check shared across the package."""

import dataclasses
import math
import numbers

import numpy as np


class ContactFitError(Exception):
    """Base class for all contactfit errors."""


class ParameterError(ContactFitError):
    """Inputs have inconsistent dimensions or invalid values."""


class GeometryError(ContactFitError):
    """Degenerate or invalid mesh geometry (zero-area faces, non-unit normals)."""


class ProjectionError(ContactFitError):
    """Point cannot be projected (non-positive depth after extrinsics)."""


class GranularityError(ContactFitError):
    """Region granularities of two inputs do not match."""


class CodecError(ContactFitError):
    """A file could not be parsed. Carries the offending file and field."""

    def __init__(self, message, path=None, field=None):
        self.path = path
        self.field = field
        prefix = ""
        if path is not None:
            prefix += f"{path}: "
        if field is not None:
            prefix += f"field '{field}': "
        super().__init__(prefix + message)


class OptimizationError(ContactFitError):
    """The optimizer hit a non-finite loss or an invalid configuration."""


def check_number(name, value, kind):
    """`value` of the setting `name` as a `kind` (int or float). A bool, a
    non-number, a NaN or an infinity, or for an int a fractional value, is a
    ParameterError naming the setting."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value) or (kind is int and value != int(value))):
        what = "integer" if kind is int else "number"
        raise ParameterError(f"{name} must be a finite {what}, got {value!r}")
    return kind(value)


def check_integers(name, values):
    """`values` of the field `name` as an int array: `check_number(…, int)`
    of every entry. An integer ndarray is taken as it is, with no pass over
    its entries. Any other input, a list of ints included, is checked entry
    by entry with each entry's own type, so a bool in a list is a
    ParameterError as a bool array is."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "iu":
        return values.astype(int, copy=False)
    values = np.array(values, dtype=object)
    for value in values.ravel().tolist():
        # check_number passes a plain int as it is; skipping it makes the
        # 2,775 pairs of a 75-region prediction dict six times cheaper
        if type(value) is not int:
            check_number(name, value, int)
    return values.astype(int)


def check_settings(settings):
    """Set each field of a settings dataclass to `check_number` of its value
    against the type of the field's default."""
    for f in dataclasses.fields(settings):
        object.__setattr__(settings, f.name, check_number(
            f.name, getattr(settings, f.name), type(f.default)))
