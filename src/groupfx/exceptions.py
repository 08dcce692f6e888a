"""Exception hierarchy for groupfx.

All library errors derive from :class:`GroupFxError` so callers (and the CLI)
can distinguish data/model problems from programming errors. The private
checks at the end convert a caller's integers, numbers, sequences and vectors.
"""

import math
import numbers
import operator

import numpy as np


class GroupFxError(Exception):
    """Base class for all groupfx errors."""


class DimensionMismatchError(GroupFxError):
    """Inputs have inconsistent or ragged shapes."""


class SingularDesignError(GroupFxError):
    """The design is numerically singular (or n <= q), or its fit or a column's
    centered norm overflows."""


class ZeroVarianceError(GroupFxError):
    """A predictor column is constant, so it has no usable variability."""


class DegenerateCorrelationError(GroupFxError):
    """Common correlation parameter lies outside the valid range [0, 1)."""


class NegativeDeltaError(GroupFxError):
    """Weight-dispersion parameter must be nonnegative."""


class BudgetTooSmallError(GroupFxError):
    """Variance budget is below the attainable minimum."""


class GroupTooLargeError(GroupFxError):
    """Group size exceeds the exhaustive sign-search bound."""


class ConvergenceError(GroupFxError):
    """An iterative evaluation (the t tail's continued fraction) did not converge."""


class ZeroWeightError(GroupFxError):
    """Weight vector is identically zero."""


class DataFormatError(GroupFxError):
    """Input data file is malformed (missing values, bad header, ...)."""


class InvalidParameterError(GroupFxError, ValueError):
    """A parameter lies outside its valid range (also a ``ValueError``).
    ``name`` is the parameter's name when the error concerns one parameter,
    else None."""

    def __init__(self, message: str, name: str | None = None):
        super().__init__(message)
        self.name = name


class RadiusTooSmallError(InvalidParameterError):
    """Sphere radius is smaller than the hyperplane's minimum-norm distance."""


class UsageError(GroupFxError):
    """Invalid command-line invocation (exit status 2)."""


def _integer(name: str, value) -> int:
    """``value`` as an int; a bool or a non-integral value raises, naming
    the field."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise InvalidParameterError(f"{name} must be an integer, got {value!r}", name)


def _finite(name: str, value) -> float:
    """``value`` as a float; a bool, a non-real or a non-finite value
    raises, naming the field."""
    if type(value) is float and math.isfinite(value):  # the common case, without an ABC check
        return value
    if isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value):
        return float(value)
    raise InvalidParameterError(f"{name} must be a finite number, got {value!r}", name)


def _sequence(name: str, value) -> tuple:
    """The items of ``value`` as a tuple; a non-iterable raises, naming the
    field."""
    try:
        return tuple(value)
    except TypeError:
        raise InvalidParameterError(f"{name} must be a sequence, got {value!r}", name) from None


def _vector(name: str, value) -> np.ndarray:
    """``value`` as a flat float64 array, checked numeric (integer or real:
    not bool, string or object), non-empty and finite."""
    try:
        v = np.asarray(value)
    except (TypeError, ValueError):  # a ragged list
        v = None
    if v is None or v.dtype.kind not in "iuf":
        raise InvalidParameterError(f"{name} must be a vector of numbers, got {value!r}", name)
    v = v.astype(np.float64, copy=False).reshape(-1)
    if v.size == 0 or not np.isfinite(v).all():
        raise DimensionMismatchError(f"{name} must be a non-empty finite vector")
    return v
