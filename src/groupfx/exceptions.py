"""Exception hierarchy for groupfx.

All library errors derive from :class:`GroupFxError` so callers (and the CLI)
can distinguish data/model problems from programming errors.
"""


class GroupFxError(Exception):
    """Base class for all groupfx errors."""


class DimensionMismatchError(GroupFxError):
    """Inputs have inconsistent or ragged shapes."""


class SingularDesignError(GroupFxError):
    """The design matrix is numerically singular (or n <= q)."""


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
    """An eigendecomposition failed or found X'X not positive definite."""


class RadiusTooSmallError(GroupFxError):
    """Sphere radius is smaller than the hyperplane's minimum-norm distance."""


class ZeroWeightError(GroupFxError):
    """Weight vector is identically zero."""


class DataFormatError(GroupFxError):
    """Input data file is malformed (missing values, bad header, ...)."""


class InvalidParameterError(GroupFxError, ValueError):
    """A parameter lies outside its valid range (also a ``ValueError``)."""


class UsageError(GroupFxError):
    """Invalid command-line invocation (exit status 2)."""
