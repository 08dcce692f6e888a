"""Exception hierarchy for groupfx.

All library errors derive from :class:`GroupFxError` so callers (and the CLI)
can distinguish data/model problems from programming errors.
"""


class GroupFxError(Exception):
    """Base class for all groupfx errors."""


class DimensionMismatchError(GroupFxError):
    """Inputs have inconsistent or ragged shapes."""


class SingularDesignError(GroupFxError):
    """The design is numerically singular (or n <= q), or its fit overflows."""


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
