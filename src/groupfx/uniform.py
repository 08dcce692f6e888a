"""Closed-form analytics for the uniform (equicorrelated) model.

A uniform model has p standardized predictors whose pairwise correlation is a
common constant r. Its Gram matrix inverse has a two-parameter closed form,
which makes every group-effect estimator variance available analytically:
the diagonal/off-diagonal inverse entries, the variance of an arbitrary
weighted effect, the average-effect and individual-effect special cases, and
the dispersion-parameterized variance used to delimit the estimable
neighborhood around the equal-weight effect.

All denominators are evaluated in the factored form (1-r)(1+(p-1)r) to avoid
cancellation near r = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import (
    BudgetTooSmallError,
    DegenerateCorrelationError,
    DimensionMismatchError,
    InvalidParameterError,
    NegativeDeltaError,
    _finite,
    _integer,
    _sequence,
    _vector,
)

# The eleven correlation levels of the reference variance table: 0, the
# exact fractions k/(k+1) for k = 1..9, and 0.999. The fractions are exact
# because the published variances were computed from them, not from their
# seven-decimal prints.
TABLE1_R_VALUES = (
    0.0,
    1.0 / 2.0,
    2.0 / 3.0,
    3.0 / 4.0,
    4.0 / 5.0,
    5.0 / 6.0,
    6.0 / 7.0,
    7.0 / 8.0,
    8.0 / 9.0,
    9.0 / 10.0,
    0.999,
)


@dataclass(frozen=True)
class UniformSpec:
    """An equicorrelated model: p variables, common correlation r, error
    variance sigma2. r = 0 is admitted as the orthogonal baseline."""

    p: int
    r: float
    sigma2: float = 1.0

    def __post_init__(self):
        p, r, sigma2 = _integer("p", self.p), _finite("r", self.r), _finite("sigma2", self.sigma2)
        if p < 2:
            raise InvalidParameterError(f"p must be an integer >= 2, got {self.p}", "p")
        if not (0.0 <= r < 1.0):
            raise DegenerateCorrelationError(
                f"common correlation must lie in [0, 1), got {self.r}"
            )
        if not (sigma2 > 0.0):
            raise InvalidParameterError(f"sigma2 must be positive, got {self.sigma2}", "sigma2")
        for name, value in (("p", p), ("r", r), ("sigma2", sigma2)):
            object.__setattr__(self, name, value)

    @property
    def denominator(self) -> float:
        """1 + (p-2)r - (p-1)r^2, in the factored form (1-r)(1+(p-1)r)."""
        return (1.0 - self.r) * (1.0 + (self.p - 1) * self.r)

    def matrix(self) -> np.ndarray:
        """The explicit p x p equicorrelation matrix."""
        R = np.full((self.p, self.p), self.r)
        np.fill_diagonal(R, 1.0)
        return R


@dataclass(frozen=True)
class UniformInverse:
    """Inverse of the equicorrelation matrix: t on the diagonal, v off it."""

    t: float
    v: float
    p: int
    r: float

    def matrix(self) -> np.ndarray:
        M = np.full((self.p, self.p), self.v)
        np.fill_diagonal(M, self.t)
        return M


def uniform_inverse(spec: UniformSpec) -> UniformInverse:
    """Closed-form inverse of the equicorrelation matrix.

    t = (1 + (p-2)r) / D and v = -r / D with D = (1-r)(1+(p-1)r). The r = 0
    case reduces to the identity (t = 1, v = 0).
    """
    d = spec.denominator
    t = (1.0 + (spec.p - 2) * spec.r) / d
    v = -spec.r / d
    return UniformInverse(t=t, v=v, p=spec.p, r=spec.r)


def effect_variance(spec: UniformSpec, w) -> float:
    """Variance of the minimum-variance unbiased estimator of the group
    effect with weights w (any real weights).

    Returns sigma2 * ([1+(p-2)r] sum w_i^2 - 2r sum_{i<j} w_i w_j) / D.
    """
    w = _vector("weights", getattr(w, "weights", w))
    if w.shape[0] != spec.p:
        raise DimensionMismatchError(f"expected {spec.p} weights, got {w.shape[0]}")
    sum_sq = float(w @ w)
    total = float(np.sum(w))
    cross = 0.5 * (total * total - sum_sq)  # sum over i < j of w_i w_j
    num = (1.0 + (spec.p - 2) * spec.r) * sum_sq - 2.0 * spec.r * cross
    return spec.sigma2 * num / spec.denominator


def average_effect_variance(spec: UniformSpec) -> float:
    """Variance of the equal-weight (average) effect estimator:
    sigma2 / (p + p(p-1)r). Strictly decreasing in r, limit sigma2/p^2."""
    return spec.sigma2 / (spec.p + spec.p * (spec.p - 1) * spec.r)


def individual_effect_variance(spec: UniformSpec) -> float:
    """Variance of a single-coefficient estimator: the diagonal entry
    sigma2 * (1+(p-2)r) / D. Strictly increasing in r, diverging at r = 1."""
    return spec.sigma2 * (1.0 + (spec.p - 2) * spec.r) / spec.denominator


def delta_variance(spec: UniformSpec, delta: float) -> float:
    """Effect-estimator variance as a function of the weight dispersion
    delta = p * sum w_i^2 - 1 (zero at equal weights, p-1 at a basis vector).

    Returns sigma2 * ((1-r) + delta * (1+(p-1)r)) / (p (1-r)(1+(p-1)r)),
    which is strictly increasing in delta for every fixed r.
    """
    if _finite("delta", delta) < 0.0:
        raise NegativeDeltaError(f"delta must be nonnegative, got {delta}")
    one_minus_r = 1.0 - spec.r
    bracket = 1.0 + (spec.p - 1) * spec.r
    num = one_minus_r + delta * bracket
    return spec.sigma2 * num / (spec.p * one_minus_r * bracket)


def estimable_delta_bound(spec: UniformSpec, var_budget: float) -> float:
    """Largest weight dispersion delta whose effect variance stays within
    ``var_budget``; the radius of the estimable neighborhood around the
    equal-weight effect.

    Inverts the delta-variance line in closed form:
    delta = (1-r) * (budget * p / sigma2 - 1 / (1+(p-1)r)).
    """
    floor = average_effect_variance(spec)
    if _finite("var_budget", var_budget) < floor * (1.0 - 1e-12):
        raise BudgetTooSmallError(
            f"budget {var_budget} is below the minimum variance {floor}"
        )
    bracket = 1.0 + (spec.p - 1) * spec.r
    delta = (1.0 - spec.r) * (var_budget * spec.p / spec.sigma2 - 1.0 / bracket)
    return max(delta, 0.0)


def table1(p: int, r_list=TABLE1_R_VALUES, sigma2: float = 1.0):
    """Average-effect and individual-effect variances over a grid of
    correlation levels.

    Returns a list of (r, var_avg, var_indiv) rows; the default grid
    reproduces the reference table for p = 8.
    """
    rows = []
    for r in _sequence("r_list", r_list):
        spec = UniformSpec(p=p, r=r, sigma2=sigma2)
        rows.append((spec.r, average_effect_variance(spec), individual_effect_variance(spec)))
    return rows
