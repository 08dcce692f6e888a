"""Group effects for strongly correlated predictors.

Covers the sign arrangement that turns a strongly correlated group into an
all-positive-correlations (APC) configuration, construction of the
variability-weighted effect, estimation of arbitrary weighted effects with
exact variances and t tests (the t tail from the continued fraction of the
regularized incomplete beta function, in plain Python), the
eigendecomposition form of an effect variance, and the minimum-variance
normalized effect from its dual form, a maximization of s'Gs over sign
vectors s.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .exceptions import (
    ConvergenceError,
    DimensionMismatchError,
    GroupTooLargeError,
    InvalidParameterError,
    _finite,
    _integer,
    _vector,
)
from .linmod import CorrelationMatrix, OlsFit, _check_group

# Minimum |correlation| with the anchor variable that guarantees an APC
# arrangement exists (cos of a 45-degree half-angle cone).
APC_THRESHOLD = math.sqrt(2.0) / 2.0

# Exhaustive sign enumeration is capped at 2^(p-1) sign vectors.
MAX_OPTIMAL_GROUP = 20

# Sign vectors scored per block in optimal_effect, which bounds its scratch
# memory to ~13 MB at MAX_OPTIMAL_GROUP.
_SIGN_BLOCK = 1 << 14

_WEIGHT_TOL = 1e-10


def _group_size(p) -> int:
    """``p`` as an int, checked >= 1."""
    p = _integer("p", p)
    if p < 1:
        raise InvalidParameterError(f"p must be >= 1, got {p}")
    return p


@dataclass(frozen=True)
class WeightVector:
    """Simplex effect weights: nonnegative and summing to 1 (proper
    averages). Other weights go to :func:`estimate_effect` as plain arrays."""

    weights: np.ndarray

    def __post_init__(self):
        w = _vector("weights", self.weights)
        if w.min() < -_WEIGHT_TOL or abs(w.sum() - 1.0) > _WEIGHT_TOL:
            raise InvalidParameterError("simplex weights must be nonnegative and sum to 1")
        object.__setattr__(self, "weights", w)

    @classmethod
    def average(cls, p: int) -> "WeightVector":
        """The equal-weight vector (1/p, ..., 1/p)."""
        p = _group_size(p)
        return cls._on_simplex(np.full(p, 1.0 / p))

    @classmethod
    def basis(cls, p: int, j: int) -> "WeightVector":
        """The j-th unit basis vector (an individual effect), 0 <= j < p."""
        p, j = _group_size(p), _integer("j", j)
        if not 0 <= j < p:
            raise DimensionMismatchError(f"basis index {j} out of range for p={p}")
        w = np.zeros(p)
        w[j] = 1.0
        return cls._on_simplex(w)

    @classmethod
    def _on_simplex(cls, w: np.ndarray) -> "WeightVector":
        """A WeightVector around a flat float64 vector that is on the simplex
        by construction, without the checks of __post_init__ (they cost more
        than building a short vector)."""
        self = object.__new__(cls)
        object.__setattr__(self, "weights", w)
        return self


@dataclass(frozen=True)
class SignArrangement:
    """A choice of +-1 signs for the group's variables. The first entry is
    +1 by convention: the two globally flipped APC sets are equivalent."""

    signs: np.ndarray
    condition_met: bool = True
    anchor: int = 0

    def __post_init__(self):
        s = _vector("signs", self.signs)
        if not (np.abs(s) == 1.0).all():
            raise InvalidParameterError("signs must be +1 or -1")
        if s[0] != 1.0:
            raise InvalidParameterError("first sign must be +1 by convention")
        object.__setattr__(self, "signs", s)

    @property
    def p(self) -> int:
        return self.signs.shape[0]


@dataclass(frozen=True)
class EffectEstimate:
    """Point estimate of a group effect with its exact standard error and a
    two-sided t test against zero."""

    value: float
    variance: float
    std_error: float
    t_stat: float
    p_value: float
    dof: int


# The continued fraction stops when a step changes it by less than this.
_CF_EPS = 3e-16
# Lentz's guard against a zero denominator.
_CF_TINY = 1e-300
# Far above the at most ~60 terms the t tail needs at any dof from 1 to 1e15.
_CF_MAX_TERMS = 1000
# From this a up, the asymptotic series for ln Gamma(a + 1/2) - ln Gamma(a)
# is exact to double precision (its first omitted term is below 1e-16),
# while the difference of two lgamma values loses |lgamma(a)| * eps: ~2e-13
# at a = 512 and ~1e-10 at a = 5e5.
_LGAMMA_SERIES_A = 32.0
_HALF_LOG_PI = 0.5 * math.log(math.pi)


def _lgamma_half_ratio(a: float) -> float:
    """ln Gamma(a + 1/2) - ln Gamma(a)."""
    if a < _LGAMMA_SERIES_A:
        return math.lgamma(a + 0.5) - math.lgamma(a)
    # 1/2 ln a - 1/(8a) + 1/(192a^3) - 1/(640a^5) + 17/(14336a^7)
    u = 1.0 / (a * a)
    return 0.5 * math.log(a) - (
        0.125 - u * (1.0 / 192 - u * (1.0 / 640 - u * (17.0 / 14336)))) / a


def _beta_cf(a: float, b: float, x: float, y: float) -> float:
    """Continued fraction for I_x(a, b), with y = 1 - x formed directly;
    it converges fast for x < (a + 1) / (a + b + 2).

    The fraction is 1 / (1 + d_1 / (1 + d_2 / (1 + ...))) with
    d_(2m+1) = -(a + m)(a + b + m) x / ((a + 2m)(a + 2m + 1)) and
    d_(2m) = m (b - m) x / ((a + 2m - 1)(a + 2m)) (Numerical Recipes,
    section 6.4). Near x = 1 and at large a each 1 + d_(2m+1) is a
    difference of nearly equal numbers, so it is written as e_m = y + P_m x /
    ((a + 2m)(a + 2m + 1)), with P_m = a (1 - b) + m (2a + 2 - b + 3m); for
    b < 1 no term of it cancels. Pairing every odd term with the even term
    after it gives 1 - d_1 / T, T = e_0 + d_2 - d_2 d_3 / (e_1 + d_4 - d_4
    d_5 / (e_2 + d_6 - ...)), which the modified Lentz method evaluates."""
    qab = a + b
    ap = a + 1.0  # a + 2m + 1 in step m
    p0, p1 = a * (1.0 - b), 2.0 * a + 2.0 - b  # P_m = p0 + m (p1 + 3m)
    d_first = -qab * x / ap
    d_even = (b - 1.0) * x / (ap * (ap + 1.0))  # d_2
    f = y + (1.0 - b) * x / ap + d_even  # e_0 + d_2
    if -_CF_TINY < f < _CF_TINY:
        f = _CF_TINY
    c, d = f, 0.0
    for m in range(1, _CF_MAX_TERMS + 1):
        ap += 2.0
        x_den = x / ((ap - 1.0) * ap)
        alpha = d_even * (a + m) * (qab + m) * x_den  # -d_(2m) d_(2m+1)
        d_even = (m + 1) * (b - m - 1) * x / (ap * (ap + 1.0))
        beta = y + (p0 + m * (p1 + 3 * m)) * x_den + d_even
        d = beta + alpha * d
        if -_CF_TINY < d < _CF_TINY:
            d = _CF_TINY
        c = beta + alpha / c
        if -_CF_TINY < c < _CF_TINY:
            c = _CF_TINY
        d = 1.0 / d
        step = c * d
        f *= step
        if -_CF_EPS < step - 1.0 < _CF_EPS:
            return 1.0 - d_first / f
    raise ConvergenceError("t tail continued fraction did not converge")


def t_sf_two_sided(t: float, dof: int) -> float:
    """Two-sided tail probability P(|T| > |t|) for Student's t.

    P = I_x(a, 1/2), the regularized incomplete beta function with a = dof/2,
    x = dof / (dof + t^2) and y = 1 - x = t^2 / (dof + t^2) formed directly.
    For x < (a + 1) / (a + 2.5) it is evaluated from its continued fraction
    by the modified Lentz method (Numerical Recipes, section 6.4); otherwise
    as 1 - I_y(1/2, a), whose fraction converges there. The fraction takes
    every difference that cancels near x = 1 from y, so the error does not
    grow with dof, though x is rounded next to 1 there: against 40-digit
    mpmath references at 507 random points (dof from 1 to 10^12, |t| from
    0.01 to 300) the relative error stayed below 1.5e-13.
    """
    if _finite("dof", dof) <= 0.0:
        raise InvalidParameterError("degrees of freedom must be positive and finite")
    if not isinstance(t, numbers.Real) or math.isnan(t):
        raise InvalidParameterError(f"t must be a real number other than NaN, got {t!r}")
    t2 = t * t
    if t2 == 0.0:
        return 1.0
    a = 0.5 * dof
    x = dof / (dof + t2)
    y = t2 / (dof + t2) if t2 < math.inf else 1.0
    # log of x^a y^(1/2) / B(a, 1/2), with ln B(a, 1/2) = ln Gamma(1/2) -
    # (ln Gamma(a + 1/2) - ln Gamma(a))
    log_front = (-a * math.log1p(t2 / dof) + 0.5 * math.log(y)
                 - _HALF_LOG_PI + _lgamma_half_ratio(a))
    front = math.exp(log_front)
    if x < (a + 1.0) / (a + 2.5):
        return front * _beta_cf(a, 0.5, x, y) / a
    return 1.0 - 2.0 * front * _beta_cf(0.5, a, y, x)


def _worst_correlations(corr: CorrelationMatrix) -> np.ndarray:
    """Each variable's smallest |correlation| with the others: anchor a
    satisfies the APC condition when its entry exceeds sqrt(2)/2."""
    A = np.abs(corr.values)
    np.fill_diagonal(A, np.inf)
    return A.min(axis=1)


def check_apc_condition(corr: CorrelationMatrix, anchor: int = 0) -> bool:
    """True when every other variable's |correlation| with the anchor exceeds
    sqrt(2)/2, which guarantees an APC arrangement exists."""
    p, anchor = corr.p, _integer("anchor", anchor)
    if anchor < 0 or anchor >= p:
        raise DimensionMismatchError(f"anchor {anchor} out of range for p={p}")
    return bool(_worst_correlations(corr)[anchor] > APC_THRESHOLD)


def apc_arrangement(corr: CorrelationMatrix, anchor: int | None = None) -> SignArrangement:
    """Sign arrangement that makes the group's correlations all positive.

    Signs follow the anchor variable: sgn(corr(anchor, j)) for each j, with
    zero correlations kept at +1 and the whole vector flipped if needed so
    the first entry is +1. When no anchor is given, the first variable that
    satisfies the APC condition is used; if none qualifies, the anchor with
    the largest worst-case |correlation| is used and ``condition_met`` is
    False (the result is then not guaranteed to be APC).
    """
    p = corr.p
    if p < 2:
        raise DimensionMismatchError("a group needs at least two variables")

    scores = _worst_correlations(corr)
    if anchor is None:
        ok = scores > APC_THRESHOLD
        chosen = int(np.argmax(ok)) if ok.any() else int(np.argmax(scores))
        failure = "APC condition fails for every anchor"
    else:
        chosen = _integer("anchor", anchor)
        if chosen < 0 or chosen >= p:
            raise DimensionMismatchError(f"anchor {chosen} out of range for p={p}")
        failure = f"APC condition fails for anchor {chosen}"

    met = bool(scores[chosen] > APC_THRESHOLD)
    if not met:
        warnings.warn(
            f"{failure}; returned arrangement is not guaranteed to make "
            "all correlations positive",
            stacklevel=2,
        )

    row = corr.values[chosen]
    signs = np.where(row < 0.0, -1.0, 1.0)
    signs[chosen] = 1.0
    if signs[0] < 0:
        signs = -signs
    return SignArrangement(signs=signs, condition_met=met, anchor=chosen)


def variability_weights(corr: CorrelationMatrix) -> WeightVector:
    """Simplex weights proportional to each column's centered L2 norm:
    w_j = s_j / sum(s_i). Equal variability reduces to the equal-weight
    vector."""
    s = corr.column_sds
    return WeightVector(s / s.sum())


def estimate_effect(
    fit: OlsFit,
    group,
    w: WeightVector | np.ndarray,
    signs: SignArrangement | None = None,
) -> EffectEstimate:
    """Estimate the group effect sum_i signs_i w_i beta_{group(i)}.

    The variance is the exact quadratic form of the signed weights over the
    group block of sigma2_hat * (X'X)^{-1}; the p-value is a two-sided t
    test on the fit's residual degrees of freedom. Plain-array weights must
    be finite, as :class:`WeightVector` weights are.
    """
    idx = _check_group(group, fit.beta_hat.shape[0])
    wv = w.weights if isinstance(w, WeightVector) else _vector("weights", w)
    if wv.shape[0] != len(idx):
        raise DimensionMismatchError(f"{wv.shape[0]} weights for a group of {len(idx)}")
    sv = np.ones(len(idx)) if signs is None else signs.signs
    if sv.shape[0] != len(idx):
        raise DimensionMismatchError("sign arrangement does not match group size")

    wt = sv * wv
    value = float(wt @ fit.beta_hat[idx])
    cov_block = fit.cov[np.ix_(idx, idx)]
    variance = max(float(wt @ cov_block @ wt), 0.0)
    se = math.sqrt(variance)
    if se > 0.0:
        t = value / se
        p = t_sf_two_sided(t, fit.dof)
    else:
        # degenerate zero-variance fit (e.g. noiseless data)
        t = math.copysign(math.inf, value) if value != 0.0 else 0.0
        p = 0.0 if value != 0.0 else 1.0
    return EffectEstimate(
        value=value, variance=variance, std_error=se, t_stat=float(t),
        p_value=float(p), dof=fit.dof,
    )


def silvey_variance(fit: OlsFit, c) -> tuple[float, np.ndarray, np.ndarray]:
    """Effect variance through the eigensystem of X'X = R'R.

    The SVD R = U diag(s) V' gives the orthonormal eigenvectors V of X'X
    and its eigenvalues lambda_i = s_i^2 (lambda_1 >= ... >= lambda_q),
    without squaring the condition number. Decomposes c over V and returns
    (sigma2_hat * sum alpha_i^2 / lambda_i, alphas, lambdas); identical to
    the direct quadratic form c' cov c, but exposing which directions make
    the effect hard to estimate.
    """
    c = _vector("c", c)
    q = fit.R.shape[0]
    if c.shape[0] != q:
        raise DimensionMismatchError(f"expected a length-{q} coefficient vector")
    _, sv, Vt = np.linalg.svd(fit.R)  # fit_ols accepted R: finite, full rank
    lam = sv**2
    alphas = Vt @ c
    variance = float(fit.sigma2_hat * np.sum(alphas**2 / lam))
    return variance, alphas, lam


def _sign_block(start: int, stop: int, p: int) -> np.ndarray:
    """Rows start..stop-1 of the 2^(p-1) sign vectors with first entry +1,
    the tails in ``itertools.product((-1.0, 1.0), repeat=p - 1)`` order."""
    k = np.arange(start, stop)[:, None]
    S = np.ones((stop - start, p))
    S[:, 1:] = 2.0 * ((k >> np.arange(p - 2, -1, -1)) & 1) - 1.0
    return S


def optimal_effect(fit: OlsFit, group) -> tuple[SignArrangement, WeightVector, float]:
    """Minimum-variance normalized group effect, exact via its dual form.

    With A the group block of (X'X)^{-1} and G = A^{-1}, the minimum of
    c'Ac over ||c||_1 = 1 is 1 / max over s in {+-1}^p of s'Gs, attained at
    c = G s* / (s*'G s*). The first sign is fixed at +1 (a global flip
    leaves s'Gs unchanged) and the 2^(p-1) remaining sign vectors are
    scored in blocks of bounded size. At the maximum, flipping s_i cannot
    help, so s_i (G s)_i >= G_ii > 0: c has sign pattern s* and the simplex
    weights u = s* c are all positive. Returns (signs, simplex weights,
    estimator variance), with ties broken toward the lexicographically
    smallest sign vector.
    """
    idx = _check_group(group, fit.beta_hat.shape[0])
    p = len(idx)
    if p > MAX_OPTIMAL_GROUP:
        raise GroupTooLargeError(
            f"group size {p} exceeds the 2^p enumeration bound ({MAX_OPTIMAL_GROUP})"
        )

    G = np.linalg.inv(fit.xtx_inv[np.ix_(idx, idx)])
    G = 0.5 * (G + G.T)
    n_signs = 1 << (p - 1)
    best_val, best_s = -np.inf, None
    for start in range(0, n_signs, _SIGN_BLOCK):
        S = _sign_block(start, min(start + _SIGN_BLOCK, n_signs), p)
        vals = np.einsum("ij,ij->i", S @ G, S)
        k = int(np.argmax(vals))
        if vals[k] > best_val:
            best_val, best_s = float(vals[k]), S[k]

    u = best_s * (G @ best_s)
    return (
        SignArrangement(signs=best_s),
        WeightVector(u / u.sum()),
        fit.sigma2_hat / best_val,
    )


def detect_groups(corr: CorrelationMatrix):
    """Connected components of the |correlation| > sqrt(2)/2 graph, as lists
    of indices into the correlation matrix. Singletons are included."""
    p = corr.p
    adj = np.abs(corr.values) > APC_THRESHOLD
    seen = [False] * p
    groups = []
    for start in range(p):
        if seen[start]:
            continue
        comp, stack = [], [start]
        seen[start] = True
        while stack:
            i = stack.pop()
            comp.append(i)
            for j in range(p):
                if j != i and adj[i, j] and not seen[j]:
                    seen[j] = True
                    stack.append(j)
        groups.append(sorted(comp))
    return groups
