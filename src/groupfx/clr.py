"""Constrained local regression for a strongly correlated group.

The accurately estimated weighted group effect pins the group's coefficients
to a hyperplane w' beta = tau_hat. This module computes the point of that
hyperplane closest to the origin (a lower bound for sensible estimates),
intersects the hyperplane with a sphere of chosen squared radius c, and
selects one of the two intersection points as the local estimate. Only the
group's coefficients are touched; all other least-squares estimates are kept.
"""

from __future__ import annotations

from contextvars import ContextVar
from dataclasses import dataclass, field

import numpy as np

from .effects import (
    SignArrangement,
    WeightVector,
    apc_arrangement,
    estimate_effect,
    variability_weights,
)
from .exceptions import (InvalidParameterError, RadiusTooSmallError, ZeroWeightError, _finite,
                         _integer, _sequence, _vector)
from .linmod import Dataset, OlsFit, _check_group, correlation, fit_ols

_MEMBERSHIP_TOL = 1e-8
# Smallest eigenvalue of Q_T'Q_T for which a k-fold refit is downdated from
# the full-data QR; a held-out block of leverage 1 - delta has eigenvalue delta.
_DOWNDATE_MIN_EIG = 1e-3


@dataclass(frozen=True)
class ClrProblem:
    """The effect hyperplane: weights w (simplex, from the variability
    weighting under an APC arrangement) and the estimated effect tau_hat."""

    w: WeightVector
    tau_hat: float

    def __post_init__(self):
        object.__setattr__(self, "tau_hat", _finite("tau_hat", self.tau_hat))


@dataclass(frozen=True)
class ClrSolution:
    """Geometry and selection result of one constrained local regression."""

    problem: ClrProblem
    signs: SignArrangement
    group: tuple[int, ...]
    beta_star: np.ndarray
    min_norm_sq: float
    c: float
    candidates: tuple[np.ndarray, np.ndarray]
    chosen: np.ndarray
    full_beta: np.ndarray
    selection: str
    diagnostics: dict = field(default_factory=dict)


def min_norm_point(problem: ClrProblem) -> tuple[np.ndarray, float]:
    """Point of the hyperplane w' beta = tau_hat closest to the origin.

    beta_star = (tau_hat / ||w||^2) w, with squared norm tau_hat^2 / ||w||^2.
    """
    w = problem.w.weights
    wnorm_sq = float(w @ w)
    beta_star = (problem.tau_hat / wnorm_sq) * w
    return beta_star, problem.tau_hat**2 / wnorm_sq


def sphere_candidates(
    problem: ClrProblem, c: float, direction: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The two points where a unit direction through beta_star meets the
    sphere ||beta||^2 = c inside the hyperplane.

    The direction is re-orthogonalized against w and normalized internally;
    both returned points satisfy the hyperplane and sphere equations. At
    c = min_norm_sq the two points coincide with beta_star.
    """
    beta_star, mns = min_norm_point(problem)
    if _finite("c", c) < mns - _MEMBERSHIP_TOL * (1.0 + abs(mns)):
        raise RadiusTooSmallError(
            f"squared radius {c} is below the minimum-norm value {mns}"
        )
    w = problem.w.weights
    d = _vector("direction", direction)
    if d.shape[0] != w.shape[0]:
        raise InvalidParameterError("direction must have the group's dimension")
    d = d - (d @ w) / (w @ w) * w
    norm = np.linalg.norm(d)
    if norm <= 1e-12:
        raise ZeroWeightError("direction is parallel to the weight vector")
    d = d / norm
    step = np.sqrt(max(c - mns, 0.0))
    return beta_star + step * d, beta_star - step * d


def _default_direction(w: np.ndarray, beta_group: np.ndarray, beta_star: np.ndarray) -> np.ndarray:
    """Search direction: the OLS estimate's offset from beta_star projected
    off w; falls back to the first canonical direction orthogonal to w."""
    d = beta_group - beta_star
    d = d - (d @ w) / (w @ w) * w
    if np.linalg.norm(d) > 1e-10 * (1.0 + np.linalg.norm(beta_group)):
        return d
    for j in range(w.shape[0]):
        e = np.zeros_like(w)
        e[j] = 1.0
        e = e - (e @ w) / (w @ w) * w
        if np.linalg.norm(e) > 1e-12:
            return e
    raise ZeroWeightError("no direction orthogonal to the weight vector")


def _rss(data: Dataset, beta: np.ndarray) -> float:
    resid = data.y - data.X @ beta
    return float(resid @ resid)


def _full_beta(fit: OlsFit, group, signs: SignArrangement, point: np.ndarray) -> np.ndarray:
    """Assemble the full coefficient vector: the candidate point (mapped back
    from APC sign space) on the group, OLS values elsewhere."""
    beta = fit.beta_hat.copy()
    beta[list(group)] = signs.signs * point
    return beta


def _heldout_residuals(data: Dataset, fit: OlsFit, group, n_folds: int, seed: int) -> np.ndarray:
    """Held-out residual operator [a | M] of k-fold selection.

    Fold f holds out rows H of a permutation drawn from ``seed`` and trains
    on rows T. With the group's coefficients held at b and the others refit
    on T, the held-out residual is a_H - M_H b, where [a_H | M_H] =
    Z_H - X_H,rest lstsq(X_T,rest, Z_T) and Z = [y | X_group]: the
    minimum-norm solution is linear in its right-hand side, so this holds
    for rank-deficient training designs too. Each row is held out once, so
    the k-fold score of b is ||a - M b||^2 (see :func:`_heldout_sse`).

    All folds share one orthonormal basis Q of X_rest's columns, taken
    from the fit's X = Q_X R_X: as X_rest = Q_X R_X[:, rest], Q is Q_X times
    the Q factor of the small R_X[:, rest]. With C = Q_T'Q_T =
    I - Q_H'Q_H, the refit's prediction X_H,rest lstsq(X_T,rest, Z_T) is
    Q_H g with g = C^-1 (Q'Z - Q_H'Z_H) whenever X_T,rest has full column
    rank: Allen's PRESS identity, generalised from one held-out row to a
    block. A fold whose C has an eigenvalue at or below ``_DOWNDATE_MIN_EIG``
    (held-out leverage near 1, or a rank-deficient training design) is refit
    by ``lstsq``, the only way to its minimum-norm answer, on X_rest's
    columns scaled to a largest magnitude of 1. X_rest itself
    has full column rank: it is a column subset of an X that
    :func:`~groupfx.linmod.fit_ols` accepted.
    """
    idx = list(group)
    rest = [j for j in range(data.q) if j not in idx]
    Z = np.column_stack((data.y, data.X[:, idx]))
    if not rest:  # nothing to refit
        return Z
    X_rest = data.X[:, rest]
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    perm = rng.permutation(data.n)
    Q = fit.Q @ np.linalg.qr(fit.R[:, rest])[0]
    # lstsq refits run on columns scaled to a largest magnitude of 1, so that
    # neither lstsq's rank cutoff nor its minimum-norm choice depends on units
    X_eq = X_rest / np.abs(X_rest).max(axis=0)
    QtZ = Q.T @ Z
    eye = np.eye(len(rest))
    resid = np.empty_like(Z)
    for fold in np.array_split(perm, min(n_folds, data.n)):
        Q_H, Z_H = Q[fold], Z[fold]
        lam, V = np.linalg.eigh(eye - Q_H.T @ Q_H)
        if lam[0] > _DOWNDATE_MIN_EIG:
            g = V @ ((V.T @ (QtZ - Q_H.T @ Z_H)) / lam[:, None])
            resid[fold] = Z_H - Q_H @ g
            continue
        train = np.ones(data.n, dtype=bool)
        train[fold] = False
        coef, *_ = np.linalg.lstsq(X_eq[train], Z[train], rcond=None)
        resid[fold] = Z_H - X_eq[fold] @ coef
    return resid


def _heldout_sse(resid: np.ndarray, beta_group: np.ndarray) -> float:
    """k-fold score ||a - M b||^2 from the residual itself; an expanded quadratic would cancel."""
    r = resid[:, 0] - resid[:, 1:] @ beta_group
    return float(r @ r)


def _offset_solver(data, group, selection, n_folds, seed, anchor):
    """Do the part of :func:`solve_clr` that does not depend on c_offset (OLS
    fit, group geometry, search direction, k-fold operator) and return the
    function that finishes a solve at a given c_offset."""
    fit = fit_ols(data)
    idx = _check_group(group, data.q)
    corr = correlation(data, idx)
    signs = apc_arrangement(corr, anchor)
    w = variability_weights(corr)
    effect = estimate_effect(fit, idx, w, signs)
    problem = ClrProblem(w=w, tau_hat=effect.value)
    beta_star, mns = min_norm_point(problem)
    direction = _default_direction(w.weights, signs.signs * fit.beta_hat[idx], beta_star)
    resid = _heldout_residuals(data, fit, idx, n_folds, seed) if selection == "kfold" else None
    fixed = {"tau_hat": effect.value, "tau_se": effect.std_error,
             "tau_p_value": effect.p_value, "rss_ols": fit.rss,
             "rss_beta_star": _rss(data, _full_beta(fit, idx, signs, beta_star))}

    def solve_at(c_offset: float) -> ClrSolution:
        candidates = sphere_candidates(problem, mns + c_offset, direction)
        betas = [_full_beta(fit, idx, signs, pt) for pt in candidates]
        scores = tuple(_rss(data, b) if resid is None else _heldout_sse(resid, b[idx])
                       for b in betas)
        best = int(np.argmin(scores))
        diagnostics = {"scores": scores, **fixed, "rss_chosen": _rss(data, betas[best]),
                       "apc_condition_met": signs.condition_met}
        return ClrSolution(problem, signs, tuple(idx), beta_star, mns, mns + c_offset,
                           candidates, candidates[best], betas[best], selection, diagnostics)

    return solve_at


# Set by solve_clr_best_offset to a one-slot list: its solve_clr calls differ
# only in c_offset, so the first one stores its offset solver for the rest.
_shared_solver: ContextVar[list | None] = ContextVar("_shared_solver", default=None)


def solve_clr(
    data: Dataset,
    group,
    *,
    c_offset: float = 3.0,
    selection: str = "min-rss",
    n_folds: int = 5,
    seed: int = 0,
    anchor: int | None = None,
) -> ClrSolution:
    """Run the full constrained local regression for one group.

    Builds the weighted group effect under the APC arrangement, forms the
    effect hyperplane, sets the squared radius to min_norm_sq + c_offset and
    picks one of the two sphere intersection points by the requested
    strategy: ``"min-rss"`` (training residual sum of squares) or
    ``"kfold"`` (cross-validated prediction error with fold assignment drawn
    from ``seed``; more folds than rows means leave-one-out), whose refits
    for every fold and both candidates come from one QR factorization.
    ``n_folds`` must be at least 2 under either strategy.
    Coefficients outside the group keep their OLS values, from
    :func:`~groupfx.linmod.fit_ols`, which rejects a singular design.
    """
    if selection not in ("min-rss", "kfold"):
        raise InvalidParameterError(f"unknown selection strategy {selection!r}")
    if _integer("n_folds", n_folds) < 2:
        raise InvalidParameterError(f"n_folds must be >= 2, got {n_folds}", "n_folds")
    if _integer("seed", seed) < 0:
        raise InvalidParameterError(f"seed must be a nonnegative integer, got {seed}", "seed")
    if _finite("c_offset", c_offset) < 0.0:
        raise RadiusTooSmallError("c_offset must be nonnegative", "c_offset")
    slot = _shared_solver.get() or [None]
    if slot[0] is None:
        slot[0] = _offset_solver(data, group, selection, n_folds, seed, anchor)
    return slot[0](c_offset)


def solve_clr_best_offset(
    data: Dataset,
    group,
    offsets,
    *,
    selection: str = "min-rss",
    n_folds: int = 5,
    seed: int = 0,
    anchor: int | None = None,
) -> ClrSolution:
    """Grid search over squared-radius offsets.

    Solves the constrained local regression at each offset and keeps the
    solution whose chosen point scores best under the selection strategy
    (training RSS or cross-validated error, which are comparable across
    offsets). The first :func:`solve_clr` call builds the group geometry and
    the k-fold operator, and the calls for the other offsets reuse them.
    Per-offset scores land in the diagnostics.
    """
    offsets = [_finite("c_offset", o) for o in _sequence("offsets", offsets)]
    if not offsets:
        raise RadiusTooSmallError("at least one c_offset is required")
    token = _shared_solver.set([None])
    try:
        solutions = [solve_clr(data, group, c_offset=o, selection=selection, n_folds=n_folds,
                               seed=seed, anchor=anchor) for o in offsets]
    finally:
        _shared_solver.reset(token)
    scores = [min(s.diagnostics["scores"]) for s in solutions]
    best = solutions[scores.index(min(scores))]  # ties go to the earliest offset
    best.diagnostics["offset_scores"] = list(zip(offsets, scores))
    return best
