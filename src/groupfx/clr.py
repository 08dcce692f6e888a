"""Constrained local regression for a strongly correlated group.

The accurately estimated weighted group effect pins the group's coefficients
to a hyperplane w' beta = tau_hat. This module computes the point of that
hyperplane closest to the origin (a lower bound for sensible estimates),
intersects the hyperplane with a sphere of chosen squared radius c, and
selects one of the two intersection points as the local estimate. Only the
group's coefficients are touched; all other least-squares estimates are kept.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .effects import (
    SignArrangement,
    WeightVector,
    apc_arrangement,
    estimate_effect,
    variability_weights,
)
from .exceptions import RadiusTooSmallError, ZeroWeightError
from .linmod import Dataset, OlsFit, correlation, fit_ols

_MEMBERSHIP_TOL = 1e-8


@dataclass(frozen=True)
class ClrProblem:
    """The effect hyperplane: weights w (simplex, from the variability
    weighting under an APC arrangement) and the estimated effect tau_hat."""

    w: WeightVector
    tau_hat: float

    def __post_init__(self):
        if np.linalg.norm(self.w.weights) == 0.0:
            raise ZeroWeightError("weight vector must be nonzero")
        if not np.isfinite(self.tau_hat):
            raise ValueError("tau_hat must be finite")

    @property
    def p(self) -> int:
        return self.w.p


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
    if wnorm_sq == 0.0:
        raise ZeroWeightError("weight vector must be nonzero")
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
    if c < mns - _MEMBERSHIP_TOL * (1.0 + abs(mns)):
        raise RadiusTooSmallError(
            f"squared radius {c} is below the minimum-norm value {mns}"
        )
    w = problem.w.weights
    d = np.asarray(direction, dtype=np.float64).reshape(-1)
    if d.shape[0] != w.shape[0]:
        raise ValueError("direction must have the group's dimension")
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


def _kfold_score(
    data: Dataset, group, signs: SignArrangement, point: np.ndarray,
    n_folds: int, seed: int,
) -> float:
    """Cross-validated prediction error of a candidate: per fold, hold the
    group coefficients at the candidate, refit the remaining coefficients on
    the training rows, and accumulate held-out squared error."""
    n = data.n
    idx = list(group)
    rest = [j for j in range(data.q) if j not in idx]
    beta_g = signs.signs * point
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    perm = rng.permutation(n)
    folds = np.array_split(perm, n_folds)
    sse = 0.0
    for fold in folds:
        if fold.size == 0:
            continue
        train = np.setdiff1d(perm, fold)
        y_adj = data.y[train] - data.X[np.ix_(train, idx)] @ beta_g
        X_rest = data.X[np.ix_(train, rest)]
        coef, *_ = np.linalg.lstsq(X_rest, y_adj, rcond=None)
        pred = data.X[np.ix_(fold, idx)] @ beta_g + data.X[np.ix_(fold, rest)] @ coef
        sse += float(np.sum((data.y[fold] - pred) ** 2))
    return sse


def solve_clr(
    data: Dataset,
    group,
    *,
    c_offset: float = 3.0,
    selection: str = "min-rss",
    n_folds: int = 5,
    seed: int = 0,
    anchor: int | None = None,
    direction: np.ndarray | None = None,
    fit: OlsFit | None = None,
) -> ClrSolution:
    """Run the full constrained local regression for one group.

    Builds the weighted group effect under the APC arrangement, forms the
    effect hyperplane, sets the squared radius to min_norm_sq + c_offset and
    picks one of the two sphere intersection points by the requested
    strategy: ``"min-rss"`` (training residual sum of squares) or
    ``"kfold"`` (cross-validated prediction error with fold assignment drawn
    from ``seed``). Coefficients outside the group keep their OLS values.
    """
    if selection not in ("min-rss", "kfold"):
        raise ValueError(f"unknown selection strategy {selection!r}")
    if selection == "kfold" and n_folds < 2:
        raise ValueError(f"kfold selection needs n_folds >= 2, got {n_folds}")
    if c_offset < 0.0:
        raise RadiusTooSmallError("c_offset must be nonnegative")

    if fit is None:
        fit = fit_ols(data)
    idx = [int(j) for j in group]
    corr = correlation(data, idx)
    signs = apc_arrangement(corr, anchor)
    w = variability_weights(corr)
    effect = estimate_effect(fit, idx, w, signs)

    problem = ClrProblem(w=w, tau_hat=effect.value)
    beta_star, mns = min_norm_point(problem)
    c = mns + c_offset

    beta_group_apc = signs.signs * fit.beta_hat[idx]
    if direction is None:
        direction = _default_direction(w.weights, beta_group_apc, beta_star)
    if c_offset == 0.0:
        candidates = (beta_star.copy(), beta_star.copy())
    else:
        candidates = sphere_candidates(problem, c, direction)
    if selection == "min-rss":
        scores = tuple(
            _rss(data, _full_beta(fit, idx, signs, pt)) for pt in candidates
        )
    else:
        scores = tuple(
            _kfold_score(data, idx, signs, pt, n_folds, seed) for pt in candidates
        )
    chosen = candidates[int(np.argmin(scores))]
    diagnostics = {"scores": scores}

    diagnostics.update(
        {
            "tau_hat": effect.value,
            "tau_se": effect.std_error,
            "tau_p_value": effect.p_value,
            "rss_ols": fit.rss,
            "rss_beta_star": _rss(data, _full_beta(fit, idx, signs, beta_star)),
            "rss_chosen": _rss(data, _full_beta(fit, idx, signs, chosen)),
            "apc_condition_met": signs.condition_met,
        }
    )
    return ClrSolution(
        problem=problem,
        signs=signs,
        group=tuple(idx),
        beta_star=beta_star,
        min_norm_sq=mns,
        c=c,
        candidates=candidates,
        chosen=chosen,
        full_beta=_full_beta(fit, idx, signs, chosen),
        selection=selection,
        diagnostics=diagnostics,
    )


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
    offsets). Per-offset scores land in the diagnostics.
    """
    offsets = [float(o) for o in offsets]
    if not offsets:
        raise RadiusTooSmallError("at least one c_offset is required")
    fit = fit_ols(data)
    best = None
    offset_scores = []
    for offset in offsets:
        sol = solve_clr(data, group, c_offset=offset, selection=selection,
                        n_folds=n_folds, seed=seed, anchor=anchor, fit=fit)
        score = min(sol.diagnostics["scores"])
        offset_scores.append((offset, score))
        if best is None or score < best[0]:
            best = (score, sol)
    _, sol = best
    sol.diagnostics["offset_scores"] = offset_scores
    return sol
