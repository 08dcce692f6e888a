"""Seeded Monte Carlo harness for the two-group mixing design.

Five canonical cases share one generating recipe: ten independent standard
normal columns are mixed by two weights (w1, w2) into a design with two
correlated predictor groups and five independent predictors, one fixed design
per run; replicated responses are drawn on top of it and every group effect
is re-estimated per replicate.

Randomness comes from the counter-based Philox generator. The run seed is
split into two streams: child 0 of ``SeedSequence(seed)`` draws the design
normals and child 1 draws an R x 11 block g of standard normals. Replicate
i's noise is U g_i, with U the orthonormal basis (n x 11) of the span of the
intercept and the design normals from their reduced QR. Replicate i's noise
is therefore the same for every replicate count R > i, and the same across
the cases that share a seed and n.

With the design fixed, every estimated effect is a fixed linear map m of
the response, so its replicate mean and variance are m'y_mean + sigma a'gbar
and sigma^2 a'S a, for a = U'm and gbar and S the mean and sample covariance
of the rows of g. These are 11 and 11 x 11 numbers whatever n is, memoised
for all five cases of a suite.

Each map m is a row of the effect plan (weights over the 11 coefficients)
times R^{-1} Q' of the fit. The plan is read from one group table, the
group number of each variable: a case writes its ten variability weights,
each column scale over its group's sum from one bincount, and takes the
group correlation ranges as two segment reductions over the same-group
entries of the correlation arrays, with no second validation pass.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import InvalidParameterError, _finite, _integer, _sequence
from .linmod import INTERCEPT_NAME, Dataset, _correlation_arrays, fit_ols

DEFAULT_BETA = (5.0, 0.0, 0.0, 1.0, 2.0, 3.0, 1.0, 1.0, 1.0, 2.0, 3.0)

# Predictor groups (1-based variable numbers): two correlated pairs/triples
# and their uncorrelated counterparts of equal size.
GROUPS = {"g1": (1, 2), "g2": (3, 4, 5), "g3": (6, 7), "g4": (8, 9, 10)}

N_VARS = 10

_NAMES = (INTERCEPT_NAME, *(f"x{j}" for j in range(1, N_VARS + 1)))

# Recorded effects in report order: each group's average and variability-
# weighted effect, then every coefficient.
_EFFECT_LABELS = tuple(
    label for g in GROUPS for label in (f"tau{g[1]}", f"tau{g[1]}_w")
) + tuple(f"beta{j}" for j in range(N_VARS + 1))


_VARIABLE_COLUMNS = np.arange(1, N_VARS + 1)  # variable j is X column j

# The groups are contiguous runs of variables 1..10, so the group number of
# each variable (entry j - 1 for variable j) is every group's number repeated
# by its size. The effect plan is read from it and from each group's X columns.
_GROUP_OF = np.repeat(np.arange(len(GROUPS)), [len(v) for v in GROUPS.values()])
_GROUP_SLICES = tuple(slice(v[0], v[-1] + 1) for v in GROUPS.values())
# off-diagonal entries of the variables' correlation within a group; row-major,
# so each group is one segment of corr[_SAME_GROUP], starting at _OFF_STARTS
_SAME_GROUP = (_GROUP_OF[:, None] == _GROUP_OF) & ~np.eye(N_VARS, dtype=bool)
_OFF_STARTS = np.cumsum([0] + [len(v) * (len(v) - 1) for v in GROUPS.values()])[:-1]
# the weighted-effect row of each variable's group, where run_case writes the
# variable's variability weight
_WEIGHTED_ROWS = 2 * _GROUP_OF + 1


def _weight_template() -> np.ndarray:
    """The weight rows of the effect plan, one per effect label over the 11
    coefficients, with every average row and coefficient row filled in and
    the variability-weighted rows left 0 (read-only: run_case fills a copy)."""
    template = np.zeros((len(_EFFECT_LABELS), N_VARS + 1))
    template[2 * _GROUP_OF, _VARIABLE_COLUMNS] = 1.0 / np.bincount(_GROUP_OF)[_GROUP_OF]
    template[2 * len(GROUPS):] = np.eye(N_VARS + 1)
    template.flags.writeable = False
    return template


_WEIGHT_TEMPLATE = _weight_template()

# Noise is drawn and reduced in blocks of at most this many rows, which
# bounds memory for any replicate count; chunking does not change the draw.
_CHUNK_ROWS = 1 << 14


@dataclass(frozen=True)
class Transform:
    """Post-mixing adjustment of one variable (1-based number): scale it
    and/or flip its sign."""

    index: int
    scale: float = 1.0
    flip: bool = False

    def __post_init__(self):
        index = _integer("index", self.index)
        if not 1 <= index <= N_VARS:
            raise InvalidParameterError(f"variable index must be 1..{N_VARS}, got {index}")
        if _finite("scale", self.scale) == 0.0:
            raise InvalidParameterError("scale factor must be nonzero")
        if not isinstance(self.flip, (bool, np.bool_)):
            raise InvalidParameterError(f"flip must be a bool, got {self.flip!r}")
        object.__setattr__(self, "index", index)


@dataclass(frozen=True)
class SimCaseConfig:
    """One simulation case: mixing weights, sample size, true coefficients
    (intercept first), error variance, replicate count, seed, and any
    variable transforms."""

    w1: float
    w2: float
    n: int = 15
    beta: tuple = DEFAULT_BETA
    sigma2: float = 1.0
    replicates: int = 1000
    seed: int = 0
    transforms: tuple = ()
    label: str = ""

    def __post_init__(self):
        for name in ("w1", "w2"):
            if not 0.0 <= _finite(name, getattr(self, name)) <= 1.0:
                raise InvalidParameterError(f"mixing weight {name} must lie in [0, 1], "
                                            f"got {getattr(self, name)!r}", name)
        beta = tuple(_finite("beta", b) for b in _sequence("beta", self.beta))
        if len(beta) != N_VARS + 1:
            raise InvalidParameterError(f"beta must have {N_VARS + 1} entries (intercept first)")
        replicates, n, seed = (_integer(k, getattr(self, k)) for k in ("replicates", "n", "seed"))
        if replicates < 1:
            raise InvalidParameterError("at least one replicate required", "replicates")
        if n < 1:
            raise InvalidParameterError("sample size n must be >= 1", "n")
        if seed < 0:
            raise InvalidParameterError("seed must be a nonnegative integer", "seed")
        if _finite("sigma2", self.sigma2) < 0.0:
            raise InvalidParameterError("sigma2 must be nonnegative", "sigma2")
        transforms = _sequence("transforms", self.transforms)
        if not all(isinstance(tr, Transform) for tr in transforms):
            raise InvalidParameterError("transforms must be Transform instances", "transforms")
        for name, value in (("replicates", replicates), ("n", n), ("seed", seed),
                            ("beta", beta), ("transforms", transforms)):
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class EffectSummary:
    """Replicate mean and variance of one estimated effect, with the true
    effect value it targets."""

    label: str
    mean: float
    variance: float
    true_value: float


@dataclass(frozen=True)
class SimReport:
    """Aggregated results of one simulated case."""

    label: str
    replicates: int
    seed: int
    effects: tuple[EffectSummary, ...]
    corr_ranges: dict[str, tuple[float, float]] = field(default_factory=dict)

    def effect(self, label: str) -> EffectSummary:
        for e in self.effects:
            if e.label == label:
                return e
        raise KeyError(label)


def _child_rng(seed: int, child: int) -> np.random.Generator:
    """Philox generator on child ``child`` of ``SeedSequence(seed)``, the
    same stream as ``SeedSequence(seed).spawn(k)[child]`` for any k > child."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(seed, spawn_key=(child,))))


@functools.lru_cache(maxsize=1)
def _design_normals(seed: int, n: int) -> np.ndarray:
    """The n x N_VARS standard normals of child stream 0 that the design is
    mixed from (read-only, as it is shared)."""
    z = _child_rng(seed, 0).standard_normal((n, N_VARS))
    z.flags.writeable = False
    return z


@functools.lru_cache(maxsize=1)
def _span_basis(seed: int, n: int) -> np.ndarray:
    """The reduced QR basis U (n x 11) of [1 | design normals] that replicate
    noise is drawn in (read-only, as it is shared)."""
    basis = np.linalg.qr(np.column_stack((np.ones(n), _design_normals(seed, n))))[0]
    basis.flags.writeable = False
    return basis


@functools.lru_cache(maxsize=1)
def _noise_moments(seed: int, replicates: int):
    """The mean and sample covariance (zero below two rows) of the
    ``replicates`` rows of 11 standard normals of child 1, drawn in
    ``_CHUNK_ROWS`` blocks; both read-only. The rows have mean 0, so the
    plain sums do not cancel."""
    noise = _child_rng(seed, 1)
    total, cross = np.zeros(N_VARS + 1), np.zeros((N_VARS + 1, N_VARS + 1))
    for lo in range(0, replicates, _CHUNK_ROWS):
        g = noise.standard_normal((min(_CHUNK_ROWS, replicates - lo), N_VARS + 1))
        total += np.ones(len(g)) @ g  # ~4x faster than sum(axis=0) at 1000 x 11
        cross += g.T @ g
    mean = total / replicates
    cov = np.zeros_like(cross)
    if replicates > 1:
        cov = (cross - replicates * np.outer(mean, mean)) / (replicates - 1)
    mean.flags.writeable = cov.flags.writeable = False
    return mean, cov


def generate_design(config: SimCaseConfig) -> Dataset:
    """Draw one design matrix from the mixing recipe.

    x1 = z1, x2 = w1 z1 + (1-w1) z2; x3 = z3, x4 = w1 z3 + (1-w1) z4,
    x5 = w2 z3 + (1-w2) z5; x6..x10 = z6..z10; then any transforms are
    applied. The response is set to its noiseless mean, so the returned
    dataset is directly fittable; replicate noise is added by
    :func:`run_case`.
    """
    z = _design_normals(config.seed, config.n)
    w1, w2 = config.w1, config.w2
    X = np.empty((config.n, N_VARS + 1))
    X[:, 0] = 1.0
    x = X[:, 1:]  # column j - 1 of x is variable j
    x[:, 0] = z[:, 0]
    x[:, 1] = w1 * z[:, 0] + (1.0 - w1) * z[:, 1]
    x[:, 2] = z[:, 2]
    x[:, 3] = w1 * z[:, 2] + (1.0 - w1) * z[:, 3]
    x[:, 4] = w2 * z[:, 2] + (1.0 - w2) * z[:, 4]
    x[:, 5:] = z[:, 5:]
    for tr in config.transforms:  # a sign flip is exact: (x s) (-1) == x (-s)
        x[:, tr.index - 1] *= -tr.scale if tr.flip else tr.scale

    beta = np.asarray(config.beta)
    y_mean = beta[0] + x @ beta[1:]
    return Dataset(y_mean, X, _NAMES, has_intercept=True)


def run_case(config: SimCaseConfig) -> SimReport:
    """Simulate one case: fixed design, ``replicates`` response draws, and
    per-replicate estimates of the eight group effects plus every individual
    coefficient. Reports replicate means and variances for each, in closed
    form from the noise statistics of :func:`_noise_moments`."""
    design = generate_design(config)
    fit = fit_ols(design)  # raises SingularDesignError before any replicate work

    beta = np.asarray(config.beta)
    corr, sds = _correlation_arrays(design, _VARIABLE_COLUMNS)
    # variability_weights per group: bincount adds each group's s_j left to
    # right from 0.0, so a group's sum has the bits of s[cols].sum()
    w_var = sds / np.bincount(_GROUP_OF, weights=sds)[_GROUP_OF]
    weight_rows = _WEIGHT_TEMPLATE.copy()
    weight_rows[_WEIGHTED_ROWS, _VARIABLE_COLUMNS] = w_var
    # eight small dots, not one gemv, keep the bits of w @ beta[cols]
    truths = []
    for g, cols in enumerate(_GROUP_SLICES):
        truths += [float(w @ beta[cols]) for w in weight_rows[2 * g:2 * g + 2, cols]]
    truths += beta.tolist()
    off = corr[_SAME_GROUP]
    corr_ranges = dict(zip(GROUPS, zip(np.minimum.reduceat(off, _OFF_STARTS).tolist(),
                                       np.maximum.reduceat(off, _OFF_STARTS).tolist())))

    y_mean = design.X @ beta  # intercept column carries beta[0]
    # row e maps a response vector y to effect e, through beta_hat = R^{-1} Q' y
    effect_map = weight_rows @ np.linalg.solve(fit.R, fit.Q.T)
    # replicate i's effects are effect_map (y_mean + sigma U g_i), so a = effect_map U
    # carries all the noise. S is singular for R <= 11: a variance can dip below 0
    a = effect_map @ _span_basis(config.seed, config.n)
    g_mean, g_cov = _noise_moments(config.seed, config.replicates)
    means = effect_map @ y_mean + math.sqrt(config.sigma2) * (a @ g_mean)
    variances = np.maximum(config.sigma2 * np.einsum("ij,ij->i", a @ g_cov, a), 0.0)
    effects = tuple(map(EffectSummary, _EFFECT_LABELS, means.tolist(), variances.tolist(), truths))

    return SimReport(label=config.label or f"w1={config.w1},w2={config.w2}",
                     replicates=config.replicates, seed=config.seed, effects=effects,
                     corr_ranges=corr_ranges)


# Mixing weights and transforms of the five canonical cases.
_PAPER_CASES = {
    1: ((0.3, 0.4), ()),
    2: ((0.90, 0.95), ()),
    3: ((0.999, 0.999), ()),
    4: ((0.99, 0.99), (Transform(2, scale=2.0), Transform(5, scale=2.0))),
    5: ((0.90, 0.90), (Transform(2, flip=True), Transform(5, flip=True))),
}


def paper_case_config(case: int, seed: int = 0, replicates: int = 1000,
                      n: int = 15) -> SimCaseConfig:
    """Configuration of one of the five canonical cases.

    1: weak correlation (0.3, 0.4); 2: strong (0.90, 0.95); 3: extreme
    (0.999, 0.999); 4: (0.99, 0.99) with x2 and x5 doubled; 5: (0.90, 0.90)
    with the signs of x2 and x5 flipped.
    """
    case = _integer("case", case)
    if case not in _PAPER_CASES:
        raise InvalidParameterError(f"case must be 1..5, got {case}", "case")
    (w1, w2), transforms = _PAPER_CASES[case]
    return SimCaseConfig(
        w1=w1, w2=w2, n=n, replicates=replicates, seed=seed,
        transforms=transforms, label=f"case{case}",
    )


@dataclass(frozen=True)
class SuiteCheck:
    """One qualitative claim evaluated on the suite's reports."""

    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class PaperSuiteResult:
    reports: tuple[SimReport, ...]
    checks: tuple[SuiteCheck, ...]

    def report(self, label: str) -> SimReport:
        for r in self.reports:
            if r.label == label:
                return r
        raise KeyError(label)


def run_paper_suite(seed: int = 0, replicates: int = 1000, n: int = 15) -> PaperSuiteResult:
    """Run the five canonical cases with a shared seed and evaluate the
    qualitative claims: the weighted effect of a correlated group gains
    accuracy as correlation grows, beats the average effect of an equally
    sized uncorrelated group, needs the APC arrangement, survives unequal
    variability, and the damage of strong correlation stays local.

    The last check, ``multicollinearity_stays_local``, tests an identity of
    exact arithmetic: cases 1 and 3 share their normals and their noise, and
    each group's columns are an invertible mix of that group's own normals,
    so no column span moves between them and the variances of beta6..beta10
    agree. It cannot fail beyond roundoff."""
    if _integer("replicates", replicates) < 2:  # the checks compare variances, 0 at one replicate
        raise InvalidParameterError(f"the paper suite needs >= 2 replicates, got {replicates}",
                                    "replicates")
    reports = tuple(
        run_case(paper_case_config(case, seed=seed, replicates=replicates, n=n))
        for case in range(1, 6)
    )
    variances = {r.label: {e.label: e.variance for e in r.effects} for r in reports}

    def var(case: str, effect: str) -> float:
        return variances[case][effect]

    checks = []

    v1, v2, v3 = (var(c, "tau1_w") for c in ("case1", "case2", "case3"))
    checks.append(SuiteCheck(
        name="weighted_effect_gains_from_correlation",
        passed=v1 > v2 > v3,
        detail=f"var(tau1_w): case1={v1:.8g} case2={v2:.8g} case3={v3:.8g}",
    ))

    vw, vu = var("case2", "tau2_w"), var("case2", "tau4")
    checks.append(SuiteCheck(
        name="weighted_effect_beats_uncorrelated_average",
        passed=vw < vu,
        detail=f"case2 var(tau2_w)={vw:.8g} < var(tau4)={vu:.8g}",
    ))

    v5, v2w = var("case5", "tau1_w"), var("case2", "tau1_w")
    checks.append(SuiteCheck(
        name="apc_arrangement_required",
        passed=v5 > 5.0 and v5 > v2w,
        detail=f"var(tau1_w): case5={v5:.8g} vs case2={v2w:.8g}",
    ))

    va, vw4 = var("case4", "tau1"), var("case4", "tau1_w")
    checks.append(SuiteCheck(
        name="weighted_effect_survives_unequal_variability",
        passed=va > 10.0 and vw4 < 0.1,
        detail=f"case4 var(tau1)={va:.8g} var(tau1_w)={vw4:.8g}",
    ))

    ratios = []
    for j in range(6, N_VARS + 1):
        a, b = var("case1", f"beta{j}"), var("case3", f"beta{j}")
        ratios.append(max(a / b, b / a))
    checks.append(SuiteCheck(
        name="multicollinearity_stays_local",
        passed=max(ratios) < 5.0,
        detail=f"max case1/case3 variance ratio over beta6..beta10 = {max(ratios):.8g}",
    ))

    return PaperSuiteResult(reports=reports, checks=tuple(checks))
