"""Acceptance suite.

One test per acceptance criterion, each printing a single pass/fail line
(run with -s to see them). Tolerances and runtime bounds are asserted
exactly as stated; the Monte Carlo bands run at the documented default seed
because the design matrix is one random draw, which makes band-level
results seed-dependent by nature.

Run with: pytest tests/test_acceptance.py -v -s
"""

import itertools
import math
import time

import numpy as np

from groupfx import (
    ClrProblem,
    Dataset,
    OlsFit,
    UniformSpec,
    WeightVector,
    apc_arrangement,
    average_effect_variance,
    correlation,
    effect_variance,
    fit_ols,
    individual_effect_variance,
    min_norm_point,
    optimal_effect,
    run_paper_suite,
    silvey_variance,
    uniform_inverse,
    variability_weights,
)
from groupfx.cli import main
from conftest import cone_design, equicorrelated_columns, uniform_design_dataset

R_ACCEPT_GRID = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.99, 0.999)

TABLE1_PUBLISHED = (
    (0.12500000, 1.000000),
    (0.02777778, 1.777778),
    (0.02205882, 2.647059),
    (0.02000000, 3.520000),
    (0.01893939, 4.393939),
    (0.01829268, 5.268293),
    (0.01785714, 6.142857),
    (0.01754386, 7.017544),
    (0.01730769, 7.892308),
    (0.01712329, 8.767123),
    (0.01563868, 875.015639),
)


def _report(name: str, failures: list):
    status = "PASS" if not failures else "FAIL"
    print(f"[acceptance] {name}: {status}")
    assert not failures, f"{name}: " + "; ".join(str(f) for f in failures[:5])


def test_table1_reproduction(tmp_path):
    failures = []
    out = tmp_path / "table1.csv"
    start = time.perf_counter()
    code = main(["uniform", "--p", "8", "--out", str(out)])
    elapsed = time.perf_counter() - start
    if code != 0:
        failures.append(f"exit code {code}")
    rows = out.read_text().strip().splitlines()[1:]
    if len(rows) != 11:
        failures.append(f"{len(rows)} rows, expected 11")
    for row, (exp_avg, exp_ind) in zip(rows, TABLE1_PUBLISHED):
        _, avg, ind = (float(tok) for tok in row.split(","))
        if abs(avg - exp_avg) >= 1e-6:
            failures.append(f"var_avg {avg} vs {exp_avg}")
        if abs(ind - exp_ind) >= 1e-6:
            failures.append(f"var_indiv {ind} vs {exp_ind}")
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.3f}s >= 1s")
    _report("table1-reproduction", failures)


def test_closed_form_inverse_oracle():
    failures = []
    start = time.perf_counter()
    for p in range(2, 11):
        for r in R_ACCEPT_GRID:
            spec = UniformSpec(p=p, r=r)
            product = uniform_inverse(spec).matrix() @ spec.matrix()
            dev = np.max(np.abs(product - np.eye(p)))
            if dev >= 1e-9:
                failures.append(f"p={p} r={r}: deviation {dev:.2e}")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.3f}s >= 1s")
    _report("closed-form-inverse-oracle", failures)


def test_variance_formula_oracle():
    failures = []
    rng = np.random.default_rng(2024)
    for p in range(2, 11):
        for r in R_ACCEPT_GRID:
            spec = UniformSpec(p=p, r=r)
            inv = np.linalg.inv(spec.matrix())
            raw = rng.standard_normal((1000, p))
            W = raw / np.abs(raw).sum(axis=1, keepdims=True)  # signed-L1 weights
            direct = np.einsum("ij,jk,ik->i", W, inv, W)
            formula = np.array([effect_variance(spec, w) for w in W])
            rel = np.max(np.abs(formula - direct) / np.abs(direct))
            if rel >= 1e-9:
                failures.append(f"p={p} r={r}: rel err {rel:.2e}")
    _report("variance-formula-oracle", failures)


def test_monotonicity_suite():
    failures = []
    r_grid = np.arange(0.01, 1.00, 0.01)
    for p in (2, 3, 8):
        avg = np.array([average_effect_variance(UniformSpec(p, r)) for r in r_grid])
        ind = np.array([individual_effect_variance(UniformSpec(p, r)) for r in r_grid])
        if not np.all(np.diff(avg) < 0):
            failures.append(f"p={p}: average variance not strictly decreasing")
        if not np.all(np.diff(ind) > 0):
            failures.append(f"p={p}: individual variance not strictly increasing")
        limit_gap = abs(average_effect_variance(UniformSpec(p, 1 - 1e-6)) - 1.0 / p**2)
        if limit_gap >= 1e-4:
            failures.append(f"p={p}: limit gap {limit_gap:.2e}")
        if individual_effect_variance(UniformSpec(p, 1 - 1e-6)) <= 1e4:
            failures.append(f"p={p}: individual variance bounded near r=1")

    # weighted-effect limit sigma^2/(sum s)^2 on a synthetic design with
    # s = (1, 1, 2) at r = 1 - 1e-4
    sds = np.array([1.0, 1.0, 2.0])
    X = equicorrelated_columns(12, 3, 1 - 1e-4) * sds[None, :]
    data = Dataset(y=np.random.default_rng(0).standard_normal(12), X=X,
                   names=("x1", "x2", "x3"))
    w = variability_weights(correlation(data, [0, 1, 2])).weights
    var_w = float(w @ np.linalg.solve(X.T @ X, w))  # sigma^2 = 1
    gap = abs(var_w - 1.0 / sds.sum() ** 2)
    if gap >= 1e-3:
        failures.append(f"weighted-effect limit gap {gap:.2e}")
    _report("monotonicity-suite", failures)


def test_theorem1_cone_property():
    failures = []
    rng = np.random.default_rng(77)
    for trial in range(500):
        p = int(rng.integers(2, 9))
        X = cone_design(p, n=p + 3, rng=rng)
        data = Dataset(y=rng.standard_normal(p + 3), X=X,
                       names=tuple(f"x{i}" for i in range(p)))
        corr = correlation(data, list(range(p)))
        arr = apc_arrangement(corr)
        resigned = corr.values * np.outer(arr.signs, arr.signs)
        off = resigned[~np.eye(p, dtype=bool)]
        if not np.all(off > 0):
            failures.append(f"trial {trial}: min resigned corr {off.min():.3f}")
    _report("theorem1-cone-property", failures)


def _fit_from_xtx_inv(A: np.ndarray) -> OlsFit:
    return OlsFit(beta_hat=np.zeros(A.shape[0]), sigma2_hat=1.0,
                  Q=np.eye(A.shape[0]), R=np.linalg.cholesky(np.linalg.inv(A)).T,
                  xtx_inv=A, dof=10, rss=10.0)


def _grid_min_p2(A: np.ndarray) -> float:
    a = np.arange(0.0, 1.0 + 1e-12, 1e-4)
    best = np.inf
    for s2 in (1.0, -1.0):
        W = np.column_stack([a, s2 * (1.0 - a)])
        best = min(best, float(np.einsum("ij,jk,ik->i", W, A, W).min()))
    return best


def _grid_min_p3(A: np.ndarray) -> float:
    """Brute-force minimum over sum|w| = 1 at effective step 1e-4: a full
    1e-2 sweep per anchor-fixed orthant plus a 1e-4 window around its
    optimum, exact for the convex per-orthant quadratic."""
    best = np.inf
    for tail in itertools.product((-1.0, 1.0), repeat=2):
        s = np.array((1.0,) + tail)
        M = A * np.outer(s, s)

        def sweep(lo1, hi1, lo2, hi2, step, M=M):
            g1 = np.arange(lo1, hi1 + 1e-12, step)
            g2 = np.arange(lo2, hi2 + 1e-12, step)
            u1, u2 = np.meshgrid(g1, g2, indexing="ij")
            mask = u1 + u2 <= 1.0 + 1e-12
            U = np.column_stack([u1[mask], u2[mask], 1.0 - u1[mask] - u2[mask]])
            vals = np.einsum("ij,jk,ik->i", U, M, U)
            k = int(np.argmin(vals))
            return float(vals[k]), U[k]

        _, coarse_u = sweep(0.0, 1.0, 0.0, 1.0, 1e-2)
        val, _ = sweep(max(0.0, coarse_u[0] - 1.5e-2), min(1.0, coarse_u[0] + 1.5e-2),
                       max(0.0, coarse_u[1] - 1.5e-2), min(1.0, coarse_u[1] + 1.5e-2),
                       1e-4)
        best = min(best, val)
    return best


def test_optimality_suite():
    failures = []
    # uniform designs: equal weights and all-positive signs
    for p, r in ((2, 0.5), (3, 0.7), (4, 0.9), (8, 0.95)):
        data = uniform_design_dataset(p + 15, p, r, beta=np.ones(p), seed=p)
        signs, w, _ = optimal_effect(fit_ols(data), list(range(p)))
        if not np.all(signs.signs == 1.0):
            failures.append(f"uniform p={p}: signs {signs.signs}")
        gap = np.max(np.abs(w.weights - 1.0 / p))
        if gap >= 1e-6:
            failures.append(f"uniform p={p}: weight gap {gap:.2e}")

    # 100 random SPD blocks with p in {2, 3}: QP vs brute-force grid
    rng = np.random.default_rng(55)
    for trial in range(100):
        p = 2 if trial % 2 == 0 else 3
        Q, _ = np.linalg.qr(rng.standard_normal((p, p)))
        A = Q @ np.diag(rng.uniform(0.1, 3.0, p)) @ Q.T
        A = 0.5 * (A + A.T)
        _, _, qp_val = optimal_effect(_fit_from_xtx_inv(A), list(range(p)))
        grid_val = _grid_min_p2(A) if p == 2 else _grid_min_p3(A)
        if abs(qp_val - grid_val) >= 1e-3:
            failures.append(f"trial {trial} p={p}: qp {qp_val:.6f} grid {grid_val:.6f}")
    _report("optimality-suite", failures)


def test_clr_geometry():
    failures = []
    w_print = np.array([0.3712, 0.3218, 0.3068])
    problem = ClrProblem(w=WeightVector(w_print / w_print.sum()),
                         tau_hat=1.8511)
    beta_star, min_norm_sq = min_norm_point(problem)
    published = np.array([2.047952, 1.775069, 1.692757])
    for j in range(3):
        if abs(beta_star[j] - published[j]) >= 1e-3:
            failures.append(f"beta_star[{j}] {beta_star[j]:.6f} vs {published[j]}")
    if abs(min_norm_sq - 10.2104) >= 1e-3:
        failures.append(f"min_norm_sq {min_norm_sq:.6f} vs 10.2104")

    candidate = np.array([0.8742301, 1.9232452, 2.9575739])
    plane_resid = abs(problem.w.weights @ candidate - problem.tau_hat)
    sphere_resid = abs(candidate @ candidate - 13.2104)
    if plane_resid >= 1e-3:
        failures.append(f"candidate hyperplane residual {plane_resid:.2e}")
    if sphere_resid >= 1e-3:
        failures.append(f"candidate sphere residual {sphere_resid:.2e}")
    _report("clr-geometry", failures)


def test_monte_carlo_suite():
    failures = []
    start = time.perf_counter()
    suite = run_paper_suite(seed=0, replicates=1000)
    elapsed = time.perf_counter() - start

    group_effects = ("tau1", "tau2", "tau3", "tau4",
                     "tau1_w", "tau2_w", "tau3_w", "tau4_w")
    case1 = suite.report("case1")
    worst_group = max(case1.effect(label).variance for label in group_effects)
    if worst_group >= 0.5:
        failures.append(f"case1 group-effect variance {worst_group:.3f} >= 0.5")

    case3 = suite.report("case3")
    if case3.effect("tau1_w").variance >= 0.1:
        failures.append(f"case3 var(tau1_w) {case3.effect('tau1_w').variance:.4f}")
    if case3.effect("beta1").variance <= 1e4:
        failures.append(f"case3 var(beta1) {case3.effect('beta1').variance:.3g}")
    if case3.effect("beta6").variance >= 1.0:
        failures.append(f"case3 var(beta6) {case3.effect('beta6').variance:.3f}")

    case4 = suite.report("case4")
    if case4.effect("tau1").variance <= 10.0:
        failures.append(f"case4 var(tau1) {case4.effect('tau1').variance:.3f}")
    if case4.effect("tau1_w").variance >= 0.1:
        failures.append(f"case4 var(tau1_w) {case4.effect('tau1_w').variance:.4f}")

    if suite.report("case5").effect("tau1_w").variance <= 5.0:
        failures.append("case5 var(tau1_w) not blown up")

    for report in suite.reports:
        for eff in report.effects:
            if eff.variance == 0.0:
                continue
            mc_se = math.sqrt(eff.variance / report.replicates)
            z = abs(eff.mean - eff.true_value) / mc_se
            if z >= 4.0:
                failures.append(f"{report.label}/{eff.label}: {z:.2f} MC SEs off")

    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s >= 60s")
    _report("monte-carlo-suite", failures)


def test_silvey_decomposition():
    failures = []
    rng = np.random.default_rng(404)
    for trial in range(200):
        q = int(rng.integers(2, 9))
        n = q + int(rng.integers(5, 30))
        X = rng.standard_normal((n, q))
        data = Dataset(y=rng.standard_normal(n), X=X,
                       names=tuple(f"x{i}" for i in range(q)))
        fit = fit_ols(data)
        c = rng.standard_normal(q)
        variance, _, _ = silvey_variance(fit, c)
        direct = float(c @ fit.cov @ c)
        rel = abs(variance - direct) / abs(direct)
        if rel >= 1e-9:
            failures.append(f"trial {trial}: rel err {rel:.2e}")
    _report("silvey-decomposition", failures)


def test_determinism(tmp_path):
    failures = []
    outputs = []
    for tag in ("a", "b"):
        out = tmp_path / f"suite_{tag}.csv"
        code = main(["simulate", "--paper-suite", "--seed", "7", "--out", str(out)])
        if code != 0:
            failures.append(f"run {tag} exit code {code}")
        outputs.append(out.read_bytes())
    if outputs[0] != outputs[1]:
        failures.append("outputs differ between identical runs")
    _report("determinism", failures)
