"""Tests for constrained local regression: hyperplane geometry, sphere
intersection and candidate selection."""

import numpy as np
import numpy.testing as npt
import pytest

from groupfx import (
    ClrProblem,
    Dataset,
    RadiusTooSmallError,
    WeightVector,
    ZeroWeightError,
    correlation,
    fit_ols,
    min_norm_point,
    solve_clr,
    solve_clr_best_offset,
    sphere_candidates,
    variability_weights,
)
from groupfx.clr import _default_direction
from conftest import mixing_dataset, uniform_design_dataset

# Published worked example: rounded weights renormalized to the simplex.
PAPER_W = np.array([0.3712, 0.3218, 0.3068])
PAPER_TAU = 1.8511
PAPER_BETA_STAR = np.array([2.047952, 1.775069, 1.692757])
PAPER_MIN_NORM_SQ = 10.2104
PAPER_CANDIDATE = np.array([0.8742301, 1.9232452, 2.9575739])
PAPER_C = 13.2104


def kfold_oracle(data, group, signs, point, n_folds, seed):
    """k-fold score of one candidate by direct refits: per fold, hold the
    group at the candidate, refit the other coefficients on the training
    rows with lstsq and sum the held-out squared error. The refits run on
    the other columns scaled to a largest magnitude of 1, which fixes the
    minimum-norm refit of a rank-deficient fold whatever the columns' units.
    Returns the score and the number of folds whose training design was
    rank-deficient."""
    idx = list(group)
    rest = [j for j in range(data.q) if j not in idx]
    X_rest = data.X[:, rest] / np.abs(data.X[:, rest]).max(axis=0)
    beta_g = signs.signs * point
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    perm = rng.permutation(data.n)
    # more folds than rows: each row is its own fold (leave-one-out)
    folds = np.array_split(perm, n_folds) if n_folds <= data.n else perm[:, None]
    sse, deficient = 0.0, 0
    for fold in folds:
        train = np.setdiff1d(perm, fold)
        y_adj = data.y[train] - data.X[np.ix_(train, idx)] @ beta_g
        coef, _, rank, _ = np.linalg.lstsq(X_rest[train], y_adj, rcond=None)
        deficient += rank < len(rest)
        pred = data.X[np.ix_(fold, idx)] @ beta_g + X_rest[fold] @ coef
        sse += float(np.sum((data.y[fold] - pred) ** 2))
    return sse, deficient


def paper_problem() -> ClrProblem:
    w = WeightVector(PAPER_W / PAPER_W.sum())
    return ClrProblem(w=w, tau_hat=PAPER_TAU)


class TestMinNormPoint:
    def test_published_example(self):
        beta_star, mns = min_norm_point(paper_problem())
        npt.assert_allclose(beta_star, PAPER_BETA_STAR, atol=1e-3)
        assert abs(mns - PAPER_MIN_NORM_SQ) < 1e-3

    def test_zero_effect(self):
        prob = ClrProblem(w=WeightVector.average(3), tau_hat=0.0)
        beta_star, mns = min_norm_point(prob)
        npt.assert_allclose(beta_star, np.zeros(3))
        assert mns == 0.0

    def test_axis_aligned(self):
        prob = ClrProblem(w=WeightVector.basis(4, 0), tau_hat=5.0)
        beta_star, mns = min_norm_point(prob)
        npt.assert_allclose(beta_star, [5.0, 0.0, 0.0, 0.0])
        npt.assert_allclose(mns, 25.0)

    def test_minimality_over_hyperplane(self):
        # every other point of the hyperplane is at least as far from 0
        rng = np.random.default_rng(0)
        prob = paper_problem()
        w = prob.w.weights
        beta_star, mns = min_norm_point(prob)
        for _ in range(1000):
            d = rng.standard_normal(3)
            d -= (d @ w) / (w @ w) * w
            point = beta_star + d
            assert point @ point >= mns - 1e-12
            npt.assert_allclose(w @ point, prob.tau_hat, atol=1e-10)

    def test_hyperplane_membership(self):
        prob = paper_problem()
        beta_star, _ = min_norm_point(prob)
        npt.assert_allclose(prob.w.weights @ beta_star, prob.tau_hat, atol=1e-10)


class TestSphereCandidates:
    def test_tangency_returns_beta_star(self):
        prob = paper_problem()
        beta_star, mns = min_norm_point(prob)
        p1, p2 = sphere_candidates(prob, mns, np.array([1.0, 0.0, 0.0]))
        npt.assert_allclose(p1, beta_star, atol=1e-9)
        npt.assert_allclose(p2, beta_star, atol=1e-9)

    def test_published_candidate_lies_on_both_surfaces(self):
        prob = paper_problem()
        assert abs(prob.w.weights @ PAPER_CANDIDATE - PAPER_TAU) < 1e-3
        assert abs(PAPER_CANDIDATE @ PAPER_CANDIDATE - PAPER_C) < 1e-3

    def test_candidates_satisfy_both_equations(self):
        prob = paper_problem()
        rng = np.random.default_rng(1)
        for _ in range(20):
            c = prob.tau_hat**2 / (prob.w.weights @ prob.w.weights) + rng.uniform(0, 10)
            direction = rng.standard_normal(3)
            for point in sphere_candidates(prob, c, direction):
                assert abs(prob.w.weights @ point - prob.tau_hat) < 1e-8 * (1 + abs(prob.tau_hat))
                assert abs(point @ point - c) < 1e-8 * (1 + c)

    def test_p2_matches_line_circle_quadratic(self):
        # at p = 2 the direction is forced and the intersections solve the
        # line-circle system in closed form
        w = WeightVector(np.array([0.6, 0.4]))
        tau, c = 1.0, 4.0
        prob = ClrProblem(w=w, tau_hat=tau)
        pts = sphere_candidates(prob, c, np.array([1.0, 0.0]))
        # quadratic oracle: points on w1 b1 + w2 b2 = tau with b1^2+b2^2 = c
        a = w.weights
        # parameterize b1 = t: (tau - a1 t)^2 / a2^2 + t^2 = c
        A = a[0] ** 2 / a[1] ** 2 + 1.0
        B = -2.0 * tau * a[0] / a[1] ** 2
        C = tau**2 / a[1] ** 2 - c
        roots = np.roots([A, B, C])
        expected = {tuple(np.round((t, (tau - a[0] * t) / a[1]), 9)) for t in roots}
        got = {tuple(np.round(p, 9)) for p in pts}
        assert expected == got

    def test_radius_too_small_rejected(self):
        prob = paper_problem()
        with pytest.raises(RadiusTooSmallError):
            sphere_candidates(prob, 1.0, np.array([1.0, 0.0, 0.0]))

    def test_direction_parallel_to_w_rejected(self):
        prob = paper_problem()
        with pytest.raises(ZeroWeightError):
            sphere_candidates(prob, 14.0, prob.w.weights.copy())


class TestSolveClr:
    @pytest.fixture
    def data(self, table7_like_dataset):
        return table7_like_dataset

    def test_zero_offset_returns_min_norm_point(self, data):
        sol = solve_clr(data, [3, 4, 5], c_offset=0.0)
        npt.assert_allclose(sol.chosen, sol.beta_star, atol=1e-12)
        npt.assert_allclose(sol.c, sol.min_norm_sq)

    def test_min_rss_beats_min_norm_point(self, data):
        sol = solve_clr(data, [3, 4, 5], c_offset=3.0, selection="min-rss")
        assert len(sol.candidates) == 2
        assert sol.diagnostics["rss_chosen"] <= sol.diagnostics["rss_beta_star"]

    def test_geometry_invariants(self, data):
        sol = solve_clr(data, [3, 4, 5], c_offset=3.0)
        w = sol.problem.w.weights
        tau = sol.problem.tau_hat
        npt.assert_allclose(w @ sol.beta_star, tau, atol=1e-10)
        assert sol.c >= sol.min_norm_sq
        for cand in sol.candidates:
            assert abs(w @ cand - tau) < 1e-8 * (1 + abs(tau))
            assert abs(cand @ cand - sol.c) < 1e-8 * (1 + sol.c)

    def test_locality(self, data):
        # coefficients outside the group keep their least-squares values
        sol = solve_clr(data, [3, 4, 5], c_offset=3.0)
        fit = fit_ols(data)
        outside = [j for j in range(data.q) if j not in (3, 4, 5)]
        npt.assert_array_equal(sol.full_beta[outside], fit.beta_hat[outside])
        npt.assert_allclose(sol.full_beta[[3, 4, 5]], sol.signs.signs * sol.chosen,
                            rtol=1e-12)

    def test_kfold_is_seed_deterministic(self, data):
        a = solve_clr(data, [3, 4, 5], c_offset=3.0, selection="kfold", seed=5)
        b = solve_clr(data, [3, 4, 5], c_offset=3.0, selection="kfold", seed=5)
        npt.assert_array_equal(a.chosen, b.chosen)
        assert a.diagnostics["scores"] == b.diagnostics["scores"]

    def test_kfold_beats_raw_ols_on_strongly_correlated_replicates(self):
        # Monte Carlo oracle: over 50 strongly correlated draws the k-fold
        # CLR estimate of the group coefficients is closer to the truth than
        # the raw least-squares estimate (in median)
        beta_true = np.array([1.0, 2.0, 3.0])
        clr_err, ols_err = [], []
        for seed in range(50):
            data = mixing_dataset(0.9, 0.95, seed=1000 + seed)
            sol = solve_clr(data, [3, 4, 5], c_offset=3.0, selection="kfold", seed=42)
            fit = fit_ols(data)
            chosen_orig = sol.signs.signs * sol.chosen
            clr_err.append(np.linalg.norm(chosen_orig - beta_true))
            ols_err.append(np.linalg.norm(fit.beta_hat[[3, 4, 5]] - beta_true))
        assert np.median(clr_err) <= np.median(ols_err)

    def test_unknown_selection_rejected(self, data):
        with pytest.raises(ValueError):
            solve_clr(data, [3, 4, 5], selection="magic")

    @pytest.mark.parametrize("n_folds", [-1, 0, 1])
    def test_kfold_needs_two_folds(self, data, n_folds):
        with pytest.raises(ValueError):
            solve_clr(data, [3, 4, 5], selection="kfold", n_folds=n_folds)
        with pytest.raises(ValueError):
            solve_clr_best_offset(data, [3, 4, 5], [1.0], selection="kfold",
                                  n_folds=n_folds)

    def test_negative_offset_rejected(self, data):
        with pytest.raises(RadiusTooSmallError):
            solve_clr(data, [3, 4, 5], c_offset=-1.0)

    def test_offset_grid_search_picks_best_score(self, data):
        offsets = (0.0, 1.0, 3.0, 6.0)
        best = solve_clr_best_offset(data, [3, 4, 5], offsets)
        singles = [solve_clr(data, [3, 4, 5], c_offset=o) for o in offsets]
        expected = min(min(s.diagnostics["scores"]) for s in singles)
        npt.assert_allclose(min(best.diagnostics["scores"]), expected, rtol=1e-12)
        assert len(best.diagnostics["offset_scores"]) == len(offsets)

    def test_offset_grid_requires_offsets(self, data):
        with pytest.raises(RadiusTooSmallError):
            solve_clr_best_offset(data, [3, 4, 5], [])


class TestDefaultDirection:
    """The search direction when the OLS group estimate lies along w, so its
    offset from beta_star projects to zero."""

    @staticmethod
    def projected(w, j):
        e = np.eye(w.shape[0])[j]
        return e - (e @ w) / (w @ w) * w

    def test_ols_estimate_parallel_to_w(self):
        # y = X (2 w) plus noise orthogonal to X: the OLS group estimate is 2 w
        data = uniform_design_dataset(20, 3, 0.9, sds=[1.0, 2.0, 3.0], seed=4)
        group = [0, 1, 2]
        w = variability_weights(correlation(data, group)).weights
        noise = np.random.default_rng(8).standard_normal(data.n)
        noise -= data.X @ np.linalg.lstsq(data.X, noise, rcond=None)[0]
        data = Dataset(y=data.X @ (2.0 * w) + noise, X=data.X, names=data.names)
        sol = solve_clr(data, group, c_offset=3.0)
        npt.assert_allclose(sol.beta_star, 2.0 * w, rtol=1e-12)
        d = self.projected(w, 0)
        step = np.sqrt(3.0) * d / np.linalg.norm(d)
        npt.assert_allclose(sol.candidates, (sol.beta_star + step, sol.beta_star - step),
                            rtol=1e-9, atol=1e-12)

    def test_first_axis_along_w_falls_through_to_the_second(self):
        # e_0 projects off w to a vector of norm ~1e-13 < 1e-12, so e_1 is taken
        w = np.array([1.0 - 1e-13, 1e-13])
        assert np.linalg.norm(self.projected(w, 0)) < 1e-12
        d = _default_direction(w, 2.0 * w, 2.0 * w)
        npt.assert_array_equal(d, self.projected(w, 1))
        assert abs(d @ w) < 1e-15

    def test_no_direction_for_a_single_weight(self):
        w = np.array([1.0])
        with pytest.raises(ZeroWeightError):
            _default_direction(w, w, w)


def test_kfold_without_columns_outside_the_group():
    # nothing outside the group is refit, so each held-out residual is the
    # plain residual and the k-fold score is ||y - X b||^2
    data = uniform_design_dataset(20, 3, 0.9, beta=[1.0, 2.0, 3.0], seed=2)
    sol = solve_clr(data, [0, 1, 2], selection="kfold", n_folds=4)
    rss = [float(np.sum((data.y - data.X @ (sol.signs.signs * pt)) ** 2))
           for pt in sol.candidates]
    npt.assert_allclose(sol.diagnostics["scores"], rss, rtol=1e-12)


class TestKfoldScores:
    """k-fold scores and offset scores against per-fold, per-candidate
    refits (:func:`kfold_oracle`)."""

    OFFSETS = (0.0, 1.0, 3.0, 6.0)

    def check(self, data, group, n_folds, seed=9):
        deficient = 0
        best_per_offset = []
        for offset in self.OFFSETS:
            sol = solve_clr(data, group, c_offset=offset, selection="kfold",
                            n_folds=n_folds, seed=seed)
            oracle = [kfold_oracle(data, group, sol.signs, pt, n_folds, seed)
                      for pt in sol.candidates]
            npt.assert_allclose(sol.diagnostics["scores"], [s for s, _ in oracle],
                                rtol=1e-10)
            best_per_offset.append(min(s for s, _ in oracle))
            deficient += sum(d for _, d in oracle)
        best = solve_clr_best_offset(data, group, self.OFFSETS, selection="kfold",
                                     n_folds=n_folds, seed=seed)
        offsets, scores = zip(*best.diagnostics["offset_scores"])
        assert offsets == self.OFFSETS
        npt.assert_allclose(scores, best_per_offset, rtol=1e-10)
        return deficient

    @pytest.mark.parametrize("n_folds", [5, 10, 10**20])
    def test_fixture_design(self, table7_like_dataset, n_folds):
        self.check(table7_like_dataset, [3, 4, 5], n_folds)

    def test_more_folds_than_rows(self, table7_like_dataset):
        data = table7_like_dataset
        self.check(data, [3, 4, 5], data.n + 4)

    @staticmethod
    def spiked(base):
        """base plus two predictors that are nonzero on one and on three
        rows: every fold that holds those rows out trains on a zero column."""
        spikes = np.zeros((base.n, 2))
        spikes[4, 0] = 1.5
        spikes[[1, 7, 11], 1] = (0.5, -1.0, 2.0)
        return Dataset(y=base.y, X=np.column_stack([base.X, spikes]),
                       names=base.names + ("s1", "s2"), has_intercept=True)

    @staticmethod
    def collinear(base):
        """base plus a predictor equal to 2 x1 on every row but one: every
        fold that holds that row out trains on two collinear columns, where
        the minimum-norm refit depends on how the columns are scaled."""
        c = 2.0 * base.X[:, 1]
        c[4] += 1.0
        return Dataset(y=base.y, X=np.column_stack([base.X, c]),
                       names=base.names + ("c",), has_intercept=True)

    def test_rank_deficient_training_folds(self, table7_like_dataset):
        assert self.check(self.spiked(table7_like_dataset), [3, 4, 5], 10) > 0

    def test_collinear_training_folds(self, table7_like_dataset):
        assert self.check(self.collinear(table7_like_dataset), [3, 4, 5], 10) > 0

    @pytest.mark.parametrize("design", ["spiked", "collinear"])
    @pytest.mark.parametrize("k", [-8, -4, 4, 8])
    def test_rank_deficient_folds_do_not_depend_on_column_units(self, table7_like_dataset,
                                                                k, design):
        # the lstsq refit of a rank-deficient fold sees any column outside the
        # group scaled by 10^k as the same column
        data, group = getattr(self, design)(table7_like_dataset), [3, 4, 5]

        def scores(d):
            return [solve_clr(d, group, c_offset=offset, selection="kfold", n_folds=10,
                              seed=9).diagnostics["scores"] for offset in self.OFFSETS]

        want = scores(data)
        for j in (j for j in range(1, data.q) if j not in group):
            X = data.X.copy()
            X[:, j] *= 10.0**k
            scaled = Dataset(y=data.y, X=X, names=data.names, has_intercept=True)
            npt.assert_allclose(scores(scaled), want, rtol=1e-12, err_msg=data.names[j])

    @pytest.mark.parametrize("delta", [1e-8, 1e-6, 1e-4, 9e-4, 1e-3, 1.1e-3, 3e-3, 1e-2])
    def test_leave_one_out_row_of_leverage_near_one(self, table7_like_dataset, delta):
        # one added predictor s = e_i + t w, with w orthogonal to the other
        # columns and to e_i, gives row i leverage exactly 1 - delta among the
        # columns outside the group; its leave-one-out fold sits on either
        # side of the point where the refit switches from downdate to lstsq
        base, group, i = table7_like_dataset, [3, 4, 5], 6
        rest = [j for j in range(base.q) if j not in group]
        e = np.zeros(base.n)
        e[i] = 1.0
        basis, _ = np.linalg.qr(np.column_stack([base.X[:, rest], e]))
        w = np.random.default_rng(5).standard_normal(base.n)
        w -= basis @ (basis.T @ w)
        q_rest, _ = np.linalg.qr(base.X[:, rest])
        h0 = float(q_rest[i] @ q_rest[i])
        t = np.sqrt(((1 - h0) ** 2 / (1 - delta - h0) - (1 - h0)) / (w @ w))
        data = Dataset(y=base.y, X=np.column_stack([base.X, e + t * w]),
                       names=base.names + ("s",), has_intercept=True)
        q, _ = np.linalg.qr(data.X[:, rest + [data.q - 1]])
        npt.assert_allclose(1.0 - q[i] @ q[i], delta, rtol=1e-6)
        self.check(data, group, data.n + 1)
