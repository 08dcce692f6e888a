"""Tests for sign arrangements, weighted effects, the eigendecomposition
variance form and the dual-form optimal effect."""

import itertools
import math
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from groupfx import (
    APC_THRESHOLD,
    CorrelationMatrix,
    Dataset,
    DimensionMismatchError,
    GroupTooLargeError,
    OlsFit,
    SignArrangement,
    SimCaseConfig,
    WeightVector,
    apc_arrangement,
    average_effect_variance,
    check_apc_condition,
    correlation,
    detect_groups,
    estimate_effect,
    fit_ols,
    generate_design,
    optimal_effect,
    silvey_variance,
    standardize,
    t_sf_two_sided,
    variability_weights,
)
from conftest import cone_design, uniform_design_dataset

# Reference two-sided t tail probabilities (t, dof, p). The dof=4 rows match
# the worked single-fit example's printed (t, p) pairs; the 2.776 / 2.228
# rows are the classic 5% critical values.
T_REFERENCE = (
    (0.5, 1, 0.7048327646991336),
    (1.0, 1, 0.49999999999999956),
    (2.0, 2, 0.1835034190722739),
    (1.5, 3, 0.23058386524482283),
    (2.776445105, 4, 0.05000000001011946),
    (10.905, 4, 0.0004015001982111923),
    (12.59, 4, 0.00022908660668728123),
    (2.228138852, 10, 0.04999999999883648),
    (0.1, 30, 0.9210096117902711),
    (3.5, 30, 0.0014768074376442554),
    (1.96, 1000, 0.05027318495574871),
    (0.0, 5, 1.0),
    (25.0, 2, 0.001596170211410334),
)


def _corr(values, sds=None):
    values = np.asarray(values, dtype=float)
    sds = np.ones(values.shape[0]) if sds is None else np.asarray(sds, dtype=float)
    return CorrelationMatrix(values=values, column_sds=sds)


class TestWeightVector:
    def test_simplex_validation(self):
        WeightVector([0.2, 0.3, 0.5])
        with pytest.raises(ValueError):
            WeightVector([0.5, 0.6])
        with pytest.raises(ValueError):
            WeightVector([1.5, -0.5])

    def test_builders(self):
        npt.assert_allclose(WeightVector.average(4).weights, np.full(4, 0.25))
        npt.assert_allclose(WeightVector.basis(3, 1).weights, [0.0, 1.0, 0.0])


class TestSignArrangement:
    def test_entries_must_be_unit(self):
        with pytest.raises(ValueError):
            SignArrangement(np.array([1.0, 0.5]))

    def test_first_entry_positive(self):
        with pytest.raises(ValueError):
            SignArrangement(np.array([-1.0, 1.0]))


class TestTTail:
    def test_against_reference_table(self):
        for t, dof, expected in T_REFERENCE:
            assert abs(t_sf_two_sided(t, dof) - expected) < 1e-8
            assert abs(t_sf_two_sided(-t, dof) - expected) < 1e-8

    def test_degenerate_inputs(self):
        assert t_sf_two_sided(np.inf, 4) == 0.0
        with pytest.raises(ValueError):
            t_sf_two_sided(1.0, 0)

    @pytest.mark.parametrize("dof", [1, 2])
    def test_closed_forms(self, dof):
        # dof 1 (Cauchy): p = (2/pi) atan(1/|t|); dof 2: p = 1 - |t|/s =
        # 2 / (s (s + |t|)) with s = sqrt(2 + t^2)
        for t in np.geomspace(1e-3, 1e6, 400):
            if dof == 1:
                expected = 2.0 / math.pi * math.atan(1.0 / t)
            else:
                s = math.sqrt(2.0 + t * t)
                expected = 2.0 / (s * (s + t))
            for signed in (t, -t):
                assert t_sf_two_sided(signed, dof) == pytest.approx(
                    expected, rel=1e-13, abs=0.0)

    def test_against_scipy_betainc(self):
        # Both sides evaluate I_x(dof/2, 1/2). Below |t| ~ 0.1 at large dof
        # scipy is the less accurate side, because it receives
        # x = dof / (dof + t^2) already rounded next to 1, so the sample
        # starts at |t| = 0.1.
        betainc = pytest.importorskip("scipy.special").betainc
        rng = np.random.default_rng(20)
        dofs = np.floor(10.0 ** rng.uniform(0.0, 4.0, 2000)).astype(int)
        ts = 10.0 ** rng.uniform(-1.0, math.log10(300.0), 2000)
        ts *= rng.choice([-1.0, 1.0], 2000)
        checked = 0
        for t, dof in zip(ts, dofs):
            expected = float(betainc(0.5 * dof, 0.5, dof / (dof + t * t)))
            if expected > 1e-300:
                assert t_sf_two_sided(float(t), int(dof)) == pytest.approx(
                    expected, rel=1e-11, abs=0.0), (t, dof)
                checked += 1
        assert checked > 1500

    @pytest.mark.parametrize("dof", [10**5, 4938130, 10**8])
    @pytest.mark.parametrize("t", [2.0, 3.62, 8.0])
    def test_huge_dof_against_mpmath(self, t, dof):
        # x = dof / (dof + t^2) is rounded next to 1 here; a fraction formed
        # from it loses about dof * eps (2e-10 at dof 4938130, t = 2)
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            d, t2 = mpmath.mpf(dof), mpmath.mpf(t) ** 2
            expected = float(mpmath.betainc(d / 2, 0.5, 0, d / (d + t2), regularized=True))
        for signed in (t, -t):
            assert t_sf_two_sided(signed, dof) == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_properties(self):
        grid = np.concatenate([[0.0], np.geomspace(1e-4, 1e4, 300)])
        for dof in (1, 2, 3, 7, 30, 49, 120, 1000, 10**5):
            assert t_sf_two_sided(0.0, dof) == 1.0
            assert t_sf_two_sided(np.inf, dof) == 0.0
            assert t_sf_two_sided(-np.inf, dof) == 0.0
            p = [t_sf_two_sided(t, dof) for t in grid]
            assert p == [t_sf_two_sided(-t, dof) for t in grid]
            assert all(0.0 <= v <= 1.0 for v in p)
            assert all(b <= a for a, b in zip(p, p[1:]))

    def test_nan_inputs_raise(self):
        # a NaN t must not read as an infinite one (p = 0), and a NaN or
        # infinite dof must not reach the continued fraction
        with pytest.raises(ValueError):
            t_sf_two_sided(np.nan, 5)
        for dof in (np.nan, np.inf):
            with pytest.raises(ValueError):
                t_sf_two_sided(1.0, dof)


class TestApcCondition:
    def test_above_threshold(self):
        corr = _corr([[1.0, 0.8, 0.9], [0.8, 1.0, 0.75], [0.9, 0.75, 1.0]])
        assert check_apc_condition(corr, 0)

    def test_strict_inequality(self):
        # 0.7 < sqrt(2)/2 ~ 0.7071: the condition fails
        corr = _corr([[1.0, 0.8, 0.7], [0.8, 1.0, 0.6], [0.7, 0.6, 1.0]])
        assert not check_apc_condition(corr, 0)

    def test_case2_design_satisfies_condition(self):
        design = generate_design(SimCaseConfig(w1=0.90, w2=0.95, seed=0))
        assert check_apc_condition(correlation(design, [1, 2]), 0)
        assert check_apc_condition(correlation(design, [3, 4, 5]), 0)


class TestApcArrangement:
    def test_all_positive_is_identity(self):
        corr = _corr([[1.0, 0.9, 0.8], [0.9, 1.0, 0.85], [0.8, 0.85, 1.0]])
        arr = apc_arrangement(corr)
        npt.assert_array_equal(arr.signs, [1.0, 1.0, 1.0])
        assert arr.condition_met

    def test_mixed_signs_example(self):
        R = np.array([[1.0, 0.9, -0.8], [0.9, 1.0, -0.75], [-0.8, -0.75, 1.0]])
        arr = apc_arrangement(_corr(R))
        npt.assert_array_equal(arr.signs, [1.0, 1.0, -1.0])
        resigned = R * np.outer(arr.signs, arr.signs)
        assert np.all(resigned[~np.eye(3, dtype=bool)] > 0)
        # exhaustive check over the 4 anchor-fixed sign choices: the returned
        # one is the (unique) choice making everything positive
        for tail in itertools.product((-1.0, 1.0), repeat=2):
            s = np.array((1.0,) + tail)
            re = R * np.outer(s, s)
            all_pos = np.all(re[~np.eye(3, dtype=bool)] > 0)
            assert all_pos == np.array_equal(s, arr.signs)

    def test_flipped_simulation_design_restored(self):
        # sign flips of x2 and x5 create negative within-group correlations;
        # the arrangement must recover all-positive ones
        from groupfx import Transform
        cfg = SimCaseConfig(w1=0.9, w2=0.9, seed=0,
                            transforms=(Transform(2, flip=True), Transform(5, flip=True)))
        design = generate_design(cfg)
        for group in ([1, 2], [3, 4, 5]):
            corr = correlation(design, group)
            off = corr.values[~np.eye(len(group), dtype=bool)]
            assert off.min() < 0  # the flip did its damage
            arr = apc_arrangement(corr)
            resigned = corr.values * np.outer(arr.signs, arr.signs)
            off = resigned[~np.eye(len(group), dtype=bool)]
            assert np.all(off > 0)

    def test_zero_correlation_keeps_positive_sign(self):
        corr = _corr([[1.0, 0.0], [0.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            arr = apc_arrangement(corr, anchor=0)
        npt.assert_array_equal(arr.signs, [1.0, 1.0])

    def test_first_sign_convention_after_anchor_override(self):
        # anchor 1 with a negative r(1, 0): raw per-anchor signs start at -1
        # and must be globally flipped
        R = np.array([[1.0, -0.9, -0.8], [-0.9, 1.0, 0.85], [-0.8, 0.85, 1.0]])
        arr = apc_arrangement(_corr(R), anchor=1)
        assert arr.signs[0] == 1.0
        resigned = R * np.outer(arr.signs, arr.signs)
        assert np.all(resigned[~np.eye(3, dtype=bool)] > 0)

    def test_condition_failure_warns_and_flags(self):
        R = np.array([[1.0, 0.3, 0.2], [0.3, 1.0, 0.25], [0.2, 0.25, 1.0]])
        with pytest.warns(UserWarning):
            arr = apc_arrangement(_corr(R))
        assert not arr.condition_met

    def test_best_anchor_when_none_qualifies(self):
        # anchor 2 has the largest worst-case |correlation| (0.6)
        R = np.array([[1.0, 0.3, 0.6], [0.3, 1.0, 0.65], [0.6, 0.65, 1.0]])
        with pytest.warns(UserWarning):
            arr = apc_arrangement(_corr(R))
        assert arr.anchor == 2

    def test_auto_anchor_falls_back_to_satisfying_variable(self):
        # variable 0 fails the condition but variable 2 satisfies it
        R = np.array([[1.0, 0.3, 0.75], [0.3, 1.0, 0.8], [0.75, 0.8, 1.0]])
        arr = apc_arrangement(_corr(R))
        assert arr.anchor == 2 and arr.condition_met

    @staticmethod
    def loop_anchor(R):
        """The anchor choice as a per-anchor loop: the first variable whose
        |correlations| with all others exceed the threshold (variable 0 when
        it qualifies), else the first with the largest worst |correlation|."""
        p = R.shape[0]
        worst = [float(np.min(np.abs(np.delete(R[a], a)))) for a in range(p)]
        ok = [a for a in range(p) if np.all(np.abs(np.delete(R[a], a)) > APC_THRESHOLD)]
        if ok:
            return (0 if 0 in ok else ok[0]), True
        return max(range(p), key=lambda a: worst[a]), False

    @pytest.mark.parametrize("levels", [
        None,
        (0.0, 0.5, 0.7, APC_THRESHOLD, 0.71, 0.8, 0.9, 1.0),
    ], ids=["random", "tie-heavy"])
    def test_anchor_matches_per_anchor_loop(self, levels):
        rng = np.random.default_rng(7)
        for _ in range(2000):
            p = int(rng.integers(2, 8))
            if levels is None:
                R = rng.uniform(-1.0, 1.0, (p, p))
            else:
                R = rng.choice(levels, (p, p)) * rng.choice((-1.0, 1.0), (p, p))
            R = np.triu(R, 1) + np.triu(R, 1).T + np.eye(p)
            corr = _corr(R)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                arr = apc_arrangement(corr)
            assert (arr.anchor, arr.condition_met) == self.loop_anchor(corr.values)
            for a in range(p):
                assert check_apc_condition(corr, a) == bool(
                    np.all(np.abs(np.delete(corr.values[a], a)) > APC_THRESHOLD))

    def test_theorem_cone_property(self):
        # inside the condition cone the arrangement always yields all
        # pairwise positive correlations
        rng = np.random.default_rng(123)
        for _ in range(200):
            p = int(rng.integers(2, 7))
            X = cone_design(p, n=p + 3, rng=rng)
            data = Dataset(y=rng.standard_normal(p + 3), X=X,
                           names=tuple(f"x{i}" for i in range(p)))
            corr = correlation(data, list(range(p)))
            arr = apc_arrangement(corr)
            resigned = corr.values * np.outer(arr.signs, arr.signs)
            assert np.all(resigned[~np.eye(p, dtype=bool)] > 0)


class TestVariabilityWeights:
    def test_equal_scales_reduce_to_average(self):
        corr = _corr(np.eye(3), sds=[1.0, 1.0, 1.0])
        npt.assert_allclose(variability_weights(corr).weights, np.full(3, 1 / 3))

    def test_proportional_to_scales(self):
        corr = _corr(np.eye(3), sds=[1.0, 1.0, 2.0])
        npt.assert_allclose(variability_weights(corr).weights, [0.25, 0.25, 0.5])

    def test_simplex_regime(self):
        corr = _corr(np.eye(2), sds=[3.0, 7.0])
        w = variability_weights(corr)
        npt.assert_allclose(w.weights.sum(), 1.0)


class TestEstimateEffect:
    def test_basis_effect_reproduces_coefficient(self, random_dataset):
        fit = fit_ols(random_dataset)
        for j in range(random_dataset.q):
            est = estimate_effect(fit, [j], WeightVector.basis(1, 0))
            npt.assert_allclose(est.value, fit.beta_hat[j], rtol=1e-12)
            npt.assert_allclose(est.std_error, np.sqrt(fit.cov[j, j]), rtol=1e-12)
            assert est.std_error == pytest.approx(np.sqrt(est.variance))
            assert 0.0 <= est.p_value <= 1.0

    def test_weighted_group_effect_significance_pattern(self, table7_like_dataset):
        # strongly correlated group: individual effects all insignificant,
        # the weighted group effect highly significant
        data = table7_like_dataset
        fit = fit_ols(data)
        group = [3, 4, 5]
        corr = correlation(data, group)
        signs = apc_arrangement(corr)
        tau = estimate_effect(fit, group, variability_weights(corr), signs)
        assert tau.p_value < 0.001
        for j in group:
            est = estimate_effect(fit, [j], WeightVector.basis(1, 0))
            assert est.p_value > 0.3

    def test_uniform_design_average_effect_variance(self):
        # cross-module oracle: on an exact uniform design the estimated
        # variance equals sigma2_hat times the closed-form average variance
        data = uniform_design_dataset(25, 2, 0.5, beta=[1.0, 1.0], seed=4)
        fit = fit_ols(data)
        est = estimate_effect(fit, [0, 1], WeightVector.average(2))
        from groupfx import UniformSpec
        expected = fit.sigma2_hat * average_effect_variance(UniformSpec(2, 0.5))
        npt.assert_allclose(est.variance, expected, rtol=1e-9)

    def test_linearity_in_raw_weights(self, random_dataset):
        fit = fit_ols(random_dataset)
        group = [1, 2, 3]
        rng = np.random.default_rng(0)
        w1, w2 = rng.standard_normal(3), rng.standard_normal(3)
        a, b = 1.7, -0.6
        e1 = estimate_effect(fit, group, w1)
        e2 = estimate_effect(fit, group, w2)
        combo = estimate_effect(fit, group, a * w1 + b * w2)
        npt.assert_allclose(combo.value, a * e1.value + b * e2.value, rtol=1e-10)
        # bilinear variance identity with the explicit cross term
        block = fit.cov[np.ix_(group, group)]
        cross = float(w1 @ block @ w2)
        npt.assert_allclose(combo.variance,
                            a**2 * e1.variance + 2 * a * b * cross + b**2 * e2.variance,
                            rtol=1e-9)

    def test_signs_applied(self, random_dataset):
        fit = fit_ols(random_dataset)
        group = [1, 2]
        signs = SignArrangement(np.array([1.0, -1.0]))
        est = estimate_effect(fit, group, WeightVector.average(2), signs)
        expected = 0.5 * fit.beta_hat[1] - 0.5 * fit.beta_hat[2]
        npt.assert_allclose(est.value, expected, rtol=1e-12)

    def test_dimension_checks(self, random_dataset):
        fit = fit_ols(random_dataset)
        with pytest.raises(DimensionMismatchError):
            estimate_effect(fit, [1, 2], WeightVector.average(3))
        with pytest.raises(DimensionMismatchError, match="column index 99 out of range"):
            estimate_effect(fit, [99], WeightVector.basis(1, 0))
        with pytest.raises(DimensionMismatchError, match="distinct"):
            estimate_effect(fit, [2, 2], WeightVector.average(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_raw_weights_rejected(self, random_dataset, bad):
        # a NaN variance must not pass for a zero one (t = inf, p = 0)
        fit = fit_ols(random_dataset)
        with pytest.raises(DimensionMismatchError, match="finite"):
            estimate_effect(fit, [1, 2], np.array([bad, 1.0]))

    def test_variance_transfer_to_standardized_model(self, random_dataset):
        # the raw-model effect variance equals h^2 times the standardized
        # model's variance of the rescaled simplex weights, h the component
        # sum of w S^{-1} (compared on the unscaled quadratic forms)
        data = random_dataset
        group = [1, 2, 3]
        fit = fit_ols(data)
        std_data, scales = standardize(data, group)
        std_fit = fit_ols(std_data)
        name_pos = {n: j for j, n in enumerate(std_data.names)}
        std_group = [name_pos[data.names[j]] for j in group]

        rng = np.random.default_rng(9)
        for _ in range(20):
            w = rng.dirichlet(np.ones(3))
            w_scaled = w / scales
            h = w_scaled.sum()
            w_plus = w_scaled / h
            raw_quad = w @ fit.xtx_inv[np.ix_(group, group)] @ w
            std_quad = w_plus @ std_fit.xtx_inv[np.ix_(std_group, std_group)] @ w_plus
            npt.assert_allclose(raw_quad, h**2 * std_quad, rtol=1e-8)


class TestSilveyVariance:
    def test_top_eigenvector_single_term(self, random_dataset):
        fit = fit_ols(random_dataset)
        lam, V = np.linalg.eigh(random_dataset.X.T @ random_dataset.X)
        c = V[:, -1]  # eigenvector of the largest eigenvalue
        variance, alphas, lambdas = silvey_variance(fit, c)
        npt.assert_allclose(variance, fit.sigma2_hat / lam[-1], rtol=1e-9)
        npt.assert_allclose(np.abs(alphas[0]), 1.0, atol=1e-9)
        assert np.all(np.diff(lambdas) <= 0)

    def test_p2_uniform_hand_eigendecomposition(self):
        # eigenvalues of the 2x2 equicorrelation matrix are 1+r and 1-r;
        # the equal-weight direction aligns with the 1+r eigenvector, so the
        # unscaled variance is 1/(2+2r)
        r = 0.6
        data = uniform_design_dataset(30, 2, r, beta=[0.5, 0.5], seed=2)
        fit = fit_ols(data)
        variance, alphas, lambdas = silvey_variance(fit, np.array([0.5, 0.5]))
        npt.assert_allclose(lambdas, [1 + r, 1 - r], rtol=1e-9)
        npt.assert_allclose(variance, fit.sigma2_hat / (2 + 2 * r), rtol=1e-9)

    def test_matches_direct_quadratic_form(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            q = int(rng.integers(2, 7))
            X = rng.standard_normal((30, q))
            data = Dataset(y=rng.standard_normal(30), X=X,
                           names=tuple(f"x{i}" for i in range(q)))
            fit = fit_ols(data)
            c = rng.standard_normal(q)
            variance, _, _ = silvey_variance(fit, c)
            npt.assert_allclose(variance, c @ fit.cov @ c, rtol=1e-9)

    def test_alpha_reconstructs_c(self, random_dataset):
        fit = fit_ols(random_dataset)
        c = np.random.default_rng(3).standard_normal(random_dataset.q)
        _, alphas, _ = silvey_variance(fit, c)
        lam, V = np.linalg.eigh(random_dataset.X.T @ random_dataset.X)
        V = V[:, np.argsort(lam)[::-1]]
        # no eigenvector's sign is defined: align each eigh column with the
        # basis silvey_variance used before reconstructing c
        signs = np.sign(V.T @ c) * np.sign(alphas)
        npt.assert_allclose(V @ (signs * alphas), c, rtol=1e-9)

    @pytest.mark.parametrize("p, r, rtol", [(5, 0.999, 2e-13), (8, 0.9999, 3e-12)])
    def test_equicorrelated_spectrum_oracle(self, p, r, rtol):
        # X'X is exactly the equicorrelation matrix C, whose spectrum is
        # 1 + (p-1) r once and 1 - r with multiplicity p - 1. The squared
        # singular values of R keep these digits; eigh of a formed X'X
        # squares the condition number and misses 1 - r by 3-4x the rtol.
        rng = np.random.default_rng(0)
        n = 40
        Q0, _ = np.linalg.qr(rng.standard_normal((n, p)))
        C = np.full((p, p), r)
        np.fill_diagonal(C, 1.0)
        X = Q0 @ np.linalg.cholesky(C).T
        data = Dataset(y=rng.standard_normal(n), X=X,
                       names=tuple(f"x{j}" for j in range(p)))
        fit = fit_ols(data)
        _, _, lambdas = silvey_variance(fit, np.ones(p))
        npt.assert_allclose(lambdas, [1 + (p - 1) * r] + [1 - r] * (p - 1), rtol=rtol)
        npt.assert_allclose(fit.Q @ fit.R, X, rtol=0, atol=1e-12)
        npt.assert_allclose(fit.Q.T @ fit.Q, np.eye(p), rtol=0, atol=1e-12)


class TestOptimalEffect:
    def _fit_from_xtx_inv(self, A):
        return OlsFit(beta_hat=np.zeros(A.shape[0]), sigma2_hat=1.0,
                      Q=np.eye(A.shape[0]), R=np.linalg.cholesky(np.linalg.inv(A)).T,
                      xtx_inv=A, dof=10, rss=10.0)

    def test_uniform_design_returns_equal_weights(self):
        for p, r in ((2, 0.5), (3, 0.8), (5, 0.95)):
            data = uniform_design_dataset(30, p, r, beta=np.ones(p), seed=p)
            fit = fit_ols(data)
            signs, w, variance = optimal_effect(fit, list(range(p)))
            npt.assert_array_equal(signs.signs, np.ones(p))
            npt.assert_allclose(w.weights, np.full(p, 1 / p), atol=1e-6)
            from groupfx import UniformSpec
            npt.assert_allclose(
                variance,
                fit.sigma2_hat * average_effect_variance(UniformSpec(p, r)),
                rtol=1e-6)

    def test_strong_negative_offdiagonal_block(self):
        # inverse block of two strongly positively correlated variables; the
        # grid oracle over |w1|+|w2|=1 at 1e-4 steps agrees with the QP
        A = np.array([[9.519, -8.846], [-8.846, 9.230]])
        fit = self._fit_from_xtx_inv(A)
        signs, w, variance = optimal_effect(fit, [0, 1])
        best_val, best_w = np.inf, None
        for a in np.arange(0.0, 1.0 + 1e-9, 1e-4):
            for s2 in (1.0, -1.0):
                ww = np.array([a, s2 * (1.0 - a)])
                val = ww @ A @ ww
                if val < best_val:
                    best_val, best_w = val, ww
        npt.assert_allclose(signs.signs * w.weights, best_w, atol=1e-3)
        npt.assert_allclose(variance, best_val, atol=1e-3)

    def test_optimal_never_beaten_by_named_effects(self, table7_like_dataset):
        data = table7_like_dataset
        fit = fit_ols(data)
        group = [3, 4, 5]
        corr = correlation(data, group)
        apc = apc_arrangement(corr)
        w_w = variability_weights(corr)
        _, _, var_star = optimal_effect(fit, group)
        var_w = estimate_effect(fit, group, w_w, apc).variance
        var_a = estimate_effect(fit, group, WeightVector.average(3), apc).variance
        assert var_star <= var_w + 1e-12
        assert var_star <= var_a + 1e-12
        for j in range(3):
            var_j = estimate_effect(fit, [group[j]], WeightVector.basis(1, 0)).variance
            assert var_star <= var_j + 1e-12

    def test_near_optimality_of_variability_weights(self, table7_like_dataset):
        # the exhaustive optimum sits close to the variability weighting on a
        # strongly correlated APC group, and its winning sign arrangement is
        # observed to be an APC one (both logged, not asserted with bounds)
        data = table7_like_dataset
        fit = fit_ols(data)
        group = [3, 4, 5]
        corr = correlation(data, group)
        signs, w_star, var_star = optimal_effect(fit, group)
        w_w = variability_weights(corr)
        gap = np.max(np.abs(w_star.weights - w_w.weights))
        resigned = corr.values * np.outer(signs.signs, signs.signs)
        is_apc = bool(np.all(resigned[~np.eye(3, dtype=bool)] > 0))
        print(f"||w* - w_w||_inf = {gap:.4f}, "
              f"var* = {var_star:.5f} vs var_w = "
              f"{estimate_effect(fit, group, w_w, apc_arrangement(corr)).variance:.5f}, "
              f"optimal signs form an APC arrangement: {is_apc}")
        assert signs.signs[0] == 1.0

    def test_random_blocks_match_grid_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            Q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
            A = Q @ np.diag(rng.uniform(0.2, 3.0, 2)) @ Q.T
            fit = self._fit_from_xtx_inv(A)
            _, _, variance = optimal_effect(fit, [0, 1])
            grid_best = np.inf
            for a in np.arange(0.0, 1.0 + 1e-9, 1e-4):
                for s2 in (1.0, -1.0):
                    ww = np.array([a, s2 * (1.0 - a)])
                    grid_best = min(grid_best, ww @ A @ ww)
            assert abs(variance - grid_best) < 1e-3

    def test_tie_break_is_lexicographic(self):
        # an identity block ties every orthant; the lexicographically
        # smallest anchor-fixed sign vector wins
        fit = self._fit_from_xtx_inv(np.eye(3))
        signs, w, variance = optimal_effect(fit, [0, 1, 2])
        npt.assert_array_equal(signs.signs, [1.0, -1.0, -1.0])
        npt.assert_allclose(variance, 1.0 / 3.0, rtol=1e-9)

    def test_random_designs_match_dual_oracle(self):
        # oracle: G is the group's residualized Gram matrix X_g'(I - P_rest)X_g,
        # built from lstsq residuals rather than by inverting (X'X)^{-1}, and
        # every anchor-fixed sign vector is scored one at a time
        rng = np.random.default_rng(31)
        for p in range(2, 11):
            n = p + 25
            z = rng.standard_normal(n)
            group_cols = [rng.choice((-1.0, 1.0)) * z + rng.uniform(0.3, 1.5)
                          * rng.standard_normal(n) for _ in range(p)]
            rest_cols = [rng.standard_normal(n) for _ in range(3)]
            data = Dataset.from_columns(rng.standard_normal(n), group_cols + rest_cols,
                                        [f"x{i}" for i in range(p + 3)])
            fit = fit_ols(data)
            group = list(range(1, p + 1))
            signs, w, variance = optimal_effect(fit, group)

            rest = data.X[:, [0] + list(range(p + 1, data.q))]
            Xg = data.X[:, group]
            coef, *_ = np.linalg.lstsq(rest, Xg, rcond=None)
            Z = Xg - rest @ coef
            G = Z.T @ Z
            best_val, best_s = -np.inf, None
            for tail in itertools.product((-1.0, 1.0), repeat=p - 1):
                sv = np.array((1.0,) + tail)
                val = sv @ G @ sv
                if val > best_val:
                    best_val, best_s = val, sv
            npt.assert_array_equal(signs.signs, best_s)
            npt.assert_allclose(variance, fit.sigma2_hat / best_val, rtol=1e-9)

    def test_optimality_certificate_and_self_consistency(self):
        # at the maximizing sign vector no single flip raises s'Gs, i.e.
        # s_i (G s)_i >= G_ii; the returned weights reproduce the variance
        rng = np.random.default_rng(5)
        for p in range(2, 11):
            Q, _ = np.linalg.qr(rng.standard_normal((p, p)))
            A = Q @ np.diag(rng.uniform(0.2, 3.0, p)) @ Q.T
            fit = self._fit_from_xtx_inv(A)
            signs, w, variance = optimal_effect(fit, list(range(p)))
            s = signs.signs
            G = np.linalg.inv(A)
            Gs = G @ s
            assert np.all(s * Gs >= np.diag(G) - 1e-12 * (s @ Gs))
            assert np.all(w.weights > 0.0)
            c = s * w.weights
            npt.assert_allclose(fit.sigma2_hat * (c @ A @ c), variance, rtol=1e-12)

    def test_sixteen_variable_group(self):
        rng = np.random.default_rng(16)
        p = 16
        Q, _ = np.linalg.qr(rng.standard_normal((p, p)))
        A = Q @ np.diag(rng.uniform(0.2, 3.0, p)) @ Q.T
        signs, w, variance = optimal_effect(self._fit_from_xtx_inv(A), list(range(p)))
        assert signs.p == p and signs.signs[0] == 1.0
        assert np.all(w.weights > 0.0)
        assert 0.0 < variance <= np.min(np.diag(A))

    def test_repeated_index_rejected(self):
        # a repeated column makes the group block singular
        fit = self._fit_from_xtx_inv(np.eye(3))
        with pytest.raises(DimensionMismatchError):
            optimal_effect(fit, [0, 1, 1])

    def test_group_size_cap(self):
        fit = self._fit_from_xtx_inv(np.eye(21))
        with pytest.raises(GroupTooLargeError):
            optimal_effect(fit, list(range(21)))


class TestDetectGroups:
    def test_block_structure_recovered(self):
        R = np.eye(5)
        R[0, 1] = R[1, 0] = 0.95
        R[2, 3] = R[3, 2] = -0.9  # magnitude matters, not sign
        corr = _corr(R)
        assert detect_groups(corr) == [[0, 1], [2, 3], [4]]

    def test_threshold_is_strict(self):
        R = np.eye(2)
        R[0, 1] = R[1, 0] = float(np.sqrt(2) / 2)
        assert detect_groups(_corr(R)) == [[0], [1]]
