"""Tests for dataset handling, OLS fitting, correlation and standardization."""

import csv
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import groupfx.linmod
from groupfx import (
    Dataset,
    DataFormatError,
    DimensionMismatchError,
    SingularDesignError,
    WeightVector,
    ZeroVarianceError,
    apc_arrangement,
    correlation,
    estimate_effect,
    fit_ols,
    generate_design,
    load_csv,
    paper_case_config,
    run_case,
    solve_clr,
    standardize,
    variability_weights,
)
from conftest import centered_orthonormal_basis, equicorrelated_columns


class TestDatasetValidation:
    def test_ragged_input_rejected(self):
        with pytest.raises(DimensionMismatchError):
            Dataset(y=np.ones(5), X=np.ones((4, 2)), names=("a", "b"))

    def test_name_count_must_match(self):
        with pytest.raises(DimensionMismatchError):
            Dataset(y=np.ones(5), X=np.random.default_rng(0).standard_normal((5, 2)),
                    names=("a",))

    def test_unequal_column_lengths_rejected(self):
        with pytest.raises(DimensionMismatchError, match="column 'b' has 4 rows but y has 5"):
            Dataset.from_columns(np.ones(5), [np.arange(5.0), np.arange(4.0)], ["a", "b"])

    def test_zero_rows_rejected(self):
        with pytest.raises(DataFormatError, match="no rows"):
            Dataset(y=np.ones(0), X=np.ones((0, 2)), names=("a", "b"))

    def test_non_finite_rejected(self):
        X = np.random.default_rng(0).standard_normal((5, 2))
        X[0, 0] = np.nan
        with pytest.raises(DataFormatError):
            Dataset(y=np.ones(5), X=X, names=("a", "b"))

    def test_constant_column_rejected_unless_intercept(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ZeroVarianceError):
            Dataset(y=np.ones(6), X=np.column_stack([np.full(6, 2.0), rng.standard_normal(6)]),
                    names=("c", "x"))
        # the declared intercept column is fine
        data = Dataset.from_columns(np.ones(6), [rng.standard_normal(6)], ["x"])
        assert data.has_intercept and data.names[0] == "intercept"
        # a column spanning -1e308..1e308 is not constant, and its range,
        # which overflows, is never formed
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            Dataset(y=np.ones(3), X=np.array([[-1e308], [1e308], [0.0]]), names=("x",))

    def test_duplicate_names_rejected(self):
        X = np.random.default_rng(0).standard_normal((5, 3))
        with pytest.raises(DataFormatError, match="duplicate column name 'b'"):
            Dataset(y=np.ones(5), X=X, names=("a", "b", "b"))

    def test_first_constant_column_is_named(self):
        X = np.random.default_rng(0).standard_normal((5, 4))
        X[:, 1] = 3.0
        X[:, 3] = -1.0
        with pytest.raises(ZeroVarianceError, match="column 'b' is constant"):
            Dataset(y=np.ones(5), X=X, names=("a", "b", "c", "d"))
        X[:, 0] = 1.0
        with pytest.raises(ZeroVarianceError, match="column 'b' is constant"):
            Dataset(y=np.ones(5), X=X, names=("intercept", "b", "c", "d"),
                    has_intercept=True)

    def test_constant_first_column_rejected_without_intercept(self):
        X = np.column_stack([np.ones(5), np.random.default_rng(0).standard_normal(5)])
        with pytest.raises(ZeroVarianceError, match="column 'a' is constant"):
            Dataset(y=np.ones(5), X=X, names=("a", "b"))

    @pytest.mark.parametrize("offset, ok", [(5e-6, True), (-5e-6, True),
                                            (2e-5, False), (-2e-5, False)])
    def test_intercept_tolerance(self, offset, ok):
        # the np.allclose(X[:, 0], 1.0) tolerance: |x - 1| <= 1e-8 + 1e-5
        X = np.column_stack([np.ones(5), np.random.default_rng(0).standard_normal(5)])
        X[2, 0] += offset
        if ok:
            Dataset(y=np.ones(5), X=X, names=("intercept", "x"), has_intercept=True)
            assert np.allclose(X[:, 0], 1.0)
        else:
            with pytest.raises(DataFormatError, match="not all ones"):
                Dataset(y=np.ones(5), X=X, names=("intercept", "x"), has_intercept=True)
            assert not np.allclose(X[:, 0], 1.0)

    def test_intercept_column_must_be_ones(self):
        with pytest.raises(DataFormatError):
            Dataset(y=np.ones(5),
                    X=np.column_stack([np.full(5, 2.0),
                                       np.random.default_rng(0).standard_normal(5)]),
                    names=("intercept", "x"), has_intercept=True)


class TestFitOls:
    def test_exact_interpolation_on_orthonormal_design(self):
        # y equal to the first column: beta = e_1 and zero residual
        X = centered_orthonormal_basis(12, 4)
        y = X[:, 0].copy()
        data = Dataset(y=y, X=X, names=("a", "b", "c", "d"))
        fit = fit_ols(data)
        npt.assert_allclose(fit.beta_hat, [1.0, 0.0, 0.0, 0.0], atol=1e-12)
        assert fit.rss < 1e-20

    def test_uniform_p2_coefficient_variance(self):
        # hand-inverted 2x2 equicorrelation at r=0.5: diagonal = 1/(1-r^2) = 4/3
        X = equicorrelated_columns(20, 2, 0.5)
        data = Dataset(y=np.random.default_rng(1).standard_normal(20), X=X,
                       names=("x1", "x2"))
        fit = fit_ols(data)
        npt.assert_allclose(np.diag(fit.xtx_inv), [4.0 / 3.0] * 2, rtol=1e-9)

    def test_case1_beta3_mean_matches_truth(self):
        # replicate mean of beta3 within 3 MC standard errors of its true value 1
        report = run_case(paper_case_config(1, seed=0, replicates=1000))
        eff = report.effect("beta3")
        mc_se = np.sqrt(eff.variance / report.replicates)
        assert abs(eff.mean - 1.0) < 3.0 * mc_se

    def test_residuals_orthogonal_to_columns(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            X = rng.standard_normal((30, 4))
            y = X @ rng.standard_normal(4) + rng.standard_normal(30)
            data = Dataset(y=y, X=X, names=tuple("abcd"))
            fit = fit_ols(data)
            resid = data.y - data.X @ fit.beta_hat
            assert np.max(np.abs(data.X.T @ resid)) < 1e-8 * np.linalg.norm(y)

    def test_xtx_inv_is_an_inverse_and_cov_is_psd(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((25, 5))
        data = Dataset(y=rng.standard_normal(25), X=X, names=tuple("abcde"))
        fit = fit_ols(data)
        npt.assert_allclose(X.T @ X @ fit.xtx_inv, np.eye(5), atol=1e-8)
        npt.assert_allclose(fit.xtx_inv, fit.xtx_inv.T, atol=1e-10)
        assert np.all(np.linalg.eigvalsh(fit.cov) > -1e-12)

    def test_cov_diagonal_feeds_basis_effects(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((25, 4))
        data = Dataset(y=rng.standard_normal(25), X=X, names=tuple("abcd"))
        fit = fit_ols(data)
        for j in range(4):
            est = estimate_effect(fit, [j], WeightVector.basis(1, 0))
            npt.assert_allclose(est.variance, fit.cov[j, j], rtol=1e-12)

    def test_singular_design_rejected(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(10)
        with pytest.raises(SingularDesignError):
            fit_ols(Dataset(y=rng.standard_normal(10),
                            X=np.column_stack([x, 2.0 * x]), names=("a", "b")))

    def test_near_singular_design_admitted(self):
        # the rcond threshold must let the r = 0.999 regime through
        X = equicorrelated_columns(20, 8, 0.999)
        data = Dataset(y=np.random.default_rng(0).standard_normal(20), X=X,
                       names=tuple(f"x{j}" for j in range(8)))
        fit = fit_ols(data)
        npt.assert_allclose(X.T @ X @ fit.xtx_inv, np.eye(8), atol=1e-6)

    @staticmethod
    def scaled(data, j, factor):
        X = data.X.copy()
        X[:, j] *= factor
        return Dataset(y=data.y, X=X, names=data.names, has_intercept=True)

    @staticmethod
    def effect_tests(data):
        """t and p of every coefficient and of tau_w for the two groups."""
        fit = fit_ols(data)
        ests = [estimate_effect(fit, [j], WeightVector.basis(1, 0)) for j in range(data.q)]
        for group in ([1, 2], [3, 4, 5]):
            corr = correlation(data, group)
            ests.append(estimate_effect(fit, group, variability_weights(corr),
                                        apc_arrangement(corr)))
        return np.array([(e.t_stat, e.p_value) for e in ests])

    def test_column_units_do_not_decide_the_fit(self, table7_like_dataset):
        # OLS t and p do not depend on a column's units, and neither do those
        # of tau_w, whose weights scale with the column norms; a 1e7 factor
        # made this design singular when rcond was taken on the raw columns
        base = table7_like_dataset
        want = self.effect_tests(base)
        p_tau = solve_clr(base, [3, 4, 5], selection="kfold").diagnostics["tau_p_value"]
        for j in range(1, base.q):
            for k in range(-8, 9):
                data = self.scaled(base, j, 10.0**k)
                npt.assert_allclose(self.effect_tests(data), want, rtol=1e-9)
                sol = solve_clr(data, [3, 4, 5], selection="kfold")
                npt.assert_allclose(sol.diagnostics["tau_p_value"], p_tau, rtol=1e-9)

    @pytest.mark.parametrize("k", [-300, -200, 200, 300])
    def test_column_at_the_end_of_the_float_range_rejected(self, table7_like_dataset, k):
        # (X'X)^{-1} would overflow, or underflow to a zero variance
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for j in (1, 4):
                with pytest.raises(SingularDesignError, match="floating-point range"):
                    fit_ols(self.scaled(table7_like_dataset, j, 10.0**k))

    def test_column_norm_over_the_float_range_rejected(self, table7_like_dataset):
        # every entry is finite, but the column's norm is not
        X = table7_like_dataset.X.copy()
        X[:, 1] = np.linspace(1.0, 1.5, X.shape[0]) * 1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            data = Dataset(y=table7_like_dataset.y, X=X, names=table7_like_dataset.names,
                           has_intercept=True)
            with pytest.raises(SingularDesignError, match="floating-point range"):
                fit_ols(data)

    def test_response_scale(self, table7_like_dataset):
        # t and p do not depend on the response's units either, until its
        # residual variance overflows
        base = table7_like_dataset
        want = self.effect_tests(base)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for k in (-150, 150):
                data = Dataset(y=base.y * 10.0**k, X=base.X, names=base.names,
                               has_intercept=True)
                npt.assert_allclose(self.effect_tests(data), want, rtol=1e-9)
            data = Dataset(y=base.y * 1e200, X=base.X, names=base.names, has_intercept=True)
            with pytest.raises(SingularDesignError, match="floating-point range"):
                fit_ols(data)

    def test_underdetermined_rejected(self):
        rng = np.random.default_rng(4)
        with pytest.raises(SingularDesignError):
            fit_ols(Dataset(y=rng.standard_normal(3),
                            X=rng.standard_normal((3, 3)), names=("a", "b", "c")))


class TestCorrelation:
    def test_perfect_dependence(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(15)
        data = Dataset.from_columns(rng.standard_normal(15), [x, 2.0 * x, -x],
                                    ["a", "b", "c"])
        corr = correlation(data, [1, 2, 3])
        npt.assert_allclose(corr.values[0, 1], 1.0, atol=1e-12)
        npt.assert_allclose(corr.values[0, 2], -1.0, atol=1e-12)

    def test_mixing_formula(self):
        # with exactly orthonormal mean-zero z: corr = w1 / sqrt(w1^2 + (1-w1)^2)
        basis = centered_orthonormal_basis(30, 2)
        z1, z2 = basis[:, 0], basis[:, 1]
        w1 = 0.9
        data = Dataset.from_columns(np.random.default_rng(0).standard_normal(30),
                                    [z1, w1 * z1 + (1 - w1) * z2], ["z1", "mix"])
        corr = correlation(data, [1, 2])
        expected = w1 / np.sqrt(w1**2 + (1 - w1) ** 2)
        npt.assert_allclose(corr.values[0, 1], expected, rtol=1e-12)
        assert abs(expected - 0.99388) < 5e-6

    def test_column_sds_are_centered_norms(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((20, 3)) + 5.0
        data = Dataset(y=rng.standard_normal(20), X=X, names=("a", "b", "c"))
        corr = correlation(data, [0, 1, 2])
        expected = np.linalg.norm(X - X.mean(axis=0), axis=0)
        npt.assert_allclose(corr.column_sds, expected, rtol=1e-12)

    def test_empty_group_rejected(self):
        rng = np.random.default_rng(2)
        data = Dataset(y=rng.standard_normal(10), X=rng.standard_normal((10, 2)),
                       names=("a", "b"))
        with pytest.raises(DimensionMismatchError):
            correlation(data, [])

    @pytest.mark.parametrize("seed, n, scale", [(0, 15, 1.0), (1, 40, 1e-3), (2, 300, 1.0),
                                                 (3, 12, 1e200), (4, 30, 2.0**-600)])
    def test_arrays_keep_their_bits_in_the_matrix(self, seed, n, scale):
        # run_case reads the arrays of _correlation_arrays in place of
        # correlation(); CorrelationMatrix symmetrizes, which must change no
        # bit, so R comes out exactly symmetric
        rng = np.random.default_rng(seed)
        cols = rng.standard_normal((n, 10)) @ rng.standard_normal((10, 10))
        cols[:, 3] *= scale
        data = Dataset.from_columns(rng.standard_normal(n), list(cols.T),
                                    [f"x{j}" for j in range(1, 11)])
        idx = list(range(1, 11))
        R, s = groupfx.linmod._correlation_arrays(data, idx)
        corr = correlation(data, idx)
        assert R.tobytes() == R.T.copy().tobytes()
        assert corr.values.tobytes() == R.tobytes()
        assert corr.column_sds.tobytes() == s.tobytes()
        assert corr.names == tuple(f"x{j}" for j in range(1, 11))

    @pytest.mark.filterwarnings("error")
    def test_column_too_large_to_square_is_equilibrated(self):
        # squaring 1e200 overflows, and squaring 1e-200 underflows; the
        # centered sums are taken on the column scaled by a power of 2, so it
        # correlates as the column over its scale
        rng = np.random.default_rng(3)
        y, b = rng.standard_normal(4), rng.standard_normal(4)
        big = np.array([1.0, 2.0, 1.5, 2.5])
        unit = Dataset.from_columns(y, [big, b], ["big", "b"])
        want = correlation(unit, [1, 2])
        for scale in (1e200, 1e-200):
            data = Dataset.from_columns(y, [scale * big, b], ["big", "b"])
            corr = correlation(data, [1, 2])
            npt.assert_allclose(corr.values, want.values, rtol=1e-14)
            npt.assert_allclose(corr.column_sds, want.column_sds * [scale, 1.0], rtol=1e-14)
            (std, scales), (std_unit, _) = standardize(data, [2]), standardize(unit, [2])
            npt.assert_allclose(std.X, std_unit.X * [scale, 1.0], rtol=1e-14)
            npt.assert_array_equal(scales, want.column_sds[1:])

    @pytest.mark.parametrize("k", [-1000, -600, -520, 300, 1000])
    def test_power_of_two_scale_is_exact(self, k):
        # a column scaled by 2^k, whatever k, leaves R's bits and scales its s
        # by exactly 2^k
        rng = np.random.default_rng(5)
        cols = rng.standard_normal((30, 4)) @ rng.standard_normal((4, 4))
        names = ["a", "b", "c", "d"]
        unit = Dataset.from_columns(rng.standard_normal(30), list(cols.T), names)
        cols[:, 2] = np.ldexp(cols[:, 2], k)
        data = Dataset.from_columns(unit.y, list(cols.T), names)
        corr, want = correlation(data, [1, 2, 3, 4]), correlation(unit, [1, 2, 3, 4])
        assert corr.values.tobytes() == want.values.tobytes()
        assert corr.column_sds.tobytes() == np.ldexp(want.column_sds, [0, 0, k, 0]).tobytes()

    @pytest.mark.filterwarnings("error")
    def test_one_huge_entry_in_a_long_column(self):
        # fit_ols accepts it and its centered sum of squares, ~1e306, is finite
        rng = np.random.default_rng(3)
        n = 1000
        x = 1.0 + 1e-3 * rng.standard_normal(n)
        x[17] = 1e153
        data = Dataset.from_columns(rng.standard_normal(n), [x, rng.standard_normal(n)],
                                    ["x", "b"])
        fit_ols(data)
        corr = correlation(data, [1, 2])
        npt.assert_allclose(corr.column_sds[0], 1e153 * np.sqrt(1.0 - 1.0 / n), rtol=1e-14)
        _, scales = standardize(data, [1])
        npt.assert_array_equal(scales, corr.column_sds[:1])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("amplitude, finite", [(8e307, True), (1e308, False)])
    def test_centered_norm_at_the_floating_point_limit(self, amplitude, finite):
        # the centered norm is 2 * amplitude: 1.6e308 is finite, 2e308 is not
        rng = np.random.default_rng(3)
        data = Dataset.from_columns(rng.standard_normal(4),
                                    [amplitude * np.array([1.0, -1.0, 1.0, -1.0]),
                                     rng.standard_normal(4)], ["big", "b"])
        if finite:
            npt.assert_allclose(correlation(data, [1, 2]).column_sds[0], 2.0 * amplitude,
                                rtol=1e-15)
            npt.assert_allclose(standardize(data, [1])[1], [2.0 * amplitude], rtol=1e-15)
            return
        with pytest.raises(SingularDesignError, match="'big'.*floating-point range"):
            correlation(data, [1, 2])
        with pytest.raises(SingularDesignError, match="'big'.*floating-point range"):
            standardize(data, [2])  # every non-intercept column is centered


class TestStandardize:
    def test_already_standardized_column_untouched(self):
        X = centered_orthonormal_basis(20, 2)
        y = np.random.default_rng(0).standard_normal(20)
        data = Dataset.from_columns(y, [X[:, 0], X[:, 1]], ["a", "b"])
        out, scales = standardize(data, [1, 2])
        npt.assert_allclose(scales, [1.0, 1.0], rtol=1e-12)
        npt.assert_allclose(out.X[:, 0], X[:, 0], atol=1e-12)

    def test_scale_recorded(self):
        X = centered_orthonormal_basis(20, 2)
        y = np.random.default_rng(0).standard_normal(20)
        data = Dataset.from_columns(y, [2.0 * X[:, 0], X[:, 1]], ["a", "b"])
        out, scales = standardize(data, [1, 2])
        npt.assert_allclose(scales, [2.0, 1.0], rtol=1e-12)
        npt.assert_allclose(np.linalg.norm(out.X, axis=0), [1.0, 1.0], rtol=1e-12)
        assert abs(out.y.mean()) < 1e-12

    def test_round_trip_reproduces_direct_fit(self, random_dataset):
        # fit on standardized data, map the group back through S^{-1}; other
        # slopes must agree untouched
        group = [1, 2, 3]
        direct = fit_ols(random_dataset)
        std_data, scales = standardize(random_dataset, group)
        std_fit = fit_ols(std_data)
        name_pos = {n: j for j, n in enumerate(std_data.names)}
        for k, j in enumerate(group):
            col = name_pos[random_dataset.names[j]]
            npt.assert_allclose(std_fit.beta_hat[col] / scales[k],
                                direct.beta_hat[j], rtol=1e-8)
        for j in range(1, random_dataset.q):
            if j in group:
                continue
            col = name_pos[random_dataset.names[j]]
            npt.assert_allclose(std_fit.beta_hat[col], direct.beta_hat[j], rtol=1e-8)

    def test_requires_intercept(self):
        rng = np.random.default_rng(0)
        data = Dataset(y=rng.standard_normal(10), X=rng.standard_normal((10, 2)),
                       names=("a", "b"))
        with pytest.raises(ValueError):
            standardize(data, [0, 1])


def _long_hand_centered_columns(data, idx):
    cols = data.X[:, idx]
    e = np.frexp(np.abs(cols).max(axis=0))[1]
    u = np.ldexp(cols, -e)
    u -= u.mean(axis=0)
    return u, np.sqrt(np.sum(u**2, axis=0)), e


def _long_hand_correlation_arrays(data, idx):
    u, norms, e = _long_hand_centered_columns(data, idx)
    R = (u.T @ u) / np.outer(norms, norms)
    np.fill_diagonal(R, 1.0)
    return np.clip(R, -1.0, 1.0), np.ldexp(norms, e)


def _long_hand_fit(data):
    Q, R = np.linalg.qr(data.X)
    beta = np.linalg.solve(R, Q.T @ data.y)
    resid = data.y - data.X @ beta
    r_inv = np.linalg.solve(R, np.eye(data.q))
    return {"Q": Q, "R": R, "beta_hat": beta, "xtx_inv": r_inv @ r_inv.T,
            "rss": np.float64(resid @ resid)}


def _long_hand_designs(case):
    """Intercepted designs: random ones, with columns scaled by powers of 2
    and of 10 so that their exponents differ, or a paper design at n = 15."""
    if case.startswith("paper"):
        return [generate_design(paper_case_config(int(case[-1]), seed=3))]
    rng = np.random.default_rng(int(case[-1]))
    designs = []
    for _ in range(20):
        n, k = int(rng.integers(8, 120)), int(rng.integers(2, 7))
        cols = rng.standard_normal((n, k)) @ rng.standard_normal((k, k))
        cols *= np.ldexp(1.0, rng.integers(-40, 41, k)) * 10.0 ** rng.integers(-3, 4, k)
        y = cols @ rng.standard_normal(k) + rng.standard_normal(n)
        designs.append(Dataset.from_columns(y, list(cols.T), [f"x{j}" for j in range(k)]))
    return designs


class TestLongHandBits:
    """The linear-model hot path calls numpy's ufuncs where the long-hand
    forms (mean, sum, outer, clip, solve with the identity) go through
    Python wrappers; the bits must be those of the long-hand forms."""

    @pytest.mark.parametrize("case", [f"random{i}" for i in range(4)]
                             + [f"paper{c}" for c in range(1, 6)])
    def test_outputs_equal_the_long_hand_forms(self, case):
        for data in _long_hand_designs(case):
            idx = list(range(1, data.q))
            for got, want in zip(groupfx.linmod._centered_columns(data, idx),
                                 _long_hand_centered_columns(data, idx)):
                assert got.tobytes() == want.tobytes()
            want_R, want_s = _long_hand_correlation_arrays(data, idx)
            for columns in (idx, np.array(idx)):  # run_case passes an index array
                got_R, got_s = groupfx.linmod._correlation_arrays(data, columns)
                assert got_R.tobytes() == want_R.tobytes()
                assert got_s.tobytes() == want_s.tobytes()
            corr = correlation(data, idx)
            assert corr.values.tobytes() == want_R.tobytes()
            assert corr.column_sds.tobytes() == want_s.tobytes()

            # the group is the first two predictors, columns 0 and 1 of u
            out, scales = standardize(data, idx[:2])
            u, norms, e = _long_hand_centered_columns(data, idx)
            want_X = np.ldexp(u, e)
            want_X[:, :2] = u[:, :2] / norms[:2]
            assert out.X.tobytes() == want_X.tobytes()
            assert scales.tobytes() == np.ldexp(norms[:2], e[:2]).tobytes()
            assert out.y.tobytes() == (data.y - data.y.mean()).tobytes()

            fit = fit_ols(data)
            for name, want in _long_hand_fit(data).items():
                assert np.asarray(getattr(fit, name)).tobytes() == want.tobytes(), name


class TestLoadCsv:
    def _write(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_text(text)
        return path

    def test_happy_path(self, tmp_path):
        path = self._write(tmp_path, "y,a,b\n1,2,3\n2,3,5\n0,1,2\n4,0,1\n")
        data = load_csv(path, "y")
        assert data.names == ("intercept", "a", "b")
        assert data.n == 4 and data.has_intercept
        npt.assert_allclose(data.y, [1, 2, 0, 4])

    def test_missing_value_rejected(self, tmp_path):
        path = self._write(tmp_path, "y,a\n1,2\n2,\n")
        with pytest.raises(DataFormatError):
            load_csv(path, "y")

    def test_unknown_response_rejected(self, tmp_path):
        path = self._write(tmp_path, "y,a\n1,2\n")
        with pytest.raises(DataFormatError):
            load_csv(path, "z")

    def test_ragged_row_rejected(self, tmp_path):
        path = self._write(tmp_path, "y,a,b\n1,2,3\n1,2\n")
        with pytest.raises(DataFormatError):
            load_csv(path, "y")

    def test_rows_all_wider_than_the_header_rejected(self, tmp_path):
        path = self._write(tmp_path, "y,a\n1,2,3\n4,5,6\n")
        with pytest.raises(DataFormatError, match=r"data\.csv:2: expected 2 fields, got 3$"):
            load_csv(path, "y")

    def test_rows_that_even_out_are_still_ragged(self, tmp_path):
        # 2 + 4 cells make two 3-field rows' worth; the short row is reported
        path = self._write(tmp_path, "y,a,b\n1,2\n3,4,5,6\n")
        with pytest.raises(DataFormatError, match=r"data\.csv:2: expected 3 fields, got 2$"):
            load_csv(path, "y")

    def test_bom_header_accepted(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_bytes(b"\xef\xbb\xbfy,a,b\n1,2,3\n2,3,5\n0,1,2\n4,0,1\n")
        data = load_csv(path, "y")
        assert data.names == ("intercept", "a", "b")
        npt.assert_allclose(data.y, [1, 2, 0, 4])

    @pytest.mark.parametrize("header, dup", [("y,a,a,b", "a"), ("y,a,b,y", "y")])
    def test_duplicate_column_name_rejected(self, tmp_path, header, dup):
        path = self._write(tmp_path, header + "\n1,2,3,4\n2,3,5,1\n0,1,2,7\n4,0,1,2\n")
        with pytest.raises(DataFormatError, match=f"duplicate column name '{dup}'"):
            load_csv(path, "y")

    def test_predictor_named_intercept_rejected(self, tmp_path):
        # the added intercept column takes that name; the file itself has
        # no duplicate, so the error says why the name is refused
        path = self._write(tmp_path, "y,intercept,a\n1,2,3\n2,3,5\n0,1,2\n4,0,1\n")
        with pytest.raises(DataFormatError, match=r"data\.csv: column name 'intercept' "
                                                  r"is reserved for the added intercept column$"):
            load_csv(path, "y")

    def test_response_named_intercept_accepted(self, tmp_path):
        path = self._write(tmp_path, "intercept,a,b\n1,2,3\n2,3,5\n0,1,2\n4,0,1\n")
        data = load_csv(path, "intercept")
        assert data.names == ("intercept", "a", "b")
        npt.assert_allclose(data.y, [1, 2, 0, 4])

    @pytest.mark.parametrize("bad, message", [
        ("x", "missing or non-numeric value"),
        ("", "missing or non-numeric value"),
        ("inf", "non-finite value"),
        ("nan", "non-finite value"),
    ])
    @pytest.mark.parametrize("later", [["4,nan,1", "4,0"], ["4,0,1"]])
    def test_first_bad_line_is_reported(self, tmp_path, bad, message, later):
        # blank lines still count toward the line number, and a later bad
        # row (wrong field count, non-finite value) does not take precedence
        rows = ["1,2,3", "", "2,3,5", f"0,{bad},2"] + later
        path = self._write(tmp_path, "y,a,b\n" + "\n".join(rows) + "\n")
        with pytest.raises(DataFormatError, match=rf"data\.csv:5: {message}$"):
            load_csv(path, "y")

    def test_first_bad_line_in_a_long_file(self, tmp_path):
        # a bad value on line 302 wins over a short row on line 402, which is
        # reported once the value is fixed
        rows = [f"{i},{i % 7},{i % 5}" for i in range(700)]
        rows[300] = "1,x,2"
        rows[400] = "1,2"
        path = self._write(tmp_path, "y,a,b\n" + "\n".join(rows) + "\n")
        with pytest.raises(DataFormatError, match=r"data\.csv:302: missing"):
            load_csv(path, "y")
        rows[300] = "1,2,3"
        path = self._write(tmp_path, "y,a,b\n" + "\n".join(rows) + "\n")
        with pytest.raises(DataFormatError, match=r"data\.csv:402: expected 3 fields"):
            load_csv(path, "y")
        del rows[400]
        path = self._write(tmp_path, "y,a,b\n" + "\n".join(rows) + "\n")
        npt.assert_array_equal(load_csv(path, "y").y, [float(r.split(",")[0]) for r in rows])

    def test_cells_parse_like_float(self, tmp_path):
        path = self._write(tmp_path, "y,a\n 1.5 ,1_0\n2,-1e3\n3,+.5\n")
        data = load_csv(path, "y")
        npt.assert_array_equal(data.y, [1.5, 2.0, 3.0])
        npt.assert_array_equal(data.X[:, 1], [10.0, -1000.0, 0.5])
        path = self._write(tmp_path, "y,a\n1,2\n2,0x1\n")
        with pytest.raises(DataFormatError, match=r"data\.csv:3: missing or non-numeric"):
            load_csv(path, "y")

    @pytest.mark.parametrize("text", ["café,y\n1,2\n3,4\n", "y,a\n1,2\n3,café\n5,6\n"],
                             ids=["header", "body"])
    def test_non_utf8_file_rejected(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_bytes(text.encode("latin-1"))
        with pytest.raises(DataFormatError, match=r"data\.csv: not valid UTF-8 text$"):
            load_csv(path, "y")

    @pytest.mark.parametrize("quote", ["", '"'], ids=["plain", "quoted"])
    def test_cell_over_the_field_limit_rejected(self, tmp_path, quote):
        # a finite value, so only the cell's length is wrong
        cell = quote + "0" * csv.field_size_limit() + "1" + quote
        path = self._write(tmp_path, f"y,a\n1,2\n3,{cell}\n4,5\n")
        with pytest.raises(DataFormatError, match=r"data\.csv:3: field larger than field limit"):
            load_csv(path, "y")
        path = self._write(tmp_path, f"y,{cell}\n1,2\n")
        with pytest.raises(DataFormatError, match=r"data\.csv:1: field larger than field limit"):
            load_csv(path, "y")

    def test_error_names_the_line_a_row_starts_on(self, tmp_path):
        # the quoted cell of line 2 ends on line 3, so the next row is line 4
        path = self._write(tmp_path, 'y,a\n1,"2\n"\n3,x\n')
        with pytest.raises(DataFormatError, match=r"data\.csv:4: missing or non-numeric"):
            load_csv(path, "y")
        cell = "0" * csv.field_size_limit() + "1"
        path = self._write(tmp_path, f'y,a\n1,"2\n"\n3,{cell}\n')
        with pytest.raises(DataFormatError, match=r"data\.csv:4: field larger than field limit"):
            load_csv(path, "y")
        path = self._write(tmp_path, f'y,a\n"1\n\n",2\n\n"4\n",{cell}\n')
        with pytest.raises(DataFormatError, match=r"data\.csv:6: field larger than field limit"):
            load_csv(path, "y")

    def test_plain_numeric_file_takes_the_fast_path(self, tmp_path, monkeypatch):
        def refuse(*args):
            raise AssertionError("plain numeric file read row by row")

        monkeypatch.setattr(groupfx.linmod, "_parse_rows", refuse)
        path = tmp_path / "data.csv"
        path.write_bytes(b"\xef\xbb\xbfy,a,b\r\n1,2,3\r\n\r\n2, 3 ,5e0\r\n\n0,-1.5,2\r\n4,0,.25")
        data = load_csv(path, "y")
        assert data.names == ("intercept", "a", "b")
        npt.assert_array_equal(data.y, [1, 2, 0, 4])
        npt.assert_array_equal(data.X, [[1, 2, 3], [1, 3, 5], [1, -1.5, 2], [1, 0, 0.25]])

    @pytest.mark.parametrize("body", ["", "\n", "\r\n\n\r"], ids=["none", "lf", "mixed"])
    def test_header_only_file_has_no_data_rows(self, tmp_path, body):
        # numpy's reader warns on an empty table; no warning reaches the caller
        path = self._write(tmp_path, "y,a\n" + body)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataFormatError, match=r"data\.csv: no data rows$"):
                load_csv(path, "y")

    @pytest.mark.parametrize("sep", ["\x1c", "\x1d", "\x1e", "\x1f"])
    def test_separator_padding_rejected_like_float(self, tmp_path, sep):
        # numpy strips these around a cell, float() does not
        path = self._write(tmp_path, f"y,a\n1,2\n3,{sep}4\n")
        with pytest.raises(DataFormatError, match=r"data\.csv:3: missing or non-numeric"):
            load_csv(path, "y")

    def test_line_over_the_field_limit_accepted(self, tmp_path):
        # every cell is within the limit, only the line is longer
        cell = "0" * (csv.field_size_limit() - 1) + "1"
        path = self._write(tmp_path, f"y,a\n1,2\n3,{cell}\n4,5\n")
        npt.assert_array_equal(load_csv(path, "y").X[:, 1], [2.0, 1.0, 5.0])


def reference_load(path, response):
    """load_csv as a plain csv.reader parse, one row at a time: (y, predictor
    names, predictors) or the DataFormatError message of the first bad line."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        # each row with the physical line it starts on
        rows, end = [], 0
        for row in reader:
            rows.append((end + 1, row))
            end = reader.line_num
    header = [h.strip() for h in rows[0][1]]
    table = []
    for lineno, row in rows[1:]:
        if not row:
            continue
        if len(row) != len(header):
            return f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}"
        try:
            vals = [float(v) for v in row]
        except ValueError:
            return f"{path}:{lineno}: missing or non-numeric value"
        if not np.all(np.isfinite(vals)):
            return f"{path}:{lineno}: non-finite value"
        table.append(vals)
    if not table:
        return f"{path}: no data rows"
    table = np.array(table)
    r_col = header.index(response)
    names = tuple(h for h in header if h != response)
    return table[:, r_col], names, np.delete(table, r_col, axis=1)


PLAIN_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(lambda v: f"{v:.17g}"),
    st.integers(-99, 99).map(str),
    st.sampled_from(["1_0", " 2 ", "+.5", "-1e3", "\x0b5", "6\x0c", "\xa07\xa0", "١", "３"]),
)
QUOTED_CELLS = st.sampled_from(['"3"', '" 4 "', '"7\n"', '"-1e3"'])
BAD_CELLS = st.sampled_from(["nan", "inf", "-inf", "", "x", "0x1", '"5,6"', '"8""9"', 'a"b',
                             "1e309", "#", "1\x00", "\x1c1", "1\x1f"])


@st.composite
def csv_files(draw):
    """Small CSV files with a y column and 0-3 predictors, mixing line endings,
    quotes, padding and blank lines. Some hold one kind of bad cell and
    short, long, trailing-comma and whitespace-only rows."""
    ncol = draw(st.integers(1, 4))
    names = draw(st.permutations(["y", "a", "b", "c"][:ncol]))
    header = [draw(st.sampled_from(["{}", '"{}"', " {} ", '" {}"'])).format(h) for h in names]
    cell_st = draw(st.sampled_from([PLAIN_CELLS, st.one_of(PLAIN_CELLS, QUOTED_CELLS)]))
    bad = draw(st.one_of(st.none(), BAD_CELLS))
    kinds = ["row"] if bad is None else ["row"] * 4 + ["short", "long", "comma", "space"]
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(kinds + ["blank"]))
        width = {"row": ncol, "blank": 0, "short": ncol - 1, "long": ncol + 1,
                 "comma": ncol - 1, "space": 0}[kind]
        cells = draw(st.lists(cell_st, min_size=width, max_size=width))
        if bad is not None and cells and draw(st.booleans()):
            cells[draw(st.integers(0, width - 1))] = bad
        if kind == "blank" or (kind == "short" and ncol == 1):
            lines.append("")
        elif kind == "space":
            lines.append(draw(st.sampled_from([" ", "\t", "\x0b", "\xa0 "])))
        else:
            lines.append(",".join(cells) + ("," if kind == "comma" else ""))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]),
                         min_size=len(lines), max_size=len(lines)))
    if not draw(st.booleans()):
        ends[-1] = ""
    bom = draw(st.sampled_from(["", "\ufeff"]))
    return bom + "".join(line + end for line, end in zip(lines, ends))


@settings(max_examples=300, deadline=None)
@given(csv_files())
def test_load_csv_matches_row_by_row_parse(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "fuzz.csv"
    path.write_text(text, encoding="utf-8", newline="")
    want = reference_load(path, "y")
    if isinstance(want, str):
        with pytest.raises(DataFormatError) as exc:
            load_csv(path, "y")
        assert str(exc.value) == want
        return
    y, names, X = want
    # max == min, not ptp == 0: ptp of 1.8e308 and -1e292 overflows with a RuntimeWarning
    if np.any(X.max(axis=0) == X.min(axis=0)):
        with pytest.raises(ZeroVarianceError):
            load_csv(path, "y")
        return
    data = load_csv(path, "y")
    assert data.names == ("intercept", *names)
    assert data.y.tobytes() == y.tobytes()
    assert data.X[:, 1:].tobytes() == np.ascontiguousarray(X).tobytes()
