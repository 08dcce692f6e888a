"""Tests for the Monte Carlo harness: design generation, replication,
aggregation, determinism and the qualitative multicollinearity claims."""

import warnings

import numpy as np
import numpy.testing as npt
import pytest

from groupfx import (
    Dataset,
    InvalidParameterError,
    SimCaseConfig,
    SingularDesignError,
    Transform,
    WeightVector,
    correlation,
    fit_ols,
    generate_design,
    paper_case_config,
    run_case,
    run_paper_suite,
    variability_weights,
)
from groupfx import sim
from groupfx.sim import GROUPS, RunningMoments

GROUP_EFFECTS = ("tau1", "tau2", "tau3", "tau4",
                 "tau1_w", "tau2_w", "tau3_w", "tau4_w")


class TestGenerateDesign:
    def test_shape_and_names(self):
        design = generate_design(SimCaseConfig(w1=0.5, w2=0.5, seed=0))
        assert design.X.shape == (15, 11)
        assert design.names[0] == "intercept"
        assert design.names[1:] == tuple(f"x{j}" for j in range(1, 11))

    def test_degenerate_mixing_weight_makes_fit_singular(self):
        # w1 = 1 duplicates x1 as x2; the fit must refuse it
        design = generate_design(SimCaseConfig(w1=1.0, w2=0.5, seed=0))
        npt.assert_array_equal(design.X[:, 1], design.X[:, 2])
        with pytest.raises(SingularDesignError):
            fit_ols(design)

    def test_sample_correlation_approaches_population_value(self):
        # population corr = w1 / sqrt(w1^2 + (1-w1)^2) = 0.99388 at w1 = 0.9
        design = generate_design(SimCaseConfig(w1=0.9, w2=0.4, n=10_000, seed=1))
        r12 = correlation(design, [1, 2]).values[0, 1]
        assert abs(r12 - 0.99388) < 0.05

    def test_sign_flip_transform_creates_negative_correlation(self):
        cfg = SimCaseConfig(w1=0.9, w2=0.9, seed=0,
                            transforms=(Transform(2, flip=True),))
        design = generate_design(cfg)
        assert correlation(design, [1, 2]).values[0, 1] < 0

    def test_scale_transform_doubles_column_norm(self):
        base = generate_design(SimCaseConfig(w1=0.5, w2=0.5, seed=3))
        doubled = generate_design(SimCaseConfig(w1=0.5, w2=0.5, seed=3,
                                                transforms=(Transform(5, scale=2.0),)))
        npt.assert_allclose(doubled.X[:, 5], 2.0 * base.X[:, 5], rtol=1e-12)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimCaseConfig(w1=1.2, w2=0.5)
        with pytest.raises(ValueError):
            SimCaseConfig(w1=0.5, w2=0.5, replicates=0)
        with pytest.raises(ValueError):
            SimCaseConfig(w1=0.5, w2=0.5, n=0)
        with pytest.raises(ValueError):
            SimCaseConfig(w1=0.5, w2=0.5, seed=-1)
        with pytest.raises(ValueError):
            Transform(0)
        with pytest.raises(ValueError):
            Transform(3, scale=0.0)


class TestRunningMoments:
    def test_matches_numpy(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((500, 3))
        acc = RunningMoments(np.eye(3))
        acc.update(x)
        npt.assert_allclose(acc.mean, x.mean(axis=0), rtol=1e-12)
        npt.assert_allclose(acc.covariance, np.cov(x, rowvar=False), rtol=1e-12)

    def test_merge_any_split(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((301, 3)) + 10.0
        x[:, 2] += 0.5 * x[:, 0]  # a correlated column: off-diagonal co-moments merge too
        for cuts in ((1,), (57,), (300,), (1, 2, 150, 299)):
            acc = RunningMoments(np.eye(3))
            for block in np.split(x, cuts):
                acc.update(block)
            assert acc.count == 301
            npt.assert_allclose(acc.mean, x.mean(axis=0), rtol=1e-10)
            npt.assert_allclose(acc.covariance, np.cov(x, rowvar=False), rtol=1e-10)

    def test_one_row_has_zero_covariance(self):
        acc = RunningMoments(np.eye(2))
        acc.update(np.array([[1.0, -2.0]]))
        npt.assert_array_equal(acc.covariance, np.zeros((2, 2)))


@pytest.fixture
def set_chunk(monkeypatch):
    """Sets sim._CHUNK_ELEMENTS. The noise memo's key leaves the chunk size
    out, so the memo is cleared with each change and after the test."""
    def set_chunk(elements):
        monkeypatch.setattr(sim, "_CHUNK_ELEMENTS", elements)
        sim._noise_moments.cache_clear()
    yield set_chunk
    sim._noise_moments.cache_clear()


class TestRunCase:
    def test_noiseless_null_model_is_exact(self):
        cfg = SimCaseConfig(w1=0.4, w2=0.6, beta=(0.0,) * 11, sigma2=0.0,
                            replicates=25, seed=2)
        report = run_case(cfg)
        for eff in report.effects:
            assert eff.mean == 0.0
            assert eff.variance == 0.0

    def test_noiseless_nonzero_model_recovers_truth(self):
        cfg = SimCaseConfig(w1=0.4, w2=0.6, sigma2=0.0, replicates=10, seed=2)
        report = run_case(cfg)
        for eff in report.effects:
            npt.assert_allclose(eff.mean, eff.true_value, atol=1e-9)
            assert eff.variance < 1e-18

    def test_determinism_bitwise(self):
        a = run_case(SimCaseConfig(w1=0.7, w2=0.6, replicates=100, seed=9))
        b = run_case(SimCaseConfig(w1=0.7, w2=0.6, replicates=100, seed=9))
        for ea, eb in zip(a.effects, b.effects):
            assert ea == eb
        assert a.corr_ranges == b.corr_ranges

    def test_chunk_invariance(self, set_chunk):
        cfg = SimCaseConfig(w1=0.7, w2=0.6, replicates=100, seed=9)
        whole = run_case(cfg)
        set_chunk(7 * cfg.n)
        chunked = run_case(cfg)
        for ea, eb in zip(whole.effects, chunked.effects):
            assert ea.label == eb.label
            npt.assert_allclose(eb.mean, ea.mean, rtol=1e-12)
            npt.assert_allclose(eb.variance, ea.variance, rtol=1e-12)

    def test_matches_per_replicate_lstsq(self):
        # independent oracle: one least-squares fit per replicate, on noise
        # rows drawn from the documented child-1 Philox stream
        cfg = paper_case_config(2, seed=4, replicates=30)
        design = generate_design(cfg)
        ss = np.random.SeedSequence(cfg.seed, spawn_key=(1,))
        noise = np.random.Generator(np.random.Philox(ss)).normal(
            0.0, np.sqrt(cfg.sigma2), (cfg.replicates, cfg.n))
        coefs = np.array([np.linalg.lstsq(design.X, design.y + e, rcond=None)[0]
                          for e in noise])
        report = run_case(cfg)
        for g, variables in GROUPS.items():
            cols = list(variables)
            w_avg = np.full(len(cols), 1.0 / len(cols))
            w_var = variability_weights(correlation(design, cols)).weights
            for label, w in ((f"tau{g[1]}", w_avg), (f"tau{g[1]}_w", w_var)):
                vals = coefs[:, cols] @ w
                eff = report.effect(label)
                npt.assert_allclose(eff.mean, vals.mean(), rtol=1e-10)
                npt.assert_allclose(eff.variance, vals.var(ddof=1), rtol=1e-10)
        for j in range(11):
            eff = report.effect(f"beta{j}")
            npt.assert_allclose(eff.mean, coefs[:, j].mean(), rtol=1e-10)
            npt.assert_allclose(eff.variance, coefs[:, j].var(ddof=1), rtol=1e-10)

    def test_single_replicate_has_zero_variance(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = run_case(SimCaseConfig(w1=0.7, w2=0.6, replicates=1, seed=9))
        for eff in report.effects:
            assert eff.variance == 0.0
            assert np.isfinite(eff.mean)

    def test_unbiasedness_within_four_mc_standard_errors(self):
        report = run_case(paper_case_config(2, seed=0, replicates=1000))
        for eff in report.effects:
            mc_se = np.sqrt(eff.variance / report.replicates)
            assert abs(eff.mean - eff.true_value) < 4.0 * mc_se

    def test_case2_weighted_effect_mean_hits_realized_target(self):
        # the target w_w' (beta3, beta4, beta5) is computed from the realized
        # column norms of the generated design
        report = run_case(paper_case_config(2, seed=0, replicates=1000))
        eff = report.effect("tau2_w")
        mc_se = np.sqrt(eff.variance / report.replicates)
        assert abs(eff.mean - eff.true_value) < 3.0 * mc_se

    def test_case1_variance_bands(self):
        report = run_case(paper_case_config(1, seed=0, replicates=1000))
        for label in GROUP_EFFECTS:
            assert report.effect(label).variance < 0.5
        for j in range(11):
            assert report.effect(f"beta{j}").variance < 2.0

    def test_true_weighted_effect_uses_realized_scales(self):
        cfg = paper_case_config(4, seed=0, replicates=10)
        design = generate_design(cfg)
        report = run_case(cfg)
        w = variability_weights(correlation(design, [1, 2])).weights
        expected = float(w @ np.asarray(cfg.beta)[[1, 2]])
        npt.assert_allclose(report.effect("tau1_w").true_value, expected, rtol=1e-12)
        # the doubled x2 dominates the weighting
        assert w[1] > 0.6

    def test_corr_ranges_recorded_for_all_groups(self):
        report = run_case(SimCaseConfig(w1=0.9, w2=0.9, replicates=5, seed=0))
        assert set(report.corr_ranges) == set(GROUPS)
        lo, hi = report.corr_ranges["g1"]
        assert lo <= hi and hi > 0.9

    def test_monotone_benefit_of_correlation(self):
        # with a shared base seed, the weighted-effect variance of group 1 is
        # non-increasing as the mixing weight rises; at n = 15 a single draw
        # is noisy, so the trend is demonstrated at a larger n across seeds
        # plus the pinned default seed at n = 15
        for seed in (0, 1, 2):
            variances = [
                run_case(SimCaseConfig(w1=w1, w2=0.4, n=120, seed=seed,
                                       replicates=300)).effect("tau1_w").variance
                for w1 in (0.3, 0.9, 0.999)
            ]
            assert variances[0] >= variances[1] >= variances[2]
        variances = [
            run_case(SimCaseConfig(w1=w1, w2=0.4, seed=0,
                                   replicates=300)).effect("tau1_w").variance
            for w1 in (0.3, 0.9, 0.999)
        ]
        assert variances[0] >= variances[1] >= variances[2]


def oracle_plan(config):
    """The design, effect plan, effect map and group correlations of a case,
    written the long way: the design through Dataset.from_columns, one
    correlation call and one WeightVector per group. The plan holds
    (label, columns, weights, true value) per effect, and row e of the
    effect map takes a response vector to effect e."""
    z = np.random.Generator(np.random.Philox(np.random.SeedSequence(
        config.seed, spawn_key=(0,)))).standard_normal((config.n, 10))
    w1, w2 = config.w1, config.w2
    x = np.empty_like(z)
    x[:, 0] = z[:, 0]
    x[:, 1] = w1 * z[:, 0] + (1.0 - w1) * z[:, 1]
    x[:, 2] = z[:, 2]
    x[:, 3] = w1 * z[:, 2] + (1.0 - w1) * z[:, 3]
    x[:, 4] = w2 * z[:, 2] + (1.0 - w2) * z[:, 4]
    x[:, 5:] = z[:, 5:]
    for tr in config.transforms:
        x[:, tr.index - 1] *= tr.scale
        if tr.flip:
            x[:, tr.index - 1] *= -1.0
    beta = np.asarray(config.beta)
    design = Dataset.from_columns(beta[0] + x @ beta[1:], list(x.T),
                                  [f"x{j}" for j in range(1, 11)])
    fit = fit_ols(design)
    B = np.linalg.solve(fit.R, fit.Q.T)

    corrs = {g: correlation(design, list(v)) for g, v in GROUPS.items()}
    plan = []
    for g, variables in GROUPS.items():
        cols = list(variables)
        w_avg = WeightVector.average(len(cols)).weights
        plan.append((f"tau{g[1]}", cols, w_avg, float(w_avg @ beta[cols])))
        w_var = variability_weights(corrs[g]).weights
        plan.append((f"tau{g[1]}_w", cols, w_var, float(w_var @ beta[cols])))
    for j in range(11):
        plan.append((f"beta{j}", [j], np.array([1.0]), float(beta[j])))
    weight_rows = np.zeros((len(plan), design.q))
    for row, (_, cols, w, _) in enumerate(plan):
        weight_rows[row, cols] = w
    return design, plan, weight_rows @ B, corrs


def run_case_oracle(config):
    """Reference for run_case, written the long way: the plan of
    oracle_plan, every replicate's effects from its own response, noise
    from Generator.normal and block moments from (block - mean) ** 2.
    Returns (label, mean, variance, true value) per effect and the
    correlation ranges."""
    design, plan, effect_map, corrs = oracle_plan(config)
    y_mean = design.X @ np.asarray(config.beta)
    noise = np.random.Generator(np.random.Philox(np.random.SeedSequence(
        config.seed, spawn_key=(1,))))
    count, mean, m2 = 0, np.zeros(len(plan)), np.zeros(len(plan))
    rows = max(1, sim._CHUNK_ELEMENTS // config.n)
    for lo in range(0, config.replicates, rows):
        k = min(rows, config.replicates - lo)
        block = noise.normal(y_mean, np.sqrt(config.sigma2), (k, config.n)) @ effect_map.T
        block_mean = block.mean(axis=0)
        block_m2 = ((block - block_mean) ** 2).sum(axis=0)
        total = count + k
        delta = block_mean - mean
        mean = mean + delta * (k / total)
        m2 = m2 + block_m2 + delta * delta * (count * k / total)
        count = total
    variance = m2 / (count - 1) if count > 1 else np.zeros_like(m2)

    effects = [(label, float(mu), float(var), truth)
               for (label, _, _, truth), mu, var in zip(plan, mean, variance)]
    corr_ranges = {}
    for g, corr in corrs.items():
        off = corr.values[~np.eye(corr.p, dtype=bool)]
        corr_ranges[g] = (float(off.min()), float(off.max()))
    return effects, corr_ranges


def extended_moments(config):
    """Replicate means and variances of the oracle_plan effects in
    np.longdouble (80-bit extended precision on x86): every replicate's
    response and effects, then two-pass moments, from the documented
    child-1 noise rows."""
    design, _, effect_map, _ = oracle_plan(config)
    z = np.random.Generator(np.random.Philox(np.random.SeedSequence(
        config.seed, spawn_key=(1,)))).standard_normal((config.replicates, config.n))
    y_mean = design.X.astype(np.longdouble) @ np.asarray(config.beta, dtype=np.longdouble)
    sigma = np.sqrt(np.longdouble(config.sigma2))
    effects = (y_mean + sigma * z.astype(np.longdouble)) @ effect_map.T.astype(np.longdouble)
    mean = effects.mean(axis=0)
    if config.replicates < 2:
        return mean, np.zeros_like(mean)
    return mean, ((effects - mean) ** 2).sum(axis=0) / (config.replicates - 1)


def report_numbers(report):
    return ([(e.label, e.mean, e.variance, e.true_value) for e in report.effects],
            report.corr_ranges)


class TestRunCaseOracle:
    """run_case and run_case_oracle agree with extended_moments: means to
    1e-12 of the larger of |mean| and the Monte Carlo standard error, and
    variances to 1e-13 relative. Labels, true values and correlation
    ranges agree exactly."""

    @staticmethod
    def assert_accurate(config):
        (engine, engine_ranges), (oracle, oracle_ranges) = (
            report_numbers(run_case(config)), run_case_oracle(config))
        assert [(e[0], e[3]) for e in engine] == [(e[0], e[3]) for e in oracle]
        assert engine_ranges == oracle_ranges
        ref_mean, ref_var = extended_moments(config)
        scale = np.maximum(np.abs(ref_mean), np.sqrt(ref_var / config.replicates))
        for numbers in (engine, oracle):
            mean = np.array([e[1] for e in numbers], dtype=np.longdouble)
            variance = np.array([e[2] for e in numbers], dtype=np.longdouble)
            assert np.all(np.abs(mean - ref_mean) <= 1e-12 * scale)
            assert np.all(np.abs(variance - ref_var) <= 1e-13 * ref_var)

    @pytest.mark.parametrize("seed", [0, 7, 123])
    @pytest.mark.parametrize("case", [1, 2, 3, 4, 5])
    def test_paper_cases(self, case, seed):
        self.assert_accurate(paper_case_config(case, seed=seed))

    def test_custom_config(self):
        self.assert_accurate(SimCaseConfig(
            w1=0.2, w2=0.7, n=40, sigma2=2.5, replicates=500, seed=3,
            beta=(1.0, -2.0, 0.5, 3.0, -1.0, 0.0, 4.0, 2.0, -3.0, 1.5, 0.25),
            transforms=(Transform(2, scale=3.0, flip=True), Transform(4, scale=-1.5),
                        Transform(7, flip=True))))

    def test_two_noise_blocks(self, set_chunk):
        cfg = paper_case_config(4, seed=3, replicates=1000)
        set_chunk(600 * cfg.n)
        self.assert_accurate(cfg)

    def test_one_replicate(self):
        self.assert_accurate(paper_case_config(2, seed=5, replicates=1))


class TestClosedFormVariance:
    """Each Monte Carlo variance s^2 lies within 5 of its standard errors,
    v sqrt(2/(R-1)), of the exact variance v = sigma^2 c'(X'X)^{-1} c."""

    @pytest.mark.parametrize("case", [1, 2, 3, 4, 5])
    def test_paper_cases(self, case):
        replicates = 1000
        for seed in range(10):
            config = paper_case_config(case, seed=seed, replicates=replicates)
            design, plan, _, _ = oracle_plan(config)
            xtx_inv = np.linalg.inv(design.X.T @ design.X)
            report = run_case(config)
            for label, cols, w, _ in plan:
                exact = config.sigma2 * float(w @ xtx_inv[np.ix_(cols, cols)] @ w)
                z = (report.effect(label).variance - exact) / (
                    exact * np.sqrt(2.0 / (replicates - 1)))
                assert abs(z) < 5.0, f"seed {seed} {label}: z = {z:.2f}"


class TestSharedDraws:
    """The suite's cases share their design and noise statistics through
    memos; each report is still exactly that of a standalone run_case."""

    @staticmethod
    def standalone(config):
        sim._design_normals.cache_clear()
        sim._noise_moments.cache_clear()
        return report_numbers(run_case(config))

    # one noise block, then two merged
    @pytest.mark.parametrize("chunk_elements", [sim._CHUNK_ELEMENTS, 200 * 15])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_suite_equals_standalone_cases(self, seed, chunk_elements, set_chunk):
        set_chunk(chunk_elements)
        suite = run_paper_suite(seed=seed, replicates=300)
        for case, report in enumerate(suite.reports, start=1):
            config = paper_case_config(case, seed=seed, replicates=300)
            assert report_numbers(report) == self.standalone(config)

    def test_interleaved_calls_change_nothing(self):
        configs = [paper_case_config(case, seed=0, replicates=300) for case in (1, 3, 5)]
        expected = [self.standalone(c) for c in configs]
        got = []
        for config in configs:
            run_case(paper_case_config(2, seed=11, replicates=300))
            run_case(paper_case_config(4, seed=0, replicates=300, n=40))
            run_case(paper_case_config(2, seed=0, replicates=100))  # same design only
            got.append(report_numbers(run_case(config)))
        assert got == expected

    def test_memo_arrays_are_read_only(self):
        sim._noise_moments.cache_clear()
        run_paper_suite(seed=0, replicates=50)
        info = sim._noise_moments.cache_info()
        assert (info.misses, info.hits) == (1, 4)
        basis, z_mean, cross = sim._noise_moments(0, 15, 50)
        assert basis.shape == (15, 11) and z_mean.shape == (15,) and cross.shape == (11, 15)
        for a in (basis, z_mean, cross, sim._design_normals(0, 15)):
            with pytest.raises(ValueError):
                a[0] = 0.0


@pytest.fixture(scope="module")
def suite():
    return run_paper_suite(seed=0, replicates=400)


class TestPaperSuite:

    def test_five_cases(self, suite):
        assert [r.label for r in suite.reports] == [f"case{k}" for k in range(1, 6)]

    def test_all_checks_pass(self, suite):
        for check in suite.checks:
            assert check.passed, f"{check.name}: {check.detail}"

    def test_one_replicate_rejected(self):
        # every Monte Carlo variance of one replicate is 0, and the locality
        # check divides by them
        with pytest.raises(InvalidParameterError, match=">= 2 replicates"):
            run_paper_suite(seed=0, replicates=1)

    def test_locality_is_exact_under_shared_seed(self, suite):
        # the mixing design spans the same column space whatever the weights,
        # so the uncorrelated coefficients' estimators agree across cases
        for j in range(6, 11):
            v1 = suite.report("case1").effect(f"beta{j}").variance
            v3 = suite.report("case3").effect(f"beta{j}").variance
            assert max(v1 / v3, v3 / v1) < 5.0
            npt.assert_allclose(v1, v3, rtol=1e-9)

    def test_case4_average_effect_breaks_weighted_survives(self, suite):
        rep = suite.report("case4")
        assert rep.effect("tau1").variance > 10.0
        assert rep.effect("tau1_w").variance < 0.1

    def test_case5_weighted_effect_not_estimable(self, suite):
        assert suite.report("case5").effect("tau1_w").variance > 5.0
