"""The library's parameter validators raise GroupFxError subclasses."""

import numpy as np
import pytest

from groupfx import (
    ClrProblem,
    CorrelationMatrix,
    DimensionMismatchError,
    GroupFxError,
    InvalidParameterError,
    SignArrangement,
    SimCaseConfig,
    Transform,
    UniformSpec,
    WeightVector,
    apc_arrangement,
    check_apc_condition,
    correlation,
    delta_variance,
    effect_variance,
    estimable_delta_bound,
    estimate_effect,
    fit_ols,
    paper_case_config,
    run_paper_suite,
    silvey_variance,
    solve_clr,
    solve_clr_best_offset,
    sphere_candidates,
    standardize,
    t_sf_two_sided,
    table1,
)
from groupfx.exceptions import _finite
from conftest import BAD_SIM_FIELDS, uniform_design_dataset

PROBLEM = ClrProblem(w=WeightVector.average(2), tau_hat=1.0)
DATA = uniform_design_dataset(30, 3, 0.9)
FIT = fit_ols(DATA)
CORR = correlation(DATA, [0, 1, 2])
SPEC = UniformSpec(p=8, r=0.5)

BAD_CALLS = {
    "UniformSpec": lambda: UniformSpec(p=1, r=0.5),
    "SimCaseConfig": lambda: SimCaseConfig(w1=1.5, w2=0.5),
    "Transform": lambda: Transform(index=0),
    "paper_case_config": lambda: paper_case_config(6),
    "CorrelationMatrix": lambda: CorrelationMatrix(values=np.array([[2.0, 0.0], [0.0, 1.0]]),
                                                   column_sds=np.ones(2)),
    "WeightVector": lambda: WeightVector([0.5, 0.6]),
    "SignArrangement": lambda: SignArrangement(np.array([1.0, 0.5])),
    "ClrProblem": lambda: ClrProblem(w=WeightVector.average(2), tau_hat=np.nan),
    "solve_clr": lambda: solve_clr(DATA, [1, 2, 3], selection="magic"),
    "sphere_candidates": lambda: sphere_candidates(PROBLEM, 10.0, np.ones(3)),
    "standardize": lambda: standardize(DATA, [0, 1]),
    "t_sf_two_sided": lambda: t_sf_two_sided(1.0, 0),
    # a value of the wrong kind, or a non-finite number, names its parameter
    "UniformSpec-p-float": lambda: UniformSpec(p=8.0, r=0.5),
    "UniformSpec-p-None": lambda: UniformSpec(p=None, r=0.5),
    "UniformSpec-r-str": lambda: UniformSpec(p=8, r="0.5"),
    "UniformSpec-sigma2-inf": lambda: UniformSpec(p=8, r=0.5, sigma2=np.inf),
    "delta_variance-delta-nan": lambda: delta_variance(SPEC, np.nan),
    "estimable_delta_bound-var_budget-nan": lambda: estimable_delta_bound(SPEC, np.nan),
    "table1-r_list-scalar": lambda: table1(8, 0.5),
    "effect_variance-weights-str": lambda: effect_variance(SPEC, "abc"),
    "correlation-group-float": lambda: correlation(DATA, [1.5, 2]),
    "correlation-group-bool": lambda: correlation(DATA, [True, 2]),
    "correlation-group-str": lambda: correlation(DATA, "12"),
    "correlation-group-int": lambda: correlation(DATA, 3),
    "correlation-group-None": lambda: correlation(DATA, None),
    "estimate_effect-group-float": lambda: estimate_effect(FIT, [1.5], WeightVector.basis(1, 0)),
    "estimate_effect-weights-str": lambda: estimate_effect(FIT, [1], "abc"),
    "WeightVector-weights-str": lambda: WeightVector("abc"),
    "SignArrangement-signs-str": lambda: SignArrangement("abc"),
    "silvey_variance-c-str": lambda: silvey_variance(FIT, "abc"),
    "sphere_candidates-direction-str": lambda: sphere_candidates(PROBLEM, 10.0, "abc"),
    "sphere_candidates-c-nan": lambda: sphere_candidates(PROBLEM, np.nan, [1.0, -1.0]),
    "check_apc_condition-anchor-float": lambda: check_apc_condition(CORR, 1.7),
    "apc_arrangement-anchor-float": lambda: apc_arrangement(CORR, 1.7),
    "t_sf_two_sided-t-str": lambda: t_sf_two_sided("1", 5),
    "t_sf_two_sided-dof-bool": lambda: t_sf_two_sided(1.0, True),
    "t_sf_two_sided-dof-str": lambda: t_sf_two_sided(1.0, "5"),
    "ClrProblem-tau_hat-str": lambda: ClrProblem(w=WeightVector.average(2), tau_hat="abc"),
    "solve_clr-c_offset-nan": lambda: solve_clr(DATA, [0, 1, 2], c_offset=np.nan),
    "solve_clr-c_offset-inf": lambda: solve_clr(DATA, [0, 1, 2], c_offset=np.inf),
    "solve_clr-n_folds-float": lambda: solve_clr(DATA, [0, 1, 2], n_folds=2.5),
    "solve_clr-seed-negative": lambda: solve_clr(DATA, [0, 1, 2], selection="kfold", seed=-1),
    "solve_clr-seed-float": lambda: solve_clr(DATA, [0, 1, 2], selection="kfold", seed=1.5),
    "solve_clr_best_offset-c_offset-nan": lambda: solve_clr_best_offset(DATA, [0, 1, 2],
                                                                         [1.0, np.nan]),
    "solve_clr_best_offset-offsets-scalar": lambda: solve_clr_best_offset(DATA, [0, 1, 2], 3.0),
    "run_paper_suite-replicates-str": lambda: run_paper_suite(replicates="10"),
    "SimCaseConfig-transforms-Transform": lambda: SimCaseConfig(w1=0.5, w2=0.5,
                                                                transforms=Transform(2)),
    "Transform-flip-int": lambda: Transform(2, flip=2),
    # a vector is integer or real: numpy would parse these strings as numbers
    "WeightVector-weights-str-list": lambda: WeightVector(["0.5", "0.5"]),
    "estimate_effect-weights-str-list": lambda: estimate_effect(FIT, [1, 2], ["0.5", "0.5"]),
    "effect_variance-weights-str-number": lambda: effect_variance(SPEC, "5"),
    "SignArrangement-signs-bool": lambda: SignArrangement([True, True]),
    "WeightVector-weights-object": lambda: WeightVector(np.array([0.5, 0.5], dtype=object)),
    "WeightVector.average-p-float": lambda: WeightVector.average(2.5),
    "WeightVector.average-p-bool": lambda: WeightVector.average(True),
    "WeightVector.average-p-zero": lambda: WeightVector.average(0),
    "WeightVector.basis-p-zero": lambda: WeightVector.basis(0, 0),
    "WeightVector.basis-j-float": lambda: WeightVector.basis(3, 1.0),
}


@pytest.mark.parametrize("call", BAD_CALLS.values(), ids=BAD_CALLS.keys())
def test_validator_raises_a_groupfx_error(call):
    with pytest.raises(GroupFxError) as exc:
        call()
    # callers that catch ValueError still catch it
    assert isinstance(exc.value, InvalidParameterError)
    assert isinstance(exc.value, ValueError)


# A value that one parameter's range check rejects, with the parameter's
# name; a RadiusTooSmallError is an InvalidParameterError too. The command
# line reports each of these under the option the value came from.
NAMED_RANGE_ERRORS = [
    pytest.param("p", lambda: UniformSpec(p=1, r=0.5), id="UniformSpec-p"),
    pytest.param("r", lambda: UniformSpec(p=8, r=np.nan), id="UniformSpec-r-nan"),
    pytest.param("sigma2", lambda: UniformSpec(p=8, r=0.5, sigma2=0.0), id="UniformSpec-sigma2"),
    pytest.param("w1", lambda: SimCaseConfig(w1=1.5, w2=0.5), id="SimCaseConfig-w1"),
    pytest.param("w2", lambda: SimCaseConfig(w1=0.5, w2=-0.1), id="SimCaseConfig-w2"),
    pytest.param("replicates", lambda: SimCaseConfig(w1=0.5, w2=0.5, replicates=0),
                 id="SimCaseConfig-replicates"),
    pytest.param("n", lambda: SimCaseConfig(w1=0.5, w2=0.5, n=0), id="SimCaseConfig-n"),
    pytest.param("seed", lambda: SimCaseConfig(w1=0.5, w2=0.5, seed=-1), id="SimCaseConfig-seed"),
    pytest.param("sigma2", lambda: SimCaseConfig(w1=0.5, w2=0.5, sigma2=-1.0),
                 id="SimCaseConfig-sigma2"),
    pytest.param("transforms", lambda: SimCaseConfig(w1=0.5, w2=0.5, transforms=(2,)),
                 id="SimCaseConfig-transforms"),
    pytest.param("case", lambda: paper_case_config(6), id="paper_case_config-case"),
    pytest.param("replicates", lambda: run_paper_suite(replicates=1),
                 id="run_paper_suite-replicates"),
    pytest.param("n_folds", lambda: solve_clr(DATA, [0, 1, 2], selection="kfold", n_folds=1),
                 id="solve_clr-n_folds-kfold"),
    pytest.param("n_folds", lambda: solve_clr(DATA, [0, 1, 2], n_folds=1),
                 id="solve_clr-n_folds-min-rss"),
    pytest.param("seed", lambda: solve_clr(DATA, [0, 1, 2], seed=-1), id="solve_clr-seed"),
    pytest.param("c_offset", lambda: solve_clr(DATA, [0, 1, 2], c_offset=-1.0),
                 id="solve_clr-c_offset"),
    pytest.param("c_offset", lambda: solve_clr_best_offset(DATA, [0, 1, 2], [1.0, -1.0]),
                 id="solve_clr_best_offset-c_offset"),
]


@pytest.mark.parametrize("name, call", NAMED_RANGE_ERRORS + BAD_SIM_FIELDS)
def test_error_carries_the_parameter_name(name, call):
    with pytest.raises(InvalidParameterError) as exc:
        call()
    assert exc.value.name == name


EMPTY_OR_NON_FINITE = {
    "SignArrangement-signs-empty": lambda: SignArrangement([]),
    "silvey_variance-c-nan": lambda: silvey_variance(FIT, [np.nan, 0.0, 0.0]),
    "sphere_candidates-direction-nan": lambda: sphere_candidates(PROBLEM, 10.0, [np.nan, 1.0]),
}


@pytest.mark.parametrize("call", EMPTY_OR_NON_FINITE.values(), ids=EMPTY_OR_NON_FINITE.keys())
def test_empty_or_non_finite_vector_is_a_dimension_error(call):
    with pytest.raises(DimensionMismatchError, match="non-empty finite vector"):
        call()


@pytest.mark.parametrize("j", [3, 5, -1])
def test_basis_index_out_of_range_is_a_dimension_error(j):
    with pytest.raises(DimensionMismatchError, match="out of range"):
        WeightVector.basis(3, j)


def test_numpy_integers_are_accepted_as_ints():
    spec = UniformSpec(p=np.int64(8), r=0.5)
    assert spec == UniformSpec(p=8, r=0.5) and type(spec.p) is int
    assert Transform(2, flip=np.bool_(True)) == Transform(2, flip=True)
    group = np.array([0, 1, 2])
    assert np.array_equal(correlation(DATA, group).values, CORR.values)
    assert np.array_equal(apc_arrangement(CORR, np.int64(1)).signs,
                          apc_arrangement(CORR, 1).signs)
    assert check_apc_condition(CORR, np.int32(2)) == check_apc_condition(CORR, 2)
    got = solve_clr(DATA, group, selection="kfold", n_folds=np.int64(3), seed=np.int32(4))
    want = solve_clr(DATA, [0, 1, 2], selection="kfold", n_folds=3, seed=4)
    assert np.array_equal(got.chosen, want.chosen)


class _Float(float):
    pass


@pytest.mark.parametrize("value, want", [
    (0.25, 0.25), (-3.0, -3.0), (np.float64(2.5), 2.5), (3, 3.0), (np.int64(-4), -4.0),
    (_Float(1.5), 1.5),
])
def test_finite_returns_a_plain_float(value, want):
    got = _finite("x", value)
    assert type(got) is float and got == want


@pytest.mark.parametrize("value", [True, np.bool_(False), float("nan"), -np.inf, np.inf,
                                   np.float64("nan"), _Float("nan"), _Float("-inf"), "1.0",
                                   None, 1j])
def test_finite_rejects_a_bool_a_non_real_or_a_non_finite_value(value):
    with pytest.raises(InvalidParameterError, match="^x must be a finite number, got ") as exc:
        _finite("x", value)
    assert exc.value.name == "x"
