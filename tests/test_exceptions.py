"""The library's parameter validators raise GroupFxError subclasses."""

import numpy as np
import pytest

from groupfx import (
    ClrProblem,
    CorrelationMatrix,
    GroupFxError,
    InvalidParameterError,
    SignArrangement,
    SimCaseConfig,
    Transform,
    UniformSpec,
    WeightVector,
    paper_case_config,
    solve_clr,
    sphere_candidates,
    standardize,
    t_sf_two_sided,
)
from conftest import uniform_design_dataset

PROBLEM = ClrProblem(w=WeightVector.average(2), tau_hat=1.0)
DATA = uniform_design_dataset(30, 3, 0.9)

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
}


@pytest.mark.parametrize("call", BAD_CALLS.values(), ids=BAD_CALLS.keys())
def test_validator_raises_a_groupfx_error(call):
    with pytest.raises(GroupFxError) as exc:
        call()
    # callers that catch ValueError still catch it
    assert isinstance(exc.value, InvalidParameterError)
    assert isinstance(exc.value, ValueError)
