"""Shared fixtures and synthetic-design builders for the test suite."""

import numpy as np
import pytest

from groupfx import Dataset, SimCaseConfig, Transform, generate_design, paper_case_config


def centered_orthonormal_basis(n: int, k: int, rng=None) -> np.ndarray:
    """k orthonormal columns in R^n, each with exact zero mean.

    Built by QR-factorizing centered random columns; requires n >= k + 1
    so the all-ones direction can be excluded.
    """
    if n < k + 1:
        raise ValueError("need n >= k + 1 for mean-zero orthonormal columns")
    rng = rng or np.random.default_rng(0)
    M = rng.standard_normal((n, k))
    M -= M.mean(axis=0)
    Q, _ = np.linalg.qr(M)
    Q -= Q.mean(axis=0)
    Q, _ = np.linalg.qr(Q)
    return Q[:, :k]


def equicorrelated_columns(n: int, p: int, r: float, rng=None) -> np.ndarray:
    """p mean-zero unit-norm columns with exact pairwise correlation r:
    x_j = sqrt(1-r) e_j + sqrt(r) e_0 over an orthonormal mean-zero basis."""
    basis = centered_orthonormal_basis(n, p + 1, rng)
    shared = basis[:, 0]
    cols = np.sqrt(1.0 - r) * basis[:, 1:] + np.sqrt(r) * shared[:, None]
    return cols


def uniform_design_dataset(n: int, p: int, r: float, *, sds=None, beta=None,
                           noise=1.0, seed=0) -> Dataset:
    """Dataset whose predictor block has the exact equicorrelation structure,
    optionally rescaled per column to the given sd-norms."""
    rng = np.random.default_rng(seed)
    X = equicorrelated_columns(n, p, r, rng)
    if sds is not None:
        X = X * np.asarray(sds)[None, :]
    beta = np.zeros(p) if beta is None else np.asarray(beta, dtype=float)
    y = X @ beta + noise * rng.standard_normal(n)
    return Dataset(y=y, X=X, names=tuple(f"x{j+1}" for j in range(p)),
                   has_intercept=False)


def cone_design(p: int, n: int, rng) -> np.ndarray:
    """p mean-zero unit columns whose |correlation| with the first strictly
    exceeds sqrt(2)/2, with random sign flips: the setting in which an
    all-positive-correlations arrangement is guaranteed to exist."""
    basis = centered_orthonormal_basis(n, p, rng)
    anchor = basis[:, 0]
    cols = [anchor]
    lo = np.sqrt(2.0) / 2.0
    for j in range(1, p):
        cos_theta = lo + (1.0 - lo) * rng.uniform(0.02, 0.98)
        sin_theta = np.sqrt(1.0 - cos_theta**2)
        sign = rng.choice((-1.0, 1.0))
        cols.append(sign * (cos_theta * anchor + sin_theta * basis[:, j]))
    return np.column_stack(cols)


# A simulation field of the wrong kind, each with the name its error carries.
BAD_SIM_FIELDS = [
    pytest.param("sigma2", lambda: SimCaseConfig(w1=0.5, w2=0.5, sigma2=float("nan")),
                 id="sigma2-nan"),
    pytest.param("sigma2", lambda: SimCaseConfig(w1=0.5, w2=0.5, sigma2=float("inf")),
                 id="sigma2-inf"),
    pytest.param("w1", lambda: SimCaseConfig(w1=float("nan"), w2=0.5), id="w1-nan"),
    pytest.param("w2", lambda: SimCaseConfig(w1=0.5, w2=True), id="w2-bool"),
    pytest.param("beta", lambda: SimCaseConfig(w1=0.5, w2=0.5,
                                               beta=(1.0,) * 10 + (float("inf"),)),
                 id="beta-inf"),
    pytest.param("beta", lambda: SimCaseConfig(w1=0.5, w2=0.5, beta=(float("nan"),) * 11),
                 id="beta-nan"),
    pytest.param("beta", lambda: SimCaseConfig(w1=0.5, w2=0.5, beta=("5",) * 11),
                 id="beta-str"),
    pytest.param("beta", lambda: SimCaseConfig(w1=0.5, w2=0.5, beta=(True,) * 11),
                 id="beta-bool"),
    pytest.param("n", lambda: SimCaseConfig(w1=0.5, w2=0.5, n=15.0), id="n-float"),
    pytest.param("n", lambda: SimCaseConfig(w1=0.5, w2=0.5, n=True), id="n-bool"),
    pytest.param("replicates", lambda: SimCaseConfig(w1=0.5, w2=0.5, replicates=2.5),
                 id="replicates-float"),
    pytest.param("seed", lambda: SimCaseConfig(w1=0.5, w2=0.5, seed=np.float64(3.0)),
                 id="seed-numpy-float"),
    pytest.param("seed", lambda: SimCaseConfig(w1=0.5, w2=0.5, seed=False),
                 id="seed-bool"),
    pytest.param("transforms", lambda: SimCaseConfig(w1=0.5, w2=0.5,
                                                     transforms=((2, 2.0),)),
                 id="transforms-tuple"),
    pytest.param("scale", lambda: Transform(2, scale=float("inf")), id="scale-inf"),
    pytest.param("scale", lambda: Transform(2, scale=float("nan")), id="scale-nan"),
    pytest.param("index", lambda: Transform(2.0), id="index-float"),
    pytest.param("case", lambda: paper_case_config(True), id="case-bool"),
    pytest.param("case", lambda: paper_case_config(2.0), id="case-float"),
]


def mixing_dataset(w1: float, w2: float, seed: int, n: int = 15) -> Dataset:
    """One draw of the two-group mixing design with a single response
    realization (the scenario behind the worked single-fit example)."""
    cfg = SimCaseConfig(w1=w1, w2=w2, n=n, seed=seed, replicates=1)
    design = generate_design(cfg)
    eps_stream = np.random.SeedSequence(seed).spawn(2)[1]
    eps = np.random.Generator(np.random.Philox(eps_stream)).normal(0.0, 1.0, n)
    return Dataset(y=design.y + eps, X=design.X, names=design.names,
                   has_intercept=True)


@pytest.fixture
def table7_like_dataset() -> Dataset:
    """Fixed draw of the (w1, w2) = (0.85, 0.80) design whose second group
    reproduces the published phenomenon: the weighted group effect is highly
    significant while every individual effect in the group is not."""
    return mixing_dataset(0.85, 0.80, seed=3)


@pytest.fixture
def random_dataset() -> Dataset:
    rng = np.random.default_rng(11)
    X = rng.standard_normal((40, 5))
    beta = np.array([1.5, -0.5, 0.0, 2.0, 1.0])
    y = 3.0 + X @ beta + rng.standard_normal(40)
    return Dataset.from_columns(y, list(X.T),
                                [f"v{j}" for j in range(5)])
