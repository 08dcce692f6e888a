"""Linear-model fitting and correlation machinery.

Everything downstream (uniform-model analytics, group effects, constrained
local regression, the simulation harness) consumes the three value types
defined here: :class:`Dataset`, :class:`OlsFit` and :class:`CorrelationMatrix`.
All operations are pure functions of their inputs; the returned objects are
immutable in spirit and safe to share across threads.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import (
    DataFormatError,
    DimensionMismatchError,
    InvalidParameterError,
    SingularDesignError,
    ZeroVarianceError,
    _integer,
    _sequence,
)

# Designs whose X'X has reciprocal condition number below this, with the
# columns of X equilibrated so that their units do not count, are rejected.
# Chosen to admit the near-singular r = 0.999 designs studied here while
# still refusing exact collinearity.
RCOND_MIN = 1e-12

INTERCEPT_NAME = "intercept"

_FLOAT_MAX = float(np.finfo(np.float64).max)
_FLOAT_TINY = float(np.finfo(np.float64).tiny)

_OUT_OF_RANGE = ("design is numerically singular: the scale of a column or of the "
                 "response puts its fit outside the floating-point range")


@dataclass(frozen=True)
class Dataset:
    """A response vector plus named predictor columns.

    When ``has_intercept`` is true the first column of ``X`` must be the
    explicit all-ones intercept column; this keeps the intercepted model on
    the same code path as the plain one.
    """

    y: np.ndarray
    X: np.ndarray
    names: tuple[str, ...]
    has_intercept: bool = False

    def __post_init__(self):
        y = np.asarray(self.y, dtype=np.float64).reshape(-1)
        X = np.asarray(self.X, dtype=np.float64)
        if X.ndim != 2:
            raise DimensionMismatchError("X must be a 2-D array")
        if y.shape[0] != X.shape[0]:
            raise DimensionMismatchError(
                f"y has {y.shape[0]} rows but X has {X.shape[0]}"
            )
        if X.shape[0] == 0:
            raise DataFormatError("dataset has no rows")
        if len(self.names) != X.shape[1]:
            raise DimensionMismatchError(
                f"{len(self.names)} names for {X.shape[1]} columns"
            )
        if len(set(self.names)) != len(self.names):
            dup = next(s for i, s in enumerate(self.names) if s in self.names[:i])
            raise DataFormatError(f"duplicate column name {dup!r}")
        # the array methods skip the Python dispatch of np.all and np.any
        if not np.isfinite(y).all() or not np.isfinite(X).all():
            raise DataFormatError("response and predictors must be finite")
        # np.allclose(X[:, 0], 1.0) written out: |x - 1| <= 1e-8 + 1e-5 * 1
        if self.has_intercept and not (np.abs(X[:, 0] - 1.0) <= 1e-8 + 1e-5).all():
            raise DataFormatError("declared intercept column is not all ones")
        start = 1 if self.has_intercept else 0
        predictors = X[:, start:]
        constant = predictors.max(axis=0) == predictors.min(axis=0)
        if constant.any():
            raise ZeroVarianceError(f"column {self.names[start + int(np.argmax(constant))]!r} "
                                    "is constant but not the intercept")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "names", tuple(self.names))

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def q(self) -> int:
        return self.X.shape[1]

    @classmethod
    def from_columns(cls, y, columns, names) -> "Dataset":
        """Assemble a dataset from predictor columns, prepending the explicit
        intercept column."""
        cols = [np.asarray(c, dtype=np.float64).reshape(-1) for c in columns]
        names = list(names)
        if len(cols) != len(names):
            raise DimensionMismatchError("one name per column required")
        n = len(np.asarray(y).reshape(-1))
        for name, c in zip(names, cols):
            if c.shape[0] != n:
                raise DimensionMismatchError(
                    f"column {name!r} has {c.shape[0]} rows but y has {n}"
                )
        return cls(
            y=np.asarray(y, dtype=np.float64),
            X=np.column_stack([np.ones(n)] + cols),
            names=(INTERCEPT_NAME, *names),
            has_intercept=True,
        )


@dataclass(frozen=True)
class OlsFit:
    """Least-squares fit: coefficients, residual variance, the thin QR factors
    X = QR (so X'X = R'R) and the unscaled covariance (X'X)^{-1}."""

    beta_hat: np.ndarray
    sigma2_hat: float
    Q: np.ndarray
    R: np.ndarray
    xtx_inv: np.ndarray
    dof: int
    rss: float

    @property
    def cov(self) -> np.ndarray:
        """Estimated covariance of beta_hat: sigma2_hat * (X'X)^{-1}."""
        return self.sigma2_hat * self.xtx_inv


@dataclass(frozen=True)
class CorrelationMatrix:
    """Pearson correlations of a predictor group, plus the centered L2 norms
    s_j of the underlying columns (the variability scales)."""

    values: np.ndarray
    column_sds: np.ndarray
    names: tuple[str, ...] = field(default=())

    def __post_init__(self):
        R = np.asarray(self.values, dtype=np.float64)
        s = np.asarray(self.column_sds, dtype=np.float64).reshape(-1)
        if R.ndim != 2 or R.shape[0] != R.shape[1]:
            raise DimensionMismatchError("correlation matrix must be square")
        if s.shape[0] != R.shape[0]:
            raise DimensionMismatchError("one column sd per variable required")
        # np.allclose(a, b, atol=1e-10) written out, i.e. |a - b| <= 1e-10 +
        # 1e-5 |b| with NaN rejected: allclose costs more than all the rest.
        if not np.all(np.abs(np.diagonal(R) - 1.0) <= 1e-10 + 1e-5):
            raise InvalidParameterError("correlation matrix diagonal must be 1")
        if not np.all(np.abs(R - R.T) <= 1e-10 + 1e-5 * np.abs(R.T)):
            raise InvalidParameterError("correlation matrix must be symmetric")
        if np.any(np.abs(R) > 1.0 + 1e-10):
            raise InvalidParameterError("correlations must lie in [-1, 1]")
        if np.any(s <= 0.0):
            raise ZeroVarianceError("column sd-norms must be positive")
        # Exact unit diagonal and symmetry, whatever roundoff came in.
        R = 0.5 * (R + R.T)
        np.fill_diagonal(R, 1.0)
        object.__setattr__(self, "values", R)
        object.__setattr__(self, "column_sds", s)
        object.__setattr__(self, "names", tuple(self.names))

    @property
    def p(self) -> int:
        return self.values.shape[0]


def fit_ols(data: Dataset) -> OlsFit:
    """Fit ordinary least squares via one QR decomposition of X, kept on the fit.

    (X'X)^{-1} is formed explicitly because the group-effect variance
    formulas consume it directly.

    Raises
    ------
    SingularDesignError
        If n <= q, if the reciprocal condition number of X'X with equilibrated
        columns falls below ``RCOND_MIN``, or if the scale of a column or of
        the response puts the fit outside the floating-point range.
    """
    X, y = data.X, data.y
    n, q = X.shape
    if n <= q:
        raise SingularDesignError(f"n={n} observations cannot fit q={q} parameters")

    Q, R = np.linalg.qr(X)
    # Column j of R has X's column norm, at most sqrt(q) max|R_ij|, and its
    # square must be finite (with a factor 2 to spare for roundoff).
    scale = np.abs(R).max(axis=0)
    if not scale.max() <= math.sqrt(_FLOAT_MAX / (2 * q)):
        raise SingularDesignError(_OUT_OF_RANGE)
    # rcond of X'X from the singular values of R, its columns scaled to a largest
    # magnitude of 1: within sqrt(q) of the best column scaling (van der Sluis 1969)
    sv = np.linalg.svd(R / scale, compute_uv=False)
    rcond = (sv[-1] / sv[0]) ** 2
    if not np.isfinite(rcond) or rcond < RCOND_MIN:
        raise SingularDesignError(f"design is singular (equilibrated X'X rcond {rcond:.3e})")

    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is rejected below
        beta = np.linalg.solve(R, Q.T @ y)
        resid = y - X @ beta
        rss = float(resid @ resid)
        r_inv = np.linalg.inv(R)  # gesv on the identity, as solve(R, eye(q)) runs it
        xtx_inv = r_inv @ r_inv.T  # numpy computes a @ a.T by syrk: exactly symmetric
    dof = n - q
    sigma2 = rss / dof
    # (X'X)^{-1} and sigma2 (X'X)^{-1}, whose entries their diagonals bound, must
    # be finite, with a normal diagonal (a NaN makes the sum NaN)
    diag = np.diagonal(xtx_inv).tolist()
    if not (min(diag) >= _FLOAT_TINY and math.isfinite(sigma2 * sum(diag))):
        raise SingularDesignError(_OUT_OF_RANGE)

    return OlsFit(
        beta_hat=beta,
        sigma2_hat=sigma2,
        Q=Q, R=R,
        xtx_inv=xtx_inv,
        dof=dof,
        rss=rss,
    )


def _check_group(group, q: int) -> list[int]:
    """The group as a list of column indices, checked non-empty, distinct
    and each in range(q)."""
    idx = [_integer("group index", j) for j in _sequence("group", group)]
    if len(idx) == 0:
        raise DimensionMismatchError("group must contain at least one column")
    if len(set(idx)) != len(idx):
        raise DimensionMismatchError("group indices must be distinct")
    for j in idx:
        if j < 0 or j >= q:
            raise DimensionMismatchError(f"column index {j} out of range")
    return idx


def _centered_columns(data: Dataset, idx: list[int] | np.ndarray):
    """Columns ``idx`` of X, centered, as (u, norms, e): centered column j is
    u_j 2^e_j and has L2 norm norms_j 2^e_j, where 2^-e_j brings column j's
    largest magnitude into [0.5, 1), so its sum of squares neither overflows
    nor underflows whatever the column's units. A power of 2 scales exactly
    (short of underflow), so u and norms carry the bits of the centered
    columns and their norms.

    Raises
    ------
    SingularDesignError
        If a centered column's L2 norm is beyond the floating-point range.
    """
    cols = data.X[:, idx]
    # the ufunc reductions are the ones max, mean and sum run, without their
    # Python wrappers: the same bits
    e = np.frexp(np.maximum.reduce(np.abs(cols), axis=0))[1]
    u = np.ldexp(cols, -e)
    u -= np.add.reduce(u, axis=0) / u.shape[0]
    norms = np.sqrt(np.add.reduce(u * u, axis=0))
    # norms_j 2^e_j is finite while its exponent, norms_j's plus e_j, is <= 1024
    over = np.frexp(norms)[1] + e > 1024
    if over.any():
        bad = data.names[idx[int(np.argmax(over))]]
        raise SingularDesignError(f"column {bad!r}: its centered L2 norm is outside "
                                  "the floating-point range")
    return u, norms, e


def correlation(data: Dataset, group) -> CorrelationMatrix:
    """Pearson correlation matrix of the selected columns.

    The companion scales are the centered L2 norms
    s_j = ||x_j - mean(x_j)||, so the correlation is the plain ratio of
    centered cross products with no sample-size denominator. A column whose
    s_j is beyond the floating-point range raises
    :class:`~groupfx.exceptions.SingularDesignError`.
    """
    idx = _check_group(group, data.q)
    return CorrelationMatrix(*_correlation_arrays(data, idx),
                             names=tuple(data.names[j] for j in idx))


def _correlation_arrays(data: Dataset, idx: list[int] | np.ndarray):
    """The arrays of :func:`correlation` for checked column indices, as
    (R, s): R has a unit diagonal, entries in [-1, 1], and is exactly
    symmetric (numpy forms u'u by syrk), so CorrelationMatrix keeps its bits."""
    u, norms, e = _centered_columns(data, idx)
    s = np.ldexp(norms, e)
    if (s <= 0.0).any():
        bad = data.names[idx[int(np.argmin(s))]]
        raise ZeroVarianceError(f"column {bad!r} has zero variance")
    R = (u.T @ u) / (norms[:, None] * norms)
    np.fill_diagonal(R, 1.0)
    # clip to [-1, 1] in place; like np.clip, maximum and minimum keep a NaN
    np.maximum(R, -1.0, out=R)
    np.minimum(R, 1.0, out=R)
    return R, s


def standardize(data: Dataset, group) -> tuple[Dataset, np.ndarray]:
    """Build the standardized model for a predictor group.

    The response and every predictor column are centered (absorbing the
    intercept, which is dropped) and the group columns are additionally
    scaled to unit L2 norm. Returns the standardized dataset and the scale
    vector S of group norms, so coefficients map back as beta = S^{-1} beta'
    on the group block while all other slopes are unchanged. A predictor
    whose centered L2 norm is beyond the floating-point range raises
    :class:`~groupfx.exceptions.SingularDesignError`.
    """
    if not data.has_intercept:
        raise InvalidParameterError("standardize requires an intercepted model")
    idx = _check_group(group, data.q)
    if 0 in idx:
        raise InvalidParameterError("the intercept column cannot be standardized")

    keep = [j for j in range(data.q) if j != 0]
    u, norms, e = _centered_columns(data, keep)
    names = [data.names[j] for j in keep]

    g = [j - 1 for j in idx]  # position of column j in keep
    scales = np.ldexp(norms[g], e[g])
    centered = np.ldexp(u, e)
    centered[:, g] = u[:, g] / norms[g]

    out = Dataset(
        y=data.y - data.y.mean(),
        X=centered,
        names=tuple(names),
        has_intercept=False,
    )
    return out, scales


def load_csv(path, response: str) -> Dataset:
    """Read a headered CSV file into a :class:`Dataset`.

    The named response column becomes y; all remaining columns become
    predictors in file order, after the explicit intercept column, so no
    predictor may be named ``intercept``. A cell is
    accepted exactly when ``float()`` accepts it and gives a finite value,
    blank lines are skipped, and an error names the first offending line.
    Plain numeric files are read by numpy's C parser, any other file row by
    row (see :func:`_read_table`); both give the same values. The file must
    be UTF-8; a byte-order mark is ignored.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            header, table = _read_table(path, fh, response)
    except UnicodeDecodeError:
        raise DataFormatError(f"{path}: not valid UTF-8 text") from None
    if table.shape[0] == 0:
        raise DataFormatError(f"{path}: no data rows")

    # X is the table itself, the response column dropped and the intercept
    # prepended in place: columns [a, y, b] become [1, a, b]
    r_col = header.index(response)
    y = table[:, r_col].copy()
    table[:, 1:r_col + 1] = table[:, :r_col]
    table[:, 0] = 1.0
    return Dataset(
        y=y,
        X=table,
        names=(INTERCEPT_NAME, *header[:r_col], *header[r_col + 1:]),
        has_intercept=True,
    )


def _read_table(path, fh, response: str) -> tuple[list[str], np.ndarray]:
    """Check the header of an open CSV file and parse its data rows.

    The data rows go to ``np.loadtxt`` first. Its C parser converts a cell
    with the same ``PyOS_string_to_double`` that ``float()`` calls, and it
    refuses what ``float()`` adds on top (underscores, non-ASCII digits),
    quoted cells and ragged rows. A file it refuses, one it would read
    differently (a line longer than the csv field limit, a character in
    \\x1c-\\x1f) or one whose table has the wrong width or a non-finite
    value is read again by :func:`_parse_rows`. So a cell is accepted
    exactly when ``float()`` accepts it, and an error names the first bad
    line.
    """
    reader = csv.reader(fh)
    try:
        header = next(reader)
    except StopIteration:
        raise DataFormatError(f"{path}: empty file") from None
    except csv.Error as exc:
        raise DataFormatError(f"{path}:1: {exc}") from None
    header = [h.strip() for h in header]
    dup = next((h for i, h in enumerate(header) if h in header[:i]), None)
    if dup is not None:
        raise DataFormatError(f"{path}: duplicate column name {dup!r}")
    if response not in header:
        raise DataFormatError(
            f"{path}: response column {response!r} not found in header"
        )
    if INTERCEPT_NAME in header and response != INTERCEPT_NAME:
        raise DataFormatError(f"{path}: column name {INTERCEPT_NAME!r} is reserved "
                              "for the added intercept column")
    ncol = len(header)
    lines = fh.readlines()  # a StringIO over the joined text would hold it twice
    if not any(line.rstrip("\r\n") for line in lines):
        return header, np.empty((0, ncol))  # loadtxt would warn "no data"
    table = None
    # loadtxt caps no cell, and it strips \x1c-\x1f around a cell as
    # whitespace where float() refuses them
    if max(map(len, lines)) <= csv.field_size_limit() and not any(
        sep in line for sep in "\x1c\x1d\x1e\x1f" for line in lines
    ):
        try:
            table = np.loadtxt(lines, delimiter=",", comments=None, quotechar=None,
                               ndmin=2, dtype=np.float64)
        except ValueError:
            pass
    if table is None or table.shape[1] != ncol or not np.isfinite(table).all():
        fh.seek(0)
        table = _parse_rows(path, csv.reader(fh), ncol)
    return header, table


def _parse_rows(path, reader, ncol: int) -> np.ndarray:
    """Parse the data rows of a CSV reader one at a time with ``float()``,
    raising at the first line with a wrong field count, an oversized cell or
    a missing, non-numeric or non-finite value."""
    next(reader)
    rows = []
    end = reader.line_num  # physical lines read so far
    try:
        for row in reader:
            lineno, end = end + 1, reader.line_num  # the row's first line
            if not row:
                continue
            if len(row) != ncol:
                raise DataFormatError(f"{path}:{lineno}: expected {ncol} fields, got {len(row)}")
            try:
                vals = [float(v) for v in row]
            except ValueError:
                raise DataFormatError(
                    f"{path}:{lineno}: missing or non-numeric value"
                ) from None
            if not all(np.isfinite(vals)):
                raise DataFormatError(f"{path}:{lineno}: non-finite value")
            rows.append(vals)
    except csv.Error as exc:  # raised by the reader for the row after line end
        raise DataFormatError(f"{path}:{end + 1}: {exc}") from None
    return np.asarray(rows, dtype=np.float64).reshape(-1, ncol)
