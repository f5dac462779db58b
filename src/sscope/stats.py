"""Statistical toolkit: standard errors, t-tests, one-way variance explained,
and OLS with joint F-tests.

The t and F distribution functions are evaluated through the regularized
incomplete beta function, computed with a modified Lentz continued fraction
to absolute tolerance 1e-12. No external stats dependency; linear algebra
goes through numpy's SVD, which is the rank-revealing decomposition used
both to solve the normal equations and to name collinear columns.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import UsageError

__all__ = [
    "FactorTable",
    "RegressionResult",
    "TTestResult",
    "mean_se",
    "t_test",
    "variance_explained",
    "ols_fit",
    "joint_f_test",
    "betainc_reg",
    "student_t_cdf",
    "f_upper_tail",
]

_BETA_TOL = 1e-12
_BETA_MAX_ITER = 500
_FPMIN = 1e-300


# --------------------------------------------------------------------------
# special functions

def _betacf(a, b, x):
    """Continued fraction for the incomplete beta (modified Lentz)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _BETA_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _BETA_TOL:
            return h
    raise ArithmeticError(f"incomplete beta did not converge for a={a}, b={b}, x={x}")


def betainc_reg(a, b, x):
    """Regularized incomplete beta I_x(a, b)."""
    if a <= 0 or b <= 0:
        raise UsageError("betainc_reg needs a, b > 0")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def student_t_cdf(t, df):
    """CDF of Student's t with df degrees of freedom."""
    if df <= 0:
        raise UsageError("df must be positive")
    x = df / (df + t * t)
    tail = 0.5 * betainc_reg(df / 2.0, 0.5, x)
    return 1.0 - tail if t >= 0 else tail


def f_upper_tail(f, d1, d2):
    """P(F >= f) for the F distribution with (d1, d2) degrees of freedom."""
    if d1 <= 0 or d2 <= 0:
        raise UsageError("degrees of freedom must be positive")
    if f <= 0:
        return 1.0
    if math.isinf(f):
        return 0.0
    return betainc_reg(d2 / 2.0, d1 / 2.0, d2 / (d2 + d1 * f))


# --------------------------------------------------------------------------
# samples

def mean_se(values):
    """Mean and standard error with Bessel's correction."""
    values = tuple(values)
    n = len(values)
    if n < 2:
        raise UsageError("need at least 2 values for a standard error")
    arr = np.asarray(values, dtype=np.float64)
    mean = float(arr.mean())
    var = float(((arr - mean) ** 2).sum() / (n - 1))
    return mean, math.sqrt(var / n)


@dataclass(frozen=True)
class TTestResult:
    t_stat: float
    p_value: float
    reject_at_5pct: bool
    df: int


def t_test(values, null_value, sidedness="greater"):
    """One-sample t-test against null_value.

    sidedness: "greater" (mean > null), "less", or "two_sided".
    """
    if sidedness not in ("greater", "less", "two_sided"):
        raise UsageError(f"unknown sidedness {sidedness!r}")
    values = tuple(values)
    mean, se = mean_se(values)
    if se == 0.0:
        raise UsageError("degenerate sample: zero standard error")
    t = (mean - float(null_value)) / se
    df = len(values) - 1
    if sidedness == "greater":
        p = 1.0 - student_t_cdf(t, df)
    elif sidedness == "less":
        p = student_t_cdf(t, df)
    else:
        p = 2.0 * (1.0 - student_t_cdf(abs(t), df))
    p = min(max(p, 0.0), 1.0)
    return TTestResult(t, p, p < 0.05, df)


# --------------------------------------------------------------------------
# variance explained

@dataclass
class FactorTable:
    """Rows of categorical factor assignments plus a real response."""

    factors: dict  # name -> list of levels, column-oriented
    response: list

    def __post_init__(self):
        n = len(self.response)
        for name, col in self.factors.items():
            if len(col) != n:
                raise UsageError(f"factor {name!r} has {len(col)} rows, expected {n}")

    def __len__(self):
        return len(self.response)


def variance_explained(table: FactorTable, factor: str) -> float:
    """One-way eta squared: SS_between / SS_total for one factor.

    Levels with fewer than 2 rows are dropped (with a warning) before the
    decomposition; at least two surviving levels are required.
    """
    if factor not in table.factors:
        raise UsageError(f"unknown factor {factor!r}")
    levels = np.asarray(table.factors[factor])
    y = np.asarray(table.response, dtype=np.float64)
    keep = np.ones(len(y), dtype=bool)
    for lev in np.unique(levels):
        idx = levels == lev
        if idx.sum() < 2:
            warnings.warn(
                f"factor {factor!r}: level {lev!r} has <2 rows, excluded",
                stacklevel=2,
            )
            keep &= ~idx
    levels, y = levels[keep], y[keep]
    uniq = np.unique(levels)
    if len(uniq) < 2:
        raise UsageError(f"factor {factor!r} has fewer than 2 usable levels")
    grand = y.mean()
    ss_total = float(((y - grand) ** 2).sum())
    if ss_total == 0.0:
        return 0.0
    ss_between = 0.0
    for lev in uniq:
        grp = y[levels == lev]
        ss_between += len(grp) * (grp.mean() - grand) ** 2
    return float(ss_between / ss_total)


# --------------------------------------------------------------------------
# ordinary least squares

@dataclass(frozen=True)
class RegressionResult:
    columns: tuple
    coefficients: dict
    standard_errors: dict
    r_squared: float
    rss: float
    tss: float
    n: int
    k: int


_RANK_TOL_FACTOR = 1e-10


def ols_fit(y, X: dict) -> RegressionResult:
    """Fit y on the named design columns via SVD.

    Raises on rank deficiency, naming the columns involved in the collinear
    combination (support of the null-space vectors).
    """
    names = tuple(X.keys())
    y = np.asarray(y, dtype=np.float64)
    cols = [np.asarray(X[name], dtype=np.float64) for name in names]
    n = len(y)
    k = len(names)
    if k == 0:
        raise UsageError("empty design matrix")
    if any(len(c) != n for c in cols):
        raise UsageError("design columns must match the response length")
    if n <= k:
        raise UsageError(f"need n > k, got n={n}, k={k}")
    mat = np.column_stack(cols)
    u, s, vt = np.linalg.svd(mat, full_matrices=False)
    tol = s[0] * max(n, k) * _RANK_TOL_FACTOR if s[0] > 0 else 0.0
    rank = int((s > tol).sum())
    if rank < k:
        null_vecs = vt[rank:]
        involved = sorted(
            {names[j] for j in range(k) if np.abs(null_vecs[:, j]).max() > 1e-8}
        )
        raise UsageError(f"design matrix is rank deficient; collinear columns: {involved}")
    beta = vt.T @ ((u.T @ y) / s)
    resid = y - mat @ beta
    rss = float(resid @ resid)
    tss = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 if tss == 0.0 and rss == 0.0 else 1.0 - rss / tss
    sigma2 = rss / (n - k)
    xtx_inv_diag = ((vt.T / s) ** 2).sum(axis=1)
    ses = np.sqrt(sigma2 * xtx_inv_diag)
    return RegressionResult(
        columns=names,
        coefficients={name: float(b) for name, b in zip(names, beta)},
        standard_errors={name: float(se) for name, se in zip(names, ses)},
        r_squared=float(r2),
        rss=rss,
        tss=tss,
        n=n,
        k=k,
    )


def joint_f_test(full: RegressionResult, restricted: RegressionResult, q: int):
    """F-test that the q coefficients dropped in the restricted model are zero.

    A perfect full fit (RSS == 0) yields the +inf sentinel with p = 0.
    """
    if q <= 0:
        raise UsageError("q must be positive")
    if restricted.n != full.n:
        raise UsageError("models were fit on different sample sizes")
    if full.rss <= full.tss * 1e-14:  # numerically perfect fit
        return math.inf, 0.0
    num = (restricted.rss - full.rss) / q
    den = full.rss / (full.n - full.k)
    f = num / den
    return f, f_upper_tail(f, q, full.n - full.k)
