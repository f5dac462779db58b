"""Stats module vs independent brute-force and quadrature oracles."""

import math

import numpy as np
import pytest

from sscope.errors import UsageError
from sscope.stats import (
    FactorTable,
    f_upper_tail,
    joint_f_test,
    mean_se,
    ols_fit,
    student_t_cdf,
    t_test,
    variance_explained,
)

GAUSS_NODES = np.polynomial.legendre.leggauss(400)


def integrate(fn, lo, hi):
    """Fixed-order Gauss-Legendre quadrature on [lo, hi]."""
    x, w = GAUSS_NODES
    mid, half = (hi + lo) / 2.0, (hi - lo) / 2.0
    return float(half * np.sum(w * fn(mid + half * x)))


def t_pdf(s, df):
    c = math.exp(math.lgamma((df + 1) / 2) - math.lgamma(df / 2)) / math.sqrt(
        df * math.pi
    )
    return c * (1.0 + s**2 / df) ** (-(df + 1) / 2)


def t_tail_oracle(t, df):
    """P(T >= t) for t >= 0 via finite-interval quadrature of the density."""
    return 0.5 - integrate(lambda s: t_pdf(s, df), 0.0, t)


def f_pdf(x, d1, d2):
    lnB = math.lgamma(d1 / 2) + math.lgamma(d2 / 2) - math.lgamma((d1 + d2) / 2)
    return np.exp(
        (d1 / 2) * math.log(d1 / d2)
        + (d1 / 2 - 1) * np.log(x)
        - ((d1 + d2) / 2) * np.log1p(d1 * x / d2)
        - lnB
    )


def f_tail_oracle(f, d1, d2):
    return 1.0 - integrate(lambda x: f_pdf(x, d1, d2), 0.0, f)


# --------------------------------------------------------------------------
# mean / SE

def test_mean_se_constant_sample():
    assert mean_se([1, 1, 1, 1]) == (1.0, 0.0)


def test_mean_se_hand_arithmetic():
    mean, se = mean_se([0, 2])
    assert (mean, se) == (1.0, 1.0)


def test_mean_se_against_fsum_oracle():
    rng = np.random.default_rng(42)
    values = (rng.random(1000) * 1e3 + 1e6).tolist()
    mean, se = mean_se(values)
    n = len(values)
    o_mean = math.fsum(values) / n
    o_var = math.fsum((v - o_mean) ** 2 for v in values) / (n - 1)
    o_se = math.sqrt(o_var / n)
    assert abs(mean - o_mean) < 1e-12 * abs(o_mean)
    assert abs(se - o_se) < 1e-12 * max(o_se, 1.0)


def test_mean_se_needs_two_values():
    with pytest.raises(UsageError):
        mean_se([1.0])


# --------------------------------------------------------------------------
# t distribution and t-test

@pytest.mark.parametrize("df", [2, 4, 9, 30])
@pytest.mark.parametrize("t", [0.3, 1.0, 2.132, 3.7])
def test_t_cdf_matches_quadrature(df, t):
    assert 1.0 - student_t_cdf(t, df) == pytest.approx(
        t_tail_oracle(t, df), abs=1e-6
    )
    # symmetry
    assert student_t_cdf(-t, df) == pytest.approx(1.0 - student_t_cdf(t, df), abs=1e-12)


def test_t_test_zero_statistic():
    res = t_test([1.0, 2.0, 3.0], null_value=2.0)
    assert res.t_stat == 0.0
    assert not res.reject_at_5pct


def test_t_test_classical_critical_value():
    # pattern [-2,-1,0,1,2] has se = sqrt(0.5); shift it so t = 2.132 at df=4
    target_t = 2.132
    mu = target_t * math.sqrt(0.5)
    sample = [mu + d for d in (-2, -1, 0, 1, 2)]
    res = t_test(sample, null_value=0.0, sidedness="greater")
    assert res.t_stat == pytest.approx(target_t, abs=1e-12)
    assert res.p_value == pytest.approx(0.05, abs=1e-3)


def test_two_sided_doubles_one_sided_for_positive_t():
    sample = [0.5, 1.5, 2.5, 3.0]
    one = t_test(sample, 0.0, "greater")
    two = t_test(sample, 0.0, "two_sided")
    assert two.p_value == pytest.approx(2 * one.p_value, rel=1e-12)


def test_t_test_degenerate_sample():
    with pytest.raises(UsageError, match="degenerate"):
        t_test([3.0, 3.0, 3.0], 0.0)


def test_p_monotone_in_statistic():
    ps = [1.0 - student_t_cdf(t, 6) for t in (0.1, 0.5, 1.0, 2.0, 4.0)]
    assert all(a > b for a, b in zip(ps, ps[1:]))
    assert all(0 < p <= 1 for p in ps)


# --------------------------------------------------------------------------
# variance explained

def test_eta_squared_all_between():
    table = FactorTable(
        factors={"model": ["a", "a", "b", "b", "c", "c"]},
        response=[1.0, 1.0, 2.0, 2.0, 5.0, 5.0],
    )
    assert variance_explained(table, "model") == pytest.approx(1.0)


def test_eta_squared_no_between():
    table = FactorTable(
        factors={"model": ["a", "a", "b", "b"]},
        response=[0.0, 2.0, 1.0, 1.0],
    )
    assert variance_explained(table, "model") == pytest.approx(0.0)


def test_eta_squared_against_brute_force():
    rng = np.random.default_rng(3)
    levels = rng.choice(list("abcd"), size=200).tolist()
    y = (rng.random(200) + np.array([ord(l) * 0.01 for l in levels])).tolist()
    table = FactorTable(factors={"f": levels}, response=y)
    got = variance_explained(table, "f")
    grand = sum(y) / len(y)
    ss_total = sum((v - grand) ** 2 for v in y)
    ss_between = 0.0
    for lev in set(levels):
        grp = [v for v, l in zip(y, levels) if l == lev]
        gm = sum(grp) / len(grp)
        ss_between += len(grp) * (gm - grand) ** 2
    assert got == pytest.approx(ss_between / ss_total, abs=1e-12)


def test_eta_squared_affine_invariance():
    rng = np.random.default_rng(8)
    levels = rng.choice(["x", "y", "z"], size=60).tolist()
    y = rng.random(60)
    t1 = FactorTable(factors={"f": levels}, response=y.tolist())
    t2 = FactorTable(factors={"f": levels}, response=(3.5 * y - 11.0).tolist())
    a = variance_explained(t1, "f")
    b = variance_explained(t2, "f")
    assert 0.0 <= a <= 1.0
    assert a == pytest.approx(b, abs=1e-12)


def test_eta_squared_small_level_excluded_with_warning():
    table = FactorTable(
        factors={"f": ["a", "a", "b", "b", "c"]},
        response=[1.0, 2.0, 3.0, 4.0, 99.0],
    )
    with pytest.warns(UserWarning, match="excluded"):
        val = variance_explained(table, "f")
    assert 0.0 <= val <= 1.0


def test_eta_squared_single_level_rejected():
    table = FactorTable(factors={"f": ["a", "a", "a"]}, response=[1.0, 2.0, 3.0])
    with pytest.raises(UsageError):
        variance_explained(table, "f")


# --------------------------------------------------------------------------
# OLS and the joint F-test

def planted_fixture(n=99, seed=17, noise=0.05):
    rng = np.random.default_rng(seed)
    X = {
        "enc": rng.random(n),
        "fgt": rng.random(n),
        "first": (rng.random(n) < 0.3).astype(float),
        "const": np.ones(n),
    }
    beta = {"enc": 0.8, "fgt": -0.45, "first": 0.12, "const": 0.05}
    y = sum(beta[k] * X[k] for k in X) + noise * rng.standard_normal(n)
    return y, X, beta


def normal_equations_oracle(y, X):
    names = list(X)
    mat = np.column_stack([X[k] for k in names])
    xtx = mat.T @ mat
    beta = np.linalg.solve(xtx, mat.T @ y)
    resid = y - mat @ beta
    rss = float(resid @ resid)
    sigma2 = rss / (len(y) - len(names))
    ses = np.sqrt(np.diag(sigma2 * np.linalg.inv(xtx)))
    return dict(zip(names, beta)), dict(zip(names, ses)), rss


def test_ols_matches_normal_equations_oracle():
    y, X, _ = planted_fixture()
    fit = ols_fit(y, X)
    o_beta, o_se, o_rss = normal_equations_oracle(y, X)
    for k in X:
        assert fit.coefficients[k] == pytest.approx(o_beta[k], abs=1e-8)
        assert fit.standard_errors[k] == pytest.approx(o_se[k], abs=1e-8)
    assert fit.rss == pytest.approx(o_rss, abs=1e-8)
    assert fit.n == 99 and fit.k == 4


def test_ols_residuals_orthogonal_to_design():
    y, X, _ = planted_fixture(seed=23)
    fit = ols_fit(y, X)
    mat = np.column_stack(list(X.values()))
    beta = np.array([fit.coefficients[k] for k in X])
    resid = y - mat @ beta
    assert np.abs(mat.T @ resid).max() < 1e-10


def test_ols_perfect_fit():
    rng = np.random.default_rng(5)
    X = {"a": rng.random(20), "const": np.ones(20)}
    y = 2.0 * X["a"] + 1.0
    fit = ols_fit(y, X)
    assert fit.r_squared == pytest.approx(1.0)
    assert fit.coefficients["a"] == pytest.approx(2.0, abs=1e-10)
    restricted = ols_fit(y, {"const": np.ones(20)})
    f, p = joint_f_test(fit, restricted, q=1)
    assert math.isinf(f) and p == 0.0


def test_rank_deficiency_names_columns():
    rng = np.random.default_rng(9)
    a = rng.random(30)
    X = {"a": a, "b": 2 * a, "c": rng.random(30), "const": np.ones(30)}
    with pytest.raises(UsageError) as exc:
        ols_fit(rng.random(30), X)
    msg = str(exc.value)
    assert "'a'" in msg and "'b'" in msg and "'c'" not in msg


def test_f_test_restricted_equals_full():
    y, X, _ = planted_fixture(seed=31)
    fit = ols_fit(y, X)
    f, p = joint_f_test(fit, fit, q=2)
    assert f == 0.0
    assert p == 1.0


def test_joint_f_against_quadrature_oracle():
    # large noise keeps F moderate, where the 1 - integral oracle is accurate
    y, X, _ = planted_fixture(seed=11, noise=1.5)
    full = ols_fit(y, X)
    restricted = ols_fit(y, {"const": X["const"]})
    q = 3
    f, p = joint_f_test(full, restricted, q)
    o_f = ((restricted.rss - full.rss) / q) / (full.rss / (full.n - full.k))
    assert f == pytest.approx(o_f, rel=1e-12)
    assert 1e-4 < p < 0.999
    assert p == pytest.approx(f_tail_oracle(f, q, full.n - full.k), abs=1e-6)


@pytest.mark.parametrize("f,d1,d2", [(0.7, 2, 10), (2.5, 5, 94), (4.07, 5, 45)])
def test_f_upper_tail_matches_quadrature(f, d1, d2):
    assert f_upper_tail(f, d1, d2) == pytest.approx(
        f_tail_oracle(f, d1, d2), abs=1e-6
    )
