"""Acceptance criteria, one test per criterion.

Criteria 1, 5, 6 and 7 share a single 5-seed suffix-family grid on the
MiniCNN-6 watermark setting (the expensive fixture, marked `slow`); the rest
run on small dedicated fixtures. Each test prints a PASS line on success so
`pytest -s tests/test_acceptance.py` reads as a checklist.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import make_paired, mlp4_spec, net_bytes, quick_plan, watermark_task
from test_gradcheck import check_one_net
from test_stats import (
    f_tail_oracle,
    normal_equations_oracle,
    planted_fixture,
    t_tail_oracle,
)

from sscope.counterfact import InterventionSet, train_family, train_pair, train_single
from sscope.expcli.config import ExperimentConfig
from sscope.expcli.runner import (
    contribution_rows,
    localization_profiles,
    run_grid,
)
from sscope.expcli.store import ResultsStore
from sscope.interventions import (
    InterventionKind,
    TargetBlocks,
    build_mitigation_regression,
    freeze_protocol,
    retrain_with_intervention,
)
from sscope.metrics import LocalizationProfile
from sscope.stats import (
    f_upper_tail,
    joint_f_test,
    mean_se,
    ols_fit,
    student_t_cdf,
    t_test,
    variance_explained,
    FactorTable,
)

SEEDS = (0, 1, 2, 3, 4)


def ok(criterion, message):
    print(f"[criterion {criterion:>2}] PASS: {message}")


@pytest.fixture(scope="session")
def family_store(tmp_path_factory):
    """The shared 5-seed suffix-family grid on MiniCNN-6 (watermark, common)."""
    out = tmp_path_factory.mktemp("acceptance")
    config = ExperimentConfig.from_dict(
        dict(
            task="bars16",
            skew={"kind": "watermark", "strength": "strong", "frequency": "common"},
            net="minicnn6",
            optimizer="adamw",
            family="suffix",
            seeds=list(SEEDS),
            steps=1000,
            batch_size=32,
            train_n=4096,
            test_n=1024,
            master_seed=0,
            out=str(out),
            workers=2,
        )
    )
    store = ResultsStore(config.out)
    run_grid(config, store, kind="family", log=lambda *_: None)
    return config, store.load()


def _by_role_set(records):
    return {(r.trial_id, r.role, r.set): r for r in records}


@pytest.mark.slow
def test_criterion_01_decomposition_identities(family_store):
    _, records = family_store
    rows = contribution_rows(records)
    m = 6
    assert len(rows) == len(SEEDS) * m  # suffix sets 0:6 .. 5:6 per seed
    for _, _, rec, _ in rows:
        assert rec.enc_complement + rec.uut == rec.gap
        assert rec.amp + rec.fgt_complement == rec.gap
    ok(1, f"enc+uut == gap == amp+fgt exactly on {len(rows)} records")


def test_criterion_02_degenerate_equivalences():
    spec = mlp4_spec()
    pd = make_paired(watermark_task(), n=512, seed=91)
    plan = quick_plan(steps=2000, batch_size=32, master_seed=7)
    empty = train_pair(spec, pd, plan, "clean", InterventionSet.empty(spec.m))
    assert net_bytes(empty.nets["clean", "{}"]) == net_bytes(empty.nets["clean"])
    full = InterventionSet.full(spec.m)
    pair = train_pair(spec, pd, plan, "clean", full)
    direct = train_single(spec, pd, plan, "skewed")
    assert net_bytes(pair.nets["clean", full.canonical()]) == net_bytes(direct)
    ok(2, "A={} matches anchor and A=[m] matches a direct skewed run, bit-exact")


def test_criterion_03_sync_invariant_debug_mode():
    spec = mlp4_spec()
    pd = make_paired(watermark_task(), n=256, seed=92)
    plan = quick_plan(steps=500, batch_size=16, master_seed=9)
    out = train_pair(
        spec, pd, plan, "clean", InterventionSet.suffix(spec.m, 2), debug_sync=True
    )
    for b in (0, 1):
        assert (out.nets["clean", "2:4"].block_bytes(b)
                == out.nets["clean"].block_bytes(b))
    ok(3, "500-step debug-sync run: zero shared-block violations")


def test_criterion_04_gradient_oracle():
    worst = 0.0
    for seed in range(100):
        worst = max(worst, check_one_net(seed))
    assert worst < 1e-4
    ok(4, f"100 random nets vs central differences, worst rel err {worst:.2e}")


@pytest.mark.slow
def test_criterion_05_shortcut_emergence(family_store):
    _, records = family_store
    idx = _by_role_set(records)
    trials = sorted({r.trial_id for r in records})
    diffs = []
    for tid in trials:
        ec = idx[(tid, "clean_anchor", "")]
        es = idx[(tid, "skewed_anchor", "")]
        diffs.append(
            es.err_clean_num / es.err_clean_den - ec.err_clean_num / ec.err_clean_den
        )
    mean_diff, _ = mean_se(diffs)
    assert mean_diff >= 0.05
    res = t_test(diffs, null_value=0.0, sidedness="greater")
    assert res.reject_at_5pct
    ok(5, f"skewed - clean error: mean {mean_diff * 100:.1f}pp, "
          f"t={res.t_stat:.1f}, p={res.p_value:.2e}")


@pytest.mark.slow
def test_criterion_06_fully_skewed_monotonic_trend(family_store):
    _, records = family_store
    idx = _by_role_set(records)
    trials = sorted({r.trial_id for r in records})
    m = 6
    per_i = []
    for i in range(m + 1):
        vals = []
        for tid in trials:
            if i == m:
                rec = idx[(tid, "clean_anchor", "")]
            else:
                rec = idx[(tid, "intervened_c", f"{i}:{m}")]
            vals.append(rec.err_skewfull_num / rec.err_skewfull_den)
        per_i.append(mean_se(vals))
    soft = 0
    for i in range(m):
        (mu_a, se_a), (mu_b, se_b) = per_i[i], per_i[i + 1]
        if mu_b < mu_a:
            drop = mu_a - mu_b
            assert drop <= math.sqrt(se_a**2 + se_b**2), (
                f"inversion beyond 1 SE at i={i}: {mu_a:.4f} -> {mu_b:.4f}"
            )
            soft += 1
    assert soft <= 1, f"{soft} inversions (allowed: one within 1 SE)"
    trend = " ".join(f"{mu:.3f}" for mu, _ in per_i)
    ok(6, f"fully-skewed error over i=0..{m}: {trend} ({soft} soft inversions)")


@pytest.mark.slow
def test_criterion_07_telescoping(family_store):
    _, records = family_store
    profiles = localization_profiles(records)
    assert profiles, "no complete suffix families above the gap floor"
    by_trial = {}
    for tid, _, rec, _ in contribution_rows(records):
        by_trial.setdefault(tid, {})[len(rec.A.members)] = rec
    checked = 0
    for tid, (_, prof) in profiles.items():
        m = prof.m
        acc_enc = Fraction(0)
        acc_fgt = Fraction(0)
        for b in range(m):
            acc_enc += prof.enc_rates[b]
            acc_fgt += prof.fgt_rates[b]
            suffix_rec = by_trial[tid].get(m - (b + 1))
            if suffix_rec is None:  # the empty set's record lives in the anchors
                continue
            assert acc_enc == suffix_rec.enc_complement / prof.gap
            assert acc_fgt == suffix_rec.fgt_complement / prof.gap
            checked += 1
        assert acc_enc == 1 and acc_fgt == 1
    assert checked
    ok(7, f"rates re-integrate exactly to cumulative contributions "
          f"({len(profiles)} profiles, {checked} checkpoints)")


def test_criterion_08_statistics_oracles():
    # mean/SE
    mean, se = mean_se([0.0, 2.0])
    assert (mean, se) == (1.0, 1.0)
    # eta squared vs brute force
    rng = np.random.default_rng(4)
    levels = rng.choice(list("abc"), size=120).tolist()
    y = (rng.random(120) + [0.3 * (ord(l) - 97) for l in levels]).tolist()
    table = FactorTable(factors={"f": levels}, response=y)
    got = variance_explained(table, "f")
    grand = sum(y) / len(y)
    ss_t = sum((v - grand) ** 2 for v in y)
    ss_b = sum(
        len([v for v, l2 in zip(y, levels) if l2 == l])
        * ((sum(v for v, l2 in zip(y, levels) if l2 == l)
            / len([v for v, l2 in zip(y, levels) if l2 == l])) - grand) ** 2
        for l in set(levels)
    )
    assert abs(got - ss_b / ss_t) < 1e-8
    # OLS coefficients/SEs vs normal equations
    yy, X, _ = planted_fixture(n=99, seed=17)
    fit = ols_fit(yy, X)
    o_beta, o_se, o_rss = normal_equations_oracle(yy, X)
    for k in X:
        assert abs(fit.coefficients[k] - o_beta[k]) < 1e-8
        assert abs(fit.standard_errors[k] - o_se[k]) < 1e-8
    # joint F on a moderate-signal fixture
    yy2, X2, _ = planted_fixture(n=99, seed=11, noise=1.5)
    full = ols_fit(yy2, X2)
    restricted = ols_fit(yy2, {"const": X2["const"]})
    f, p = joint_f_test(full, restricted, q=3)
    assert abs(p - f_tail_oracle(f, 3, full.n - full.k)) < 1e-6
    # t and F tail probabilities vs quadrature
    for t, df in ((2.132, 4), (1.0, 9)):
        assert abs((1 - student_t_cdf(t, df)) - t_tail_oracle(t, df)) < 1e-6
    assert abs(f_upper_tail(4.07, 5, 45) - f_tail_oracle(4.07, 5, 45)) < 1e-6
    ok(8, "mean/SE, eta^2, OLS, joint F, and t/F tails match oracles")


def test_criterion_09_intervention_noop_and_freeze():
    spec = mlp4_spec()
    task = watermark_task()
    pd = make_paired(task, n=512, seed=93)
    plan = quick_plan(steps=600, batch_size=32, master_seed=21)
    noop = retrain_with_intervention(InterventionKind("lr_scale", 1.0),
                                     TargetBlocks((1,)), spec.m)
    # the engine raises unless the frozen blocks keep their phase-3 bytes
    freeze = freeze_protocol(spec.m, plan.steps, keep_block=2)  # 30-step phases
    fam = train_family(
        spec, pd, plan, [], retrainings={"noop": noop, "freeze": freeze},
    )
    anchor = train_single(spec, pd, plan, "skewed")
    assert net_bytes(fam.nets["skewed"]) == net_bytes(anchor)
    assert net_bytes(fam.nets["retrained", "noop"]) == net_bytes(anchor)
    assert net_bytes(fam.nets["retrained", "freeze"]) != net_bytes(anchor)
    ok(9, "factor-1 retraining is byte-identical to the skewed anchor; "
          "freeze contract verified byte-wise")


def test_criterion_10_regression_pipeline_end_to_end():
    rng = np.random.default_rng(123)
    beta = {"enc": 0.5, "fgt": -0.25, "enc_x_fgt": 0.15, "enc_sq": 0.08,
            "fgt_sq": -0.05, "first": 0.03, "last": -0.06, "double": 0.01,
            "const": 0.2}
    m = 6
    profiles, rows = {}, []
    for s in range(50):
        enc = tuple(Fraction(int(v), 1000) for v in rng.integers(-150, 450, size=m))
        fgt = tuple(Fraction(int(v), 1000) for v in rng.integers(-150, 450, size=m))
        profiles[s] = LocalizationProfile(enc, fgt, Fraction(1, 4))
        for tgt in (TargetBlocks((int(rng.integers(0, m)),)),
                    TargetBlocks((1, 2)), TargetBlocks((4, 5))):
            e = float(sum(profiles[s].enc_rates[b] for b in tgt.blocks))
            f = float(sum(profiles[s].fgt_rates[b] for b in tgt.blocks))
            extent = (beta["enc"] * e + beta["fgt"] * f
                      + beta["enc_x_fgt"] * e * f + beta["enc_sq"] * e * e
                      + beta["fgt_sq"] * f * f
                      + beta["first"] * tgt.includes_first()
                      + beta["last"] * tgt.includes_last(m)
                      + beta["double"] * tgt.is_double + beta["const"])
            rows.append((s, tgt, extent))
    y, X = build_mitigation_regression(profiles, rows)
    fit = ols_fit(y, X)
    worst = max(abs(fit.coefficients[k] - beta[k]) for k in beta)
    assert worst < 1e-6
    ok(10, f"planted mitigation relationship recovered, worst coef err {worst:.1e}")
