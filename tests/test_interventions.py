from fractions import Fraction

import numpy as np
import pytest

from conftest import make_paired, mlp4_spec, net_bytes, quick_plan, watermark_task
from sscope import netcore as nc
from sscope.counterfact import Retraining, train_family, train_single
from sscope.errors import ConfigError, UsageError
from sscope.interventions import (
    LR_UP,
    WD_DOWN,
    InterventionKind,
    TargetBlocks,
    build_mitigation_regression,
    freeze_protocol,
    mitigation_extent,
    retrain_with_intervention,
)
from sscope.metrics import LocalizationProfile
from sscope.optim import Optimizer
from sscope.stats import ols_fit
from test_counterfact import reference_lockstep

F = Fraction


@pytest.fixture(scope="module")
def paired():
    return make_paired(watermark_task(), n=128, seed=33)


def retrain(spec, pd, steps, master_seed, **retrainings):
    """A family of the two anchors and the named retrainings."""
    return train_family(spec, pd, quick_plan(steps, master_seed=master_seed), [],
                        retrainings=retrainings)


def test_target_validation():
    TargetBlocks((1,)).validate(4)
    TargetBlocks((2, 3)).validate(4)
    with pytest.raises(UsageError):
        TargetBlocks((1, 3)).validate(4)
    with pytest.raises(UsageError):
        TargetBlocks((5,)).validate(4)
    with pytest.raises(UsageError):
        InterventionKind("momentum", 2.0)
    with pytest.raises(UsageError, match="freeze_protocol"):
        retrain_with_intervention(InterventionKind("freeze"), TargetBlocks((1,)), 4)


def test_identity_intervention_reproduces_anchor(paired):
    spec = mlp4_spec()
    noop = retrain_with_intervention(InterventionKind("lr_scale", 1.0),
                                     TargetBlocks((2,)), spec.m)
    assert noop == Retraining(lr_scales={2: 1.0})
    fam = retrain(spec, paired, 30, 12, noop=noop)
    direct = train_single(spec, paired, quick_plan(steps=30, master_seed=12),
                          "skewed")
    assert net_bytes(fam.nets["retrained", "noop"]) == net_bytes(fam.nets["skewed"])
    assert net_bytes(fam.nets["retrained", "noop"]) == net_bytes(direct)
    # a warm start is the shared init of the retrainings too
    donor = nc.build_net(spec, seed=404)
    warm = train_family(spec, paired, quick_plan(30, master_seed=12), [],
                        init_from=donor, retrainings={"noop": noop})
    assert net_bytes(warm.nets["retrained", "noop"]) == net_bytes(warm.nets["skewed"])
    assert net_bytes(warm.nets["retrained", "noop"]) != net_bytes(direct)


def test_intervened_run_differs_and_is_deterministic(paired):
    spec = mlp4_spec()
    up = retrain_with_intervention(LR_UP, TargetBlocks((3,)), spec.m)
    runs = [retrain(spec, paired, 30, 12, up=up) for _ in range(2)]
    first, again = (net_bytes(run.nets["retrained", "up"]) for run in runs)
    assert first != net_bytes(runs[0].nets["skewed"])
    assert first == again


def test_extent_endpoints():
    # intervened at the clean anchor's accuracy -> extent 1; at the skewed -> 0
    assert mitigation_extent(F(1, 10), F(1, 10), F(3, 10)) == pytest.approx(1.0)
    assert mitigation_extent(F(3, 10), F(1, 10), F(3, 10)) == pytest.approx(0.0)


def test_extent_invariant_under_error_accuracy_exchange():
    err_i, err_c, err_s = F(17, 100), F(8, 100), F(33, 100)
    direct = mitigation_extent(err_i, err_c, err_s)
    acc = (
        ((1 - err_i) - (1 - err_s)) / ((1 - err_c) - (1 - err_s))
    )
    assert direct == pytest.approx(float(acc))


def test_extent_undefined_below_gap_floor():
    assert mitigation_extent(F(1, 10), F(1, 10), F(1, 10) + F(1, 1000)) is None


def test_wd_intervention_runs(paired):
    spec = mlp4_spec()
    down = retrain_with_intervention(WD_DOWN, TargetBlocks((0, 1)), spec.m)
    assert down == Retraining(wd_scales={0: 0.1, 1: 0.1})
    fam = retrain(spec, paired, 20, 8, down=down)
    assert net_bytes(fam.nets["retrained", "down"]) != net_bytes(fam.nets["skewed"])


def test_freeze_protocol_contract(paired):
    # external oracle: capture the blocks' bytes as the optimizer is about to
    # take the first phase-3 step, require the final network to still hold
    # exactly those bytes outside the kept block, and replay the three phases
    # with the slow reference loop
    spec = mlp4_spec()
    plan = quick_plan(steps=40, master_seed=15)
    t = 2  # 5% of 40 steps
    keep = spec.m - 1
    freeze = freeze_protocol(spec.m, plan.steps, keep)
    assert freeze.phases == ((0, (keep,)), (t, (0, 1, 2, 3)), (2 * t, (keep,)))
    snapshot = {}
    step = Optimizer.step

    def watched(self, net, grads, blocks, step_t):
        if step_t == 2 * t and tuple(blocks) == (keep,):
            snapshot.update({b: net.block_bytes(b) for b in range(spec.m)})
        return step(self, net, grads, blocks, step_t)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Optimizer, "step", watched)
        fam = retrain(spec, paired, plan.steps, 15, freeze=freeze)
    got = fam.nets["retrained", "freeze"]
    for b in range(spec.m):
        if b != keep:
            assert got.block_bytes(b) == snapshot[b]
    assert got.block_bytes(keep) != snapshot[keep]
    ref = reference_lockstep(paired, plan, nc.build_net(spec, seed=15),
                             {"freeze": ("skewed", None, None)}, {"freeze": freeze})
    assert net_bytes(ref["freeze"]) == net_bytes(got)


def test_frozen_block_write_in_last_phase_is_caught(paired):
    spec = mlp4_spec()
    freeze = freeze_protocol(spec.m, 20, keep_block=1)
    step = Optimizer.step

    def leaky(self, net, grads, blocks, t):
        step(self, net, grads, blocks, t)
        if t == 10 and tuple(blocks) == (1,):
            net.params[net.block_keys(2)[0]].flat[0] += 1.0

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Optimizer, "step", leaky)
        with pytest.raises(AssertionError,
                           match="retrained:freeze: frozen block 2 changed"):
            retrain(spec, paired, 20, 16, freeze=freeze)
    retrain(spec, paired, 20, 16, freeze=freeze)  # unpatched, the contract holds


def test_freeze_protocol_deterministic(paired):
    spec = mlp4_spec()
    freeze = freeze_protocol(spec.m, 40, keep_block=1)
    runs = [retrain(spec, paired, 40, 16, a=freeze, b=freeze) for _ in range(2)]
    a = net_bytes(runs[0].nets["retrained", "a"])
    assert net_bytes(runs[1].nets["retrained", "a"]) == a
    assert net_bytes(runs[0].nets["retrained", "b"]) == a


def test_freeze_phase_validation():
    with pytest.raises(ConfigError, match="non-empty"):
        freeze_protocol(4, 10, 0)  # 5% of 10 steps rounds to 0
    with pytest.raises(UsageError, match="keep_block"):
        freeze_protocol(4, 40, 4)
    assert freeze_protocol(4, 11, 2).phases == ((0, (3,)), (1, (0, 1, 2, 3)), (2, (2,)))
    assert freeze_protocol(4, 40, 2).phases == ((0, (3,)), (2, (0, 1, 2, 3)), (4, (2,)))
    # 5% of the steps is rounded half to even: 1.5 -> 2, 2.5 -> 2
    assert freeze_protocol(4, 30, 2).phases[1][0] == 2
    assert freeze_protocol(4, 50, 2).phases[1][0] == 2


def test_regression_dummy_coding():
    prof = LocalizationProfile(
        enc_rates=tuple(F(i, 10) for i in range(6)),
        fgt_rates=tuple(F(1, 20) for _ in range(6)),
        gap=F(1, 5),
    )
    y, X = build_mitigation_regression(
        {"s": prof},
        [
            ("s", TargetBlocks((0,)), 0.3),
            ("s", TargetBlocks((5,)), 0.1),
            ("s", TargetBlocks((2, 3)), 0.7),
        ],
    )
    assert X["first"].tolist() == [1.0, 0.0, 0.0]
    assert X["last"].tolist() == [0.0, 1.0, 0.0]
    assert X["double"].tolist() == [0.0, 0.0, 1.0]
    # double target sums the pair's rates
    assert X["enc"][2] == pytest.approx(0.2 + 0.3)
    assert X["enc_x_fgt"][2] == pytest.approx(0.5 * 0.1)
    assert X["enc_sq"][2] == pytest.approx(0.25)


def test_regression_interaction_arithmetic():
    prof = LocalizationProfile(
        enc_rates=(F(1, 5), F(0)), fgt_rates=(F(1, 2), F(0)), gap=F(1, 5)
    )
    _, X = build_mitigation_regression(
        {"s": prof}, [("s", TargetBlocks((0,)), 0.0)]
    )
    assert X["enc_x_fgt"][0] == pytest.approx(0.10)
    assert X["enc_sq"][0] == pytest.approx(0.04)
    assert X["fgt_sq"][0] == pytest.approx(0.25)


def test_regression_missing_profile():
    with pytest.raises(UsageError, match="no localization profile"):
        build_mitigation_regression({}, [("s", TargetBlocks((0,)), 0.0)])


def test_planted_relationship_recovered_end_to_end():
    rng = np.random.default_rng(77)
    profiles = {}
    rows = []
    beta = {"enc": 0.6, "fgt": -0.3, "enc_x_fgt": 0.2, "enc_sq": 0.05,
            "fgt_sq": -0.1, "first": 0.04, "last": -0.07, "double": 0.02,
            "const": 0.15}
    m = 6
    for s in range(40):
        enc = tuple(F(int(v), 1000) for v in rng.integers(-100, 400, size=m))
        fgt = tuple(F(int(v), 1000) for v in rng.integers(-100, 400, size=m))
        profiles[s] = LocalizationProfile(enc, fgt, F(1, 5))
        targets = [TargetBlocks((int(b),)) for b in rng.integers(0, m, size=2)]
        targets.append(TargetBlocks((2, 3)))
        for tgt in targets:
            e = float(sum(profiles[s].enc_rates[b] for b in tgt.blocks))
            f = float(sum(profiles[s].fgt_rates[b] for b in tgt.blocks))
            extent = (
                beta["enc"] * e + beta["fgt"] * f + beta["enc_x_fgt"] * e * f
                + beta["enc_sq"] * e * e + beta["fgt_sq"] * f * f
                + beta["first"] * tgt.includes_first()
                + beta["last"] * tgt.includes_last(m)
                + beta["double"] * tgt.is_double + beta["const"]
            )
            rows.append((s, tgt, extent))
    y, X = build_mitigation_regression(profiles, rows)
    fit = ols_fit(y, X)
    for name, want in beta.items():
        assert fit.coefficients[name] == pytest.approx(want, abs=1e-6)
