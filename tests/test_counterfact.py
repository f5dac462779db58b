from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import mlp4_spec, net_bytes, quick_plan, watermark_task
from sscope import counterfact as cf
from sscope import netcore as nc
from sscope import skewlab as sl
from sscope.counterfact import (
    InterventionSet,
    train_family,
    train_pair,
    train_single,
)
from sscope.errors import UsageError
from sscope.expcli.presets import net_spec, task_spec
from sscope.interventions import freeze_protocol
from sscope.rng import subseed
from test_optim import PerKeyOptimizer


def test_intervention_set_constructors():
    m = 6
    assert InterventionSet.suffix(m, 0) == InterventionSet.full(m)
    assert InterventionSet.suffix(m, m) == InterventionSet.empty(m)
    assert InterventionSet.single_complement(m, 2).sorted() == [0, 1, 3, 4, 5]
    with pytest.raises(UsageError):
        InterventionSet(m, frozenset({7}))


def test_intervention_set_canonical_roundtrip():
    m = 6
    cases = [
        InterventionSet.empty(m),
        InterventionSet.full(m),
        InterventionSet.suffix(m, 2),
        InterventionSet.single_complement(m, 3),
        InterventionSet(m, frozenset({0, 2})),
    ]
    assert [a.canonical() for a in cases] == ["{}", "0:6", "2:6", "-{3}", "{0,2}"]
    for a in cases:
        assert InterventionSet.parse(a.canonical(), m) == a


@given(st.integers(1, 8).flatmap(
    lambda m: st.tuples(st.just(m), st.frozensets(st.integers(0, m - 1)))))
def test_parse_inverts_canonical_for_any_set(case):
    m, members = case
    A = InterventionSet(m, members)
    assert InterventionSet.parse(A.canonical(), m) == A


@pytest.mark.parametrize("text", ["{ }", "{0,,1}", "-{x}", "a:6", "1:2:6",
                                  ":6", "{1_0}", "-{1,2}", "2:5"])
def test_intervention_set_parse_rejects_malformed(text):
    with pytest.raises(UsageError):
        InterventionSet.parse(text, 6)


def test_empty_set_reproduces_anchor(small_paired):
    spec = mlp4_spec()
    plan = quick_plan("clean", steps=40)
    out = train_pair(spec, small_paired, plan, InterventionSet.empty(spec.m))
    assert net_bytes(out.intervened) == net_bytes(out.anchor)


def test_full_set_reproduces_direct_opposite_run(small_paired):
    spec = mlp4_spec()
    plan = quick_plan("clean", steps=40, master_seed=3)
    out = train_pair(spec, small_paired, plan, InterventionSet.full(spec.m))
    direct = train_single(
        spec, small_paired, quick_plan("skewed", steps=40, master_seed=3)
    )
    assert net_bytes(out.intervened) == net_bytes(direct)


def test_suffix_set_sync_contract(small_paired):
    spec = mlp4_spec()
    plan = quick_plan("clean", steps=30, master_seed=5)
    A = InterventionSet.suffix(spec.m, 2)
    out = train_pair(spec, small_paired, plan, A, debug_sync=True)
    for b in (0, 1):
        assert out.intervened.block_bytes(b) == out.anchor.block_bytes(b)
    assert any(
        out.intervened.block_bytes(b) != out.anchor.block_bytes(b) for b in (2, 3)
    )


def test_pair_outcome_deterministic(small_paired):
    spec = mlp4_spec()
    A = InterventionSet.single_complement(spec.m, 1)
    runs = [
        train_pair(spec, small_paired, quick_plan("clean", steps=25, master_seed=9), A)
        for _ in range(2)
    ]
    assert net_bytes(runs[0].intervened) == net_bytes(runs[1].intervened)
    assert net_bytes(runs[0].anchor) == net_bytes(runs[1].anchor)


def test_skewed_anchor_direction(small_paired):
    # mirrored direction: anchor on skewed data, partner consumes clean batches
    spec = mlp4_spec()
    plan = quick_plan("skewed", steps=30, master_seed=4)
    out = train_pair(spec, small_paired, plan, InterventionSet.full(spec.m))
    direct_clean = train_single(
        spec, small_paired, quick_plan("clean", steps=30, master_seed=4)
    )
    assert net_bytes(out.intervened) == net_bytes(direct_clean)


def test_family_anchors_match_pair_and_counts(small_paired):
    spec = mlp4_spec()
    m = spec.m
    steps = 24
    sets = [InterventionSet.suffix(m, i) for i in range(m + 1)]
    fam = train_family(
        spec,
        small_paired,
        quick_plan("clean", steps=steps, master_seed=7),
        quick_plan("skewed", steps=steps, master_seed=7),
        sets,
    )
    pair = train_pair(
        spec,
        small_paired,
        quick_plan("clean", steps=steps, master_seed=7),
        InterventionSet.empty(m),
    )
    assert net_bytes(fam.anchors["clean"]) == net_bytes(pair.anchor)
    # anchors train exactly once, for exactly `steps` updates
    assert fam.update_counts["anchor:clean"] == steps
    assert fam.update_counts["anchor:skewed"] == steps
    anchor_count = sum(1 for k in fam.update_counts if k.startswith("anchor:"))
    assert anchor_count == 2
    # empty-set partners never update
    assert fam.update_counts["intervened:clean:{}"] == 0


def test_family_full_set_crosses_to_other_anchor(small_paired):
    spec = mlp4_spec()
    fam = train_family(
        spec,
        small_paired,
        quick_plan("clean", steps=30, master_seed=11),
        quick_plan("skewed", steps=30, master_seed=11),
        [InterventionSet.full(spec.m)],
    )
    key = InterventionSet.full(spec.m).canonical()
    assert net_bytes(fam.intervened[("clean", key)]) == net_bytes(
        fam.anchors["skewed"]
    )
    assert net_bytes(fam.intervened[("skewed", key)]) == net_bytes(
        fam.anchors["clean"]
    )


def test_family_empty_set_returns_trivial_copies(small_paired):
    spec = mlp4_spec()
    fam = train_family(
        spec,
        small_paired,
        quick_plan("clean", steps=20, master_seed=2),
        quick_plan("skewed", steps=20, master_seed=2),
        [InterventionSet.empty(spec.m)],
    )
    assert net_bytes(fam.intervened[("clean", "{}")]) == net_bytes(
        fam.anchors["clean"]
    )
    assert net_bytes(fam.intervened[("skewed", "{}")]) == net_bytes(
        fam.anchors["skewed"]
    )


def test_family_requires_mirror_image_plans(small_paired):
    spec = mlp4_spec()
    with pytest.raises(UsageError, match="master_seed"):
        train_family(
            spec,
            small_paired,
            quick_plan("clean", steps=20, master_seed=1),
            quick_plan("skewed", steps=20, master_seed=2),
            [],
        )


def test_mismatched_m_rejected(small_paired):
    spec = mlp4_spec()
    with pytest.raises(UsageError, match="m="):
        train_pair(
            spec, small_paired, quick_plan("clean"), InterventionSet.empty(5)
        )


def test_warmstart_shares_initial_weights(small_paired):
    spec = mlp4_spec()
    donor = nc.build_net(spec, seed=404)
    plan = quick_plan("clean", steps=1, master_seed=6)
    out = train_pair(
        spec, small_paired, plan, InterventionSet.empty(spec.m), init_from=donor
    )
    # one step from the donor weights, not from the seed-derived init
    fresh = nc.build_net(spec, seed=plan.master_seed)
    assert net_bytes(out.anchor) != net_bytes(fresh)


# --------------------------------------------------------------------------
# the engine against a slow reference loop

def reference_lockstep(pd, plan, init, members, phases=None):
    """Lockstep training spelled out the slow way: every computing trainee
    runs a full forward and backward pass on its own net and steps the
    blocks it updates, then each partner copies all other blocks from its
    anchor. members maps a name to (data role, update blocks, anchor name
    or None); phases(t), if given, replaces every update set at step t.
    Updates go through the per-key reference optimizer.
    """
    nets = {name: init.copy() for name in members}
    opts = {name: PerKeyOptimizer(plan.optimizer, plan.schedule) for name in members}
    t = epoch = 0
    while t < plan.steps:
        eseed = subseed(plan.master_seed, "shuffle", epoch)
        for batch in sl.paired_batches(pd, plan.batch_size, eseed):
            if t >= plan.steps:
                break
            views = {"clean": batch.clean_x, "skewed": batch.skew_x}
            blocks = {name: phases(t) if phases else upd
                      for name, (_, upd, _) in members.items()}
            grads = {name: nc.loss_and_grad(nets[name], views[role], batch.labels)[1]
                     for name, (role, _, _) in members.items() if blocks[name]}
            for name, g in grads.items():
                keys = [k for b in blocks[name] for k in nets[name].block_keys(b)]
                opts[name].step({k: nets[name].params[k] for k in keys},
                                {k: g[k] for k in keys}, t)
            for name, (_, upd, anchor) in members.items():
                if anchor is not None:
                    rest = [b for b in range(init.m) if b not in upd]
                    nc.sync_blocks(nets[name], nets[anchor], rest)
            t += 1
        epoch += 1
    return nets


def small_cnn_spec():
    return nc.NetSpec(
        [
            [nc.Conv2d(1, 4, 3, pad=1), nc.ReLU(), nc.MaxPool(2)],
            [nc.Conv2d(4, 4, 3, pad=1), nc.ReLU(), nc.MaxPool(2)],
            [nc.Conv2d(4, 8, 3, pad=1), nc.ReLU()],
            [nc.GlobalAvgPool(), nc.Dense(8, 8)],
        ],
        8,
        (1, 16, 16),
    ).validate()


@pytest.mark.parametrize("spec_fn, sets", [
    (small_cnn_spec, lambda m: [InterventionSet.suffix(m, i) for i in range(m + 1)]),
    (mlp4_spec, lambda m: [InterventionSet.single_complement(m, i) for i in range(m)]),
    (mlp4_spec, lambda m: [InterventionSet(m, {0, 2}), InterventionSet(m, {1, 3}),
                           InterventionSet.full(m)]),
], ids=["cnn-suffix", "mlp-single", "mlp-explicit"])
def test_family_matches_reference_loop(small_paired, spec_fn, sets):
    spec = spec_fn()
    sets = sets(spec.m)
    plan = quick_plan("clean", steps=12, master_seed=13)
    fam = train_family(spec, small_paired, plan,
                       quick_plan("skewed", steps=12, master_seed=13), sets)
    members = {f"anchor:{r}": (r, list(range(spec.m)), None) for r in cf.ROLES}
    for A in sets:
        for r in cf.ROLES:
            members[f"intervened:{r}:{A.canonical()}"] = (
                cf._other_role(r), A.sorted(), f"anchor:{r}")
    ref = reference_lockstep(small_paired, plan, nc.build_net(spec, seed=13), members)
    for r in cf.ROLES:
        assert net_bytes(fam.anchors[r]) == net_bytes(ref[f"anchor:{r}"])
        for A in sets:
            key = A.canonical()
            got = fam.intervened[(r, key)]
            assert net_bytes(got) == net_bytes(ref[f"intervened:{r}:{key}"]), key
            # partners own their arrays once training is over
            assert not np.shares_memory(got.flat, fam.anchors[r].flat)
            assert all(np.shares_memory(v, got.flat) for v in got.params.values())


FAMILIES = {
    "suffix": lambda m: [InterventionSet.suffix(m, i) for i in range(m + 1)],
    "single": lambda m: [InterventionSet.single_complement(m, i) for i in range(m)],
    "explicit": lambda m: [InterventionSet(m, {0, 2}), InterventionSet(m, {1, 3}),
                           InterventionSet.full(m)],
    "anchors-only": lambda m: [],
}


def minicnn6_spec():
    return net_spec("minicnn6", task_spec("bars16", None))


def check_family_evaluation(pd, spec, sets, dtype, n, batch_size, monkeypatch):
    """evaluate_family must score each net once per view, from block m - 1
    for an anchor and min(A) for a partner, and match a plain evaluate."""
    fam = train_family(spec, pd, quick_plan("clean", steps=12),
                       quick_plan("skewed", steps=12), sets, dtype=dtype)
    test_clean = sl.gen_clean_synthetic(watermark_task(), n, seed=5)
    views = (test_clean, sl.make_fully_skewed(test_clean, watermark_task().watermark))
    starts = []

    def counted(net, pixels, labels, batch_size, start):
        starts.append(start)
        return nc.evaluate(net, pixels, labels, batch_size, start=start)

    monkeypatch.setattr(cf, "evaluate", counted)
    reports = cf.evaluate_family(fam, views, batch_size)
    nets = dict(fam.anchors)
    want_starts = [spec.m - 1] * 2
    for A in sets:
        if not A.is_empty:
            for role in cf.ROLES:
                nets[(role, A.canonical())] = fam.intervened[(role, A.canonical())]
                want_starts.append(min(A.members))
    assert reports.keys() == nets.keys()
    assert sorted(starts) == sorted(want_starts * len(views))
    for name, net in nets.items():
        for got, view in zip(reports[name], views, strict=True):
            plain = nc.evaluate(net, view, batch_size=batch_size)
            assert (got.mispredictions, got.n_examples, got.loss_mean) == (
                plain.mispredictions, plain.n_examples, plain.loss_mean), name


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("spec_fn", [small_cnn_spec, mlp4_spec])
def test_family_evaluation_matches_plain_evaluate(small_paired, spec_fn, family,
                                                  dtype, monkeypatch):
    # above 512 images, with a ragged last chunk
    spec = spec_fn()
    check_family_evaluation(small_paired, spec, FAMILIES[family](spec.m), dtype,
                            n=700, batch_size=512, monkeypatch=monkeypatch)


def test_family_evaluation_follows_evaluate_chunks(small_paired, monkeypatch):
    # at 16-image chunks MiniCNN-6's logits depend on the chunking, so the
    # shared activations must be computed in evaluate's own chunks
    spec = minicnn6_spec()
    check_family_evaluation(small_paired, spec, FAMILIES["suffix"](spec.m),
                            np.float32, n=200, batch_size=16,
                            monkeypatch=monkeypatch)


def test_freeze_protocol_matches_reference_loop(small_paired):
    spec = small_cnn_spec()
    plan = quick_plan("skewed", steps=14, master_seed=17)
    test_clean = sl.gen_clean_synthetic(watermark_task(), 32, seed=3)
    res = freeze_protocol(spec, small_paired, plan, keep_block=2,
                          clean_test=test_clean, err_c=Fraction(1, 10),
                          err_s=Fraction(4, 10), t1=3, t2=3)
    m = spec.m

    def phases(t):
        return [m - 1] if t < 3 else list(range(m)) if t < 6 else [2]

    ref = reference_lockstep(small_paired, plan, nc.build_net(spec, seed=17),
                             {"anchor": ("skewed", None, None)}, phases)
    assert net_bytes(res.network) == net_bytes(ref["anchor"])


def test_debug_sync_catches_a_perturbed_prefix(small_paired, monkeypatch):
    spec = mlp4_spec()
    A = InterventionSet.suffix(spec.m, 2)
    entering = cf._Prefix.entering
    served = []

    def perturbed(self, s):
        x = entering(self, s)
        if s == 2:  # the partner's shared prefix, once per step
            served.append(s)
            if len(served) == 6:  # step 5
                x = x.copy()
                x.flat[0] += 1.0
        return x

    monkeypatch.setattr(cf._Prefix, "entering", perturbed)
    plan = quick_plan("clean", steps=10, master_seed=5)
    train_pair(spec, small_paired, plan, A)  # unchecked, the change slips by
    served.clear()
    with pytest.raises(AssertionError, match="step 5"):
        train_pair(spec, small_paired, plan, A, debug_sync=True)
