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
from sscope.errors import TrainingDiverged, UsageError
from sscope.expcli.presets import net_spec, task_spec
from sscope.interventions import (
    LR_UP,
    WD_DOWN,
    WD_UP,
    InterventionKind,
    TargetBlocks,
    freeze_protocol,
    retrain_with_intervention,
)
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
    plan = quick_plan(steps=40)
    out = train_pair(spec, small_paired, plan, "clean", InterventionSet.empty(spec.m))
    assert net_bytes(out.nets["clean", "{}"]) == net_bytes(out.nets["clean"])


def test_full_set_reproduces_direct_opposite_run(small_paired):
    spec = mlp4_spec()
    plan = quick_plan(steps=40, master_seed=3)
    full = InterventionSet.full(spec.m)
    out = train_pair(spec, small_paired, plan, "clean", full)
    direct = train_single(spec, small_paired, plan, "skewed")
    assert net_bytes(out.nets["clean", full.canonical()]) == net_bytes(direct)


def test_suffix_set_sync_contract(small_paired):
    spec = mlp4_spec()
    plan = quick_plan(steps=30, master_seed=5)
    A = InterventionSet.suffix(spec.m, 2)
    out = train_pair(spec, small_paired, plan, "clean", A, debug_sync=True)
    anchor, partner = out.nets["clean"], out.nets["clean", A.canonical()]
    for b in (0, 1):
        assert partner.block_bytes(b) == anchor.block_bytes(b)
    assert any(partner.block_bytes(b) != anchor.block_bytes(b) for b in (2, 3))


def test_partner_reads_anchor_arrays_until_sync(small_paired):
    # the plan binds parameter names, not arrays: a partner's forward pass
    # sees its anchor's in-place updates to the shared blocks, and after
    # sync_blocks only its own copies
    spec = mlp4_spec()
    anchor = cf._anchor(nc.build_net(spec, seed=3), "clean")
    partner = cf._partner(anchor, InterventionSet.suffix(spec.m, 2))
    x = small_paired.clean.pixels[:8]
    before = partner.net.forward(x)
    anchor.net.flat[: anchor.net.block_offsets[2]] *= 0.5  # shared blocks 0, 1
    shared = partner.net.forward(x)
    assert shared.tobytes() != before.tobytes()
    assert partner.net.forward(x, 0, 2).tobytes() == anchor.net.forward(x, 0, 2).tobytes()
    nc.sync_blocks(partner.net, anchor.net, [0, 1])
    assert partner.net.forward(x).tobytes() == shared.tobytes()
    anchor.net.flat[:] = 0.0
    assert partner.net.forward(x).tobytes() == shared.tobytes()
    for b in range(spec.m):
        assert all(np.shares_memory(partner.net.params[k], partner.net.flat)
                   for k in partner.net.block_keys(b))


def test_lockstep_optimizers_share_one_work_buffer(small_paired):
    spec = mlp4_spec()
    anchor = cf._anchor(nc.build_net(spec, seed=3), "clean")
    partner = cf._partner(anchor, InterventionSet.suffix(spec.m, 2))
    done = cf._lockstep(small_paired, quick_plan(steps=3), [anchor, partner])
    assert done["clean"].optimizer.work is done["clean", "2:4"].optimizer.work


def test_pair_outcome_deterministic(small_paired):
    spec = mlp4_spec()
    A = InterventionSet.single_complement(spec.m, 1)
    runs = [
        train_pair(spec, small_paired, quick_plan(steps=25, master_seed=9), "clean", A)
        for _ in range(2)
    ]
    for key in ("clean", ("clean", A.canonical())):
        assert net_bytes(runs[0].nets[key]) == net_bytes(runs[1].nets[key])


def test_skewed_anchor_direction(small_paired):
    # mirrored direction: anchor on skewed data, partner consumes clean batches
    spec = mlp4_spec()
    plan = quick_plan(steps=30, master_seed=4)
    full = InterventionSet.full(spec.m)
    out = train_pair(spec, small_paired, plan, "skewed", full)
    direct_clean = train_single(spec, small_paired, plan, "clean")
    assert net_bytes(out.nets["skewed", full.canonical()]) == net_bytes(direct_clean)


def test_family_anchors_match_pair_and_counts(small_paired):
    spec = mlp4_spec()
    m = spec.m
    steps = 24
    sets = [InterventionSet.suffix(m, i) for i in range(m + 1)]
    plan = quick_plan(steps=steps, master_seed=7)
    fam = train_family(spec, small_paired, plan, sets)
    pair = train_pair(spec, small_paired, plan, "clean", InterventionSet.empty(m))
    assert net_bytes(fam.nets["clean"]) == net_bytes(pair.nets["clean"])
    # anchors train exactly once, for exactly `steps` updates
    assert fam.updates["clean"] == steps
    assert fam.updates["skewed"] == steps
    anchor_count = sum(1 for k in fam.updates if k in cf.ROLES)
    assert anchor_count == 2
    # empty-set partners never update
    assert fam.updates["clean", "{}"] == 0


def test_family_full_set_crosses_to_other_anchor(small_paired, monkeypatch):
    # the full-set partner is not trained: it is a copy of the opposite anchor
    spec = mlp4_spec()
    steps = 30
    passes = []

    def counted(net, x, labels, start=0):
        passes.append(start)
        return nc.loss_and_grad(net, x, labels, start=start)

    monkeypatch.setattr(cf, "loss_and_grad", counted)
    key = InterventionSet.full(spec.m).canonical()
    fam = train_family(spec, small_paired, quick_plan(steps=steps, master_seed=11),
                       [InterventionSet.full(spec.m)])
    assert len(passes) == 2 * steps  # the anchors' passes only
    nets = list(fam.nets.values())
    assert len(nets) == 4
    for r in cf.ROLES:
        got = fam.nets[r, key]
        other = cf._other_role(r)
        assert net_bytes(got) == net_bytes(fam.nets[other])
        assert not any(np.shares_memory(got.flat, net.flat)
                       for net in nets if net is not got)
        assert all(np.shares_memory(v, got.flat) for v in got.params.values())
        assert fam.updates[r, key] == fam.updates[other] == steps


def test_family_empty_set_returns_trivial_copies(small_paired):
    spec = mlp4_spec()
    fam = train_family(spec, small_paired, quick_plan(steps=20, master_seed=2),
                       [InterventionSet.empty(spec.m)])
    for r in cf.ROLES:
        assert net_bytes(fam.nets[r, "{}"]) == net_bytes(fam.nets[r])


def test_mismatched_m_rejected(small_paired):
    spec = mlp4_spec()
    with pytest.raises(UsageError, match="m="):
        train_pair(
            spec, small_paired, quick_plan(), "clean", InterventionSet.empty(5)
        )


def test_unknown_role_rejected(small_paired):
    spec = mlp4_spec()
    with pytest.raises(UsageError, match="role"):
        train_single(spec, small_paired, quick_plan(steps=1), "dirty")
    with pytest.raises(UsageError, match="role"):
        train_pair(spec, small_paired, quick_plan(steps=1), "dirty",
                   InterventionSet.empty(spec.m))


def test_warmstart_shares_initial_weights(small_paired):
    spec = mlp4_spec()
    donor = nc.build_net(spec, seed=404)
    plan = quick_plan(steps=1, master_seed=6)
    out = train_pair(
        spec, small_paired, plan, "clean", InterventionSet.empty(spec.m),
        init_from=donor
    )
    # one step from the donor weights, not from the seed-derived init
    fresh = nc.build_net(spec, seed=plan.master_seed)
    assert net_bytes(out.nets["clean"]) != net_bytes(fresh)


# --------------------------------------------------------------------------
# the engine against a slow reference loop

def reference_lockstep(pd, plan, init, members, knobs=None):
    """Lockstep training spelled out the slow way: every computing trainee
    runs a full forward and backward pass on its own net and steps the
    blocks it updates, then each partner copies all other blocks from its
    anchor. members maps a name to (data role, update blocks, anchor name
    or None); knobs maps a name to its Retraining, whose scale factors go
    to its optimizer and whose phases replace its update set from each
    phase's first step on. Updates go through the per-key reference
    optimizer.
    """
    knobs = {name: (knobs or {}).get(name, cf.Retraining()) for name in members}
    nets = {name: init.copy() for name in members}
    opts = {name: PerKeyOptimizer(plan.optimizer, plan.schedule,
                                  knobs[name].lr_scales, knobs[name].wd_scales)
            for name in members}

    t = epoch = 0
    while t < plan.steps:
        eseed = subseed(plan.master_seed, "shuffle", epoch)
        for batch in sl.paired_batches(pd, plan.batch_size, eseed):
            if t >= plan.steps:
                break
            views = {"clean": batch.clean_x, "skewed": batch.skew_x}
            blocks = {name: knobs[name].blocks_at(t, upd)
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
    plan = quick_plan(steps=12, master_seed=13)
    fam = train_family(spec, small_paired, plan, sets)
    members = {r: (r, list(range(spec.m)), None) for r in cf.ROLES}
    for A in sets:
        for r in cf.ROLES:
            members[r, A.canonical()] = (cf._other_role(r), A.sorted(), r)
    ref = reference_lockstep(small_paired, plan, nc.build_net(spec, seed=13), members)
    for r in cf.ROLES:
        assert net_bytes(fam.nets[r]) == net_bytes(ref[r])
        for A in sets:
            key = (r, A.canonical())
            got = fam.nets[key]
            assert net_bytes(got) == net_bytes(ref[key]), key
            # partners own their arrays once training is over
            assert not np.shares_memory(got.flat, fam.nets[r].flat)
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


def check_family_evaluation(pd, spec, sets, dtype, n, batch_size, monkeypatch,
                            retrainings=None):
    """evaluate_family must score each net once per view, from block m - 1
    for an anchor, min(A) for a partner and 0 for a retraining, except a
    full-set partner, which takes no call, and every report must match a
    plain evaluate."""
    fam = train_family(spec, pd, quick_plan(steps=12), sets, dtype=dtype,
                       retrainings=retrainings)
    test_clean = sl.gen_clean_synthetic(watermark_task(), n, seed=5)
    views = (test_clean, sl.make_fully_skewed(test_clean, watermark_task().watermark))
    starts = []  # (net, start block) per call

    def counted(net, pixels, labels, batch_size, start):
        starts.append((id(net), start))
        return nc.evaluate(net, pixels, labels, batch_size, start=start)

    monkeypatch.setattr(cf, "evaluate", counted)
    reports = cf.evaluate_family(fam, views, batch_size)
    nets = {r: fam.nets[r] for r in cf.ROLES}
    want_starts = [(id(net), spec.m - 1) for net in nets.values()]
    for A in sets:
        if not A.is_empty:
            for role in cf.ROLES:
                net = nets[role, A.canonical()] = fam.nets[role, A.canonical()]
                if A != InterventionSet.full(spec.m):
                    want_starts.append((id(net), min(A.members)))
    for name in retrainings or {}:
        net = nets["retrained", name] = fam.nets["retrained", name]
        want_starts.append((id(net), 0))
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


@pytest.mark.parametrize("spec_fn", [small_cnn_spec, mlp4_spec])
def test_family_evaluation_scores_retrainings(small_paired, spec_fn, monkeypatch):
    spec = spec_fn()
    retrainings = {
        "lr_up@1": retrain_with_intervention(LR_UP, TargetBlocks((1,)), spec.m),
        "freeze@0": freeze_protocol(spec.m, 12, keep_block=0, t1=2, t2=2),
    }
    check_family_evaluation(small_paired, spec, FAMILIES["suffix"](spec.m),
                            np.float32, n=700, batch_size=512,
                            monkeypatch=monkeypatch, retrainings=retrainings)


def test_family_evaluation_needs_both_anchors(small_paired):
    spec = mlp4_spec()
    pair = train_pair(spec, small_paired, quick_plan(steps=2), "clean",
                      InterventionSet.suffix(spec.m, 2))
    view = sl.gen_clean_synthetic(watermark_task(), 16, seed=5)
    with pytest.raises(UsageError, match="both anchors"):
        cf.evaluate_family(pair, (view,))


def test_freeze_protocol_matches_reference_loop(small_paired):
    spec = small_cnn_spec()
    plan = quick_plan(steps=14, master_seed=17)
    freeze = freeze_protocol(spec.m, plan.steps, keep_block=2, t1=3, t2=3)
    fam = train_family(spec, small_paired, plan, [], retrainings={"freeze": freeze})
    ref = reference_lockstep(small_paired, plan, nc.build_net(spec, seed=17),
                             {"freeze": ("skewed", None, None)}, {"freeze": freeze})
    assert net_bytes(fam.nets["retrained", "freeze"]) == net_bytes(ref["freeze"])


def test_mitigation_family_matches_reference_loop(small_paired):
    # anchors, LR/WD retrainings (a factor-1 one among them) and freeze
    # retrainings in one lockstep run, against one slow run per net
    spec = small_cnn_spec()
    m, steps = spec.m, 12
    retrainings = {
        "lr_up@1": retrain_with_intervention(LR_UP, TargetBlocks((1,)), m),
        "lr_1@0+1": retrain_with_intervention(InterventionKind("lr_scale", 1.0),
                                              TargetBlocks((0, 1)), m),
        "wd_down@2+3": retrain_with_intervention(WD_DOWN, TargetBlocks((2, 3)), m),
        "wd_up@0": retrain_with_intervention(WD_UP, TargetBlocks((0,)), m),
        "freeze@0": freeze_protocol(m, steps, 0, t1=2, t2=3),
        "freeze@2": freeze_protocol(m, steps, 2, t1=2, t2=3),
    }
    plan = quick_plan(steps=steps, master_seed=19)
    fam = train_family(spec, small_paired, plan, [], retrainings=retrainings)
    for key, net in fam.nets.items():
        role, name = (key, key) if key in cf.ROLES else ("skewed", key[1])
        ref = reference_lockstep(small_paired, plan, nc.build_net(spec, seed=19),
                                 {name: (role, list(range(m)), None)}, retrainings)
        assert net_bytes(net) == net_bytes(ref[name]), key
    assert net_bytes(fam.nets["retrained", "lr_1@0+1"]) == net_bytes(fam.nets["skewed"])
    assert net_bytes(fam.nets["retrained", "lr_up@1"]) != net_bytes(fam.nets["skewed"])
    assert fam.updates == {**{r: steps for r in cf.ROLES},
                           **{("retrained", name): steps for name in retrainings}}


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
    plan = quick_plan(steps=10, master_seed=5)
    train_pair(spec, small_paired, plan, "clean", A)  # unchecked, the change slips by
    served.clear()
    with pytest.raises(AssertionError, match="step 5"):
        train_pair(spec, small_paired, plan, "clean", A, debug_sync=True)


def test_debug_sync_catches_a_perturbed_full_set_partner(small_paired, monkeypatch):
    spec = mlp4_spec()
    full = InterventionSet.full(spec.m)
    partner = cf._partner

    def perturbed(anchor, A):
        tr = partner(anchor, A)
        if A == full and anchor.data_role == "clean":
            tr.net.flat[0] += 1.0
        return tr

    monkeypatch.setattr(cf, "_partner", perturbed)
    plan = quick_plan(steps=6, master_seed=5)
    # unchecked, the partner is never built, so the change cannot show
    fam = train_family(spec, small_paired, plan, [full])
    assert net_bytes(fam.nets["clean", full.canonical()]) == net_bytes(
        fam.nets["skewed"])
    with pytest.raises(AssertionError, match="intervened:clean:0:4 differs"):
        train_family(spec, small_paired, plan, [full], debug_sync=True)


def test_diverged_partner_reports_step_and_block(small_paired, monkeypatch):
    spec = mlp4_spec()
    calls = []

    def poisoned(net, x, labels, start=0):
        loss, grads = nc.loss_and_grad(net, x, labels, start=start)
        if start == 2:  # a 2:4 partner; the clean direction's comes first
            calls.append(start)
            if len(calls) == 7:  # step 3
                k = net.block_keys(3)[0]
                grads[k] = np.full_like(grads[k], np.inf)
        return loss, grads

    monkeypatch.setattr(cf, "loss_and_grad", poisoned)
    with pytest.raises(TrainingDiverged, match="intervened:clean:2:4") as exc:
        train_family(spec, small_paired, quick_plan(steps=10),
                     [InterventionSet.suffix(spec.m, 2)])
    assert (exc.value.step, exc.value.block) == (3, 3)
