import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    evaluate_logits,
    freeze_phases,
    mlp4_spec,
    net_bytes,
    quick_plan,
    watermark_task,
)
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
    retrain_with_intervention,
)
from sscope.optim import Optimizer
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
    anchor = nc.build_net(spec, seed=3)
    partner = cf._partner(anchor, (2, 3))
    x = small_paired.clean.pixels[:8]
    before = partner.forward(x)
    anchor.flat[: anchor.block_offsets[2]] *= 0.5  # shared blocks 0, 1
    shared = partner.forward(x)
    assert shared.tobytes() != before.tobytes()
    assert partner.forward(x, 0, 2).tobytes() == anchor.forward(x, 0, 2).tobytes()
    nc.sync_blocks(partner, anchor, [0, 1])
    assert partner.forward(x).tobytes() == shared.tobytes()
    anchor.flat[:] = 0.0
    assert partner.forward(x).tobytes() == shared.tobytes()
    for b in range(spec.m):
        assert all(np.shares_memory(partner.params[k], partner.flat)
                   for k in partner.block_keys(b))


def test_lockstep_optimizers_share_one_work_buffer(small_paired, monkeypatch):
    works = []

    def recorded(*args, work, **kw):
        works.append(work)
        return Optimizer(*args, work=work, **kw)

    monkeypatch.setattr(cf, "Optimizer", recorded)
    train_pair(mlp4_spec(), small_paired, quick_plan(steps=3), "clean",
               InterventionSet.suffix(4, 2))
    assert len(works) == 2 and works[0] is works[1]


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
    # two anchors, and one partner per (direction, set)
    assert sum(1 for k in fam.nets if k in cf.ROLES) == 2
    assert len(fam.nets) == 2 + 2 * len(sets)
    # empty-set partners never update
    assert net_bytes(fam.nets["clean", "{}"]) == net_bytes(fam.nets["clean"])


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


def test_family_empty_set_returns_trivial_copies(small_paired, monkeypatch):
    # the A = {} partners stand in for their anchors: copies, never built,
    # unless debug_sync trains them to check that they end as their anchors
    spec = mlp4_spec()
    partner = cf._partner
    built = []

    def counted(anchor, blocks):
        built.append(blocks)
        return partner(anchor, blocks)

    monkeypatch.setattr(cf, "_partner", counted)
    plan = quick_plan(steps=20, master_seed=2)
    fam = train_family(spec, small_paired, plan, [InterventionSet.empty(spec.m)])
    assert built == []
    checked = train_family(spec, small_paired, plan, [InterventionSet.empty(spec.m)],
                           debug_sync=True)
    assert built == [(), ()]
    for r in cf.ROLES:
        got = fam.nets[r, "{}"]
        assert net_bytes(got) == net_bytes(fam.nets[r])
        assert net_bytes(checked.nets[r, "{}"]) == net_bytes(got)
        assert not np.shares_memory(got.flat, fam.nets[r].flat)


def test_debug_sync_catches_an_unsynced_empty_set_partner(small_paired, monkeypatch):
    # an A = {} partner that kept its own copy of block 0 ends as the init's
    # block 0, not its anchor's
    spec = mlp4_spec()
    sync = cf.sync_blocks
    monkeypatch.setattr(cf, "sync_blocks",
                        lambda dst, src, members: sync(dst, src, members[1:]))
    plan = quick_plan(steps=4, master_seed=2)
    empty = [InterventionSet.empty(spec.m)]
    train_family(spec, small_paired, plan, empty)  # unchecked, no partner is built
    with pytest.raises(AssertionError, match=r"intervened:clean:\{\} differs"):
        train_family(spec, small_paired, plan, empty, debug_sync=True)


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
            grads = {name: nets[name].views(
                         nc.loss_and_grad(nets[name], views[role], batch.labels)[1])
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
    )


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

# Each family's trial plan, written out by hand, one row per node in plan
# order: (key, data role, update blocks, anchor, evaluation start, twin).
ALL4 = (0, 1, 2, 3)
ANCHORS4 = [("clean", "clean", ALL4, None, 3, None),
            ("skewed", "skewed", ALL4, None, 3, None)]
PLANS = {
    ("anchors-only", 4): ANCHORS4,
    ("suffix", 4): ANCHORS4 + [
        (("clean", "0:4"), "skewed", ALL4, "clean", 0, "skewed"),
        (("skewed", "0:4"), "clean", ALL4, "skewed", 0, "clean"),
        (("clean", "1:4"), "skewed", (1, 2, 3), "clean", 1, None),
        (("skewed", "1:4"), "clean", (1, 2, 3), "skewed", 1, None),
        (("clean", "2:4"), "skewed", (2, 3), "clean", 2, None),
        (("skewed", "2:4"), "clean", (2, 3), "skewed", 2, None),
        (("clean", "3:4"), "skewed", (3,), "clean", 3, None),
        (("skewed", "3:4"), "clean", (3,), "skewed", 3, None),
        (("clean", "{}"), "skewed", (), "clean", None, "clean"),
        (("skewed", "{}"), "clean", (), "skewed", None, "skewed"),
    ],
    ("single", 4): ANCHORS4 + [
        (("clean", "1:4"), "skewed", (1, 2, 3), "clean", 1, None),  # -{0}
        (("skewed", "1:4"), "clean", (1, 2, 3), "skewed", 1, None),
        (("clean", "-{1}"), "skewed", (0, 2, 3), "clean", 0, None),
        (("skewed", "-{1}"), "clean", (0, 2, 3), "skewed", 0, None),
        (("clean", "-{2}"), "skewed", (0, 1, 3), "clean", 0, None),
        (("skewed", "-{2}"), "clean", (0, 1, 3), "skewed", 0, None),
        (("clean", "-{3}"), "skewed", (0, 1, 2), "clean", 0, None),
        (("skewed", "-{3}"), "clean", (0, 1, 2), "skewed", 0, None),
    ],
    ("explicit", 4): ANCHORS4 + [
        (("clean", "{0,2}"), "skewed", (0, 2), "clean", 0, None),
        (("skewed", "{0,2}"), "clean", (0, 2), "skewed", 0, None),
        (("clean", "{1,3}"), "skewed", (1, 3), "clean", 1, None),
        (("skewed", "{1,3}"), "clean", (1, 3), "skewed", 1, None),
        (("clean", "0:4"), "skewed", ALL4, "clean", 0, "skewed"),
        (("skewed", "0:4"), "clean", ALL4, "skewed", 0, "clean"),
    ],
    ("mitigation", 4): ANCHORS4 + [
        (("retrained", "lr_up@1"), "skewed", ALL4, None, 0, None),
        (("retrained", "freeze@0"), "skewed", ALL4, None, 0, None),
    ],
    ("suffix", 6): [
        ("clean", "clean", tuple(range(6)), None, 5, None),
        ("skewed", "skewed", tuple(range(6)), None, 5, None),
        (("clean", "0:6"), "skewed", tuple(range(6)), "clean", 0, "skewed"),
        (("skewed", "0:6"), "clean", tuple(range(6)), "skewed", 0, "clean"),
        (("clean", "1:6"), "skewed", (1, 2, 3, 4, 5), "clean", 1, None),
        (("skewed", "1:6"), "clean", (1, 2, 3, 4, 5), "skewed", 1, None),
        (("clean", "2:6"), "skewed", (2, 3, 4, 5), "clean", 2, None),
        (("skewed", "2:6"), "clean", (2, 3, 4, 5), "skewed", 2, None),
        (("clean", "3:6"), "skewed", (3, 4, 5), "clean", 3, None),
        (("skewed", "3:6"), "clean", (3, 4, 5), "skewed", 3, None),
        (("clean", "4:6"), "skewed", (4, 5), "clean", 4, None),
        (("skewed", "4:6"), "clean", (4, 5), "skewed", 4, None),
        (("clean", "5:6"), "skewed", (5,), "clean", 5, None),
        (("skewed", "5:6"), "clean", (5,), "skewed", 5, None),
        (("clean", "{}"), "skewed", (), "clean", None, "clean"),
        (("skewed", "{}"), "clean", (), "skewed", None, "skewed"),
    ],
}


def mitigation_retrainings(m):
    return {
        "lr_up@1": retrain_with_intervention(LR_UP, TargetBlocks((1,)), m),
        "freeze@0": freeze_phases(m, keep_block=0, t1=2, t2=2),
    }


def plan_rows(plan):
    return [(n.key, n.role, n.blocks, n.anchor, n.start, n.twin) for n in plan.nodes]


@pytest.mark.parametrize("debug_sync", [False, True])
@pytest.mark.parametrize("family, m", sorted(PLANS))
def test_trial_plan_matches_table(family, m, debug_sync):
    retrainings = mitigation_retrainings(m) if family == "mitigation" else None
    sets = [] if family == "mitigation" else FAMILIES[family](m)
    plan = cf.trial_plan(m, sets + sets[:1], retrainings, debug_sync)  # a repeat
    assert plan_rows(plan) == PLANS[family, m]
    knobs = {("retrained", name): r for name, r in (retrainings or {}).items()}
    assert [n.retraining for n in plan.nodes] == [
        knobs.get(n.key, cf.Retraining()) for n in plan.nodes]
    # without debug_sync the stand-ins are copies, not trainees
    assert [n.key for n in plan.trained] == [
        key for key, *_, twin in PLANS[family, m] if debug_sync or twin is None]


def minicnn6_spec():
    return net_spec("minicnn6", task_spec("bars16", None))


def check_family_evaluation(pd, spec, family, dtype, n, batch_size, monkeypatch,
                            retrainings=None):
    """evaluate_family must score each net once per (view, chunk), from the
    start block its row of PLANS gives, except a stand-in, which takes no
    call. Every chunk's logits must match a plain evaluate's byte for byte,
    and so must every report, a stand-in's too."""
    table = PLANS[family, spec.m] + (PLANS["mitigation", spec.m][2:] if retrainings
                                     else [])
    fam = train_family(spec, pd, quick_plan(steps=12), FAMILIES[family](spec.m),
                       dtype=dtype, retrainings=retrainings)
    test_clean = sl.gen_clean_synthetic(watermark_task(), n, seed=5)
    views = (test_clean, sl.make_fully_skewed(test_clean, watermark_task().watermark))
    starts = []  # (net, start block) per call
    logits = {}  # net -> the bytes of each chunk's logits, in call order

    def counted(net, pixels, labels, batch_size, start, **kw):
        assert len(labels) <= batch_size  # one chunk per call
        starts.append((id(net), start))
        report, chunks = evaluate_logits(net, pixels, labels,
                                         batch_size=batch_size, start=start, **kw)
        logits.setdefault(id(net), []).extend(chunks)
        return report

    monkeypatch.setattr(cf, "evaluate", counted)
    reports = cf.evaluate_family(fam, views, batch_size)
    nets = {key: fam.nets[key] for key, *_ in table}
    want_starts = [(id(nets[key]), start) for key, *_, start, twin in table
                   if twin is None]
    assert reports.keys() == nets.keys()
    chunks_per_view = -(-n // batch_size)
    assert sorted(starts) == sorted(want_starts * len(views) * chunks_per_view)
    for name, net in nets.items():
        want_logits = []
        for got, view in zip(reports[name], views, strict=True):
            plain, chunks = evaluate_logits(net, view.pixels, view.labels,
                                            batch_size=batch_size)
            assert got == plain, name
            want_logits += chunks
        if id(net) in logits:  # a stand-in takes no call
            assert logits[id(net)] == want_logits, name


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("spec_fn", [small_cnn_spec, mlp4_spec])
def test_family_evaluation_matches_plain_evaluate(small_paired, spec_fn, family,
                                                  dtype, monkeypatch):
    # above 512 images, with a ragged last chunk
    spec = spec_fn()
    check_family_evaluation(small_paired, spec, family, dtype,
                            n=700, batch_size=512, monkeypatch=monkeypatch)


def test_family_evaluation_follows_evaluate_chunks(small_paired, monkeypatch):
    # at 16-image chunks MiniCNN-6's logits depend on the chunking, so the
    # shared activations must be computed in evaluate's own chunks
    spec = minicnn6_spec()
    check_family_evaluation(small_paired, spec, "suffix",
                            np.float32, n=200, batch_size=16,
                            monkeypatch=monkeypatch)


@pytest.mark.parametrize("spec_fn", [small_cnn_spec, mlp4_spec])
def test_family_evaluation_scores_retrainings(small_paired, spec_fn, monkeypatch):
    spec = spec_fn()
    retrainings = mitigation_retrainings(spec.m)
    check_family_evaluation(small_paired, spec, "suffix",
                            np.float32, n=700, batch_size=512,
                            monkeypatch=monkeypatch, retrainings=retrainings)


@pytest.mark.parametrize("spec_fn", [minicnn6_spec, small_cnn_spec, mlp4_spec])
def test_family_evaluation_leaves_prefix_activations_unchanged(small_paired, spec_fn,
                                                               monkeypatch):
    """Every pass of evaluate_family takes its buffers from one workspace, but
    an activation a prefix holds is an array of its own: after every member
    of its group (and every later group) is scored, it still holds the bytes
    its block's pass gave it, and the views' pixels are never written."""
    spec = spec_fn()
    fam = train_family(spec, small_paired, quick_plan(steps=4),
                       FAMILIES["suffix"](spec.m))
    test_clean = sl.gen_clean_synthetic(watermark_task(), 600, seed=5)
    views = (test_clean, sl.make_fully_skewed(test_clean, watermark_task().watermark))
    pixels = [view.pixels.tobytes() for view in views]
    made = []  # (activation, its bytes when its pass returned), kept alive
    entering = cf._Prefix.entering

    def recorded(prefix, s):
        known = len(prefix.acts)
        x = entering(prefix, s)
        made.extend((act, act.tobytes()) for act in prefix.acts[known:])
        return x

    monkeypatch.setattr(cf._Prefix, "entering", recorded)
    cf.evaluate_family(fam, views)
    # blocks 1..m-1 entered, per anchor, per chunk (512 + 88 images), per view
    assert len(made) == (spec.m - 1) * len(cf.ROLES) * 2 * len(views)
    assert all(act.tobytes() == before for act, before in made)
    assert [view.pixels.tobytes() for view in views] == pixels


def test_family_evaluation_needs_both_anchors(small_paired):
    spec = mlp4_spec()
    pair = train_pair(spec, small_paired, quick_plan(steps=2), "clean",
                      InterventionSet.suffix(spec.m, 2))
    view = sl.gen_clean_synthetic(watermark_task(), 16, seed=5)
    with pytest.raises(UsageError, match="both anchors"):
        cf.evaluate_family(pair, (view,))


def test_family_evaluation_rejects_an_empty_view(small_paired):
    fam = train_family(mlp4_spec(), small_paired, quick_plan(steps=2), [])
    view = sl.gen_clean_synthetic(watermark_task(), 16, seed=5)
    empty = sl.ImageDataset(view.pixels[:0], view.labels[:0], view.class_count)
    with pytest.raises(UsageError, match="empty"):
        cf.evaluate_family(fam, (view, empty))


def test_freeze_protocol_matches_reference_loop(small_paired):
    spec = small_cnn_spec()
    plan = quick_plan(steps=14, master_seed=17)
    freeze = freeze_phases(spec.m, keep_block=2, t1=3, t2=3)
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
        "freeze@0": freeze_phases(m, 0, t1=2, t2=3),
        "freeze@2": freeze_phases(m, 2, t1=2, t2=3),
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
    assert fam.nets.keys() == {*cf.ROLES, *(("retrained", name) for name in retrainings)}


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
    with pytest.raises(AssertionError, match="block 2 differs .* at step 5"):
        train_pair(spec, small_paired, plan, "clean", A, debug_sync=True)


def test_debug_sync_catches_a_perturbed_full_set_partner(small_paired, monkeypatch):
    spec = mlp4_spec()
    full = InterventionSet.full(spec.m)
    partner = cf._partner
    built = []

    def perturbed(anchor, blocks):
        net = partner(anchor, blocks)
        built.append(blocks)
        if len(built) == 1:  # the clean direction's comes first
            net.flat[0] += 1.0
        return net

    monkeypatch.setattr(cf, "_partner", perturbed)
    plan = quick_plan(steps=6, master_seed=5)
    # unchecked, the partner is never built, so the change cannot show
    fam = train_family(spec, small_paired, plan, [full])
    assert built == []
    assert net_bytes(fam.nets["clean", full.canonical()]) == net_bytes(
        fam.nets["skewed"])
    with pytest.raises(AssertionError, match="intervened:clean:0:4 differs"):
        train_family(spec, small_paired, plan, [full], debug_sync=True)
    assert built == [(0, 1, 2, 3)] * 2


def test_diverged_partner_reports_step_and_block(small_paired, monkeypatch):
    spec = mlp4_spec()
    calls = []

    def poisoned(net, x, labels, start=0):
        loss, grad = nc.loss_and_grad(net, x, labels, start=start)
        if start == 2:  # a 2:4 partner; the clean direction's comes first
            calls.append(start)
            if len(calls) == 7:  # step 3
                net.views(grad)[net.block_keys(3)[0]][...] = np.inf
        return loss, grad

    monkeypatch.setattr(cf, "loss_and_grad", poisoned)
    with pytest.raises(TrainingDiverged, match="intervened:clean:2:4") as exc:
        train_family(spec, small_paired, quick_plan(steps=10),
                     [InterventionSet.suffix(spec.m, 2)])
    assert (exc.value.step, exc.value.block) == (3, 3)
