"""Lockstep counterfactual training.

An anchor network trains on its own dataset role while intervened partners
train alongside it. A partner with intervention set A consumes the opposite
role's batches and updates only the blocks in A; its remaining blocks are
the anchor's own arrays, shared by reference for the whole run, so every
in-place anchor update is the partner's update too. Everything draws
batches from one shared index stream, so every model gets equal exposure
and the whole procedure is a pure function of (spec, data, plan, A).

Every net of a run follows one `TrainPlan`; nets differ only in the role
whose batches they see. Each net has one key, its evaluation key: its role
for an anchor, (anchor role, canonical set) for a partner, ("retrained",
name) for a retraining. `FamilyOutcome` and `evaluate_family` are keyed by
it, and messages print it as "anchor:clean", "intervened:clean:2:4" or
"retrained:freeze@0".

Each step computes every gradient before any update is applied. Below
s = min(A) a partner holds exactly its anchor's weights and reads the same
view as every other partner of that direction, so the anchor's forward pass
over blocks 0..s-1 on that view is computed once per step, block by block
as partners ask for it, and each partner starts its own forward at block s.
Its backward pass stops at block s too, since nothing below is updated.
With `debug_sync`, one partner per step (in rotation) has its gradients
recomputed through its whole network from the raw view, and they must
match the shared-prefix ones byte for byte. When training ends, each
partner gets its own copy of the shared blocks.

Evaluation shares the prefix through the same `_Prefix` (`evaluate_family`):
it walks each test view in the chunks `evaluate` uses, and per chunk it runs
each anchor's blocks once, keeping their activations only while that chunk
is scored. The anchor and each partner are scored on the chunk from the
activation entering their start block: m - 1 for the anchor, min(A) for a
partner. Every report equals a plain `evaluate(net, view.pixels,
view.labels)` byte for byte.

Two degenerate equivalences hold bit-exactly and are used as oracles: A = {}
reproduces the anchor, and A = [m] reproduces a direct training run on the
opposite role with the same seed. A family relies on the second one: it
trains the full-set partner once, as the opposite anchor, and returns a copy
of that anchor for it, with that anchor's evaluation reports. `train_pair`
still trains it independently, and the tests compare that run with
`train_single`. With `debug_sync`, a family trains its full-set partners
for real as well, and they must end byte-equal to the opposite anchors.

A family can also hold retrainings (`Retraining`): reruns of the skewed
anchor's training from the shared init, each with its own per-block LR/WD
scale factors and an optional phase schedule of update sets. They draw the
same batches as the anchors, so a retraining with every factor 1 and no
phases reproduces the skewed anchor byte for byte. When a phased trainee
enters its last phase, the engine records the bytes of the blocks that phase
leaves untouched, and they must be unchanged when training ends. A
retraining shares no block with an anchor, so `evaluate_family` scores it
from block 0 on the raw chunk, in the same loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError, TrainingDiverged, UsageError
from .netcore import (
    BlockNet,
    EvalReport,
    NetSpec,
    Workspace,
    build_net,
    evaluate,
    loss_and_grad,
    sync_blocks,
)
from .optim import Optimizer, OptimizerConfig, ScheduleConfig
from .rng import subseed
from .skewlab import PairedDataset, paired_batches

__all__ = [
    "InterventionSet",
    "TrainPlan",
    "Retraining",
    "FamilyOutcome",
    "train_single",
    "train_pair",
    "train_family",
    "evaluate_family",
]

ROLES = ("clean", "skewed")


# --------------------------------------------------------------------------
# intervention sets

@dataclass(frozen=True)
class InterventionSet:
    """A subset of the m block indices, with the standard constructors."""

    m: int
    members: frozenset

    def __post_init__(self):
        object.__setattr__(self, "members", frozenset(int(i) for i in self.members))
        if any(not 0 <= i < self.m for i in self.members):
            raise UsageError(f"members {sorted(self.members)} outside [0, {self.m})")

    @classmethod
    def empty(cls, m):
        return cls(m, frozenset())

    @classmethod
    def full(cls, m):
        return cls(m, frozenset(range(m)))

    @classmethod
    def single_complement(cls, m, i):
        if not 0 <= i < m:
            raise UsageError(f"block {i} outside [0, {m})")
        return cls(m, frozenset(range(m)) - {i})

    @classmethod
    def suffix(cls, m, i):
        if not 0 <= i <= m:
            raise UsageError(f"suffix start {i} outside [0, {m}]")
        return cls(m, frozenset(range(i, m)))

    @property
    def complement(self):
        return InterventionSet(self.m, frozenset(range(self.m)) - self.members)

    @property
    def is_empty(self):
        return not self.members

    def sorted(self):
        return sorted(self.members)

    def canonical(self) -> str:
        if self.is_empty:
            return "{}"
        mem = self.sorted()
        if mem == list(range(mem[0], self.m)):
            return f"{mem[0]}:{self.m}"
        missing = sorted(set(range(self.m)) - self.members)
        if len(missing) == 1:
            return f"-{{{missing[0]}}}"
        return "{" + ",".join(map(str, mem)) + "}"

    @staticmethod
    def parse(text: str, m: int) -> "InterventionSet":
        """Read one of the canonical forms "{}", "i:m", "-{i}", "{a,b,...}"."""
        s = text.strip()
        if s == "{}":
            return InterventionSet.empty(m)
        if s.startswith("-{") and s.endswith("}"):
            return InterventionSet.single_complement(m, _block_index(s[2:-1], text))
        if s.count(":") == 1:
            lo, hi = s.split(":")
            if _block_index(hi, text) != m:
                raise UsageError(f"suffix set {text} must end at m={m}")
            return InterventionSet.suffix(m, _block_index(lo, text))
        if s.startswith("{") and s.endswith("}"):
            return InterventionSet(
                m, frozenset(_block_index(x, text) for x in s[1:-1].split(","))
            )
        raise UsageError(f"cannot parse intervention set {text!r}")


def _block_index(part, text):
    part = part.strip()
    if not (part.isascii() and part.isdigit()):
        raise UsageError(f"cannot parse intervention set {text!r}")
    return int(part)


# --------------------------------------------------------------------------
# plans

@dataclass(frozen=True)
class TrainPlan:
    """The recipe every net of a run follows, whatever role it trains on.
    Its optimizer config and schedule checked themselves when built; the
    plan checks the batch size and that the schedule decays to a positive
    learning rate no higher than the peak."""

    batch_size: int
    master_seed: int
    optimizer: OptimizerConfig
    schedule: ScheduleConfig

    def __post_init__(self):
        if self.batch_size <= 0:
            raise UsageError("steps and batch_size must be positive")
        if not 0 < self.schedule.min_lr <= self.optimizer.peak_lr:
            raise UsageError("need 0 < min_lr <= peak_lr")

    @property
    def steps(self):
        return self.schedule.total_steps


def _other_role(role):
    return "skewed" if role == "clean" else "clean"


def _check_role(role):
    if role not in ROLES:
        raise UsageError(f"role must be one of {ROLES}, got {role!r}")


def _check_sets(spec, sets):
    for A in sets:
        if A.m != spec.m:
            raise UsageError(f"intervention set has m={A.m}, spec has m={spec.m}")


@dataclass(frozen=True)
class Retraining:
    """A rerun of the skewed anchor's training from the shared init, with
    per-block learning-rate and weight-decay scale factors (block -> factor)
    and an optional phase schedule: (first step, blocks) pairs in step order,
    each phase's blocks being the update set from its first step on."""

    lr_scales: dict = field(default_factory=dict)
    wd_scales: dict = field(default_factory=dict)
    phases: tuple = ()

    def blocks_at(self, t, update_blocks):
        """The blocks updated at step t: the last phase begun by then, else
        update_blocks."""
        blocks = update_blocks
        for first, phase in self.phases:
            if first <= t:
                blocks = phase
        return blocks


# --------------------------------------------------------------------------
# trainees

@dataclass
class _Trainee:
    key: object  # its evaluation key (see the module docstring)
    net: BlockNet
    data_role: str
    update_blocks: list
    anchor: _Trainee | None = None  # a partner's blocks outside A alias this net
    retraining: Retraining = Retraining()
    optimizer: Optimizer | None = None


def _label(key):
    """A trainee's key as messages print it: "anchor:clean",
    "intervened:clean:2:4" or "retrained:freeze@0"."""
    if isinstance(key, str):
        return f"anchor:{key}"
    return ":".join(key if key[0] == "retrained" else ("intervened", *key))


def _anchor(net, role):
    return _Trainee(key=role, net=net, data_role=role,
                    update_blocks=list(range(net.m)))


def _partner(anchor, A):
    """A partner of `anchor` with its own copy of the anchor's buffer, whose
    blocks outside A read the anchor's arrays until training ends."""
    net = anchor.net.copy()
    net.params.update(
        (k, anchor.net.params[k])
        for b in range(net.m) if b not in A.members
        for k in net.block_keys(b)
    )
    return _Trainee(
        key=(anchor.key, A.canonical()),
        net=net,
        data_role=_other_role(anchor.data_role),
        update_blocks=A.sorted(),
        anchor=anchor,
    )


def _initial_net(spec, plan, dtype, init_from):
    if init_from is not None:
        if init_from.spec != spec:
            raise UsageError("warmstart checkpoint spec differs from requested spec")
        return BlockNet(spec, init_from.params, dtype)
    return build_net(spec, seed=plan.master_seed, dtype=dtype)


class _Prefix:
    """One net's forward activations on one batch, block by block, as asked
    for; each block's pass takes its buffers from `work` when one is given,
    and its result is an array of its own (see `BlockNet.forward`)."""

    def __init__(self, net, x, work=None):
        self.net = net
        self.work = work
        self.acts = [net._ingest(x)]  # acts[b] is the activation entering block b

    def entering(self, s):
        while len(self.acts) <= s:
            b = len(self.acts) - 1
            self.acts.append(self.net.forward(self.acts[b], b, b + 1, work=self.work))
        return self.acts[s]


def _lockstep(pd, plan, trainees, debug_sync=False):
    """Run the shared training loop; trainees share one batch index stream.

    As a phased trainee enters its last phase, the bytes of the blocks that
    phase leaves untouched are recorded; an AssertionError names the trainee
    and the block unless they are unchanged when training ends.
    """
    # steps run one at a time, so every optimizer shares one scratch buffer
    net = trainees[0].net
    work = np.empty((2, net.flat.size), net.dtype)
    for tr in trainees:
        tr.optimizer = Optimizer(plan.optimizer, plan.schedule,
                                 lr_block_scale=dict(tr.retraining.lr_scales),
                                 wd_block_scale=dict(tr.retraining.wd_scales),
                                 work=work)
    frozen = []  # (trainee, block, its bytes as the trainee's last phase began)
    t = 0
    epoch = 0
    while t < plan.steps:
        eseed = subseed(plan.master_seed, "shuffle", epoch)
        for batch in paired_batches(pd, plan.batch_size, eseed):
            if t >= plan.steps:
                break
            views = {"clean": batch.clean_x, "skewed": batch.skew_x}
            prefixes = {}
            computed = []  # (trainee, update blocks, gradient)
            for tr in trainees:
                phases = tr.retraining.phases
                blocks = tr.retraining.blocks_at(t, tr.update_blocks)
                if phases and t == phases[-1][0]:
                    frozen += [(tr, b, tr.net.block_bytes(b))
                               for b in range(tr.net.m) if b not in blocks]
                if not blocks:
                    continue
                s = min(blocks)
                source = tr.anchor or tr
                key = (source.key, tr.data_role)
                try:
                    if key not in prefixes:
                        prefixes[key] = _Prefix(source.net, views[tr.data_role])
                    x = prefixes[key].entering(s)
                    _, grad = loss_and_grad(tr.net, x, batch.labels, start=s)
                except NumericError as exc:
                    raise _diverged(tr, exc, t) from exc
                computed.append((tr, blocks, grad))
            if debug_sync:
                partners = [c for c in computed if c[0].anchor is not None]
                if partners:
                    tr, blocks, grad = partners[t % len(partners)]
                    _check_shared_path(tr, views[tr.data_role], batch.labels,
                                       blocks, grad, t)
            for tr, blocks, grad in computed:
                try:
                    tr.optimizer.step(tr.net, grad, blocks, t)
                except NumericError as exc:
                    raise _diverged(tr, exc, t) from exc
            t += 1
        epoch += 1
    for tr, b, before in frozen:
        if tr.net.block_bytes(b) != before:
            raise AssertionError(
                f"{_label(tr.key)}: frozen block {b} changed during its last phase")
    for tr in trainees:
        if tr.anchor is not None:
            sync_blocks(tr.net, tr.anchor.net,
                        [b for b in range(tr.net.m) if b not in tr.update_blocks])
    return {tr.key: tr for tr in trainees}


def _diverged(tr, exc, t):
    """The TrainingDiverged for trainee tr's NumericError at step t."""
    return TrainingDiverged(f"{_label(tr.key)}: {exc} at step {t}", step=t,
                            block=exc.block_index)


def _check_shared_path(tr, view, labels, blocks, shared_grad, t):
    """Recompute a partner's gradient over its whole net from the raw view;
    each updated block's slice must equal the shared-prefix gradient's byte
    for byte."""
    try:
        _, full = loss_and_grad(tr.net, view, labels)
    except NumericError as exc:
        raise _diverged(tr, exc, t) from exc
    offsets = tr.net.block_offsets
    for b in blocks:
        lo, hi = offsets[b], offsets[b + 1]
        if full[lo:hi].tobytes() != shared_grad[lo:hi].tobytes():
            raise AssertionError(
                f"shared-prefix gradient of {_label(tr.key)} in block {b} differs "
                f"from its full pass at step {t}"
            )


# --------------------------------------------------------------------------
# public training entry points

def train_single(spec: NetSpec, pd: PairedDataset, plan: TrainPlan, role: str,
                 dtype=np.float32, init_from=None) -> BlockNet:
    """Direct training of one network on dataset role `role`."""
    _check_role(role)
    net = _initial_net(spec, plan, dtype, init_from)
    _lockstep(pd, plan, [_anchor(net, role)])
    return net


@dataclass(frozen=True)
class FamilyOutcome:
    nets: dict  # evaluation key -> BlockNet
    sets: list


def _outcome(done, sets):
    return FamilyOutcome(nets={key: tr.net for key, tr in done.items()}, sets=sets)


def train_pair(spec: NetSpec, pd: PairedDataset, plan: TrainPlan, role: str,
               A: InterventionSet, dtype=np.float32, debug_sync=False,
               init_from=None) -> FamilyOutcome:
    """Train an anchor on `role` and one counterfactually intervened partner
    in lockstep; the partner is trained even for the full set."""
    _check_role(role)
    _check_sets(spec, [A])
    anchor = _anchor(_initial_net(spec, plan, dtype, init_from), role)
    partner = _partner(anchor, A)  # shared initial weights
    return _outcome(_lockstep(pd, plan, [anchor, partner], debug_sync=debug_sync),
                    [A])


def train_family(spec: NetSpec, pd: PairedDataset, plan: TrainPlan, sets,
                 dtype=np.float32, debug_sync=False, init_from=None,
                 retrainings=None) -> FamilyOutcome:
    """Both anchors plus one intervened model per (direction, set), and one
    skewed-role net per named `Retraining`, trained in a single lockstep
    pass so each anchor is trained exactly once.

    The partner of the full set A = [m] is not trained: it would retrain
    every block from the shared init on the opposite role's batches, which
    is what the opposite anchor does, so it gets its own copy of that
    anchor's net. With `debug_sync` it trains for real,
    and an AssertionError names it unless it ends byte-equal to the
    opposite anchor.

    A retraining trains on the skewed role from the shared init."""
    sets = list(sets)
    _check_sets(spec, sets)
    init = _initial_net(spec, plan, dtype, init_from)
    anchors = [_anchor(init.copy(), role) for role in ROLES]
    trainees = list(anchors)
    full = InterventionSet.full(spec.m)
    for A in {A.canonical(): A for A in sets}.values():
        if A != full or debug_sync:  # else the opposite anchor stands in, below
            trainees += [_partner(anchor, A) for anchor in anchors]
    trainees += [
        _Trainee(key=("retrained", name), net=init.copy(), data_role="skewed",
                 update_blocks=list(range(spec.m)), retraining=r)
        for name, r in (retrainings or {}).items()
    ]
    out = _outcome(_lockstep(pd, plan, trainees, debug_sync=debug_sync), sets)
    if full in sets:
        for role in ROLES:
            key, twin = (role, full.canonical()), _other_role(role)
            if not debug_sync:
                out.nets[key] = out.nets[twin].copy()
            elif out.nets[key].flat.tobytes() != out.nets[twin].flat.tobytes():
                raise AssertionError(f"{_label(key)} differs from {_label(twin)}, "
                                     "which it must reproduce")
    return out


def evaluate_family(fam: FamilyOutcome, views, batch_size=512) -> dict:
    """One EvalReport per view for both anchors, every partner of a
    non-empty set and every retraining, under the net's key in `fam.nets`;
    each equals `evaluate(net, view.pixels, view.labels, batch_size)` byte
    for byte.

    Each view is scored in `evaluate`'s chunks of batch_size images, and a
    net's mispredictions are summed over the chunks. A partner holds its
    anchor's bytes below min(A), so per chunk one `_Prefix` per anchor runs
    the anchor's blocks once, and every net is scored on the chunk from the
    activation entering its start block: m - 1 for the anchor, min(A) for a
    partner. A retraining shares no blocks with an anchor, so it reads the
    raw chunk from block 0. One chunk's prefix lives at a time, so the
    memory held does not grow with the view, and every pass of the call
    takes its buffers from one `Workspace`. A full-set partner equals the
    opposite anchor (see `train_family`), so it is not scored: its reports
    are that anchor's.
    """
    if not fam.nets.keys() >= set(ROLES):
        raise UsageError("evaluate_family needs both anchors, as train_family gives")
    if any(len(view.labels) == 0 for view in views):
        raise UsageError("empty test view")
    groups = []  # (the net whose prefix they read, [(key, start block)] of nets)
    for role in ROLES:
        members = [(role, fam.nets[role].m - 1)]
        members += [((role, A.canonical()), min(A.members))
                    for A in fam.sets if 0 < len(A.members) < A.m]
        groups.append((fam.nets[role], members))
    groups += [(net, [(key, 0)]) for key, net in fam.nets.items()
               if isinstance(key, tuple) and key[0] == "retrained"]
    anchor = fam.nets[ROLES[0]]
    work = Workspace(anchor.spec, anchor.dtype,
                     [len(view.labels) for view in views], batch_size)
    reports = {}
    for view in views:
        wrong = {}
        for lo in range(0, len(view.labels), batch_size):
            chunk = slice(lo, lo + batch_size)
            for source, members in groups:
                prefix = _Prefix(source, view.pixels[chunk], work)
                for key, s in members:
                    report = evaluate(fam.nets[key], prefix.entering(s),
                                      view.labels[chunk], batch_size, start=s,
                                      work=work)
                    wrong[key] = wrong.get(key, 0) + report.mispredictions
        for key, count in wrong.items():
            reports.setdefault(key, []).append(EvalReport(count, len(view.labels)))
    for A in fam.sets:
        if len(A.members) == A.m:
            for role in ROLES:
                reports[(role, A.canonical())] = list(reports[_other_role(role)])
    return reports
