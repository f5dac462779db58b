"""Lockstep counterfactual training.

An anchor network trains on its own dataset role while intervened partners
train alongside it. A partner with intervention set A consumes the opposite
role's batches and updates only the blocks in A; its remaining blocks are
the anchor's own arrays, shared by reference for the whole run, so every
in-place anchor update is the partner's update too. Everything draws
batches from one shared index stream, so every model gets equal exposure
and the whole procedure is a pure function of (spec, data, plan, A).

Every net of a run follows one `TrainPlan`; nets differ only in the role
whose batches they see. Which nets a run holds is its `TrialPlan`, built
before any net: one `Node` per net, with its evaluation key, data role,
update blocks, the anchor whose arrays it aliases, its `Retraining`, its
evaluation start block (m - 1 for an anchor, min(A) for a partner, 0 for a
retraining) and, for a degenerate set's partner, its twin. `_lockstep`
builds and trains the nets, `evaluate_family` scores them and
`expcli.runner` records them, all in plan order. A key is an anchor's role,
(anchor role, canonical set) for a partner or ("retrained", name) for a
retraining; messages print a node as "anchor:clean", "intervened:clean:2:4"
or "retrained:freeze@0".

Each step computes every gradient before any update is applied. Below
s = min(A) a partner holds exactly its anchor's weights and reads the same
view as every other partner of that direction, so the anchor's forward pass
over blocks 0..s-1 on that view is computed once per step, block by block
as partners ask for it, and each partner starts its own forward at block s.
Its backward pass stops at block s too, since nothing below is updated.
With `debug_sync`, one partner per step (in rotation) has its gradients
recomputed through its whole network from the raw view, and they must
match the shared-prefix ones byte for byte. When training ends, each
partner gets its own copy of the shared blocks. Evaluation shares the
prefix through the same `_Prefix`, per chunk of each test view.

Two degenerate equivalences hold bit-exactly and are used as oracles: A = {}
reproduces the anchor, and A = [m] reproduces a direct training run on the
opposite role with the same seed. A family relies on both: the partners of
these sets are stand-ins for their twins (their own anchor for A = {}, the
opposite anchor for A = [m]). A stand-in is not trained; it gets a copy of
its twin's net and its twin's evaluation reports. With `debug_sync`, a
family trains its stand-ins for real, and they must end byte-equal to their
twins. `train_pair` trains its partner whatever the set, and the tests
compare that run with `train_single`; these two have no caller in the
package and remain for the tests and for the benchmark's tracer.

A family can also hold retrainings (`Retraining`): reruns of the skewed
anchor's training from the shared init, each with its own per-block LR/WD
scale factors and an optional phase schedule of update sets. They draw the
same batches as the anchors, so a retraining with every factor 1 and no
phases reproduces the skewed anchor byte for byte. When a phased trainee
enters its last phase, the engine records the bytes of the blocks that phase
leaves untouched, and they must be unchanged when training ends.
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
    "TrialPlan",
    "trial_plan",
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


@dataclass(frozen=True)
class Node:
    """One net of a trial plan (see the module docstring)."""

    key: object  # its evaluation key
    kind: str  # "anchor", "intervened" (a partner) or "retrained"
    role: str  # the data role whose batches it trains on
    blocks: tuple  # the blocks it updates
    start: int | None  # the block its evaluation starts at; None for A = {}
    anchor: object = None  # a partner's anchor, whose arrays its other blocks alias
    retraining: Retraining = Retraining()
    twin: object = None  # the anchor a degenerate set's partner reproduces

    @property
    def label(self):
        """The node as messages print it, e.g. "intervened:clean:2:4"."""
        parts = (self.key,) if self.kind == "anchor" else self.key
        return ":".join(parts if self.kind == "retrained" else (self.kind, *parts))


@dataclass(frozen=True)
class TrialPlan:
    """The nodes of one lockstep run, in the order they are built, trained,
    scored and recorded. A node with a twin is a stand-in: it trains only
    under `debug_sync`, and must then end byte-equal to its twin; otherwise
    it gets a copy of its twin's net."""

    nodes: tuple
    debug_sync: bool = False

    @property
    def trained(self):
        return [n for n in self.nodes if n.twin is None or self.debug_sync]


def _anchor_node(role, m):
    if role not in ROLES:
        raise UsageError(f"role must be one of {ROLES}, got {role!r}")
    return Node(role, "anchor", role, tuple(range(m)), start=m - 1)


def _partner_node(anchor, A, m, twin=None):
    if A.m != m:
        raise UsageError(f"intervention set has m={A.m}, spec has m={m}")
    return Node((anchor, A.canonical()), "intervened", _other_role(anchor),
                tuple(A.sorted()), start=min(A.members, default=None),
                anchor=anchor, twin=twin)


def trial_plan(m, sets, retrainings=None, debug_sync=False) -> TrialPlan:
    """A family's plan: both anchors, a partner of each per distinct set,
    then a skewed-role node per named `Retraining`. Creates no nets."""
    nodes = [_anchor_node(role, m) for role in ROLES]
    for A in {A.canonical(): A for A in sets}.values():
        for role in ROLES:
            twin = (role if A.is_empty
                    else _other_role(role) if len(A.members) == m else None)
            nodes.append(_partner_node(role, A, m, twin))
    nodes += [Node(("retrained", name), "retrained", "skewed", tuple(range(m)),
                   start=0, retraining=r)
              for name, r in (retrainings or {}).items()]
    return TrialPlan(tuple(nodes), debug_sync)


# --------------------------------------------------------------------------
# the lockstep

def _partner(anchor, blocks):
    """A partner net: a copy of `anchor`'s buffer whose blocks outside
    `blocks` read the anchor's arrays until training ends."""
    net = anchor.copy()
    net.params.update(
        (k, anchor.params[k])
        for b in range(net.m) if b not in blocks
        for k in net.block_keys(b)
    )
    return net


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


def _lockstep(pd, plan, trial, init):
    """Train the nets of `trial` from copies of `init` in one shared loop
    over one batch index stream; returns every node's net by key, in plan
    order.

    As a phased trainee enters its last phase, the bytes of the blocks that
    phase leaves untouched are recorded; an AssertionError names the trainee
    and the block unless they are unchanged when training ends.
    """
    # steps run one at a time, so every optimizer shares one scratch buffer
    work = np.empty((2, init.flat.size), init.dtype)
    nets = {}
    trainees = []  # (node, net, net read below its blocks, prefix key, optimizer)
    for node in trial.trained:
        source = node.anchor or node.key
        nets[node.key] = (init.copy() if node.anchor is None
                          else _partner(nets[node.anchor], node.blocks))
        trainees.append((
            node, nets[node.key], nets[source], (source, node.role),
            Optimizer(plan.optimizer, plan.schedule,
                      lr_block_scale=dict(node.retraining.lr_scales),
                      wd_block_scale=dict(node.retraining.wd_scales),
                      work=work)))
    frozen = []  # (node, net, block, its bytes as the node's last phase began)
    t = 0
    epoch = 0
    while t < plan.steps:
        eseed = subseed(plan.master_seed, "shuffle", epoch)
        for batch in paired_batches(pd, plan.batch_size, eseed):
            if t >= plan.steps:
                break
            views = {"clean": batch.clean_x, "skewed": batch.skew_x}
            prefixes = {}
            computed = []  # (node, net, optimizer, update blocks, gradient)
            for node, net, source, view, optimizer in trainees:
                phases = node.retraining.phases
                blocks = node.retraining.blocks_at(t, node.blocks)
                if phases and t == phases[-1][0]:
                    frozen += [(node, net, b, net.block_bytes(b))
                               for b in range(net.m) if b not in blocks]
                if not blocks:
                    continue
                s = min(blocks)
                try:
                    if view not in prefixes:
                        prefixes[view] = _Prefix(source, views[node.role])
                    x = prefixes[view].entering(s)
                    _, grad = loss_and_grad(net, x, batch.labels, start=s)
                except NumericError as exc:
                    raise _diverged(node, exc, t) from exc
                computed.append((node, net, optimizer, blocks, grad))
            if trial.debug_sync:
                partners = [c for c in computed if c[0].anchor is not None]
                if partners:
                    node, net, _, blocks, grad = partners[t % len(partners)]
                    _check_shared_path(node, net, views[node.role], batch.labels,
                                       blocks, grad, t)
            for node, net, optimizer, blocks, grad in computed:
                try:
                    optimizer.step(net, grad, blocks, t)
                except NumericError as exc:
                    raise _diverged(node, exc, t) from exc
            t += 1
        epoch += 1
    for node, net, b, before in frozen:
        if net.block_bytes(b) != before:
            raise AssertionError(
                f"{node.label}: frozen block {b} changed during its last phase")
    for node in trial.nodes:
        net = nets.get(node.key)
        if net is None:  # a stand-in, not trained
            nets[node.key] = nets[node.twin].copy()
            continue
        if node.anchor is not None:
            sync_blocks(net, nets[node.anchor],
                        [b for b in range(net.m) if b not in node.blocks])
        twin = nets.get(node.twin)
        if twin is not None and net.flat.tobytes() != twin.flat.tobytes():
            raise AssertionError(f"{node.label} differs from anchor:{node.twin}, "
                                 "which it must reproduce")
    return {node.key: nets[node.key] for node in trial.nodes}


def _diverged(node, exc, t):
    """The TrainingDiverged for a node's NumericError at step t."""
    return TrainingDiverged(f"{node.label}: {exc} at step {t}", step=t,
                            block=exc.block_index)


def _check_shared_path(node, net, view, labels, blocks, shared_grad, t):
    """Recompute a partner's gradient over its whole net from the raw view;
    each updated block's slice must equal the shared-prefix gradient's byte
    for byte."""
    try:
        _, full = loss_and_grad(net, view, labels)
    except NumericError as exc:
        raise _diverged(node, exc, t) from exc
    offsets = net.block_offsets
    for b in blocks:
        lo, hi = offsets[b], offsets[b + 1]
        if full[lo:hi].tobytes() != shared_grad[lo:hi].tobytes():
            raise AssertionError(
                f"shared-prefix gradient of {node.label} in block {b} differs "
                f"from its full pass at step {t}"
            )


# --------------------------------------------------------------------------
# public entry points: each training one builds a plan and trains it

@dataclass(frozen=True)
class FamilyOutcome:
    nets: dict  # evaluation key -> BlockNet, in plan order
    plan: TrialPlan


def _train(spec, pd, plan, trial, dtype, init_from):
    """Train `trial` from the warm-start net `init_from`, else from scratch."""
    if init_from is None:
        init = build_net(spec, seed=plan.master_seed, dtype=dtype)
    elif init_from.spec != spec:
        raise UsageError("warmstart checkpoint spec differs from requested spec")
    else:
        init = BlockNet(spec, init_from.params, dtype)
    return FamilyOutcome(_lockstep(pd, plan, trial, init), trial)


def train_single(spec: NetSpec, pd: PairedDataset, plan: TrainPlan, role: str,
                 dtype=np.float32, init_from=None) -> BlockNet:
    """Direct training of one network on dataset role `role`."""
    trial = TrialPlan((_anchor_node(role, spec.m),))
    return _train(spec, pd, plan, trial, dtype, init_from).nets[role]


def train_pair(spec: NetSpec, pd: PairedDataset, plan: TrainPlan, role: str,
               A: InterventionSet, dtype=np.float32, debug_sync=False,
               init_from=None) -> FamilyOutcome:
    """Train an anchor on `role` and one counterfactually intervened partner
    in lockstep; the partner is trained even for a degenerate set."""
    nodes = (_anchor_node(role, spec.m), _partner_node(role, A, spec.m))
    return _train(spec, pd, plan, TrialPlan(nodes, debug_sync), dtype, init_from)


def train_family(spec: NetSpec, pd: PairedDataset, plan: TrainPlan, sets,
                 dtype=np.float32, debug_sync=False, init_from=None,
                 retrainings=None) -> FamilyOutcome:
    """Train the nets of `trial_plan(spec.m, sets, retrainings, debug_sync)`
    in one lockstep run, so each anchor is trained exactly once."""
    trial = trial_plan(spec.m, sets, retrainings, debug_sync)
    return _train(spec, pd, plan, trial, dtype, init_from)


def evaluate_family(fam: FamilyOutcome, views, batch_size=512) -> dict:
    """One EvalReport per view for every node of `fam.plan`, under its key,
    equal byte for byte to `evaluate(net, view.pixels, view.labels,
    batch_size)`.

    Each view is scored in `evaluate`'s chunks, and a net's mispredictions
    are summed over them. Per chunk, one `_Prefix` per net that others read
    (an anchor) or that reads no other (a retraining) runs its blocks once,
    and every net reading it is scored from the activation entering its
    start block. One chunk's prefix lives at a time, and every pass takes
    its buffers from one `Workspace`. A stand-in is not scored: its reports
    are its twin's.
    """
    if not fam.nets.keys() >= set(ROLES):
        raise UsageError("evaluate_family needs both anchors, as train_family gives")
    if any(len(view.labels) == 0 for view in views):
        raise UsageError("empty test view")
    groups = {}  # the key of the net whose prefix they read -> its scored nodes
    for node in fam.plan.nodes:
        if node.twin is None:
            groups.setdefault(node.anchor or node.key, []).append(node)
    anchor = fam.nets[ROLES[0]]
    work = Workspace(anchor.spec, anchor.dtype,
                     [len(view.labels) for view in views], batch_size)
    reports = {}
    for view in views:
        wrong = {}
        for lo in range(0, len(view.labels), batch_size):
            chunk = slice(lo, lo + batch_size)
            for source, members in groups.items():
                prefix = _Prefix(fam.nets[source], view.pixels[chunk], work)
                for node in members:
                    report = evaluate(fam.nets[node.key], prefix.entering(node.start),
                                      view.labels[chunk], batch_size,
                                      start=node.start, work=work)
                    wrong[node.key] = wrong.get(node.key, 0) + report.mispredictions
        for key, count in wrong.items():
            reports.setdefault(key, []).append(EvalReport(count, len(view.labels)))
    for node in fam.plan.nodes:
        if node.twin is not None:
            reports[node.key] = list(reports[node.twin])
    return reports
