"""Lockstep counterfactual training.

An anchor network trains on its own dataset role while intervened partners
train alongside it. A partner with intervention set A consumes the opposite
role's batches and updates only the blocks in A; its remaining blocks are
the anchor's own arrays, shared by reference for the whole run, so every
in-place anchor update is the partner's update too. Everything draws
batches from one shared index stream, so every model gets equal exposure
and the whole procedure is a pure function of (spec, data, plan, A).

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
per (anchor, test view) it runs the anchor's blocks once, in the chunks
`evaluate` uses, and keeps each block's activation while that view is
scored. The anchor and each partner are scored from the activation entering
their start block: m - 1 for the anchor, min(A) for a partner. Every report
equals a plain `evaluate(net, view)` byte for byte.

Two degenerate equivalences hold bit-exactly and are used as oracles: A = {}
reproduces the anchor, and A = [m] reproduces a direct training run on the
opposite role with the same seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, TrainingDiverged, UsageError
from .netcore import (
    BlockNet,
    NetSpec,
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
    "PairOutcome",
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
    anchor_role: str
    steps: int
    batch_size: int
    master_seed: int
    optimizer: OptimizerConfig
    schedule: ScheduleConfig

    def validate(self):
        if self.anchor_role not in ROLES:
            raise UsageError(f"anchor_role must be one of {ROLES}")
        if self.steps <= 0 or self.batch_size <= 0:
            raise UsageError("steps and batch_size must be positive")
        if self.schedule.total_steps != self.steps:
            raise UsageError("schedule.total_steps must equal plan steps")
        self.optimizer.validate()
        self.schedule.validate(self.optimizer.peak_lr)
        return self


def _other_role(role):
    return "skewed" if role == "clean" else "clean"


# --------------------------------------------------------------------------
# trainees

@dataclass
class _Trainee:
    name: str
    net: BlockNet
    data_role: str
    update_blocks: list
    anchor: _Trainee | None = None  # a partner's blocks outside A alias this net
    optimizer: Optimizer | None = None
    updates: int = 0


def _anchor(name, net, role):
    return _Trainee(name=name, net=net, data_role=role, update_blocks=list(range(net.m)))


def _partner(name, anchor, A):
    """A partner of `anchor` with its own copy of the anchor's buffer, whose
    blocks outside A read the anchor's arrays until training ends."""
    net = anchor.net.copy()
    net.params.update(
        (k, anchor.net.params[k])
        for b in range(net.m) if b not in A.members
        for k in net.block_keys(b)
    )
    return _Trainee(
        name=name,
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
    """One net's forward activations on one view, block by block, as asked
    for. With a chunk size, each block runs in `evaluate`'s chunks, gathered
    into one array that keeps the chunks' memory layout (a reduction's bytes
    depend on it)."""

    def __init__(self, net, x, chunk=None):
        self.net = net
        self.chunk = chunk
        self.acts = [net._ingest(x)]  # acts[b] is the activation entering block b

    def entering(self, s):
        while len(self.acts) <= s:
            self.acts.append(self._block(len(self.acts) - 1))
        return self.acts[s]

    def _block(self, b):
        x = self.acts[b]
        if self.chunk is None:
            return self.net.forward(x, b, b + 1)
        out = None
        for c in range(0, len(x), self.chunk):
            y = self.net.forward(x[c : c + self.chunk], b, b + 1)
            if out is None:
                out = np.empty_like(y, shape=(len(x), *y.shape[1:]))
            out[c : c + len(y)] = y
        return out


def _lockstep(pd, plan, trainees, debug_sync=False, lr_scales=None, wd_scales=None,
              phase_blocks=None, on_step_end=None):
    """Run the shared training loop; trainees share one batch index stream.

    phase_blocks: optional callable t -> {name: block list} overriding each
    trainee's update set per step (used by the freezing protocol).
    on_step_end: optional callable (t, {name: trainee}) invoked after the
    step's updates.
    """
    by_name = {tr.name: tr for tr in trainees}
    for tr in trainees:
        tr.optimizer = Optimizer(
            plan.optimizer,
            plan.schedule,
            lr_block_scale=dict(lr_scales or {}) if tr.anchor is None else {},
            wd_block_scale=dict(wd_scales or {}) if tr.anchor is None else {},
        )
    t = 0
    epoch = 0
    while t < plan.steps:
        eseed = subseed(plan.master_seed, "shuffle", epoch)
        for batch in paired_batches(pd, plan.batch_size, eseed):
            if t >= plan.steps:
                break
            views = {"clean": batch.clean_x, "skewed": batch.skew_x}
            phase = phase_blocks(t) if phase_blocks is not None else {}
            prefixes = {}
            computed = []  # (trainee, update blocks, gradients by name)
            for tr in trainees:
                blocks = phase.get(tr.name, tr.update_blocks)
                if not blocks:
                    continue
                s = min(blocks)
                source = tr.anchor or tr
                key = (source.name, tr.data_role)
                try:
                    if key not in prefixes:
                        prefixes[key] = _Prefix(source.net, views[tr.data_role])
                    x = prefixes[key].entering(s)
                    _, grads = loss_and_grad(tr.net, x, batch.labels, start=s)
                except NumericError as exc:
                    raise TrainingDiverged(
                        f"{tr.name}: {exc} at step {t}", step=t
                    ) from exc
                computed.append((tr, blocks, grads))
            if debug_sync:
                partners = [c for c in computed if c[0].anchor is not None]
                if partners:
                    tr, blocks, grads = partners[t % len(partners)]
                    _check_shared_path(tr, views[tr.data_role], batch.labels,
                                       blocks, grads, t)
            for tr, blocks, grads in computed:
                tr.optimizer.step(tr.net, grads, blocks, t)
                tr.updates += 1
            if on_step_end is not None:
                on_step_end(t, by_name)
            t += 1
        epoch += 1
    for tr in trainees:
        if tr.anchor is not None:
            sync_blocks(tr.net, tr.anchor.net,
                        [b for b in range(tr.net.m) if b not in tr.update_blocks])
    return by_name


def _check_shared_path(tr, view, labels, blocks, shared_grads, t):
    """Recompute a partner's gradients over its whole net from the raw view;
    they must equal the shared-prefix gradients byte for byte."""
    try:
        _, full = loss_and_grad(tr.net, view, labels)
    except NumericError as exc:
        raise TrainingDiverged(f"{tr.name}: {exc} at step {t}", step=t) from exc
    for b in blocks:
        for k in tr.net.block_keys(b):
            if full[k].tobytes() != shared_grads[k].tobytes():
                raise AssertionError(
                    f"shared-prefix gradient of {tr.name} at {k} differs from "
                    f"its full pass at step {t}"
                )


# --------------------------------------------------------------------------
# public training entry points

def train_single(spec: NetSpec, pd: PairedDataset, plan: TrainPlan,
                 dtype=np.float32, init_from=None, lr_scales=None,
                 wd_scales=None, phase_blocks=None, on_step_end=None) -> BlockNet:
    """Direct training of one network on its plan's dataset role."""
    plan.validate()
    net = _initial_net(spec, plan, dtype, init_from)
    anchor = _anchor("anchor", net, plan.anchor_role)
    _lockstep(pd, plan, [anchor], lr_scales=lr_scales, wd_scales=wd_scales,
              phase_blocks=phase_blocks, on_step_end=on_step_end)
    return net


@dataclass(frozen=True)
class PairOutcome:
    anchor: BlockNet
    intervened: BlockNet
    A: InterventionSet
    steps: int
    master_seed: int
    update_counts: dict


def train_pair(spec: NetSpec, pd: PairedDataset, plan: TrainPlan,
               A: InterventionSet, dtype=np.float32, debug_sync=False,
               init_from=None) -> PairOutcome:
    """Train an anchor and one counterfactually intervened partner in lockstep."""
    plan.validate()
    if A.m != spec.m:
        raise UsageError(f"intervention set has m={A.m}, spec has m={spec.m}")
    anchor = _anchor("anchor", _initial_net(spec, plan, dtype, init_from),
                     plan.anchor_role)
    partner = _partner("intervened", anchor, A)  # shared initial weights
    done = _lockstep(pd, plan, [anchor, partner], debug_sync=debug_sync)
    return PairOutcome(
        anchor=anchor.net,
        intervened=partner.net,
        A=A,
        steps=plan.steps,
        master_seed=plan.master_seed,
        update_counts={name: tr.updates for name, tr in done.items()},
    )


@dataclass(frozen=True)
class FamilyOutcome:
    anchors: dict  # role -> BlockNet
    intervened: dict  # (direction role, canonical set) -> BlockNet
    sets: list
    steps: int
    update_counts: dict


def train_family(spec: NetSpec, pd: PairedDataset, plan_clean: TrainPlan,
                 plan_skewed: TrainPlan, sets, dtype=np.float32,
                 debug_sync=False, init_from=None) -> FamilyOutcome:
    """Both anchors plus one intervened model per (direction, set), trained in
    a single lockstep pass so each anchor is trained exactly once."""
    plan_clean.validate()
    plan_skewed.validate()
    if plan_clean.anchor_role != "clean" or plan_skewed.anchor_role != "skewed":
        raise UsageError("plans must carry their own anchor roles")
    for attr in ("steps", "batch_size", "master_seed", "optimizer", "schedule"):
        if getattr(plan_clean, attr) != getattr(plan_skewed, attr):
            raise UsageError(f"mirror-image plans must share {attr}")
    sets = list(sets)
    for A in sets:
        if A.m != spec.m:
            raise UsageError(f"intervention set has m={A.m}, spec has m={spec.m}")
    init = _initial_net(spec, plan_clean, dtype, init_from)
    anchors = [_anchor(f"anchor:{role}", init.copy(), role) for role in ROLES]
    trainees = list(anchors)
    seen = set()
    for A in sets:
        key = A.canonical()
        if key in seen:
            continue
        seen.add(key)
        for anchor in anchors:
            trainees.append(
                _partner(f"intervened:{anchor.data_role}:{key}", anchor, A)
            )
    done = _lockstep(pd, plan_clean, trainees, debug_sync=debug_sync)
    intervened = {}
    for A in sets:
        key = A.canonical()
        for role in ROLES:
            intervened[(role, key)] = done[f"intervened:{role}:{key}"].net
    return FamilyOutcome(
        anchors={role: done[f"anchor:{role}"].net for role in ROLES},
        intervened=intervened,
        sets=sets,
        steps=plan_clean.steps,
        update_counts={name: tr.updates for name, tr in done.items()},
    )


def evaluate_family(fam: FamilyOutcome, views, batch_size=512) -> dict:
    """One EvalReport per view for both anchors and every partner of a
    non-empty set, keyed by anchor role or (direction role, canonical set);
    each equals `evaluate(net, view, batch_size=batch_size)` byte for byte.

    A partner holds its anchor's bytes below min(A), so per (anchor, view)
    one `_Prefix` runs the anchor's blocks once, in `evaluate`'s chunks, and
    every net is scored from the activation entering its start block: m - 1
    for the anchor, min(A) for a partner. The prefix holds each activation
    it has computed until the view is done.
    """
    reports = {}
    for role, anchor in fam.anchors.items():
        starts = {role: (anchor.m - 1, anchor)}
        for A in fam.sets:
            if not A.is_empty:
                key = (role, A.canonical())
                starts[key] = (min(A.members), fam.intervened[key])
        for view in views:
            prefix = _Prefix(anchor, view.pixels, batch_size)
            for name, (s, net) in starts.items():
                reports.setdefault(name, []).append(
                    evaluate(net, prefix.entering(s), view.labels, batch_size, start=s)
                )
    return reports
