"""Seedable, deterministic optimizers and LR schedules.

Two families: SGD with Nesterov momentum (coupled weight decay) and AdamW
(decoupled decay, applied to the parameter before the moment update, with
the fixed betas 0.9 and 0.999). Schedules are linear warmup into cosine
decay. A config or schedule checks itself once, when it is built.

An optimizer steps one BlockNet through its flat parameter buffer (see
netcore.BlockNet). Its state mirrors that layout: flat moment buffers (AdamW's
m and v, SGD's velocity v) the size of the net's buffer, and one step count
per block, since the freezing protocol steps some blocks more often than
others and AdamW's bias correction reads the block's own count. A block that
is never stepped keeps zero moments and a count of 0. Per-block
learning-rate and weight-decay scale factors support the layer-wise
mitigation experiments.

The gradient has the buffer's layout too (see netcore.loss_and_grad), so a
step needs no parameter names: it updates each maximal run of consecutive
blocks that share a learning rate scale, weight decay scale and step count
through the same slice of the parameters, the moments and the gradient,
with one slice operation per arithmetic op, and never writes the gradient.
Its temporaries live in a scratch buffer, which optimizers that step one at
a time (those of one lockstep run) share. Its scalars are a per-parameter
loop's Python floats converted to the net's dtype, which is what an array
op converts a Python float to (NEP 50), so every byte equals that loop's; a
dtype scalar just skips the conversion inside each call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError, UsageError

__all__ = ["OptimizerConfig", "ScheduleConfig", "Optimizer", "lr_at"]

SGD_NESTEROV = "sgd_nesterov"
ADAMW = "adamw"
ADAMW_BETAS = (0.9, 0.999)


@dataclass(frozen=True)
class OptimizerConfig:
    kind: str
    peak_lr: float
    weight_decay: float = 0.0
    momentum: float = 0.9
    epsilon: float = 1e-8

    def __post_init__(self):
        if self.kind not in (SGD_NESTEROV, ADAMW):
            raise UsageError(f"unknown optimizer kind {self.kind!r}")
        values = (self.peak_lr, self.weight_decay, self.momentum, self.epsilon)
        if not all(math.isfinite(v) for v in values):
            raise UsageError(
                "peak_lr, weight_decay, momentum and epsilon must be finite")
        if self.peak_lr <= 0:
            raise UsageError("peak_lr must be positive")
        if self.weight_decay < 0:
            raise UsageError("weight_decay must be >= 0")
        if not 0 <= self.momentum < 1:
            raise UsageError("momentum must be in [0, 1)")
        if self.epsilon <= 0:
            raise UsageError("epsilon must be positive")


@dataclass(frozen=True)
class ScheduleConfig:
    total_steps: int
    warmup_share: float = 0.02
    min_lr: float = 0.0

    def __post_init__(self):
        if self.total_steps <= 0:
            raise UsageError("total_steps must be positive")
        if not 0 <= self.warmup_share < 1:
            raise UsageError("warmup_share must be in [0, 1)")

    @property
    def warmup_steps(self):
        return int(round(self.warmup_share * self.total_steps))


def lr_at(t: int, schedule: ScheduleConfig, peak_lr: float) -> float:
    """Linear ramp 0 -> peak over the warmup steps, then cosine to min_lr."""
    T = schedule.total_steps
    if not 0 <= t < T:
        raise UsageError(f"step {t} outside schedule [0, {T})")
    w = schedule.warmup_steps
    if t < w:
        return peak_lr * t / w
    span = max(T - 1 - w, 1)
    frac = (t - w) / span
    return schedule.min_lr + 0.5 * (peak_lr - schedule.min_lr) * (
        1.0 + math.cos(math.pi * frac)
    )


@dataclass
class Optimizer:
    """Steps the blocks of one BlockNet; its state, created at the first
    step, has the layout of that net's flat buffer."""

    config: OptimizerConfig
    schedule: ScheduleConfig
    lr_block_scale: dict = field(default_factory=dict)
    wd_block_scale: dict = field(default_factory=dict)
    # scratch of shape (2, net.flat.size) in the net's dtype: two temporaries
    # used only inside `step`, so optimizers that never step at the same time
    # may share one (made at the first step when not given)
    work: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.m = None  # AdamW's first moment, flat; created at the first step
        self.v = None  # AdamW's second moment, or SGD's velocity
        self.block_steps = None  # updates applied to each block so far

    def _runs(self, blocks):
        """Maximal runs of consecutive blocks sharing (lr scale, wd scale,
        step count), as [first block, end block]."""
        runs = []
        prev = None
        for b in sorted(set(blocks)):
            same = (self.lr_block_scale.get(b, 1.0), self.wd_block_scale.get(b, 1.0),
                    self.block_steps[b])
            if runs and runs[-1][1] == b and same == prev:
                runs[-1][1] = b + 1
            else:
                runs.append([b, b + 1])
            prev = same
        return runs

    def step(self, net, grad, blocks, t: int):
        """Apply one update, in place, to exactly the listed blocks of net.
        `grad` has the layout of net's flat buffer (as `loss_and_grad`
        returns it); only the listed blocks' slices are read, and none is
        written."""
        if self.v is None:
            self.v = np.zeros_like(net.flat)
            if self.config.kind == ADAMW:
                self.m = np.zeros_like(net.flat)
            self.block_steps = [0] * net.m
            if self.work is None:
                self.work = np.empty((2, net.flat.size), net.flat.dtype)
            elif self.work.dtype != net.dtype or self.work.shape != (2, net.flat.size):
                raise UsageError(f"work buffer {self.work.shape} {self.work.dtype} "
                                 f"does not fit a net of {net.flat.size} {net.dtype}")
        offsets = net.block_offsets
        runs = self._runs(blocks)
        for first, end in runs:
            if not np.isfinite(grad[offsets[first] : offsets[end]]).all():
                bad = next(b for b in range(first, end)
                           if not np.isfinite(grad[offsets[b] : offsets[b + 1]]).all())
                raise NumericError(f"non-finite gradient in block {bad}", bad)
        base_lr = lr_at(t, self.schedule, self.config.peak_lr)
        f = net.flat.dtype.type
        # Each in-place op below computes what `a op b` computes, elementwise
        # with the same operands and scalars, so the bytes match the plain
        # expressions in the comments. tmp and tmp2 are the run's slices of
        # the two scratch rows.
        for first, end in runs:
            lo, hi = offsets[first], offsets[end]
            lr = base_lr * self.lr_block_scale.get(first, 1.0)
            wd = self.config.weight_decay * self.wd_block_scale.get(first, 1.0)
            p, g, v = net.flat[lo:hi], grad[lo:hi], self.v[lo:hi]
            tmp2, tmp = self.work[0, lo:hi], self.work[1, lo:hi]
            if self.config.kind == SGD_NESTEROV:
                # coupled decay g <- g + wd*p, then the velocity lookahead
                # v <- mu*v + g; p <- p - lr*(g + mu*v)
                if wd:
                    np.multiply(p, f(wd), out=tmp)
                    tmp += g
                    g, tmp = tmp, tmp2
                mu = f(self.config.momentum)
                v *= mu
                v += g
                np.multiply(v, mu, out=tmp)
                tmp += g
                tmp *= f(lr)
                p -= tmp
            else:
                # decoupled decay precedes the moment update:
                # p *= 1 - lr*wd; m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*g^2;
                # p -= lr*mhat / (sqrt(vhat) + eps)
                if wd:
                    p *= f(1.0 - lr * wd)
                b1, b2 = ADAMW_BETAS
                steps = self.block_steps[first] + 1
                m = self.m[lo:hi]
                m *= f(b1)
                np.multiply(g, f(1.0 - b1), out=tmp)
                m += tmp
                v *= f(b2)
                np.square(g, out=tmp)
                tmp *= f(1.0 - b2)
                v += tmp
                np.divide(m, f(1.0 - b1 ** steps), out=tmp)  # mhat
                tmp *= f(lr)
                np.divide(v, f(1.0 - b2 ** steps), out=tmp2)  # vhat
                np.sqrt(tmp2, out=tmp2)
                tmp2 += f(self.config.epsilon)
                tmp /= tmp2
                p -= tmp
            for b in range(first, end):
                self.block_steps[b] += 1
