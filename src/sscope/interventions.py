"""Layer-wise mitigation experiments.

Retraining on skewed data is repeated with one knob turned per run: the
learning rate or weight decay of the targeted blocks scaled by a fixed
factor, or a freezing protocol (last block, then everything, then a single
kept block; the first two phases are each 5% of the steps). Mitigation
extent normalizes the clean-test recovery against the clean/skewed anchor
gap, so 0 means "as bad as the skewed anchor" and 1 means "fully
recovered".

`retrain_with_intervention` and `freeze_protocol` describe a retraining as a
`counterfact.Retraining` value (block scale factors, or a phase schedule);
`counterfact.train_family` trains any number of them alongside the anchors
in one lockstep run, so a mitigation trial draws each batch once. Scaling
applies over the full schedule. A factor of 1 must reproduce the skewed
anchor bit-exactly, which pins the retraining loop to the anchor's exact
arithmetic. The engine checks the freezing protocol's contract: the frozen
blocks end with the bytes they held as the last phase began.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .counterfact import Retraining
from .errors import ConfigError, UsageError
from .metrics import GAP_FLOOR, LocalizationProfile

__all__ = [
    "InterventionKind",
    "TargetBlocks",
    "LR_UP",
    "LR_DOWN",
    "WD_UP",
    "WD_DOWN",
    "FREEZE",
    "mitigation_extent",
    "retrain_with_intervention",
    "freeze_protocol",
    "build_mitigation_regression",
]


@dataclass(frozen=True)
class InterventionKind:
    variant: str  # lr_scale | wd_scale | freeze
    factor: float = 1.0

    def __post_init__(self):
        if self.variant not in ("lr_scale", "wd_scale", "freeze"):
            raise UsageError(f"unknown intervention variant {self.variant!r}")
        if self.variant != "freeze" and self.factor <= 0:
            raise UsageError("scale factor must be positive")

    def label(self):
        if self.variant == "freeze":
            return "freeze"
        arrow = "up" if self.factor > 1 else "down"
        return f"{self.variant}_{arrow}"


LR_UP = InterventionKind("lr_scale", 3.0)
LR_DOWN = InterventionKind("lr_scale", 1.0 / 3.0)
WD_UP = InterventionKind("wd_scale", 10.0)
WD_DOWN = InterventionKind("wd_scale", 0.1)
FREEZE = InterventionKind("freeze")


@dataclass(frozen=True)
class TargetBlocks:
    blocks: tuple  # one index, or two consecutive indices

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(int(b) for b in self.blocks))

    def validate(self, m):
        if len(self.blocks) not in (1, 2):
            raise UsageError("targets must be one block or two consecutive blocks")
        if any(not 0 <= b < m for b in self.blocks):
            raise UsageError(f"target blocks {self.blocks} outside [0, {m})")
        if len(self.blocks) == 2 and self.blocks[1] != self.blocks[0] + 1:
            raise UsageError(f"double target {self.blocks} is not consecutive")
        return self

    @property
    def is_double(self):
        return len(self.blocks) == 2

    def includes_first(self):
        return 0 in self.blocks

    def includes_last(self, m):
        return (m - 1) in self.blocks

    def label(self):
        return "+".join(map(str, self.blocks))


def mitigation_extent(err_intervened, err_c, err_s):
    """(err_s - err_i) / (err_s - err_c); None when the gap is below the floor.

    Equivalent to the accuracy-difference form, so the definition is invariant
    under exchanging accuracy for error rate in numerator and denominator.
    """
    err_i = Fraction(err_intervened)
    err_c = Fraction(err_c)
    err_s = Fraction(err_s)
    gap = err_s - err_c
    if abs(gap) < GAP_FLOOR:
        return None
    return float((err_s - err_i) / gap)


def retrain_with_intervention(kind: InterventionKind, targets: TargetBlocks,
                              m: int) -> Retraining:
    """The skewed retraining with the LR or WD of the targeted blocks scaled
    by the kind's factor over the full schedule."""
    targets.validate(m)
    if kind.variant == "freeze":
        raise UsageError("use freeze_protocol for the freezing intervention")
    scales = {b: kind.factor for b in targets.blocks}
    if kind.variant == "lr_scale":
        return Retraining(lr_scales=scales)
    return Retraining(wd_scales=scales)


def freeze_protocol(m: int, steps: int, keep_block: int) -> Retraining:
    """Three-phase freezing over `steps` steps: the last block only for t
    steps, all blocks for t steps, then only keep_block for the remainder,
    where t is 5% of the steps rounded half to even. ConfigError unless t is
    at least 1, that is unless steps >= 11."""
    if not 0 <= keep_block < m:
        raise UsageError(f"keep_block {keep_block} outside [0, {m})")
    t = round(0.05 * steps)
    if t < 1:
        raise ConfigError(
            f"freeze phases must be non-empty, got t1={t}, t2={t} of {steps} steps")
    return Retraining(phases=((0, (m - 1,)), (t, tuple(range(m))),
                              (2 * t, (keep_block,))))


REGRESSION_COLUMNS = (
    "enc", "fgt", "enc_x_fgt", "enc_sq", "fgt_sq", "first", "last", "double",
    "const",
)


def build_mitigation_regression(profiles: dict, rows) -> tuple:
    """Assemble (response, design columns) for the mitigation regression.

    profiles maps a setting key to its LocalizationProfile; rows are
    (setting_key, TargetBlocks, extent) triples. Enc/Fgt for a double target
    are the summed per-block rates of the pair.
    """
    y = []
    data = {name: [] for name in REGRESSION_COLUMNS}
    for setting, target, extent in rows:
        if setting not in profiles:
            raise UsageError(f"no localization profile for setting {setting!r}")
        prof: LocalizationProfile = profiles[setting]
        target.validate(prof.m)
        enc = float(sum(prof.enc_rates[b] for b in target.blocks))
        fgt = float(sum(prof.fgt_rates[b] for b in target.blocks))
        data["enc"].append(enc)
        data["fgt"].append(fgt)
        data["enc_x_fgt"].append(enc * fgt)
        data["enc_sq"].append(enc * enc)
        data["fgt_sq"].append(fgt * fgt)
        data["first"].append(1.0 if target.includes_first() else 0.0)
        data["last"].append(1.0 if target.includes_last(prof.m) else 0.0)
        data["double"].append(1.0 if target.is_double else 0.0)
        data["const"].append(1.0)
        y.append(float(extent))
    return np.asarray(y), {k: np.asarray(v) for k, v in data.items()}
