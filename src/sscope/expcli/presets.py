"""Named desk-scale presets for nets, tasks, and optimizers.

MiniCNN-6 mirrors the six-block shape used throughout the analyses: a conv
stem, three conv+pool stages, a final conv stage, and global-avg-pool into
the classifier. Its block boundaries are this artifact's own choice; no
equivalence to any larger architecture's partition is claimed. MLP-4 exists
for fast bit-exactness tests.

Optimizer peak learning rates are tuned for these small nets; decay, momentum
and warmup structure follow the usual AdamW / Nesterov-SGD conventions
(AdamW wd 0.01, SGD wd 1e-4 momentum 0.9, warmup 5% from scratch or 2% when
warm-started, min_lr = peak / 100).
"""

from __future__ import annotations

from .. import netcore as nc
from ..errors import ConfigError, UsageError
from ..optim import ADAMW, SGD_NESTEROV, OptimizerConfig, ScheduleConfig
from ..skewlab import STRONG, WEAK, SyntheticTaskSpec, WatermarkSkewSpec

__all__ = [
    "net_spec",
    "task_spec",
    "optimizer_config",
    "schedule_config",
    "NET_PRESETS",
    "TASK_PRESETS",
    "OPTIMIZER_PRESETS",
]


def _mlp4(channels, size, class_count):
    d = channels * size * size
    h = 64
    return nc.NetSpec(
        [
            [nc.Flatten(), nc.Dense(d, h), nc.ReLU()],
            [nc.Dense(h, h), nc.ReLU()],
            [nc.Dense(h, h), nc.ReLU()],
            [nc.Dense(h, class_count)],
        ],
        class_count,
        (channels, size, size),
    )


def _minicnn6(channels, size, class_count):
    if size % 8:
        raise ConfigError("minicnn6 needs the image size divisible by 8")
    return nc.NetSpec(
        [
            [nc.Conv2d(channels, 4, 3, pad=1), nc.ReLU()],
            [nc.Conv2d(4, 8, 3, pad=1), nc.ReLU(), nc.MaxPool(2)],
            [nc.Conv2d(8, 8, 3, pad=1), nc.ReLU(), nc.MaxPool(2)],
            [nc.Conv2d(8, 16, 3, pad=1), nc.ReLU(), nc.MaxPool(2)],
            [nc.Conv2d(16, 16, 3, pad=1), nc.ReLU()],
            [nc.GlobalAvgPool(), nc.Dense(16, class_count)],
        ],
        class_count,
        (channels, size, size),
    )


NET_PRESETS = {"mlp4": _mlp4, "minicnn6": _minicnn6}

TASK_PRESETS = {
    "bars16": dict(class_count=8, channels=1, size=16, kind="bars"),
    "bars32": dict(class_count=8, channels=1, size=32, kind="bars"),
    "blobs16": dict(class_count=8, channels=1, size=16, kind="blobs"),
    "tint2": dict(class_count=2, channels=1, size=16, kind="bars",
                  attribute_groups=2),
}

OPTIMIZER_PRESETS = {
    "adamw": dict(kind=ADAMW, peak_lr=3e-3, weight_decay=0.01),
    "sgd": dict(kind=SGD_NESTEROV, peak_lr=3e-2, weight_decay=1e-4, momentum=0.9),
}

_STRENGTH_NAMES = {"strong": STRONG, "weak": WEAK}


def task_spec(name: str, watermark: WatermarkSkewSpec | None) -> SyntheticTaskSpec:
    if name not in TASK_PRESETS:
        raise ConfigError(f"unknown task preset {name!r}")
    return SyntheticTaskSpec(watermark=watermark, **TASK_PRESETS[name]).validate()


def net_spec(name: str, task: SyntheticTaskSpec) -> nc.NetSpec:
    if name not in NET_PRESETS:
        raise ConfigError(f"unknown net preset {name!r}")
    return NET_PRESETS[name](task.channels, task.size, task.class_count).validate()


def optimizer_config(name: str, overrides: dict | None = None) -> OptimizerConfig:
    if name not in OPTIMIZER_PRESETS:
        raise ConfigError(f"unknown optimizer preset {name!r}")
    kw = dict(OPTIMIZER_PRESETS[name])
    for key, val in (overrides or {}).items():
        if key not in ("peak_lr", "weight_decay", "momentum", "epsilon"):
            raise ConfigError(f"cannot override optimizer field {key!r}")
        if isinstance(val, bool) or not isinstance(val, (int, float)):
            raise ConfigError(f"optimizer override {key} must be a number, got {val!r}")
        kw[key] = val
    try:
        return OptimizerConfig(**kw).validate()
    except UsageError as exc:
        raise ConfigError(f"optimizer_overrides {overrides}: {exc}") from None


def schedule_config(steps: int, mode: str, peak_lr: float) -> ScheduleConfig:
    warmup = 0.02 if mode == "warmstart" else 0.05
    return ScheduleConfig(
        total_steps=steps, warmup_share=warmup, min_lr=peak_lr / 100
    ).validate(peak_lr)


def blend_strength(value) -> float:
    if isinstance(value, str):
        if value not in _STRENGTH_NAMES:
            raise ConfigError(f"unknown blend strength {value!r}")
        return _STRENGTH_NAMES[value]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"blend strength must be a name or a number, got {value!r}")
    return float(value)
