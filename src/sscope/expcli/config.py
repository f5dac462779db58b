"""Experiment configuration: JSON grammar, validation, content hashing.

A config file is one JSON object (grammar documented in the README). The
identity of a trained model is the content hash of the result-determining
fields plus its seed label, role and intervention set; execution details
(output directory, worker count) stay out of the hash, so rerunning with a
different --out or --workers finds the same run ids.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field

from ..counterfact import InterventionSet
from ..errors import ConfigError, UsageError
from ..rng import subseed
from ..skewlab import SkewFrequency, WatermarkSkewSpec
from . import presets

__all__ = ["ExperimentConfig", "run_id", "trial_seed"]

_FAMILIES = ("single", "suffix", "explicit")
_MODES = ("scratch", "warmstart")
_FREQ_NAMES = {"common": (127, 128), "rare": (15, 16)}


@dataclass(frozen=True)
class ExperimentConfig:
    task: str = "bars16"
    skew_kind: str = "watermark"
    skew_strength: float = 0.75
    skew_frequency: tuple = (127, 128)
    patch_size: int = 10
    net: str = "minicnn6"
    optimizer: str = "adamw"
    optimizer_overrides: dict = field(default_factory=dict)
    mode: str = "scratch"
    warmstart_checkpoint: str | None = None
    family: str = "suffix"
    explicit_sets: tuple = ()
    seeds: tuple = (0, 1, 2, 3, 4)
    steps: int = 1200
    batch_size: int = 32
    train_n: int = 4096
    test_n: int = 1024
    master_seed: int = 0
    precision: int = 32
    out: str = "runs/out"
    workers: int = 1
    debug_sync: bool = False

    # ---- construction -----------------------------------------------------

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        data = dict(raw)
        skew = data.pop("skew", {})
        if skew:
            data["skew_kind"] = skew.get("kind", "watermark")
            if "strength" in skew:
                data["skew_strength"] = presets.blend_strength(skew["strength"])
            if "frequency" in skew:
                data["skew_frequency"] = _parse_frequency(skew["frequency"])
            if "patch_size" in skew:
                data["patch_size"] = int(skew["patch_size"])
        known = set(cls.__dataclass_fields__)
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        for tup_field in ("seeds", "explicit_sets", "skew_frequency"):
            if tup_field in data:
                data[tup_field] = tuple(data[tup_field])
        return cls(**data).validate()

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"malformed config {path}: {exc}") from None
        if not isinstance(raw, dict):
            raise ConfigError(f"config {path} must hold a JSON object")
        return cls.from_dict(raw)

    def validate(self) -> "ExperimentConfig":
        if self.family not in _FAMILIES:
            raise ConfigError(f"family must be one of {_FAMILIES}")
        if self.mode not in _MODES:
            raise ConfigError(f"mode must be one of {_MODES}")
        if self.mode == "warmstart" and not self.warmstart_checkpoint:
            raise ConfigError("warmstart mode needs warmstart_checkpoint")
        if self.skew_kind not in ("watermark", "sampling"):
            raise ConfigError(f"unknown skew kind {self.skew_kind!r}")
        if not self.seeds:
            raise ConfigError("seeds must be non-empty")
        if self.family == "explicit" and not self.explicit_sets:
            raise ConfigError("explicit family needs explicit_sets")
        if self.steps <= 0 or self.batch_size <= 0:
            raise ConfigError("steps and batch_size must be positive")
        if self.precision not in (32, 64):
            raise ConfigError("precision must be 32 or 64")
        try:
            self.frequency()
        except (TypeError, UsageError):
            raise ConfigError(f"bad skew_frequency {self.skew_frequency!r}") from None
        # resolve presets and set strings now so bad ones fail at config time
        self.task_spec()
        presets.optimizer_config(self.optimizer, self.optimizer_overrides)
        if self.explicit_sets:
            m = self.net_spec().m
            for text in self.explicit_sets:
                if not isinstance(text, str):
                    raise ConfigError(f"explicit_sets entry {text!r} is not a string")
                try:
                    InterventionSet.parse(text, m)
                except UsageError as exc:
                    raise ConfigError(f"explicit_sets: {exc}") from None
        return self

    # ---- resolution -------------------------------------------------------

    def frequency(self) -> SkewFrequency:
        return SkewFrequency(*self.skew_frequency)

    def watermark(self) -> WatermarkSkewSpec | None:
        if self.skew_kind != "watermark":
            return None
        return WatermarkSkewSpec(
            patch_size=self.patch_size, blend_strength=self.skew_strength
        )

    def task_spec(self):
        return presets.task_spec(self.task, self.watermark())

    def net_spec(self):
        return presets.net_spec(self.net, self.task_spec())

    def cell_dict(self) -> dict:
        """The result-determining fields (no out/workers/debug plumbing)."""
        d = asdict(self)
        for k in ("out", "workers", "debug_sync", "seeds"):
            d.pop(k)
        d["explicit_sets"] = list(d["explicit_sets"])
        d["skew_frequency"] = list(d["skew_frequency"])
        return d

    def to_dict(self) -> dict:
        """Full round-trippable dict (from_dict(to_dict()) == self)."""
        d = asdict(self)
        for k in ("seeds", "explicit_sets", "skew_frequency"):
            d[k] = list(d[k])
        return d


def _parse_frequency(value):
    """A preset name, "num/den" or a [num, den] pair -> (num, den)."""
    if isinstance(value, str) and value in _FREQ_NAMES:
        return _FREQ_NAMES[value]
    parts = value.split("/") if isinstance(value, str) else value
    try:
        num, den = (int(p) for p in parts)
    except (TypeError, ValueError):
        raise ConfigError(f"cannot parse frequency {value!r}") from None
    return (num, den)


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def run_id(config: ExperimentConfig, seed: int, role: str, set_repr: str = "") -> str:
    payload = _canonical(
        {"cell": config.cell_dict(), "seed": seed, "role": role, "set": set_repr}
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def trial_id(config: ExperimentConfig, seed: int) -> str:
    payload = _canonical({"cell": config.cell_dict(), "seed": seed})
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def trial_seed(config: ExperimentConfig, seed: int) -> int:
    """Per-trial master seed: split off the grid's master by trial identity."""
    return subseed(config.master_seed, "trial", trial_id(config, seed))
