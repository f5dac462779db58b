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
import re
from dataclasses import asdict, dataclass, field

from ..counterfact import InterventionSet
from ..errors import ConfigError, UsageError
from ..rng import subseed
from ..skewlab import COMMON, RARE, STRONG, SkewFrequency, WatermarkSkewSpec
from . import presets

__all__ = ["ExperimentConfig", "run_id", "trial_seed"]

_FAMILIES = ("single", "suffix", "explicit")
_MODES = ("scratch", "warmstart")
_FREQ_NAMES = {name: (f.numerator, f.denominator)
               for name, f in (("common", COMMON), ("rare", RARE))}
_SKEW_KEYS = ("kind", "strength", "frequency", "patch_size")
# the type of every field but skew_frequency (parsed on its own); see _is_json
_FIELD_TYPES = dict(
    task=str, skew_kind=str, skew_strength=float, patch_size=int, net=str,
    optimizer=str, optimizer_overrides=dict, mode=str,
    warmstart_checkpoint=(str, type(None)), family=str, explicit_sets=(list, tuple),
    seeds=(list, tuple), steps=int, batch_size=int, train_n=int, test_n=int,
    master_seed=int, precision=int, out=str, workers=int, debug_sync=bool,
)


@dataclass(frozen=True)
class ExperimentConfig:
    task: str = "bars16"
    skew_kind: str = "watermark"
    skew_strength: float = STRONG
    skew_frequency: tuple = _FREQ_NAMES["common"]
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
        if not isinstance(skew, dict):
            raise ConfigError(f"skew must be a JSON object, got {skew!r}")
        if skew:
            data["skew_kind"] = skew.get("kind", "watermark")
            if "strength" in skew:
                data["skew_strength"] = presets.blend_strength(skew["strength"])
            if "frequency" in skew:
                data["skew_frequency"] = _parse_frequency(skew["frequency"])
            if "patch_size" in skew:
                data["patch_size"] = skew["patch_size"]
        unknown = set(data) - set(cls.__dataclass_fields__)
        unknown |= {f"skew.{k}" for k in skew if k not in _SKEW_KEYS}
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        for tup_field in ("seeds", "explicit_sets", "skew_frequency"):
            if isinstance(data.get(tup_field), list):
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
        for name, want in _FIELD_TYPES.items():
            if not _is_json(getattr(self, name), want):
                raise ConfigError(f"{name} has the wrong type: {getattr(self, name)!r}")
        if not all(_is_json(s, int) for s in self.seeds):
            raise ConfigError(f"seeds must be integers, got {list(self.seeds)}")
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
        repeated = sorted({s for s in self.seeds if self.seeds.count(s) > 1})
        if repeated:
            raise ConfigError(f"seeds must be distinct, but {repeated} repeat")
        if self.family == "explicit" and not self.explicit_sets:
            raise ConfigError("explicit family needs explicit_sets")
        if self.steps <= 0 or self.batch_size <= 0:
            raise ConfigError("steps and batch_size must be positive")
        if self.train_n < 1 or self.test_n < 1:
            raise ConfigError(
                f"train_n and test_n must be at least 1, got {self.train_n} "
                f"and {self.test_n}")
        if self.batch_size > self.train_n:
            raise ConfigError(
                f"batch_size {self.batch_size} exceeds train_n {self.train_n}")
        if self.precision not in (32, 64):
            raise ConfigError("precision must be 32 or 64")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        freq = self.skew_frequency
        if not (isinstance(freq, (list, tuple)) and len(freq) == 2
                and all(_is_json(p, int) for p in freq)):
            raise ConfigError(f"skew_frequency must be two integers, got {freq!r}")
        try:
            self.frequency()
        except UsageError:
            raise ConfigError(f"bad skew_frequency {freq!r}") from None
        # resolve presets and set strings now so bad ones fail at config time
        task = self.task_spec()
        if self.skew_kind == "sampling" and not task.attribute_groups:
            raise ConfigError(
                f"sampling skew needs a task with attribute groups, not {self.task}")
        presets.optimizer_config(self.optimizer, self.optimizer_overrides)
        if self.explicit_sets:
            m = self.net_spec().m
            spellings = {}
            for text in self.explicit_sets:
                if not isinstance(text, str):
                    raise ConfigError(f"explicit_sets entry {text!r} is not a string")
                try:
                    canon = InterventionSet.parse(text, m).canonical()
                except UsageError as exc:
                    raise ConfigError(f"explicit_sets: {exc}") from None
                spellings.setdefault(canon, []).append(text)
            repeated = [v for v in spellings.values() if len(v) > 1]
            if repeated:
                raise ConfigError(
                    f"explicit_sets must be distinct, but these name one set: {repeated}")
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


def _is_json(value, want):
    """isinstance for a JSON value: true and false are no numbers, and an
    integer is also a float."""
    if isinstance(value, bool):
        return want is bool
    return isinstance(value, (int, float) if want is float else want)


def _parse_frequency(value):
    """A preset name or "num/den" -> (num, den); any other value is returned
    as it is, for `validate` to check as skew_frequency."""
    if not isinstance(value, str):
        return value
    if value in _FREQ_NAMES:
        return _FREQ_NAMES[value]
    match = re.fullmatch(r"([0-9]+)/([0-9]+)", value)
    if match is None:
        raise ConfigError(f"cannot parse frequency {value!r}")
    return (int(match[1]), int(match[2]))


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
