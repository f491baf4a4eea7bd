"""Run configuration: the model and training dataclasses, and the one flat schema over them.

`AttentionConfig`, `HANConfig`, `TrainConfig` and `AugmentationConfig` are the
only place that holds a field's name, type and default. The CLI keys and
flags, the estimator's parameters and the checkpoint's config echo are flat
views of those fields with the nested configs inlined, and `build_configs`
is the one path from a flat mapping back to `(HANConfig, TrainConfig)`.
"""

from __future__ import annotations

import dataclasses
import types
import typing
from collections.abc import Mapping
from dataclasses import dataclass, field

from .attention import AttentionConfig
from .data import (MAX_CLASSES, MAX_FRAMES, SHREC22, AugmentationConfig, HandPartition,
                   default_partition, is_integer, resolve_partition)
from .errors import ConfigError


@dataclass(frozen=True)
class HANConfig:
    attention: AttentionConfig = field(default_factory=AttentionConfig)
    frames: int = 8
    class_count: int = 14
    partition: HandPartition = SHREC22
    pe_j: bool = True
    pe_f: bool = True
    pe_t: bool = True
    pe_fusion: bool = True
    share_j_att: bool = True
    share_t_att: bool = True

    def __post_init__(self):
        if not 1 <= self.frames <= MAX_FRAMES:
            raise ConfigError(f"frames must be in [1, {MAX_FRAMES}], got {self.frames}")
        if not 2 <= self.class_count <= MAX_CLASSES:
            raise ConfigError(f"class_count must be in [2, {MAX_CLASSES}], got {self.class_count}")

    @property
    def joint_count(self) -> int:
        return self.partition.joint_count

    def to_dict(self) -> dict:
        """Flat field values, with the partition as its name and joint lists."""
        flat = _flatten(self)
        partition = flat.pop("partition")
        return dict(flat, partition_name=partition.name, partition_parts=partition.to_lists())

    @staticmethod
    def from_dict(d: Mapping) -> "HANConfig":
        partition = HandPartition(
            parts=tuple(tuple(p) for p in d["partition_parts"]),
            name=d.get("partition_name", "custom"),
        )
        return _unflatten(HANConfig, dict(d, partition=partition))


@dataclass(frozen=True)
class TrainConfig:
    lr_init: float = 0.001
    batch_size: int = 32
    warmup_epochs: int = 5
    plateau_patience: int = 10
    decay_factor: float = 10.0
    max_decays: int = 4
    seed: int = 0
    max_epochs: int | None = None
    augmentation: AugmentationConfig | None = field(default_factory=AugmentationConfig)

    def __post_init__(self):
        if self.lr_init <= 0:
            raise ConfigError(f"lr_init must be positive, got {self.lr_init}")
        if self.decay_factor <= 1:
            raise ConfigError(f"decay_factor must be > 1, got {self.decay_factor}")
        if self.max_decays < 1:
            raise ConfigError(f"max_decays must be >= 1, got {self.max_decays}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.warmup_epochs < 0 or self.plateau_patience < 1:
            raise ConfigError("warmup_epochs must be >= 0 and plateau_patience >= 1")
        if self.max_epochs is not None and self.max_epochs < 1:
            raise ConfigError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


# fields holding a nested config, whose own fields the flat views inline
_NESTED = {"attention": AttentionConfig, "augmentation": AugmentationConfig}
_HINTS = {cls: typing.get_type_hints(cls) for cls in (HANConfig, TrainConfig, *_NESTED.values())}


def _flatten(config) -> dict:
    """Field name -> value of a config instance, nested configs inlined."""
    out = {}
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        out.update(_flatten(value) if f.name in _NESTED else {f.name: value})
    return out


def _unflatten(cls, values: Mapping):
    """A cls instance from flat field values; a nested config absent from them is built from them.

    Every flat mapping becomes a config here, so this is where a count is checked: an
    `int` or `int | None` field takes an integer (a bool is not one), stored as int.
    """
    hints = _HINTS[cls]
    kwargs = {}
    for f in dataclasses.fields(cls):
        if f.name not in values and f.name in _NESTED:
            kwargs[f.name] = _unflatten(_NESTED[f.name], values)
            continue
        value = kwargs[f.name] = values[f.name]
        if hints[f.name] == int or hints[f.name] == int | None and value is not None:
            if not is_integer(value):
                raise ConfigError(f"{f.name} must be an integer, got {value!r}")
            kwargs[f.name] = int(value)
    return cls(**kwargs)


# the flat spellings of four fields; every other field's flat key is its name
ALIASES = {"heads": "n_heads", "dropout": "dropout_rate", "classes": "class_count", "lr": "lr_init"}
_SPELLING = {name: key for key, name in ALIASES.items()}

# flat keys in place of a field that is not one scalar, as (key, type, default):
# the partition is "auto", a built-in name or a file path, and it fixes the joint
# count; augmentation is a switch plus the scale bounds. The seed drives model
# initialization as well as training, so it is listed last, on its own.
_STAND_INS = {
    "partition": (("joints", int, HANConfig().joint_count), ("partition", str, "auto")),
    "augmentation": (("augment", bool, TrainConfig().augmentation is not None),),
    "scale_range": (
        ("scale_min", float, AugmentationConfig().scale_range[0]),
        ("scale_max", float, AugmentationConfig().scale_range[1]),
    ),
    "seed": (),
}


def _flat_keys(cls):
    """(flat key, type, default) for every field of a config class, in field order."""
    hints = _HINTS[cls]
    defaults = cls()
    for f in dataclasses.fields(cls):
        yield from _STAND_INS.get(f.name, ())
        if f.name in _NESTED:
            yield from _flat_keys(_NESTED[f.name])
        elif f.name not in _STAND_INS:
            kind = hints[f.name]
            if isinstance(kind, types.UnionType):  # `int | None` parses as int
                kind = typing.get_args(kind)[0]
            yield _SPELLING.get(f.name, f.name), kind, getattr(defaults, f.name)


_TABLE = [*_flat_keys(HANConfig), *_flat_keys(TrainConfig), ("seed", int, TrainConfig().seed)]
CONFIG_KEYS: dict[str, type] = {key: kind for key, kind, _ in _TABLE}
DEFAULTS: dict = {key: default for key, _, default in _TABLE}


def build_configs(values: Mapping) -> tuple[HANConfig, TrainConfig]:
    """Model and training configs from flat keys; absent keys take DEFAULTS.

    Keys are the flat keys of CONFIG_KEYS or the field names they alias.
    `partition` may also be a HandPartition. A `joints` value, such as the
    joint count of the data, must agree with the partition.
    """
    flat = {ALIASES.get(key, key): value for key, value in DEFAULTS.items()}
    flat.update((ALIASES.get(key, key), value) for key, value in values.items())
    partition = flat["partition"]
    if not isinstance(partition, HandPartition):
        partition = default_partition(flat["joints"]) if partition == "auto" else resolve_partition(partition)
    if "joints" in values and values["joints"] != partition.joint_count:
        raise ConfigError(
            f"joints={values['joints']} but partition '{partition.name}' covers {partition.joint_count} joints"
        )
    flat.update(partition=partition, scale_range=(flat["scale_min"], flat["scale_max"]))
    flat["augmentation"] = _unflatten(AugmentationConfig, flat) if flat["augment"] else None
    return _unflatten(HANConfig, flat), _unflatten(TrainConfig, flat)
