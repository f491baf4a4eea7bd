"""Run configuration: every config dataclass and the one flat schema over them.

`AttentionConfig`, `HANConfig`, `TrainConfig` and `AugmentationConfig` are the
only place that holds a field's name, type and default. Each checks its own
fields by their declared types when built (`han.data.check_fields`), so a config built
directly in Python is checked as one built from flags, a file or a checkpoint.
The CLI keys and flags, the estimator's parameters and the checkpoint's config
echo are flat views of those fields with the nested configs inlined, and
`build_configs` is the one path from a flat mapping back to `(HANConfig, TrainConfig)`.
"""

import dataclasses
import types
import typing
from collections.abc import Mapping
from dataclasses import dataclass, field

from .data import (MAX_CLASSES, MAX_FRAMES, SHREC22, HandPartition, _scalar, check_fields, check_seed,
                   default_partition, resolve_partition)
from .errors import ConfigError

# the widest d_model and n_heads·d_head a config, flag or checkpoint may
# declare; the model allocates its weight matrices and position table for them
MAX_WIDTH = 4_096


@dataclass(frozen=True)
class AttentionConfig:
    d_model: int = 128
    n_heads: int = 8
    d_head: int = 32
    dropout_rate: float = 0.1

    def __post_init__(self):
        check_fields(self)
        if self.d_model < 1 or self.n_heads < 1 or self.d_head < 1:
            raise ConfigError(
                f"attention dims must be >= 1, got d_model={self.d_model}, "
                f"n_heads={self.n_heads}, d_head={self.d_head}"
            )
        for name, width in (("d_model", self.d_model), ("n_heads*d_head", self.heads_width)):
            if width > MAX_WIDTH:
                raise ConfigError(f"{name} must be in [1, {MAX_WIDTH}], got {width}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")

    @property
    def heads_width(self) -> int:
        return self.n_heads * self.d_head

    def param_count(self) -> int:
        """Learnable scalars in one block: 3 QKV projections, output projection, bias."""
        return 3 * (self.heads_width * self.d_model) + self.d_model * self.heads_width + self.d_model


@dataclass(frozen=True)
class AugmentationConfig:
    """Per-sequence random transforms applied during training only.

    Magnitudes are conventional defaults and fully overridable; zeroing all
    of them (and both scale bounds at 1) makes augmentation the identity.
    The scale factor is uniform in [scale_min, scale_max]. `time_jitter` is
    the phase shift bound in frames for temporal re-interpolation; 0 disables it.
    """

    scale_min: float = 0.9
    scale_max: float = 1.1
    shift_range: float = 0.05
    time_jitter: float = 0.5
    noise_std: float = 0.001

    def __post_init__(self):
        check_fields(self)
        if self.scale_min <= 0 or self.scale_max < self.scale_min:
            raise ConfigError(f"scale_min and scale_max must be positive and ordered, "
                              f"got {self.scale_min} and {self.scale_max}")
        if self.shift_range < 0 or self.time_jitter < 0 or self.noise_std < 0:
            raise ConfigError("augmentation magnitudes must be nonnegative")


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
        check_fields(self)
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
        return _unflatten(HANConfig, dict(d, partition=HandPartition(d["partition_parts"], d["partition_name"])))


@dataclass(frozen=True)
class TrainConfig:
    lr_init: float = 0.001
    batch_size: int = 32
    warmup_epochs: int = 5
    plateau_patience: int = 10
    decay_factor: float = 10.0
    max_decays: int = 4
    max_epochs: int | None = None
    augmentation: AugmentationConfig | None = field(default_factory=AugmentationConfig)
    seed: int = 0  # last: it drives model initialization as well as training

    def __post_init__(self):
        check_fields(self)
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
        check_seed(self.seed)


# fields holding a nested config, whose own fields the flat views inline
_NESTED = {"attention": AttentionConfig, "augmentation": AugmentationConfig}


def _flatten(config) -> dict:
    """Field name -> value of a config instance, nested configs inlined."""
    out = {}
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        out.update(_flatten(value) if f.name in _NESTED else {f.name: value})
    return out


def _unflatten(cls, values: Mapping):
    """A cls instance from flat field values; a nested config absent from them is built from them."""
    kwargs = {}
    for f in dataclasses.fields(cls):
        if f.name not in values and f.name in _NESTED:
            kwargs[f.name] = _unflatten(_NESTED[f.name], values)
        else:
            kwargs[f.name] = values[f.name]
    return cls(**kwargs)


# flat keys in place of a field that is not one scalar, as (key, type, default):
# the partition is "auto", a built-in name or a file path, and it fixes the joint
# count; augmentation is a switch plus the magnitudes of its own fields
_STAND_INS = {
    "partition": (("joints", int, HANConfig().joint_count), ("partition", str, "auto")),
    "augmentation": (("augment", bool, TrainConfig().augmentation is not None),),
}


def _flat_keys(cls):
    """(flat key, type, default) for every field of a config class, in field order."""
    defaults = cls()
    for f in dataclasses.fields(cls):
        yield from _STAND_INS.get(f.name, ())
        if f.name in _NESTED:
            yield from _flat_keys(_NESTED[f.name])
        elif f.name not in _STAND_INS:
            kind = f.type
            if isinstance(kind, types.UnionType):  # `int | None` parses as int
                kind = typing.get_args(kind)[0]
            yield f.name, kind, getattr(defaults, f.name)


_TABLE = [*_flat_keys(HANConfig), *_flat_keys(TrainConfig)]
CONFIG_KEYS: dict[str, type] = {key: kind for key, kind, _ in _TABLE}
DEFAULTS: dict = {key: default for key, _, default in _TABLE}


def build_configs(values: Mapping) -> tuple[HANConfig, TrainConfig]:
    """Model and training configs from flat keys; absent keys take DEFAULTS.

    Any other key is a ConfigError naming it. `partition` may also be a HandPartition.
    A `joints` value, such as the joint count of the data, must agree with the
    partition. The augmentation magnitudes are checked with `augment` off too.
    """
    for key in values:
        if key not in CONFIG_KEYS:
            raise ConfigError(f"unknown config key '{key}'")
    flat = {**DEFAULTS, **values}
    # no field check sees these keys
    flat.update((key, _scalar(key, CONFIG_KEYS[key], flat[key])) for key in ("joints", "augment"))
    partition = flat["partition"]
    if not isinstance(partition, (str, HandPartition)):
        raise ConfigError(f"partition must be a name, a file path or a HandPartition, got {partition!r}")
    if not isinstance(partition, HandPartition):
        partition = default_partition(flat["joints"]) if partition == "auto" else resolve_partition(partition)
    if "joints" in values and values["joints"] != partition.joint_count:
        raise ConfigError(
            f"joints={values['joints']} but partition '{partition.name}' covers {partition.joint_count} joints"
        )
    augmentation = _unflatten(AugmentationConfig, flat)
    flat.update(partition=partition, augmentation=augmentation if flat["augment"] else None)
    return _unflatten(HANConfig, flat), _unflatten(TrainConfig, flat)
