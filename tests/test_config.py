"""Every config dataclass and value type checks its own fields when built, whatever builds it.

The config cases are derived from `dataclasses.fields`, so a field added later
is covered without an edit here.
"""

import dataclasses
import math
import re
import types
import typing

import numpy as np
import pytest

from han.config import AttentionConfig, AugmentationConfig, HANConfig, TrainConfig
from han.data import SHREC22, HandPartition, SkeletonSequence
from han.errors import ConfigError
from han.synth import SynthConfig

CONFIG_CLASSES = [AttentionConfig, AugmentationConfig, HANConfig, TrainConfig, SynthConfig]

# the value types, each with a valid base for its required fields and the fields
# checked here; `frames` and `parts` keep their own checks
VALUE_TYPES = {SkeletonSequence: ({"frames": np.zeros((3, 22, 3)), "label": 0}, ["label"]),
               HandPartition: ({"parts": SHREC22.parts}, ["name"])}

# values of the wrong kind for each declared type; a class-typed field gets a string
WRONG_KIND = {int: [2.5, True, "8"], float: [math.nan, math.inf, True], bool: ["no"], str: [5]}


def _kind(f):
    return typing.get_args(f.type)[0] if isinstance(f.type, types.UnionType) else f.type


def _wrong_kind_cases():
    cases = [(cls, {}, dataclasses.fields(cls)) for cls in CONFIG_CLASSES]
    cases += [(cls, base, [f for f in dataclasses.fields(cls) if f.name in names])
              for cls, (base, names) in VALUE_TYPES.items()]
    for cls, base, fields in cases:
        for f in fields:
            for value in WRONG_KIND.get(_kind(f), ["text"]):
                yield pytest.param(cls, base, f.name, value, id=f"{cls.__name__}.{f.name}={value!r}")


@pytest.mark.parametrize("cls, base, name, value", _wrong_kind_cases())
def test_wrong_kind_rejected_naming_the_field(cls, base, name, value):
    with pytest.raises(ConfigError, match=f"^{name} must be "):
        cls(**dict(base, **{name: value}))


@pytest.mark.parametrize("build, message", [
    (lambda: TrainConfig(lr_init=math.nan), "lr_init must be a finite number, got nan"),
    (lambda: AugmentationConfig(time_jitter=math.inf), "time_jitter must be a finite number, got inf"),
    (lambda: HANConfig(pe_j="no"), "pe_j must be a bool, got 'no'"),
    (lambda: HANConfig(frames=8.0), "frames must be an integer, got 8.0"),
    (lambda: SynthConfig(classes=2.5), "classes must be an integer, got 2.5"),
    (lambda: HANConfig(attention="small"), "attention must be of type AttentionConfig, got 'small'"),
    (lambda: TrainConfig(augmentation="off"), "augmentation must be of type AugmentationConfig, got 'off'"),
    (lambda: HANConfig(partition="shrec22"), "partition must be of type HandPartition, got 'shrec22'"),
    (lambda: SkeletonSequence(frames=np.zeros((3, 22, 3)), label=2.5), "label must be an integer, got 2.5"),
    (lambda: HandPartition(parts=SHREC22.parts, name=5), "name must be of type str, got 5"),
], ids=["lr-nan", "jitter-inf", "pe_j-text", "frames-float", "classes-fraction", "attention-text",
        "augmentation-text", "partition-name", "label-fraction", "partition-name-int"])
def test_config_built_directly_is_checked(build, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        build()


def test_numpy_scalars_are_stored_as_python_types():
    config = HANConfig(attention=AttentionConfig(d_model=np.int64(16), dropout_rate=np.float32(0.5)),
                       frames=np.int32(4), pe_j=np.False_)
    assert type(config.attention.d_model) is int and type(config.attention.dropout_rate) is float
    assert type(config.frames) is int and config.pe_j is False
    assert type(TrainConfig(lr_init=1).lr_init) is float and type(SynthConfig(test_fraction=0).test_fraction) is float


def test_value_types_store_python_types_and_take_lists():
    assert type(SkeletonSequence(frames=np.zeros((3, 22, 3)), label=np.int64(2)).label) is int
    assert HandPartition(parts=[list(p) for p in SHREC22.parts], name="lists").parts == SHREC22.parts

