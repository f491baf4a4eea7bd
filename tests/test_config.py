"""Every config dataclass checks its own fields when built, whatever builds it.

The cases are derived from `dataclasses.fields`, so a field added later is
covered without an edit here.
"""

import dataclasses
import math
import re
import types
import typing

import numpy as np
import pytest

from han.config import AttentionConfig, AugmentationConfig, HANConfig, TrainConfig
from han.errors import ConfigError
from han.synth import SynthConfig

CONFIG_CLASSES = [AttentionConfig, AugmentationConfig, HANConfig, TrainConfig, SynthConfig]

# values of the wrong kind for each declared type; a class-typed field gets a string
WRONG_KIND = {int: [2.5, True, "8"], float: [math.nan, math.inf, True], bool: ["no"]}


def _kind(f):
    return typing.get_args(f.type)[0] if isinstance(f.type, types.UnionType) else f.type


def _wrong_kind_cases():
    for cls in CONFIG_CLASSES:
        for f in dataclasses.fields(cls):
            for value in WRONG_KIND.get(_kind(f), ["text"]):
                yield pytest.param(cls, f.name, value, id=f"{cls.__name__}.{f.name}={value!r}")


@pytest.mark.parametrize("cls, name, value", _wrong_kind_cases())
def test_wrong_kind_rejected_naming_the_field(cls, name, value):
    with pytest.raises(ConfigError, match=f"^{name} must be "):
        cls(**{name: value})


@pytest.mark.parametrize("build, message", [
    (lambda: TrainConfig(lr_init=math.nan), "lr_init must be a finite number, got nan"),
    (lambda: AugmentationConfig(time_jitter=math.inf), "time_jitter must be a finite number, got inf"),
    (lambda: HANConfig(pe_j="no"), "pe_j must be a bool, got 'no'"),
    (lambda: HANConfig(frames=8.0), "frames must be an integer, got 8.0"),
    (lambda: SynthConfig(classes=2.5), "classes must be an integer, got 2.5"),
    (lambda: HANConfig(attention="small"), "attention must be of type AttentionConfig, got 'small'"),
    (lambda: TrainConfig(augmentation="off"), "augmentation must be of type AugmentationConfig, got 'off'"),
    (lambda: HANConfig(partition="shrec22"), "partition must be of type HandPartition, got 'shrec22'"),
], ids=["lr-nan", "jitter-inf", "pe_j-text", "frames-float", "classes-fraction", "attention-text",
        "augmentation-text", "partition-name"])
def test_config_built_directly_is_checked(build, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        build()


def test_numpy_scalars_are_stored_as_python_types():
    config = HANConfig(attention=AttentionConfig(d_model=np.int64(16), dropout_rate=np.float32(0.5)),
                       frames=np.int32(4), pe_j=np.False_)
    assert type(config.attention.d_model) is int and type(config.attention.dropout_rate) is float
    assert type(config.frames) is int and config.pe_j is False
    assert type(TrainConfig(lr_init=1).lr_init) is float and type(SynthConfig(test_fraction=0).test_fraction) is float
