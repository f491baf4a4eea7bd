"""Every config dataclass and value type checks its own fields when built, whatever builds it.

The config cases are derived from `dataclasses.fields` and `CONFIG_KEYS`, so a field
added later is covered without an edit here. A flat config key is spelled as the field
it sets, so a flag, a `--config` line, an estimator parameter and the error all share it.
"""

import dataclasses
import math
import re
import types
import typing

import numpy as np
import pytest

from han.cli import main
from han.config import CONFIG_KEYS, AttentionConfig, AugmentationConfig, HANConfig, TrainConfig, build_configs
from han.data import SHREC22, HandPartition, SkeletonSequence
from han.errors import ConfigError
from han.estimator import HANClassifier
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


# flat keys that stand in for a field that is not one scalar
STAND_INS = {"partition", "joints", "augment"}

# a wrong value of each flat key type, as typed; no flag carries a bool value
WRONG_VALUE = {int: "-1", float: "nan", bool: "maybe", str: "nope"}


def test_each_flat_key_is_a_field_name_and_each_estimator_parameter_a_flat_key():
    fields = {f.name for cls in (AttentionConfig, HANConfig, TrainConfig, AugmentationConfig)
              for f in dataclasses.fields(cls)}
    assert set(CONFIG_KEYS) - STAND_INS <= fields
    assert set(HANClassifier().get_params()) <= set(CONFIG_KEYS)


@pytest.mark.parametrize("key", list(CONFIG_KEYS))
def test_a_wrong_value_fails_naming_its_key_as_a_flag_a_config_line_and_a_parameter(tmp_path, capsys, key):
    kind = CONFIG_KEYS[key]
    text = WRONG_VALUE[kind]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key}={text}\n")
    runs = [["profile", "--config", str(cfg)]]
    if kind is not bool:
        runs.append(["profile", "--" + key.replace("_", "-"), text])
    for argv in runs:
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert re.search(rf"\b{key}\b", err) and "unknown" not in err, (argv, err)
    if key in HANClassifier().get_params():
        X = [np.zeros((3, 22, 3)), np.ones((3, 22, 3))]
        with pytest.raises(ConfigError, match=rf"\b{key}\b"):
            HANClassifier(**{key: text if kind is bool else kind(text)}).fit(X, [0, 1])


@pytest.mark.parametrize("values, key", [({"heads": 2}, "heads"), ({"bogus": 1}, "bogus"),
                                         ({"bogus": 1, "n_heads": 4, "heads": 2}, "bogus"),
                                         ({"n_heads": 4, "lr": 0.1}, "lr")])
def test_build_configs_rejects_a_key_outside_the_schema(values, key):
    with pytest.raises(ConfigError, match=f"^unknown config key '{key}'$"):
        build_configs(values)
