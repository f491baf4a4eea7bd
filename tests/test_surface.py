"""Snapshot of the configuration surface: config keys and defaults, the fields of
the config dataclasses and value types, estimator parameters, the checkpoint's config echo, and the
arguments of the attention block, of the model's forward and of the sequence-file parser.

A change here is a new option, a renamed key or field, a changed default or a new
block or forward argument. Update the expected values only on purpose, and say so where the
change is recorded.
"""

import dataclasses
import inspect
import json

import pytest

from han import cli
from han.attention import attend_batch
from han.config import CONFIG_KEYS, DEFAULTS, AttentionConfig, AugmentationConfig, TrainConfig, build_configs
from han.data import HandPartition, SkeletonSequence, parse_sequence
from han.estimator import HANClassifier
from han.model import HANConfig, forward
from han.synth import SynthConfig

EXPECTED_DEFAULTS = {
    "d_model": 128, "n_heads": 8, "d_head": 32, "dropout_rate": 0.1, "frames": 8, "class_count": 14,
    "joints": 22, "partition": "auto", "pe_j": True, "pe_f": True, "pe_t": True,
    "pe_fusion": True, "share_j_att": True, "share_t_att": True, "lr_init": 0.001, "batch_size": 32,
    "warmup_epochs": 5, "plateau_patience": 10, "decay_factor": 10.0, "max_decays": 4,
    "max_epochs": None, "augment": True, "scale_min": 0.9, "scale_max": 1.1,
    "shift_range": 0.05, "time_jitter": 0.5, "noise_std": 0.001, "seed": 0,
}

EXPECTED_TYPES = {
    "d_model": int, "n_heads": int, "d_head": int, "dropout_rate": float, "frames": int, "class_count": int,
    "joints": int, "partition": str, "pe_j": bool, "pe_f": bool, "pe_t": bool,
    "pe_fusion": bool, "share_j_att": bool, "share_t_att": bool, "lr_init": float, "batch_size": int,
    "warmup_epochs": int, "plateau_patience": int, "decay_factor": float, "max_decays": int,
    "max_epochs": int, "augment": bool, "scale_min": float, "scale_max": float,
    "shift_range": float, "time_jitter": float, "noise_std": float, "seed": int,
}

EXPECTED_PARAMS = {
    "d_model": 128, "n_heads": 8, "d_head": 32, "dropout_rate": 0.1, "frames": 8,
    "partition": "auto", "pe_j": True, "pe_f": True, "pe_t": True, "pe_fusion": True,
    "share_j_att": True, "share_t_att": True, "lr_init": 0.001, "batch_size": 32,
    "warmup_epochs": 5, "plateau_patience": 10, "decay_factor": 10.0, "max_decays": 4,
    "max_epochs": None, "augment": True, "seed": 0,
}

EXPECTED_CONFIG_ECHO = (
    '{"class_count":14,"d_head":32,"d_model":128,"dropout_rate":0.1,"frames":8,"n_heads":8,'
    '"partition_name":"shrec22","partition_parts":[[2,3,4,5],[6,7,8,9],[10,11,12,13],'
    '[14,15,16,17],[18,19,20,21],[0,1]],"pe_f":true,"pe_fusion":true,"pe_j":true,"pe_t":true,'
    '"share_j_att":true,"share_t_att":true}'
)

# each config dataclass's field names in order; a field is renamed, added or moved only on purpose
EXPECTED_FIELDS = {
    AttentionConfig: ["d_model", "n_heads", "d_head", "dropout_rate"],
    AugmentationConfig: ["scale_min", "scale_max", "shift_range", "time_jitter", "noise_std"],
    HANConfig: ["attention", "frames", "class_count", "partition", "pe_j", "pe_f", "pe_t", "pe_fusion",
                "share_j_att", "share_t_att"],
    TrainConfig: ["lr_init", "batch_size", "warmup_epochs", "plateau_patience", "decay_factor", "max_decays",
                  "max_epochs", "augmentation", "seed"],
    SynthConfig: ["classes", "per_class", "joints", "test_fraction", "min_frames", "max_frames", "seed"],
    SkeletonSequence: ["frames", "label"],
    HandPartition: ["parts", "name"],
}

EXPECTED_ATTEND_BATCH_PARAMS = ["x", "params", "config", "training", "rng", "weights_out", "pe", "embed", "shape"]

# bench/tracing.py reads `training` as forward's third positional argument
EXPECTED_FORWARD_PARAMS = ["seqs", "model", "training", "rng", "capture"]

# bench/tracing.py wraps han.data.parse_sequence by name to time data.parse_ms_per_seq,
# so the whole parse, fast path and line walk alike, stays inside this one function
EXPECTED_PARSE_SEQUENCE_PARAMS = ["path", "joint_count", "label"]


def _flags(command):
    sub = cli._build_parser()._subparsers._group_actions[0].choices[command]
    return {flag for action in sub._actions for flag in action.option_strings}


def test_config_keys_types_and_defaults():
    assert list(CONFIG_KEYS) == list(EXPECTED_TYPES)
    assert CONFIG_KEYS == EXPECTED_TYPES
    assert DEFAULTS == EXPECTED_DEFAULTS


def test_train_and_profile_flags():
    config_flags = {"--config", "-h", "--help"}
    for key, kind in EXPECTED_TYPES.items():
        flag = "--" + key.replace("_", "-")
        config_flags |= {flag, "--no-" + flag[2:]} if kind is bool else {flag}
    assert _flags("train") == config_flags | {"--manifest", "--out"}
    assert _flags("profile") == config_flags | {"--csv"}


def test_parsed_defaults_build_the_default_configs():
    args = cli._build_parser().parse_args(["profile"])
    assert build_configs(cli._config_values(args)) == (HANConfig(), TrainConfig())


def test_estimator_params():
    assert HANClassifier().get_params() == EXPECTED_PARAMS
    assert list(HANClassifier().get_params()) == list(EXPECTED_PARAMS)


def test_checkpoint_config_echo():
    assert json.dumps(HANConfig().to_dict(), sort_keys=True, separators=(",", ":")) == EXPECTED_CONFIG_ECHO


@pytest.mark.parametrize("cls", list(EXPECTED_FIELDS), ids=lambda cls: cls.__name__)
def test_config_dataclass_fields(cls):
    assert [f.name for f in dataclasses.fields(cls)] == EXPECTED_FIELDS[cls]


def test_attend_batch_parameters():
    assert list(inspect.signature(attend_batch).parameters) == EXPECTED_ATTEND_BATCH_PARAMS


def test_forward_parameters():
    assert list(inspect.signature(forward).parameters) == EXPECTED_FORWARD_PARAMS


def test_parse_sequence_parameters():
    assert list(inspect.signature(parse_sequence).parameters) == EXPECTED_PARSE_SEQUENCE_PARAMS
