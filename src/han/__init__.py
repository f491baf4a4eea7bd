"""Hierarchical self-attention network for skeleton-based hand gesture recognition.

Four stacked self-attention blocks aggregate a hand-joint sequence: joints
to finger features, fingers to a hand feature, frames to temporal features,
and the seven resulting streams to one gesture feature, all trained with a
small reverse-mode autodiff engine included here.
"""

from .attention import AttentionParams, attend_batch, positional_embedding
from .autodiff import GradientTape, Tensor, backward
from .config import AttentionConfig, AugmentationConfig, HANConfig, TrainConfig
from .data import (
    Dataset,
    HandPartition,
    SkeletonSequence,
    augment,
    load_manifest,
    parse_sequence,
    uniform_sample,
    write_sequence,
)
from .estimator import HANClassifier
from .model import (
    HANModel,
    extract_attention,
    forward,
    load_checkpoint,
    predict,
    probabilities,
    save_checkpoint,
)
from .profile import CostReport, cost_report, count_flops, count_params
from .rng import Rng
from .train import (
    AdamState,
    EvalReport,
    adam_step,
    cross_entropy,
    evaluate,
    train_loop,
)

__version__ = "0.1.0"

__all__ = [
    "AttentionConfig",
    "AttentionParams",
    "attend_batch",
    "positional_embedding",
    "GradientTape",
    "Tensor",
    "backward",
    "AugmentationConfig",
    "Dataset",
    "HandPartition",
    "SkeletonSequence",
    "augment",
    "load_manifest",
    "parse_sequence",
    "uniform_sample",
    "write_sequence",
    "HANClassifier",
    "HANConfig",
    "HANModel",
    "extract_attention",
    "forward",
    "load_checkpoint",
    "predict",
    "probabilities",
    "save_checkpoint",
    "CostReport",
    "cost_report",
    "count_flops",
    "count_params",
    "Rng",
    "AdamState",
    "EvalReport",
    "TrainConfig",
    "adam_step",
    "cross_entropy",
    "evaluate",
    "train_loop",
]
