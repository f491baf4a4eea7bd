"""Scikit-learn style front end: fit on labelled skeleton sequences, predict classes.

The estimator follows the sklearn parameter protocol (every constructor
argument is a hyperparameter, `get_params`/`set_params` round-trip them),
so it composes with model-selection utilities without depending on sklearn
itself.
"""

from __future__ import annotations

import dataclasses
import inspect

import numpy as np

from .config import DEFAULTS, AugmentationConfig, build_configs
from .data import SkeletonSequence
from .errors import DataError, UsageError
from .model import HANModel, probabilities
from .train import TrainResult, train_loop

# parameter -> default: the flat config keys the data does not fix, less the augmentation magnitudes
_PARAMS = {key: value for key, value in DEFAULTS.items()
           if key not in ("class_count", "joints", *(f.name for f in dataclasses.fields(AugmentationConfig)))}


def as_sequence_list(X, joint_count: int | None = None) -> list[SkeletonSequence]:
    """Validate X once, as new label-0 sequences of (T_i, J, 3) frames with a common J.

    Accepts a list of arrays/SkeletonSequences or a single (n, T, J, 3) array.
    """
    if isinstance(X, np.ndarray) and X.ndim == 4:
        items = [X[i] for i in range(X.shape[0])]
    elif isinstance(X, (list, tuple)):
        items = list(X)
    else:
        raise UsageError("X must be a list of (T, J, 3) arrays or a single (n, T, J, 3) array")
    if not items:
        raise UsageError("X is empty")
    out = []
    for i, item in enumerate(items):
        try:
            frames = item.frames if isinstance(item, SkeletonSequence) else item
            out.append(SkeletonSequence(frames=frames, label=0))
        except DataError as exc:
            raise UsageError(f"X[{i}]: {exc}") from exc
    joints = {s.joint_count for s in out}
    if len(joints) > 1:
        raise UsageError(f"sequences disagree on joint count: {sorted(joints)}")
    if joint_count is not None and out[0].joint_count != joint_count:
        raise UsageError(f"expected {joint_count} joints, got {out[0].joint_count}")
    return out


def as_label_array(y, n_samples: int) -> np.ndarray:
    arr = np.asarray(y)
    if arr.ndim != 1 or arr.shape[0] != n_samples:
        raise UsageError(f"y must be a flat array of {n_samples} labels, got shape {arr.shape}")
    if not np.issubdtype(arr.dtype, np.integer):
        with np.errstate(invalid="ignore"):  # nan, inf or beyond int64: the comparison below rejects it
            cast = arr.astype(np.int64) if arr.dtype.kind in "bf" else None  # never text, None or objects
        if cast is None or not np.array_equal(cast, arr):
            raise UsageError("y must contain integer class labels")
        arr = cast
    return arr


class HANClassifier:
    """Hierarchical self-attention classifier for hand-skeleton sequences.

    Parameters
    ----------
    d_model, n_heads, d_head, dropout_rate : attention block geometry.
    frames : frame count every sequence is uniformly resampled to.
    partition : "auto" (pick by joint count), a built-in name, a partition
        file path, or a HandPartition instance.
    pe_j, pe_f, pe_t, pe_fusion : position-embedding toggles per module.
    share_j_att, share_t_att : weight sharing across parts / streams.
    lr_init, batch_size, warmup_epochs, plateau_patience, decay_factor,
    max_decays, max_epochs : schedule; training stops at the
        max_decays-th plateau decay (or at max_epochs when set).
    augment : apply the training-time augmentations.
    seed : drives initialization, shuffling, dropout, and augmentation.

    Attributes
    ----------
    classes_ : sorted unique labels seen in fit.
    model_ : trained parameter set.
    history_ : per-epoch training log.
    """

    def __init__(self, **params):
        unknown = sorted(params.keys() - _PARAMS.keys())
        if unknown:
            raise TypeError(f"HANClassifier got unexpected keyword arguments {unknown}")
        for name, default in _PARAMS.items():
            setattr(self, name, params.get(name, default))

    __init__.__signature__ = inspect.Signature(
        [inspect.Parameter("self", inspect.Parameter.POSITIONAL_OR_KEYWORD)]
        + [inspect.Parameter(name, inspect.Parameter.KEYWORD_ONLY, default=default)
           for name, default in _PARAMS.items()]
    )

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in _PARAMS}

    def set_params(self, **params) -> "HANClassifier":
        for name, value in params.items():
            if name not in _PARAMS:
                raise UsageError(f"unknown parameter '{name}' for HANClassifier")
            setattr(self, name, value)
        return self

    def fit(self, X, y) -> "HANClassifier":
        seqs = as_sequence_list(X)
        labels = as_label_array(y, len(seqs))
        self.classes_ = np.unique(labels)
        if self.classes_.size < 2:
            raise UsageError("fit needs at least 2 distinct classes")
        seqs = [dataclasses.replace(seq, label=i) for seq, i in zip(seqs, np.searchsorted(self.classes_, labels))]
        config, train_config = build_configs(
            dict(self.get_params(), class_count=len(self.classes_), joints=seqs[0].joint_count)
        )
        model = HANModel(config, seed=train_config.seed)
        result: TrainResult = train_loop(seqs, [], model, train_config)
        self.model_ = result.model
        self.history_ = result.epochs
        return self

    def _check_fitted(self) -> None:
        if not hasattr(self, "model_"):
            raise UsageError("this HANClassifier instance is not fitted yet; call fit first")

    def predict_proba(self, X) -> np.ndarray:
        """Class probabilities (n, classes); a row whose forward overflows is not finite."""
        self._check_fitted()
        return probabilities(as_sequence_list(X, joint_count=self.model_.config.joint_count), self.model_)

    def predict(self, X) -> np.ndarray:
        """Labels of X; raises DataError naming the first row whose probabilities are not finite."""
        probs = self.predict_proba(X)
        bad = np.flatnonzero(~np.isfinite(probs).all(axis=1))
        if bad.size:
            raise DataError(f"X[{bad[0]}]: the forward overflows, so its class probabilities are not finite")
        return self.classes_[np.argmax(probs, axis=1)]

    def score(self, X, y) -> float:
        preds = self.predict(X)
        return float(np.mean(preds == as_label_array(y, len(preds))))

    def __repr__(self) -> str:
        return f"HANClassifier(d_model={self.d_model}, n_heads={self.n_heads}, frames={self.frames})"
