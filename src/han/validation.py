"""Input validation helpers for the estimator-facing API."""

from __future__ import annotations

import numpy as np

from .data import SkeletonSequence
from .errors import DataError, UsageError


def as_sequence_list(X, joint_count: int | None = None) -> list[np.ndarray]:
    """Coerce X to a list of (T_i, J, 3) float arrays with a common J.

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
            seq = item if isinstance(item, SkeletonSequence) else SkeletonSequence(frames=item, label=0)
        except DataError as exc:
            raise UsageError(f"X[{i}]: {exc}") from exc
        out.append(seq.frames)
    joints = {a.shape[1] for a in out}
    if len(joints) > 1:
        raise UsageError(f"sequences disagree on joint count: {sorted(joints)}")
    if joint_count is not None and out[0].shape[1] != joint_count:
        raise UsageError(f"expected {joint_count} joints, got {out[0].shape[1]}")
    return out


def as_label_array(y, n_samples: int) -> np.ndarray:
    arr = np.asarray(y)
    if arr.ndim != 1 or arr.shape[0] != n_samples:
        raise UsageError(f"y must be a flat array of {n_samples} labels, got shape {arr.shape}")
    if not np.issubdtype(arr.dtype, np.integer):
        cast = arr.astype(np.int64)
        if not np.array_equal(cast, arr):
            raise UsageError("y must contain integer class labels")
        arr = cast
    return arr
