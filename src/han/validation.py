"""Input validation helpers for the estimator-facing API."""

from __future__ import annotations

import numpy as np

from .data import SkeletonSequence
from .errors import DataError, UsageError


def as_sequence_list(X, joint_count: int | None = None) -> list[SkeletonSequence]:
    """Validate X once, as new label-0 sequences of (T_i, J, 3) frames with a common J.

    Accepts a list of arrays/SkeletonSequences or a single (n, T, J, 3) array.
    The sequences are the caller's own: setting a label changes nothing in X.
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
        cast = arr.astype(np.int64)
        if not np.array_equal(cast, arr):
            raise UsageError("y must contain integer class labels")
        arr = cast
    return arr
