"""One table over every entry point that takes frames and every kind of bad frames.

`SkeletonSequence` holds the one frames rule. A model entry point re-raises a
raw row's DataError as `sequence <i> of the batch: <message>`; the estimator
reports it as a UsageError naming `X[i]`; a batch that is neither a list nor a
4-D array is a UsageError.
"""

import functools
import re

import numpy as np
import pytest

from han.data import SkeletonSequence
from han.errors import DataError, UsageError
from han.estimator import HANClassifier
from han.model import HANModel, extract_attention, forward, predict, probabilities

from conftest import NOT_REAL, TOY_PARTITION, not_real_frames, tiny_config

CONFIG = tiny_config()
MODEL = HANModel(CONFIG, seed=1)
J = CONFIG.joint_count
T = CONFIG.frames + 1  # bad rows need resampling, so each is checked before it
GOOD = np.zeros((CONFIG.frames, J, 3))


def non_finite(value):
    frames = np.zeros((T, J, 3))
    frames[1, 0, 0] = value  # resampling 3 frames to 2 keeps frames 0 and 2 only
    return frames


SHAPE = "sequence frames must be (T, J, 3) with T >= 1, got "
NOT_REAL_FRAMES = not_real_frames((T, J, 3))
# each kind of bad frames and the message `SkeletonSequence` gives for it
BAD = {
    "ragged": ([[[0.0] * 3] * J, [[0.0] * 2] * J], SHAPE + "a ragged nesting"),
    **{kind: (NOT_REAL_FRAMES[kind], f"sequence frames must be real numbers, got dtype {NOT_REAL_FRAMES[kind].dtype}")
       for kind in NOT_REAL},
    "nan": (non_finite(np.nan), "sequence contains non-finite coordinates"),
    "inf": (non_finite(np.inf), "sequence contains non-finite coordinates"),
    "two-coords": (np.zeros((T, J, 2)), SHAPE + f"{(T, J, 2)}"),
    "no-frames": (np.zeros((0, J, 3)), SHAPE + f"{(0, J, 3)}"),
    "2-d": (np.zeros((T, 3)), SHAPE + f"{(T, 3)}"),
}


@functools.cache
def fitted() -> HANClassifier:
    est = HANClassifier(d_model=8, n_heads=2, d_head=4, frames=CONFIG.frames, partition=TOY_PARTITION,
                        max_epochs=1, augment=False)
    return est.fit([GOOD, GOOD + 0.1], [0, 1])


# entry point: (call on a bad row, error class, the prefix that names the row)
ENTRIES = {
    "SkeletonSequence": (lambda bad: SkeletonSequence(bad, 0), DataError, ""),
    "forward-list": (lambda bad: forward([GOOD, bad], MODEL), DataError, "sequence 1 of the batch: "),
    "forward-array": (lambda bad: forward(np.asarray(bad)[None], MODEL), DataError, "sequence 0 of the batch: "),
    "probabilities": (lambda bad: probabilities([GOOD, bad], MODEL), DataError, "sequence 1 of the batch: "),
    "predict": (lambda bad: predict(bad, MODEL), DataError, "sequence 0 of the batch: "),
    "extract_attention": (lambda bad: extract_attention(bad, MODEL, "Fusion"), DataError, "sequence 0 of the batch: "),
    "fit": (lambda bad: HANClassifier().fit([GOOD, bad], [0, 1]), UsageError, "X[1]: "),
    "predict_proba": (lambda bad: fitted().predict_proba([GOOD, bad]), UsageError, "X[1]: "),
}
# a 4-D array cannot hold a ragged row, and 2-D rows stack to a 3-D batch (see below)
CASES = [(entry, kind) for entry in ENTRIES for kind in BAD
         if not (entry == "forward-array" and kind in ("ragged", "2-d"))]


@pytest.mark.parametrize("entry, kind", CASES)
def test_bad_frames_fail_with_the_documented_class_and_row(entry, kind):
    call, error, prefix = ENTRIES[entry]
    frames, message = BAD[kind]
    with pytest.raises(error, match=f"^{re.escape(prefix + message)}$"):
        call(frames)


@pytest.mark.parametrize("batch", [5, None, "abc", [], np.zeros((0, T, J, 3)), np.zeros((2, T, 3))],
                         ids=["int", "none", "text", "empty-list", "empty-array", "3-d-array"])
@pytest.mark.parametrize("entry", [forward, probabilities], ids=["forward", "probabilities"])
def test_bad_batch_form_rejected(entry, batch):
    with pytest.raises(UsageError, match=re.escape(f"forward takes a batch of one or more (T, J, 3) sequences, "
                                                   f"got {np.shape(batch)}")):
        entry(batch, MODEL)
