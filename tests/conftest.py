import numpy as np
import pytest

from han.attention import AttentionConfig
from han.data import HandPartition
from han.model import HANConfig, HANModel

TOY_PARTITION = HandPartition(parts=tuple((i,) for i in range(6)), name="toy6")

# 8 joints: two 2-joint "fingers", three single-joint parts, 1-joint palm group
MIXED_PARTITION = HandPartition(parts=((0, 1), (2, 3), (4,), (5,), (6,), (7,)), name="toy8")


def tiny_config(dropout=0.0, frames=2, class_count=4, partition=TOY_PARTITION, **kw):
    return HANConfig(
        attention=AttentionConfig(d_model=8, n_heads=2, d_head=4, dropout_rate=dropout),
        frames=frames,
        class_count=class_count,
        partition=partition,
        **kw,
    )


# the kinds of frames that are not real numbers, which every input boundary rejects
NOT_REAL = ["text", "object", "complex"]


def not_real_frames(shape) -> dict:
    """Frames of each NOT_REAL kind: text, objects with a None entry, complex values."""
    objects = np.zeros(shape, dtype=object)
    objects[0, 0, 0] = None
    return {"text": np.full(shape, "a"), "object": objects, "complex": np.zeros(shape, dtype=complex)}


@pytest.fixture
def tiny_model():
    return HANModel(tiny_config(), seed=7, dtype=np.float64)


@pytest.fixture
def tiny_inputs():
    return np.asarray(np.random.RandomState(11).uniform(-1, 1, (2, 6, 3)))
