"""Deterministic, counter-based random number generation.

Every stream is a pure function of (seed, stream name, draw index), so a
sample sequence is identical across runs, platforms, and draw batchings.
The generator is SplitMix64: value ``i`` of a stream is
``mix64(state0 + (i + 1) * GOLDEN)`` where ``state0`` is derived from the
seed and an FNV-1a hash of the stream name, ``GOLDEN`` is the 64-bit
golden-ratio increment, and ``mix64`` is the SplitMix64 finalizer.

Named sub-streams (``rng.stream("dropout/3/17")``) let callers key draws by
epoch or sample index, making results independent of evaluation order.

Dropout masks are drawn by `keep_masks` a block of streams at a time, each
block one cache-sized counter array mixed at once. The masks are
bit-identical to drawing each stream on its own, and each stream's counter
ends where its own draw would leave it.
"""

from __future__ import annotations

import math

import numpy as np

from .data import check_seed

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# uint64 values mixed at once by `keep_masks`: a larger block falls out of cache
_BLOCK_BYTES = 1 << 18

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def _fnv1a(text: str) -> int:
    h = _FNV_OFFSET
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h


def _mix64_int(z: int) -> int:
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def _mix64_array(z: np.ndarray) -> np.ndarray:
    # in place; uint64 arrays wrap silently in numpy, scalars would warn
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    return z


class Rng:
    """One named SplitMix64 stream with an explicit draw counter."""

    __slots__ = ("seed", "name", "_state0", "_counter")

    def __init__(self, seed: int, name: str = ""):
        self.seed = check_seed(seed)
        self.name = name
        self._state0 = _mix64_int(_mix64_int(self.seed) ^ _fnv1a(name))
        self._counter = 0

    def stream(self, name: str) -> "Rng":
        """Derive an independent stream keyed by this stream's name plus `name`."""
        child = f"{self.name}/{name}" if self.name else name
        return Rng(self.seed, child)

    def _raw(self, n: int) -> np.ndarray:
        z = np.arange(self._counter + 1, self._counter + n + 1, dtype=np.uint64)
        self._counter += n
        z *= np.uint64(_GOLDEN)
        z += np.uint64(self._state0)
        return _mix64_array(z)

    def uniform(self, shape=None, low: float = 0.0, high: float = 1.0):
        """Uniform float64 samples in [low, high)."""
        n = 1 if shape is None else int(np.prod(shape))
        raw = self._raw(n)
        raw >>= np.uint64(11)
        out = raw.astype(np.float64)
        out *= 2.0**-53
        out *= high - low               # in place, and equal to low + (high - low) * u
        out += low
        if shape is None:
            return float(out[0])
        return out.reshape(shape)

    def normal(self, shape, mean: float = 0.0, std: float = 1.0) -> np.ndarray:
        """Gaussian samples via Box-Muller (two uniform draws per value)."""
        n = int(np.prod(shape))
        u1 = self.uniform((n,))
        u2 = self.uniform((n,))
        # 1 - u1 lies in (0, 1], keeping the log finite
        z = np.sqrt(-2.0 * np.log1p(-u1)) * np.cos(2.0 * math.pi * u2)
        return (mean + std * z).reshape(shape)

    def randint(self, low: int, high: int):
        """One integer in [low, high)."""
        if high <= low:
            raise ValueError(f"empty integer range [{low}, {high})")
        span = high - low
        return low + int(self._raw(1)[0] % np.uint64(span))

    def permutation(self, n: int) -> np.ndarray:
        """Deterministic permutation of range(n)."""
        keys = self.uniform((n,))
        return np.argsort(keys, kind="stable")


def keep_masks(streams: list[Rng], shape, p: float) -> np.ndarray:
    """Dropout keep masks (len(streams), *shape): mask i is ~(streams[i].uniform(shape) < p).

    A uniform value is exactly (raw >> 11) * 2**-53 of its raw 64-bit draw,
    so u < p holds exactly when raw < ceil(p * 2**53) * 2**11, and the masks
    are compared as integers; that limit is below 2**64 for every p < 1.
    Each stream's counter advances by the mask size, as `uniform(shape)`
    would advance it.
    """
    size = int(np.prod(shape))
    keep = np.empty((len(streams), size), dtype=bool)
    limit = np.uint64(math.ceil(p * 2.0**53) << 11)
    step = np.arange(1, size + 1, dtype=np.uint64)
    per_block = max(1, _BLOCK_BYTES // (8 * max(size, 1)))
    for lo in range(0, len(streams), per_block):
        block = streams[lo:lo + per_block]  # each row is `Rng._raw(size)` of one stream
        z = np.array([s._counter for s in block], dtype=np.uint64)[:, None] + step
        z *= np.uint64(_GOLDEN)
        z += np.array([s._state0 for s in block], dtype=np.uint64)[:, None]
        np.greater_equal(_mix64_array(z), limit, out=keep[lo:lo + per_block])
        for s in block:
            s._counter += size
    return keep.reshape((len(streams), *shape))
