"""The general-purpose tape ops the attention block was once built from, and that composition.

`han.attention.attend_batch` is one tape record with a hand-written
backward. `attend_batch_reference` below is the same block composed from
21 small differentiable ops, each with its own textbook backward; the tests
require the fused op to match it bit for bit, output and gradients. The ops
keep their own unit tests in `test_autodiff.py`.

`forward_reference` is `han.model.forward` with the joint embedding as its
own tape ops (`linear`, then one `take` per part), ahead of the joint-level
block, rather than folded into it.
"""

from __future__ import annotations

import math

import numpy as np

from han import autodiff as ad
from han.attention import AttentionConfig, AttentionParams
from han.autodiff import Tensor, _check_same_dtype, record_op
from han.errors import ConfigError, ShapeError, UsageError
from han.model import STREAM_COUNT, HANModel, _attend_site, _batch_array
from han.rng import Rng


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of two equally shaped tensors."""
    _check_same_dtype("add", a, b)
    if a.shape != b.shape:
        raise ShapeError(f"add shape mismatch: {a.shape} vs {b.shape}")
    out = Tensor(a.data + b.data)

    def bwd(g):
        return g, g

    return record_op("add", (a, b), out, bwd)


def take(x: Tensor, indices, axis: int) -> Tensor:
    """Gather the given indices along `axis`; duplicates allowed."""
    _check_axis(x, axis)
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1:
        raise ShapeError(f"take needs a flat index list, got shape {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= x.shape[axis]):
        raise ShapeError(f"take indices out of range for axis {axis} of shape {x.shape}")
    out = Tensor(np.take(x.data, idx, axis=axis))

    def bwd(g):
        gx = np.zeros_like(x.data)
        loc = (slice(None),) * (axis % x.ndim) + (idx,)
        if np.unique(idx).size == idx.size:
            gx[loc] += g  # one write per index: far cheaper than np.add.at
        else:
            np.add.at(gx, loc, g)
        return (gx,)

    return record_op("take", (x,), out, bwd)


def _check_axis(x: Tensor, axis: int) -> None:
    if not -x.ndim <= axis < x.ndim:
        raise ShapeError(f"axis {axis} invalid for shape {x.shape}")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; 2-d operands or stacked batches with equal leading dims."""
    _check_same_dtype("matmul", a, b)
    if a.ndim < 2 or b.ndim < 2 or a.ndim != b.ndim:
        raise ShapeError(f"matmul needs equal-rank operands of rank >= 2, got {a.shape} and {b.shape}")
    if a.shape[:-2] != b.shape[:-2] or a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul shape mismatch: {a.shape} x {b.shape}")
    out = Tensor(a.data @ b.data)

    def bwd(g):
        ga = g @ np.swapaxes(b.data, -1, -2) if a.requires_grad else None
        gb = np.swapaxes(a.data, -1, -2) @ g if b.requires_grad else None
        return ga, gb

    return record_op("matmul", (a, b), out, bwd)


def scale(x: Tensor, factor: float) -> Tensor:
    """Multiply by a python scalar constant."""
    f = x.data.dtype.type(factor)
    out = Tensor(x.data * f)

    def bwd(g):
        return (g * f,)

    return record_op("scale", (x,), out, bwd)


def relu(x: Tensor) -> Tensor:
    out = Tensor(np.maximum(x.data, 0))

    def bwd(g):
        return (g * (x.data > 0),)

    return record_op("relu", (x,), out, bwd)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Normalized exponentials along `axis`, stabilized by max subtraction."""
    _check_axis(x, axis)
    shifted = x.data - np.max(x.data, axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / np.sum(e, axis=axis, keepdims=True)
    out = Tensor(y)

    def bwd(g):
        dot = np.sum(g * y, axis=axis, keepdims=True)
        return ((g - dot) * y,)

    return record_op("softmax", (x,), out, bwd)


def layer_norm(x: Tensor, axis: int = -1, eps: float = 1e-5) -> Tensor:
    """Zero-mean, unit-variance normalization along `axis` (no affine).

    Population variance; eps keeps the zero-variance slice finite.
    """
    _check_axis(x, axis)
    if x.shape[axis] < 1:
        raise ShapeError(f"layer_norm axis {axis} is empty in shape {x.shape}")
    mu = np.mean(x.data, axis=axis, keepdims=True)
    var = np.mean((x.data - mu) ** 2, axis=axis, keepdims=True)
    inv = 1.0 / np.sqrt(var + x.data.dtype.type(eps))
    y = (x.data - mu) * inv
    out = Tensor(y)

    def bwd(g):
        gm = np.mean(g, axis=axis, keepdims=True)
        gy = np.mean(g * y, axis=axis, keepdims=True)
        return (inv * (g - gm - y * gy),)

    return record_op("layer_norm", (x,), out, bwd)


def mean(x: Tensor, axis: int) -> Tensor:
    """Arithmetic mean along one axis (axis removed)."""
    _check_axis(x, axis)
    n = x.shape[axis]
    out = Tensor(np.mean(x.data, axis=axis))

    def bwd(g):
        return (np.repeat(np.expand_dims(g / n, axis), n, axis=axis),)

    return record_op("mean", (x,), out, bwd)


def tensor_sum(x: Tensor) -> Tensor:
    """Sum over all elements."""
    out = Tensor(np.sum(x.data))

    def bwd(g):
        return (np.broadcast_to(g, x.data.shape).copy(),)

    return record_op("sum", (x,), out, bwd)


def dropout(x: Tensor, rate: float, training: bool, rng: Rng | list[Rng] | None = None) -> Tensor:
    """Inverted dropout: zero with probability `rate`, scale survivors by 1/(1-rate).

    `rng` is one stream, or a list of streams (one per sequence of a batch)
    that each draw an equal, contiguous share of the leading axis. Identity
    in eval mode or at rate 0; neither consumes randomness.
    """
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x
    if not rng:
        raise UsageError("dropout in training mode needs an rng")
    streams = [rng] if isinstance(rng, Rng) else rng
    if x.ndim == 0 or x.shape[0] % len(streams):
        raise ShapeError(f"dropout cannot split shape {x.shape} over {len(streams)} streams")
    share = (x.shape[0] // len(streams),) + x.shape[1:]
    keep = ~np.concatenate([r.bernoulli(share, rate) for r in streams])
    m = keep.astype(x.data.dtype) / x.data.dtype.type(1.0 - rate)
    out = Tensor(x.data * m)

    def bwd(g):
        return (g * m,)

    return record_op("dropout", (x,), out, bwd)


def transpose(x: Tensor, axes: tuple[int, ...]) -> Tensor:
    out = Tensor(np.transpose(x.data, axes))
    inverse = tuple(np.argsort(axes))

    def bwd(g):
        return (np.transpose(g, inverse),)

    return record_op("transpose", (x,), out, bwd)


def attend_batch_reference(
    x: Tensor,
    params: AttentionParams,
    config: AttentionConfig,
    training: bool = False,
    rng: Rng | list[Rng] | None = None,
    weights_out: list | None = None,
) -> Tensor:
    """`han.attention.attend_batch` composed from tape ops: same arguments, same result.

    `rng` is one dropout stream or a list of streams that split the B
    groups evenly (see `dropout`).
    """
    if x.ndim != 3:
        raise ShapeError(f"attend_batch needs (B, N, d_model), got {x.shape}")
    b, n, d = x.shape
    if n == 0:
        raise UsageError("attention needs at least one input token")
    if d != config.d_model:
        raise ShapeError(f"input width {d} does not match d_model {config.d_model}")
    params.validate(config)
    h, dh, hw = config.n_heads, config.d_head, config.heads_width

    def split_heads(t: Tensor, axes: tuple[int, ...]) -> Tensor:
        # (B, N, H*dh) -> (B, N, H, dh), then heads ahead of tokens
        return transpose(ad.reshape(t, (b, n, h, dh)), axes)

    k_t = split_heads(ad.linear(x, params.wk), (0, 2, 3, 1))   # (B, H, dh, N)
    q = split_heads(ad.linear(x, params.wq), (0, 2, 1, 3))     # (B, H, N, dh)
    v = split_heads(ad.linear(x, params.wv), (0, 2, 1, 3))

    scores = scale(matmul(q, k_t), 1.0 / math.sqrt(dh))      # (B, H, N, N)
    lam = softmax(scores, axis=-1)
    if weights_out is not None:
        weights_out.append(lam.data.copy())

    ctx = matmul(lam, v)                                        # (B, H, N, dh)
    ctx = ad.reshape(transpose(ctx, (0, 2, 1, 3)), (b, n, hw))

    branch = ad.linear(ctx, params.wa, params.ba)             # back to d_model
    branch = relu(branch)
    branch = layer_norm(branch, axis=-1)
    branch = dropout(branch, config.dropout_rate, training, rng)
    updated = add(x, branch)
    return mean(updated, axis=1)


def forward_reference(seqs, model: HANModel, training: bool = False, rng: Rng | list[Rng] | None = None,
                      capture: dict | None = None) -> Tensor:
    """`han.model.forward` with the unfolded joint site: every coordinate embedded by
    one `ad.linear`, each part gathered by `take`, then `attend_batch` on d_model-wide
    tokens plus their position rows. The levels above the joints are the same."""
    cfg = model.config
    frames = _batch_array(seqs, model)
    b, t, j, _ = frames.shape
    d = cfg.attention.d_model
    rng = [rng] if isinstance(rng, Rng) else rng
    coords = ad.constant(frames.reshape(b * t * j, 3))
    embedded = ad.reshape(ad.linear(coords, model.joint_w, model.joint_b), (b * t, j, d))
    maps = None if capture is None else {}

    part_rows = []
    for p_idx, part in enumerate(cfg.partition.parts):
        tokens = take(embedded, list(part), axis=1)             # (B·T, n_p, d)
        part_rows.append(_attend_site(model, ("J", p_idx), tokens, model.j_att[0 if cfg.share_j_att else p_idx],
                                      training, rng, maps))
    hand = _attend_site(model, ("F",), ad.stack(part_rows, axis=1), model.f_att, training, rng, maps)
    streams = [ad.reshape(s, (b, t, d)) for s in part_rows + [hand]]
    if cfg.share_t_att:
        folded = ad.reshape(ad.stack(streams, axis=1), (b * STREAM_COUNT, t, d))
        stream_feats = ad.reshape(_attend_site(model, ("T",), folded, model.t_att[0], training, rng, maps),
                                  (b, STREAM_COUNT, d))
    else:
        stream_feats = ad.stack([_attend_site(model, ("T",), s, blk, training, rng, maps)
                                 for s, blk in zip(streams, model.t_att)], axis=1)
    fused = _attend_site(model, ("Fusion",), stream_feats, model.fusion_att, training, rng, maps)
    if capture is not None:
        capture.update((key, np.stack(m, axis=1).reshape(b, -1, *m[0].shape[1:])) for key, m in maps.items())
    return ad.linear(fused, model.cls_w, model.cls_b)
