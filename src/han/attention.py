"""The reusable self-attention block that aggregates a token group to one vector.

`attend_batch`, the one entry point, maps each of B groups of N input
vectors (which already carry their position embeddings) to a single
d_model feature:

1. project each token to per-head key/query/value vectors,
2. attention weights: softmax over j of (Q_i . K_j) / sqrt(d_head),
3. per-head weighted sum of values,
4. concatenate heads,
5. token update: input + Drop(Norm(ReLU(W_a . concat + b_a))),
6. mean over the N updated tokens.

Position embeddings are always added by the caller, never here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ShapeError, UsageError
from .rng import Rng


@dataclass(frozen=True)
class AttentionConfig:
    d_model: int = 128
    n_heads: int = 8
    d_head: int = 32
    dropout_rate: float = 0.1

    def __post_init__(self):
        if self.d_model < 1 or self.n_heads < 1 or self.d_head < 1:
            raise ConfigError(
                f"attention dims must be >= 1, got d_model={self.d_model}, "
                f"n_heads={self.n_heads}, d_head={self.d_head}"
            )
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")

    @property
    def heads_width(self) -> int:
        return self.n_heads * self.d_head

    def param_count(self) -> int:
        """Learnable scalars in one block: 3 QKV projections, output projection, bias."""
        return 3 * (self.heads_width * self.d_model) + self.d_model * self.heads_width + self.d_model


@dataclass
class AttentionParams:
    """One block's learnable matrices.

    wk/wq/wv: (n_heads*d_head, d_model); wa: (d_model, n_heads*d_head); ba: (d_model,).
    """

    wk: Tensor
    wq: Tensor
    wv: Tensor
    wa: Tensor
    ba: Tensor

    def named(self, prefix: str) -> list[tuple[str, Tensor]]:
        return [
            (f"{prefix}.wk", self.wk),
            (f"{prefix}.wq", self.wq),
            (f"{prefix}.wv", self.wv),
            (f"{prefix}.wa", self.wa),
            (f"{prefix}.ba", self.ba),
        ]

    def validate(self, config: AttentionConfig) -> None:
        hw, d = config.heads_width, config.d_model
        for name, t, want in (
            ("wk", self.wk, (hw, d)),
            ("wq", self.wq, (hw, d)),
            ("wv", self.wv, (hw, d)),
            ("wa", self.wa, (d, hw)),
            ("ba", self.ba, (d,)),
        ):
            if t.shape != want:
                raise ShapeError(f"attention param {name} has shape {t.shape}, expected {want}")


def init_attention_params(config: AttentionConfig, rng: Rng, dtype=np.float32) -> AttentionParams:
    """Uniform init in [-1/sqrt(fan_in), 1/sqrt(fan_in)]; bias starts at zero."""
    hw, d = config.heads_width, config.d_model

    def draw(shape, fan_in):
        bound = 1.0 / math.sqrt(fan_in)
        return ad.parameter(rng.uniform(shape, -bound, bound), dtype=dtype)

    return AttentionParams(
        wk=draw((hw, d), d),
        wq=draw((hw, d), d),
        wv=draw((hw, d), d),
        wa=draw((d, hw), hw),
        ba=ad.parameter(np.zeros(d), dtype=dtype),
    )


def positional_embedding(position: int, d_model: int) -> np.ndarray:
    """Sinusoid vector for one index: channel 2k is sin(pos / 10000^(2k/d)), 2k+1 the cosine."""
    if position < 0:
        raise UsageError(f"position must be >= 0, got {position}")
    out = np.empty(d_model, dtype=np.float64)
    for c in range(d_model):
        k = c // 2
        angle = position / (10000.0 ** (2.0 * k / d_model))
        out[c] = math.sin(angle) if c % 2 == 0 else math.cos(angle)
    return out


def attend_batch(
    x: Tensor,
    params: AttentionParams,
    config: AttentionConfig,
    training: bool = False,
    rng: Rng | list[Rng] | None = None,
    weights_out: list | None = None,
) -> Tensor:
    """Run the block on a batch of token groups: (B, N, d_model) -> (B, d_model).

    The block is one tape record; its backward is the closed form of the
    six steps and reuses the forward's arrays.

    In training mode at a nonzero dropout rate, `rng` is one dropout stream
    or a list of streams that each draw an equal, contiguous share of the B
    groups. Eval mode and rate 0 draw nothing.

    When `weights_out` is a list, the per-head attention weights are appended
    to it as a (B, n_heads, N, N) array (detached from the tape).
    """
    if x.ndim != 3:
        raise ShapeError(f"attend_batch needs (B, N, d_model), got {x.shape}")
    b, n, d = x.shape
    if n == 0:
        raise UsageError("attention needs at least one input token")
    if d != config.d_model:
        raise ShapeError(f"input width {d} does not match d_model {config.d_model}")
    params.validate(config)
    inputs = (x, params.wk, params.wq, params.wv, params.wa, params.ba)
    ad._check_same_dtype("attend_batch", *inputs)
    h, dh, hw = config.n_heads, config.d_head, config.heads_width
    dtype = x.dtype.type
    xs, wk, wq, wv, wa, ba = (t.data for t in inputs)
    x2 = xs.reshape(-1, d)  # every projection is one 2-D GEMM over all B*N rows

    def split_heads(w: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
        # (B*N, H*dh) -> (B, N, H, dh), then heads ahead of tokens, materialised
        return np.ascontiguousarray(np.transpose((x2 @ w.T).reshape(b, n, h, dh), axes))

    k_t = split_heads(wk, (0, 2, 3, 1))                        # (B, H, dh, N)
    q = split_heads(wq, (0, 2, 1, 3))                          # (B, H, N, dh)
    v = split_heads(wv, (0, 2, 1, 3))

    f = dtype(1.0 / math.sqrt(dh))
    scores = (q @ k_t) * f                                     # (B, H, N, N)
    e = np.exp(scores - np.max(scores, axis=-1, keepdims=True))
    lam = e / np.sum(e, axis=-1, keepdims=True)
    if weights_out is not None:
        weights_out.append(lam.copy())

    ctx = np.transpose(lam @ v, (0, 2, 1, 3)).reshape(-1, hw)  # (B*N, H*dh)
    pre = (ctx @ wa.T).reshape(b, n, d) + ba                   # back to d_model
    r = np.maximum(pre, 0)
    mu = np.mean(r, axis=-1, keepdims=True)                    # layer norm, population variance
    var = np.mean((r - mu) ** 2, axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + dtype(1e-5))
    y = (r - mu) * inv

    mask = None
    if training and config.dropout_rate > 0.0:
        if not rng:
            raise UsageError("dropout in training mode needs an rng")
        streams = [rng] if isinstance(rng, Rng) else rng
        if b % len(streams):
            raise ShapeError(f"dropout cannot split shape {x.shape} over {len(streams)} streams")
        rate = config.dropout_rate
        keep = ~np.concatenate([s.bernoulli((b // len(streams), n, d), rate) for s in streams])
        mask = keep.astype(dtype) / dtype(1.0 - rate)
    branch = y if mask is None else y * mask
    out = Tensor(np.mean(xs + branch, axis=1))

    def bwd(g):
        gu = np.repeat(np.expand_dims(g / n, 1), n, axis=1)   # token mean
        gy = gu if mask is None else gu * mask                 # dropout
        ga = inv * (gy - np.mean(gy, axis=-1, keepdims=True) - y * np.mean(gy * y, axis=-1, keepdims=True))
        ga = (ga * (pre > 0)).reshape(-1, d)                   # layer norm, then ReLU
        gwa, gba = ga.T @ ctx, ga.sum(axis=0)
        gc = np.transpose((ga @ wa).reshape(b, n, h, dh), (0, 2, 1, 3))   # (B, H, N, dh)
        glam = gc @ np.swapaxes(v, -1, -2)
        gv = np.swapaxes(lam, -1, -2) @ gc
        gs = (glam - np.sum(glam * lam, axis=-1, keepdims=True)) * lam * f   # softmax, then scale
        gq = gs @ np.swapaxes(k_t, -1, -2)
        gk_t = np.swapaxes(q, -1, -2) @ gs

        def unsplit(gh, axes, w):
            # heads back to (B*N, H*dh), then through the projection
            g2 = np.transpose(gh, axes).reshape(-1, hw)
            return (g2 @ w).reshape(b, n, d), g2.T @ x2

        gxv, gwv = unsplit(gv, (0, 2, 1, 3), wv)
        gxq, gwq = unsplit(gq, (0, 2, 1, 3), wq)
        gxk, gwk = unsplit(gk_t, (0, 3, 1, 2), wk)
        gx = gu + gxv  # residual, then v, q, k: the summation order of tests/reference_ops.py
        gx += gxq
        gx += gxk
        return gx, gwk, gwq, gwv, gwa, gba

    return ad.record_op("attention", inputs, out, bwd)
