"""The reusable self-attention block that aggregates a token group to one vector.

`attend_batch`, the one entry point, maps each of B groups of N input
vectors to a single d_model feature:

0. add the site's position rows to the tokens, when given,
1. project each token to per-head key/query/value vectors,
2. attention weights: softmax over j of (Q_i . K_j) / sqrt(d_head),
3. per-head weighted sum of values,
4. concatenate heads,
5. token update: input + Drop(Norm(ReLU(W_a . concat + b_a))),
6. mean over the N updated tokens.

The block is the one place that adds position rows (`pe`). The joint site
passes raw coordinates with `embed`, and the block applies the joint
embedding itself. That embedding is affine, so steps 1-4 and step 5's
W_a product run on the 3 + N numbers of each token's coordinates and slot:
each head's scores are a bilinear form in them, and its values times its
share of W_a are one linear map of them to d_model (see `attend_batch`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import AttentionConfig
from .errors import ShapeError, UsageError
from .rng import Rng, keep_masks

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

    def validate(self, config: AttentionConfig) -> AttentionParams:
        for name, want, _ in param_table(config):
            t = getattr(self, name)
            if t.shape != want:
                raise ShapeError(f"attention param {name} has shape {t.shape}, expected {want}")
        return self


def param_table(config: AttentionConfig) -> list[tuple[str, tuple[int, ...], float]]:
    """Each block parameter's field, shape and init bound, in field order.

    Weights start uniform in [-1/sqrt(fan_in), 1/sqrt(fan_in)]; a bound of 0
    (the bias) starts at zero.
    """
    hw, d = config.heads_width, config.d_model
    fan_d, fan_hw = 1.0 / math.sqrt(d), 1.0 / math.sqrt(hw)
    return [("wk", (hw, d), fan_d), ("wq", (hw, d), fan_d), ("wv", (hw, d), fan_d),
            ("wa", (d, hw), fan_hw), ("ba", (d,), 0.0)]


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
    pe: np.ndarray | None = None,
    embed: tuple[Tensor, Tensor] | None = None,
    shape: tuple[int, ...] | None = None,
) -> Tensor:
    """Run the block on a batch of token groups: (B, N, d_model) -> (B, d_model), or to `shape`, a reshape of it.

    The block is one tape record; its backward is the closed form of the
    six steps and reuses the forward's arrays.

    In training mode at a nonzero dropout rate, `rng` is one dropout stream
    or a list of streams that each draw an equal, contiguous share of the B
    groups. Eval mode and rate 0 draw nothing.

    When `weights_out` is a list, the per-head attention weights are appended
    to it as a (B, n_heads, N, N) array (detached from the tape).

    `pe` holds constant position rows (N, d_model), one per token slot; every
    group's token n becomes x_n + pe[n] before the projections.

    With `embed=(w_e, b_e)`, `x` holds constant raw coordinates (B, N, c)
    and the block embeds them itself: token n is W_e·x_n + b_e + pe[n], with
    w_e (d_model, c) and b_e (d_model,). The embedding is affine, so token n
    is E·x̃_n, where x̃_n = [x_n, one-hot n] has m = c + N entries and
    E = [W_e | (b_e + pe)ᵀ] is (d_model, m). Steps 1-4 and the W_a product
    then run in that m-wide space, with no per-token keys, queries or values:
    - head h's scores are x̃_iᵀ·M_h·x̃_j, with the (m, m) matrix
      M_h = (W_q^h·E)ᵀ(W_k^h·E) / sqrt(d_head);
    - the concatenated heads times W_a are Σ_h P_h·Σ_j λ_ij^h·x̃_j, with the
      (d_model, m) matrix P_h = W_a^h·W_v^h·E, one (B*N, H*m) @ (H*m, d_model)
      GEMM for the whole batch.
    The residual adds the embedded tokens, and w_e and b_e get their
    gradients from this record.

    Parameter shapes are not checked here; `HANModel._build` checks them once.
    """
    if x.ndim != 3:
        raise ShapeError(f"attend_batch needs (B, N, d_model), got {x.shape}")
    b, n, c = x.shape
    d = config.d_model
    if n == 0:
        raise UsageError("attention needs at least one input token")
    if pe is not None and np.shape(pe) != (n, d):
        raise ShapeError(f"position rows {np.shape(pe)} do not match {n} tokens of d_model {d}")
    inputs = (x, params.wk, params.wq, params.wv, params.wa, params.ba)
    if embed is None:
        if c != d:
            raise ShapeError(f"input width {c} does not match d_model {d}")
    else:
        w_e, b_e = embed
        if x.requires_grad:
            raise UsageError("attend_batch embeds constant coordinates only")
        if w_e.shape != (d, c) or b_e.shape != (d,):
            raise ShapeError(f"embedding {w_e.shape}, {b_e.shape} does not map "
                             f"({b}, {n}, {c}) coordinates to d_model {d}")
        inputs += (w_e, b_e)
    ad._check_same_dtype("attend_batch", *inputs)
    h, dh, hw = config.n_heads, config.d_head, config.heads_width
    dtype = x.dtype.type
    rows = None if pe is None else np.asarray(pe, dtype=dtype)
    xs, wk, wq, wv, wa, ba = (t.data for t in inputs[:6])
    f = dtype(1.0 / math.sqrt(dh))
    if embed is None:
        tokens = xs if rows is None else xs + rows             # x + pe, as tests/reference_ops.py adds them
        x2 = tokens.reshape(-1, c)  # every projection is one 2-D GEMM over all B*N rows

        def split_heads(w: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
            # (B, N, H, dh), then heads ahead of tokens, materialised
            return np.ascontiguousarray(np.transpose((x2 @ w.T).reshape(b, n, h, dh), axes))

        def merge_heads(left: np.ndarray, right: np.ndarray) -> np.ndarray:
            """left @ right over (B, H), written straight into the (B*N, H*dh) rows the next GEMM reads."""
            rows = np.empty((b, n, h, dh), dtype)
            np.matmul(left, right, out=rows.transpose(0, 2, 1, 3))
            return rows.reshape(-1, hw)

        k_t = split_heads(wk, (0, 2, 3, 1))                    # (B, H, dh, N)
        q = split_heads(wq, (0, 2, 1, 3))                      # (B, H, N, dh)
        v = split_heads(wv, (0, 2, 1, 3))
        scores = q @ k_t                                       # (B, H, N, N)
        scores *= f
    else:  # token n is E·x̃_n: x̃_n = [x_n, one-hot n] is m = c + N wide, E = [W_e | (b_e + pe)ᵀ] is (d, m)
        w_e, m = w_e.data, c + n
        offset = b_e.data + (np.zeros((n, d), dtype) if rows is None else rows)   # (N, d): b_e + pe per slot
        tokens = (xs.reshape(-1, c) @ w_e.T).reshape(b, n, d)
        tokens += offset                                       # in place: a second (B, N, d) array costs page faults
        emb = np.concatenate([w_e, offset.T], axis=1)
        xt = np.concatenate([xs, np.broadcast_to(np.eye(n, dtype=dtype), (b, n, n))], axis=2)   # (B, N, m)
        xt2 = xt.reshape(-1, m)
        aq, ak, av = (w @ emb for w in (wq, wk, wv))           # W·E per head, (H, dh, m) as (H*dh, m)
        mh = np.swapaxes(aq.reshape(h, dh, m), 1, 2) @ ak.reshape(h, dh, m)
        mh *= f                                                # M_h = (W_q^h E)ᵀ(W_k^h E) / sqrt(dh), (H, m, m)
        # head h's scores x̃_iᵀ·M_h·x̃_j, with rows (i, h): (B, N*H, N), no head layout to write
        scores = (xt2 @ mh.transpose(1, 0, 2).reshape(m, h * m)).reshape(b, n * h, m) @ np.swapaxes(xt, 1, 2)
    top = scores[..., :1]  # row max by slices: a reduction over the short key axis loops once per row
    for j in range(1, n):
        top = np.maximum(top, scores[..., j:j + 1])
    scores -= top
    lam = np.exp(scores, out=scores)
    lam /= lam.sum(axis=-1, keepdims=True)
    if weights_out is not None:
        weights_out.append(lam.copy() if embed is None else lam.reshape(b, n, h, n).transpose(0, 2, 1, 3).copy())
    if embed is None:
        ctx = merge_heads(lam, v)                              # (B*N, H*dh)
        pre = (ctx @ wa.T).reshape(b, n, d)                    # back to d_model
    else:  # pre_i = Σ_h P_h·Σ_j λ_ij^h x̃_j with P_h = W_a^h·W_v^h·E: one (B*N, H*m) @ (H*m, d) GEMM
        wa_t = wa.reshape(d, h, dh).transpose(1, 2, 0)         # (W_a^h)ᵀ, (H, dh, d)
        p_t = (np.swapaxes(av.reshape(h, dh, m), 1, 2) @ wa_t).reshape(h * m, d)
        ctx = (lam @ xt).reshape(-1, h * m)                    # (B*N, H*m), columns (h, x̃ entry)
        pre = (ctx @ p_t).reshape(b, n, d)
    pre += ba
    y = np.maximum(pre, 0)  # ReLU, then layer norm (population variance), centred and scaled in place
    y -= y.sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt((y ** 2).sum(axis=-1, keepdims=True) / d + dtype(1e-5))
    y *= inv

    mask = None
    if training and config.dropout_rate > 0.0:
        if not rng:
            raise UsageError("dropout in training mode needs an rng")
        streams = [rng] if isinstance(rng, Rng) else rng
        if b % len(streams):
            raise ShapeError(f"dropout cannot split shape {x.shape} over {len(streams)} streams")
        rate = config.dropout_rate
        keep = keep_masks(streams, (b // len(streams), n, d), rate).reshape(b, n, d)
        mask = keep * (dtype(1.0) / dtype(1.0 - rate))
    branch = y if mask is None else y * mask
    total = tokens + branch if mask is None else np.add(tokens, branch, out=branch)
    out = Tensor((total.sum(axis=1) / n).reshape(shape or (b, d)))

    def bwd(g):
        gu = np.repeat(np.expand_dims(g.reshape(b, d) / n, 1), n, axis=1)   # token mean
        gy = gu if mask is None else gu * mask                 # dropout
        # layer norm, inv·(gy - mean(gy) - y·mean(gy·y)) one array at a time, then ReLU
        t = gy * y
        np.multiply(y, t.sum(axis=-1, keepdims=True) / d, out=t)
        ga = gy - gy.sum(axis=-1, keepdims=True) / d
        del gy
        ga -= t
        del t
        ga *= inv
        ga *= pre > 0
        ga = ga.reshape(-1, d)
        gba = ga.sum(axis=0)
        if embed is not None:  # back through pre = ctx·P, the scores x̃ᵀ·M_h·x̃ and W·E to every weight
            gp = (ctx.T @ ga).reshape(h, m, d)                 # P_hᵀ's gradient
            gs = (ga @ p_t.T).reshape(b, n * h, m) @ np.swapaxes(xt, 1, 2)   # the weights' gradient
            del ga
            gs -= (gs * lam).sum(axis=-1, keepdims=True)       # softmax
            gs *= lam
            gm = (xt2.T @ (gs @ xt).reshape(-1, h * m)).reshape(m, h, m).transpose(1, 0, 2)   # M_h's, (H, m, m)
            del gs
            gm *= f
            gaq = ak.reshape(h, dh, m) @ np.swapaxes(gm, 1, 2)
            gak = aq.reshape(h, dh, m) @ gm
            gav = wa_t @ np.swapaxes(gp, 1, 2)
            gwa = (av.reshape(h, dh, m) @ gp).transpose(2, 0, 1).reshape(d, hw)
            gemb = gu.reshape(-1, d).T @ xt2                   # the residual's share, then the three projections'
            for w, g2 in ((wq, gaq), (wk, gak), (wv, gav)):
                gemb += w.T @ g2.reshape(hw, m)
            gwk, gwq, gwv = (g2.reshape(hw, m) @ emb.T for g2 in (gak, gaq, gav))
            return None, gwk, gwq, gwv, gwa, gba, gemb[:, :c], gemb[:, c:].sum(axis=1)
        gwa = ga.T @ ctx
        gc = np.transpose((ga @ wa).reshape(b, n, h, dh), (0, 2, 1, 3))   # (B, H, N, dh)
        del ga
        gx = gu  # residual, then v, q, k: the summation order of tests/reference_ops.py
        del gu

        def through(g2, w):
            """One projection's (B*N, H*dh) gradient: into the block's input side, and returned for w."""
            nonlocal gx
            gx += (g2 @ w).reshape(b, n, d)
            return g2.T @ x2

        # one projection at a time, each gradient dropped once it is used
        gwv = through(merge_heads(np.swapaxes(lam, -1, -2), gc), wv)
        gs = gc @ np.swapaxes(v, -1, -2)                       # the weights' gradient, then softmax and scale
        del gc
        gs -= (gs * lam).sum(axis=-1, keepdims=True)
        gs *= lam
        gs *= f
        gwq = through(merge_heads(gs, np.swapaxes(k_t, -1, -2)), wq)
        gwk = through(np.transpose(np.swapaxes(q, -1, -2) @ gs, (0, 3, 1, 2)).reshape(-1, hw), wk)
        del gs
        return gx, gwk, gwq, gwv, gwa, gba

    return ad.record_op("attention", inputs, out, bwd)
