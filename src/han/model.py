"""The full hierarchical model: joints -> fingers -> hand -> time -> fusion.

One forward pass over an 8-frame skeleton sequence:

1. every joint coordinate is linearly embedded to d_model,
2. per frame, each of the 6 hand parts runs through the joint-level block
   (weights shared across parts by default) to give a part feature,
3. per frame, the 6 part features run through the finger-level block to
   give a hand feature,
4. the 7 streams (6 parts + hand) each run through the temporal block over
   the 8 frames (weights shared across streams by default),
5. the 7 temporal features are fused by the fusion block,
6. a fully connected layer maps the fused feature to class logits.

Sinusoid position embeddings are added before steps 2-5 using 1-based
indices (joint slot within its part, part number, frame number, stream
number); each addition can be toggled off independently.
"""

from __future__ import annotations

import io
import json
import struct
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .attention import (
    AttentionParams,
    PositionEmbeddingTable,
    attend_batch,
    init_attention_params,
)
from .autodiff import Tensor
from .config import HANConfig
from .data import SkeletonSequence
from .errors import CheckpointError, ConfigError, UsageError
from .rng import Rng

SITES = ("J", "F", "T", "Fusion")
STREAM_COUNT = 7  # 6 parts + whole hand


class HANModel:
    """Parameter set for one configuration; see `parameters` for the registry."""

    def __init__(self, config: HANConfig, dtype=np.float32, seed: int = 0):
        self.config = config
        self.dtype = np.dtype(dtype).type
        att = config.attention
        d = att.d_model
        max_pos = max(config.frames, STREAM_COUNT, max(len(p) for p in config.partition.parts), 6) + 1
        self.pe_table = PositionEmbeddingTable(max_pos, d)

        rng = Rng(seed, "init")

        def draw_matrix(shape, bound):
            return ad.parameter(rng.uniform(shape, -bound, bound), dtype=self.dtype)

        def draw_block():
            return init_attention_params(att, rng, dtype=self.dtype)

        self.joint_w = draw_matrix((d, 3), 1.0 / np.sqrt(3))
        self.joint_b = ad.parameter(np.zeros(d), dtype=self.dtype)
        self.j_att = [draw_block() for _ in range(1 if config.share_j_att else 6)]
        self.f_att = draw_block()
        self.t_att = [draw_block() for _ in range(1 if config.share_t_att else STREAM_COUNT)]
        self.fusion_att = draw_block()
        # the head starts 10x smaller than the fan-in rule so the initial
        # predictor is near-uniform and the first loss sits at log(class_count)
        self.cls_w = draw_matrix((config.class_count, d), 0.1 / np.sqrt(d))
        self.cls_b = ad.parameter(np.zeros(config.class_count), dtype=self.dtype)

    def j_att_for_part(self, part_idx: int) -> AttentionParams:
        return self.j_att[0] if self.config.share_j_att else self.j_att[part_idx]

    def t_att_for_stream(self, stream_idx: int) -> AttentionParams:
        return self.t_att[0] if self.config.share_t_att else self.t_att[stream_idx]

    def parameters(self) -> list[tuple[str, Tensor]]:
        """Every learnable tensor with a stable name, in a fixed order."""
        out: list[tuple[str, Tensor]] = [("joint.w", self.joint_w), ("joint.b", self.joint_b)]
        if self.config.share_j_att:
            out += self.j_att[0].named("j_att")
        else:
            for i, blk in enumerate(self.j_att):
                out += blk.named(f"j_att.{i}")
        out += self.f_att.named("f_att")
        if self.config.share_t_att:
            out += self.t_att[0].named("t_att")
        else:
            for i, blk in enumerate(self.t_att):
                out += blk.named(f"t_att.{i}")
        out += self.fusion_att.named("fusion_att")
        out += [("cls.w", self.cls_w), ("cls.b", self.cls_b)]
        return out

    def param_count(self) -> int:
        return sum(t.size for _, t in self.parameters())


def _pe_const(model: HANModel, positions, lead_shape) -> Tensor:
    """Constant tensor of sinusoid rows broadcast to (lead..., len(positions), d)."""
    block = model.pe_table.block(positions, dtype=model.dtype)
    full = np.broadcast_to(block, tuple(lead_shape) + block.shape).copy()
    return ad.constant(full)


def _frames_array(seq, model: HANModel) -> np.ndarray:
    frames = seq.frames if isinstance(seq, SkeletonSequence) else np.asarray(seq)
    cfg = model.config
    if frames.ndim != 3 or frames.shape[2] != 3:
        raise UsageError(f"sequence frames must be (T, J, 3), got {frames.shape}")
    if frames.shape[0] != cfg.frames:
        raise UsageError(f"model expects {cfg.frames} frames, got {frames.shape[0]}; sample the sequence first")
    if frames.shape[1] != cfg.joint_count:
        raise ConfigError(f"model expects {cfg.joint_count} joints, got {frames.shape[1]}")
    return frames.astype(model.dtype)


def _joint_stage(model, embedded, training, rng, capture) -> list[Tensor]:
    """Per-part aggregation over joints: returns 6 tensors of shape (T, d)."""
    cfg = model.config
    part_feats = []
    for p_idx, part in enumerate(cfg.partition.parts):
        tokens = ad.take(embedded, list(part), axis=1)          # (T, n_p, d)
        if cfg.pe_j:
            pe = _pe_const(model, range(1, len(part) + 1), (cfg.frames,))
            tokens = ad.add(tokens, pe)
        sink = [] if capture is not None else None
        feats = attend_batch(tokens, model.j_att_for_part(p_idx), cfg.attention, training, rng, sink)
        if capture is not None:
            capture[("J", p_idx)] = sink[0]                     # (T, H, n_p, n_p)
        part_feats.append(feats)
    return part_feats


def _finger_stage(model, part_feats, training, rng, capture) -> Tensor:
    """Hand feature per frame from the 6 part features: (T, d)."""
    cfg = model.config
    hand_in = ad.stack(part_feats, axis=1)                      # (T, 6, d)
    if cfg.pe_f:
        hand_in = ad.add(hand_in, _pe_const(model, range(1, 7), (cfg.frames,)))
    sink = [] if capture is not None else None
    hand = attend_batch(hand_in, model.f_att, cfg.attention, training, rng, sink)
    if capture is not None:
        capture[("F",)] = sink[0]                               # (T, H, 6, 6)
    return hand


def _temporal_stage(model, streams, training, rng, capture) -> Tensor:
    """Aggregate each of the 7 streams over time: (7, d)."""
    cfg = model.config
    frame_positions = range(1, cfg.frames + 1)
    if cfg.share_t_att:
        tin = ad.stack(streams, axis=0)                         # (7, T, d)
        if cfg.pe_t:
            tin = ad.add(tin, _pe_const(model, frame_positions, (STREAM_COUNT,)))
        sink = [] if capture is not None else None
        out = attend_batch(tin, model.t_att[0], cfg.attention, training, rng, sink)
        if capture is not None:
            capture[("T",)] = sink[0]                           # (7, H, T, T)
        return out
    feats = []
    sinks = []
    for s_idx, stream in enumerate(streams):
        tin = ad.reshape(stream, (1, cfg.frames, cfg.attention.d_model))
        if cfg.pe_t:
            tin = ad.add(tin, _pe_const(model, frame_positions, (1,)))
        sink = [] if capture is not None else None
        out = attend_batch(tin, model.t_att_for_stream(s_idx), cfg.attention, training, rng, sink)
        feats.append(ad.reshape(out, (cfg.attention.d_model,)))
        if capture is not None:
            sinks.append(sink[0][0])
    if capture is not None:
        capture[("T",)] = np.stack(sinks)
    return ad.stack(feats, axis=0)


def _fusion_stage(model, stream_feats, training, rng, capture) -> Tensor:
    """Fuse the 7 temporal features into one gesture feature: (d,)."""
    cfg = model.config
    fin = ad.reshape(stream_feats, (1, STREAM_COUNT, cfg.attention.d_model))
    if cfg.pe_fusion:
        fin = ad.add(fin, _pe_const(model, range(1, STREAM_COUNT + 1), (1,)))
    sink = [] if capture is not None else None
    fused = attend_batch(fin, model.fusion_att, cfg.attention, training, rng, sink)
    if capture is not None:
        capture[("Fusion",)] = sink[0][0]                       # (H, 7, 7)
    return ad.reshape(fused, (cfg.attention.d_model,))


def forward(seq, model: HANModel, training: bool = False, rng: Rng | None = None,
            capture: dict | None = None) -> Tensor:
    """Class logits for one already-sampled sequence; softmax lives in predict/loss."""
    cfg = model.config
    frames = _frames_array(seq, model)
    t, j = cfg.frames, cfg.joint_count
    coords = ad.constant(frames.reshape(t * j, 3))
    embedded = ad.reshape(ad.linear(coords, model.joint_w, model.joint_b), (t, j, cfg.attention.d_model))

    part_feats = _joint_stage(model, embedded, training, rng, capture)
    hand_feats = _finger_stage(model, part_feats, training, rng, capture)
    stream_feats = _temporal_stage(model, part_feats + [hand_feats], training, rng, capture)
    fused = _fusion_stage(model, stream_feats, training, rng, capture)
    logits = ad.linear(ad.reshape(fused, (1, cfg.attention.d_model)), model.cls_w, model.cls_b)
    return ad.reshape(logits, (cfg.class_count,))


def predict(seq, model: HANModel) -> tuple[int, np.ndarray]:
    """Eval-mode class index and probability vector; ties go to the lowest index."""
    logits = forward(seq, model, training=False).data.astype(np.float64)
    shifted = logits - logits.max()
    e = np.exp(shifted)
    probs = e / e.sum()
    return int(np.argmax(probs)), probs


@dataclass
class AttentionMaps:
    """Head-resolved attention at one site, plus the visualization average."""

    site: str
    per_head: np.ndarray            # (H, N, N)
    head_avg: np.ndarray            # (N, N)
    frame_sums: np.ndarray | None   # (N,) column sums, temporal site only


def extract_attention(seq, model: HANModel, site: str, *, frame: int | None = None,
                      part: int | None = None, stream: int | None = None) -> AttentionMaps:
    """Eval-mode attention matrices at one site of the hierarchy.

    Selectors: site "J" needs frame and part; "F" needs frame; "T" needs
    stream (0-5 the parts in partition order, 6 the whole hand); "Fusion"
    needs none.
    """
    cfg = model.config
    if site not in SITES:
        raise UsageError(f"site must be one of {SITES}, got '{site}'")
    capture: dict = {}
    forward(seq, model, training=False, capture=capture)

    def need(value, name, bound):
        if value is None:
            raise UsageError(f"site '{site}' needs the {name} selector")
        if not 0 <= value < bound:
            raise UsageError(f"{name} selector {value} out of range [0, {bound})")
        return value

    if site == "J":
        p = need(part, "part", 6)
        f = need(frame, "frame", cfg.frames)
        per_head = capture[("J", p)][f]
    elif site == "F":
        f = need(frame, "frame", cfg.frames)
        per_head = capture[("F",)][f]
    elif site == "T":
        s = need(stream, "stream", STREAM_COUNT)
        per_head = capture[("T",)][s]
    else:
        per_head = capture[("Fusion",)]
    head_avg = per_head.mean(axis=0)
    frame_sums = head_avg.sum(axis=0) if site == "T" else None
    return AttentionMaps(site=site, per_head=per_head, head_avg=head_avg, frame_sums=frame_sums)


# ---------------------------------------------------------------------------
# checkpoint format
# ---------------------------------------------------------------------------
#
# HAN-CKPT v1, all integers little-endian:
#   line   b"HAN-CKPT v1\n"
#   u32    config JSON length, then that many UTF-8 bytes (sorted keys)
#   u32    tensor count
#   per tensor:
#     u16  name length, then the UTF-8 name
#     u8   ndim, then ndim x u32 dims
#     u64  payload byte length, then row-major little-endian values
#          (dtype from the config echo: float32 or float64)

_MAGIC = b"HAN-CKPT v1\n"
_DTYPES = ("float32", "float64")


def save_checkpoint(model: HANModel, path: str) -> None:
    buf = io.BytesIO()
    buf.write(_MAGIC)
    config = dict(model.config.to_dict(), dtype=np.dtype(model.dtype).name)
    payload = json.dumps(config, sort_keys=True, separators=(",", ":")).encode("utf-8")
    buf.write(struct.pack("<I", len(payload)))
    buf.write(payload)
    params = model.parameters()
    buf.write(struct.pack("<I", len(params)))
    for name, tensor in params:
        encoded = name.encode("utf-8")
        buf.write(struct.pack("<H", len(encoded)))
        buf.write(encoded)
        buf.write(struct.pack("<B", tensor.ndim))
        for dim in tensor.shape:
            buf.write(struct.pack("<I", dim))
        raw = np.ascontiguousarray(tensor.data).astype(tensor.data.dtype.newbyteorder("<")).tobytes()
        buf.write(struct.pack("<Q", len(raw)))
        buf.write(raw)
    with open(path, "wb") as fh:
        fh.write(buf.getvalue())


def load_checkpoint(path: str) -> HANModel:
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    buf = io.BytesIO(blob)
    magic = buf.read(len(_MAGIC))
    if magic != _MAGIC:
        raise CheckpointError(f"{path}: not a HAN-CKPT v1 checkpoint (bad header {magic[:16]!r})")

    def read_exact(n, what):
        raw = buf.read(n)
        if len(raw) != n:
            raise CheckpointError(f"{path}: truncated checkpoint while reading {what}")
        return raw

    (cfg_len,) = struct.unpack("<I", read_exact(4, "config length"))
    try:
        config_dict = json.loads(read_exact(cfg_len, "config").decode("utf-8"))
        dtype_name = config_dict.pop("dtype")
        config = HANConfig.from_dict(config_dict)
    except (ValueError, KeyError, TypeError, AttributeError, ConfigError) as exc:
        raise CheckpointError(f"{path}: invalid checkpoint config: {exc}") from exc
    if dtype_name not in _DTYPES:
        raise CheckpointError(f"{path}: tensor dtype {dtype_name!r} is not one of {', '.join(_DTYPES)}")
    dtype = np.dtype(dtype_name)

    # the seeded weights are placeholders: every tensor is overwritten below
    model = HANModel(config, dtype=dtype)
    expected = dict(model.parameters())
    (count,) = struct.unpack("<I", read_exact(4, "tensor count"))
    if count != len(expected):
        raise CheckpointError(f"{path}: checkpoint has {count} tensors, config implies {len(expected)}")
    seen: set[str] = set()
    for _ in range(count):
        (name_len,) = struct.unpack("<H", read_exact(2, "name length"))
        name = read_exact(name_len, "name").decode("utf-8")
        if name not in expected:
            raise CheckpointError(f"{path}: unexpected tensor '{name}' for this config")
        if name in seen:
            raise CheckpointError(f"{path}: tensor '{name}' appears twice")
        seen.add(name)
        (ndim,) = struct.unpack("<B", read_exact(1, "ndim"))
        dims = tuple(struct.unpack("<I", read_exact(4, "dim"))[0] for _ in range(ndim))
        target = expected[name]
        if dims != target.shape:
            raise CheckpointError(f"{path}: tensor '{name}' has shape {dims}, config implies {target.shape}")
        (nbytes,) = struct.unpack("<Q", read_exact(8, "payload length"))
        want_bytes = int(np.prod(dims, dtype=np.int64)) * dtype.itemsize
        if nbytes != want_bytes:
            raise CheckpointError(f"{path}: tensor '{name}' payload is {nbytes} bytes, expected {want_bytes}")
        raw = read_exact(nbytes, f"tensor '{name}'")
        values = np.frombuffer(raw, dtype=dtype.newbyteorder("<")).astype(dtype)
        target.data = np.ascontiguousarray(values.reshape(dims))
    trailing = len(blob) - buf.tell()
    if trailing:
        raise CheckpointError(f"{path}: {trailing} trailing bytes after the last tensor")
    return model
