"""The full hierarchical model: joints -> fingers -> hand -> time -> fusion.

`forward` maps a batch of sequences, each resampled to T = `config.frames`
frames, to (B, C) logits:

1. the joint coordinates are gathered into hand-part order, once,
2. per frame, each of the 6 hand parts runs through the joint-level block
   (weights shared across parts by default) to give a part feature; the
   block embeds the raw coordinates to d_model itself, folding the affine
   embedding into its key/query/value projections (`attend_batch`'s `embed`),
3. per frame, the 6 part features run through the finger-level block to
   give a hand feature,
4. the 7 streams (6 parts + hand) each run through the temporal block over
   the T frames (weights shared across streams by default),
5. the 7 temporal features are fused by the fusion block,
6. a fully connected layer maps the fused feature to class logits.

`forward` lays out each site's token groups as batch-major rows (B·G, N, c)
for one `attend_batch` call: J reads (B·T, n_p, 3) slices of the gathered
coordinates, F stacks the 6 part rows, T folds the 7 streams as (B·7, T, d)
for a shared block (one call per stream otherwise), and Fusion takes T's
(B, 7, d) output as it is. Sinusoid position embeddings are added to the
tokens of steps 2-5 by the block (`attend_batch`'s `pe`) using 1-based
indices (joint slot within its part, part number, frame number, stream
number); each addition can be toggled off independently.
"""

from __future__ import annotations

import io
import json
import os
import secrets
import struct
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .attention import AttentionParams, attend_batch, param_table, positional_embedding
from .autodiff import Tensor
from .config import HANConfig
from .data import PART_COUNT, SkeletonSequence, is_integer, uniform_sample
from .errors import CheckpointError, ConfigError, DataError, UsageError
from .rng import Rng

STREAM_COUNT = PART_COUNT + 1  # the parts + whole hand
# each site of the hierarchy: its blocks' name prefix, the HANConfig flag that adds its
# position rows and the one that shares a block across its groups (None: it has one block)
SITES = {"J": ("j_att", "pe_j", "share_j_att"), "F": ("f_att", "pe_f", None),
         "T": ("t_att", "pe_t", "share_t_att"), "Fusion": ("fusion_att", "pe_fusion", None)}
EVAL_CHUNK = 8  # sequences per eval-mode forward in `probabilities`; bounds peak memory


class HANModel:
    """Parameter set for one configuration; see `parameters` for the registry."""

    def __init__(self, config: HANConfig, dtype=ad.DEFAULT_DTYPE, seed: int = 0):
        rng = Rng(seed, "init")
        self._build(config, dtype, lambda name, shape, bound: rng.uniform(shape, -bound, bound) if bound
                    else np.zeros(shape))

    def _build(self, config: HANConfig, dtype, value) -> None:
        """The one construction path: each parameter of `_parameter_table` is
        `value(name, shape, bound)`, a seeded draw or the values of a file."""
        self.config = config
        self.dtype = np.dtype(dtype).type
        att = config.attention
        d = att.d_model
        max_pos = max(n for calls in site_calls(config).values() for _, n in calls) + 1
        # sinusoid rows 0..max_pos-1, cast once; a site with N tokens adds rows 1..N
        self.pe = np.stack([positional_embedding(i, d) for i in range(max_pos)]).astype(self.dtype)
        self._params = {name: ad.parameter(value(name, shape, bound), dtype=self.dtype)
                        for name, shape, bound in _parameter_table(config)}

        def blocks(prefix):
            # shapes are checked here, once per build, not in every attend_batch call
            return [AttentionParams(**{f: self._params[f"{name}.{f}"] for f, _, _ in param_table(att)}).validate(att)
                    for name in block_names(config)[prefix]]

        self.joint_w, self.joint_b = self._params["joint.w"], self._params["joint.b"]
        self.j_att = blocks("j_att")
        self.f_att, = blocks("f_att")
        self.t_att = blocks("t_att")
        self.fusion_att, = blocks("fusion_att")
        self.cls_w, self.cls_b = self._params["cls.w"], self._params["cls.b"]

    def parameters(self) -> list[tuple[str, Tensor]]:
        """Every learnable tensor with a stable name, in a fixed order."""
        return list(self._params.items())

    def param_count(self) -> int:
        return sum(t.size for _, t in self.parameters())


def site_calls(config: HANConfig) -> dict[str, list[tuple[int, int]]]:
    """Each site's token groups for one sequence as (groups, tokens) entries, one per block
    the site owns when unshared: J a part's joints per frame, F the parts per frame, T the
    frames of each stream (the parts, then the whole hand), Fusion the streams."""
    t = config.frames
    return {"J": [(t, len(part)) for part in config.partition.parts], "F": [(t, PART_COUNT)],
            "T": [(1, t)] * STREAM_COUNT, "Fusion": [(1, STREAM_COUNT)]}


def block_names(config: HANConfig) -> dict[str, list[str]]:
    """Each site's attention blocks by name: one shared block, or one per `site_calls` entry."""
    calls = site_calls(config)
    return {prefix: [prefix] if share is None or getattr(config, share) else
            [f"{prefix}.{i}" for i in range(len(calls[site]))] for site, (prefix, _, share) in SITES.items()}


def _parameter_table(config: HANConfig) -> list[tuple[str, tuple[int, ...], float]]:
    """Every learnable tensor's name, shape and uniform init bound, in registry order.

    A bound of 0 starts the tensor at zero. The constructor draws by this
    table and `load_checkpoint` reads by it.
    """
    d, c = config.attention.d_model, config.class_count
    table = [("joint.w", (d, 3), 1.0 / np.sqrt(3)), ("joint.b", (d,), 0.0)]
    for names in block_names(config).values():
        table += [(f"{name}.{f}", shape, bound) for name in names for f, shape, bound in param_table(config.attention)]
    # the head starts 10x smaller than the fan-in rule so the initial
    # predictor is near-uniform and the first loss sits at log(class_count)
    table += [("cls.w", (c, d), 0.1 / np.sqrt(d)), ("cls.b", (c,), 0.0)]
    return table


def _batch_array(seqs, model: HANModel) -> np.ndarray:
    """(B, config.frames, J, 3) model-dtype frames of a list of sequences or one (B, T, J, 3) array. A raw row must
    pass as a `SkeletonSequence` (else `sequence <i> of the batch: <its DataError>`); other lengths are resampled."""
    cfg = model.config
    if not isinstance(seqs, (list, tuple)) and np.ndim(seqs) != 4 or len(seqs) == 0:
        raise UsageError(f"forward takes a batch of one or more (T, J, 3) sequences, got {np.shape(seqs)}")
    batch = []
    for row, seq in enumerate(seqs):
        try:
            seq = seq if isinstance(seq, SkeletonSequence) else SkeletonSequence(seq, 0)
            if seq.joint_count != cfg.joint_count:
                raise ConfigError(f"model expects {cfg.joint_count} joints, got {seq.joint_count}")
            batch.append(seq.frames if seq.frame_count == cfg.frames else uniform_sample(seq, cfg.frames).frames)
        except DataError as exc:
            raise DataError(f"sequence {row} of the batch: {exc}") from exc
    with np.errstate(over="ignore"):  # an overflowing cast is reported below, per row
        frames = np.asarray(batch, dtype=model.dtype)
        for row, ok in enumerate(np.isfinite(frames).all(axis=(1, 2, 3))):
            if not ok:  # a sequence's frames can be changed in place after its check
                finite = np.isfinite(batch[row]).all()
                what = f"coordinates beyond {frames.dtype} range" if finite else "non-finite coordinates"
                raise DataError(f"sequence {row} of the batch has {what}")
    return frames


def _attend_site(model, key, x, block, training, rng, capture, embed=None) -> Tensor:
    """One block call on batch-major token rows: (B·G, N, c) -> (B·G, d).

    Row b·G + g is group g of sequence b, so each sequence's dropout stream
    draws a contiguous share. The call adds position rows 1..N when the flag
    of site `key[0]` is on, appends its (B·G, H, N, N) weights to the list
    `capture[key]`, and with `embed` embeds the raw coordinates of `x` itself."""
    pe = model.pe[1:x.shape[1] + 1] if getattr(model.config, SITES[key[0]][1]) else None
    sink = None if capture is None else capture.setdefault(key, [])
    return attend_batch(x, block, model.config.attention, training, rng, sink, pe, embed)


def forward(seqs, model: HANModel, training: bool = False, rng: Rng | list[Rng] | None = None,
            capture: dict | None = None) -> Tensor:
    """Class logits (B, C) for a list of sequences or one (B, T, J, 3) array, each resampled to `config.frames`.

    Training mode takes one dropout stream per sequence (or one stream for
    B=1); `capture` gets every site's (B, G, H, N, N) attention weights.
    """
    cfg = model.config
    frames = _batch_array(seqs, model)
    b, t = frames.shape[:2]
    d = cfg.attention.d_model
    rng = [rng] if isinstance(rng, Rng) else rng
    if rng is not None and len(rng) != b:
        raise UsageError(f"forward got {len(rng)} dropout streams for {b} sequences")
    parts = cfg.partition.parts
    coords = frames[:, :, np.concatenate(parts)].reshape(b * t, -1, 3)   # one gather into partition order
    maps = None if capture is None else {}

    part_rows, start = [], 0                                    # 6 x (B·T, d)
    for p_idx, part in enumerate(parts):
        tokens = ad.constant(coords[:, start:start + len(part)])          # (B·T, n_p, 3)
        start += len(part)
        part_rows.append(_attend_site(model, ("J", p_idx), tokens, model.j_att[0 if cfg.share_j_att else p_idx],
                                      training, rng, maps, (model.joint_w, model.joint_b)))
    hand = _attend_site(model, ("F",), ad.stack(part_rows, axis=1), model.f_att, training, rng, maps)
    streams = [ad.reshape(s, (b, t, d)) for s in part_rows + [hand]]   # 7 x (B, T, d)
    if cfg.share_t_att:
        folded = ad.reshape(ad.stack(streams, axis=1), (b * STREAM_COUNT, t, d))
        stream_feats = ad.reshape(_attend_site(model, ("T",), folded, model.t_att[0], training, rng, maps),
                                  (b, STREAM_COUNT, d))
    else:
        stream_feats = ad.stack([_attend_site(model, ("T",), s, blk, training, rng, maps)
                                 for s, blk in zip(streams, model.t_att)], axis=1)
    fused = _attend_site(model, ("Fusion",), stream_feats, model.fusion_att, training, rng, maps)
    if capture is not None:  # each site's calls as (B, G, H, N, N)
        capture.update((key, np.stack(m, axis=1).reshape(b, -1, *m[0].shape[1:])) for key, m in maps.items())
    return ad.linear(fused, model.cls_w, model.cls_b)


def probabilities(seqs, model: HANModel) -> np.ndarray:
    """Eval-mode class probabilities (B, C) in float64, forwarded EVAL_CHUNK sequences at a time.

    A sequence whose forward overflows gets a row that is not finite, with
    no numpy warning; `evaluate` reports it, and `predict` passes it on.
    """
    frames = _batch_array(seqs, model)  # checked whole, so an error names the row in `seqs`
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported in the result
        logits = np.concatenate([
            forward(frames[start:start + EVAL_CHUNK], model).data.astype(np.float64)
            for start in range(0, len(frames), EVAL_CHUNK)
        ])
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        return e / e.sum(axis=1, keepdims=True)


def predict(seq, model: HANModel) -> tuple[int, np.ndarray]:
    """Eval-mode class index and probability vector of one sequence; ties go to the lowest index."""
    probs = probabilities([seq], model)[0]
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

    Selectors: site "J" needs frame and part; "F" needs frame (a resampled
    frame); "T" needs stream (0-5 the parts in partition order, 6 the whole
    hand); "Fusion" needs none. A selector the site does not take is a
    UsageError. An overflow gives maps that are not finite.
    """
    cfg = model.config
    if site not in SITES:
        raise UsageError(f"site must be one of {tuple(SITES)}, got '{site}'")
    unused = {"frame": frame, "part": part, "stream": stream}

    def need(name, bound):
        value = unused.pop(name)
        if value is None:
            raise UsageError(f"site '{site}' needs the {name} selector")
        if not is_integer(value):
            raise UsageError(f"{name} selector must be an integer, got {value!r}")
        if not 0 <= value < bound:
            raise UsageError(f"{name} selector {value} out of range [0, {bound})")
        return value

    # every selector is checked before the forward runs
    if site == "J":
        key, group = ("J", need("part", PART_COUNT)), need("frame", cfg.frames)
    elif site == "F":
        key, group = ("F",), need("frame", cfg.frames)
    elif site == "T":
        key, group = ("T",), need("stream", STREAM_COUNT)
    else:
        key, group = ("Fusion",), 0
    for name, value in unused.items():
        if value is not None:
            raise UsageError(f"site '{site}' takes no {name} selector")
    capture: dict = {}
    with np.errstate(over="ignore", invalid="ignore"):  # the caller checks the maps
        forward([seq], model, training=False, capture=capture)
    per_head = capture[key][0, group]                          # (H, N, N)
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
_DTYPES = [np.dtype(t).name for t in ad.DTYPES]


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
    # rename a finished file over the target: a failed save keeps the old checkpoint
    tmp = f"{path}.{os.getpid()}-{secrets.token_hex(4)}.tmp"
    try:
        with open(tmp, "xb") as fh:
            fh.write(buf.getvalue())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


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
    if unknown := sorted(config_dict.keys() - config.to_dict().keys()):  # `from_dict` reads by field name only
        raise CheckpointError(f"{path}: unknown checkpoint config keys {unknown}")
    if dtype_name not in _DTYPES:
        raise CheckpointError(f"{path}: tensor dtype {dtype_name!r} is not one of {', '.join(_DTYPES)}")
    dtype = np.dtype(dtype_name)

    expected = {name: shape for name, shape, _ in _parameter_table(config)}
    (count,) = struct.unpack("<I", read_exact(4, "tensor count"))
    if count != len(expected):
        raise CheckpointError(f"{path}: checkpoint has {count} tensors, config implies {len(expected)}")
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", read_exact(2, "name length"))
        try:
            name = read_exact(name_len, "name").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"{path}: tensor name is not UTF-8 ({exc.reason})") from exc
        if name not in expected:
            raise CheckpointError(f"{path}: unexpected tensor '{name}' for this config")
        if name in tensors:
            raise CheckpointError(f"{path}: tensor '{name}' appears twice")
        (ndim,) = struct.unpack("<B", read_exact(1, "ndim"))
        dims = tuple(struct.unpack("<I", read_exact(4, "dim"))[0] for _ in range(ndim))
        if dims != expected[name]:
            raise CheckpointError(f"{path}: tensor '{name}' has shape {dims}, config implies {expected[name]}")
        (nbytes,) = struct.unpack("<Q", read_exact(8, "payload length"))
        want_bytes = int(np.prod(dims, dtype=np.int64)) * dtype.itemsize
        if nbytes != want_bytes:
            raise CheckpointError(f"{path}: tensor '{name}' payload is {nbytes} bytes, expected {want_bytes}")
        raw = read_exact(nbytes, f"tensor '{name}'")
        values = np.frombuffer(raw, dtype=dtype.newbyteorder("<")).astype(dtype)
        if not np.all(np.isfinite(values)):
            raise CheckpointError(f"{path}: tensor '{name}' holds non-finite values")
        tensors[name] = values.reshape(dims)
    trailing = len(blob) - buf.tell()
    if trailing:
        raise CheckpointError(f"{path}: {trailing} trailing bytes after the last tensor")
    model = HANModel.__new__(HANModel)
    model._build(config, dtype, lambda name, shape, bound: tensors[name])
    return model
