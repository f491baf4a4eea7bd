"""Skeleton sequence ingestion, hand partitioning, sampling, augmentation, and the dataclass field check.

File formats
------------
Sequence file: UTF-8 text, one frame per line, 3*J whitespace-separated
decimal reals, joint-major (x1 y1 z1 x2 y2 z2 ...), each read as Python
float() reads it.

Manifest file: header lines ``classes=<n>``, ``joints=<22|21>`` and optional
``partition=<name|path>``; then one entry per line,
``path<TAB>label[<TAB>split]`` with split in {train, test} (default train).
Paths are resolved relative to the manifest's directory.

Partition file: 6 lines, each a comma-separated list of joint indices, in
the order thumb, index, middle, ring, pinky, palm group.
"""

import dataclasses
import io
import math
import os
import sys
import types
import typing
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import ConfigError, DataError, ParseError
from .rng import Rng

# the most classes and sampled frames a manifest, config or checkpoint may
# declare; the model allocates its head and position table for them
MAX_CLASSES = 65_536
MAX_FRAMES = 4_096

PART_COUNT = 6  # hand parts in every partition
FLOAT_FORMAT = "%.9g"  # sequence files and attention CSVs: 9 significant digits round-trip float32
WRITE_BLOCK_ROWS = 256  # rows per `%` in write_table


def is_integer(value) -> bool:
    """An int or a numpy integer, never a bool: what a count or an index must be."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_fields(obj) -> None:
    """Check every field of a dataclass by its declared type and store what `_scalar` returns."""
    for f in dataclasses.fields(obj):
        object.__setattr__(obj, f.name, _scalar(f.name, f.type, getattr(obj, f.name)))


def _scalar(name: str, kind, value):
    """What a field of type `kind` stores for `value`, or a ConfigError naming the field.

    An int takes an integer (a bool is not one); a float a finite real number (an
    integer too, never a bool); a bool a bool or a numpy bool; a class an instance
    of it, and a generic such as `tuple[int, ...]` an instance of its origin.
    `X | None` also takes None.
    """
    if isinstance(kind, types.UnionType):
        if value is None:
            return None
        kind = typing.get_args(kind)[0]
    if kind is int and not is_integer(value):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if kind is float and not (abs(int(value)) <= sys.float_info.max if is_integer(value)
                              else isinstance(value, (float, np.floating)) and math.isfinite(value)):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    if kind is bool and not isinstance(value, (bool, np.bool_)):
        raise ConfigError(f"{name} must be a bool, got {value!r}")
    if kind not in (int, float, bool) and not isinstance(value, typing.get_origin(kind) or kind):
        raise ConfigError(f"{name} must be of type {kind.__name__}, got {value!r}")
    return kind(value) if kind in (int, float, bool) else value


def check_seed(seed) -> int:
    """A seed as an int: an integer >= 0, or a ConfigError naming `seed`."""
    seed = _scalar("seed", int, seed)
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    return seed


@dataclass(frozen=True)
class HandPartition:
    """Assignment of every joint index to one of 6 hand parts."""

    parts: tuple[tuple[int, ...], ...]
    name: str = "custom"

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(map(tuple, self.parts)))  # lists of lists too
        check_fields(self)
        if len(self.parts) != PART_COUNT:
            raise ConfigError(f"partition needs exactly {PART_COUNT} parts, got {len(self.parts)}")
        seen: set[int] = set()
        for part in self.parts:
            if not part:
                raise ConfigError("every partition part needs at least one joint")
            for j in part:
                if j < 0:
                    raise ConfigError(f"negative joint index {j} in partition")
                if j in seen:
                    raise ConfigError(f"joint {j} appears in more than one part")
                seen.add(j)
        expected = set(range(len(seen)))  # never a range up to the largest index: it may be huge
        if seen != expected:
            raise ConfigError(f"partition does not cover joints {sorted(expected - seen)}; "
                              f"indices {sorted(seen - expected)} are out of range for {len(seen)} joints")
        for j in chain.from_iterable(self.parts):  # 2.0 covers joint 2, so this comes after the coverage check
            if not is_integer(j):
                raise ConfigError(f"joint index {j!r} in partition is not an integer")
        object.__setattr__(self, "parts", tuple(tuple(map(int, part)) for part in self.parts))  # numpy ints as int

    @property
    def joint_count(self) -> int:
        return sum(len(p) for p in self.parts)

    def to_lists(self) -> list[list[int]]:
        return [list(p) for p in self.parts]


# 22 joints: wrist 0, palm 1, then base-to-tip quadruples per finger.
SHREC22 = HandPartition(
    parts=(
        (2, 3, 4, 5),       # thumb
        (6, 7, 8, 9),       # index
        (10, 11, 12, 13),   # middle
        (14, 15, 16, 17),   # ring
        (18, 19, 20, 21),   # pinky
        (0, 1),             # palm group: wrist + palm
    ),
    name="shrec22",
)

# 21 joints: wrist 0, five metacarpals 1-5, then PIP/DIP/TIP triples per finger.
FPHA21 = HandPartition(
    parts=(
        (1, 6, 7, 8),       # thumb
        (2, 9, 10, 11),     # index
        (3, 12, 13, 14),    # middle
        (4, 15, 16, 17),    # ring
        (5, 18, 19, 20),    # pinky
        (0,),               # palm group: wrist only
    ),
    name="fpha21",
)

_BUILTIN_PARTITIONS = {p.name: p for p in (SHREC22, FPHA21)}


def default_partition(joint_count: int) -> HandPartition:
    for partition in _BUILTIN_PARTITIONS.values():
        if partition.joint_count == joint_count:
            return partition
    raise ConfigError(f"no built-in partition for {joint_count} joints; supply a partition file")


def read_lines(path: str, what: str) -> list[str]:
    """Lines of a UTF-8 text file as text mode reads them; bytes that are not UTF-8 are a ParseError."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read {what} {path}: {exc}") from exc
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = raw.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"{path}:{lineno}: {what} is not UTF-8 text (byte {raw[exc.start]:#04x})") from exc
    return io.StringIO(text, newline=None).readlines()


def load_partition(path: str) -> HandPartition:
    lines = [ln.strip() for ln in read_lines(path, "partition file") if ln.strip()]
    if len(lines) != PART_COUNT:
        raise ParseError(f"{path}: partition file needs {PART_COUNT} lines, found {len(lines)}")
    parts = []
    for i, line in enumerate(lines, start=1):
        try:
            parts.append(tuple(int(tok) for tok in line.split(",")))
        except ValueError as exc:
            raise ParseError(f"{path}:{i}: non-integer joint index") from exc
    try:
        return HandPartition(parts=tuple(parts), name=os.path.basename(path))
    except ConfigError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def resolve_partition(name_or_path: str, base_dir: str = ".") -> HandPartition:
    """A partition named in a manifest or config: built-in name or file path."""
    if name_or_path in _BUILTIN_PARTITIONS:
        return _BUILTIN_PARTITIONS[name_or_path]
    path = name_or_path if os.path.isabs(name_or_path) else os.path.join(base_dir, name_or_path)
    if os.path.exists(path):
        return load_partition(path)
    raise ConfigError(f"partition '{name_or_path}' is neither a built-in name nor an existing file")


@dataclass
class SkeletonSequence:
    """T frames of J joints with 3-d coordinates, plus a class label."""

    frames: np.ndarray              # (T, J, 3) float64
    label: int

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=np.float64)
        check_fields(self)  # a numpy integer label is stored as int
        if self.frames.ndim != 3 or self.frames.shape[2] != 3 or self.frames.shape[0] < 1:
            raise DataError(f"sequence frames must be (T, J, 3) with T >= 1, got {self.frames.shape}")
        if not np.all(np.isfinite(self.frames)):
            raise DataError("sequence contains non-finite coordinates")

    @property
    def frame_count(self) -> int:
        return self.frames.shape[0]

    @property
    def joint_count(self) -> int:
        return self.frames.shape[1]


def parse_sequence(path: str, joint_count: int, label: int = 0) -> SkeletonSequence:
    """Read one sequence file; every nonempty line must hold exactly 3*J reals, read as float() reads them."""
    lines = read_lines(path, "sequence file")
    # np.loadtxt parses in C with float()'s own core, accepting a subset of its tokens; it warns
    # on a file with no data, so a blank file goes straight to the line walk, which names it
    if not all(map(str.isspace, lines)):
        try:
            values = np.loadtxt(lines, dtype=np.float64, comments=None, ndmin=2)
        except ValueError:  # a malformed line, or a token only float() reads: the line walk decides
            pass
        else:
            if len(values) and values.shape[1] == 3 * joint_count and _in_float32_range(values).all():
                return SkeletonSequence(frames=values.reshape(-1, joint_count, 3), label=label)
    return _parse_lines(path, lines, joint_count, label)


def _in_float32_range(values: np.ndarray) -> np.ndarray:
    return np.abs(values) <= np.finfo(np.float32).max  # nan fails the comparison too


def _parse_lines(path: str, lines: list[str], joint_count: int, label: int) -> SkeletonSequence:
    """The line walk: every error in a sequence file's frames is raised here."""
    want = 3 * joint_count
    linenos = []

    def rows():
        for lineno, line in enumerate(lines, start=1):
            tokens = line.split()
            if not tokens:
                continue
            if len(tokens) != want:
                raise ParseError(f"{path}:{lineno}: expected {want} values for {joint_count} joints, "
                                 f"found {len(tokens)}")
            linenos.append(lineno)
            yield map(float, tokens)

    try:  # one array per file, filled value by value: a list of every value would raise peak memory
        values = np.fromiter(chain.from_iterable(rows()), dtype=np.float64)
    except ValueError as exc:  # from float() on the line last started
        raise ParseError(f"{path}:{linenos[-1]}: non-numeric token") from exc
    if not linenos:
        raise ParseError(f"{path}: no frames found")
    frames = values.reshape(-1, joint_count, 3)
    in_range = _in_float32_range(frames).all(axis=(1, 2))  # one pass per file: a per-line check slows parsing
    if not in_range.all():
        row = int(np.argmin(in_range))
        what = "non-finite coordinate" if not np.isfinite(frames[row]).all() else "coordinate beyond float32 range"
        raise ParseError(f"{path}:{linenos[row]}: {what}")
    return SkeletonSequence(frames=frames, label=label)


def write_table(fh, table: np.ndarray, fmt: str = FLOAT_FORMAT, delimiter: str = " ") -> None:
    """Write a 2-D table to an open text handle, one line per row, each value as `fmt % value`.

    One `%` formats a block of WRITE_BLOCK_ROWS rows, so the text held at
    once does not grow with the table.
    """
    rows, cols = table.shape
    line = delimiter.join([fmt] * cols) + "\n"
    for start in range(0, rows, WRITE_BLOCK_ROWS):
        block = table[start:start + WRITE_BLOCK_ROWS]
        fh.write((line * len(block)) % tuple(block.ravel().tolist()))


def write_sequence(seq: SkeletonSequence, path: str) -> None:
    """Write the sequence file form; values at 9 significant digits."""
    with open(path, "w", encoding="utf-8") as fh:
        write_table(fh, seq.frames.reshape(seq.frame_count, -1))


def uniform_sample(seq: SkeletonSequence, target_frames: int) -> SkeletonSequence:
    """Resample to exactly `target_frames` frames on a uniform time grid.

    For T >= target the grid picks source frames round(k*(T-1)/(target-1));
    shorter sequences are linearly interpolated at the same grid. A sequence
    already at the target length is returned unchanged.
    """
    if _scalar("target_frames", int, target_frames) < 1:
        raise ConfigError(f"target_frames must be >= 1, got {target_frames}")
    t = seq.frame_count
    if t == target_frames:
        return seq
    if target_frames == 1:
        return SkeletonSequence(frames=seq.frames[:1].copy(), label=seq.label)
    positions = np.arange(target_frames, dtype=np.float64) * (t - 1) / (target_frames - 1)
    if t >= target_frames:
        idx = np.rint(positions).astype(int)
        frames = seq.frames[idx].copy()
    else:
        frames = _interpolate_frames(seq.frames, positions)
    return SkeletonSequence(frames=frames, label=seq.label)


def _interpolate_frames(frames: np.ndarray, positions: np.ndarray) -> np.ndarray:
    t = frames.shape[0]
    pos = np.clip(positions, 0.0, t - 1.0)
    lo = np.floor(pos).astype(int)
    hi = np.minimum(lo + 1, t - 1)
    w = (pos - lo)[:, None, None]
    return frames[lo] * (1.0 - w) + frames[hi] * w


def augment(seq: SkeletonSequence, config, rng: Rng) -> SkeletonSequence:
    """Scale, shift, temporally re-interpolate, and perturb one sequence by an `AugmentationConfig`.

    Each transform draws once per sequence from `rng`; frame count, joint
    count and label are preserved.
    """
    frames = seq.frames
    factor = rng.uniform(None, config.scale_min, config.scale_max)
    frames = frames * factor
    offset = rng.uniform((3,), -config.shift_range, config.shift_range)
    frames = frames + offset
    phase = rng.uniform(None, -config.time_jitter, config.time_jitter)
    if phase != 0.0 and frames.shape[0] > 1:
        positions = np.arange(frames.shape[0], dtype=np.float64) + phase
        frames = _interpolate_frames(frames, positions)
    if config.noise_std > 0.0:
        frames = frames + rng.normal(frames.shape, 0.0, config.noise_std)
    return SkeletonSequence(frames=frames, label=seq.label)


@dataclass
class ManifestEntry:
    path: str
    label: int
    split: str


@dataclass
class Dataset:
    """A parsed manifest: class/joint declarations plus resolvable entries."""

    class_count: int
    joint_count: int
    partition: HandPartition
    entries: list[ManifestEntry]

    def split_entries(self, split: str) -> list[ManifestEntry]:
        return [e for e in self.entries if e.split == split]

    def load_split(self, split: str) -> list[SkeletonSequence]:
        return [parse_sequence(e.path, self.joint_count, label=e.label) for e in self.split_entries(split)]


def load_manifest(path: str) -> Dataset:
    raw_lines = read_lines(path, "manifest")
    base_dir = os.path.dirname(os.path.abspath(path))
    header: dict[str, str] = {}
    header_lines: dict[str, int] = {}
    entries: list[ManifestEntry] = []
    for lineno, line in enumerate(raw_lines, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        if "=" in text and "\t" not in text:
            key, _, value = text.partition("=")
            key = key.strip()
            if key not in ("classes", "joints", "partition"):
                raise ParseError(f"{path}:{lineno}: unknown manifest header '{key}'")
            if key in header:
                raise ParseError(f"{path}:{lineno}: manifest header '{key}' repeats line {header_lines[key]}")
            header[key] = value.strip()
            header_lines[key] = lineno
            continue
        fields = text.split("\t")
        if len(fields) not in (2, 3):
            raise ParseError(f"{path}:{lineno}: expected path<TAB>label[<TAB>split]")
        split = fields[2].strip() if len(fields) == 3 else "train"
        if split not in ("train", "test"):
            raise ParseError(f"{path}:{lineno}: split must be 'train' or 'test', got '{split}'")
        try:
            label = int(fields[1])
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: non-integer label '{fields[1]}'") from exc
        seq_path = fields[0] if os.path.isabs(fields[0]) else os.path.join(base_dir, fields[0])
        entries.append(ManifestEntry(path=seq_path, label=label, split=split))

    for key in ("classes", "joints"):
        if key not in header:
            raise ParseError(f"{path}: manifest is missing the '{key}=' header")
    try:
        class_count = int(header["classes"])
        joint_count = int(header["joints"])
    except ValueError as exc:
        raise ParseError(f"{path}: non-integer manifest header value") from exc
    if not 2 <= class_count <= MAX_CLASSES:
        raise ParseError(
            f"{path}:{header_lines['classes']}: classes must be in [2, {MAX_CLASSES}], got {class_count}"
        )

    key = "partition" if "partition" in header else "joints"  # the line a partition error names
    try:
        if key == "partition":
            partition = resolve_partition(header["partition"], base_dir)
        else:
            partition = default_partition(joint_count)
    except ConfigError as exc:
        raise ParseError(f"{path}:{header_lines[key]}: {exc}") from exc
    if partition.joint_count != joint_count:
        raise ParseError(
            f"{path}: partition '{partition.name}' covers {partition.joint_count} joints, manifest declares {joint_count}"
        )

    if not entries:
        raise ParseError(f"{path}: manifest lists no sequences")
    for entry in entries:
        if not 0 <= entry.label < class_count:
            raise ParseError(f"{path}: label {entry.label} out of range for {class_count} classes")
        if not os.path.exists(entry.path):
            raise DataError(f"{path}: referenced sequence file does not exist: {entry.path}")
    return Dataset(class_count=class_count, joint_count=joint_count, partition=partition, entries=entries)
