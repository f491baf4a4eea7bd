"""Separable synthetic gesture data for desk-scale end-to-end runs.

Each class is a deterministic trajectory template over a canonical hand
pose: even classes translate the whole hand along a class-specific
direction (coarse motion), odd classes oscillate a class-specific pair of
fingers toward the palm (fine motion). Frequency varies with the class as
well, so no two templates coincide. Samples of a class differ by phase,
amplitude jitter, frame count, and coordinate noise.
"""

import math
import os
from dataclasses import dataclass

import numpy as np

from .data import (MAX_CLASSES, MAX_FRAMES, SkeletonSequence, check_fields, check_seed, default_partition,
                   write_sequence)
from .errors import ConfigError
from .rng import Rng


@dataclass(frozen=True)
class SynthConfig:
    classes: int = 4
    per_class: int = 16
    joints: int = 22
    test_fraction: float = 0.25
    min_frames: int = 20
    max_frames: int = 40
    seed: int = 0

    def __post_init__(self):
        check_fields(self)
        if not 2 <= self.classes <= MAX_CLASSES:
            raise ConfigError(f"classes must be in [2, {MAX_CLASSES}], got {self.classes}")
        if self.per_class < 1:
            raise ConfigError(f"per_class must be >= 1, got {self.per_class}")
        if not 0.0 <= self.test_fraction < 1.0:
            raise ConfigError(f"test_fraction must be in [0, 1), got {self.test_fraction}")
        if self.test_fraction > 0 and math.ceil(self.per_class * self.test_fraction) >= self.per_class:
            raise ConfigError(f"test_fraction {self.test_fraction} leaves no training sample "
                              f"of {self.per_class} per class")
        if not 2 <= self.min_frames <= self.max_frames <= MAX_FRAMES:
            raise ConfigError(f"frame range must satisfy 2 <= min_frames <= max_frames <= {MAX_FRAMES}, "
                              f"got {self.min_frames} and {self.max_frames}")
        check_seed(self.seed)
        default_partition(self.joints)  # a joint count with no built-in layout fails before anything is written


def rest_pose(joints: int) -> np.ndarray:
    """Canonical (J, 3) hand: wrist at origin, fingers fanned upward."""
    partition = default_partition(joints)
    pose = np.zeros((joints, 3))
    palm_group = partition.parts[5]
    pose[palm_group[0]] = (0.0, 0.0, 0.0)
    if len(palm_group) > 1:
        pose[palm_group[1]] = (0.0, 0.3, 0.05)
    for f, part in enumerate(partition.parts[:5]):
        angle = math.radians(-40.0 + 20.0 * f)
        direction = np.array([math.sin(angle), math.cos(angle), 0.1 * (f - 2)])
        direction /= np.linalg.norm(direction)
        for k, joint in enumerate(part):
            pose[joint] = np.array([0.0, 0.3, 0.0]) + direction * (0.25 + 0.12 * k)
    return pose


def _class_template(cls: int, classes: int):
    angle = 2.0 * math.pi * cls / classes
    direction = np.array([math.cos(angle), math.sin(angle), 0.35 * math.cos(2 * angle)])
    direction /= np.linalg.norm(direction)
    freq = 1.0 + (cls % 3)
    coarse = cls % 2 == 0
    fingers = (cls % 5, (3 * cls + 1) % 5)
    # alternate fine classes between in-phase and scissoring finger motion
    finger_gap = math.pi if (cls // 2) % 2 else 0.0
    return direction, freq, coarse, fingers, finger_gap


def generate_sequence(cls: int, config: SynthConfig, rng: Rng) -> SkeletonSequence:
    partition = default_partition(config.joints)
    direction, freq, coarse, fingers, finger_gap = _class_template(cls, config.classes)
    pose = rest_pose(config.joints)
    frames_n = rng.randint(config.min_frames, config.max_frames + 1)
    phase = rng.uniform(None, -0.3, 0.3)
    amplitude = rng.uniform(None, 0.85, 1.15)

    # per-frame scalars through math.sin/cos (np.sin may differ in the last bit), applied by broadcasting
    angles = [2.0 * math.pi * freq * (t / (frames_n - 1)) + phase for t in range(frames_n)]
    frames = np.repeat(pose[None], frames_n, axis=0)
    if coarse:
        frames += direction * np.array([0.6 * amplitude * math.sin(a) for a in angles])[:, None, None]
    else:
        # fine classes bend two fingers along the class direction with a
        # one-sided bend-and-release envelope, tip-weighted so the finger
        # curls; the bent-on-average fingers mark the class
        for slot, f in enumerate(dict.fromkeys(fingers)):
            bend = np.array([0.5 * (1.0 - math.cos(a + slot * finger_gap)) for a in angles])
            part = list(partition.parts[f])
            scale = 0.7 * amplitude * (0.25 * np.arange(1, len(part) + 1))  # per joint, tip heaviest
            frames[:, part] = pose[part] + direction * (scale * bend[:, None])[:, :, None]
    frames += rng.normal(frames.shape, 0.0, 0.004)
    return SkeletonSequence(frames=frames, label=cls)


def generate_dataset(config: SynthConfig, out_dir: str) -> str:
    """Write sequence files plus a manifest under out_dir; returns the manifest path."""
    seq_dir = os.path.join(out_dir, "seq")
    os.makedirs(seq_dir, exist_ok=True)
    root = Rng(config.seed, "synth")
    n_test = int(math.ceil(config.per_class * config.test_fraction))
    lines = [
        f"classes={config.classes}",
        f"joints={config.joints}",
        f"partition={default_partition(config.joints).name}",
    ]
    for cls in range(config.classes):
        for i in range(config.per_class):
            seq = generate_sequence(cls, config, root.stream(f"{cls}/{i}"))
            rel = os.path.join("seq", f"class{cls}_sample{i:03d}.txt")
            write_sequence(seq, os.path.join(out_dir, rel))
            split = "test" if i >= config.per_class - n_test else "train"
            lines.append(f"{rel}\t{cls}\t{split}")
    manifest_path = os.path.join(out_dir, "manifest.tsv")
    with open(manifest_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return manifest_path
