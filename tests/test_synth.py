import hashlib
import math

import numpy as np
import pytest

from han.data import SkeletonSequence, default_partition, load_manifest, uniform_sample
from han.errors import ConfigError
from han.rng import Rng
from han.synth import SynthConfig, _class_template, generate_dataset, generate_sequence, rest_pose


def test_rest_pose_shapes():
    assert rest_pose(22).shape == (22, 3)
    assert rest_pose(21).shape == (21, 3)


def test_config_validation():
    with pytest.raises(ConfigError):
        SynthConfig(classes=1)
    with pytest.raises(ConfigError):
        SynthConfig(test_fraction=1.0)


def test_sequence_counts_and_manifest(tmp_path):
    config = SynthConfig(classes=4, per_class=16, seed=3)
    manifest = generate_dataset(config, str(tmp_path))
    ds = load_manifest(manifest)
    assert ds.class_count == 4
    assert len(ds.entries) == 64
    assert len(ds.split_entries("train")) == 48
    assert len(ds.split_entries("test")) == 16
    labels = {e.label for e in ds.entries}
    assert labels == {0, 1, 2, 3}


def test_same_seed_identical_bytes(tmp_path):
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    generate_dataset(SynthConfig(seed=11), str(a_dir))
    generate_dataset(SynthConfig(seed=11), str(b_dir))
    for name in sorted(p.name for p in (a_dir / "seq").iterdir()):
        assert (a_dir / "seq" / name).read_bytes() == (b_dir / "seq" / name).read_bytes()
    assert (a_dir / "manifest.tsv").read_bytes() == (b_dir / "manifest.tsv").read_bytes()


def generate_sequence_reference(cls: int, config: SynthConfig, rng: Rng) -> SkeletonSequence:
    """The generator as one loop over frames and joints: the reference `generate_sequence` must equal."""
    partition = default_partition(config.joints)
    direction, freq, coarse, fingers, finger_gap = _class_template(cls, config.classes)
    pose = rest_pose(config.joints)
    frames_n = rng.randint(config.min_frames, config.max_frames + 1)
    phase = rng.uniform(None, -0.3, 0.3)
    amplitude = rng.uniform(None, 0.85, 1.15)

    frames = np.empty((frames_n, config.joints, 3))
    for t in range(frames_n):
        tau = t / (frames_n - 1)
        frame = pose.copy()
        if coarse:
            frame += direction * (0.6 * amplitude * math.sin(2.0 * math.pi * freq * tau + phase))
        else:
            for slot, f in enumerate(dict.fromkeys(fingers)):
                bend = 0.5 * (1.0 - math.cos(2.0 * math.pi * freq * tau + phase + slot * finger_gap))
                part = partition.parts[f]
                for k, joint in enumerate(part):
                    weight = 0.25 * (k + 1)
                    frame[joint] = pose[joint] + direction * (0.7 * amplitude * weight * bend)
        frames[t] = frame
    frames += rng.normal(frames.shape, 0.0, 0.004)
    return SkeletonSequence(frames=frames, label=cls)


@pytest.mark.parametrize("min_frames, max_frames", [(2, 2), (60, 180)])
@pytest.mark.parametrize("joints", [22, 21])
def test_generator_matches_the_frame_loop(joints, min_frames, max_frames):
    # class 3's fingers move in scissor phase (gap pi); class 7 names the same finger twice
    config = SynthConfig(classes=14, joints=joints, min_frames=min_frames, max_frames=max_frames)
    assert _class_template(3, 14)[4] == math.pi and len(set(_class_template(7, 14)[3])) == 1
    for cls in range(14):
        for i in range(2):
            seq = generate_sequence(cls, config, Rng(9, f"{cls}/{i}"))
            ref = generate_sequence_reference(cls, config, Rng(9, f"{cls}/{i}"))
            assert seq.label == ref.label == cls
            assert np.array_equal(seq.frames, ref.frames), (cls, i)


def test_frame_counts_within_bounds():
    config = SynthConfig(min_frames=12, max_frames=19)
    for i in range(10):
        seq = generate_sequence(i % config.classes, config, Rng(1, f"t/{i}"))
        assert 12 <= seq.frame_count <= 19


def test_nearest_template_classifier_separates(tmp_path):
    # template oracle: per-class mean of train sequences, nearest-L2 on test
    config = SynthConfig(classes=4, per_class=16, seed=7)
    ds = load_manifest(generate_dataset(config, str(tmp_path)))
    train = ds.load_split("train")
    test = ds.load_split("test")

    def flat8(seq):
        return uniform_sample(seq, 8).frames.reshape(-1)

    templates = {}
    for c in range(4):
        members = [flat8(s) for s in train if s.label == c]
        templates[c] = np.mean(members, axis=0)
    correct = 0
    for seq in test:
        v = flat8(seq)
        pred = min(templates, key=lambda c: np.linalg.norm(v - templates[c]))
        correct += pred == seq.label
    assert correct / len(test) > 0.95


def tree_digest(root):
    """sha256 over the sorted relative paths and the bytes of every file under `root`."""
    digest = hashlib.sha256()
    for path in sorted((p for p in root.rglob("*") if p.is_file()), key=lambda p: p.relative_to(root).as_posix()):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


# tree_digest of each config: the generator and the sequence writer keep writing these exact
# bytes. The 21-joint case covers all 14 class templates, and those of its 200-300 frame files
# longer than data.WRITE_BLOCK_ROWS span two row blocks of the writer. Update a digest only on
# purpose, and say so where the change is recorded.
SYNTH_DIGEST = "3bcab1f809c8ff054e14d114c354215bce50e4f2552a158d1ba7938c3ae7b391"
SYNTH_DIGEST_21 = "10ed64ea24db0047a106ad57a1771bab04736de67247b39b82fe17fcacbf9553"


@pytest.mark.parametrize("config, digest", [
    pytest.param(SynthConfig(classes=3, per_class=2, seed=0), SYNTH_DIGEST, id="22-joints"),
    pytest.param(SynthConfig(classes=14, per_class=1, joints=21, test_fraction=0.0, min_frames=200,
                             max_frames=300, seed=5), SYNTH_DIGEST_21, id="21-joints-14-classes"),
])
def test_dataset_bytes_are_pinned(tmp_path, config, digest):
    generate_dataset(config, str(tmp_path))
    assert tree_digest(tmp_path) == digest
