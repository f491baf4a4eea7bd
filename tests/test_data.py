import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from han import data
from han.config import AugmentationConfig
from han.data import (
    FPHA21,
    SHREC22,
    HandPartition,
    SkeletonSequence,
    augment,
    default_partition,
    load_manifest,
    load_partition,
    parse_sequence,
    resolve_partition,
    uniform_sample,
    write_sequence,
)
from han.errors import ConfigError, DataError, ParseError
from han.rng import Rng

RS = np.random.RandomState(5)


def make_seq(t=10, j=22, label=1):
    return SkeletonSequence(frames=RS.uniform(-1, 1, (t, j, 3)), label=label)


class TestPartitions:
    @pytest.mark.parametrize("partition,joints,palm_size", [(SHREC22, 22, 2), (FPHA21, 21, 1)])
    def test_builtin_layouts(self, partition, joints, palm_size):
        assert partition.joint_count == joints
        assert len(partition.parts) == 6
        for finger in partition.parts[:5]:
            assert len(finger) == 4
        assert len(partition.parts[5]) == palm_size
        covered = sorted(j for part in partition.parts for j in part)
        assert covered == list(range(joints))

    def test_by_name_and_default(self):
        assert resolve_partition("shrec22") is SHREC22
        assert default_partition(21) is FPHA21
        with pytest.raises(ConfigError):
            resolve_partition("nope")
        with pytest.raises(ConfigError):
            default_partition(19)

    def test_overlap_rejected(self):
        with pytest.raises(ConfigError):
            HandPartition(parts=((0, 1), (1, 2), (3,), (4,), (5,), (6,)))

    def test_gap_rejected(self):
        with pytest.raises(ConfigError):
            HandPartition(parts=((0,), (2,), (3,), (4,), (5,), (6,)))

    def test_out_of_range_index_reported_without_building_its_range(self):
        # a range up to the stray index would exhaust memory
        with pytest.raises(ConfigError, match=r"cover joints \[1\]; indices \[99999999999\] are out of range for 6"):
            HandPartition(parts=((0,), (2,), (3,), (4,), (5,), (99_999_999_999,)))

    def test_fractional_index_rejected(self):
        with pytest.raises(ConfigError, match=r"cover joints \[1\]"):
            HandPartition(parts=((0,), (1.5,), (2,), (3,), (4,), (5,)))

    @pytest.mark.parametrize("index", [1.0, True, np.float64(1.0)])
    def test_whole_number_index_that_is_not_an_integer_rejected(self, index):
        with pytest.raises(ConfigError, match=re.escape(f"joint index {index!r} in partition is not an integer")):
            HandPartition(parts=((0,), (index,), (2,), (3,), (4,), (5,)))

    def test_numpy_integer_index_stored_as_int(self):
        partition = HandPartition(parts=((0,), (np.int64(1),), (2,), (3,), (4,), (np.uint8(5),)))
        assert partition.parts == tuple((j,) for j in range(6))
        assert all(type(j) is int for part in partition.parts for j in part)

    @pytest.mark.parametrize("parts, message", [
        (((0,), (1,), (2,), (3,), (4,)), "partition needs exactly 6 parts, got 5"),
        (((0,), (1,), (2,), (3,), (4,), ()), "every partition part needs at least one joint"),
        (((0,), (1,), (2,), (3,), (4,), (-1,)), "negative joint index -1 in partition"),
    ], ids=["part-count", "empty-part", "negative-index"])
    def test_malformed_parts(self, parts, message):
        with pytest.raises(ConfigError, match=message):
            HandPartition(parts=parts)

    def test_partition_file_roundtrip(self, tmp_path):
        path = tmp_path / "parts.txt"
        path.write_text("\n".join(",".join(str(j) for j in part) for part in FPHA21.parts) + "\n")
        loaded = load_partition(str(path))
        assert loaded.parts == FPHA21.parts

    def test_partition_file_errors(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0,1\n2,3\n")
        with pytest.raises(ParseError):
            load_partition(str(path))
        path.write_text("0,x\n1\n2\n3\n4\n5\n")
        with pytest.raises(ParseError):
            load_partition(str(path))


class TestUtf8:
    """One reader serves the sequence, manifest and partition files."""

    def test_sequence_file(self, tmp_path):
        path = tmp_path / "seq.txt"
        path.write_bytes((" ".join(["0"] * 66) + "\n").encode() * 2 + b"0\xff\n")
        with pytest.raises(ParseError, match=r"seq\.txt:3: sequence file is not UTF-8"):
            parse_sequence(str(path), 22)

    def test_manifest(self, tmp_path):
        path = tmp_path / "manifest.tsv"
        path.write_bytes(b"classes=2\n\xffjoints=22\n")
        with pytest.raises(ParseError, match=r"manifest\.tsv:2: manifest is not UTF-8"):
            load_manifest(str(path))

    def test_partition_file(self, tmp_path):
        path = tmp_path / "parts.txt"
        path.write_bytes(b"0\n1\n2\n3\n4\n5\xfe\n")
        with pytest.raises(ParseError, match=r"parts\.txt:6: partition file is not UTF-8"):
            load_partition(str(path))

    def test_line_endings_read_as_in_text_mode(self, tmp_path):
        path = tmp_path / "seq.txt"
        good = " ".join(["1"] * 66)
        path.write_bytes(f"{good}\r\n{good}\r{good}\n".encode())
        assert parse_sequence(str(path), 22).frame_count == 3


class TestSequenceIO:
    def test_parse_two_frames_of_zeros(self, tmp_path):
        path = tmp_path / "seq.txt"
        path.write_text((" ".join(["0"] * 66) + "\n") * 2)
        seq = parse_sequence(str(path), 22)
        assert seq.frame_count == 2 and seq.joint_count == 22
        assert np.all(seq.frames == 0)

    def test_wrong_token_count_names_line(self, tmp_path):
        path = tmp_path / "seq.txt"
        path.write_text(" ".join(["0"] * 65) + "\n")
        with pytest.raises(ParseError, match=r":1:"):
            parse_sequence(str(path), 22)

    def test_non_numeric_token(self, tmp_path):
        path = tmp_path / "seq.txt"
        good = " ".join(["0"] * 66)
        path.write_text(good + "\n" + good.replace("0", "abc", 1) + "\n")
        with pytest.raises(ParseError, match=r":2:"):
            parse_sequence(str(path), 22)

    def test_missing_file(self):
        with pytest.raises(DataError):
            parse_sequence("/nonexistent/seq.txt", 22)

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_token_names_file_and_line(self, tmp_path, token):
        path = tmp_path / "seq.txt"
        good = " ".join(["0"] * 66)
        path.write_text(good + "\n" + good.replace("0", token, 1) + "\n")
        with pytest.raises(ParseError, match=rf"seq\.txt:2: non-finite"):
            parse_sequence(str(path), 22)

    def test_coordinate_beyond_float32_names_file_and_line(self, tmp_path):
        path = tmp_path / "seq.txt"
        good = " ".join(["0"] * 66)
        path.write_text(good + "\n" + good + "\n" + good.replace("0", "-1e39", 1) + "\n")
        with pytest.raises(ParseError, match=r"seq\.txt:3: coordinate beyond float32 range"):
            parse_sequence(str(path), 22)

    @pytest.mark.parametrize("text", ["", " \n\t\n", "\u3000\r\n\x0c\n"], ids=["empty", "blank", "unicode-blank"])
    def test_file_without_frames_raises_without_warning(self, tmp_path, text):
        # np.loadtxt warns "input contained no data" on such input; it must never see it
        path = tmp_path / "seq.txt"
        path.write_bytes(text.encode())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParseError, match=r"seq\.txt: no frames found"):
                parse_sequence(str(path), 22)

    def test_well_formed_file_skips_the_line_walk(self, tmp_path, monkeypatch):
        path = tmp_path / "seq.txt"
        write_sequence(make_seq(t=4), str(path))
        monkeypatch.setattr(data, "_parse_lines", None)  # a call would raise TypeError
        assert parse_sequence(str(path), 22).frame_count == 4

    @pytest.mark.parametrize("token, value", [("1_0", 10.0), ("\u0661\u0662.5", 12.5)])
    def test_token_only_float_reads_takes_the_line_walk(self, tmp_path, monkeypatch, token, value):
        path = tmp_path / "seq.txt"
        good = " ".join(["0.5"] * 66)
        path.write_text(good + "\n" + good.replace("0.5", token, 1) + "\n", encoding="utf-8")
        walked = []
        line_walk = data._parse_lines
        monkeypatch.setattr(data, "_parse_lines", lambda *args: walked.append(args) or line_walk(*args))
        seq = parse_sequence(str(path), 22)
        assert len(walked) == 1
        flat = seq.frames.reshape(-1)
        assert flat[66] == float(token) == value
        assert np.all(np.delete(flat, 66) == 0.5)

    @pytest.mark.parametrize("name, frames_n", [
        pytest.param("seq.txt", 2, id="seq.txt"),
        pytest.param("seq.txt.gz", 2, id="seq.txt.gz"),
        # the writer formats 256 rows per block: one row, a full block, one past it, a partial third block
        *(pytest.param("seq.txt", n, id=f"{n}-frames") for n in (1, 256, 257, 600)),
    ])
    def test_writes_each_frame_as_its_9_digit_values(self, tmp_path, name, frames_n):
        # a name ending in .gz is still written as plain text
        values = [-0.0, 1e-05, 0.1, 123456789.5, 1e16, float(np.finfo(np.float32).max), 5e-324, 2.5, -7.0]
        # rows vary along the file, so a misplaced block shows
        rows = [np.roll(values[::-1] if t % 2 else values, t // 2) for t in range(frames_n)]
        frames = np.array(rows).reshape(frames_n, 3, 3)
        path = tmp_path / name
        write_sequence(SkeletonSequence(frames=frames, label=0), str(path))
        expected = "".join(" ".join(format(v, ".9g") for v in row) + "\n"
                           for row in frames.reshape(frames_n, -1).tolist())
        assert path.read_bytes() == expected.encode()

    def test_roundtrip_through_text(self, tmp_path):
        seq = make_seq(t=3, j=21)
        first = tmp_path / "a.txt"
        second = tmp_path / "b.txt"
        write_sequence(seq, str(first))
        parsed = parse_sequence(str(first), 21)
        assert np.allclose(parsed.frames, seq.frames, rtol=1e-8, atol=1e-12)
        # a second write/parse cycle is an exact fixed point of the 9-digit format
        write_sequence(parsed, str(second))
        again = parse_sequence(str(second), 21)
        assert np.array_equal(again.frames, parsed.frames)


class TestUniformSample:
    def test_identity_at_target_length(self):
        seq = make_seq(t=8)
        assert uniform_sample(seq, 8) is seq

    def test_fifteen_to_eight_indices(self):
        seq = make_seq(t=15)
        out = uniform_sample(seq, 8)
        want = seq.frames[[0, 2, 4, 6, 8, 10, 12, 14]]
        assert np.array_equal(out.frames, want)

    def test_single_frame_repeats(self):
        seq = make_seq(t=1)
        out = uniform_sample(seq, 8)
        assert out.frame_count == 8
        assert np.all(out.frames == seq.frames[0])

    @pytest.mark.parametrize("target", [0, -3])
    def test_target_below_one_rejected(self, target):
        with pytest.raises(ConfigError, match=f"target_frames must be >= 1, got {target}"):
            uniform_sample(make_seq(t=5), target)

    @pytest.mark.parametrize("target", [2.5, 8.0, True, "8"])
    def test_target_that_is_not_an_integer_rejected(self, target):
        with pytest.raises(ConfigError, match=re.escape(f"target_frames must be an integer, got {target!r}")):
            uniform_sample(make_seq(t=5), target)

    def test_numpy_integer_target_accepted(self):
        seq = make_seq(t=15)
        assert np.array_equal(uniform_sample(seq, np.int64(8)).frames, uniform_sample(seq, 8).frames)

    def test_one_frame_target_keeps_the_first_frame(self):
        seq = make_seq(t=5)
        out = uniform_sample(seq, 1)
        assert out.frame_count == 1 and out.label == seq.label
        assert np.array_equal(out.frames[0], seq.frames[0])

    def test_short_sequences_interpolate(self):
        frames = np.zeros((2, 4, 3))
        frames[1] = 1.0
        out = uniform_sample(SkeletonSequence(frames=frames, label=0), 8)
        # positions k/7 along a straight segment
        assert np.allclose(out.frames[:, 0, 0], np.arange(8) / 7.0)

    def test_idempotent(self):
        out = uniform_sample(make_seq(t=30), 8)
        assert uniform_sample(out, 8) is out

    @given(st.integers(1, 40))
    @settings(max_examples=30, deadline=None)
    def test_always_exactly_eight_frames(self, t):
        frames = np.random.RandomState(t).uniform(-1, 1, (t, 5, 3))
        out = uniform_sample(SkeletonSequence(frames=frames, label=0), 8)
        assert out.frame_count == 8
        assert out.joint_count == 5


class TestAugment:
    def test_zero_magnitudes_are_identity(self):
        seq = make_seq()
        config = AugmentationConfig(scale_min=1.0, scale_max=1.0, shift_range=0.0, time_jitter=0.0, noise_std=0.0)
        out = augment(seq, config, Rng(3, "a"))
        assert np.array_equal(out.frames, seq.frames)
        assert out.label == seq.label

    def test_pure_scale(self):
        seq = make_seq()
        config = AugmentationConfig(scale_min=2.0, scale_max=2.0, shift_range=0.0, time_jitter=0.0, noise_std=0.0)
        out = augment(seq, config, Rng(3, "a"))
        assert np.allclose(out.frames, 2.0 * seq.frames)

    def test_deterministic_given_stream(self):
        seq = make_seq()
        config = AugmentationConfig()
        a = augment(seq, config, Rng(12, "augment/0/3")).frames
        b = augment(seq, config, Rng(12, "augment/0/3")).frames
        assert np.array_equal(a, b)

    def test_preserves_shape_and_label(self):
        seq = make_seq(t=17, j=21, label=3)
        out = augment(seq, AugmentationConfig(), Rng(1, "x"))
        assert out.frames.shape == seq.frames.shape
        assert out.label == 3

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigError):
            AugmentationConfig(scale_min=0.0, scale_max=1.0)
        with pytest.raises(ConfigError):
            AugmentationConfig(noise_std=-1.0)


class TestManifest:
    def write_dataset(self, tmp_path, header_lines, n=4):
        lines = list(header_lines)
        for i in range(n):
            name = f"s{i}.txt"
            frames = RS.uniform(-1, 1, (6, 22, 3))
            write_sequence(SkeletonSequence(frames=frames, label=0), str(tmp_path / name))
            lines.append(f"{name}\t{i % 2}\t{'train' if i < n - 1 else 'test'}")
        path = tmp_path / "manifest.tsv"
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def test_load_roundtrip(self, tmp_path):
        path = self.write_dataset(tmp_path, ["classes=2", "joints=22", "partition=shrec22"])
        ds = load_manifest(path)
        assert ds.class_count == 2 and ds.joint_count == 22
        assert len(ds.split_entries("train")) == 3
        assert len(ds.split_entries("test")) == 1
        seqs = ds.load_split("train")
        assert all(s.joint_count == 22 for s in seqs)

    def test_partition_defaults_by_joint_count(self, tmp_path):
        path = self.write_dataset(tmp_path, ["classes=2", "joints=22"])
        assert load_manifest(path).partition.name == "shrec22"

    def test_unknown_partition_names_manifest_and_line(self, tmp_path):
        path = self.write_dataset(tmp_path, ["classes=2", "joints=22", "partition=nope"])
        with pytest.raises(ParseError, match=r"manifest\.tsv:3: partition 'nope'"):
            load_manifest(path)

    def test_joint_count_without_partition_names_manifest_and_line(self, tmp_path):
        path = self.write_dataset(tmp_path, ["classes=2", "joints=19"])
        with pytest.raises(ParseError, match=r"manifest\.tsv:2: no built-in partition for 19 joints"):
            load_manifest(path)

    def test_comment_and_blank_lines_skipped(self, tmp_path):
        path = self.write_dataset(tmp_path, ["# two classes", "classes=2", "", "  ", "joints=22", "# entries:"])
        ds = load_manifest(path)
        assert (ds.class_count, ds.joint_count, len(ds.entries)) == (2, 22, 4)

    @pytest.mark.parametrize("header, key", [(["joints=22"], "classes"), (["classes=2"], "joints")])
    def test_missing_header_names_manifest(self, tmp_path, header, key):
        path = self.write_dataset(tmp_path, header)
        with pytest.raises(ParseError, match=rf"manifest\.tsv: manifest is missing the '{key}=' header"):
            load_manifest(path)

    def test_unknown_header_key(self, tmp_path):
        path = self.write_dataset(tmp_path, ["classes=2", "joints=22", "quality=high"])
        with pytest.raises(ParseError, match="quality"):
            load_manifest(path)

    @pytest.mark.parametrize("header", [
        ["classes=4", "joints=22", "classes=3"],
        ["classes=2", "joints=22", "joints=22"],
        ["classes=2", "partition=shrec22", "joints=22", "partition=fpha21"],
    ], ids=["classes", "joints", "partition"])
    def test_repeated_header_names_its_line(self, tmp_path, header):
        path = self.write_dataset(tmp_path, header)
        key = header[-1].split("=")[0]
        with pytest.raises(ParseError, match=rf"manifest\.tsv:{len(header)}: manifest header '{key}' repeats line"):
            load_manifest(path)

    def test_label_out_of_range(self, tmp_path):
        path = self.write_dataset(tmp_path, ["classes=1", "joints=22"])
        with pytest.raises(ParseError):
            load_manifest(path)

    def test_missing_sequence_file(self, tmp_path):
        path = self.write_dataset(tmp_path, ["classes=2", "joints=22"])
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("ghost.txt\t0\ttrain\n")
        with pytest.raises(DataError, match="ghost"):
            load_manifest(path)

    def test_bad_split_tag(self, tmp_path):
        path = self.write_dataset(tmp_path, ["classes=2", "joints=22"])
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("s0.txt\t0\tvalid\n")
        with pytest.raises(ParseError, match="split"):
            load_manifest(path)

    def test_non_integer_label_names_manifest_and_line(self, tmp_path):
        path = self.write_dataset(tmp_path, ["classes=2", "joints=22"])
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("s0.txt\tone\ttrain\n")
        with pytest.raises(ParseError, match=r"manifest\.tsv:7: non-integer label 'one'"):
            load_manifest(path)

    @pytest.mark.parametrize("header", [["classes=2.0", "joints=22"], ["classes=2", "joints=many"]])
    def test_non_integer_header_value_names_manifest(self, tmp_path, header):
        path = self.write_dataset(tmp_path, header)
        with pytest.raises(ParseError, match=r"manifest\.tsv: non-integer manifest header value"):
            load_manifest(path)

    def test_partition_contradicting_joints_names_manifest(self, tmp_path):
        path = self.write_dataset(tmp_path, ["classes=2", "joints=22", "partition=fpha21"])
        message = r"manifest\.tsv: partition 'fpha21' covers 21 joints, manifest declares 22"
        with pytest.raises(ParseError, match=message):
            load_manifest(path)

    def test_no_entries_names_manifest(self, tmp_path):
        path = self.write_dataset(tmp_path, ["classes=2", "joints=22"], n=0)
        with pytest.raises(ParseError, match=r"manifest\.tsv: manifest lists no sequences"):
            load_manifest(path)

    def test_label_beyond_class_count_names_manifest(self, tmp_path):
        path = self.write_dataset(tmp_path, ["classes=2", "joints=22"])
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("s0.txt\t5\ttrain\n")
        with pytest.raises(ParseError, match=r"manifest\.tsv: label 5 out of range for 2 classes"):
            load_manifest(path)
