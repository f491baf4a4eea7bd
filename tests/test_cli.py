import json
import os
import re
import shutil
import struct
import subprocess
import sys
import warnings

import numpy as np
import pytest

from han.cli import _read_config_file, main
from han.data import load_manifest, parse_sequence
from han.errors import HanError
from han.model import extract_attention, load_checkpoint, save_checkpoint

FAST_TRAIN = [
    "--d-model", "8", "--heads", "2", "--d-head", "4", "--dropout", "0.0",
    "--frames", "4", "--lr", "0.01", "--batch-size", "16",
    "--warmup-epochs", "1", "--plateau-patience", "1", "--max-decays", "1",
    "--max-epochs", "4", "--no-augment", "--seed", "3",
]


def synth_args(out, classes=3, per_class=4, seed=5):
    return ["synth", "--out", str(out), "--classes", str(classes),
            "--per-class", str(per_class), "--seed", str(seed),
            "--min-frames", "6", "--max-frames", "10"]


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    assert main(synth_args(out)) == 0
    return out


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory, dataset_dir):
    out = tmp_path_factory.mktemp("run")
    code = main(["train", "--manifest", str(dataset_dir / "manifest.tsv"),
                 "--out", str(out)] + FAST_TRAIN)
    assert code == 0
    return out


class TestSynthCommand:
    def test_writes_files_and_manifest(self, dataset_dir):
        ds = load_manifest(str(dataset_dir / "manifest.tsv"))
        assert ds.class_count == 3
        assert len(ds.entries) == 12

    def test_seeded_reproducibility(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(synth_args(a, seed=9)) == 0
        assert main(synth_args(b, seed=9)) == 0
        assert (a / "manifest.tsv").read_bytes() == (b / "manifest.tsv").read_bytes()

    @pytest.mark.parametrize("flag, value", [("--seed", "-1"), ("--classes", "65537")])
    def test_out_of_range_value_exits_2_writing_nothing(self, tmp_path, capsys, flag, value):
        out = tmp_path / "d"
        assert main(synth_args(out) + [flag, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag[2:]} must be") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("extra, message", [
        (["--joints", "7"], "no built-in partition for 7 joints"),
        (["--per-class", "1"], "test_fraction 0.25 leaves no training sample of 1 per class"),
        (["--per-class", "1", "--test-fraction", "0.99"], "test_fraction 0.99 leaves no training sample"),
        (["--per-class", "2", "--test-fraction", "0.6"], "test_fraction 0.6 leaves no training sample of 2"),
        (["--max-frames", "999999999"], "frame range must satisfy 2 <= min_frames <= max_frames <= 4096, "
                                        "got 6 and 999999999"),
        (["--min-frames", "1"], "frame range must satisfy 2 <= min_frames <= max_frames <= 4096, got 1 and 10"),
        (["--per-class", "0"], "per_class must be >= 1, got 0"),
    ])
    def test_unusable_layout_exits_2_writing_nothing(self, tmp_path, capsys, extra, message):
        out = tmp_path / "d"
        assert main(synth_args(out, classes=2) + extra) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and "Traceback" not in err
        assert not out.exists()

    def test_one_per_class_with_no_test_split_is_accepted(self, tmp_path):
        assert main(synth_args(tmp_path / "d", classes=2, per_class=1) + ["--test-fraction", "0"]) == 0
        ds = load_manifest(str(tmp_path / "d" / "manifest.tsv"))
        assert [e.split for e in ds.entries] == ["train", "train"]


class TestTrainCommand:
    def test_outputs_exist(self, trained_dir):
        assert (trained_dir / "model.ckpt").exists()
        log = (trained_dir / "train.log").read_text().strip().split("\n")
        assert log[0] == "epoch,lr,train_loss,val_acc,decays"
        assert log[-1].startswith("final,")

    def test_missing_manifest_flag_exits_2(self, capsys):
        assert main(["train", "--out", "x"]) == 2
        assert "--manifest" in capsys.readouterr().err

    def test_nonexistent_manifest_exits_3(self, tmp_path):
        code = main(["train", "--manifest", str(tmp_path / "none.tsv"), "--out", str(tmp_path)])
        assert code == 3

    def test_unknown_config_key_exits_2(self, tmp_path, dataset_dir):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("d_model=8\nlerning_rate=0.1\n")
        code = main(["train", "--manifest", str(dataset_dir / "manifest.tsv"),
                     "--out", str(tmp_path / "o"), "--config", str(cfg)])
        assert code == 2

    def test_unknown_flag_exits_2(self, dataset_dir, capsys):
        code = main(["train", "--manifest", str(dataset_dir / "manifest.tsv"),
                     "--out", "x", "--learning-rate", "0.1"])
        assert code == 2
        capsys.readouterr()

    def test_conflicting_classes_flag_exits_2(self, tmp_path, dataset_dir):
        code = main(["train", "--manifest", str(dataset_dir / "manifest.tsv"),
                     "--out", str(tmp_path / "o"), "--classes", "7"] + FAST_TRAIN)
        assert code == 2

    @pytest.mark.parametrize("flag, value", [("--seed", "-1"), ("--max-epochs", "-3"), ("--max-epochs", "0"),
                                             ("--batch-size", "0"), ("--warmup-epochs", "-1")])
    def test_out_of_range_value_exits_2_writing_nothing(self, tmp_path, dataset_dir, capsys, flag, value):
        out = tmp_path / "o"
        code = main(["train", "--manifest", str(dataset_dir / "manifest.tsv"),
                     "--out", str(out)] + FAST_TRAIN + [flag, value])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag[2:].replace('-', '_')} must be >= ") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--time-jitter", "inf"), ("--noise-std", "nan"), ("--scale-min", "nan"),
                                             ("--shift-range", "inf"), ("--lr", "nan")])
    def test_non_finite_value_exits_2_writing_nothing(self, tmp_path, dataset_dir, capsys, flag, value):
        out = tmp_path / "o"
        code = main(["train", "--manifest", str(dataset_dir / "manifest.tsv"),
                     "--out", str(out)] + FAST_TRAIN + ["--augment", flag, value])
        assert code == 2
        field = "lr_init" if flag == "--lr" else flag[2:].replace("-", "_")
        assert capsys.readouterr().err == f"error: {field} must be a finite number, got {value}\n"
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--time-jitter", "inf", "time_jitter must be a finite number, got inf"),
        ("--scale-min", "nan", "scale_min must be a finite number, got nan"),
        ("--noise-std", "-1", "augmentation magnitudes must be nonnegative"),
        ("--scale-max", "0.5", "scale_min and scale_max must be positive and ordered, got 0.9 and 0.5"),
    ])
    def test_no_augment_still_checks_the_magnitudes(self, capsys, flag, value, message):
        assert main(["profile", "--no-augment", flag, value]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_internal_error_exits_4(self, tmp_path, dataset_dir, capsys, monkeypatch):
        def broken(*args):
            raise HanError("attention backward produced gradient (2,) for input (3,)")

        monkeypatch.setattr("han.cli.train_loop", broken)
        code = main(["train", "--manifest", str(dataset_dir / "manifest.tsv"), "--out", str(tmp_path / "o")]
                    + FAST_TRAIN)
        assert code == 4
        assert capsys.readouterr().err == "internal error: attention backward produced gradient (2,) for input (3,)\n"

    def test_repeated_manifest_header_exits_3(self, tmp_path, dataset_dir, capsys):
        entries = load_manifest(str(dataset_dir / "manifest.tsv")).entries
        manifest = tmp_path / "manifest.tsv"
        manifest.write_text("classes=3\njoints=22\nclasses=2\n"
                            + "".join(f"{e.path}\t{e.label}\t{e.split}\n" for e in entries))
        assert main(["train", "--manifest", str(manifest), "--out", str(tmp_path / "o")] + FAST_TRAIN) == 3
        err = capsys.readouterr().err
        assert f"{manifest}:3: manifest header 'classes' repeats line 1" in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_malformed_first_sequence_exits_3_writing_nothing(self, tmp_path, dataset_dir, capsys):
        shutil.copytree(dataset_dir, tmp_path / "d")
        manifest = tmp_path / "d" / "manifest.tsv"
        first = load_manifest(str(manifest)).split_entries("train")[0].path
        with open(first, "w") as fh:
            fh.write("1 2 3\n")
        out = tmp_path / "o"
        assert main(["train", "--manifest", str(manifest), "--out", str(out)] + FAST_TRAIN) == 3
        err = capsys.readouterr().err
        assert err == f"data error: {first}:1: expected 66 values for 22 joints, found 3\n"
        assert not out.exists()

    def test_manifest_without_train_entries_exits_3_writing_nothing(self, tmp_path, capsys):
        data, out = tmp_path / "d", tmp_path / "o"
        assert main(synth_args(data, classes=2, per_class=4, seed=1)) == 0
        manifest = data / "manifest.tsv"
        manifest.write_text(manifest.read_text().replace("\ttrain\n", "\ttest\n"))
        assert main(["train", "--manifest", str(manifest), "--out", str(out)] + FAST_TRAIN) == 3
        assert capsys.readouterr().err == "data error: manifest has no 'train' entries\n"
        assert not out.exists()

    def test_byte_identical_reruns(self, tmp_path, dataset_dir):
        a, b = tmp_path / "r1", tmp_path / "r2"
        args = ["train", "--manifest", str(dataset_dir / "manifest.tsv")] + FAST_TRAIN
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert (a / "model.ckpt").read_bytes() == (b / "model.ckpt").read_bytes()
        assert (a / "train.log").read_bytes() == (b / "train.log").read_bytes()

    def test_non_finite_loss_exits_2_without_checkpoint(self, tmp_path, dataset_dir, capsys):
        out = tmp_path / "o"
        code = main(["train", "--manifest", str(dataset_dir / "manifest.tsv"),
                     "--out", str(out)] + FAST_TRAIN + ["--lr", "1e10"])
        assert code == 2
        assert "lr_init" in capsys.readouterr().err
        assert not (out / "model.ckpt").exists()

    def test_unknown_manifest_partition_exits_3(self, tmp_path, dataset_dir, capsys):
        shutil.copytree(dataset_dir, tmp_path / "d")
        manifest = tmp_path / "d" / "manifest.tsv"
        manifest.write_text(manifest.read_text().replace("partition=shrec22", "partition=nope"))
        code = main(["train", "--manifest", str(manifest), "--out", str(tmp_path / "o")] + FAST_TRAIN)
        assert code == 3
        assert f"{manifest}:3: partition 'nope'" in capsys.readouterr().err

    def test_diverging_run_prints_no_numpy_warning(self, tmp_path, dataset_dir, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["train", "--manifest", str(dataset_dir / "manifest.tsv"),
                         "--out", str(tmp_path / "o")] + FAST_TRAIN + ["--lr", "1e10"])
        assert code == 2
        assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert capsys.readouterr().err.startswith("error: loss is")

    @pytest.mark.filterwarnings("error")
    def test_diverging_adam_step_prints_no_numpy_warning(self, tmp_path, dataset_dir, capsys):
        # the loss of the one batch is finite; its Adam step overflows, and the epoch-end check reports it
        code = main(["train", "--manifest", str(dataset_dir / "manifest.tsv"), "--out", str(tmp_path / "o")]
                    + FAST_TRAIN + ["--max-epochs", "1", "--lr", "1e300"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: parameter joint.w is not finite after epoch 0 with lr 1e+300")

    def test_divergence_in_the_last_epoch_exits_2_without_checkpoint(self, tmp_path, capsys):
        data, out = tmp_path / "d", tmp_path / "o"
        assert main(synth_args(data, classes=4)) == 0
        code = main(["train", "--manifest", str(data / "manifest.tsv"), "--out", str(out)]
                    + FAST_TRAIN + ["--max-epochs", "1", "--lr", "1e10"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: the forward of training sequence ")
        assert not (out / "model.ckpt").exists()

    def test_config_file_matches_flags(self, tmp_path, dataset_dir):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "d_model=8\nheads=2\nd_head=4\ndropout=0.0\nframes=4\nlr=0.01\n"
            "batch_size=16\nwarmup_epochs=1\nplateau_patience=1\nmax_decays=1\n"
            "max_epochs=4\naugment=off\nseed=3\n"
        )
        a, b = tmp_path / "fromflags", tmp_path / "fromfile"
        assert main(["train", "--manifest", str(dataset_dir / "manifest.tsv"),
                     "--out", str(a)] + FAST_TRAIN) == 0
        assert main(["train", "--manifest", str(dataset_dir / "manifest.tsv"),
                     "--out", str(b), "--config", str(cfg)]) == 0
        assert (a / "model.ckpt").read_bytes() == (b / "model.ckpt").read_bytes()


class TestEvalCommand:
    def test_eval_matches_train_final_val_acc(self, trained_dir, dataset_dir, capsys):
        code = main(["eval", "--checkpoint", str(trained_dir / "model.ckpt"),
                     "--manifest", str(dataset_dir / "manifest.tsv")])
        assert code == 0
        printed = capsys.readouterr().out
        acc = float(printed.split("accuracy=")[1].split()[0])
        final_line = (trained_dir / "train.log").read_text().strip().split("\n")[-1]
        logged = float(final_line.split("val_acc=")[1])
        assert acc == pytest.approx(logged, abs=1e-9)

    def test_reports_speed_on_stderr_and_accuracy_on_stdout(self, trained_dir, dataset_dir, capsys):
        assert main(["eval", "--checkpoint", str(trained_dir / "model.ckpt"),
                     "--manifest", str(dataset_dir / "manifest.tsv")]) == 0
        captured = capsys.readouterr()
        labels = [e.label for e in load_manifest(str(dataset_dir / "manifest.tsv")).split_entries("test")]
        samples = len(labels)
        accuracy = re.fullmatch(rf"accuracy=([0-9.e-]+) samples={samples}\n", captured.out)
        assert accuracy, captured.out
        number = r"([0-9.e+-]+)"
        match = re.fullmatch(rf"eval: wall_s={number} seq_per_s={number} per_class_acc=([0-9.e,+-]+)\n", captured.err)
        assert match, captured.err
        wall_s, seq_per_s = float(match[1]), float(match[2])
        assert wall_s > 0 and seq_per_s == pytest.approx(samples / wall_s, rel=1e-3)
        per_class = [float(v) for v in match[3].split(",")]
        assert len(per_class) == 3 and all(0.0 <= v <= 1.0 for v in per_class)
        counts = np.bincount(labels, minlength=3)
        assert np.dot(per_class, counts) / samples == pytest.approx(float(accuracy[1]), abs=1e-3)

    def test_confusion_csv_row_sums(self, trained_dir, dataset_dir, tmp_path):
        csv = tmp_path / "conf.csv"
        code = main(["eval", "--checkpoint", str(trained_dir / "model.ckpt"),
                     "--manifest", str(dataset_dir / "manifest.tsv"),
                     "--confusion", str(csv)])
        assert code == 0
        rows = [list(map(int, line.split(","))) for line in csv.read_text().strip().split("\n")[1:]]
        ds = load_manifest(str(dataset_dir / "manifest.tsv"))
        per_class = np.bincount([e.label for e in ds.split_entries("test")], minlength=3)
        assert [sum(r) for r in rows] == per_class.tolist()

    def test_corrupt_checkpoint_exits_2(self, tmp_path, dataset_dir, capsys):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"HAN-CKPT v7\n" + b"\x00" * 64)
        code = main(["eval", "--checkpoint", str(bad),
                     "--manifest", str(dataset_dir / "manifest.tsv")])
        assert code == 2
        assert "HAN-CKPT" in capsys.readouterr().err

    def test_coordinates_beyond_float32_exit_3(self, trained_dir, tmp_path, capsys):
        # finite when parsed (float64), inf in the float32 checkpoint's dtype
        (tmp_path / "big.txt").write_text((" ".join(["1e39"] * 66) + "\n") * 6)
        manifest = tmp_path / "manifest.tsv"
        manifest.write_text("classes=3\njoints=22\nbig.txt\t0\ttest\n")
        code = main(["eval", "--checkpoint", str(trained_dir / "model.ckpt"), "--manifest", str(manifest)])
        assert code == 3
        assert "beyond float32 range" in capsys.readouterr().err

    def test_blank_sequence_exits_3_without_warning(self, trained_dir, tmp_path, capsys):
        seq = tmp_path / "s.txt"
        seq.write_text(" \n\n")
        manifest = tmp_path / "manifest.tsv"
        manifest.write_text("classes=3\njoints=22\ns.txt\t0\ttest\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["eval", "--checkpoint", str(trained_dir / "model.ckpt"), "--manifest", str(manifest)])
        assert code == 3
        assert capsys.readouterr().err == f"data error: {seq}: no frames found\n"

    def test_invalid_utf8_sequence_exits_3(self, trained_dir, tmp_path, capsys):
        seq = tmp_path / "s.txt"
        seq.write_bytes((" ".join(["0"] * 66) + "\n").encode() * 5 + b"\xff\n")
        manifest = tmp_path / "manifest.tsv"
        manifest.write_text("classes=3\njoints=22\ns.txt\t0\ttest\n")
        code = main(["eval", "--checkpoint", str(trained_dir / "model.ckpt"), "--manifest", str(manifest)])
        assert code == 3
        assert f"{seq}:6: sequence file is not UTF-8" in capsys.readouterr().err

    def test_invalid_utf8_manifest_exits_3(self, trained_dir, tmp_path, capsys):
        manifest = tmp_path / "manifest.tsv"
        manifest.write_bytes(b"classes=3\xff\njoints=22\n")
        code = main(["eval", "--checkpoint", str(trained_dir / "model.ckpt"), "--manifest", str(manifest)])
        assert code == 3
        assert f"{manifest}:1: manifest is not UTF-8" in capsys.readouterr().err

    def test_invalid_utf8_partition_file_exits_3(self, trained_dir, dataset_dir, tmp_path, capsys):
        shutil.copytree(dataset_dir, tmp_path / "d")
        (tmp_path / "d" / "parts.txt").write_bytes(
            b"2,3,4,5\n6,7,8,9\n10,11,12,13\n14,15,16,17\n18,19,20,21\n0,\xff1\n")
        manifest = tmp_path / "d" / "manifest.tsv"
        manifest.write_text(manifest.read_text().replace("partition=shrec22", "partition=parts.txt"))
        code = main(["eval", "--checkpoint", str(trained_dir / "model.ckpt"), "--manifest", str(manifest)])
        assert code == 3
        assert "parts.txt:6: partition file is not UTF-8" in capsys.readouterr().err

    def test_invalid_utf8_tensor_name_exits_2(self, trained_dir, dataset_dir, tmp_path, capsys):
        blob = (trained_dir / "model.ckpt").read_bytes()
        at = blob.index(b"joint.w")
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(blob[:at] + b"\xff" + blob[at + 1:])
        code = main(["eval", "--checkpoint", str(bad), "--manifest", str(dataset_dir / "manifest.tsv")])
        assert code == 2
        assert f"{bad}: tensor name is not UTF-8" in capsys.readouterr().err

    def test_joint_count_without_partition_exits_3(self, trained_dir, dataset_dir, tmp_path, capsys):
        manifest = tmp_path / "manifest.tsv"
        manifest.write_text(f"classes=3\njoints=19\n{dataset_dir / 'seq' / 'class0_sample000.txt'}\t0\ttest\n")
        code = main(["eval", "--checkpoint", str(trained_dir / "model.ckpt"), "--manifest", str(manifest)])
        assert code == 3
        assert f"{manifest}:2: no built-in partition for 19 joints" in capsys.readouterr().err

    def test_overflowing_weights_exit_2_naming_checkpoint(self, trained_dir, dataset_dir, tmp_path, capsys):
        model = load_checkpoint(str(trained_dir / "model.ckpt"))
        model.joint_w.data[:] = np.finfo(np.float32).max  # finite, but every logit overflows
        bad = tmp_path / "huge.ckpt"
        save_checkpoint(model, str(bad))
        manifest = dataset_dir / "manifest.tsv"
        code = main(["eval", "--checkpoint", str(bad), "--manifest", str(manifest)])
        captured = capsys.readouterr()
        first = load_manifest(str(manifest)).split_entries("test")[0].path
        assert code == 2
        assert captured.err.startswith(f"error: {bad}: {first}: probabilities are not finite")
        assert "Traceback" not in captured.err and captured.out == ""

    def test_overflowing_sequence_exits_2_naming_its_file(self, trained_dir, dataset_dir, tmp_path, capsys):
        shutil.copytree(dataset_dir, tmp_path / "d")
        manifest = tmp_path / "d" / "manifest.tsv"
        second = load_manifest(str(manifest)).split_entries("test")[1].path
        with open(second) as fh:
            rows = [line.split() for line in fh if line.strip()]
        with open(second, "w") as fh:  # within float32 range, but the attention scores overflow
            fh.writelines(" ".join(["1e30"] + row[1:]) + "\n" for row in rows)
        code = main(["eval", "--checkpoint", str(trained_dir / "model.ckpt"), "--manifest", str(manifest)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith(f"error: {trained_dir / 'model.ckpt'}: {second}: probabilities are not finite")
        assert "Traceback" not in captured.err and captured.out == ""

    def test_class_count_mismatch_exits_2(self, trained_dir, tmp_path):
        other = tmp_path / "other"
        assert main(synth_args(other, classes=4)) == 0
        code = main(["eval", "--checkpoint", str(trained_dir / "model.ckpt"),
                     "--manifest", str(other / "manifest.tsv")])
        assert code == 2

    def test_joint_count_mismatch_exits_2(self, trained_dir, tmp_path, capsys):
        other = tmp_path / "other"
        assert main(synth_args(other) + ["--joints", "21"]) == 0
        code = main(["eval", "--checkpoint", str(trained_dir / "model.ckpt"),
                     "--manifest", str(other / "manifest.tsv")])
        assert code == 2
        assert capsys.readouterr().err == "error: checkpoint expects 22 joints, manifest declares 21\n"

    def test_empty_split_exits_3(self, trained_dir, dataset_dir, tmp_path, capsys):
        entries = load_manifest(str(dataset_dir / "manifest.tsv")).split_entries("train")
        manifest = tmp_path / "manifest.tsv"
        manifest.write_text("classes=3\njoints=22\n" + "".join(f"{e.path}\t{e.label}\ttrain\n" for e in entries))
        code = main(["eval", "--checkpoint", str(trained_dir / "model.ckpt"), "--manifest", str(manifest)])
        assert code == 3
        assert capsys.readouterr().err == "data error: manifest has no 'test' entries\n"

    def test_whole_number_float_joint_in_partition_echo_exits_2(self, trained_dir, dataset_dir, tmp_path, capsys):
        blob = (trained_dir / "model.ckpt").read_bytes()
        start = len(b"HAN-CKPT v1\n") + 4
        end = start + struct.unpack("<I", blob[start - 4:start])[0]
        echo = json.loads(blob[start:end])
        echo["partition_parts"][0][0] = 2.0
        payload = json.dumps(echo, sort_keys=True, separators=(",", ":")).encode()
        bad = tmp_path / "floats.ckpt"
        bad.write_bytes(blob[:start - 4] + struct.pack("<I", len(payload)) + payload + blob[end:])
        code = main(["eval", "--checkpoint", str(bad), "--manifest", str(dataset_dir / "manifest.tsv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: {bad}: invalid checkpoint config: joint index 2.0 in partition is not an integer\n"


class TestProfileCommand:
    def test_defaults_print_exact_count(self, capsys):
        assert main(["profile"]) == 0
        out = capsys.readouterr().out
        assert "params=527118" in out
        flops = int(out.split("flops=")[1].split()[0])
        assert 34_000_000 <= flops <= 46_000_000

    @pytest.mark.parametrize("text, value", [("yes", True), ("On", True), ("off", False), ("0", False)])
    def test_config_file_booleans(self, tmp_path, text, value):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# switches\n\naugment={text}\n")
        assert _read_config_file(str(cfg)) == {"augment": value}

    @pytest.mark.parametrize("line", ["augment=maybe", "heads=two"])
    def test_bad_config_file_value_exits_2_naming_file_and_line(self, tmp_path, capsys, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"d_model=8\n{line}\n")
        assert main(["profile", "--config", str(cfg)]) == 2
        key, _, value = line.partition("=")
        assert capsys.readouterr().err == f"error: {cfg}:2: bad value for '{key}': {value}\n"

    def test_invalid_utf8_config_file_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"d_model=8\nheads=\xff2\n")
        assert main(["profile", "--config", str(cfg)]) == 2
        assert f"{cfg}:2: config file is not UTF-8" in capsys.readouterr().err

    def test_head_geometry_tradeoff_keeps_params(self, capsys):
        assert main(["profile", "--heads", "4", "--d-head", "64"]) == 0
        out = capsys.readouterr().out
        assert "params=527118" in out

    def test_csv_breakdown(self, tmp_path):
        csv = tmp_path / "cost.csv"
        assert main(["profile", "--csv", str(csv)]) == 0
        lines = csv.read_text().strip().split("\n")
        assert lines[0] == "module,params,flops"
        total = lines[-1].split(",")
        body = [line.split(",") for line in lines[1:-1]]
        assert sum(int(r[1]) for r in body) == int(total[1])
        assert sum(int(r[2]) for r in body) == int(total[2])


class TestExportAttnCommand:
    def test_f_site_export(self, trained_dir, dataset_dir, tmp_path):
        ds = load_manifest(str(dataset_dir / "manifest.tsv"))
        seq_path = ds.entries[0].path
        out = tmp_path / "attn"
        code = main(["export-attn", "--checkpoint", str(trained_dir / "model.ckpt"),
                     "--sequence", seq_path, "--site", "F", "--frame", "1",
                     "--out", str(out)])
        assert code == 0
        avg = np.loadtxt(out / "head_avg.csv", delimiter=",")
        assert avg.shape == (6, 6)
        assert np.allclose(avg.sum(axis=1), 1.0, atol=1e-6)
        heads = sorted(p.name for p in out.iterdir() if p.name.startswith("head_0"))
        assert len([h for h in heads if h != "head_avg.csv"]) == 2  # n_heads in FAST_TRAIN

    def test_t_site_writes_frame_sums(self, trained_dir, dataset_dir, tmp_path):
        ds = load_manifest(str(dataset_dir / "manifest.tsv"))
        out = tmp_path / "attn_t"
        code = main(["export-attn", "--checkpoint", str(trained_dir / "model.ckpt"),
                     "--sequence", ds.entries[0].path, "--site", "T", "--stream", "6",
                     "--out", str(out)])
        assert code == 0
        sums = np.loadtxt(out / "frame_sums.csv", delimiter=",")
        assert sums.shape == (4,)
        assert sums.sum() == pytest.approx(4.0, abs=1e-5)

    def test_csv_files_hold_the_9_digit_values(self, trained_dir, dataset_dir, tmp_path):
        seq_path = load_manifest(str(dataset_dir / "manifest.tsv")).entries[0].path
        out = tmp_path / "attn_t"
        assert main(["export-attn", "--checkpoint", str(trained_dir / "model.ckpt"),
                     "--sequence", seq_path, "--site", "T", "--stream", "6", "--out", str(out)]) == 0
        model = load_checkpoint(str(trained_dir / "model.ckpt"))
        maps = extract_attention(parse_sequence(seq_path, 22), model, "T", stream=6)
        for name, matrix in (("head_avg.csv", maps.head_avg), ("frame_sums.csv", maps.frame_sums)):
            rows = np.atleast_2d(matrix).tolist()
            expected = "".join(",".join(format(v, ".9g") for v in row) + "\n" for row in rows)
            assert (out / name).read_bytes() == expected.encode()

    def test_overflowing_forward_exits_2_writing_nothing(self, trained_dir, dataset_dir, tmp_path, capsys):
        model = load_checkpoint(str(trained_dir / "model.ckpt"))
        model.joint_w.data[:] = 3e38  # finite, but the attention scores overflow
        bad = tmp_path / "huge.ckpt"
        save_checkpoint(model, str(bad))
        seq = load_manifest(str(dataset_dir / "manifest.tsv")).entries[0].path
        out = tmp_path / "attn"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["export-attn", "--checkpoint", str(bad), "--sequence", seq, "--site", "T", "--stream", "6",
                         "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == (f"error: {bad}: {seq}: attention weights are not finite: the checkpoint's weights "
                                f"or this sequence's values overflow float32\n")
        assert captured.out == "" and not out.exists()

    def test_invalid_site_exits_2(self, trained_dir, dataset_dir):
        ds = load_manifest(str(dataset_dir / "manifest.tsv"))
        code = main(["export-attn", "--checkpoint", str(trained_dir / "model.ckpt"),
                     "--sequence", ds.entries[0].path, "--site", "Q", "--out", "x"])
        assert code == 2

    def test_non_finite_token_exits_3_naming_file_and_line(self, trained_dir, tmp_path, capsys):
        seq = tmp_path / "seq.txt"
        good = " ".join(["0"] * 66)
        seq.write_text(good + "\n" + good + "\n" + good.replace("0", "nan", 1) + "\n")
        code = main(["export-attn", "--checkpoint", str(trained_dir / "model.ckpt"),
                     "--sequence", str(seq), "--site", "Fusion", "--out", str(tmp_path / "attn")])
        assert code == 3
        assert f"{seq}:3: non-finite" in capsys.readouterr().err

    def test_missing_selector_exits_2(self, trained_dir, dataset_dir, tmp_path):
        ds = load_manifest(str(dataset_dir / "manifest.tsv"))
        code = main(["export-attn", "--checkpoint", str(trained_dir / "model.ckpt"),
                     "--sequence", ds.entries[0].path, "--site", "F",
                     "--out", str(tmp_path / "y")])
        assert code == 2


class TestUnusableOutputPath:
    """An output path that cannot be written exits 2 naming it, with no traceback."""

    @pytest.fixture
    def a_file(self, tmp_path):
        path = tmp_path / "a-file"
        path.write_text("")
        return path

    def check(self, argv, path, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err and "Traceback" not in err

    def test_synth_out_is_a_file(self, a_file, capsys):
        self.check(synth_args(a_file), a_file, capsys)

    def test_train_out_is_a_file_fails_before_training(self, a_file, dataset_dir, capsys, monkeypatch):
        monkeypatch.setattr("han.cli.train_loop", lambda *args: pytest.fail("trained before making --out"))
        self.check(["train", "--manifest", str(dataset_dir / "manifest.tsv"), "--out", str(a_file)] + FAST_TRAIN,
                   a_file, capsys)

    def test_profile_csv_in_missing_directory(self, tmp_path, capsys):
        csv = tmp_path / "none" / "x.csv"
        self.check(["profile", "--csv", str(csv)], csv, capsys)

    def test_eval_confusion_in_missing_directory(self, trained_dir, dataset_dir, tmp_path, capsys):
        csv = tmp_path / "none" / "conf.csv"
        self.check(["eval", "--checkpoint", str(trained_dir / "model.ckpt"),
                    "--manifest", str(dataset_dir / "manifest.tsv"), "--confusion", str(csv)], csv, capsys)

    def test_export_attn_out_is_a_file(self, trained_dir, dataset_dir, a_file, capsys):
        seq = load_manifest(str(dataset_dir / "manifest.tsv")).entries[0].path
        self.check(["export-attn", "--checkpoint", str(trained_dir / "model.ckpt"), "--sequence", seq,
                    "--site", "Fusion", "--out", str(a_file)], a_file, capsys)


def test_module_entry_point_runs():
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run(
        [sys.executable, "-m", "han", "profile"],
        capture_output=True, text=True, env=env, cwd=os.path.dirname(os.path.dirname(__file__)),
    )
    assert proc.returncode == 0
    assert "params=527118" in proc.stdout


class TestJointsPartitionAgreement:
    def test_profile_explicit_joints_contradicting_partition_exits_2(self, capsys):
        assert main(["profile", "--joints", "22", "--partition", "fpha21"]) == 2
        err = capsys.readouterr().err
        assert "joints=22" in err and "fpha21" in err and "21 joints" in err

    def test_profile_partition_alone_sets_joint_count(self, capsys):
        assert main(["profile", "--partition", "fpha21"]) == 0
        capsys.readouterr()

    def test_train_partition_contradicting_manifest_exits_2(self, tmp_path, dataset_dir, capsys):
        code = main(["train", "--manifest", str(dataset_dir / "manifest.tsv"),
                     "--out", str(tmp_path / "o"), "--partition", "fpha21"] + FAST_TRAIN)
        assert code == 2
        err = capsys.readouterr().err
        assert "joints=22" in err and "fpha21" in err
        assert not (tmp_path / "o").exists()
