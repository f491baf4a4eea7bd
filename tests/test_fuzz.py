"""Byte-level fuzzing of every input file the package reads.

A valid checkpoint, manifest, sequence file, partition file and `--config`
file each get one single-byte flip, truncation or short insertion. The
loader and the CLI commands that read the file may then only return
normally or raise the documented `HanError` subclass (CLI exit 2 or 3);
any other exception, or exit 4, is a failure.
"""

import re
import shutil
from contextlib import suppress
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from han.cli import _read_config_file, main
from han.config import build_configs
from han.data import load_manifest, load_partition, parse_sequence
from han.errors import CheckpointError, ConfigError, DataError, ParseError
from han.model import load_checkpoint

from test_model import _with_config_echo

TINY = ["--d-model", "8", "--n-heads", "2", "--d-head", "4", "--frames", "4"]
TRAIN = TINY + ["--max-epochs", "1", "--batch-size", "4", "--no-augment", "--seed", "1"]
SHREC22_LINES = b"2,3,4,5\n6,7,8,9\n10,11,12,13\n14,15,16,17\n18,19,20,21\n0,1\n"
CONFIG = b"# tiny run\nd_model=8\nn_heads=2\nd_head=4\nframes=4\nlr_init=0.01\naugment=off\npartition=shrec22\n"

# each example runs a loader and up to two CLI commands on a tiny model
FUZZ = settings(max_examples=25, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])


@st.composite
def mutated(draw, blob: bytes) -> bytes:
    """`blob` with one byte flipped, its tail cut off, or 1-4 bytes inserted."""
    kind = draw(st.sampled_from(["flip", "truncate", "insert"]))
    at = draw(st.integers(0, len(blob) - 1))
    if kind == "flip":
        return blob[:at] + bytes([blob[at] ^ draw(st.integers(1, 255))]) + blob[at + 1:]
    if kind == "truncate":
        return blob[:at]
    return blob[:at] + draw(st.binary(min_size=1, max_size=4)) + blob[at:]


def exits_cleanly(argv, capsys):
    code = main(argv)
    capsys.readouterr()
    assert code in (0, 2, 3), f"han {argv[0]} exited {code}"


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """A 2-class synthetic set, a tiny trained checkpoint, and the valid files the tests mutate."""
    root = tmp_path_factory.mktemp("fuzz")
    assert main(["synth", "--out", str(root / "data"), "--classes", "2", "--per-class", "3",
                 "--min-frames", "4", "--max-frames", "6", "--seed", "1"]) == 0
    assert main(["train", "--manifest", str(root / "data" / "manifest.tsv"),
                 "--out", str(root / "run")] + TRAIN) == 0
    return root


def fresh_copy(corpus, tmp_path):
    """A writable copy of the dataset, so each example mutates its own files."""
    data = tmp_path / "data"
    if data.exists():
        shutil.rmtree(data)
    shutil.copytree(corpus / "data", data)
    return data


@FUZZ
@given(data=st.data())
def test_checkpoint(corpus, tmp_path, capsys, data):
    ckpt = tmp_path / "model.ckpt"
    ckpt.write_bytes(data.draw(mutated((corpus / "run" / "model.ckpt").read_bytes())))
    with suppress(CheckpointError):
        load_checkpoint(str(ckpt))
    exits_cleanly(["eval", "--checkpoint", str(ckpt), "--manifest", str(corpus / "data" / "manifest.tsv")], capsys)


@FUZZ
@given(data=st.data())
def test_manifest(corpus, tmp_path, capsys, data):
    manifest = fresh_copy(corpus, tmp_path) / "manifest.tsv"
    manifest.write_bytes(data.draw(mutated(manifest.read_bytes())))
    with suppress(DataError):
        load_manifest(str(manifest))
    exits_cleanly(["eval", "--checkpoint", str(corpus / "run" / "model.ckpt"), "--manifest", str(manifest)], capsys)
    exits_cleanly(["train", "--manifest", str(manifest), "--out", str(tmp_path / "run")] + TRAIN, capsys)


@FUZZ
@given(data=st.data())
def test_sequence_file(corpus, tmp_path, capsys, data):
    root = fresh_copy(corpus, tmp_path)
    manifest = root / "manifest.tsv"
    seq = Path(load_manifest(str(manifest)).split_entries("test")[0].path)
    seq.write_bytes(data.draw(mutated(seq.read_bytes())))
    with suppress(DataError):
        parse_sequence(str(seq), 22)
    exits_cleanly(["eval", "--checkpoint", str(corpus / "run" / "model.ckpt"), "--manifest", str(manifest)], capsys)
    exits_cleanly(["export-attn", "--checkpoint", str(corpus / "run" / "model.ckpt"), "--sequence", str(seq),
                   "--site", "Fusion", "--out", str(tmp_path / "attn")], capsys)


@FUZZ
@given(data=st.data())
def test_partition_file(corpus, tmp_path, capsys, data):
    root = fresh_copy(corpus, tmp_path)
    parts = root / "parts.txt"
    parts.write_bytes(data.draw(mutated(SHREC22_LINES)))
    manifest = root / "manifest.tsv"
    manifest.write_text(manifest.read_text().replace("partition=shrec22", "partition=parts.txt"))
    with suppress(DataError):
        load_partition(str(parts))
    exits_cleanly(["eval", "--checkpoint", str(corpus / "run" / "model.ckpt"), "--manifest", str(manifest)], capsys)
    exits_cleanly(["train", "--manifest", str(manifest), "--out", str(tmp_path / "run")] + TRAIN, capsys)


@FUZZ
@given(data=st.data())
def test_config_file(tmp_path, capsys, data):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(data.draw(mutated(CONFIG)))
    # a partition value names a built-in layout or a partition file, so data errors are documented too
    with suppress(ConfigError, DataError):
        build_configs(_read_config_file(str(cfg)))
    exits_cleanly(["profile", "--config", str(cfg)], capsys)


# Counts beyond the bounds would make the model allocate for them; each file or
# flag that declares one is rejected first, naming the file and line.

def test_manifest_class_count_beyond_bound(corpus, tmp_path, capsys):
    manifest = fresh_copy(corpus, tmp_path) / "manifest.tsv"
    lines = manifest.read_text().split("\n")
    line = next(i for i, text in enumerate(lines, start=1) if text.startswith("classes="))
    lines[line - 1] = "classes=99999999999"
    manifest.write_text("\n".join(lines))
    message = f"{manifest}:{line}: classes must be in [2, 65536], got 99999999999"
    with pytest.raises(ParseError) as info:
        load_manifest(str(manifest))
    assert str(info.value) == message
    assert main(["train", "--manifest", str(manifest), "--out", str(tmp_path / "run")] + TRAIN) == 3
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("changes", [{"class_count": 99999999999}, {"frames": 40000}, {"d_model": 99999}])
def test_checkpoint_echo_beyond_bound(corpus, tmp_path, capsys, changes):
    ckpt = tmp_path / "model.ckpt"
    ckpt.write_bytes(_with_config_echo((corpus / "run" / "model.ckpt").read_bytes(), **changes))
    (key, value), = changes.items()
    message = f"{ckpt}: invalid checkpoint config: {key} must be in"
    with pytest.raises(CheckpointError, match=re.escape(message)):
        load_checkpoint(str(ckpt))
    assert main(["eval", "--checkpoint", str(ckpt), "--manifest", str(corpus / "data" / "manifest.tsv")]) == 2
    assert message in capsys.readouterr().err


def test_frames_flag_beyond_bound(corpus, tmp_path, capsys):
    code = main(["train", "--manifest", str(corpus / "data" / "manifest.tsv"),
                 "--out", str(tmp_path / "run")] + TRAIN + ["--frames", "99999999"])
    assert code == 2
    assert "frames must be in [1, 4096], got 99999999" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


# the attention widths size every weight matrix and the position table

@pytest.mark.parametrize("flags, message", [
    (["--d-model", "4097"], "d_model must be in [1, 4096], got 4097"),
    (["--n-heads", "1000", "--d-head", "1000000"], "n_heads*d_head must be in [1, 4096], got 1000000000"),
])
def test_attention_width_flag_beyond_bound(corpus, tmp_path, capsys, flags, message):
    code = main(["train", "--manifest", str(corpus / "data" / "manifest.tsv"),
                 "--out", str(tmp_path / "run")] + TRAIN + flags)
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "run").exists()


def test_attention_width_beyond_bound_in_a_config_file(tmp_path, capsys):
    cfg = tmp_path / "wide.cfg"
    cfg.write_text("n_heads=64\nd_head=65\n")
    assert main(["profile", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == "error: n_heads*d_head must be in [1, 4096], got 4160\n"


def test_attention_width_echo_beyond_bound(corpus, tmp_path):
    ckpt = tmp_path / "model.ckpt"
    ckpt.write_bytes(_with_config_echo((corpus / "run" / "model.ckpt").read_bytes(), n_heads=2, d_head=4096))
    with pytest.raises(CheckpointError, match=re.escape(f"{ckpt}: invalid checkpoint config: n_heads*d_head must be")):
        load_checkpoint(str(ckpt))
