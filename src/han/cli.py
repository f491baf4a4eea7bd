"""Command-line entry point.

Subcommands: train, eval, profile, export-attn, synth. Configuration is
resolved as built-in defaults < `--config` key=value file < command-line
flags; unknown keys in the config file are a hard error. Exit codes:
0 success, 2 configuration/usage or an unusable output path, 3 data,
4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import time

import numpy as np

from .config import CONFIG_KEYS, build_configs
from .data import load_manifest, parse_sequence, read_lines, write_table
from .errors import CheckpointError, ConfigError, DataError, HanError, UsageError
from .model import HANModel, SITES, extract_attention, load_checkpoint, save_checkpoint
from .profile import cost_report
from .synth import SynthConfig, generate_dataset
from .train import evaluate, train_loop, write_confusion_csv, write_training_log

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_INTERNAL = 4


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "on", "yes"):
        return True
    if lowered in ("0", "false", "off", "no"):
        return False
    raise ConfigError(f"expected a boolean, got '{text}'")


def _read_config_file(path: str) -> dict:
    try:
        lines = read_lines(path, "config file")
    except DataError as exc:
        raise ConfigError(str(exc)) from exc
    out: dict = {}
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        if "=" not in text:
            raise ConfigError(f"{path}:{lineno}: expected key=value")
        key, _, value = text.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown config key '{key}'")
        kind = CONFIG_KEYS[key]
        try:
            out[key] = _parse_bool(value) if kind is bool else kind(value)
        except (ValueError, ConfigError) as exc:  # a number that does not parse, or a word that is no boolean
            raise ConfigError(f"{path}:{lineno}: bad value for '{key}': {value}") from exc
    return out


def _config_values(args: argparse.Namespace) -> dict:
    """The config keys a run sets: the `--config` file, then flags over it."""
    values = _read_config_file(args.config) if args.config else {}
    for key in CONFIG_KEYS:
        if getattr(args, key) is not None:
            values[key] = getattr(args, key)
    return values


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key=value configuration file")
    for key, kind in CONFIG_KEYS.items():
        flag = "--" + key.replace("_", "-")
        if kind is bool:
            parser.add_argument(flag, dest=key, default=None, action=argparse.BooleanOptionalAction)
        else:
            parser.add_argument(flag, dest=key, type=kind, default=None)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="han", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model from a manifest")
    p_train.add_argument("--manifest", required=True)
    p_train.add_argument("--out", required=True, help="output directory for checkpoint and log")
    _add_config_flags(p_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on a manifest split")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--manifest", required=True)
    p_eval.add_argument("--split", default="test", choices=("train", "test"))
    p_eval.add_argument("--confusion", help="write the confusion matrix CSV here")

    p_prof = sub.add_parser("profile", help="parameter and FLOP report for a configuration")
    p_prof.add_argument("--csv", help="write the breakdown CSV here")
    _add_config_flags(p_prof)

    p_attn = sub.add_parser("export-attn", help="export attention matrices for one sequence")
    p_attn.add_argument("--checkpoint", required=True)
    p_attn.add_argument("--sequence", required=True, help="sequence file")
    p_attn.add_argument("--site", required=True, choices=SITES)
    p_attn.add_argument("--frame", type=int)
    p_attn.add_argument("--part", type=int)
    p_attn.add_argument("--stream", type=int)
    p_attn.add_argument("--out", required=True, help="output directory for the CSV files")

    p_synth = sub.add_parser("synth", help="generate a synthetic labelled dataset")
    p_synth.add_argument("--out", required=True)
    for f in dataclasses.fields(SynthConfig):
        p_synth.add_argument("--" + f.name.replace("_", "-"), dest=f.name, type=type(f.default), default=f.default)
    return parser


def cmd_train(args: argparse.Namespace) -> int:
    values = _config_values(args)
    dataset = load_manifest(args.manifest)
    for key, declared in (("classes", dataset.class_count), ("joints", dataset.joint_count)):
        if values.setdefault(key, declared) != declared:
            raise ConfigError(f"config sets {key}={values[key]} but the manifest declares {declared}")
    if values.get("partition", "auto") == "auto":
        values["partition"] = dataset.partition
    config, train_config = build_configs(values)
    model = HANModel(config, seed=train_config.seed)
    train_seqs, val_seqs = dataset.load_split("train"), dataset.load_split("test")
    if not train_seqs:
        raise DataError("manifest has no 'train' entries")
    os.makedirs(args.out, exist_ok=True)  # after the data is read, before the run: an unusable --out fails here
    result = train_loop(train_seqs, val_seqs, model, train_config)
    save_checkpoint(result.model, os.path.join(args.out, "model.ckpt"))
    write_training_log(os.path.join(args.out, "train.log"), result)
    print(f"epochs={len(result.epochs)} train_acc={result.final_train_acc:.4f} "
          f"val_acc={result.final_val_acc:.4f}")
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    start = time.perf_counter()
    model = load_checkpoint(args.checkpoint)
    dataset = load_manifest(args.manifest)
    if dataset.class_count != model.config.class_count:
        raise ConfigError(
            f"checkpoint was trained for {model.config.class_count} classes, "
            f"manifest declares {dataset.class_count}"
        )
    if dataset.joint_count != model.config.joint_count:
        raise ConfigError(
            f"checkpoint expects {model.config.joint_count} joints, manifest declares {dataset.joint_count}"
        )
    sequences = dataset.load_split(args.split)
    if not sequences:
        raise DataError(f"manifest has no '{args.split}' entries")
    report = evaluate(model, sequences)
    if report.first_non_finite is not None:
        path = dataset.split_entries(args.split)[report.first_non_finite].path
        raise CheckpointError(f"{args.checkpoint}: {path}: probabilities are not finite: the checkpoint's "
                              f"weights or this sequence's values overflow {np.dtype(model.dtype).name}")
    if args.confusion:
        write_confusion_csv(args.confusion, report)
    wall_s = time.perf_counter() - start
    per_class = ",".join(f"{acc:.4g}" for acc in report.per_class_accuracy)
    print(f"eval: wall_s={wall_s:.4g} seq_per_s={len(sequences) / wall_s:.4g} per_class_acc={per_class}",
          file=sys.stderr)
    print(f"accuracy={report.accuracy:.8g} samples={int(report.confusion.sum())}")
    return EXIT_OK


def cmd_profile(args: argparse.Namespace) -> int:
    config, _ = build_configs(_config_values(args))
    report = cost_report(config)
    print(report.text())
    print(f"params={report.param_total}")
    print(f"flops={report.flop_total}")
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(report.csv())
    return EXIT_OK


def cmd_export_attn(args: argparse.Namespace) -> int:
    model = load_checkpoint(args.checkpoint)
    seq = parse_sequence(args.sequence, model.config.joint_count)
    maps = extract_attention(seq, model, args.site, frame=args.frame, part=args.part, stream=args.stream)
    if not np.isfinite(maps.per_head).all():  # checked before --out is made: an overflow writes nothing
        raise CheckpointError(f"{args.checkpoint}: {args.sequence}: attention weights are not finite: the "
                              f"checkpoint's weights or this sequence's values overflow {np.dtype(model.dtype).name}")
    os.makedirs(args.out, exist_ok=True)

    def write_matrix(name: str, matrix: np.ndarray) -> None:
        path = os.path.join(args.out, name)
        with open(path, "w", encoding="utf-8") as fh:
            write_table(fh, np.atleast_2d(matrix), delimiter=",")  # 1-D frame sums: one row

    write_matrix("head_avg.csv", maps.head_avg)
    for h in range(maps.per_head.shape[0]):
        write_matrix(f"head_{h:02d}.csv", maps.per_head[h])
    if maps.frame_sums is not None:
        write_matrix("frame_sums.csv", maps.frame_sums)
    print(f"site={args.site} tokens={maps.head_avg.shape[0]} heads={maps.per_head.shape[0]} out={args.out}")
    return EXIT_OK


def cmd_synth(args: argparse.Namespace) -> int:
    config = SynthConfig(**{f.name: getattr(args, f.name) for f in dataclasses.fields(SynthConfig)})
    manifest = generate_dataset(config, args.out)
    print(f"manifest={manifest} classes={config.classes} sequences={config.classes * config.per_class}")
    return EXIT_OK


_COMMANDS = {
    "train": cmd_train,
    "eval": cmd_eval,
    "profile": cmd_profile,
    "export-attn": cmd_export_attn,
    "synth": cmd_synth,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed the message; normalize its code
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, UsageError, OSError) as exc:  # an OSError names the unusable output path
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except HanError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
