"""Smoke tests of the benchmark itself, at tiny sizes.

Run from the repository root with ``python3 -m pytest -q bench``.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import run as bench  # noqa: E402
import workloads  # noqa: E402
from tracing import rebind  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def tiny(name):
    workload = {
        "train": lambda: workloads.TrainWorkload(3, sequences=4, epochs=1, batch_size=4),
        "eval-b64": lambda: workloads.EvalWorkload(3, batch=3),
        "predict-b1": lambda: workloads.PredictWorkload(3, pool=2),
    }[name]()
    workload.min_ops = 3
    return workload


NAMES = [w["name"] for w in SPEC["workloads"]]


def test_spec_lists_the_benchmark_metrics():
    assert NAMES == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == bench.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", NAMES)
def test_every_metric_is_reported_with_its_unit(name, trace):
    outcome = bench.run(tiny(name), seconds=0.05, trace=bool(trace), setup_repeats=1)
    result = outcome["result"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    lines = bench.report_lines(outcome)
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and math.isfinite(got["value"])
        assert any(line.startswith(f"{m['name']} ") and line.endswith(f" {m['unit']}") for line in lines)
    if trace:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        assert metrics["attention.calls_per_seq"] == 9
        assert metrics["trace.layer_share"] > 0.9


@pytest.mark.parametrize("name", NAMES)
def test_nan_forward_counts_as_failed(name):
    def poison(forward):
        def nan_forward(*args, **kwargs):
            out = forward(*args, **kwargs)
            out.data = np.full_like(out.data, np.nan)
            return out
        return nan_forward

    install, uninstall = rebind("han.model", "forward", poison)
    install()
    try:
        outcome = bench.run(tiny(name), seconds=0.05, trace=False, setup_repeats=1)
    finally:
        uninstall()
    result = outcome["result"]
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


def test_command_prints_json_last(monkeypatch, capsys):
    monkeypatch.setitem(workloads.WORKLOADS, "predict-b1", lambda seed: tiny("predict-b1"))
    assert bench.main(["--workload", "predict-b1", "--seed", "3", "--seconds", "0.05", "--trace", "0"]) == 0
    last = capsys.readouterr().out.strip().splitlines()[-1]
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"]


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", ".*"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "train", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
