"""Acceptance suite: one test per criterion, one printed pass line each.

Run with `pytest tests/test_acceptance.py -v` (add -s to see the summary
lines). The two end-to-end criteria train real models on the synthetic
dataset and dominate the runtime.
"""

import math
import time

import numpy as np
import pytest

from han import autodiff as ad
from han.attention import AttentionConfig, AttentionParams, attend_batch
from han.autodiff import GradientTape, backward
from han.data import HandPartition, load_manifest
from han.model import (
    HANConfig,
    HANModel,
    extract_attention,
    forward,
    _attend_site,
)
from han.profile import count_flops, count_params
from han.train import ScheduleState, TrainConfig, cross_entropy, train_loop
from han.cli import main as cli_main

from conftest import TOY_PARTITION, tiny_config
from oracles import central_difference, max_relative_error, scalar_attention_reference

RS = np.random.RandomState(2718)


def report(criterion: int, text: str) -> None:
    print(f"ACCEPTANCE {criterion:02d} PASS: {text}")


@pytest.fixture(scope="module")
def synth_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth4")
    code = cli_main(["synth", "--out", str(out), "--classes", "4",
                     "--per-class", "16", "--seed", "7"])
    assert code == 0
    return out


def test_criterion_01_parameter_count_reproduction():
    start = time.time()
    config = HANConfig()  # paper defaults: d128, 8x32 heads, 8 frames, 22 joints, 14 classes
    closed_form = count_params(config)
    spec_formula = 4 * 131_200 + (3 * 128 + 128) + (128 * 14 + 14)
    registry = HANModel(config, seed=0).param_count()
    assert closed_form == spec_formula == registry == 527_118
    assert round(closed_form / 1e6, 2) == 0.53
    assert time.time() - start < 1.0
    report(1, f"params closed-form == registry == {closed_form} (0.53M)")


def test_criterion_02_flop_reproduction():
    start = time.time()
    total = count_flops(HANConfig())
    assert 34_000_000 <= total <= 46_000_000
    assert time.time() - start < 1.0
    report(2, f"forward cost {total / 1e9:.4f} GFLOPs within [0.034, 0.046]")


def test_criterion_03_gradient_correctness_tiny_config():
    start = time.time()
    config = HANConfig(
        attention=AttentionConfig(d_model=8, n_heads=2, d_head=4, dropout_rate=0.0),
        frames=2,
        class_count=4,
        partition=TOY_PARTITION,
    )
    model = HANModel(config, seed=17, dtype=np.float64)
    frames = RS.uniform(-1.0, 1.0, (2, 6, 3))
    label = 1

    with GradientTape() as tape:
        loss = cross_entropy(forward([frames], model), [label])
    backward(loss, tape)

    def loss_value():
        return cross_entropy(forward([frames], model), [label]).item()

    worst = 0.0
    checked = 0
    for name, p in model.parameters():
        analytic = p.grad if p.grad is not None else np.zeros_like(p.data)
        numeric = central_difference(loss_value, p.data, eps=1e-5)
        err = max_relative_error(analytic, numeric)
        assert err < 1e-4, f"{name}: relative error {err}"
        worst = max(worst, err)
        checked += p.size
    elapsed = time.time() - start
    assert elapsed < 30.0
    report(3, f"{checked} parameter gradients match finite differences (worst rel err {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_04_attention_block_oracle_equivalence():
    start = time.time()
    config = AttentionConfig(d_model=2, n_heads=1, d_head=2, dropout_rate=0.0)
    wk = [[0.3, -0.2], [0.1, 0.4]]
    wq = [[-0.5, 0.7], [0.2, 0.1]]
    wv = [[0.9, 0.3], [-0.4, 0.6]]
    wa = [[0.2, -0.3], [0.5, 0.8]]
    ba = [0.05, -0.1]
    params = AttentionParams(
        wk=ad.parameter(wk, dtype=np.float64),
        wq=ad.parameter(wq, dtype=np.float64),
        wv=ad.parameter(wv, dtype=np.float64),
        wa=ad.parameter(wa, dtype=np.float64),
        ba=ad.parameter(ba, dtype=np.float64),
    )
    inputs = [[0.6, -0.2], [-0.3, 0.9]]
    got = attend_batch(ad.constant(np.asarray(inputs)[None]), params, config).data[0]
    want = np.asarray(scalar_attention_reference(inputs, wk, wq, wv, wa, ba, 1, 2))
    gap = float(np.max(np.abs(got - want)))
    assert gap < 1e-10
    assert time.time() - start < 1.0
    report(4, f"attend_batch matches the scalar step-by-step oracle (max gap {gap:.2e})")


def test_criterion_05_permutation_invariance_suite():
    start = time.time()
    mixed = HandPartition(parts=((0, 1), (2, 3), (4,), (5,), (6,), (7,)), name="toy8")

    def build(partition, pe_on):
        return HANModel(
            HANConfig(
                attention=AttentionConfig(d_model=6, n_heads=2, d_head=3, dropout_rate=0.0),
                frames=4,
                class_count=4,
                partition=partition,
                pe_j=pe_on, pe_f=pe_on, pe_t=pe_on, pe_fusion=pe_on,
            ),
            seed=41,
            dtype=np.float64,
        )

    model = build(mixed, pe_on=False)
    frames = RS.uniform(-1, 1, (4, 8, 3))
    base = forward([frames], model).data

    # joints within a part
    swapped = frames.copy()
    swapped[:, [0, 1]] = swapped[:, [1, 0]]
    assert np.max(np.abs(forward([swapped], model).data - base)) < 1e-5
    # the 6 parts (partition relabeling carries the F-level and 6 of 7 streams)
    permuted = build(HandPartition(parts=((2, 3), (0, 1), (4,), (5,), (6,), (7,)), name="toy8p"), pe_on=False)
    for (_, a), (_, b) in zip(model.parameters(), permuted.parameters()):
        b.data = a.data.copy()
    assert np.max(np.abs(forward([frames], permuted).data - base)) < 1e-5
    # the frames
    assert np.max(np.abs(forward([frames[[3, 1, 0, 2]]], model).data - base)) < 1e-5
    # the 7 fusion streams, driven directly through the fusion stage
    def fuse(stream_feats):
        return _attend_site(model, ("Fusion",), stream_feats, model.fusion_att, model.config.pe_fusion,
                            False, None, None).data

    streams = ad.constant(RS.uniform(-1, 1, (7, 6)), dtype=np.float64)
    fused = fuse(ad.reshape(streams, (1, 7, 6)))
    moved = fuse(ad.constant(streams.data[RS.permutation(7)][None]))
    assert np.max(np.abs(fused - moved)) < 1e-5

    # with embeddings on, frame order must matter on every random input
    model_pe = build(mixed, pe_on=True)
    changed = 0
    for _ in range(100):
        x = RS.uniform(-1, 1, (4, 8, 3))
        a = forward([x], model_pe).data
        b = forward([x[[1, 0, 3, 2]]], model_pe).data
        changed += bool(np.max(np.abs(a - b)) > 1e-9)
    assert changed == 100
    elapsed = time.time() - start
    assert elapsed < 10.0
    report(5, f"invariant at all 4 levels with PEs off; frame order changed logits 100/100 with PEs on ({elapsed:.1f}s)")


def test_criterion_06_row_stochasticity_everywhere():
    start = time.time()
    config = tiny_config(frames=3)
    model = HANModel(config, seed=6, dtype=np.float64)
    checked = 0
    for i in range(1000):
        frames = np.random.RandomState(i).uniform(-1, 1, (3, 6, 3))
        sites = [("J", dict(frame=i % 3, part=i % 6)), ("F", dict(frame=i % 3)),
                 ("T", dict(stream=i % 7)), ("Fusion", {})]
        for site, sel in sites:
            maps = extract_attention(frames, model, site, **sel)
            assert np.max(np.abs(maps.per_head.sum(axis=-1) - 1.0)) < 1e-6
            assert np.max(np.abs(maps.head_avg.sum(axis=-1) - 1.0)) < 1e-6
            checked += 1
    elapsed = time.time() - start
    assert elapsed < 30.0
    report(6, f"{checked} exported matrices row-stochastic within 1e-6 ({elapsed:.1f}s)")


def test_criterion_07_end_to_end_learning(synth_dataset):
    start = time.time()
    ds = load_manifest(str(synth_dataset / "manifest.tsv"))
    model = HANModel(HANConfig(class_count=4, partition=ds.partition), seed=7)
    result = train_loop(ds.load_split("train"), ds.load_split("test"), model,
                        TrainConfig(seed=7))  # default schedule throughout
    elapsed = time.time() - start
    assert result.final_train_acc >= 0.99
    assert result.final_val_acc >= 0.90
    assert elapsed < 300.0
    report(7, f"train acc {result.final_train_acc:.3f}, held-out {result.final_val_acc:.3f} "
              f"in {len(result.epochs)} epochs, {elapsed:.0f}s")


def test_criterion_08_training_determinism(synth_dataset, tmp_path):
    start = time.time()
    args = ["train", "--manifest", str(synth_dataset / "manifest.tsv"), "--seed", "7"]
    a, b = tmp_path / "run_a", tmp_path / "run_b"
    assert cli_main(args + ["--out", str(a)]) == 0
    assert cli_main(args + ["--out", str(b)]) == 0
    ckpt_a = (a / "model.ckpt").read_bytes()
    ckpt_b = (b / "model.ckpt").read_bytes()
    assert ckpt_a == ckpt_b
    assert (a / "train.log").read_bytes() == (b / "train.log").read_bytes()
    report(8, f"two identical train runs produced byte-identical checkpoints "
              f"({len(ckpt_a)} bytes, {time.time() - start:.0f}s)")


def test_criterion_09_schedule_conformance():
    start = time.time()
    config = TrainConfig()  # lr 0.001, warmup 5, patience 10, factor 10, 4 decays
    state = ScheduleState(config)
    lrs = []
    stopped_at = None
    for epoch in range(200):
        lrs.append(state.lr_for_epoch(epoch))
        if state.observe(epoch, metric=0.5):  # frozen validation metric
            stopped_at = epoch
            break
    assert state.decays == 4
    assert stopped_at is not None
    assert state.decay_epochs == [14, 24, 34, 44]
    # each decay divides by 10 starting from 0.001
    for k, epoch in enumerate(state.decay_epochs):
        assert lrs[epoch] == pytest.approx(0.001 * 0.1 ** k)
    assert state.lr == pytest.approx(0.001 * 0.1 ** 4)
    assert time.time() - start < 1.0
    report(9, f"frozen metric: 4 decays of x0.1 from 0.001 at epochs {state.decay_epochs}, stop at the 4th")


def test_criterion_10_ablation_harness(synth_dataset):
    start = time.time()
    ds = load_manifest(str(synth_dataset / "manifest.tsv"))
    runs = []
    for toggles in (dict(pe_j=False), dict(pe_f=False), dict(pe_t=False), dict(pe_fusion=False)):
        runs.append(toggles)
    for sharing in ((False, False), (False, True), (True, False), (True, True)):
        runs.append(dict(share_j_att=sharing[0], share_t_att=sharing[1]))
    for kw in runs:
        model = HANModel(HANConfig(class_count=4, partition=ds.partition, **kw), seed=3)
        config = TrainConfig(batch_size=16, warmup_epochs=1, plateau_patience=1,
                             max_decays=1, seed=3, max_epochs=2)
        result = train_loop(ds.load_split("train"), ds.load_split("test"), model, config)
        assert len(result.epochs) == 2
        assert all(math.isfinite(log.train_loss) for log in result.epochs)
    elapsed = time.time() - start
    assert elapsed < 900.0
    report(10, f"{len(runs)} ablation configurations (4 PE toggles, 4 sharing combos) trained without error ({elapsed:.0f}s)")
