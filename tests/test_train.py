import math

import numpy as np
import pytest

from han.autodiff import GradientTape, Tensor, backward, parameter, reshape
from han.data import SkeletonSequence
from han.errors import ConfigError, DataError, UsageError
from han.model import HANModel
from han.rng import Rng
from han.train import (
    AdamState,
    ScheduleState,
    TrainConfig,
    adam_step,
    cross_entropy,
    evaluate,
    metrics_from_pairs,
    train_loop,
    write_confusion_csv,
)

from conftest import tiny_config
from oracles import central_difference, max_relative_error

RS = np.random.RandomState(91)


class TestCrossEntropy:
    def test_uniform_logits_fourteen_classes(self):
        loss = cross_entropy(Tensor(np.zeros((1, 14)), dtype=np.float64), [5])
        assert loss.item() == pytest.approx(math.log(14.0), abs=1e-12)

    def test_saturated_margin(self):
        logits = np.zeros(8)
        logits[3] = 50.0
        loss = cross_entropy(Tensor(logits[None], dtype=np.float64), [3])
        assert loss.item() < 1e-8

    def test_label_out_of_range(self):
        with pytest.raises(UsageError):
            cross_entropy(Tensor(np.zeros((1, 4))), [4])

    def test_float_labels_rejected(self):
        with pytest.raises(UsageError, match="cross_entropy needs"):
            cross_entropy(Tensor(np.zeros((2, 4))), np.array([1.0, 2.0]))

    def test_gradient_is_softmax_minus_onehot(self):
        x = parameter(RS.uniform(-2, 2, 9), dtype=np.float64)
        with GradientTape() as tape:
            loss = cross_entropy(reshape(x, (1, 9)), [4])
        (got,) = backward(loss, tape, [x])
        sm = np.exp(x.data) / np.exp(x.data).sum()
        want = sm.copy()
        want[4] -= 1.0
        assert np.allclose(got, want, atol=1e-12)
        numeric = central_difference(lambda: cross_entropy(reshape(x, (1, 9)), [4]).item(), x.data)
        assert max_relative_error(got, numeric) < 1e-4

    def test_large_logits_stay_finite(self):
        loss = cross_entropy(Tensor([[1e4, -1e4, 0.0]], dtype=np.float64), [1])
        assert np.isfinite(loss.item())


class TestAdam:
    def test_zero_gradients_leave_params_unchanged(self):
        p = parameter(RS.uniform(-1, 1, (3, 2)), dtype=np.float64)
        before = p.data.copy()
        state = AdamState.for_params([p])
        adam_step([p], [np.zeros_like(p.data)], state, lr=0.1)
        assert np.array_equal(p.data, before)

    def test_single_step_magnitude_near_lr(self):
        # one step with g=1: m_hat = v_hat = 1, update = lr / (1 + eps)
        p = parameter(np.array([0.0]), dtype=np.float64)
        state = AdamState.for_params([p])
        adam_step([p], [np.ones(1)], state, lr=0.01)
        assert p.data[0] == pytest.approx(-0.01 / (1.0 + 1e-8), rel=1e-9)

    def test_hand_evaluated_two_steps(self):
        p = parameter(np.array([1.0]), dtype=np.float64)
        state = AdamState.for_params([p])
        x = 1.0
        m = v = 0.0
        for t in (1, 2):
            g = 2.0 * x  # gradient of x^2 evaluated lazily below
            g = np.array([g])
            adam_step([p], [g], state, lr=0.1)
            m = 0.9 * m + 0.1 * float(g[0])
            v = 0.999 * v + 0.001 * float(g[0]) ** 2
            x = x - 0.1 * (m / (1 - 0.9 ** t)) / (math.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
            assert p.data[0] == pytest.approx(x, rel=1e-12)

    def test_shape_mismatch(self):
        p = parameter(np.zeros((2, 2)))
        state = AdamState.for_params([p])
        with pytest.raises(UsageError):
            adam_step([p], [np.zeros(3)], state, lr=0.1)

    def test_length_mismatch(self):
        p = parameter(np.zeros((2, 2)))
        with pytest.raises(UsageError, match="the same length"):
            adam_step([p], [], AdamState.for_params([p]), lr=0.1)

    def test_deterministic_trajectories(self):
        def run():
            p = parameter(np.array([0.3, -0.7]), dtype=np.float64)
            state = AdamState.for_params([p])
            for step in range(25):
                adam_step([p], [p.data * 0.5 + step * 0.01], state, lr=0.05)
            return p.data.copy()

        assert np.array_equal(run(), run())


class TestSchedule:
    def test_warmup_ramp(self):
        state = ScheduleState(TrainConfig())
        assert state.lr_for_epoch(0) == pytest.approx(0.0002)
        assert state.lr_for_epoch(4) == pytest.approx(0.001)
        assert state.lr_for_epoch(5) == pytest.approx(0.001)

    def test_improving_metric_never_decays(self):
        cfg = TrainConfig()
        state = ScheduleState(cfg)
        for epoch in range(80):
            stop = state.observe(epoch, metric=float(epoch))
            assert not stop
        assert state.decays == 0
        assert state.lr_for_epoch(81) == pytest.approx(0.001)

    def test_frozen_metric_decays_four_times_then_stops(self):
        cfg = TrainConfig()  # warmup 5, patience 10, factor 10, 4 decays
        state = ScheduleState(cfg)
        stops = []
        for epoch in range(60):
            stops.append(state.observe(epoch, metric=0.5))
            if stops[-1]:
                break
        # first decay after 10 stagnant post-warmup epochs, then every 10
        assert state.decay_epochs == [14, 24, 34, 44]
        assert state.decays == 4
        assert stops[-1] is True
        assert state.lr == pytest.approx(0.001 * 0.1 ** 4)

    def test_lr_never_increases_after_warmup(self):
        cfg = TrainConfig(warmup_epochs=2, plateau_patience=3)
        state = ScheduleState(cfg)
        rng = Rng(4)
        last = None
        for epoch in range(40):
            lr = state.lr_for_epoch(epoch)
            if epoch >= cfg.warmup_epochs and last is not None:
                assert lr <= last + 1e-15
            if epoch >= cfg.warmup_epochs:
                last = lr
            if state.observe(epoch, metric=rng.uniform()):
                break

    def test_epoch_end_observe_then_next_lr(self):
        state = ScheduleState(TrainConfig(warmup_epochs=1, plateau_patience=1))
        stop = state.observe(0, 0.9)
        assert state.lr_for_epoch(1) == pytest.approx(0.001)
        assert not stop

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(lr_init=0.0)
        with pytest.raises(ConfigError):
            TrainConfig(decay_factor=1.0)
        with pytest.raises(ConfigError):
            TrainConfig(max_decays=0)


class TestMetrics:
    def test_confusion_structure(self):
        report = metrics_from_pairs([0, 0, 1, 2], [0, 1, 1, 2], 3)
        assert report.confusion.tolist() == [[1, 1, 0], [0, 1, 0], [0, 0, 1]]
        assert report.accuracy == pytest.approx(3 / 4)
        assert report.per_class_accuracy.tolist() == [0.5, 1.0, 1.0]

    def test_accuracy_is_trace_over_total(self):
        true = RS.randint(0, 5, 200)
        pred = RS.randint(0, 5, 200)
        report = metrics_from_pairs(true, pred, 5)
        assert report.accuracy == pytest.approx(np.trace(report.confusion) / report.confusion.sum())
        assert np.array_equal(report.confusion.sum(axis=1), np.bincount(true, minlength=5))

    def test_random_predictor_near_chance(self):
        # a uniformly random 14-class predictor lands near 1/14
        n = 14 * 500
        rng = Rng(2024, "pred")
        true = [rng.randint(0, 14) for _ in range(n)]
        pred = [rng.randint(0, 14) for _ in range(n)]
        report = metrics_from_pairs(true, pred, 14)
        p = 1.0 / 14.0
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(report.accuracy - p) < 3 * sigma

    def test_confusion_csv(self, tmp_path):
        report = metrics_from_pairs([0, 1, 1], [0, 1, 0], 2)
        path = tmp_path / "c.csv"
        write_confusion_csv(str(path), report)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "0,1"
        assert lines[1] == "1,0"
        assert lines[2] == "1,1"

    @pytest.mark.parametrize("name", ["c.csv", "c.csv.gz"])
    def test_confusion_csv_bytes(self, tmp_path, name):
        # a name ending in .gz is still written as plain text
        path = tmp_path / name
        write_confusion_csv(str(path), metrics_from_pairs([0, 1, 1], [0, 1, 0], 2))
        assert path.read_bytes() == b"0,1\n1,0\n1,1\n"


def toy_sequences(n_per_class=6, classes=3, t=5, joints=6, spread=0.5):
    """Separable toy sequences: class -> offset axis plus a temporal slope."""
    seqs = []
    rs = np.random.RandomState(8)
    for c in range(classes):
        axis = c % 3
        for _ in range(n_per_class):
            base = np.zeros((t, joints, 3))
            base[..., axis] = spread * (1 + c // 3)
            base += np.linspace(0, 0.2 * c, t)[:, None, None]
            base += rs.uniform(-0.05, 0.05, base.shape)
            seqs.append(SkeletonSequence(frames=base, label=c))
    return seqs


class TestTrainLoop:
    def test_empty_split_rejected(self):
        model = HANModel(tiny_config(), seed=1)
        with pytest.raises(UsageError):
            train_loop([], [], model, TrainConfig())

    def test_non_finite_loss_stops_before_the_update(self):
        seqs = toy_sequences(classes=3, joints=6, t=5)
        model = HANModel(tiny_config(class_count=3, frames=4), seed=5)
        config = TrainConfig(lr_init=1e10, seed=5, batch_size=8, warmup_epochs=1, max_epochs=4,
                             augmentation=None)
        with pytest.raises(ConfigError, match=r"loss is (nan|inf) at epoch \d+, batch \d+ with lr 1e\+10"):
            train_loop(seqs, [], model, config)
        # the step that produced the bad loss never ran, so no weight is non-finite yet
        assert all(np.all(np.isfinite(p.data)) for _, p in model.parameters())

    def test_evaluate_names_the_overflowing_sequence_of_the_whole_split(self):
        # 10 sequences span two EVAL_CHUNK forwards; the row is counted over the split
        model = HANModel(tiny_config(class_count=3, frames=4), seed=5)
        seqs = [SkeletonSequence(frames=np.zeros((4, 6, 3)), label=0) for _ in range(10)]
        seqs[9].frames[2, 1, 0] = 1e39
        with pytest.raises(DataError, match="sequence 9 of the batch"):
            evaluate(model, seqs)

    @pytest.mark.parametrize("label", [3, 20, -1])
    def test_evaluate_rejects_a_label_outside_the_classes(self, label):
        # -1 would index the last confusion row, and 20 beyond it
        model = HANModel(tiny_config(class_count=3, frames=4), seed=5)
        seqs = [SkeletonSequence(frames=np.zeros((4, 6, 3)), label=lab) for lab in (0, 2, label)]
        with pytest.raises(DataError, match=rf"^sequence 2 has label {label}, outside the model's 3 classes$"):
            evaluate(model, seqs)

    @pytest.mark.parametrize("split", ["training", "validation"])
    @pytest.mark.parametrize("label", [-1, 3])
    def test_train_loop_rejects_a_label_outside_the_classes_before_the_first_forward(self, monkeypatch,
                                                                                     split, label):
        def no_forward(*args, **kwargs):
            raise AssertionError("forward ran before the labels were checked")

        monkeypatch.setattr("han.train.forward", no_forward)
        model = HANModel(tiny_config(class_count=3, frames=4), seed=5)
        splits = {name: [SkeletonSequence(frames=np.zeros((4, 6, 3)), label=lab) for lab in (0, 1, 2)]
                  for name in ("training", "validation")}
        splits[split][1] = SkeletonSequence(frames=np.zeros((4, 6, 3)), label=label)
        config = TrainConfig(max_epochs=1, warmup_epochs=1, augmentation=None)
        with pytest.raises(DataError, match=rf"^{split} sequence 1 has label {label}, outside the model's 3 classes$"):
            train_loop(splits["training"], splits["validation"], model, config)

    def test_non_finite_parameters_after_the_last_step_stop_training(self):
        seqs = toy_sequences(classes=3, joints=6, t=5)
        model = HANModel(tiny_config(class_count=3, frames=4), seed=5)
        # one batch per epoch: its loss is finite, and the step after it overflows float32
        config = TrainConfig(lr_init=1e39, seed=5, batch_size=64, warmup_epochs=1, max_epochs=1,
                             augmentation=None)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ConfigError, match=r"parameter \S+ is not finite after epoch 0 with lr 1e\+39"):
            train_loop(seqs, [], model, config)

    def test_evaluate_names_the_first_sequence_with_non_finite_logits(self):
        model = HANModel(tiny_config(class_count=3, frames=4), seed=5)
        seqs = [SkeletonSequence(frames=np.zeros((4, 6, 3)), label=0) for _ in range(10)]
        seqs[9].frames[2, 1, 0] = 1e30  # within float32 range, but the attention scores overflow
        report = evaluate(model, seqs)
        assert report.first_non_finite == 9
        assert math.isnan(report.accuracy)
        assert int(report.confusion.sum()) == 10

    def test_initial_loss_near_log_classes(self):
        seqs = toy_sequences(classes=4, joints=6, t=2)
        for seed in range(10):
            model = HANModel(tiny_config(class_count=4), seed=seed)
            config = TrainConfig(seed=seed, max_epochs=1, warmup_epochs=1,
                                 plateau_patience=1, augmentation=None, batch_size=64)
            result = train_loop(seqs, [], model, config)
            assert abs(result.epochs[0].train_loss - math.log(4.0)) < 0.5

    def test_overfits_toy_set_and_logs_decays(self):
        seqs = toy_sequences(classes=3, joints=6, t=5)
        model = HANModel(tiny_config(class_count=3, frames=4), seed=5)
        config = TrainConfig(
            lr_init=0.01, seed=5, batch_size=8, warmup_epochs=2, plateau_patience=6,
            decay_factor=10.0, max_decays=2, augmentation=None,
        )
        val = [seqs[i] for i in (0, 6, 12, 3, 9, 15)]
        result = train_loop(seqs, val, model, config)
        assert result.final_train_acc >= 0.99
        # log is monotone in epoch and decay counts never decrease
        epochs = [log.epoch for log in result.epochs]
        assert epochs == sorted(epochs)
        decays = [log.decays for log in result.epochs]
        assert all(b >= a for a, b in zip(decays, decays[1:]))
        assert decays[-1] == 2

    @pytest.mark.parametrize("with_val", [True, False])
    def test_validation_split_is_evaluated_once_per_epoch(self, monkeypatch, with_val):
        seqs = toy_sequences(classes=3, joints=6, t=5)
        val = [seqs[i] for i in (0, 6, 12)] if with_val else []
        calls = []
        monkeypatch.setattr("han.train.evaluate", lambda model, split: calls.append(len(split)) or evaluate(model, split))
        model = HANModel(tiny_config(class_count=3, frames=4), seed=5)
        config = TrainConfig(seed=5, batch_size=8, max_epochs=3, augmentation=None)
        result = train_loop(seqs, val, model, config)
        # one val pass per epoch, then one pass over the training split
        assert calls == ([3, 3, 3, 18] if with_val else [18])
        if with_val:
            assert result.final_val_acc == result.epochs[-1].val_acc
        else:
            assert math.isnan(result.final_val_acc)

    def test_determinism_same_seed_same_params(self):
        seqs = toy_sequences(classes=3, joints=6, t=5)

        def run():
            model = HANModel(tiny_config(class_count=3, frames=4), seed=9)
            config = TrainConfig(seed=9, batch_size=8, max_epochs=3, augmentation=None)
            train_loop(seqs, [], model, config)
            return np.concatenate([p.data.reshape(-1) for _, p in model.parameters()])

        assert np.array_equal(run(), run())

    def test_evaluate_matches_prediction_loop(self):
        seqs = toy_sequences(classes=3, joints=6, t=5)
        model = HANModel(tiny_config(class_count=3, frames=4), seed=5)
        report = evaluate(model, seqs)
        assert report.confusion.sum() == len(seqs)
        assert 0.0 <= report.accuracy <= 1.0
