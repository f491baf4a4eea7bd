import hashlib
import inspect
import json
import os
import pathlib
import re
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import han.model as model_mod
from han.attention import AttentionConfig, attend_batch, positional_embedding
from han.autodiff import GradientTape, backward
from han.data import FPHA21, SHREC22, HandPartition, SkeletonSequence, uniform_sample
from han.errors import CheckpointError, ConfigError, DataError, ShapeError, UsageError
from han.model import (
    EVAL_CHUNK,
    HANConfig,
    HANModel,
    extract_attention,
    forward,
    load_checkpoint,
    predict,
    probabilities,
    save_checkpoint,
)
from han.rng import Rng
from han.train import cross_entropy

from conftest import MIXED_PARTITION, NOT_REAL, TOY_PARTITION, not_real_frames, tiny_config
from oracles import central_difference, max_relative_error, scalar_tiny_model_reference
from reference_ops import forward_reference

RS = np.random.RandomState(31)


def rand_frames(config):
    return RS.uniform(-1.0, 1.0, (config.frames, config.joint_count, 3))


class TestForwardBasics:
    def test_logit_shape_and_finiteness(self):
        config = HANConfig()
        model = HANModel(config, seed=3)
        logits = forward([rand_frames(config)], model)
        assert logits.shape == (1, 14)
        assert np.all(np.isfinite(logits.data))

    def test_eval_determinism(self):
        config = tiny_config(dropout=0.3)
        model = HANModel(config, seed=4, dtype=np.float64)
        x = rand_frames(config)
        assert np.array_equal(forward([x], model).data, forward([x], model).data)

    @pytest.mark.parametrize("kind", ["arrays", "sequences", "array"])
    def test_any_frame_count_is_resampled(self, kind):
        # every entry samples to config.frames itself, with the bits of a call on uniform_sample's output
        config = tiny_config()
        lengths = [5, 5, 5] if kind == "array" else [5, 1, config.frames, 9]
        raw = [RS.uniform(-1, 1, (t, config.joint_count, 3)) for t in lengths]
        sampled = [uniform_sample(SkeletonSequence(frames=f, label=0), config.frames).frames for f in raw]
        if kind == "sequences":
            batch = [SkeletonSequence(frames=f, label=i) for i, f in enumerate(raw)]
        else:
            batch = np.stack(raw) if kind == "array" else raw
        for dtype in (np.float32, np.float64):
            model = HANModel(config, seed=5, dtype=dtype)
            assert np.array_equal(forward(batch, model).data, forward(sampled, model).data)
            assert np.array_equal(probabilities(batch, model), probabilities(sampled, model))
            assert np.array_equal(predict(batch[0], model)[1], predict(sampled[0], model)[1])
            for site, selectors in (("J", {"frame": 1, "part": 0}), ("T", {"stream": 6})):
                got = extract_attention(batch[0], model, site, **selectors).per_head
                assert np.array_equal(got, extract_attention(sampled[0], model, site, **selectors).per_head)

    def test_sequence_at_the_frame_count_is_not_resampled(self, monkeypatch):
        config = tiny_config()
        monkeypatch.setattr("han.model.uniform_sample", lambda *a: pytest.fail("resampled a sampled sequence"))
        forward([rand_frames(config)], HANModel(config, seed=1))

    @pytest.mark.parametrize("shape", [(2, 6, 2), (0, 6, 3), (6, 3)], ids=["two-coords", "no-frames", "2-d"])
    def test_frames_of_the_wrong_shape_rejected(self, shape):
        with pytest.raises(DataError, match=r"sequence frames must be \(T, J, 3\) with T >= 1"):
            forward([np.zeros(shape)], HANModel(tiny_config(), seed=1))

    def test_joint_count_checked(self):
        config = tiny_config()
        model = HANModel(config, seed=1)
        with pytest.raises(ConfigError, match="joints"):
            forward([RS.uniform(-1, 1, (2, 7, 3))], model)

    def test_coordinates_beyond_float32_rejected(self):
        # finite in float64, inf once cast to the model dtype
        config = tiny_config()
        model = HANModel(config, seed=1)
        batch = np.random.RandomState(32).uniform(-1, 1, (3, config.frames, config.joint_count, 3))
        batch[1, 0, 0, 0] = 1e39
        with pytest.raises(DataError, match="sequence 1 of the batch"):
            forward(batch, model)
        with pytest.raises(DataError, match="float32"):
            predict(batch[1], model)

    @pytest.mark.parametrize("value, extra_frames", [(np.nan, 0), (np.inf, 0), (np.nan, 5), (np.inf, 5)],
                             ids=["nan", "inf", "nan-resampled", "inf-resampled"])
    def test_non_finite_coordinates_named_as_such(self, value, extra_frames):
        # a raw row is checked before resampling, which would drop its frame 1 (2 of 7 frames keep 0 and 6),
        # and before the cast to the model dtype
        config = tiny_config()
        batch = np.zeros((3, config.frames + extra_frames, config.joint_count, 3))
        batch[1, 1, 0, 0] = value
        with pytest.raises(DataError, match="^sequence 1 of the batch: sequence contains non-finite coordinates$"):
            forward(batch, HANModel(config, seed=1))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("extra_frames", [0, 5], ids=["sampled", "resampled"])
    @pytest.mark.parametrize("kind", NOT_REAL)
    def test_coordinates_that_are_not_real_numbers_rejected(self, kind, extra_frames):
        # a raw row is checked before resampling or the cast to the model dtype
        config = tiny_config()
        bad = not_real_frames((config.frames + extra_frames, config.joint_count, 3))[kind]
        with pytest.raises(DataError, match=f"^sequence 1 of the batch: sequence frames must be real numbers, got dtype {bad.dtype}$"):
            forward([rand_frames(config), bad], HANModel(config, seed=1))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_position_table_rows_are_cast_sinusoids(self, dtype):
        model = HANModel(tiny_config(), seed=1, dtype=dtype)
        d = model.config.attention.d_model
        assert model.pe.shape == (7 + 1, d) and model.pe.dtype == dtype  # max(frames, 7 streams, 6 parts) + 1
        for p in range(len(model.pe)):
            assert np.array_equal(model.pe[p], positional_embedding(p, d).astype(dtype))

    def test_registry_count_at_defaults(self):
        model = HANModel(HANConfig(), seed=0)
        assert model.param_count() == 527_118

    @pytest.mark.parametrize("seed, message", [
        (-1, "seed must be >= 0, got -1"),
        (1.5, "seed must be an integer, got 1.5"),
        (True, "seed must be an integer, got True"),
        ("1", "seed must be an integer, got '1'"),
    ], ids=["negative", "fraction", "bool", "text"])
    def test_bad_seed_rejected(self, seed, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            HANModel(tiny_config(), seed=seed)

    def test_shared_blocks_are_identical_objects(self):
        model = HANModel(tiny_config(), seed=2)
        assert len(model.j_att) == 1  # every part's joint site runs this one block
        assert len(model.t_att) == 1  # every stream's temporal site runs this one block

    def test_unshared_blocks_are_distinct(self):
        model = HANModel(tiny_config(share_j_att=False, share_t_att=False), seed=2)
        assert len({id(block) for block in model.j_att}) == 6
        assert len({id(block) for block in model.t_att}) == 7
        names = [n for n, _ in model.parameters()]
        assert len(names) == len(set(names))


class TestTinyOracle:
    def test_logits_match_straight_line_reference(self):
        # d_model=4, one head, T=2, six single-joint parts, all PEs on
        config = HANConfig(
            attention=AttentionConfig(d_model=4, n_heads=1, d_head=4, dropout_rate=0.0),
            frames=2,
            class_count=3,
            partition=TOY_PARTITION,
        )
        model = HANModel(config, seed=13, dtype=np.float64)
        frames = RS.uniform(-1.0, 1.0, (2, 6, 3))

        def block_dict(params):
            return {
                "wk": params.wk.data.tolist(),
                "wq": params.wq.data.tolist(),
                "wv": params.wv.data.tolist(),
                "wa": params.wa.data.tolist(),
                "ba": params.ba.data.tolist(),
            }

        weights = {
            "joint_w": model.joint_w.data.tolist(),
            "joint_b": model.joint_b.data.tolist(),
            "j_att": block_dict(model.j_att[0]),
            "f_att": block_dict(model.f_att),
            "t_att": block_dict(model.t_att[0]),
            "fusion_att": block_dict(model.fusion_att),
            "cls_w": model.cls_w.data.tolist(),
            "cls_b": model.cls_b.data.tolist(),
        }
        got = forward([frames], model).data[0]
        want = scalar_tiny_model_reference(
            frames.tolist(), weights, [list(p) for p in TOY_PARTITION.parts],
            n_heads=1, d_head=4, pe_flags={"j": True, "f": True, "t": True, "fusion": True},
        )
        assert np.max(np.abs(got - np.asarray(want))) < 1e-9

    def test_multihead_multi_joint_parts_match_reference(self):
        config = HANConfig(
            attention=AttentionConfig(d_model=6, n_heads=2, d_head=3, dropout_rate=0.0),
            frames=3,
            class_count=4,
            partition=MIXED_PARTITION,
        )
        model = HANModel(config, seed=29, dtype=np.float64)
        frames = RS.uniform(-1.0, 1.0, (3, 8, 3))
        weights = {
            "joint_w": model.joint_w.data.tolist(),
            "joint_b": model.joint_b.data.tolist(),
            "j_att": {k: getattr(model.j_att[0], k).data.tolist() for k in ("wk", "wq", "wv", "wa", "ba")},
            "f_att": {k: getattr(model.f_att, k).data.tolist() for k in ("wk", "wq", "wv", "wa", "ba")},
            "t_att": {k: getattr(model.t_att[0], k).data.tolist() for k in ("wk", "wq", "wv", "wa", "ba")},
            "fusion_att": {k: getattr(model.fusion_att, k).data.tolist() for k in ("wk", "wq", "wv", "wa", "ba")},
            "cls_w": model.cls_w.data.tolist(),
            "cls_b": model.cls_b.data.tolist(),
        }
        got = forward([frames], model).data[0]
        want = scalar_tiny_model_reference(
            frames.tolist(), weights, [list(p) for p in MIXED_PARTITION.parts],
            n_heads=2, d_head=3, pe_flags={"j": True, "f": True, "t": True, "fusion": True},
        )
        assert np.max(np.abs(got - np.asarray(want))) < 1e-9


    def test_batch_rows_match_reference(self):
        # three sequences in one forward: every row is its own sequence's logits
        config = HANConfig(
            attention=AttentionConfig(d_model=6, n_heads=2, d_head=3, dropout_rate=0.0),
            frames=3,
            class_count=4,
            partition=MIXED_PARTITION,
        )
        model = HANModel(config, seed=29, dtype=np.float64)
        batch = np.random.RandomState(43).uniform(-1.0, 1.0, (3, 3, 8, 3))
        weights = {
            "joint_w": model.joint_w.data.tolist(),
            "joint_b": model.joint_b.data.tolist(),
            "j_att": {k: getattr(model.j_att[0], k).data.tolist() for k in ("wk", "wq", "wv", "wa", "ba")},
            "f_att": {k: getattr(model.f_att, k).data.tolist() for k in ("wk", "wq", "wv", "wa", "ba")},
            "t_att": {k: getattr(model.t_att[0], k).data.tolist() for k in ("wk", "wq", "wv", "wa", "ba")},
            "fusion_att": {k: getattr(model.fusion_att, k).data.tolist() for k in ("wk", "wq", "wv", "wa", "ba")},
            "cls_w": model.cls_w.data.tolist(),
            "cls_b": model.cls_b.data.tolist(),
        }
        got = forward(batch, model).data
        assert got.shape == (3, 4)
        for row, frames in zip(got, batch):
            want = scalar_tiny_model_reference(
                frames.tolist(), weights, [list(p) for p in MIXED_PARTITION.parts],
                n_heads=2, d_head=3, pe_flags={"j": True, "f": True, "t": True, "fusion": True},
            )
            assert np.max(np.abs(row - np.asarray(want))) < 1e-9


class TestPredict:
    def test_probabilities_sum_to_one(self):
        config = tiny_config()
        model = HANModel(config, seed=6)
        cls, probs = predict(rand_frames(config), model)
        assert probs.sum() == pytest.approx(1.0, abs=1e-6)
        assert 0 <= cls < config.class_count

    def test_equal_logits_tie_break_lowest_index(self):
        config = tiny_config()
        model = HANModel(config, seed=6)
        model.cls_w.data[:] = 0
        model.cls_b.data[:] = 0
        cls, probs = predict(rand_frames(config), model)
        assert cls == 0
        assert np.allclose(probs, 1.0 / config.class_count)

    def test_overflowing_forward_gives_non_finite_probabilities(self):
        # predict passes an overflow on for its caller to see, with no numpy warning; evaluate raises on it
        config = tiny_config()
        model = HANModel(config, seed=6)
        model.joint_w.data[:] = np.finfo(np.float32).max
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, probs = predict(rand_frames(config), model)
            assert not np.isfinite(probs).all()
            assert not np.isfinite(probabilities([RS.uniform(-1, 1, (5, config.joint_count, 3))], model)).all()
            assert not np.isfinite(extract_attention(rand_frames(config), model, "T", stream=0).per_head).all()

    def test_empty_batch_rejected(self):
        with pytest.raises(UsageError, match="forward takes a batch of one or more"):
            probabilities([], HANModel(tiny_config(), seed=6))


class TestGradients:
    def test_full_model_gradcheck_tiny_config(self):
        config = tiny_config(dropout=0.0)
        model = HANModel(config, seed=17, dtype=np.float64)
        frames = rand_frames(config)
        label = 2

        def loss_value():
            return cross_entropy(forward([frames], model), [label]).item()

        with GradientTape() as tape:
            loss = cross_entropy(forward([frames], model), [label])
        backward(loss, tape)
        for name, p in model.parameters():
            got = p.grad if p.grad is not None else np.zeros_like(p.data)
            want = central_difference(loss_value, p.data)
            assert max_relative_error(got, want) < 1e-4, f"gradient mismatch for {name}"


class TestFoldedJointEmbedding:
    """The J block embeds raw coordinates itself (`attend_batch(..., embed=...)`);
    it must compute what the unfolded composition of `forward_reference` does."""

    @staticmethod
    def run(fn, model, frames, training, labels=(1, 4)):
        rng = [Rng(3, f"dropout/0/{i}") for i in range(len(frames))] if training else None
        capture: dict = {}
        with GradientTape() as tape:
            logits = fn(frames, model, training=training, rng=rng, capture=capture)
            loss = cross_entropy(logits, list(labels))
        backward(loss, tape)
        grads = {name: p.grad for name, p in model.parameters()}
        tape.reset()
        return logits.data, grads, capture

    @staticmethod
    def assert_close(got, want, what):
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want)), what

    @pytest.mark.parametrize("partition", [SHREC22, FPHA21], ids=["shrec22", "fpha21"])
    @pytest.mark.parametrize("shared", [True, False], ids=["shared", "unshared"])
    @pytest.mark.parametrize("pe_j", [True, False], ids=["pe_j", "no_pe_j"])
    @pytest.mark.parametrize("training", [False, True], ids=["eval", "dropout"])
    def test_matches_unfolded_reference(self, partition, shared, pe_j, training):
        config = HANConfig(attention=AttentionConfig(dropout_rate=0.1), partition=partition,
                           share_j_att=shared, share_t_att=shared, pe_j=pe_j)
        model = HANModel(config, seed=23, dtype=np.float64)
        frames = np.random.RandomState(61).uniform(-1, 1, (2, config.frames, partition.joint_count, 3))
        logits, grads, maps = self.run(forward, model, frames, training)
        want_logits, want_grads, want_maps = self.run(forward_reference, model, frames, training)
        self.assert_close(logits, want_logits, "logits")
        for name, want in want_grads.items():
            self.assert_close(grads[name], want, name)
        assert maps.keys() == want_maps.keys()
        for p in range(6):
            self.assert_close(maps[("J", p)], want_maps[("J", p)], f"J part {p} attention")

    def test_embedding_gradients_match_central_differences(self):
        config = tiny_config(dropout=0.1, frames=3, partition=MIXED_PARTITION)
        model = HANModel(config, seed=29, dtype=np.float64)
        frames = np.random.RandomState(62).uniform(-1, 1, (2, 3, 8, 3))

        def loss():
            rng = [Rng(4, f"dropout/0/{i}") for i in range(2)]
            return cross_entropy(forward(frames, model, training=True, rng=rng), [0, 3])

        with GradientTape() as tape:
            value = loss()
        backward(value, tape)
        for name, p in (("joint.w", model.joint_w), ("joint.b", model.joint_b)):
            want = central_difference(lambda: loss().item(), p.data)
            assert max_relative_error(p.grad, want) < 1e-6, name


@st.composite
def run_partitions(draw) -> HandPartition:
    """6 parts of 1-5 joints, each part's size often its predecessor's, so that runs of equal parts form and
    split; the joints are shuffled across parts."""
    sizes = [draw(st.integers(1, 5))]
    for _ in range(5):
        sizes.append(sizes[-1] if draw(st.booleans()) else draw(st.integers(1, 5)))
    joints = draw(st.permutations(range(sum(sizes))))
    ends = np.cumsum(sizes)
    return HandPartition(parts=[joints[end - size:end] for size, end in zip(sizes, ends)])


class TestJointRuns:
    """`forward` runs equal-size parts that share a block as one J call, up to EVAL_CHUNK·frames groups;
    `forward_reference` calls the block once per part. Both must compute the same thing."""

    @settings(max_examples=40, deadline=None)
    @given(partition=run_partitions(), batch=st.sampled_from([1, 2, 3, 8, 9]), share_j=st.booleans(),
           share_t=st.booleans(), training=st.booleans(), seed=st.integers(0, 2**16))
    def test_matches_the_per_part_reference(self, partition, batch, share_j, share_t, training, seed):
        config = tiny_config(dropout=0.2, frames=3, partition=partition, share_j_att=share_j, share_t_att=share_t)
        model = HANModel(config, seed=seed, dtype=np.float64)
        frames = np.random.RandomState(seed).uniform(-1, 1, (batch, 3, partition.joint_count, 3))
        labels = [i % config.class_count for i in range(batch)]
        run, assert_close = TestFoldedJointEmbedding.run, TestFoldedJointEmbedding.assert_close
        logits, grads, maps = run(forward, model, frames, training, labels)
        want_logits, want_grads, want_maps = run(forward_reference, model, frames, training, labels)
        assert_close(logits, want_logits, "logits")
        for name, want in want_grads.items():
            assert_close(grads[name], want, name)
        assert maps.keys() == want_maps.keys()
        for key, want in want_maps.items():
            assert maps[key].shape == want.shape, key
            assert_close(maps[key], want, key)

    @staticmethod
    def calls(monkeypatch, config, batch):
        """The groups of each J call and the number of block calls of one eval forward of `batch` sequences."""
        seen = []

        def counting(*args, **kwargs):
            bound = inspect.signature(attend_batch).bind(*args, **kwargs)
            seen.append(bound.arguments.get("embed") is not None and bound.arguments["x"].shape[0])
            return attend_batch(*args, **kwargs)

        monkeypatch.setattr(model_mod, "attend_batch", counting)
        forward(np.zeros((batch, config.frames, config.joint_count, 3)), HANModel(config, seed=3))
        return [g for g in seen if g], len(seen)

    @pytest.mark.parametrize("batch, count", [(1, 5), (8, 9)])
    def test_default_call_count(self, monkeypatch, batch, count):
        assert self.calls(monkeypatch, HANConfig(), batch)[1] == count

    @pytest.mark.parametrize("batch", [1, 2, 8, 9])
    def test_unshared_joint_blocks_take_one_call_per_part(self, monkeypatch, batch):
        assert self.calls(monkeypatch, HANConfig(share_j_att=False), batch)[1] == 9

    @pytest.mark.parametrize("batch", [1, 2, 3, 7, 8, 9])
    def test_no_joint_call_exceeds_the_cap(self, monkeypatch, batch):
        t = HANConfig().frames
        groups, _ = self.calls(monkeypatch, HANConfig(), batch)
        assert sum(groups) == 6 * batch * t
        assert max(groups) <= max(batch * t, EVAL_CHUNK * t), groups


class TestBatchGrouping:
    """A batch computes what its sequences compute one at a time, dropout included."""

    @staticmethod
    def streams(indices):
        return [Rng(5, f"dropout/0/{i}") for i in indices]

    @staticmethod
    def loss_and_grads(model, frames, labels, rngs):
        with GradientTape() as tape:
            logits = forward(frames, model, training=True, rng=rngs)
            loss = cross_entropy(logits, labels)
        backward(loss, tape)
        grads = [p.grad.copy() if p.grad is not None else np.zeros_like(p.data) for _, p in model.parameters()]
        tape.reset()
        return logits.data, grads

    @pytest.mark.parametrize("shared", [True, False])
    def test_batch_of_five_matches_five_single_calls(self, shared):
        config = tiny_config(dropout=0.2, frames=3, partition=MIXED_PARTITION,
                             share_j_att=shared, share_t_att=shared)
        model = HANModel(config, seed=37, dtype=np.float64)
        frames = np.random.RandomState(47).uniform(-1, 1, (5, 3, 8, 3))
        labels = [0, 3, 1, 1, 2]

        logits, grads = self.loss_and_grads(model, frames, labels, self.streams(range(5)))
        singles = [self.loss_and_grads(model, frames[i:i + 1], labels[i:i + 1], self.streams([i]))
                   for i in range(5)]

        want_logits = np.concatenate([one for one, _ in singles])
        assert max_relative_error(logits, want_logits) <= 1e-10
        # dropout did act: eval-mode logits differ from the training-mode ones
        assert np.max(np.abs(forward(frames, model).data - logits)) > 1e-6
        for k, (name, _) in enumerate(model.parameters()):
            want = np.mean([g[k] for _, g in singles], axis=0)
            assert max_relative_error(grads[k], want) <= 1e-10, name

    @pytest.mark.parametrize("shared", [True, False], ids=["shared", "unshared"])
    def test_captures_hold_each_sequence_in_its_row(self, shared):
        config = HANConfig(share_j_att=shared, share_t_att=shared)
        model = HANModel(config, seed=41, dtype=np.float64)
        frames = np.random.RandomState(49).uniform(-1, 1, (3, config.frames, config.joint_count, 3))
        capture, singles = {}, [{}, {}, {}]
        forward(frames, model, training=True, rng=self.streams(range(3)), capture=capture)
        for i, single in enumerate(singles):
            forward(frames[i:i + 1], model, training=True, rng=self.streams([i]), capture=single)
        t = config.frames
        groups = {("J", p): (t, len(part)) for p, part in enumerate(config.partition.parts)}
        groups.update({("F",): (t, 6), ("T",): (7, t), ("Fusion",): (1, 7)})   # (G, N) per site
        assert capture.keys() == groups.keys()
        for key, (g, n) in groups.items():
            assert capture[key].shape == (3, g, config.attention.n_heads, n, n), key
            for i, single in enumerate(singles):
                assert np.max(np.abs(capture[key][i] - single[key][0])) <= 1e-10, key

    @pytest.mark.parametrize("count", [1, 2])
    def test_stream_count_must_match_batch(self, count):
        # one stream for a whole batch would make the masks depend on the grouping
        model = HANModel(tiny_config(dropout=0.2), seed=37)
        rng = self.streams(range(count))
        with pytest.raises(UsageError, match=f"{count} dropout streams for 3 sequences"):
            forward(np.zeros((3, 2, 6, 3)), model, training=True, rng=rng[0] if count == 1 else rng)


class TestPermutationSymmetries:
    def no_pe_model(self, partition=MIXED_PARTITION, frames=3):
        config = HANConfig(
            attention=AttentionConfig(d_model=6, n_heads=2, d_head=3, dropout_rate=0.0),
            frames=frames,
            class_count=4,
            partition=partition,
            pe_j=False, pe_f=False, pe_t=False, pe_fusion=False,
        )
        return HANModel(config, seed=23, dtype=np.float64)

    def test_joint_permutation_within_part(self):
        model = self.no_pe_model()
        frames = RS.uniform(-1, 1, (3, 8, 3))
        swapped = frames.copy()
        swapped[:, [0, 1]] = swapped[:, [1, 0]]  # part 0 holds joints (0, 1)
        a = forward([frames], model).data
        b = forward([swapped], model).data
        assert np.max(np.abs(a - b)) < 1e-5

    def test_part_permutation(self):
        # relabel the two 2-joint parts; inputs move with the partition
        model = self.no_pe_model()
        frames = RS.uniform(-1, 1, (3, 8, 3))
        permuted_partition = HandPartition(parts=((2, 3), (0, 1), (4,), (5,), (6,), (7,)), name="toy8p")
        permuted_model = self.no_pe_model(partition=permuted_partition)
        for (_, a), (_, b) in zip(model.parameters(), permuted_model.parameters()):
            b.data = a.data.copy()
        a = forward([frames], model).data
        b = forward([frames], permuted_model).data
        assert np.max(np.abs(a - b)) < 1e-5

    def test_frame_permutation_without_pe(self):
        model = self.no_pe_model()
        frames = RS.uniform(-1, 1, (3, 8, 3))
        perm = np.array([2, 0, 1])
        a = forward([frames], model).data
        b = forward([frames[perm]], model).data
        assert np.max(np.abs(a - b)) < 1e-5

    def test_stream_permutation_without_pe(self):
        # permuting the fusion inputs directly exercises the 7-stream level
        from han.model import _attend_site
        from han import autodiff as ad

        model = self.no_pe_model()

        def fuse(stream_feats):  # the fusion site alone, in eval mode
            return _attend_site(model, ("Fusion",), stream_feats, model.fusion_att, False, None, None).data

        streams = ad.constant(RS.uniform(-1, 1, (7, 6)), dtype=np.float64)
        base = fuse(ad.reshape(streams, (1, 7, 6)))
        perm = RS.permutation(7)
        moved = fuse(ad.constant(streams.data[perm][None]))
        assert np.max(np.abs(base - moved)) < 1e-5

    def test_frame_permutation_with_pe_changes_logits(self):
        config = tiny_config(frames=4)
        model = HANModel(config, seed=3, dtype=np.float64)
        frames = RS.uniform(-1, 1, (4, 6, 3))
        perm = np.array([3, 2, 1, 0])
        a = forward([frames], model).data
        b = forward([frames[perm]], model).data
        assert np.max(np.abs(a - b)) > 1e-6


class TestExtractAttention:
    def make(self):
        config = tiny_config(frames=3)
        return config, HANModel(config, seed=19, dtype=np.float64)

    def test_f_site_is_row_stochastic_6x6(self):
        config, model = self.make()
        maps = extract_attention(rand_frames(config), model, "F", frame=1)
        assert maps.head_avg.shape == (6, 6)
        assert np.allclose(maps.head_avg.sum(axis=1), 1.0, atol=1e-6)
        assert maps.per_head.shape == (2, 6, 6)

    def test_t_site_frame_sums(self):
        config, model = self.make()
        maps = extract_attention(rand_frames(config), model, "T", stream=6)
        assert maps.frame_sums.shape == (3,)
        assert maps.frame_sums.sum() == pytest.approx(3.0, abs=1e-5)

    def test_identical_frames_give_equal_frame_sums(self):
        # the symmetry needs the temporal position embedding off; with it on,
        # tokens of identical frames still differ by their frame index
        config = tiny_config(frames=3, pe_t=False)
        model = HANModel(config, seed=19, dtype=np.float64)
        one = RS.uniform(-1, 1, (1, 6, 3))
        frames = np.repeat(one, 3, axis=0)
        maps = extract_attention(frames, model, "T", stream=2)
        assert np.max(np.abs(maps.frame_sums - maps.frame_sums[0])) < 1e-5

    def test_j_and_fusion_sites(self):
        config, model = self.make()
        x = rand_frames(config)
        j_maps = extract_attention(x, model, "J", frame=0, part=3)
        assert j_maps.head_avg.shape == (1, 1)
        fusion = extract_attention(x, model, "Fusion")
        assert fusion.head_avg.shape == (7, 7)
        assert np.allclose(fusion.head_avg.sum(axis=1), 1.0, atol=1e-6)

    def test_selector_validation(self):
        config, model = self.make()
        x = rand_frames(config)
        with pytest.raises(UsageError):
            extract_attention(x, model, "Q")
        with pytest.raises(UsageError):
            extract_attention(x, model, "F")  # missing frame
        with pytest.raises(UsageError):
            extract_attention(x, model, "T", stream=9)

    @pytest.mark.parametrize("site, selectors, message", [
        ("J", {"frame": 0}, "site 'J' needs the part selector"),
        ("J", {"part": 6, "frame": 0}, r"part selector 6 out of range \[0, 6\)"),
        ("J", {"part": 0}, "site 'J' needs the frame selector"),
        ("F", {"frame": 3}, r"frame selector 3 out of range \[0, 3\)"),
        ("T", {}, "site 'T' needs the stream selector"),
        ("T", {"stream": 7}, r"stream selector 7 out of range \[0, 7\)"),
        ("Fusion", {"frame": 99, "part": -5, "stream": 123}, "site 'Fusion' takes no frame selector"),
        ("T", {"stream": 2, "frame": 500}, "site 'T' takes no frame selector"),
        ("F", {"frame": 0, "stream": 1}, "site 'F' takes no stream selector"),
        ("J", {"frame": 0, "part": 0, "stream": 6}, "site 'J' takes no stream selector"),
    ])
    def test_bad_selector_raises_before_the_forward(self, monkeypatch, site, selectors, message):
        config, model = self.make()
        monkeypatch.setattr("han.model.forward", lambda *args, **kw: pytest.fail("the forward ran first"))
        with pytest.raises(UsageError, match=message):
            extract_attention(rand_frames(config), model, site, **selectors)

    @pytest.mark.parametrize("selectors, message", [
        ({"frame": 1.5}, "frame selector must be an integer, got 1.5"),
        ({"frame": True}, "frame selector must be an integer, got True"),
        ({"frame": 0, "part": 2.0}, "part selector must be an integer, got 2.0"),
    ])
    def test_non_integer_selector_raises_before_the_forward(self, monkeypatch, selectors, message):
        config, model = self.make()
        site = "J" if "part" in selectors else "F"
        monkeypatch.setattr("han.model.forward", lambda *args, **kw: pytest.fail("the forward ran first"))
        with pytest.raises(UsageError, match=message):
            extract_attention(rand_frames(config), model, site, **selectors)

    def test_numpy_integer_selector_accepted(self):
        config, model = self.make()
        x = rand_frames(config)
        assert np.array_equal(extract_attention(x, model, "F", frame=np.int64(1)).per_head,
                              extract_attention(x, model, "F", frame=1).per_head)


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        config = tiny_config(share_t_att=False)
        model = HANModel(config, seed=8)
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        for (name_a, a), (name_b, b) in zip(model.parameters(), loaded.parameters()):
            assert name_a == name_b
            assert a.data.dtype == b.data.dtype
            assert np.array_equal(a.data, b.data)
        assert loaded.config.to_dict() == config.to_dict()
        # saving the loaded model reproduces the bytes exactly
        path2 = str(tmp_path / "m2.ckpt")
        save_checkpoint(loaded, path2)
        assert pathlib.Path(path).read_bytes() == pathlib.Path(path2).read_bytes()

    def test_corrupt_header_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"HAN-CKPT v9\n" + b"\x00" * 32)
        with pytest.raises(CheckpointError, match="HAN-CKPT"):
            load_checkpoint(str(path))

    def test_truncated_file_rejected(self, tmp_path):
        config = tiny_config()
        model = HANModel(config, seed=8)
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(model, path)
        blob = pathlib.Path(path).read_bytes()
        path_t = str(tmp_path / "t.ckpt")
        pathlib.Path(path_t).write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path_t)

    def test_failed_save_keeps_the_previous_checkpoint(self, tmp_path, monkeypatch):
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(HANModel(tiny_config(), seed=8), path)
        before = pathlib.Path(path).read_bytes()

        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(HANModel(tiny_config(), seed=9), path)
        assert pathlib.Path(path).read_bytes() == before
        assert os.listdir(tmp_path) == ["m.ckpt"]

    def test_load_overwrites_every_placeholder_tensor(self, tmp_path):
        # load_checkpoint builds a seeded model and overwrites every tensor:
        # nothing of the placeholder weights may survive the load
        config = tiny_config(share_j_att=False)
        model = HANModel(config, seed=8)
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        placeholder = HANModel(config, seed=0)
        for (_, a), (_, b), (_, c) in zip(model.parameters(), loaded.parameters(), placeholder.parameters()):
            assert np.array_equal(a.data, b.data)
            if c.data.any():
                assert not np.array_equal(b.data, c.data)


# sha256 of an untrained seed-0 checkpoint: the SplitMix64 draws, the parameter table's order,
# the IEEE casts and the format with its config echo keep writing these exact bytes, on any
# host, as no BLAS call is involved. Update a digest only on purpose, and say so where the
# change is recorded.
UNTRAINED_DIGEST = "b1c166c6183485479026a2b3b644f078eaab25e176857b78b2c473a9798231bb"
UNTRAINED_DIGEST_FPHA21_UNSHARED_F64 = "afbe7d43e5f4e14bf977173112fe6c4b11246d39e5a8fdaeb23764305c63f76f"


@pytest.mark.parametrize("config, dtype, digest", [
    pytest.param(HANConfig(), np.float32, UNTRAINED_DIGEST, id="default-float32"),
    pytest.param(HANConfig(partition=FPHA21, share_j_att=False, share_t_att=False), np.float64,
                 UNTRAINED_DIGEST_FPHA21_UNSHARED_F64, id="fpha21-unshared-float64"),
])
def test_untrained_checkpoint_bytes_are_pinned(tmp_path, config, dtype, digest):
    path = tmp_path / "init.ckpt"
    save_checkpoint(HANModel(config, dtype=dtype, seed=0), str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


DROP = object()  # a `_with_config_echo` value that removes its key


def _with_config_echo(blob: bytes, **changes) -> bytes:
    """The checkpoint bytes with keys of the JSON config echo replaced, added or dropped."""
    magic = b"HAN-CKPT v1\n"
    (n,) = struct.unpack("<I", blob[len(magic):len(magic) + 4])
    start = len(magic) + 4
    config = {key: value for key, value in dict(json.loads(blob[start:start + n]), **changes).items()
              if value is not DROP}
    payload = json.dumps(config, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return magic + struct.pack("<I", len(payload)) + payload + blob[start + n:]


class TestCheckpointRejects:
    @pytest.fixture
    def blob(self, tmp_path):
        path = str(tmp_path / "good.ckpt")
        save_checkpoint(HANModel(tiny_config(), seed=8), path)
        return pathlib.Path(path).read_bytes()

    @pytest.mark.parametrize("dtype", ["bogus", "float16", "int64", 7])
    def test_dtype_outside_float32_float64(self, tmp_path, blob, dtype):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(_with_config_echo(blob, dtype=dtype))
        with pytest.raises(CheckpointError, match=r"bad\.ckpt.*dtype"):
            load_checkpoint(str(path))

    def test_float64_echo_accepted(self, tmp_path):
        path = str(tmp_path / "m64.ckpt")
        save_checkpoint(HANModel(tiny_config(), seed=8, dtype=np.float64), path)
        assert load_checkpoint(path).dtype is np.float64

    def test_trailing_bytes(self, tmp_path, blob):
        path = tmp_path / "long.ckpt"
        path.write_bytes(blob + b"\x00")
        with pytest.raises(CheckpointError, match=r"long\.ckpt.*1 trailing byte"):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("changes", [{"d_model": "wide"}, {"partition_parts": 5}, {"pe_j": "no"},
                                         {"share_t_att": None}])
    def test_mistyped_config_values(self, tmp_path, blob, changes):
        path = tmp_path / "typed.ckpt"
        path.write_bytes(_with_config_echo(blob, **changes))
        with pytest.raises(CheckpointError, match=r"typed\.ckpt"):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("changes", [{"d_model": 8.5}, {"n_heads": 2.0}, {"class_count": 4.0}])
    def test_fractional_counts(self, tmp_path, blob, changes):
        path = tmp_path / "typed.ckpt"
        path.write_bytes(_with_config_echo(blob, **changes))
        with pytest.raises(CheckpointError, match=r"typed\.ckpt: invalid checkpoint config"):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_weights(self, tmp_path, value):
        model = HANModel(tiny_config(), seed=8)
        model.cls_b.data[1] = value
        path = str(tmp_path / "nonfinite.ckpt")
        save_checkpoint(model, path)
        with pytest.raises(CheckpointError, match=r"nonfinite\.ckpt.*'cls\.b'.*non-finite"):
            load_checkpoint(path)

    @pytest.mark.parametrize("changes, message", [
        ({"bogus": 1}, r"unknown checkpoint config keys \['bogus'\]"),
        ({"heads": 4}, r"unknown checkpoint config keys \['heads'\]"),  # a former flag spelling: the echo spells fields
        ({"partition_name": DROP}, "invalid checkpoint config: 'partition_name'"),
    ], ids=["bogus", "heads-alias", "no-partition-name"])
    def test_echo_keys_are_exactly_the_saved_ones(self, tmp_path, blob, changes, message):
        path = tmp_path / "keys.ckpt"
        path.write_bytes(_with_config_echo(blob, **changes))
        with pytest.raises(CheckpointError, match=rf"^{re.escape(str(path))}: {message}$"):
            load_checkpoint(str(path))

    def test_numpy_integer_partition_round_trips(self, tmp_path):
        partition = HandPartition(parts=tuple((np.int64(j),) for j in range(6)), name="np6")
        path = str(tmp_path / "np.ckpt")
        save_checkpoint(HANModel(tiny_config(partition=partition), seed=8), path)
        assert load_checkpoint(path).config.partition == partition


class TestCheckpointRecords:
    """Each check on the tensor records names the file."""

    @staticmethod
    def split(blob: bytes):
        """(bytes before the tensor count, [(name, dims, payload), ...]) of a checkpoint."""
        magic = b"HAN-CKPT v1\n"
        (n,) = struct.unpack("<I", blob[len(magic):len(magic) + 4])
        pos = len(magic) + 4 + n
        head = blob[:pos]
        (count,) = struct.unpack("<I", blob[pos:pos + 4])
        pos += 4
        records = []
        for _ in range(count):
            (name_len,) = struct.unpack("<H", blob[pos:pos + 2])
            name = blob[pos + 2:pos + 2 + name_len].decode()
            pos += 2 + name_len
            ndim = blob[pos]
            dims = struct.unpack(f"<{ndim}I", blob[pos + 1:pos + 1 + 4 * ndim])
            pos += 1 + 4 * ndim
            (nbytes,) = struct.unpack("<Q", blob[pos:pos + 8])
            records.append((name, dims, blob[pos + 8:pos + 8 + nbytes]))
            pos += 8 + nbytes
        assert pos == len(blob)
        return head, records

    @staticmethod
    def join(head: bytes, records, count=None, nbytes=None) -> bytes:
        out = head + struct.pack("<I", len(records) if count is None else count)
        for name, dims, payload in records:
            out += struct.pack("<H", len(name)) + name.encode() + struct.pack("<B", len(dims))
            out += struct.pack(f"<{len(dims)}I", *dims)
            out += struct.pack("<Q", len(payload) if nbytes is None else nbytes) + payload
        return out

    @pytest.fixture
    def parts(self, tmp_path):
        path = str(tmp_path / "good.ckpt")
        save_checkpoint(HANModel(tiny_config(), seed=8), path)
        return self.split(pathlib.Path(path).read_bytes())

    def load(self, tmp_path, blob):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(blob)
        return load_checkpoint(str(path))

    def test_the_split_reassembles_the_file(self, tmp_path, parts):
        assert self.load(tmp_path, self.join(*parts)).param_count() == HANModel(tiny_config()).param_count()

    def test_unreadable_file(self, tmp_path):
        path = tmp_path / "missing.ckpt"
        with pytest.raises(CheckpointError, match=r"cannot read checkpoint .*missing\.ckpt"):
            load_checkpoint(str(path))

    def test_tensor_count(self, tmp_path, parts):
        head, records = parts
        with pytest.raises(CheckpointError, match=rf"bad\.ckpt: checkpoint has {len(records) + 1} tensors, "
                                                  rf"config implies {len(records)}"):
            self.load(tmp_path, self.join(head, records, count=len(records) + 1))

    def test_repeated_tensor(self, tmp_path, parts):
        head, records = parts
        with pytest.raises(CheckpointError, match=r"bad\.ckpt: tensor 'joint\.w' appears twice"):
            self.load(tmp_path, self.join(head, [records[0], records[0]] + records[2:]))

    def test_tensor_shape(self, tmp_path, parts):
        head, (first, *rest) = parts
        name, (d, three), payload = first
        with pytest.raises(CheckpointError, match=r"bad\.ckpt: tensor 'joint\.w' has shape \(3, 8\), "
                                                  r"config implies \(8, 3\)"):
            self.load(tmp_path, self.join(head, [(name, (three, d), payload)] + rest))

    def test_unexpected_tensor(self, tmp_path, parts):
        head, (first, *rest) = parts
        _, dims, payload = first
        with pytest.raises(CheckpointError, match=r"bad\.ckpt: unexpected tensor 'joint\.x' for this config"):
            self.load(tmp_path, self.join(head, [("joint.x", dims, payload)] + rest))

    def test_payload_length(self, tmp_path, parts):
        head, records = parts
        name, dims, payload = records[0]
        with pytest.raises(CheckpointError, match=r"bad\.ckpt: tensor 'joint\.w' payload is 92 bytes, expected 96"):
            self.load(tmp_path, self.join(head, [(name, dims, payload[:-4])] + records[1:]))


class TestIntegerEcho:
    """A count or joint index in the config echo that is not an integer, or a
    partition name that is not a str, is an invalid config, found before any
    tensor is read."""

    @pytest.fixture
    def blob(self, tmp_path):
        path = str(tmp_path / "good.ckpt")
        save_checkpoint(HANModel(tiny_config(), seed=8), path)
        return pathlib.Path(path).read_bytes()

    @pytest.mark.parametrize("changes, message", [
        ({"frames": 2.5}, "frames must be an integer, got 2.5"),
        ({"frames": 2.0}, "frames must be an integer, got 2.0"),
        ({"n_heads": True}, "n_heads must be an integer, got True"),
        ({"partition_parts": [[0], [1], [2.0], [3], [4], [5]]}, "joint index 2.0 in partition is not an integer"),
        ({"partition_name": 5}, "name must be of type str, got 5"),
    ])
    def test_rejected_naming_the_field(self, tmp_path, blob, changes, message):
        path = tmp_path / "typed.ckpt"
        path.write_bytes(_with_config_echo(blob, **changes))
        with pytest.raises(CheckpointError, match=rf"typed\.ckpt: invalid checkpoint config: {message}"):
            load_checkpoint(str(path))


class TestModelDtype:
    def test_float16_rejected_at_construction(self):
        with pytest.raises(UsageError, match="a tensor holds float32 or float64 values, got float16"):
            HANModel(HANConfig(), dtype=np.float16)


class TestBlockShapes:
    """`attend_batch` trusts its block's shapes; `_build`, the one path that
    makes a model for init and load, checks them once."""

    @pytest.mark.parametrize("shared, wrong", [(True, "j_att.wq"), (False, "t_att.3.ba")])
    def test_block_parameter_of_the_wrong_shape_rejected(self, shared, wrong):
        config = tiny_config(share_j_att=shared, share_t_att=shared)

        def value(name, shape, bound):
            return np.zeros(shape + (1,) if name == wrong else shape)

        field = wrong.rsplit(".", 1)[1]
        with pytest.raises(ShapeError, match=rf"attention param {field} has shape \(.*\), expected"):
            HANModel.__new__(HANModel)._build(config, np.float64, value)


class TestTapeSize:
    """Every attention call is one tape record, the joint embedding and the
    position rows are part of each site's record, and the sites take
    batch-major rows, so a step's tape stays short."""

    @pytest.mark.parametrize("shared, most", [(True, 22), (False, 26)])
    def test_training_forward_and_loss_at_default_geometry(self, shared, most):
        model = HANModel(HANConfig(share_j_att=shared, share_t_att=shared), seed=2)
        frames = np.random.RandomState(48).uniform(-1, 1, (3, 8, 22, 3))
        with GradientTape() as tape:
            logits = forward(frames, model, training=True, rng=[Rng(1, f"dropout/0/{i}") for i in range(3)])
            cross_entropy(logits, [0, 5, 13])
        assert len(tape) <= most
        ops = [rec.op for rec in tape._records]
        assert not set(ops) & {"add", "take"}, ops
        assert ops[-3:] == ["attention", "linear", "cross_entropy"], ops   # Fusion takes T's output as it is
