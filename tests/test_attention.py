import math

import numpy as np
import pytest

from han import autodiff as ad
from han.attention import (
    AttentionConfig,
    AttentionParams,
    attend_batch,
    param_table,
    positional_embedding,
)
from han.autodiff import GradientTape, backward
from han.errors import ConfigError, ShapeError, UsageError
from han.rng import Rng

from oracles import (central_difference, max_relative_error, scalar_attention_matrix,
                     scalar_attention_reference)
from reference_ops import add, attend_batch_reference

RS = np.random.RandomState(77)


def small_config(**kw):
    defaults = dict(d_model=6, n_heads=2, d_head=3, dropout_rate=0.0)
    defaults.update(kw)
    return AttentionConfig(**defaults)


def make_params(config, seed=0, dtype=np.float64):
    """One block drawn from a seeded stream by the init bounds of `param_table`."""
    rng = Rng(seed, "params")
    return AttentionParams(**{
        name: ad.parameter(rng.uniform(shape, -bound, bound) if bound else np.zeros(shape), dtype=dtype)
        for name, shape, bound in param_table(config)
    })


def block_tensors(params, config):
    """The block's five parameter tensors, in `param_table` order."""
    return [getattr(params, name) for name, _, _ in param_table(config)]


def attend_one(inputs, params, config, **kw):
    """The block on one token group (N, d): `attend_batch` on a (1, N, d) batch, output (d,)."""
    return attend_batch(ad.constant(np.asarray(inputs)[None]), params, config, **kw).data[0]


def weights_one(inputs, params, config):
    """Eval-mode weights of one token group via `weights_out`: (per-head (H, N, N), head average)."""
    captured = []
    attend_one(inputs, params, config, weights_out=captured)
    per_head = captured[0][0]
    return per_head, per_head.mean(axis=0)


class TestPositionalEmbedding:
    def test_position_zero_alternates_zero_one(self):
        for d in (2, 4, 7, 128):
            row = positional_embedding(0, d)
            want = [0.0 if c % 2 == 0 else 1.0 for c in range(d)]
            assert np.allclose(row, want)

    def test_position_one_channel_zero_is_sin_one(self):
        assert positional_embedding(1, 4)[0] == pytest.approx(math.sin(1.0), abs=1e-12)
        assert positional_embedding(1, 4)[0] == pytest.approx(0.84147, abs=1e-5)

    def test_formula_per_channel(self):
        d = 10
        for pos in (1, 3, 9):
            row = positional_embedding(pos, d)
            for c in range(d):
                angle = pos / (10000.0 ** (2 * (c // 2) / d))
                want = math.sin(angle) if c % 2 == 0 else math.cos(angle)
                assert row[c] == pytest.approx(want, abs=1e-12)

    def test_rows_bounded(self):
        rows = np.stack([positional_embedding(i, 16) for i in range(8)])
        assert np.all(rows >= -1.0) and np.all(rows <= 1.0)

    def test_negative_position_rejected(self):
        with pytest.raises(UsageError):
            positional_embedding(-1, 4)


class TestConfigAndParams:
    def test_bad_config_rejected(self):
        with pytest.raises(ConfigError):
            AttentionConfig(d_model=0)
        with pytest.raises(ConfigError):
            AttentionConfig(dropout_rate=1.0)

    def test_default_block_parameter_count(self):
        config = AttentionConfig()
        assert config.param_count() == 131_200
        params = make_params(config)
        total = sum(t.size for t in block_tensors(params, config))
        assert total == 131_200

    def test_init_bounds_follow_fan_in(self):
        config = small_config()
        params = make_params(config, seed=3)
        assert np.all(np.abs(params.wk.data) <= 1 / math.sqrt(config.d_model))
        assert np.all(np.abs(params.wa.data) <= 1 / math.sqrt(config.heads_width))
        assert np.all(params.ba.data == 0)


class TestAttend:
    def test_single_token_weights_and_output(self):
        config = small_config()
        params = make_params(config)
        x = RS.uniform(-1, 1, (1, config.d_model))
        per_head, avg = weights_one(x, params, config)
        assert per_head.shape == (2, 1, 1)
        assert np.allclose(per_head, 1.0)
        assert np.allclose(avg, [[1.0]])
        # output equals the token plus its feed-forward branch
        out = attend_one(x, params, config)
        ref = scalar_attention_reference(
            x.tolist(), params.wk.data.tolist(), params.wq.data.tolist(), params.wv.data.tolist(),
            params.wa.data.tolist(), params.ba.data.tolist(), config.n_heads, config.d_head,
        )
        assert np.allclose(out, ref, atol=1e-12)

    def test_identical_inputs_give_uniform_weights(self):
        config = small_config()
        params = make_params(config, seed=5)
        n = 5
        x = np.tile(RS.uniform(-1, 1, (1, config.d_model)), (n, 1))
        per_head, avg = weights_one(x, params, config)
        assert np.max(np.abs(per_head - 1.0 / n)) < 1e-6

    def test_matches_scalar_oracle_hand_set_params(self):
        # d_model=2, one head of width 2, two tokens, hand-set weights
        config = AttentionConfig(d_model=2, n_heads=1, d_head=2, dropout_rate=0.0)
        params = AttentionParams(
            wk=ad.parameter([[0.3, -0.2], [0.1, 0.4]], dtype=np.float64),
            wq=ad.parameter([[-0.5, 0.7], [0.2, 0.1]], dtype=np.float64),
            wv=ad.parameter([[0.9, 0.3], [-0.4, 0.6]], dtype=np.float64),
            wa=ad.parameter([[0.2, -0.3], [0.5, 0.8]], dtype=np.float64),
            ba=ad.parameter([0.05, -0.1], dtype=np.float64),
        )
        inputs = [[0.6, -0.2], [-0.3, 0.9]]
        got = attend_one(np.asarray(inputs), params, config)
        want = scalar_attention_reference(
            inputs, [[0.3, -0.2], [0.1, 0.4]], [[-0.5, 0.7], [0.2, 0.1]],
            [[0.9, 0.3], [-0.4, 0.6]], [[0.2, -0.3], [0.5, 0.8]], [0.05, -0.1], 1, 2,
        )
        assert np.max(np.abs(got - np.asarray(want))) < 1e-10

    def test_matches_scalar_oracle_random_params(self):
        config = small_config(n_heads=3, d_head=2)
        params = make_params(config, seed=11)
        x = RS.uniform(-1, 1, (4, config.d_model))
        got = attend_one(x, params, config)
        want = scalar_attention_reference(
            x.tolist(), params.wk.data.tolist(), params.wq.data.tolist(), params.wv.data.tolist(),
            params.wa.data.tolist(), params.ba.data.tolist(), config.n_heads, config.d_head,
        )
        assert np.max(np.abs(got - np.asarray(want))) < 1e-10

    def test_batch_rows_match_scalar_oracle(self):
        # three different token groups in one call; each row is its own group's block output
        config = small_config(n_heads=3, d_head=2)
        params = make_params(config, seed=12)
        x = np.random.RandomState(78).uniform(-1, 1, (3, 4, config.d_model))
        captured = []
        got = attend_batch(ad.constant(x), params, config, weights_out=captured).data
        assert got.shape == (3, config.d_model) and captured[0].shape == (3, 3, 4, 4)
        for b in range(3):
            want = scalar_attention_reference(
                x[b].tolist(), params.wk.data.tolist(), params.wq.data.tolist(), params.wv.data.tolist(),
                params.wa.data.tolist(), params.ba.data.tolist(), config.n_heads, config.d_head,
            )
            assert np.max(np.abs(got[b] - np.asarray(want))) < 1e-10
            want_w = scalar_attention_matrix(
                x[b].tolist(), params.wk.data.tolist(), params.wq.data.tolist(), config.n_heads, config.d_head
            )
            assert np.max(np.abs(captured[0][b] - np.asarray(want_w))) < 1e-10

    def test_width_mismatch_errors(self):
        config = small_config()
        params = make_params(config)
        with pytest.raises(ShapeError):
            attend_one(RS.uniform(-1, 1, (3, config.d_model + 1)), params, config)

    def test_two_dimensional_input_errors(self):
        config = small_config()
        with pytest.raises(ShapeError, match=r"attend_batch needs \(B, N, d_model\), got \(3, 6\)"):
            attend_batch(ad.constant(RS.uniform(-1, 1, (3, config.d_model))), make_params(config), config)

    def test_empty_input_errors(self):
        config = small_config()
        params = make_params(config)
        with pytest.raises(UsageError):
            attend_one(np.empty((0, config.d_model)), params, config)

    def test_eval_determinism(self):
        config = small_config(dropout_rate=0.2)
        params = make_params(config, seed=2)
        x = RS.uniform(-1, 1, (5, config.d_model))
        a = attend_one(x, params, config, training=False)
        b = attend_one(x, params, config, training=False)
        assert np.array_equal(a, b)

    def test_permutation_invariance_of_pooled_output(self):
        # no position information: attention plus pooling cannot see token order
        config = small_config()
        params = make_params(config, seed=9)
        x = RS.uniform(-1, 1, (6, config.d_model))
        perm = RS.permutation(6)
        base = attend_one(x, params, config)
        shuffled = attend_one(x[perm], params, config)
        assert np.max(np.abs(base - shuffled)) < 1e-5

    def test_position_embedding_breaks_permutation_invariance(self):
        config = small_config()
        params = make_params(config, seed=9)
        x = RS.uniform(-1, 1, (6, config.d_model))
        pe = np.stack([positional_embedding(p, config.d_model) for p in range(1, 7)])
        perm = np.roll(np.arange(6), 1)
        base = attend_one(x + pe, params, config)
        moved = attend_one(x[perm] + pe, params, config)
        assert np.max(np.abs(base - moved)) > 1e-4


class TestAttentionWeights:
    def test_rows_sum_to_one(self):
        config = small_config(n_heads=4, d_head=2)
        params = make_params(config, seed=21)
        x = RS.uniform(-1, 1, (7, config.d_model))
        per_head, avg = weights_one(x, params, config)
        assert np.allclose(per_head.sum(axis=-1), 1.0, atol=1e-6)
        assert np.allclose(avg.sum(axis=-1), 1.0, atol=1e-6)

    def test_head_average_is_mean_of_heads(self):
        config = small_config(n_heads=4, d_head=2)
        params = make_params(config, seed=22)
        x = RS.uniform(-1, 1, (5, config.d_model))
        per_head, avg = weights_one(x, params, config)
        assert np.max(np.abs(avg - per_head.mean(axis=0))) < 1e-7

    def test_matches_scalar_matrix_oracle(self):
        config = small_config(n_heads=2, d_head=3)
        params = make_params(config, seed=23)
        x = RS.uniform(-1, 1, (4, config.d_model))
        per_head, _ = weights_one(x, params, config)
        want = scalar_attention_matrix(
            x.tolist(), params.wk.data.tolist(), params.wq.data.tolist(), config.n_heads, config.d_head
        )
        assert np.max(np.abs(per_head - np.asarray(want))) < 1e-10

    def test_single_token_matrix(self):
        config = small_config()
        params = make_params(config)
        _, avg = weights_one(RS.uniform(-1, 1, (1, config.d_model)), params, config)
        assert np.allclose(avg, [[1.0]])


def block_loss(out, weights):
    """A scalar that weights every output element differently: (1, B*d) @ weights.T."""
    b, d = out.shape
    return ad.linear(ad.reshape(out, (1, b * d)), ad.constant(weights))


def run_block(block, x, params, config, weights, **kw):
    """Output and the gradients of x and the five parameters after one backward."""
    leaves = [x] + block_tensors(params, config)
    with GradientTape() as tape:
        out = block(x, params, config, **kw)
        backward(block_loss(out, weights), tape)
    result = [out.data.copy()] + [t.grad.copy() for t in leaves]
    tape.reset()
    return result


class TestFusedBlock:
    def test_one_tape_record_per_call(self):
        config = small_config()
        params = make_params(config)
        x = ad.parameter(np.random.RandomState(80).uniform(-1, 1, (3, 4, config.d_model)), dtype=np.float64)
        with GradientTape() as tape:
            attend_batch(x, params, config)
        assert len(tape) == 1

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("dropout", [0.0, 0.3])
    @pytest.mark.parametrize("geometry, streams, groups, counts", [
        # N=1 takes no row-max slice step, and numpy sums 8 or more values pairwise
        (dict(d_model=6, n_heads=3, d_head=2), 3, 1, (1, 2, 4, 5, 7, 8, 9)),
        # the model's head geometry at its token counts reaches the BLAS blocking of the
        # head products, and 9 streams of (8, N, 128) masks cross a dropout draw block
        (dict(d_model=128, n_heads=8, d_head=32), 9, 8, (2, 4, 6, 7, 8)),
    ], ids=["small", "default"])
    def test_matches_reference_composition_bit_for_bit(self, dtype, dropout, geometry, streams, groups, counts):
        config = AttentionConfig(dropout_rate=dropout, **geometry)
        params = make_params(config, seed=31, dtype=dtype)
        batch = streams * groups
        for n in counts:
            rs = np.random.RandomState(81)
            x = ad.parameter(rs.uniform(-1, 1, (batch, n, config.d_model)), dtype=dtype)
            weights = rs.uniform(-1, 1, (1, batch * config.d_model))

            def run(block):
                rngs = [Rng(4, f"dropout/0/{i}") for i in range(streams)]
                return run_block(block, x, params, config, weights.astype(dtype), training=True, rng=rngs)

            got, want = run(attend_batch), run(attend_batch_reference)
            assert len(got) == 7
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and np.array_equal(a, b), f"N={n}"

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("slot", [0, 3])
    def test_nan_stays_in_its_group(self, dtype, slot):
        config = small_config(n_heads=3, d_head=2)
        params = make_params(config, seed=32, dtype=dtype)
        clean = np.random.RandomState(82).uniform(-1, 1, (3, 4, config.d_model)).astype(dtype)
        dirty = clean.copy()
        dirty[1, slot, 2] = np.nan
        got, want = (attend_batch(ad.constant(x), params, config).data for x in (dirty, clean))
        assert np.isnan(got[1]).all()
        assert np.array_equal(got[[0, 2]], want[[0, 2]])


class TestPositionRows:
    """`pe=rows`: the block adds constant position rows to every group's tokens."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_adding_the_rows_first_bit_for_bit(self, dtype):
        config = small_config(n_heads=3, d_head=2, dropout_rate=0.3)
        params = make_params(config, seed=33, dtype=dtype)
        rs = np.random.RandomState(86)
        x = ad.parameter(rs.uniform(-1, 1, (4, 5, config.d_model)), dtype=dtype)
        rows = rs.uniform(-1, 1, (5, config.d_model)).astype(dtype)
        weights = rs.uniform(-1, 1, (1, 4 * config.d_model)).astype(dtype)

        def run(tokens, pe):
            captured = []
            streams = [Rng(8, f"dropout/0/{i}") for i in range(2)]
            result = run_block(attend_batch, tokens, params, config, weights, training=True, rng=streams,
                               weights_out=captured, pe=pe)
            return result + captured

        got = run(x, rows)
        want = run(ad.parameter(x.data + rows), None)
        assert len(got) == 8
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    @pytest.mark.parametrize("shape", [(4, 6), (5, 7), (1, 5, 6)])
    def test_rows_of_the_wrong_shape_rejected(self, shape):
        config = small_config()
        x = ad.constant(RS.uniform(-1, 1, (2, 5, config.d_model)))
        with pytest.raises(ShapeError, match=r"position rows \(.*\) do not match 5 tokens of d_model 6"):
            attend_batch(x, make_params(config), config, pe=np.zeros(shape))


GEOMETRIES = {"tiny": dict(d_model=6, n_heads=3, d_head=2), "model": dict(d_model=128, n_heads=8, d_head=32)}


class TestEmbed:
    """`embed=(w_e, b_e)`: the block embeds raw coordinates itself, position rows included, and runs its
    scores and values on the (3 + N)-wide rows [x, one-hot slot] rather than on d_model-wide tokens."""

    def make(self, dropout=0.3, n=5, geometry="tiny", dtype=np.float64, scale=1.0):
        config = AttentionConfig(dropout_rate=dropout, **GEOMETRIES[geometry])
        rs = np.random.RandomState(84)
        coords = ad.constant(rs.uniform(-scale, scale, (4, n, 3)), dtype=dtype)
        w_e = ad.parameter(rs.uniform(-1, 1, (config.d_model, 3)), dtype=dtype)
        b_e = ad.parameter(rs.uniform(-1, 1, config.d_model), dtype=dtype)
        pe = rs.uniform(-1, 1, (n, config.d_model)).astype(dtype)
        return config, make_params(config, seed=32, dtype=dtype), coords, w_e, b_e, pe

    def run(self, folded, config, params, coords, w_e, b_e, pe, training=True):
        """Records on the tape, then the output, the gradients of w_e, b_e and the five block tensors, and
        the captured weights."""
        b, n, _ = coords.shape
        weights = np.random.RandomState(85).uniform(-1, 1, (1, b * config.d_model)).astype(coords.dtype)
        streams = [Rng(6, f"dropout/0/{i}") for i in range(2)]
        captured = []
        with GradientTape() as tape:
            if folded:
                out = attend_batch(coords, params, config, training, streams, captured, pe, (w_e, b_e))
            else:  # embed, add the position rows, then the block on d_model-wide tokens
                tokens = ad.linear(coords, w_e, b_e)
                if pe is not None:
                    tokens = add(tokens, ad.constant(np.broadcast_to(pe, (b, n, config.d_model))))
                out = attend_batch(tokens, params, config, training, streams, captured)
            records = len(tape)
            backward(block_loss(out, weights), tape)
        result = [out.data.copy()] + [t.grad.copy() for t in [w_e, b_e] + block_tensors(params, config)]
        tape.reset()
        return records, result + captured

    @pytest.mark.parametrize("training", [False, True], ids=["eval", "dropout"])
    @pytest.mark.parametrize("with_pe", [True, False], ids=["pe", "no-pe"])
    @pytest.mark.parametrize("geometry", list(GEOMETRIES))
    @pytest.mark.parametrize("n", [1, 2, 4, 6])
    def test_matches_embedding_then_block(self, n, geometry, with_pe, training):
        config, params, coords, w_e, b_e, pe = self.make(n=n, geometry=geometry)
        pe = pe if with_pe else None
        records, got = self.run(True, config, params, coords, w_e, b_e, pe, training)
        _, want = self.run(False, config, params, coords, w_e, b_e, pe, training)
        assert records == 1
        assert len(got) == len(want) == 9  # output, 7 gradients, (4, H, N, N) weights
        assert got[-1].shape == (4, config.n_heads, n, n)
        for a, b in zip(got, want):
            assert a.shape == b.shape
            assert np.max(np.abs(a - b)) <= 1e-10 * np.max(np.abs(b))

    # about 3x the largest error measured for this setup when the block still projected the embedded tokens
    # to d_model-wide heads (6.8e-7 at scale 1, 2.1e-4 at scale 100); at scale 100 the softmax is nearly
    # saturated, and the K and Q gradients carry that error
    @pytest.mark.parametrize("scale, bound", [(1.0, 2e-6), (100.0, 6e-4)])
    def test_float32_stays_near_float64(self, scale, bound):
        """Real joint coordinates are not in [-1, 1]: at the model geometry, float32 output and gradients
        stay within `bound` (relative to each array's largest value) of the float64 run on the same values,
        at coordinate scale 1 and 100."""
        config, params, *tensors, pe = self.make(dropout=0.1, n=4, geometry="model", dtype=np.float32, scale=scale)
        wide = AttentionParams(**{name: ad.parameter(getattr(params, name).data, dtype=np.float64)
                                  for name, _, _ in param_table(config)})
        coords, w_e, b_e = (ad.Tensor(t.data, t.requires_grad, np.float64) for t in tensors)
        runs = [self.run(True, config, params, *tensors, pe)[1],
                self.run(True, config, wide, coords, w_e, b_e, pe.astype(np.float64))[1]]
        for a, b in zip(*runs):
            assert a.dtype == np.float32
            assert np.max(np.abs(a - b)) <= bound * np.max(np.abs(b))

    def test_coordinates_must_be_constant(self):
        config, params, coords, w_e, b_e, pe = self.make()
        with pytest.raises(UsageError, match="constant coordinates"):
            attend_batch(ad.parameter(coords.data), params, config, pe=pe, embed=(w_e, b_e))

    def test_embedding_shapes_checked(self):
        config, params, coords, w_e, b_e, pe = self.make()
        with pytest.raises(ShapeError, match="embedding"):
            attend_batch(coords, params, config, pe=pe, embed=(w_e, ad.parameter(b_e.data[:4])))
        with pytest.raises(ShapeError, match="embedding"):
            attend_batch(ad.constant(coords.data[..., :2]), params, config, pe=pe, embed=(w_e, b_e))
        with pytest.raises(ShapeError, match="position rows"):
            attend_batch(coords, params, config, pe=pe[:4], embed=(w_e, b_e))


class TestBlockDropout:
    def make(self, rate=0.3):
        config = small_config(dropout_rate=rate)
        x = ad.constant(np.random.RandomState(82).uniform(-1, 1, (4, 3, config.d_model)))
        return config, make_params(config, seed=6), x

    @pytest.mark.parametrize("training, rate", [(False, 0.3), (True, 0.0)])
    def test_no_draws_in_eval_mode_or_at_rate_zero(self, training, rate):
        config, params, x = self.make(rate)
        streams = [Rng(7, "a"), Rng(7, "b")]
        out = attend_batch(x, params, config, training=training, rng=streams).data
        assert np.array_equal(out, attend_batch(x, params, config).data)
        for used, name in zip(streams, "ab"):
            assert np.array_equal(used.uniform((5,)), Rng(7, name).uniform((5,)))

    @pytest.mark.parametrize("rng", [None, []])
    def test_training_without_rng_errors(self, rng):
        config, params, x = self.make()
        with pytest.raises(UsageError, match="needs an rng"):
            attend_batch(x, params, config, training=True, rng=rng)

    def test_streams_must_divide_the_batch(self):
        config, params, x = self.make()
        with pytest.raises(ShapeError, match=r"cannot split shape \(4, 3, 6\) over 3 streams"):
            attend_batch(x, params, config, training=True, rng=[Rng(1, str(i)) for i in range(3)])

    def test_equal_streams_give_equal_output(self):
        config, params, x = self.make()
        halves = ad.constant(np.concatenate([x.data[:2], x.data[:2]]))
        out = attend_batch(halves, params, config, training=True, rng=[Rng(5, "d"), Rng(5, "d")]).data
        again = attend_batch(halves, params, config, training=True, rng=[Rng(5, "d"), Rng(5, "d")]).data
        assert np.array_equal(out, again)
        assert np.array_equal(out[:2], out[2:])
        assert not np.array_equal(out, attend_batch(halves, params, config).data)

    def test_gradcheck_with_dropout_and_two_streams(self):
        config, params, x = self.make()
        x = ad.parameter(x.data, dtype=np.float64)
        weights = np.random.RandomState(83).uniform(-1, 1, (1, 4 * config.d_model))

        def loss():
            out = attend_batch(x, params, config, training=True, rng=[Rng(9, "s0"), Rng(9, "s1")])
            return block_loss(out, weights)

        analytic = run_block(attend_batch, x, params, config, weights,
                             training=True, rng=[Rng(9, "s0"), Rng(9, "s1")])[1:]
        leaves = [x] + block_tensors(params, config)
        for leaf, got in zip(leaves, analytic):
            want = central_difference(lambda: loss().item(), leaf.data)
            assert max_relative_error(got, want) < 1e-6, f"gradient mismatch on shape {leaf.shape}"
