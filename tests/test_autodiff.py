import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from han import autodiff as ad
from han.autodiff import GradientTape, Tensor, backward, record_op
from han.errors import ConfigError, HanError, ShapeError, UsageError
from han.model import HANModel, forward
from han.rng import Rng
from han.train import cross_entropy

import reference_ops as ref
from conftest import tiny_config
from oracles import central_difference, max_relative_error

RS = np.random.RandomState(1234)


def rand(shape):
    return RS.uniform(-1.0, 1.0, shape)


def check_grad(build_loss, leaves, rtol=1e-4):
    """Analytic gradient from a tape vs central differences, per leaf."""
    for leaf in leaves:
        leaf.grad = None
    with GradientTape() as tape:
        loss = build_loss()
    backward(loss, tape)
    analytic = [leaf.grad.copy() if leaf.grad is not None else np.zeros_like(leaf.data) for leaf in leaves]
    tape.reset()
    for leaf, got in zip(leaves, analytic):
        want = central_difference(lambda: build_loss().item(), leaf.data)
        assert max_relative_error(got, want) < rtol, f"gradient mismatch on shape {leaf.shape}"


class TestTensorDtype:
    @pytest.mark.parametrize("data, dtype, name", [
        (np.zeros(3, dtype=np.float16), None, "float16"),
        (np.zeros(3), np.float16, "float16"),
        ([1, 2], None, "int64"),
        (np.zeros(3, dtype=bool), None, "bool"),
    ])
    def test_other_dtypes_rejected(self, data, dtype, name):
        with pytest.raises(UsageError, match=f"a tensor holds float32 or float64 values, got {name}"):
            Tensor(data, dtype=dtype)


class TestMatmul:
    def test_identity(self):
        a = Tensor(np.eye(2))
        b = Tensor([[3.0, 4.0], [5.0, 6.0]])
        assert np.allclose(ref.matmul(a, b).data, [[3, 4], [5, 6]])

    def test_dot_product(self):
        out = ref.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        assert out.data.shape == (1, 1)
        assert out.data[0, 0] == pytest.approx(11.0)

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            ref.matmul(Tensor(rand((2, 3))), Tensor(rand((2, 3))))

    def test_grad_of_sum_matches_ones_times_bt(self):
        a = Tensor(rand((3, 4)), requires_grad=True, dtype=np.float64)
        b = Tensor(rand((4, 2)), requires_grad=True, dtype=np.float64)
        with GradientTape() as tape:
            loss = ref.tensor_sum(ref.matmul(a, b))
        backward(loss, tape)
        assert np.allclose(a.grad, np.ones((3, 2)) @ b.data.T)
        check_grad(lambda: ref.tensor_sum(ref.matmul(a, b)), [a, b])

    def test_batched_grad(self):
        a = Tensor(rand((2, 3, 4)), requires_grad=True, dtype=np.float64)
        b = Tensor(rand((2, 4, 3)), requires_grad=True, dtype=np.float64)
        r = ad.constant(rand((2, 3, 3)), dtype=np.float64)
        check_grad(lambda: ref.tensor_sum(ref.add(ref.matmul(a, b), r)), [a, b])


class TestSoftmax:
    def test_uniform_on_equal_logits(self):
        out = ref.softmax(Tensor([0.0, 0.0, 0.0, 0.0]), axis=0)
        assert np.allclose(out.data, 0.25)

    def test_two_element_analytic(self):
        for c in (-3.0, 0.0, 12.5):
            out = ref.softmax(Tensor([c, c + np.log(3.0)], dtype=np.float64), axis=0)
            assert np.allclose(out.data, [0.25, 0.75], atol=1e-12)

    def test_matches_bruteforce_float64(self):
        x = rand(5)
        out = ref.softmax(Tensor(x, dtype=np.float64), axis=0).data
        want = np.exp(x) / np.exp(x).sum()
        assert np.max(np.abs(out - want)) < 1e-12

    def test_stability_under_large_logits(self):
        out = ref.softmax(Tensor([1000.0, 1000.0], dtype=np.float64), axis=0)
        assert np.allclose(out.data, 0.5)

    @given(st.integers(2, 6), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_rows_sum_to_one_and_preserve_argmax(self, n, seed):
        x = np.random.RandomState(seed).uniform(-5, 5, (3, n))
        out = ref.softmax(Tensor(x, dtype=np.float64), axis=1).data
        assert np.all(out >= 0)
        assert np.allclose(out.sum(axis=1), 1.0, atol=1e-6)
        assert np.array_equal(out.argmax(axis=1), x.argmax(axis=1))

    def test_gradient(self):
        x = Tensor(rand((2, 5)), requires_grad=True, dtype=np.float64)
        r = ad.constant(rand((2, 5)), dtype=np.float64)
        check_grad(lambda: ref.tensor_sum(ref.matmul(ref.softmax(x, axis=1), ref.transpose(r, (1, 0)))), [x])


class TestLayerNorm:
    def test_constant_vector_goes_to_zero(self):
        out = ref.layer_norm(Tensor([5.0, 5.0, 5.0, 5.0]), axis=0)
        assert np.allclose(out.data, 0.0)

    def test_three_element_closed_form(self):
        out = ref.layer_norm(Tensor([1.0, 2.0, 3.0], dtype=np.float64), axis=0, eps=1e-12)
        assert np.allclose(out.data, [-1.22474487, 0.0, 1.22474487], atol=1e-6)

    def test_shift_invariance(self):
        x = rand(7)
        base = ref.layer_norm(Tensor(x, dtype=np.float64), axis=0).data
        shifted = ref.layer_norm(Tensor(x + 3.7, dtype=np.float64), axis=0).data
        assert np.max(np.abs(base - shifted)) < 1e-6

    def test_output_moments(self):
        x = rand((4, 9)) * 2.0
        out = ref.layer_norm(Tensor(x, dtype=np.float64), axis=1).data
        assert np.max(np.abs(out.mean(axis=1))) < 1e-6
        assert np.max(np.abs(out.var(axis=1) - 1.0)) < 1e-4

    def test_gradient(self):
        x = Tensor(rand((3, 6)), requires_grad=True, dtype=np.float64)
        r = ad.constant(rand((3, 6)), dtype=np.float64)
        check_grad(lambda: ref.tensor_sum(ref.matmul(ref.layer_norm(x, axis=1), ref.transpose(r, (1, 0)))), [x])


class TestElementwiseAndReductions:
    def test_relu_subgradient(self):
        x = Tensor([-1.0, 2.0], requires_grad=True, dtype=np.float64)
        with GradientTape() as tape:
            loss = ref.tensor_sum(ref.relu(x))
        backward(loss, tape)
        assert np.allclose(x.grad, [0.0, 1.0])

    def test_sum_grad_is_ones(self):
        x = Tensor(rand((3, 2)), requires_grad=True, dtype=np.float64)
        with GradientTape() as tape:
            loss = ref.tensor_sum(x)
        backward(loss, tape)
        assert np.array_equal(x.grad, np.ones((3, 2)))

    def test_mean_axis0(self):
        out = ref.mean(Tensor([[1.0, 3.0], [5.0, 7.0]]), axis=0)
        assert np.allclose(out.data, [3.0, 5.0])

    def test_add_requires_equal_shapes(self):
        with pytest.raises(ShapeError):
            ref.add(Tensor(rand((2, 3))), Tensor(rand((3, 2))))

    @pytest.mark.parametrize("make, error, message", [
        (lambda: ad.linear(Tensor(rand((2, 3))), Tensor(rand(3))), ShapeError, "linear weight must be 2-d"),
        (lambda: ad.linear(Tensor(rand((2, 3))), Tensor(rand((4, 2)))), ShapeError, "linear: input width"),
        (lambda: ad.linear(Tensor(rand((2, 3))), Tensor(rand((4, 3))), Tensor(rand(3))), ShapeError, "linear: bias"),
        (lambda: ad.linear(Tensor(rand((2, 3)), dtype=np.float32), Tensor(rand((4, 3)), dtype=np.float64)),
         UsageError, r"linear: mixed dtypes \['float32', 'float64'\]"),
        (lambda: ad.stack([]), UsageError, "stack needs at least one tensor"),
        (lambda: ad.stack([Tensor(rand(2)), Tensor(rand(3))]), ShapeError, "stack needs equal shapes"),
        (lambda: ad.stack([Tensor(rand(2), dtype=np.float32), Tensor(rand(2), dtype=np.float64)]),
         UsageError, "stack: mixed dtypes"),
        (lambda: Tensor(rand(2)).item(), UsageError, r"item\(\) needs a single-element tensor, shape is \(2,\)"),
        (lambda: ad.concatenate([]), UsageError, "concatenate needs at least one tensor"),
        (lambda: ad.concatenate([Tensor(rand((2, 3))), Tensor(rand((2, 4)))]), ShapeError,
         r"concatenate of \[\(2, 3\), \(2, 4\)\]: .*must match exactly"),
        (lambda: ad.concatenate([Tensor(rand((2, 3))), Tensor(rand(3))], axis=1), ShapeError,
         r"concatenate of \[\(2, 3\), \(3,\)\]: .*same number of dimensions"),
        (lambda: ad.concatenate([Tensor(rand(2))], axis=1), ShapeError,
         r"concatenate of \[\(2,\)\]: axis 1 is out of bounds"),
        (lambda: ad.concatenate([Tensor(rand(2), dtype=np.float32), Tensor(rand(2), dtype=np.float64)]),
         UsageError, "concatenate: mixed dtypes"),
        (lambda: ad.transpose(Tensor(rand((2, 3))), (0, 0)), ShapeError,
         r"transpose of \(2, 3\) by \(0, 0\) to None: repeated axis"),
        (lambda: ad.transpose(Tensor(rand((2, 3))), (1, 0), (4,)), ShapeError,
         r"transpose of \(2, 3\) by \(1, 0\) to \(4,\): cannot reshape"),
        (lambda: ad.select(Tensor(rand((2, 3))), 3, axis=1), ShapeError,
         r"select of 3 on axis 1 of \(2, 3\): index 3 is out of bounds"),
        (lambda: ad.select(Tensor(rand((2, 3))), 0, axis=2), ShapeError,
         r"select of 0 on axis 2 of \(2, 3\): axis 2 is out of bounds"),
    ], ids=["linear-1d-weight", "linear-width", "linear-bias", "linear-dtypes", "stack-none", "stack-shapes",
            "stack-dtypes", "item-of-two", "concatenate-none", "concatenate-shapes", "concatenate-ranks",
            "concatenate-axis", "concatenate-dtypes", "transpose-axes", "transpose-shape", "select-index",
            "select-axis"])
    def test_bad_operands_rejected(self, make, error, message):
        with pytest.raises(error, match=message):
            make()

    @pytest.mark.parametrize("op", ["add", "mean", "take", "stack", "transpose", "linear", "scale", "concatenate",
                                    "transpose-to-shape", "select"])
    def test_gradients(self, op):
        if op == "add":
            a = Tensor(rand((3, 4)), requires_grad=True, dtype=np.float64)
            b = Tensor(rand((3, 4)), requires_grad=True, dtype=np.float64)
            check_grad(lambda: ref.tensor_sum(ref.add(a, b)), [a, b])
        elif op == "mean":
            x = Tensor(rand((4, 3)), requires_grad=True, dtype=np.float64)
            r = ad.constant(rand((1, 3)), dtype=np.float64)
            check_grad(lambda: ref.tensor_sum(ref.matmul(ad.reshape(ref.mean(x, axis=0), (3, 1)), r)), [x])
        elif op == "take":
            x = Tensor(rand((5, 3)), requires_grad=True, dtype=np.float64)
            # duplicate index exercises gradient accumulation
            check_grad(lambda: ref.tensor_sum(ref.take(x, [0, 2, 2], axis=0)), [x])
        elif op == "stack":
            a = Tensor(rand(4), requires_grad=True, dtype=np.float64)
            b = Tensor(rand(4), requires_grad=True, dtype=np.float64)
            check_grad(lambda: ref.tensor_sum(ad.stack([a, b], axis=1)), [a, b])
        elif op == "transpose":
            x = Tensor(rand((2, 3, 4)), requires_grad=True, dtype=np.float64)
            r = ad.constant(rand((4, 3, 2)), dtype=np.float64)
            check_grad(
                lambda: ref.tensor_sum(ref.matmul(ref.transpose(x, (2, 1, 0)), ref.transpose(r, (0, 2, 1)))), [x]
            )
        elif op == "linear":
            x = Tensor(rand((2, 3, 4)), requires_grad=True, dtype=np.float64)
            w = Tensor(rand((5, 4)), requires_grad=True, dtype=np.float64)
            b = Tensor(rand(5), requires_grad=True, dtype=np.float64)
            check_grad(lambda: ref.tensor_sum(ad.linear(x, w, b)), [x, w, b])
        elif op == "scale":
            x = Tensor(rand((3,)), requires_grad=True, dtype=np.float64)
            check_grad(lambda: ref.tensor_sum(ref.scale(x, -2.5)), [x])
        elif op == "concatenate":
            a = Tensor(rand((2, 1, 3)), requires_grad=True, dtype=np.float64)
            b = Tensor(rand((2, 4, 3)), requires_grad=True, dtype=np.float64)
            c = ad.constant(rand((1, 6)), dtype=np.float64)
            joined = lambda: ad.transpose(ad.concatenate([a, b, a], axis=1), (0, 2, 1))   # (2, 3, 6)
            check_grad(lambda: ref.tensor_sum(ad.linear(ref.softmax(joined()), c)), [a, b])
        elif op == "transpose-to-shape":
            x = Tensor(rand((2, 3, 4)), requires_grad=True, dtype=np.float64)
            c = ad.constant(rand((1, 3)), dtype=np.float64)
            check_grad(lambda: ref.tensor_sum(ad.linear(ref.softmax(ad.transpose(x, (0, 2, 1), (8, 3))), c)), [x])
        elif op == "select":
            x = Tensor(rand((2, 3, 4)), requires_grad=True, dtype=np.float64)
            c = ad.constant(rand((1, 4)), dtype=np.float64)
            picked = lambda: ad.stack([ad.select(x, 1, axis=1), ad.select(x, -1, axis=1), ad.select(x, 1, axis=1)])
            check_grad(lambda: ref.tensor_sum(ad.linear(ref.softmax(picked()), c)), [x])


    @pytest.mark.parametrize("indices, axis", [
        ([3, 0, 4], 1),      # unique: one indexed add
        ([1, 3, 1, 1], 1),   # duplicates: np.add.at accumulates
        ([2, 0], -1),
        ([2, 2, 0], -1),
    ])
    def test_take_gradient_with_unique_and_duplicate_indices(self, indices, axis):
        x = Tensor(rand((4, 5, 3)), requires_grad=True, dtype=np.float64)
        width = len(indices) if axis == -1 else 3
        c = ad.constant(rand((1, width)), dtype=np.float64)
        check_grad(lambda: ref.tensor_sum(ad.linear(ref.softmax(ref.take(x, indices, axis=axis)), c)), [x])


class TestGradientOwnership:
    def test_backward_never_writes_into_an_array_a_closure_returns(self):
        x = ad.parameter(rand(3), dtype=np.float64)
        held = rand(3)
        before = held.copy()
        with GradientTape() as tape:
            # each record hands back the same captured array, and both reach x
            ys = [record_op("hold", (x,), Tensor(2.0 * x.data), lambda g: (held,)) for _ in range(2)]
            loss = ref.tensor_sum(ref.add(*ys))
        backward(loss, tape)
        assert np.array_equal(held, before)
        assert np.array_equal(x.grad, 2.0 * before)

    def test_add_and_linear_sharing_a_parameter(self):
        a = ad.parameter(rand((4, 3)), dtype=np.float64)
        b = ad.parameter(rand((4, 3)), dtype=np.float64)
        w = ad.constant(rand((2, 3)), dtype=np.float64)
        c = ad.constant(rand((1, 2)), dtype=np.float64)

        def loss():
            # linear(a) is recorded first, so its gradient reaches a after add has given
            # a and b one shared array
            via_a = ad.linear(a, w)
            joined = ad.linear(ref.add(a, b), w)
            return ref.tensor_sum(ad.linear(ref.softmax(ref.add(via_a, joined)), c))

        check_grad(loss, [a, b], rtol=1e-7)

    def test_only_parameters_keep_gradients(self):
        model = HANModel(tiny_config(dropout=0.1), seed=3, dtype=np.float64)
        frames = RS.uniform(-1, 1, (3, model.config.frames, model.config.joint_count, 3))
        with GradientTape() as tape:
            logits = forward(frames, model, training=True, rng=[Rng(5, f"d{i}") for i in range(3)])
            loss = cross_entropy(logits, [0, 1, 3])
        backward(loss, tape)
        assert all(rec.output.grad is None for rec in tape._records)
        assert all(p.grad is not None and p.grad.shape == p.shape for _, p in model.parameters())


class TestDropout:
    def test_eval_mode_is_identity(self):
        x = Tensor(rand((4, 4)))
        assert ref.dropout(x, 0.1, training=False) is x

    def test_rate_zero_is_identity(self):
        x = Tensor(rand(6))
        assert ref.dropout(x, 0.0, training=True, rng=Rng(1)) is x

    def test_rate_validation(self):
        with pytest.raises(ConfigError):
            ref.dropout(Tensor(rand(3)), 1.0, training=True, rng=Rng(1))

    def test_expected_value_matches_input(self):
        # inverted dropout keeps E[out] = x; Monte-Carlo over 1e5 trials per column
        rate = 0.1
        trials = 100_000
        x = Tensor(np.full((trials, 8), 2.0))
        out = ref.dropout(x, rate, training=True, rng=Rng(99, "dropout-mc")).data
        mean = out.mean(axis=0)
        sigma = 2.0 * np.sqrt(rate / (1.0 - rate) / trials)
        assert np.all(np.abs(mean - 2.0) < 3.0 * sigma)

    def test_deterministic_given_stream(self):
        x = Tensor(rand((3, 5)))
        a = ref.dropout(x, 0.3, training=True, rng=Rng(5, "d")).data
        b = ref.dropout(x, 0.3, training=True, rng=Rng(5, "d")).data
        assert np.array_equal(a, b)

    def test_gradient_with_fixed_mask(self):
        x = Tensor(rand((4, 4)), requires_grad=True, dtype=np.float64)
        check_grad(lambda: ref.tensor_sum(ref.dropout(x, 0.25, training=True, rng=Rng(3, "g"))), [x])


class TestTapeAndBackward:
    def test_backward_requires_scalar(self):
        x = Tensor(rand(3), requires_grad=True)
        with GradientTape() as tape:
            y = ref.relu(x)
        with pytest.raises(UsageError):
            backward(y, tape)

    def test_reset_clears_all_grads(self):
        x = Tensor(rand((2, 2)), requires_grad=True)
        with GradientTape() as tape:
            y = ref.relu(x)
            loss = ref.tensor_sum(y)
        backward(loss, tape)
        assert x.grad is not None
        tape.reset()
        assert x.grad is None and y.grad is None and loss.grad is None
        assert len(tape) == 0

    def test_grad_accumulates_across_reuse(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True, dtype=np.float64)
        with GradientTape() as tape:
            loss = ref.tensor_sum(ref.add(x, x))
        backward(loss, tape)
        assert np.allclose(x.grad, [2.0, 2.0])

    def test_record_off_the_loss_path_is_skipped(self):
        x = ad.parameter(rand(3), dtype=np.float64)
        calls = []
        with GradientTape() as tape:
            unused = record_op("unused", (x,), Tensor(x.data), lambda g: calls.append(g) or (g,))
            loss = ref.tensor_sum(ref.scale(x, 2.0))
        backward(loss, tape)
        assert calls == [] and unused.grad is None
        assert np.array_equal(x.grad, np.full(3, 2.0))

    def test_wrong_shape_gradient_is_an_internal_error(self):
        x = ad.parameter(rand(3), dtype=np.float64)
        with GradientTape() as tape:
            loss = ref.tensor_sum(record_op("broken", (x,), Tensor(2.0 * x.data), lambda g: (g[:2],)))
        with pytest.raises(HanError, match=r"broken backward produced gradient \(2,\) for input \(3,\)") as info:
            backward(loss, tape)
        assert not isinstance(info.value, UsageError)  # the CLI exits 4 on it, not 2

    def test_no_tape_means_no_recording(self):
        x = Tensor(rand(3), requires_grad=True)
        tape = GradientTape()
        _ = ref.relu(x)  # outside the context
        assert len(tape) == 0

    def test_independent_tapes_on_parallel_threads(self):
        import threading

        results = {}

        def work(key, scale_factor):
            x = Tensor(rand((20, 20)), requires_grad=True, dtype=np.float64)
            for _ in range(50):
                with GradientTape() as tape:
                    loss = ref.tensor_sum(ref.scale(ref.relu(x), scale_factor))
                backward(loss, tape)
                got = x.grad.copy()
                tape.reset()
            results[key] = np.allclose(got, scale_factor * (x.data > 0))

        threads = [threading.Thread(target=work, args=(i, float(i + 2))) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(results.values()) and len(results) == 4

    def test_ops_are_pure(self):
        x = Tensor(rand((3, 3)))
        w = Tensor(rand((3, 3)))
        first = ref.matmul(x, w).data
        second = ref.matmul(x, w).data
        assert np.array_equal(first, second)

    def test_forward_outputs_finite(self):
        x = Tensor(rand((4, 4)))
        for out in (ref.relu(x), ref.softmax(x, axis=1), ref.layer_norm(x, axis=1), ref.mean(x, axis=0)):
            assert np.all(np.isfinite(out.data))
