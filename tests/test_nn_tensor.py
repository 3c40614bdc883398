"""Gradient checks and unit tests for the autograd engine."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import (
    Tensor,
    concat,
    dropout,
    inference_mode,
    log_softmax,
    masked_log_softmax,
    softmax,
    stack,
)

RNG = np.random.default_rng(7)


def numeric_gradient(fn, tensor: Tensor, *, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar ``fn()`` w.r.t. ``tensor``."""
    grad = np.zeros_like(tensor.data)
    flat = tensor.data.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        upper = fn().item()
        flat[i] = original - eps
        lower = fn().item()
        flat[i] = original
        grad_flat[i] = (upper - lower) / (2 * eps)
    return grad


def check_gradient(fn, tensor: Tensor, *, tol: float = 1e-6) -> None:
    tensor.zero_grad()
    out = fn()
    out.backward()
    numeric = numeric_gradient(fn, tensor)
    assert tensor.grad is not None
    np.testing.assert_allclose(tensor.grad, numeric, atol=tol, rtol=1e-4)


class TestElementwiseGradients:
    @pytest.mark.parametrize(
        "op",
        [
            lambda x: (x * 2.0 + 1.0).sum(),
            lambda x: (x * x).sum(),
            lambda x: (-x).sum(),
            lambda x: (x / 3.0).sum(),
            lambda x: x.tanh().sum(),
            lambda x: x.sigmoid().sum(),
            lambda x: x.relu().sum(),
            lambda x: x.exp().sum(),
            lambda x: x.pow(3).sum(),
            lambda x: x.mean(),
            lambda x: x.reshape(6).sum(),
            lambda x: x.T.sum(),
        ],
    )
    def test_gradcheck(self, op):
        x = Tensor(RNG.normal(size=(2, 3)), requires_grad=True)
        check_gradient(lambda: op(x), x)

    def test_log_gradient(self):
        x = Tensor(RNG.uniform(0.5, 2.0, size=(2, 3)), requires_grad=True)
        check_gradient(lambda: x.log().sum(), x)

    def test_broadcast_add(self):
        x = Tensor(RNG.normal(size=(3,)), requires_grad=True)
        y = Tensor(RNG.normal(size=(4, 3)))
        check_gradient(lambda: (y + x).sum(), x)

    def test_broadcast_mul(self):
        x = Tensor(RNG.normal(size=(1, 3)), requires_grad=True)
        y = Tensor(RNG.normal(size=(4, 3)))
        check_gradient(lambda: (y * x).sum(), x)

    def test_sub_and_rsub(self):
        x = Tensor(RNG.normal(size=(3,)), requires_grad=True)
        check_gradient(lambda: (5.0 - x).sum(), x)
        check_gradient(lambda: (x - 5.0).sum(), x)


class TestMatmulGradients:
    def test_2d_2d(self):
        a = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(RNG.normal(size=(4, 2)))
        check_gradient(lambda: (a @ b).sum(), a)

    def test_2d_2d_rhs(self):
        a = Tensor(RNG.normal(size=(3, 4)))
        b = Tensor(RNG.normal(size=(4, 2)), requires_grad=True)
        check_gradient(lambda: (a @ b).sum(), b)

    def test_1d_2d(self):
        a = Tensor(RNG.normal(size=4), requires_grad=True)
        b = Tensor(RNG.normal(size=(4, 2)))
        check_gradient(lambda: (a @ b).sum(), a)

    def test_2d_1d(self):
        a = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(RNG.normal(size=4))
        check_gradient(lambda: (a @ b).sum(), a)

    def test_1d_1d(self):
        a = Tensor(RNG.normal(size=4), requires_grad=True)
        b = Tensor(RNG.normal(size=4))
        check_gradient(lambda: a @ b, a)

    def test_batched_3d(self):
        a = Tensor(RNG.normal(size=(2, 3, 4)), requires_grad=True)
        b = Tensor(RNG.normal(size=(2, 4, 3)))
        check_gradient(lambda: (a @ b).sum(), a)


class TestIndexingGradients:
    def test_slice(self):
        x = Tensor(RNG.normal(size=(5, 3)), requires_grad=True)
        check_gradient(lambda: x[1:4].sum(), x)

    def test_integer_index(self):
        x = Tensor(RNG.normal(size=(5, 3)), requires_grad=True)
        check_gradient(lambda: x[2].sum(), x)

    def test_repeated_fancy_index_accumulates(self):
        x = Tensor(RNG.normal(size=(5, 3)), requires_grad=True)
        index = np.array([1, 1, 3])
        check_gradient(lambda: x[index].sum(), x)

    def test_column_slice(self):
        x = Tensor(RNG.normal(size=(4, 6)), requires_grad=True)
        check_gradient(lambda: x[:, 2:4].sum(), x)


class TestReductionsAndShape:
    def test_sum_axis(self):
        x = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
        check_gradient(lambda: (x.sum(axis=0) * Tensor(np.arange(4.0))).sum(), x)

    def test_sum_keepdims(self):
        x = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
        check_gradient(lambda: x.sum(axis=1, keepdims=True).sum(), x)

    def test_concat(self):
        a = Tensor(RNG.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(RNG.normal(size=(2, 3)))
        check_gradient(lambda: concat([a, b], axis=0).sum(), a)
        check_gradient(lambda: concat([b, a], axis=1).sum(), a)

    def test_stack(self):
        a = Tensor(RNG.normal(size=3), requires_grad=True)
        b = Tensor(RNG.normal(size=3))
        check_gradient(lambda: (stack([a, b], axis=0) * 2.0).sum(), a)


class TestSoftmaxFamily:
    def test_softmax_rows_sum_to_one(self):
        x = Tensor(RNG.normal(size=(4, 6)))
        out = softmax(x, axis=-1)
        np.testing.assert_allclose(out.data.sum(axis=-1), 1.0)

    def test_softmax_is_bit_identical_to_the_three_array_formula(self):
        x = RNG.normal(size=(3, 5, 7)) * 20
        exp = np.exp(x - x.max(axis=-1, keepdims=True))
        want = exp / exp.sum(axis=-1, keepdims=True)
        np.testing.assert_array_equal(softmax(Tensor(x), axis=-1).data, want)

    def test_softmax_gradient(self):
        x = Tensor(RNG.normal(size=6), requires_grad=True)
        weights = Tensor(RNG.normal(size=6))
        check_gradient(lambda: (softmax(x) * weights).sum(), x)

    def test_log_softmax_gradient(self):
        x = Tensor(RNG.normal(size=6), requires_grad=True)
        check_gradient(lambda: -log_softmax(x)[2], x)

    def test_log_softmax_stability(self):
        x = Tensor(np.array([1000.0, 1000.0, 0.0]))
        out = log_softmax(x)
        assert np.isfinite(out.data).all()

    def test_masked_log_softmax_blocks(self):
        x = Tensor(np.zeros(4))
        mask = np.array([True, False, True, False])
        out = masked_log_softmax(x, mask)
        probabilities = np.exp(out.data)
        assert probabilities[1] < 1e-10 and probabilities[3] < 1e-10
        np.testing.assert_allclose(probabilities[0], 0.5)

    def test_masked_log_softmax_gradient(self):
        x = Tensor(RNG.normal(size=5), requires_grad=True)
        mask = np.array([True, True, False, True, False])
        check_gradient(lambda: -masked_log_softmax(x, mask)[1], x)

    def test_cross_entropy_matches_manual(self):
        x = Tensor(RNG.normal(size=5), requires_grad=True)
        loss = -log_softmax(x)[2]
        manual = -np.log(np.exp(x.data[2]) / np.exp(x.data).sum())
        np.testing.assert_allclose(loss.item(), manual)


class TestDropout:
    def test_eval_is_identity(self):
        rng = np.random.default_rng(0)
        x = Tensor(RNG.normal(size=(5, 5)))
        out = dropout(x, 0.5, training=False, rng=rng)
        np.testing.assert_array_equal(out.data, x.data)

    def test_training_scales(self):
        rng = np.random.default_rng(0)
        x = Tensor(np.ones((2000,)))
        out = dropout(x, 0.5, training=True, rng=rng)
        # inverted dropout preserves the expectation
        assert abs(out.data.mean() - 1.0) < 0.1

    def test_gradient_through_mask(self):
        rng_state = np.random.default_rng(42)
        masks = []

        class FixedRng:
            def random(self, shape):
                mask = rng_state.random(shape)
                masks.append(mask)
                return mask

        x = Tensor(RNG.normal(size=10), requires_grad=True)
        out = dropout(x, 0.5, training=True, rng=FixedRng())
        out.sum().backward()
        expected = (masks[0] < 0.5) / 0.5
        np.testing.assert_allclose(x.grad, expected)


class TestBackwardMechanics:
    def test_grad_accumulates_across_uses(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = x * 3.0 + x * 4.0
        y.backward()
        np.testing.assert_allclose(x.grad, [7.0])

    def test_backward_on_non_scalar_requires_grad_arg(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(RuntimeError):
            (x * 2).backward()

    def test_backward_without_grad_flag_raises(self):
        x = Tensor(np.ones(3))
        with pytest.raises(RuntimeError):
            x.backward(np.ones(3))

    def test_deep_chain_no_recursion_error(self):
        x = Tensor(np.array([0.5]), requires_grad=True)
        y = x
        for _ in range(3000):
            y = y * 1.0001
        y.backward()
        assert x.grad is not None

    def test_detach_stops_gradient(self):
        x = Tensor(np.ones(2), requires_grad=True)
        y = (x * 2).detach()
        assert not y.requires_grad

    @given(st.integers(1, 5), st.integers(1, 5))
    @settings(max_examples=20, deadline=None)
    def test_unbroadcast_shapes(self, rows, cols):
        x = Tensor(RNG.normal(size=(1, cols)), requires_grad=True)
        y = Tensor(RNG.normal(size=(rows, cols)))
        (x + y).sum().backward()
        assert x.grad.shape == (1, cols)


class TestConstruction:
    def test_float64_array_is_taken_as_is(self):
        data = RNG.normal(size=(2, 3))
        assert Tensor(data).data is data

    @pytest.mark.parametrize(
        "data", [3, 2.5, [1, 2], np.arange(4), np.ones(3, dtype=np.float32)]
    )
    def test_everything_else_becomes_float64(self, data):
        tensor = Tensor(data)
        assert type(tensor.data) is np.ndarray and tensor.data.dtype == np.float64
        np.testing.assert_array_equal(tensor.data, np.asarray(data, dtype=np.float64))

    def test_no_grad_op_output_never_reads_its_parents(self):
        class Unreadable:
            @property
            def requires_grad(self):
                raise AssertionError("parents scanned under inference_mode")

        with inference_mode():
            out = Tensor(np.ones(2), parents=(Unreadable(),))
        assert not out.requires_grad and out._parents == ()
        with pytest.raises(AssertionError):
            Tensor(np.ones(2), parents=(Unreadable(),))
