"""Tests of the NN layers: shapes, functional behaviour and gradients."""

import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.nn.blocks import FireModule, ResidualBlock
from repro.nn.functional import col2im, conv_output_size, im2col, one_hot, softmax
from repro.nn.layers import Conv2D, Dense, Flatten, GlobalAvgPool2D, MaxPool2D, ReLU
from repro.nn.losses import softmax_cross_entropy


def numerical_gradient(function, array, epsilon=1e-6):
    """Central-difference gradient of a scalar function w.r.t. ``array``."""
    gradient = np.zeros_like(array)
    flat = array.reshape(-1)
    grad_flat = gradient.reshape(-1)
    for index in range(flat.size):
        original = flat[index]
        flat[index] = original + epsilon
        upper = function()
        flat[index] = original - epsilon
        lower = function()
        flat[index] = original
        grad_flat[index] = (upper - lower) / (2 * epsilon)
    return gradient


class TestFunctional:
    def test_conv_output_size(self):
        assert conv_output_size(16, 3, 1, 1) == 16
        assert conv_output_size(16, 3, 2, 1) == 8
        with pytest.raises(ValueError):
            conv_output_size(2, 5, 1, 0)

    def test_im2col_matches_direct_convolution(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 3, 6, 6))
        weight = rng.normal(size=(4, 3, 3, 3))
        columns, out_h, out_w = im2col(x, 3, 3, 1, 1)
        output = (columns @ weight.reshape(4, -1).T).reshape(2, out_h, out_w, 4).transpose(0, 3, 1, 2)
        # Direct (slow) convolution for reference.
        padded = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        reference = np.zeros_like(output)
        for n in range(2):
            for o in range(4):
                for i in range(6):
                    for j in range(6):
                        patch = padded[n, :, i : i + 3, j : j + 3]
                        reference[n, o, i, j] = float((patch * weight[o]).sum())
        assert np.allclose(output, reference, atol=1e-10)

    @given(
        batch=st.integers(1, 2),
        channels=st.integers(1, 3),
        height=st.integers(1, 7),
        width=st.integers(1, 7),
        kernel_h=st.integers(1, 4),
        kernel_w=st.integers(1, 4),
        stride=st.integers(1, 3),
        padding=st.integers(0, 2),
        pad_value=st.sampled_from([0.0, 3.0, 128.0]),
    )
    @settings(max_examples=80, deadline=None)
    def test_im2col_matches_per_position_loop(
        self, batch, channels, height, width, kernel_h, kernel_w, stride, padding, pad_value
    ):
        assume(height + 2 * padding >= kernel_h and width + 2 * padding >= kernel_w)
        x = np.random.default_rng(height * 7 + width).integers(0, 255, (batch, channels, height, width))
        x = x.astype(np.float64)
        columns, out_h, out_w = im2col(x, kernel_h, kernel_w, stride, padding, pad_value)
        padded = np.full(
            (batch, channels, height + 2 * padding, width + 2 * padding), pad_value
        )
        padded[:, :, padding : padding + height, padding : padding + width] = x
        windows = [
            padded[n, :, oh * stride : oh * stride + kernel_h, ow * stride : ow * stride + kernel_w]
            for n in range(batch)
            for oh in range(out_h)
            for ow in range(out_w)
        ]
        assert np.array_equal(columns, np.array([window.ravel() for window in windows]))
        # Channels-last columns: the same windows, in (kh, kw, C) order.
        columns, _, _ = im2col(
            x, kernel_h, kernel_w, stride, padding, pad_value, channels_last=True
        )
        expected = [window.transpose(1, 2, 0).ravel() for window in windows]
        assert np.array_equal(columns, np.array(expected))

    def test_col2im_is_adjoint_of_im2col(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(1, 2, 5, 5))
        columns, _, _ = im2col(x, 3, 3, 1, 1)
        cotangent = rng.normal(size=columns.shape)
        back = col2im(cotangent, x.shape, 3, 3, 1, 1)
        # <im2col(x), cotangent> == <x, col2im(cotangent)> for a linear operator.
        assert float((columns * cotangent).sum()) == pytest.approx(float((x * back).sum()), rel=1e-9)

    def test_softmax_rows_sum_to_one(self):
        probabilities = softmax(np.array([[1.0, 2.0, 3.0], [1000.0, 1000.0, 1000.0]]))
        assert np.allclose(probabilities.sum(axis=1), 1.0)

    def test_one_hot(self):
        encoded = one_hot(np.array([0, 2]), 3)
        assert encoded.tolist() == [[1, 0, 0], [0, 0, 1]]
        with pytest.raises(ValueError):
            one_hot(np.array([3]), 3)


class TestLayerShapes:
    def test_conv_shapes(self):
        layer = Conv2D(3, 8, kernel_size=3, rng=0)
        output = layer.forward(np.zeros((2, 3, 16, 16)))
        assert output.shape == (2, 8, 16, 16)
        assert layer.output_shape((3, 16, 16)) == (8, 16, 16)
        assert layer.macs_per_sample((3, 16, 16)) == 16 * 16 * 8 * 3 * 9

    def test_strided_conv_shapes(self):
        layer = Conv2D(3, 8, kernel_size=3, stride=2, rng=0)
        assert layer.forward(np.zeros((1, 3, 16, 16))).shape == (1, 8, 8, 8)

    def test_dense_shapes(self):
        layer = Dense(10, 4, rng=0)
        assert layer.forward(np.zeros((5, 10))).shape == (5, 4)
        assert layer.macs_per_sample() == 40

    def test_pool_and_flatten_shapes(self):
        x = np.arange(2 * 3 * 4 * 4, dtype=float).reshape(2, 3, 4, 4)
        assert MaxPool2D(2).forward(x).shape == (2, 3, 2, 2)
        assert GlobalAvgPool2D().forward(x).shape == (2, 3)
        assert Flatten().forward(x).shape == (2, 48)

    def test_maxpool_requires_divisible_input(self):
        with pytest.raises(ValueError):
            MaxPool2D(2).forward(np.zeros((1, 1, 5, 5)))

    def test_invalid_constructions(self):
        with pytest.raises(ValueError):
            Conv2D(0, 4)
        with pytest.raises(ValueError):
            Dense(4, 0)
        with pytest.raises(ValueError):
            MaxPool2D(0)

    def test_backward_before_forward_raises(self):
        with pytest.raises(RuntimeError):
            ReLU().backward(np.zeros((1, 1)))
        with pytest.raises(RuntimeError):
            Dense(3, 2, rng=0).backward(np.zeros((1, 2)))


class TestGradients:
    """Analytic gradients checked against central differences."""

    def _loss_through(self, layer, x, labels):
        logits = layer.forward(x, training=True)
        if logits.ndim > 2:
            logits = logits.reshape(logits.shape[0], -1)
        loss, grad = softmax_cross_entropy(logits, labels)
        return loss, grad

    @pytest.mark.parametrize(
        "layer_factory,input_shape",
        [
            (lambda: Dense(6, 3, rng=0), (4, 6)),
            (lambda: Conv2D(2, 3, kernel_size=3, rng=0), (2, 2, 4, 4)),
            (lambda: ResidualBlock(2, 4, stride=2, rng=0), (2, 2, 4, 4)),
            (lambda: FireModule(2, 2, 2, rng=0), (2, 2, 4, 4)),
        ],
    )
    def test_parameter_gradients(self, layer_factory, input_shape):
        rng = np.random.default_rng(0)
        layer = layer_factory()
        x = rng.normal(size=input_shape)
        flat_logit_size = int(np.prod(layer.forward(x).shape[1:]))
        labels = rng.integers(0, flat_logit_size, size=input_shape[0])

        loss, grad = self._loss_through(layer, x, labels)
        output_shape = layer.forward(x, training=True).shape
        layer.backward(grad.reshape(output_shape))
        analytic_grads = [parameter.grad.copy() for parameter in layer.all_parameters()[:2]]

        def scalar_loss():
            value, _ = self._loss_through(layer, x, labels)
            return value

        # Check weight + bias of the first sublayer against central differences.
        for parameter, analytic in zip(layer.all_parameters()[:2], analytic_grads):
            numeric = numerical_gradient(scalar_loss, parameter.value)
            denominator = np.abs(numeric).max() + 1e-8
            assert np.abs(analytic - numeric).max() / denominator < 1e-4

    def test_input_gradient_of_conv(self):
        rng = np.random.default_rng(1)
        layer = Conv2D(2, 2, kernel_size=3, rng=0)
        x = rng.normal(size=(1, 2, 4, 4))
        labels = np.array([3])

        logits = layer.forward(x, training=True).reshape(1, -1)
        _, grad = softmax_cross_entropy(logits, labels)
        grad_x = layer.backward(grad.reshape(layer.forward(x).shape))

        def scalar_loss():
            value, _ = softmax_cross_entropy(layer.forward(x).reshape(1, -1), labels)
            return value

        numeric = numerical_gradient(scalar_loss, x)
        assert np.abs(grad_x - numeric).max() / (np.abs(numeric).max() + 1e-8) < 1e-4

    def test_relu_gradient_masks_negative_inputs(self):
        layer = ReLU()
        x = np.array([[-1.0, 2.0, -3.0, 4.0]])
        layer.forward(x, training=True)
        grad = layer.backward(np.ones_like(x))
        assert grad.tolist() == [[0.0, 1.0, 0.0, 1.0]]

    def test_maxpool_routes_gradient_to_maximum(self):
        layer = MaxPool2D(2)
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        layer.forward(x, training=True)
        grad = layer.backward(np.array([[[[1.0]]]]))
        assert grad[0, 0, 1, 1] == 1.0 and grad.sum() == 1.0

    def test_global_avg_pool_gradient_is_uniform(self):
        layer = GlobalAvgPool2D()
        x = np.ones((1, 2, 2, 2))
        layer.forward(x, training=True)
        grad = layer.backward(np.array([[1.0, 2.0]]))
        assert np.allclose(grad[0, 0], 0.25)
        assert np.allclose(grad[0, 1], 0.5)


def _reshape_max_pool(x, pool):
    """Max pooling as a reshape and a max over the window axes."""
    batch, channels, height, width = x.shape
    return x.reshape(batch, channels, height // pool, pool, width // pool, pool).max(axis=(3, 5))


def _repeat_max_pool_backward(x, output, grad, pool):
    """Max pooling's gradient through upsampled outputs, gradients and counts."""
    upsampled_output = np.repeat(np.repeat(output, pool, axis=2), pool, axis=3)
    upsampled_grad = np.repeat(np.repeat(grad, pool, axis=2), pool, axis=3)
    mask = x == upsampled_output
    counts = mask.reshape(x.shape[0], x.shape[1], -1, pool, x.shape[3] // pool, pool).sum(axis=(3, 5))
    counts = np.repeat(np.repeat(counts, pool, axis=2), pool, axis=3)
    return np.where(mask, upsampled_grad / np.maximum(counts, 1), 0.0)


def _pooling_inputs(pool):
    """(name, x) pairs with ties, signed zeros and a NaN, in NCHW and NHWC memory."""
    rng = np.random.default_rng(pool)
    shape = (3, 5, 4 * pool, 2 * pool)
    # Coarse integer values tie often inside a window.
    ties = rng.integers(-2, 3, size=shape).astype(np.float64)
    signed_zeros = np.where(rng.random(shape) < 0.5, 0.0, -0.0)
    mixed = np.where(rng.random(shape) < 0.3, signed_zeros, ties)
    mixed[1, 2, 0, 0] = np.nan
    inputs = []
    for name, x in (("ties", ties), ("signed_zeros", signed_zeros), ("mixed", mixed)):
        inputs.append((name, x))
        # A convolution's output: an NCHW view of channels-last memory.
        channels_last = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
        inputs.append((f"{name}_nhwc", channels_last))
    return inputs


class TestMaxPoolMatchesReshapeOracle:
    @pytest.mark.parametrize("pool", [1, 2, 3])
    def test_forward_is_bitwise_the_reshape_max(self, pool):
        for name, x in _pooling_inputs(pool):
            expected = _reshape_max_pool(x, pool)
            got = MaxPool2D(pool).forward(x)
            assert got.tobytes() == expected.tobytes(), name
            assert got.strides == expected.strides, name

    def test_all_signed_zero_windows(self):
        patterns = np.array(list(itertools.product([0.0, -0.0], repeat=4))).reshape(1, 16, 2, 2)
        assert MaxPool2D(2).forward(patterns).tobytes() == _reshape_max_pool(patterns, 2).tobytes()

    @pytest.mark.parametrize("pool", [1, 2, 3])
    def test_backward_is_bitwise_the_repeat_formulation(self, pool):
        rng = np.random.default_rng(10 + pool)
        for name, x in _pooling_inputs(pool):
            layer = MaxPool2D(pool)
            output = layer.forward(x, training=True)
            grad = rng.normal(size=output.shape)
            expected = _repeat_max_pool_backward(x, output, grad, pool)
            got = layer.backward(grad)
            assert got.dtype == expected.dtype and got.strides == expected.strides, name
            assert got.tobytes() == expected.tobytes(), name


class TestLoss:
    def test_perfect_prediction_has_low_loss(self):
        logits = np.array([[10.0, -10.0], [-10.0, 10.0]])
        loss, _ = softmax_cross_entropy(logits, np.array([0, 1]))
        assert loss < 1e-3

    def test_gradient_shape_and_scale(self):
        logits = np.zeros((4, 3))
        loss, grad = softmax_cross_entropy(logits, np.array([0, 1, 2, 0]))
        assert grad.shape == (4, 3)
        assert loss == pytest.approx(np.log(3), rel=1e-6)
        assert np.allclose(grad.sum(axis=1), 0.0, atol=1e-12)

    def test_label_smoothing_bounds(self):
        with pytest.raises(ValueError):
            softmax_cross_entropy(np.zeros((1, 2)), np.array([0]), label_smoothing=1.0)
