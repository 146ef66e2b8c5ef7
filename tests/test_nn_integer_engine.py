"""Golden equivalence of the code-domain integer engine.

The run phase quantizes each layer's input once and unfolds the activation
codes.  The reference below keeps the earlier formulation: unfold the FP32
input (zero padding), quantize the duplicated columns, re-derive the weight
codes and their sums on every call in float64 and scatter fault deltas with
``np.add.at``.  Both must produce bit-identical
logits — and bit-identical outputs of every integer layer, since later
layers re-quantize and could hide a difference — for every method, bit
width, network shape and fault rate, and whichever code dtype
(float32 under the per-layer exactness bound, float64 above it) each
layer runs its GEMM in.
"""

import numpy as np
import pytest

import repro.nn.layers as nn_layers
from repro.nn.faults import MsbBitFlipInjector
from repro.nn.functional import conv_output_size
from repro.nn.layers import Conv2D, Dense, Flatten, ReLU
from repro.nn.model import Model
from repro.nn.quantized import (
    CalibrationRecording,
    LayerQuantization,
    QuantizationContext,
    QuantizedModel,
    record_calibration,
)
from repro.nn.zoo import build_model
from repro.quantization.base import QuantParams
from repro.quantization.registry import METHOD_KEYS, get_method
from repro.utils.rng import make_rng

NETWORKS = ("resnet20", "squeezenet")
BIT_WIDTHS = ((8, 8), (6, 5), (4, 3))
FLIP_PROBABILITIES = (0.0, 1e-3, 1e-1)
MSB_BITS = (14, 15)
FAULT_SEED = 11


def reference_im2col(x, kernel_h, kernel_w, stride, padding, pad_value=0.0):
    """The loop im2col over the FP32 input (zero padding only)."""
    assert pad_value == 0.0
    batch, channels, height, width = x.shape
    out_h = conv_output_size(height, kernel_h, stride, padding)
    out_w = conv_output_size(width, kernel_w, stride, padding)
    if padding > 0:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)), mode="constant")
    columns = np.empty((batch, channels, kernel_h, kernel_w, out_h, out_w), dtype=x.dtype)
    for i in range(kernel_h):
        i_end = i + stride * out_h
        for j in range(kernel_w):
            j_end = j + stride * out_w
            columns[:, :, i, j, :, :] = x[:, :, i:i_end:stride, j:j_end:stride]
    columns = columns.transpose(0, 4, 5, 1, 2, 3).reshape(
        batch * out_h * out_w, channels * kernel_h * kernel_w
    )
    return columns, out_h, out_w


def reference_deltas(generator, probability, q_activations, q_weights):
    """Fault deltas drawn like the injector, scattered with ``np.add.at``."""
    if probability == 0.0:
        return None
    rows, inner = q_activations.shape
    cols = q_weights.shape[1]
    total_products = rows * inner * cols
    num_events = int(generator.binomial(total_products, probability))
    if num_events == 0:
        return None
    flat_indices = generator.integers(0, total_products, size=num_events)
    i = flat_indices // (inner * cols)
    remainder = flat_indices % (inner * cols)
    k = remainder // cols
    j = remainder % cols
    products = q_activations[i, k].astype(np.int64) * q_weights[k, j].astype(np.int64)
    bits = generator.choice(np.array(MSB_BITS), size=num_events)
    bit_values = (products >> bits) & 1
    values = np.where(bit_values == 1, -(1 << bits), (1 << bits)).astype(np.float64)
    deltas = np.zeros((rows, cols), dtype=np.float64)
    np.add.at(deltas, (i, j), values)
    return deltas


class ReferenceContext:
    """Run-phase stand-in that feeds FP32 operands and quantizes per call."""

    def __init__(self, layer_params, probability, seed):
        self.layer_params = layer_params
        self.probability = probability
        self.generator = make_rng(seed)
        self.outputs = []

    def layer_input(self, layer, x):
        return x, 0.0

    def linear(self, layer, inputs, weights, bias):
        params = self.layer_params[layer.name]
        q_activations = params.activation.quantize(inputs).astype(np.float64)
        q_weights = params.quantized_weights.astype(np.float64).T
        inner = q_activations.shape[1]

        raw = q_activations @ q_weights
        deltas = reference_deltas(self.generator, self.probability, q_activations, q_weights)
        if deltas is not None:
            raw = raw + deltas

        activation_zero = float(np.asarray(params.activation.zero_point).reshape(-1)[0])
        activation_scale = float(np.asarray(params.activation.scale).reshape(-1)[0])
        channels = params.quantized_weights.shape[0]
        weight_zero = np.broadcast_to(
            np.asarray(params.weight_decode.zero_point, dtype=np.float64), (channels,)
        )
        weight_scale = np.broadcast_to(
            np.asarray(params.weight_decode.scale, dtype=np.float64), (channels,)
        )
        row_sums = q_activations.sum(axis=1, keepdims=True)
        col_sums = params.quantized_weights.astype(np.float64).sum(axis=1)
        accumulator = (
            raw
            - row_sums * weight_zero[None, :]
            - activation_zero * col_sums[None, :]
            + inner * activation_zero * weight_zero[None, :]
        )
        accumulator = accumulator + params.quantized_bias[None, :]
        output = activation_scale * weight_scale[None, :] * accumulator
        self.outputs.append(output)
        return output


@pytest.fixture(scope="module")
def networks():
    rng = np.random.default_rng(5)
    calibration = rng.normal(size=(16, 3, 16, 16))
    inputs = rng.normal(size=(4, 3, 16, 16))
    built = {}
    for name in NETWORKS:
        model = build_model(name, rng=0)
        built[name] = (model, record_calibration(model, calibration))
    return built, inputs


@pytest.mark.parametrize("bits", BIT_WIDTHS, ids=lambda bits: f"a{bits[0]}w{bits[1]}")
@pytest.mark.parametrize("key", METHOD_KEYS)
@pytest.mark.parametrize("network", NETWORKS)
def test_code_domain_engine_matches_reference(network, key, bits, networks, monkeypatch):
    built, inputs = networks
    model, recording = built[network]
    quantized = QuantizedModel.build(model, get_method(key), *bits, recording)
    linear = QuantizationContext.linear
    for probability in FLIP_PROBABILITIES:
        quantized.set_fault_injector(
            MsbBitFlipInjector(probability, msb_bits=MSB_BITS, rng=FAULT_SEED)
        )
        outputs = []

        def recording_linear(*args):
            outputs.append(linear(*args))
            return outputs[-1]

        with monkeypatch.context() as patch:
            patch.setattr(QuantizationContext, "linear", recording_linear)
            logits = quantized.forward(inputs)
        reference = ReferenceContext(quantized.context.layer_params, probability, FAULT_SEED)
        with monkeypatch.context() as patch:
            patch.setattr(nn_layers, "im2col", reference_im2col)
            expected = model.forward_quantized(inputs, reference)
        assert np.array_equal(logits, expected), f"p={probability}"
        assert len(outputs) == len(reference.outputs)
        for layer, (output, expected_output) in enumerate(zip(outputs, reference.outputs)):
            assert np.array_equal(output, expected_output), f"p={probability}, layer {layer}"


@pytest.mark.parametrize("shapes", [((1, 3), (3, 1)), ((2, 5), (5, 3)), ((7, 4), (4, 6))])
def test_bincount_deltas_match_add_at_scatter(shapes):
    # Every product is hit; (1, 3) @ (3, 1) sends all three hits to the
    # same (i, j), so the scatter must sum duplicates.
    a_shape, w_shape = shapes
    rng = np.random.default_rng(3)
    q_a = rng.integers(0, 256, a_shape).astype(np.float64)
    q_w = rng.integers(0, 256, w_shape).astype(np.float64)
    injector = MsbBitFlipInjector(probability=1.0, msb_bits=MSB_BITS, rng=4)
    deltas = injector.accumulation_deltas(q_a, q_w)
    expected = reference_deltas(make_rng(4), 1.0, q_a, q_w)
    assert deltas is not None and np.array_equal(deltas, expected)


# ------------------------------------------------------------ code dtype guard
def identity_layer(activation_bits, weight_codes, weight_zero=0.0):
    """A layer over explicit (N, K) weight codes, unit scales, no bias."""
    weight_codes = np.asarray(weight_codes, dtype=np.int64)
    channels = weight_codes.shape[0]
    activation = QuantParams(scale=1.0, zero_point=0.0, num_bits=activation_bits)
    weights = QuantParams(
        scale=np.ones(channels), zero_point=np.full(channels, weight_zero),
        num_bits=16, channel_axis=0,
    )
    return LayerQuantization(
        activation, weights, weights, weight_codes, np.zeros(channels), np.ones(channels)
    )


def test_bound_of_exactly_2_pow_24_picks_float64():
    # 1-bit activations (max level 1), one column summing to 256 * 65536.
    codes = np.concatenate([np.full(256, 65535), np.ones(256)])[None, :]
    assert identity_layer(1, codes).code_dtype is np.float64
    # The all-ones column counts: zero weights, but 255 * 65794 >= 2**24.
    assert identity_layer(8, np.zeros((1, 65794))).code_dtype is np.float64


def test_bound_one_below_2_pow_24_picks_float32_and_stays_exact():
    codes = np.concatenate([np.full(256, 65535), np.ones(255), [0]])[None, :]
    assert identity_layer(1, codes).code_dtype is np.float32
    # 255 * 65793 == 2**24 - 1, set by the all-ones column alone.
    layer = identity_layer(8, np.zeros((1, 65793)), weight_zero=1.0)
    assert layer.code_dtype is np.float32
    # An empty recording: a context with no layers, to drive _integer_linear.
    context = QuantizationContext(get_method("M2"), 8, 8, CalibrationRecording({}, {}))
    # Every activation at the top code: the row sum is the bound itself, and
    # with z_w = 1 the output is exactly minus that row sum.
    q_activations = np.full((2, 65793), 255, dtype=layer.code_dtype)
    output = context._integer_linear(q_activations, layer)
    assert np.array_equal(output, np.full((2, 1), -(2.0**24 - 1)))


@pytest.mark.parametrize("probability", FLIP_PROBABILITIES)
@pytest.mark.parametrize("key", ("M2", "M4"))
def test_wide_dense_runs_float64_and_matches_reference(key, probability, monkeypatch):
    rng = np.random.default_rng(7)
    calibration = rng.normal(size=(16, 3, 16, 16))
    # Inputs beyond the calibrated range saturate many codes, so the dense
    # accumulators pass 2**24, where a float32 GEMM would round.
    inputs = 4.0 * rng.normal(size=(4, 3, 16, 16))
    model = Model(
        [Conv2D(3, 8, rng=1), ReLU(), Flatten(), Dense(8 * 16 * 16, 10, rng=2)], num_classes=10
    )
    quantized = QuantizedModel.build(
        model, get_method(key), 8, 8, record_calibration(model, calibration)
    )
    dtypes = {name: params.code_dtype for name, params in quantized.context.layer_params.items()}
    assert dtypes == {"0_conv2d": np.float32, "3_dense": np.float64}

    quantized.set_fault_injector(MsbBitFlipInjector(probability, msb_bits=MSB_BITS, rng=FAULT_SEED))
    logits = quantized.forward(inputs)
    reference = ReferenceContext(quantized.context.layer_params, probability, FAULT_SEED)
    with monkeypatch.context() as patch:
        patch.setattr(nn_layers, "im2col", reference_im2col)
        expected = model.forward_quantized(inputs, reference)
    assert np.array_equal(logits, expected)
