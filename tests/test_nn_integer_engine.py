"""Golden equivalence of the code-domain integer engine.

The run phase quantizes each layer's input once, unfolds the activation
codes into channels-last (kh, kw, C) columns and runs one GEMM against an
operand permuted to match, with the weight zero points folded in where they
are integers.  Two references keep earlier formulations, both over the
canonical (C, kh, kw) column order:

* :class:`ReferenceContext` unfolds the FP32 input (zero padding), quantizes
  the duplicated columns, re-derives the weight codes and their sums on
  every call in float64 and scatters fault deltas with ``np.add.at``;
* :class:`StrictCanonicalContext` is a copy of the integer layer before
  channels-last columns and folded zero points: canonical columns of codes,
  the ``[q_w | 1]`` operand and the strict left-to-right epilogue.

The engine must produce equal logits — and equal outputs of every integer
layer, since later layers re-quantize and could hide a difference — for
every method, bit width, network shape and fault rate, and whichever code
dtype (float32 under the per-layer exactness bound, float64 above it) each
layer runs its GEMM in.  Against the strict copy the layer outputs are
compared byte for byte, which also sees a signed zero.
"""

import numpy as np
import pytest

import repro.nn.layers as nn_layers
from repro.nn.faults import MsbBitFlipInjector
from repro.nn.functional import conv_output_size
from repro.nn.layers import Conv2D, Dense, Flatten, ReLU
from repro.nn.model import Model
import repro.observability as observability
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


def reference_im2col(x, kernel_h, kernel_w, stride, padding, pad_value=0.0, channels_last=False):
    """The loop im2col over the FP32 input (zero padding, canonical columns only)."""
    assert pad_value == 0.0 and not channels_last
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

    channels_last = False

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


class StrictCanonicalContext:
    """The integer layer before channels-last columns and folded zero points.

    Canonical (C, kh, kw) columns of activation codes, the ``[q_w | 1]``
    operand in the dtype its own bound picks (the all-ones column counts),
    the same fault stream over canonical operands, and the strict
    left-to-right epilogue, over the engine's frozen parameters.
    """

    channels_last = False

    def __init__(self, layer_params, probability, seed):
        self.layer_params = layer_params
        self.injector = MsbBitFlipInjector(probability, msb_bits=MSB_BITS, rng=seed)
        self.outputs = []

    @staticmethod
    def operand(params):
        channels, inner = params.quantized_weights.shape
        operand = np.ones((inner, channels + 1))
        operand[:, :channels] = params.quantized_weights.T
        bound = params.activation.max_level * operand.sum(axis=0).max()
        return operand.astype(np.float32 if bound < 2**24 else np.float64)

    def layer_input(self, layer, x):
        params = self.layer_params[layer.name]
        codes = params.activation.quantize(x, self.operand(params).dtype)
        return codes, params.activation_pad

    def linear(self, layer, inputs, weights, bias):
        params = self.layer_params[layer.name]
        operand = self.operand(params)
        inner, channels = operand.shape[0], operand.shape[1] - 1
        accumulated = (inputs @ operand).astype(np.float64, copy=False)
        raw, row_sums = accumulated[:, :-1], accumulated[:, -1:]
        deltas = self.injector.accumulation_deltas(
            inputs, np.ascontiguousarray(operand[:, :channels])
        )
        if deltas is not None:
            raw += deltas
        activation_zero = float(np.asarray(params.activation.zero_point).reshape(-1)[0])
        weight_zero = np.broadcast_to(
            np.asarray(params.weight_decode.zero_point, dtype=np.float64), (channels,)
        )
        column_sums = operand.astype(np.float64).sum(axis=0)
        accumulator = raw - row_sums * weight_zero
        accumulator -= activation_zero * column_sums[:channels]
        accumulator += inner * activation_zero * weight_zero
        accumulator += params.quantized_bias
        accumulator *= params.bias_scale
        self.outputs.append(accumulator)
        return accumulator


def engine_layer_outputs(quantized, inputs, monkeypatch):
    """The logits of ``quantized`` and the output of each integer layer."""
    linear = QuantizationContext.linear
    outputs = []

    def recording_linear(*args):
        outputs.append(linear(*args))
        return outputs[-1]

    with monkeypatch.context() as patch:
        patch.setattr(QuantizationContext, "linear", recording_linear)
        logits = quantized.forward(inputs)
    return logits, outputs


def assert_layers_match_strict_copy(quantized, inputs, probability, outputs):
    strict = StrictCanonicalContext(quantized.context.layer_params, probability, FAULT_SEED)
    quantized.model.forward_quantized(inputs, strict)
    assert len(outputs) == len(strict.outputs)
    for layer, (output, expected) in enumerate(zip(outputs, strict.outputs)):
        assert output.dtype == expected.dtype and output.shape == expected.shape
        assert output.tobytes() == expected.tobytes(), f"p={probability}, layer {layer}"


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
    for probability in FLIP_PROBABILITIES:
        quantized.set_fault_injector(
            MsbBitFlipInjector(probability, msb_bits=MSB_BITS, rng=FAULT_SEED)
        )
        logits, outputs = engine_layer_outputs(quantized, inputs, monkeypatch)
        reference = ReferenceContext(quantized.context.layer_params, probability, FAULT_SEED)
        with monkeypatch.context() as patch:
            patch.setattr(nn_layers, "im2col", reference_im2col)
            expected = model.forward_quantized(inputs, reference)
        assert np.array_equal(logits, expected), f"p={probability}"
        assert len(outputs) == len(reference.outputs)
        for layer, (output, expected_output) in enumerate(zip(outputs, reference.outputs)):
            assert np.array_equal(output, expected_output), f"p={probability}, layer {layer}"
        assert_layers_match_strict_copy(quantized, inputs, probability, outputs)


@pytest.fixture(scope="module")
def layer_zoo():
    """One layer of each unfold shape: 3x3 stride 1, 3x3 stride 2, 1x1, dense."""
    rng = np.random.default_rng(9)
    model = Model(
        [
            Conv2D(3, 8, kernel_size=3, rng=1),
            ReLU(),
            Conv2D(8, 16, kernel_size=3, stride=2, rng=2),
            ReLU(),
            Conv2D(16, 12, kernel_size=1, rng=3),
            ReLU(),
            Flatten(),
            Dense(12 * 5 * 5, 10, rng=4),
        ],
        num_classes=10,
    )
    recording = record_calibration(model, rng.normal(size=(16, 3, 9, 9)))
    return model, recording, rng.normal(size=(6, 3, 9, 9))


@pytest.mark.parametrize("bits", BIT_WIDTHS, ids=lambda bits: f"a{bits[0]}w{bits[1]}")
@pytest.mark.parametrize("key", METHOD_KEYS)
def test_every_unfold_shape_matches_strict_copy_bytes(key, bits, layer_zoo, monkeypatch):
    model, recording, inputs = layer_zoo
    assert recording.kernel_shapes == {
        "0_conv2d": (3, 3, 3),
        "2_conv2d": (8, 3, 3),
        "4_conv2d": (16, 1, 1),
        "7_dense": (300,),
    }
    quantized = QuantizedModel.build(model, get_method(key), *bits, recording)
    # Only M4's bias-corrected decode has fractional zero points.
    folded = {params.folded for params in quantized.context.layer_params.values()}
    assert folded == {key != "M4"}
    for probability in FLIP_PROBABILITIES:
        quantized.set_fault_injector(
            MsbBitFlipInjector(probability, msb_bits=MSB_BITS, rng=FAULT_SEED)
        )
        _, outputs = engine_layer_outputs(quantized, inputs, monkeypatch)
        assert_layers_match_strict_copy(quantized, inputs, probability, outputs)


def test_layers_are_counted_by_epilogue_once_per_build(networks):
    built, inputs = networks
    model, recording = built["resnet20"]
    layers = len(recording.observations)
    for key, folded in (("M2", layers), ("M4", 0)):
        with observability.collecting() as recorded:
            quantized = QuantizedModel.build(model, get_method(key), 8, 8, recording)
            quantized.forward(inputs)
            quantized.forward(inputs)
        assert recorded.metrics.counter("nn.integer.layers.folded") == folded
        assert recorded.metrics.counter("nn.integer.layers.strict") == layers - folded


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
def identity_layer(activation_bits, weight_codes, weight_zero=0.0, bias=None):
    """A layer over explicit (N, K) weight codes, unit scales, bias codes ``bias`` (else 0)."""
    weight_codes = np.asarray(weight_codes, dtype=np.int64)
    channels = weight_codes.shape[0]
    activation = QuantParams(scale=1.0, zero_point=0.0, num_bits=activation_bits)
    weights = QuantParams(
        scale=np.ones(channels), zero_point=np.full(channels, weight_zero),
        num_bits=16, channel_axis=0,
    )
    bias = np.zeros(channels) if bias is None else np.asarray(bias, dtype=np.float64)
    return LayerQuantization(activation, weights, weights, weight_codes, bias, np.ones(channels))


def empty_context():
    """A context with no layers (an empty recording), to drive _integer_linear."""
    return QuantizationContext(get_method("M2"), 8, 8, CalibrationRecording({}, {}, {}))


# A fractional z_w keeps the [q_w | 1] operand, whose column sums set the bound.
def test_bound_of_exactly_2_pow_24_picks_float64():
    # 1-bit activations (max level 1), one column summing to 256 * 65536.
    codes = np.concatenate([np.full(256, 65535), np.ones(256)])[None, :]
    layer = identity_layer(1, codes, weight_zero=0.5)
    assert not layer.folded and layer.code_dtype is np.float64
    # The all-ones column counts: zero weights, but 255 * 65794 >= 2**24.
    assert identity_layer(8, np.zeros((1, 65794)), weight_zero=0.5).code_dtype is np.float64


def test_bound_one_below_2_pow_24_picks_float32_and_stays_exact():
    codes = np.concatenate([np.full(256, 65535), np.ones(255), [0]])[None, :]
    assert identity_layer(1, codes, weight_zero=0.5).code_dtype is np.float32
    # 255 * 65793 == 2**24 - 1, set by the all-ones column alone.
    layer = identity_layer(8, np.zeros((1, 65793)), weight_zero=0.5)
    assert not layer.folded and layer.code_dtype is np.float32
    # Every activation at the top code: the row sum is the bound itself, and
    # with z_w = 0.5 the output is exactly minus half of that row sum.
    q_activations = np.full((2, 65793), 255, dtype=layer.code_dtype)
    output = empty_context()._integer_linear(q_activations, layer)
    assert np.array_equal(output, np.full((2, 1), -(2.0**24 - 1) / 2))


# An integral z_w folds into the operand q_w - z_w; the bound is the largest
# column sum of |q_w - z_w|, with no all-ones column.
def mixed_sign_layer(plus_ones):
    """1-bit activations; z_w = 32768, so 0 -> -32768, 65535 -> +32767, 32769 -> +1.

    The bound is 256 * 32768 + 256 * 32767 + plus_ones = 2**24 - 256 + plus_ones.
    """
    codes = np.concatenate([np.zeros(256), np.full(256, 65535), np.full(plus_ones, 32769)])
    return identity_layer(1, codes[None, :], weight_zero=32768.0)


def test_folded_bound_of_exactly_2_pow_24_picks_float64():
    layer = mixed_sign_layer(256)
    assert layer.folded and layer.gemm_operand.shape == (256 + 256 + 256, 1)
    assert layer.code_dtype is np.float64


def test_folded_bound_one_below_2_pow_24_picks_float32_and_stays_exact():
    layer = mixed_sign_layer(255)
    assert layer.folded and layer.code_dtype is np.float32
    inner = layer.gemm_operand.shape[0]
    rng = np.random.default_rng(2)
    rows = [
        np.ones(inner),  # every term: the sum is -1
        np.r_[np.ones(256), np.zeros(inner - 256)],  # the negatives: -2**23
        np.r_[np.zeros(256), np.ones(inner - 256)],  # the positives: 2**23 - 1
        rng.integers(0, 2, inner),
        rng.integers(0, 2, inner),
    ]
    q_activations = np.array(rows, dtype=np.float32)
    exact = q_activations.astype(np.int64) @ (
        layer.quantized_weights.T.astype(np.int64) - 32768
    )
    assert exact[:3, 0].tolist() == [-1, -(2**23), 2**23 - 1]
    output = empty_context()._integer_linear(q_activations, layer)
    assert np.array_equal(output, exact.astype(np.float64))


def test_negative_zero_bias_code_cannot_sign_a_zero_output():
    layer = identity_layer(8, [[3, 0, 1]], weight_zero=1.0, bias=[-0.0])
    assert layer.folded and not np.signbit(layer.offset).any()
    output = empty_context()._integer_linear(np.zeros((2, 3), dtype=layer.code_dtype), layer)
    assert output.tolist() == [[0.0], [0.0]] and not np.signbit(output).any()


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
