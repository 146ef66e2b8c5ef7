"""Golden equivalence of the code-domain integer engine.

The run phase quantizes each layer's input once and unfolds the activation
codes.  The reference below keeps the earlier formulation: unfold the FP32
input (zero padding), quantize the duplicated columns, re-derive the weight
codes and their sums on every call and scatter fault deltas with
``np.add.at``.  Both must produce bit-identical
logits — and bit-identical outputs of every integer layer, since later
layers re-quantize and could hide a difference — for every method, bit
width, network shape and fault rate.
"""

import numpy as np
import pytest

import repro.nn.layers as nn_layers
from repro.nn.faults import MsbBitFlipInjector
from repro.nn.functional import conv_output_size
from repro.nn.quantized import QuantizationContext, QuantizedModel, record_calibration
from repro.nn.zoo import build_model
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
    return built, calibration, inputs


@pytest.mark.parametrize("bits", BIT_WIDTHS, ids=lambda bits: f"a{bits[0]}w{bits[1]}")
@pytest.mark.parametrize("key", METHOD_KEYS)
@pytest.mark.parametrize("network", NETWORKS)
def test_code_domain_engine_matches_reference(network, key, bits, networks, monkeypatch):
    built, calibration, inputs = networks
    model, recording = built[network]
    quantized = QuantizedModel.build(
        model, get_method(key), *bits, calibration_data=calibration,
        calibration_recording=recording,
    )
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
