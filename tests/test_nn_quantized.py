"""Tests of integer (quantized) model execution and MSB fault injection."""

import copy
import pickle
import random
import tracemalloc

import numpy as np
import pytest

import repro.observability as observability
from repro.nn.evaluate import evaluate_with_fault_injection, quantize_and_evaluate
from repro.nn.faults import MsbBitFlipInjector
from repro.nn.quantized import (
    LayerQuantization,
    QuantizationContext,
    QuantizedModel,
    record_calibration,
)
from repro.quantization.base import QuantParams
from repro.quantization.lapq import LAPQQuantizer
from repro.quantization.registry import METHOD_KEYS, get_method


class TestQuantizationContext:
    def test_record_calibration_requires_observations(self, tiny_model, tiny_calibration):
        with pytest.raises(RuntimeError, match="no calibration data observed"):
            record_calibration(tiny_model, tiny_calibration[:0])

    def test_invalid_bit_widths(self, tiny_recording):
        with pytest.raises(ValueError):
            QuantizationContext(get_method("M2"), 0, 8, tiny_recording)
        with pytest.raises(ValueError):
            QuantizationContext(get_method("M2"), 8, 8, tiny_recording, bias_bits=0)

    def test_unquantized_layer_lookup_fails_cleanly(self, tiny_model, tiny_recording):
        quantized = QuantizedModel.build(tiny_model, get_method("M2"), 8, 8, tiny_recording)
        # A layer that never went through calibration is rejected explicitly.
        from repro.nn.layers import Dense

        foreign = Dense(4, 2, rng=0)
        foreign.name = "foreign"
        with pytest.raises(KeyError):
            quantized.context.linear(foreign, np.zeros((1, 4)), foreign.weight.value, foreign.bias.value)

    def test_unquantized_layer_forward_fails_cleanly(self, tiny_model, tiny_recording):
        quantized = QuantizedModel.build(tiny_model, get_method("M2"), 8, 8, tiny_recording)
        from repro.nn.layers import Conv2D, Dense

        # The run-phase lookup of the layer's activation codes fails first,
        # with the same explanation as a direct linear call.
        dense = Dense(4, 2, rng=0)
        dense.name = "foreign_dense"
        with pytest.raises(KeyError, match="no quantization parameters"):
            dense.forward_quantized(np.zeros((1, 4)), quantized.context)
        conv = Conv2D(3, 2, rng=0)
        conv.name = "foreign_conv"
        with pytest.raises(KeyError, match="'foreign_conv' has no quantization parameters"):
            conv.forward_quantized(np.zeros((1, 3, 4, 4)), quantized.context)


class TestQuantizedModel:
    def test_build_quantizes_every_recorded_layer(self, tiny_model, tiny_recording):
        quantized = QuantizedModel.build(tiny_model, get_method("M2"), 8, 8, tiny_recording)
        layers = [layer.name for layer in tiny_model.layers if hasattr(layer, "weight")]
        assert list(quantized.context.layer_params) == list(tiny_recording.observations) == layers
        assert quantized.fault_injector is None

    def test_eight_bit_quantization_preserves_accuracy(self, tiny_model, tiny_recording, tiny_dataset):
        fp32 = tiny_model.accuracy(tiny_dataset.x_test, tiny_dataset.y_test)
        quantized = QuantizedModel.build(tiny_model, get_method("M2"), 8, 8, tiny_recording)
        accuracy = quantized.accuracy(tiny_dataset.x_test, tiny_dataset.y_test)
        assert abs(fp32 - accuracy) <= 0.05

    @pytest.mark.parametrize("key", METHOD_KEYS)
    def test_all_methods_execute(self, key, tiny_model, tiny_recording, tiny_dataset):
        quantized = QuantizedModel.build(tiny_model, get_method(key), 6, 6, tiny_recording)
        predictions = quantized.predict(tiny_dataset.x_test[:16])
        assert predictions.shape == (16,)

    def test_aggressive_quantization_degrades_more(self, tiny_model, tiny_recording, tiny_dataset):
        fp32 = tiny_model.accuracy(tiny_dataset.x_test, tiny_dataset.y_test)
        mild = quantize_and_evaluate(
            tiny_model, get_method("M2"), 8, 8, tiny_recording,
            tiny_dataset.x_test, tiny_dataset.y_test, fp32_accuracy=fp32,
        )
        harsh = quantize_and_evaluate(
            tiny_model, get_method("M2"), 3, 3, tiny_recording,
            tiny_dataset.x_test, tiny_dataset.y_test, fp32_accuracy=fp32,
        )
        assert harsh.quantized_accuracy <= mild.quantized_accuracy + 0.02
        assert harsh.accuracy_loss_percent >= mild.accuracy_loss_percent - 2.0

    def test_quantized_logits_close_to_fp32_at_8_bits(self, tiny_model, tiny_recording, tiny_dataset):
        quantized = QuantizedModel.build(tiny_model, get_method("M2"), 8, 8, tiny_recording)
        x = tiny_dataset.x_test[:8]
        fp32_logits = tiny_model.predict_logits(x)
        quant_logits = quantized.predict_logits(x)
        scale = np.abs(fp32_logits).max() + 1e-9
        assert np.abs(fp32_logits - quant_logits).max() / scale < 0.15

    def test_evaluation_metadata(self, tiny_model, tiny_recording, tiny_dataset):
        evaluation = quantize_and_evaluate(
            tiny_model, get_method("M4"), 5, 4, tiny_recording,
            tiny_dataset.x_test, tiny_dataset.y_test,
        )
        assert evaluation.method_key == "M4"
        assert evaluation.activation_bits == 5
        assert evaluation.weight_bits == 4
        assert evaluation.bias_bits == 9
        assert -100.0 <= evaluation.accuracy_loss_percent <= 100.0


def _layer_params_bytes(model, method, recording, bits) -> bytes:
    """Pickled layer parameters of ``model`` built at ``(activation, weight[, bias])`` bits."""
    activation_bits, weight_bits, *bias_bits = bits
    quantized = QuantizedModel.build(
        model, method, activation_bits, weight_bits, recording, *bias_bits
    )
    return pickle.dumps(quantized.context.layer_params)


class TestCalibrationMemo:
    """Clipping memoised on a recording equals clipping from a cold one."""

    # (activation_bits, weight_bits, bias_bits), with every width repeated.
    CONFIGS = [
        (8, 8, None), (6, 5, None), (8, 5, 13), (6, 8, None),
        (4, 4, None), (6, 5, 9), (8, 8, 16), (4, 8, None),
    ]

    @pytest.mark.parametrize("key", METHOD_KEYS)
    def test_warm_recording_matches_fresh_recordings(self, key, tiny_model, tiny_calibration):
        configs = list(self.CONFIGS)
        random.Random(0).shuffle(configs)
        warm = record_calibration(tiny_model, tiny_calibration)
        observed = {name: samples.copy() for name, samples in warm.observations.items()}
        tensors = {name: [t.copy() for t in pair] for name, pair in warm.layer_tensors.items()}
        for bits in configs:
            fresh = record_calibration(tiny_model, tiny_calibration)
            method = get_method(key)
            assert _layer_params_bytes(tiny_model, method, warm, bits) == _layer_params_bytes(
                tiny_model, method, fresh, bits
            )
        # Building only fills the memo; the recorded tensors are untouched.
        assert list(warm.observations) == list(observed)
        for name, samples in observed.items():
            assert np.array_equal(warm.observations[name], samples)
            for kept, original in zip(warm.layer_tensors[name], tensors[name]):
                assert np.array_equal(kept, original)

    def test_hits_and_misses_per_side(self, tiny_model, tiny_calibration):
        recording = record_calibration(tiny_model, tiny_calibration)
        layers = len(recording.observations)
        method = get_method("M3")

        def counts(bits):
            with observability.collecting() as recorded:
                QuantizedModel.build(tiny_model, method, *bits, recording)
            return {
                name.removeprefix("quantization.calibration."): value
                for name, value in recorded.metrics.counters.items()
                if name.startswith("quantization.calibration.")
            }

        assert counts((6, 5)) == {"activation.misses": layers, "weight.misses": layers}
        assert counts((6, 4)) == {"activation.hits": layers, "weight.misses": layers}
        assert counts((5, 4)) == {"activation.misses": layers, "weight.hits": layers}
        assert counts((6, 5)) == {"activation.hits": layers, "weight.hits": layers}

    def test_method_settings_keep_separate_entries(self, tiny_model, tiny_calibration):
        # Fresh instances of one method share entries (a sweep builds one
        # per tile); a different setting of the same "M3" does not.
        assert get_method("M3").calibration_key == LAPQQuantizer().calibration_key
        narrow = LAPQQuantizer(num_candidates=8)
        assert narrow.key == "M3"
        assert narrow.calibration_key != LAPQQuantizer().calibration_key
        recording = record_calibration(tiny_model, tiny_calibration)
        _layer_params_bytes(tiny_model, get_method("M3"), recording, (4, 4))
        with observability.collecting() as recorded:
            warm = _layer_params_bytes(tiny_model, narrow, recording, (4, 4))
        assert not any(name.endswith(".hits") for name in recorded.metrics.counters)
        fresh = record_calibration(tiny_model, tiny_calibration)
        assert warm == _layer_params_bytes(tiny_model, narrow, fresh, (4, 4))
        assert warm != _layer_params_bytes(tiny_model, get_method("M3"), fresh, (4, 4))

    def test_m4_and_m5_share_clipping_not_decode(self, tiny_model, tiny_calibration):
        recording = record_calibration(tiny_model, tiny_calibration)
        layers = len(recording.observations)
        m5 = QuantizedModel.build(tiny_model, get_method("M5"), 5, 4, recording)
        with observability.collecting() as recorded:
            m4 = QuantizedModel.build(tiny_model, get_method("M4"), 5, 4, recording)
        assert recorded.metrics.counter("quantization.calibration.activation.hits") == layers
        assert recorded.metrics.counter("quantization.calibration.weight.hits") == layers
        assert recorded.metrics.counter("quantization.calibration.weight_decode.misses") == layers
        for name, with_correction in m4.context.layer_params.items():
            without = m5.context.layer_params[name]
            assert with_correction.activation is without.activation
            assert with_correction.weight_encode is without.weight_encode
            assert with_correction.quantized_weights is without.quantized_weights
            assert without.weight_decode is without.weight_encode
            assert not np.array_equal(
                with_correction.weight_decode.zero_point, without.weight_decode.zero_point
            )

    def test_memoised_codes_are_read_only(self, tiny_model, tiny_recording):
        quantized = QuantizedModel.build(tiny_model, get_method("M2"), 8, 8, tiny_recording)
        for params in quantized.context.layer_params.values():
            with pytest.raises(ValueError):
                params.quantized_weights[0, 0] = 0

    def test_observability_does_not_change_parameters(self, tiny_model, tiny_calibration):
        for key in ("M3", "M4"):
            quiet = record_calibration(tiny_model, tiny_calibration)
            with observability.collecting() as recorded:
                observed = record_calibration(tiny_model, tiny_calibration)
                traced = [_layer_params_bytes(tiny_model, get_method(key), observed, bits)
                          for bits in ((6, 5), (6, 5))]
            untraced = [_layer_params_bytes(tiny_model, get_method(key), quiet, bits)
                        for bits in ((6, 5), (6, 5))]
            assert traced == untraced
            spans = [span for span in recorded.spans if span.name == "nn.record_calibration"]
            assert len(spans) == 1
            assert spans[0].args["images"] == len(tiny_calibration)

    def test_pickling_drops_the_memo(self, tiny_model, tiny_calibration):
        recording = record_calibration(tiny_model, tiny_calibration)
        cold = pickle.dumps(recording)
        for key in METHOD_KEYS:
            QuantizedModel.build(tiny_model, get_method(key), 6, 5, recording)
        assert pickle.dumps(recording) == cold
        with observability.collecting() as recorded:
            QuantizedModel.build(tiny_model, get_method("M2"), 6, 5, pickle.loads(cold))
        assert not any(name.endswith(".hits") for name in recorded.metrics.counters)

    def test_recording_keeps_a_copy_of_the_weights(self, tiny_model, tiny_calibration):
        model = copy.deepcopy(tiny_model)
        recording = record_calibration(model, tiny_calibration)
        kept = {name: pair[0].copy() for name, pair in recording.layer_tensors.items()}
        for param in model.parameters():
            param.value *= 2.0
        for name, weights in kept.items():
            assert np.array_equal(recording.layer_tensors[name][0], weights)


    @pytest.mark.parametrize("key", METHOD_KEYS)
    def test_partly_warm_recording_matches_a_fresh_build(self, key, tiny_model, tiny_calibration):
        # The activation width is memoised, the weight width is not: one
        # side's call computes nothing, the other computes every layer.
        recording = record_calibration(tiny_model, tiny_calibration)
        layers = len(recording.observations)
        QuantizedModel.build(tiny_model, get_method(key), 6, 5, recording)
        with observability.collecting() as recorded:
            warm = _layer_params_bytes(tiny_model, get_method(key), recording, (6, 4))
        fresh = record_calibration(tiny_model, tiny_calibration)
        assert warm == _layer_params_bytes(tiny_model, get_method(key), fresh, (6, 4))
        expected = {"activation.hits": layers, "weight.misses": layers}
        if get_method(key).wants_bias_correction:
            expected["weight_decode.misses"] = layers
        assert {
            name.removeprefix("quantization.calibration."): value
            for name, value in recorded.metrics.counters.items()
            if name.startswith("quantization.calibration.")
        } == expected

    def test_memoised_many_computes_only_the_misses(self, tiny_model, tiny_calibration):
        recording = record_calibration(tiny_model, tiny_calibration)
        calls = []

        def compute(missing):
            calls.append(list(missing))
            return [f"value of {key}" for key in missing]

        assert recording.memoised("test", ("b",), lambda: "b") == "b"
        with observability.collecting() as recorded:
            values = recording.memoised_many("test", [("a",), ("b",), ("c",), ("a",)], compute)
            again = recording.memoised_many("test", [("c",), ("b",)], compute)
        assert values == ["value of ('a',)", "b", "value of ('c',)", "value of ('a',)"]
        assert again == ["value of ('c',)", "b"]
        assert calls == [[("a",), ("c",)]]
        assert recorded.metrics.counter("quantization.calibration.test.misses") == 2
        assert recorded.metrics.counter("quantization.calibration.test.hits") == 4


# -------------------------------------------------------- the strict epilogue
def old_strict_linear(q_activations, params):
    """``_integer_linear`` of a strict layer as written before its epilogue
    reused the product buffer (no fault injector)."""
    accumulated = (q_activations @ params.gemm_operand).astype(np.float64, copy=False)
    raw, row_sums = accumulated[:, :-1], accumulated[:, -1:]
    accumulator = raw - row_sums * params.weight_zero
    accumulator -= params.zero_col_sums
    accumulator += params.zero_product
    accumulator += params.quantized_bias
    accumulator *= params.bias_scale
    return accumulator


def strict_layer(channels, inner, activation_bits, weight_bits, zero_shift, seed=0):
    """A layer with fractional decode zero points ``z_w + zero_shift``."""
    rng = np.random.default_rng(seed)
    activation = QuantParams.from_range(-1.0, 3.0, activation_bits)
    encode = QuantParams.symmetric(rng.uniform(0.5, 1.0, channels), weight_bits, channel_axis=0)
    decode = QuantParams(
        scale=encode.scale * rng.uniform(0.9, 1.1, channels),
        zero_point=encode.zero_point + zero_shift + rng.uniform(-0.4, 0.4, channels),
        num_bits=weight_bits,
        channel_axis=0,
    )
    codes = rng.integers(0, 1 << weight_bits, size=(channels, inner))
    params = LayerQuantization(
        activation=activation,
        weight_encode=encode,
        weight_decode=decode,
        quantized_weights=codes,
        quantized_bias=np.round(rng.normal(0.0, 300.0, channels)),
        bias_scale=activation.scale * decode.scale,
    )
    assert not params.folded
    q_activations = rng.integers(0, 1 << activation_bits, size=(257, inner))
    return params, q_activations.astype(params.code_dtype)


class TestStrictEpilogue:
    @pytest.mark.parametrize(
        "case, code_dtype",
        [("float32", np.float32), ("float64", np.float64), ("negative_zero", np.float32)],
    )
    def test_matches_the_old_formula_bytewise(self, case, code_dtype, tiny_model, tiny_recording):
        context = QuantizedModel.build(tiny_model, get_method("M4"), 6, 5, tiny_recording).context
        if case == "float64":
            # 8-bit codes over 600 taps: the bound is above 2**24.
            params, q_activations = strict_layer(16, 600, 8, 8, zero_shift=0.0)
        elif case == "negative_zero":
            # A zero-code row against negative decode zero points makes
            # ``row_sums * z_w`` -0.0, which the subtraction overwrites.
            params, q_activations = strict_layer(8, 27, 4, 3, zero_shift=-10.0)
            q_activations[5] = 0.0
            assert (params.weight_zero < 0).all()
        else:
            params, q_activations = strict_layer(12, 72, 6, 5, zero_shift=0.0)
        assert params.code_dtype == code_dtype
        assert not np.all(params.weight_zero == np.round(params.weight_zero))
        got = context._integer_linear(q_activations, params)
        assert got.tobytes() == old_strict_linear(q_activations, params).tobytes()

    def test_real_bias_corrected_layers_match_the_old_formula(self, tiny_model, tiny_recording, tiny_dataset):
        quantized = QuantizedModel.build(tiny_model, get_method("M4"), 5, 4, tiny_recording)
        context = quantized.context
        strict = [p for p in context.layer_params.values() if not p.folded]
        assert strict
        rng = np.random.default_rng(1)
        for params in strict:
            inner = params.gemm_operand.shape[0]
            q_activations = rng.integers(0, params.activation.max_level + 1, size=(64, inner))
            q_activations = q_activations.astype(params.code_dtype)
            got = context._integer_linear(q_activations, params)
            assert got.tobytes() == old_strict_linear(q_activations, params).tobytes()

    def test_peak_memory_is_one_product_buffer(self, tiny_model, tiny_recording):
        context = QuantizedModel.build(tiny_model, get_method("M4"), 6, 5, tiny_recording).context
        params, _ = strict_layer(16, 72, 6, 5, zero_shift=0.0)
        rows, channels = 8192, 16
        q_activations = np.random.default_rng(2).integers(0, 64, size=(rows, 72))
        q_activations = q_activations.astype(params.code_dtype)
        # The float64 GEMM result (M, N + 1) plus two (M, N) float64 arrays:
        # the old formula's product and difference beside it.
        bound = rows * (channels + 1) * 8 + 2 * rows * channels * 8

        def peak(linear):
            tracemalloc.start()
            try:
                linear(q_activations, params)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(context._integer_linear) < bound
        assert peak(old_strict_linear) >= bound


def divmod_deltas(generator, probability, msb_bits, max_events, q_a, q_w, columns=None):
    """The divmod-based ``accumulation_deltas`` the index decomposition replaced."""
    rows, inner = q_a.shape
    cols = q_w.shape[1]
    total_products = rows * inner * cols
    num_events = int(generator.binomial(total_products, probability))
    if num_events == 0:
        return None
    num_events = min(num_events, max_events)
    activation_index, j = divmod(generator.integers(0, total_products, size=num_events), cols)
    i, k = divmod(activation_index, inner)
    if columns is not None:
        activation_index = i * inner
        activation_index += columns[k]
    activation_codes = q_a.ravel()[activation_index]
    k *= cols
    k += j
    weight_codes = q_w.ravel()[k]
    products = activation_codes.astype(np.int64) * weight_codes.astype(np.int64)
    bits = generator.choice(np.array(msb_bits), size=num_events)
    bit_values = (products >> bits) & 1
    deltas_values = ((1 - 2 * bit_values) * (1 << bits)).astype(np.float64)
    deltas = np.bincount(i * cols + j, weights=deltas_values, minlength=rows * cols)
    return deltas.reshape(rows, cols)


def assert_matches_divmod_oracle(q_a, q_w, columns, probability, msb_bits, **options):
    """Equal deltas by bytes, and the generator left in the same state."""
    injector = MsbBitFlipInjector(probability, msb_bits=msb_bits, rng=21, **options)
    oracle = np.random.default_rng(21)
    max_events = options.get("max_events_per_call", injector.max_events_per_call)
    expected = divmod_deltas(oracle, probability, msb_bits, max_events, q_a, q_w, columns)
    deltas = injector.accumulation_deltas(q_a, q_w, columns)
    assert expected is not None and deltas is not None
    assert deltas.dtype == expected.dtype and deltas.shape == expected.shape
    assert deltas.tobytes() == expected.tobytes()
    assert injector._generator.random() == oracle.random()


class TestFaultDeltasMatchDivmodOracle:
    SHAPES = [(300, 18, 1), (300, 18, 10), (120, 27, 16), (40, 36, 64), (500, 1, 16), (1, 300, 10)]

    @staticmethod
    def operands(shape, dtype, permuted):
        rows, inner, cols = shape
        rng = np.random.default_rng(rows * inner * cols)
        q_a = rng.integers(0, 256, (rows, inner)).astype(dtype)
        q_w = rng.integers(0, 256, (inner, cols)).astype(dtype)
        return q_a, q_w, rng.permutation(inner) if permuted else None

    @pytest.mark.parametrize("msb_bits", [(15,), (13, 14, 15)], ids=["1bit", "3bits"])
    @pytest.mark.parametrize("probability", [1e-4, 1e-2, 1.0])
    @pytest.mark.parametrize("permuted", [False, True], ids=["canonical", "columns"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    @pytest.mark.parametrize("shape", SHAPES, ids=lambda shape: "x".join(map(str, shape)))
    def test_every_shape_and_stream(self, shape, dtype, permuted, probability, msb_bits):
        q_a, q_w, columns = self.operands(shape, dtype, permuted)
        assert_matches_divmod_oracle(q_a, q_w, columns, probability, msb_bits)

    @pytest.mark.parametrize("permuted", [False, True], ids=["canonical", "columns"])
    def test_event_cap(self, permuted):
        q_a, q_w, columns = self.operands((120, 27, 16), np.float32, permuted)
        with pytest.warns(RuntimeWarning, match="faults were dropped"):
            assert_matches_divmod_oracle(
                q_a, q_w, columns, 1e-2, (14, 15), max_events_per_call=100
            )

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    def test_products_beyond_int32(self, dtype):
        # Codes near 2**19 give products near 2**38: exact in int64, not in
        # int32 nor in a float32 product, which rounds away the low bit 5.
        rng = np.random.default_rng(8)
        q_a = (2**19 - rng.integers(0, 4096, (60, 9))).astype(dtype)
        q_w = (2**19 - rng.integers(0, 4096, (9, 12))).astype(dtype)
        assert (q_a.max() * q_w.max()) >= 2**31
        assert_matches_divmod_oracle(
            q_a, q_w, rng.permutation(9), 0.5, (5, 38, 39), product_bits=40
        )


class TestFaultEventCounter:
    def test_counts_the_events_applied(self):
        q_a = np.ones((30, 8))
        q_w = np.ones((8, 5))
        expected = int(np.random.default_rng(3).binomial(30 * 8 * 5, 0.1))
        injector = MsbBitFlipInjector(probability=0.1, rng=3)
        with observability.collecting() as recorded:
            injector.accumulation_deltas(q_a, q_w)
        assert expected > 0
        assert recorded.metrics.counter("nn.faults.events") == expected

    def test_absent_at_zero_probability(self, tiny_model, tiny_recording, tiny_dataset):
        quantized = QuantizedModel.build(tiny_model, get_method("M2"), 8, 8, tiny_recording)
        quantized.set_fault_injector(MsbBitFlipInjector(probability=0.0, rng=1))
        with observability.collecting() as recorded:
            quantized.forward(tiny_dataset.x_test[:8])
        assert "nn.faults.events" not in recorded.metrics.counters

    def test_collection_leaves_results_byte_identical(self, tiny_model, tiny_recording, tiny_dataset):
        quantized = QuantizedModel.build(tiny_model, get_method("M2"), 8, 8, tiny_recording)
        inputs = tiny_dataset.x_test[:16]
        quantized.set_fault_injector(MsbBitFlipInjector(probability=0.01, rng=1))
        plain = quantized.forward(inputs)
        quantized.set_fault_injector(MsbBitFlipInjector(probability=0.01, rng=1))
        with observability.collecting() as recorded:
            collected = quantized.forward(inputs)
        assert recorded.metrics.counter("nn.faults.events") > 0
        assert collected.tobytes() == plain.tobytes()


class TestFaultInjection:
    def test_zero_probability_injects_nothing(self):
        injector = MsbBitFlipInjector(probability=0.0, rng=0)
        assert injector.accumulation_deltas(np.ones((4, 4)), np.ones((4, 4))) is None

    def test_deltas_are_msb_magnitudes(self):
        injector = MsbBitFlipInjector(probability=1.0, msb_bits=(15,), rng=0)
        q_a = np.full((2, 3), 1.0)
        q_w = np.full((3, 2), 1.0)
        deltas = injector.accumulation_deltas(q_a, q_w)
        # every product is 1 (bit 15 clear) so every delta is +2^15
        assert deltas.sum() == pytest.approx(2 * 3 * 2 * (1 << 15))

    def test_flip_direction_depends_on_bit_value(self):
        injector = MsbBitFlipInjector(probability=1.0, msb_bits=(15,), rng=0)
        q_a = np.full((1, 1), 255.0)
        q_w = np.full((1, 1), 255.0)  # product 65025 has bit 15 set
        deltas = injector.accumulation_deltas(q_a, q_w)
        assert deltas[0, 0] == -(1 << 15)

    def test_event_cap_truncates_counts_and_warns(self):
        injector = MsbBitFlipInjector(probability=1.0, rng=0, max_events_per_call=10)
        q_a = np.ones((4, 4))
        q_w = np.ones((4, 4))
        with observability.collecting() as recorded:
            with pytest.warns(RuntimeWarning, match="54 faults were dropped"):
                deltas = injector.accumulation_deltas(q_a, q_w)
        assert recorded.metrics.counter("nn.faults.truncated_events") == 64 - 10
        assert recorded.metrics.counter("nn.faults.events") == 10
        # Truncation keeps exactly max_events_per_call faults of +2^14/2^15.
        magnitudes = np.abs(deltas).sum()
        assert 10 * (1 << 14) <= magnitudes <= 10 * (1 << 15)

    def test_expected_fault_count_scales_with_probability(self):
        injector = MsbBitFlipInjector(probability=0.01, rng=0)
        assert injector.expected_faults(10_000) == pytest.approx(100.0)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            MsbBitFlipInjector(probability=1.5)
        with pytest.raises(ValueError):
            MsbBitFlipInjector(probability=0.1, msb_bits=())
        with pytest.raises(ValueError):
            MsbBitFlipInjector(probability=0.1, msb_bits=(16,), product_bits=16)

    def test_shape_mismatch_rejected(self):
        injector = MsbBitFlipInjector(probability=0.5, rng=0)
        with pytest.raises(ValueError):
            injector.accumulation_deltas(np.ones((2, 3)), np.ones((4, 2)))

    def test_accuracy_degrades_with_flip_probability(self, tiny_model, tiny_calibration, tiny_dataset):
        method = get_method("M2")
        clean, _ = evaluate_with_fault_injection(
            tiny_model, method, tiny_calibration, tiny_dataset.x_test, tiny_dataset.y_test,
            flip_probability=0.0, repetitions=1,
        )
        noisy, _ = evaluate_with_fault_injection(
            tiny_model, method, tiny_calibration, tiny_dataset.x_test, tiny_dataset.y_test,
            flip_probability=0.02, repetitions=2,
        )
        assert noisy < clean

    def test_fault_injection_is_removable(self, tiny_model, tiny_recording, tiny_dataset):
        quantized = QuantizedModel.build(tiny_model, get_method("M2"), 8, 8, tiny_recording)
        baseline = quantized.accuracy(tiny_dataset.x_test, tiny_dataset.y_test)
        quantized.set_fault_injector(MsbBitFlipInjector(probability=0.05, rng=1))
        degraded = quantized.accuracy(tiny_dataset.x_test, tiny_dataset.y_test)
        quantized.set_fault_injector(None)
        restored = quantized.accuracy(tiny_dataset.x_test, tiny_dataset.y_test)
        assert degraded <= baseline
        assert restored == pytest.approx(baseline)
