"""Tests of the quantization primitives and the M1..M5 method library."""

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

import repro.observability as observability
import repro.quantization.lapq as lapq
from repro.quantization.aciq import (
    ACIQQuantizer,
    corrected_weight_params,
    gaussian_clip_multiplier,
    laplace_clip_multiplier,
)
from repro.quantization.asymmetric import AsymmetricMinMaxQuantizer
from repro.quantization.base import QuantParams, TensorStatistics
from repro.quantization.lapq import LAPQQuantizer, lp_exponent_for_bits
from repro.quantization.registry import METHOD_KEYS, available_methods, get_method
from repro.quantization.uniform import UniformSymmetricQuantizer


class TestQuantParams:
    def test_from_range_codes_are_bounded(self):
        params = QuantParams.from_range(-1.0, 3.0, 8)
        values = np.linspace(-2.0, 4.0, 101)
        codes = params.quantize(values)
        assert codes.min() >= 0 and codes.max() <= 255

    def test_zero_is_exactly_representable(self):
        params = QuantParams.from_range(-1.3, 2.7, 8)
        assert params.dequantize(params.quantize(np.array([0.0])))[0] == pytest.approx(0.0, abs=1e-9)

    def test_round_trip_error_bounded_by_half_step(self):
        params = QuantParams.from_range(0.0, 10.0, 8)
        values = np.linspace(0.0, 10.0, 257)
        error = np.abs(params.quantize_dequantize(values) - values)
        assert error.max() <= float(np.asarray(params.scale)) / 2 + 1e-12

    def test_symmetric_grid_centred(self):
        params = QuantParams.symmetric(2.0, 8)
        assert params.dequantize(params.quantize(np.array([0.0])))[0] == pytest.approx(0.0, abs=1e-9)
        assert params.quantize(np.array([100.0]))[0] == 255

    def test_more_bits_reduce_error(self):
        values = np.random.default_rng(0).normal(0, 1, 500)
        coarse = QuantParams.symmetric(3.0, 4).quantization_error(values)
        fine = QuantParams.symmetric(3.0, 8).quantization_error(values)
        assert fine < coarse

    def test_per_channel_broadcasting(self):
        weights = np.stack([np.full((3, 3), 0.1), np.full((3, 3), 10.0)])
        params = QuantParams.symmetric(np.array([0.1, 10.0]), 8, channel_axis=0)
        restored = params.dequantize(params.quantize(weights))
        assert np.allclose(restored, weights, atol=0.1)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_float_codes_equal_integer_codes_bytewise(self, dtype):
        values = np.random.default_rng(6).normal(0.0, 1.0, size=(4, 257))
        values[0, :8] = [-0.0, 0.0, -1e-9, 1e-9, -1e3, 1e3, -0.004, 0.004]
        for params in (QuantParams.from_range(0.0, 2.0, 8), QuantParams.symmetric(2.0, 5)):
            codes = params.quantize(values, dtype)
            assert codes.dtype == dtype
            assert codes.tobytes() == params.quantize(values).astype(dtype).tobytes()

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            QuantParams(scale=np.array(0.0), zero_point=np.array(0.0), num_bits=8)
        with pytest.raises(ValueError):
            QuantParams(scale=np.array(1.0), zero_point=np.array(0.0), num_bits=0)

    def test_nan_scale_and_non_finite_zero_point_are_rejected(self):
        # ``scale <= 0`` is False for NaN, so a NaN scale needs its own test.
        with pytest.raises(ValueError, match="scale"):
            QuantParams.from_range(0.0, np.nan, 8)
        with pytest.raises(ValueError, match="scale"):
            QuantParams(scale=np.array([0.5, np.nan]), zero_point=np.zeros(2), num_bits=8)
        for zero_point in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="zero_point"):
                QuantParams(scale=np.array(0.5), zero_point=np.array(zero_point), num_bits=8)
        samples = np.maximum(np.random.default_rng(9).normal(0.0, 1.0, 200), 0.0)
        samples[17] = np.nan
        with pytest.raises(ValueError, match="scale"):
            AsymmetricMinMaxQuantizer().activation_params(samples, 8)

    def test_statistics(self):
        stats = TensorStatistics.from_array(np.array([1.0, -1.0, 3.0, -3.0]))
        assert stats.minimum == -3.0 and stats.maximum == 3.0
        assert stats.mean == pytest.approx(0.0)
        with pytest.raises(ValueError):
            TensorStatistics.from_array(np.array([]))


@pytest.fixture(scope="module")
def gaussian_weights():
    return np.random.default_rng(1).normal(0.0, 0.2, size=(8, 4, 3, 3))


@pytest.fixture(scope="module")
def relu_activations():
    samples = np.random.default_rng(2).normal(0.0, 1.0, size=(64, 32))
    return np.maximum(samples, 0.0)


class TestMethodLibrary:
    @pytest.mark.parametrize("key", METHOD_KEYS)
    def test_weight_round_trip_reasonable(self, key, gaussian_weights):
        method = get_method(key)
        params = method.weight_params(gaussian_weights, 8)
        restored = params.dequantize(params.quantize(gaussian_weights))
        relative_error = np.abs(restored - gaussian_weights).mean() / np.abs(gaussian_weights).mean()
        assert relative_error < 0.05

    @pytest.mark.parametrize("key", METHOD_KEYS)
    def test_activation_params_cover_post_relu_range(self, key, relu_activations):
        method = get_method(key)
        params = method.activation_params(relu_activations, 8)
        codes = params.quantize(relu_activations)
        assert codes.min() >= 0 and codes.max() <= 255
        restored = params.dequantize(codes)
        assert np.abs(restored - relu_activations).mean() < 0.1

    @pytest.mark.parametrize("key", METHOD_KEYS)
    def test_lower_bits_increase_error(self, key, gaussian_weights):
        method = get_method(key)
        error_8 = method.weight_params(gaussian_weights, 8).quantization_error(gaussian_weights)
        error_3 = method.weight_params(gaussian_weights, 3).quantization_error(gaussian_weights)
        assert error_3 > error_8

    def test_registry_keys_and_aliases(self):
        assert [method.key for method in available_methods()] == list(METHOD_KEYS)
        assert isinstance(get_method("aciq"), ACIQQuantizer)
        assert isinstance(get_method("lapq"), LAPQQuantizer)
        assert isinstance(get_method("minmax"), AsymmetricMinMaxQuantizer)
        assert isinstance(get_method("uniform"), UniformSymmetricQuantizer)
        with pytest.raises(KeyError):
            get_method("M9")

    def test_bias_correction_flags(self):
        assert get_method("M4").wants_bias_correction is True
        assert get_method("M5").wants_bias_correction is False
        assert get_method("M1").wants_bias_correction is False


class TestACIQ:
    def test_clipping_tightens_with_fewer_bits(self):
        assert laplace_clip_multiplier(2) < laplace_clip_multiplier(8)

    def test_heavy_tailed_tensor_gets_clipped(self):
        rng = np.random.default_rng(3)
        values = rng.laplace(0.0, 0.1, size=5000)
        values[:5] = 50.0  # extreme outliers
        params = ACIQQuantizer(bias_correction=False).weight_params(values.reshape(1, -1), 4)
        max_representable = float(np.max(np.abs(params.dequantize(np.array([0, 15])))))
        assert max_representable < 40.0

    def test_clipping_beats_minmax_on_outliers(self):
        rng = np.random.default_rng(4)
        values = rng.normal(0.0, 0.1, size=(4, 1000))
        values[:, 0] = 1.5
        aciq_error = ACIQQuantizer(bias_correction=False).weight_params(values, 3).quantization_error(values)
        minmax_error = AsymmetricMinMaxQuantizer().weight_params(values, 3).quantization_error(values)
        assert aciq_error < minmax_error

    def test_bias_correction_restores_channel_means(self, gaussian_weights):
        method = ACIQQuantizer(bias_correction=True)
        encode = method.weight_params(gaussian_weights, 3)
        corrected = corrected_weight_params(gaussian_weights, encode, channel_axis=0)
        codes = encode.quantize(gaussian_weights)
        plain_means = encode.dequantize(codes).reshape(8, -1).mean(axis=1)
        corrected_means = corrected.dequantize(codes).reshape(8, -1).mean(axis=1)
        true_means = gaussian_weights.reshape(8, -1).mean(axis=1)
        assert np.abs(corrected_means - true_means).mean() < np.abs(plain_means - true_means).mean() + 1e-12

    def test_invalid_prior(self):
        with pytest.raises(ValueError):
            ACIQQuantizer(prior="cauchy")


class TestLAPQ:
    def test_exponent_mapping(self):
        assert lp_exponent_for_bits(2) == pytest.approx(2.0)
        assert lp_exponent_for_bits(8) == pytest.approx(4.0)
        assert 2.0 <= lp_exponent_for_bits(5) <= 4.0

    def test_clip_never_exceeds_max_abs(self, gaussian_weights):
        params = LAPQQuantizer().weight_params(gaussian_weights, 4, per_channel=False)
        grid_max = float(np.max(np.abs(params.dequantize(np.array([0, params.max_level])))))
        assert grid_max <= np.abs(gaussian_weights).max() * 1.05

    def test_objective_improves_over_no_clipping(self):
        rng = np.random.default_rng(5)
        values = rng.normal(0.0, 0.05, size=4000)
        values[:30] = 1.5
        lapq_error = LAPQQuantizer().weight_params(values.reshape(1, -1), 4).quantization_error(values)
        naive_error = UniformSymmetricQuantizer().weight_params(values.reshape(1, -1), 4).quantization_error(values)
        assert lapq_error < naive_error

    def test_invalid_candidates(self):
        with pytest.raises(ValueError):
            LAPQQuantizer(num_candidates=1)


# ----------------------------------------------------------- per-row oracles
# The calibration searches as they ran one row at a time before they were
# batched over the rows of a tensor: scipy's bounded minimiser over a
# QuantParams Lp error (LAPQ), and a per-row prior choice and scale (ACIQ).
# The batched methods must reproduce them bit for bit.


def _oracle_lp_error(values, clip, num_bits, p, one_sided):
    if clip <= 0:
        return float("inf")
    if one_sided:
        params = QuantParams.from_range(0.0, clip, num_bits)
    else:
        params = QuantParams.symmetric(clip, num_bits)
    error = np.abs(params.quantize_dequantize(values) - values)
    return float(np.mean(error**p))


def _oracle_lapq_clip(values, num_bits, one_sided, num_candidates=12, maxiter=500):
    """(clip, index of the best grid candidate or None, refinement steps) of one tensor."""
    values = np.asarray(values, dtype=np.float64)
    p = lp_exponent_for_bits(num_bits)
    max_abs = float(np.abs(values).max())
    if max_abs <= 0:
        return 1e-8, None, 0
    candidates = np.linspace(0.2 * max_abs, max_abs, num_candidates)
    errors = [_oracle_lp_error(values, c, num_bits, p, one_sided) for c in candidates]
    best = int(np.argmin(errors))
    low = candidates[max(best - 1, 0)]
    high = candidates[min(best + 1, len(candidates) - 1)]
    if high <= low:
        return float(candidates[best]), best, 0
    result = minimize_scalar(
        lambda c: _oracle_lp_error(values, c, num_bits, p, one_sided),
        bounds=(low, high),
        method="bounded",
        options={"xatol": max_abs * 1e-3, "maxiter": maxiter},
    )
    best_clip = float(result.x) if result.success else float(candidates[best])
    # scipy counts the evaluation before the first step.
    return max(best_clip, 1e-8), best, result.nfev - 1


def _oracle_lapq_weight_params(weights, num_bits, num_candidates=12, per_channel=True, maxiter=500):
    if per_channel and weights.ndim > 1:
        clips = np.array(
            [
                _oracle_lapq_clip(row, num_bits, False, num_candidates, maxiter)[0]
                for row in weights.reshape(weights.shape[0], -1)
            ]
        )
        return QuantParams.symmetric(clips, num_bits, channel_axis=0)
    clip = _oracle_lapq_clip(weights, num_bits, False, num_candidates, maxiter)[0]
    return QuantParams.symmetric(clip, num_bits)


def _oracle_lapq_activation_params(samples, num_bits, num_candidates=12):
    if float(samples.min()) >= 0.0:
        clip = _oracle_lapq_clip(samples, num_bits, True, num_candidates)[0]
        return QuantParams.from_range(0.0, clip, num_bits)
    clip = _oracle_lapq_clip(samples, num_bits, False, num_candidates)[0]
    return QuantParams.symmetric(clip, num_bits)


def _oracle_aciq_prior(values, prior):
    if prior != "auto":
        return prior
    centred = values - values.mean()
    variance = float(np.mean(centred**2))
    denominator = variance * variance
    if denominator <= 0.0 or not np.isfinite(denominator):
        return "gauss"
    kurtosis = float(np.mean(centred**4)) / denominator
    return "laplace" if kurtosis >= 4.5 else "gauss"


def _oracle_aciq_multiplier(num_bits, prior):
    if prior == "laplace":
        return laplace_clip_multiplier(num_bits)
    return gaussian_clip_multiplier(num_bits)


def _oracle_aciq_threshold(values, num_bits, prior):
    values = np.asarray(values, dtype=np.float64)
    prior = _oracle_aciq_prior(values, prior)
    mean = float(values.mean())
    if prior == "laplace":
        scale = float(np.abs(values - mean).mean())
    else:
        scale = float(values.std())
    return max(_oracle_aciq_multiplier(num_bits, prior) * scale, 1e-8)


def _oracle_aciq_one_sided_threshold(values, num_bits, prior):
    positive = values[values > 0]
    if positive.size == 0:
        return 1e-8
    prior = _oracle_aciq_prior(positive, prior)
    scale = float(positive.mean()) if prior == "laplace" else float(positive.std() + positive.mean())
    return max(_oracle_aciq_multiplier(num_bits, prior) * max(scale, 1e-12), 1e-8)


def _oracle_aciq_weight_params(weights, num_bits, prior, per_channel=True):
    if per_channel and weights.ndim > 1:
        moved = weights.reshape(weights.shape[0], -1)
        thresholds = np.array([_oracle_aciq_threshold(row, num_bits, prior) for row in moved])
        max_abs = np.abs(moved).max(axis=1)
        clip = np.minimum(thresholds, np.where(max_abs <= 0, 1e-8, max_abs))
        return QuantParams.symmetric(clip, num_bits, channel_axis=0)
    threshold = _oracle_aciq_threshold(weights, num_bits, prior)
    clip = min(threshold, float(np.abs(weights).max()) or 1e-8)
    return QuantParams.symmetric(clip, num_bits)


def _oracle_aciq_activation_params(samples, num_bits, prior):
    minimum = float(samples.min())
    maximum = float(samples.max())
    if minimum >= 0.0:
        upper = min(maximum, _oracle_aciq_one_sided_threshold(samples, num_bits, prior))
        return QuantParams.from_range(0.0, max(upper, 1e-8), num_bits)
    threshold = _oracle_aciq_threshold(samples, num_bits, prior)
    mean = float(samples.mean())
    upper = min(maximum, mean + threshold)
    lower = max(minimum, mean - threshold)
    return QuantParams.from_range(lower, upper, num_bits)


def _assert_same_params(got, expected):
    assert got.scale.shape == expected.scale.shape
    assert got.scale.tobytes() == expected.scale.tobytes()
    assert got.zero_point.tobytes() == expected.zero_point.tobytes()
    assert (got.num_bits, got.channel_axis) == (expected.num_bits, expected.channel_axis)


def _weight_tensors():
    rng = np.random.default_rng(7)
    outliers = rng.normal(0.0, 0.05, size=(12, 40))
    outliers[rng.random(outliers.shape) < 0.03] *= 60.0
    mixed = rng.normal(0.0, 0.3, size=(6, 20))
    mixed[0] = 0.0
    mixed[1] = 0.25
    mixed[2] = -1.5
    # At 2 bits row 0's Lp optimum is the smallest grid candidate and row
    # 1's the largest (test_grid_optimum_at_either_end_is_covered).
    signs = np.where(rng.random(63) < 0.5, -1.0, 1.0)
    grid_ends = np.stack([np.r_[1.0, 0.2 * signs], np.r_[1.0, signs]])
    return {
        "gaussian": rng.normal(0.0, 0.2, size=(16, 3, 3, 3)),
        "laplace": rng.laplace(0.0, 0.1, size=(10, 30)),
        "outliers": outliers,
        "zero_and_constant": mixed,
        "length_one": rng.normal(0.0, 1.0, size=(9, 1)),
        "grid_ends": grid_ends,
    }


def _activation_samples():
    rng = np.random.default_rng(8)
    # LAPQ evaluates an activation's nonzero samples only, but must sum the
    # errors over the full row.  The zero counts (2851, 3001) are multiples
    # of neither 8 nor 128, so a sum over the compacted row would group the
    # terms differently from numpy's pairwise sum over the full row.
    sparse = np.zeros(3001)
    sparse[rng.choice(sparse.size, 150, replace=False)] = rng.exponential(1.0, 150)
    single = np.zeros(3002)
    single[1234] = 0.75
    return {
        "relu": np.maximum(rng.normal(0.0, 1.0, size=3000), 0.0),
        "signed": rng.laplace(0.0, 0.5, size=3000),
        "all_zero": np.zeros(500),
        "sparse_relu": sparse,
        "one_nonzero": single,
        "zero_free": rng.exponential(1.0, size=3001) + 1e-3,
    }


_WEIGHTS = _weight_tensors()
_SAMPLES = _activation_samples()
_BITS = list(range(2, 9))


class TestBatchedCalibrationMatchesPerRowOracle:
    @pytest.mark.parametrize("num_candidates", [12, 2])
    @pytest.mark.parametrize("name", sorted(_WEIGHTS))
    @pytest.mark.parametrize("num_bits", _BITS)
    def test_lapq_weight_params(self, num_bits, name, num_candidates):
        weights = _WEIGHTS[name]
        method = LAPQQuantizer(num_candidates=num_candidates)
        for per_channel in (True, False):
            _assert_same_params(
                method.weight_params(weights, num_bits, per_channel=per_channel),
                _oracle_lapq_weight_params(weights, num_bits, num_candidates, per_channel),
            )

    def test_grid_optimum_at_either_end_is_covered(self):
        bests = [_oracle_lapq_clip(row, 2, False)[1] for row in _WEIGHTS["grid_ends"]]
        assert bests == [0, 11]

    @pytest.mark.parametrize("num_candidates", [12, 2])
    @pytest.mark.parametrize("name", sorted(_SAMPLES))
    @pytest.mark.parametrize("num_bits", _BITS)
    def test_lapq_activation_params(self, num_bits, name, num_candidates):
        samples = _SAMPLES[name]
        _assert_same_params(
            LAPQQuantizer(num_candidates=num_candidates).activation_params(samples, num_bits),
            _oracle_lapq_activation_params(samples, num_bits, num_candidates),
        )

    @pytest.mark.parametrize("name", sorted(_SAMPLES))
    @pytest.mark.parametrize("num_bits", _BITS)
    def test_lapq_activation_refinement_steps(self, num_bits, name):
        samples = _SAMPLES[name]
        with observability.collecting() as recorded:
            LAPQQuantizer().activation_params(samples, num_bits)
        one_sided = bool(samples.min() >= 0.0)
        steps = _oracle_lapq_clip(samples, num_bits, one_sided)[2]
        assert recorded.metrics.counter("quantization.lapq.refine_steps") == steps

    def test_evaluation_cap_falls_back_to_best_candidate(self, monkeypatch):
        monkeypatch.setattr(lapq, "MAX_EVALUATIONS", 3)
        weights = _WEIGHTS["outliers"]
        capped = LAPQQuantizer().weight_params(weights, 4)
        _assert_same_params(capped, _oracle_lapq_weight_params(weights, 4, maxiter=3))
        # Every refined row hit the cap, so every clip is a grid candidate.
        half_levels = (1 << 3) - 1
        for clip, max_abs in zip(capped.scale * half_levels, np.abs(weights).max(axis=1)):
            assert np.isclose(np.linspace(0.2 * max_abs, max_abs, 12), clip, rtol=1e-15).any()
        monkeypatch.undo()
        refined = LAPQQuantizer().weight_params(weights, 4)
        assert refined.scale.tobytes() != capped.scale.tobytes()

    @pytest.mark.parametrize("prior", ["laplace", "gauss", "auto"])
    @pytest.mark.parametrize("num_bits", _BITS)
    def test_aciq_weight_and_activation_params(self, num_bits, prior):
        for bias_correction in (True, False):
            method = ACIQQuantizer(bias_correction=bias_correction, prior=prior)
            for weights in _WEIGHTS.values():
                for per_channel in (True, False):
                    _assert_same_params(
                        method.weight_params(weights, num_bits, per_channel=per_channel),
                        _oracle_aciq_weight_params(weights, num_bits, prior, per_channel),
                    )
            for samples in _SAMPLES.values():
                _assert_same_params(
                    method.activation_params(samples, num_bits),
                    _oracle_aciq_activation_params(samples, num_bits, prior),
                )

    def test_non_finite_values_are_rejected(self):
        weights = _WEIGHTS["gaussian"].copy()
        weights[3, 0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            LAPQQuantizer().weight_params(weights, 4)


class TestLAPQTelemetry:
    def test_rows_and_refine_steps_are_recorded(self):
        with observability.collecting() as recorded:
            LAPQQuantizer().weight_params(_WEIGHTS["gaussian"], 4)
            LAPQQuantizer().activation_params(_SAMPLES["relu"], 4)
        assert recorded.metrics.counter("quantization.lapq.rows") == 16 + 1
        assert recorded.metrics.counter("quantization.lapq.refine_steps") > 0

    def test_clips_identical_with_observability_on_and_off(self):
        weights = _WEIGHTS["outliers"]
        plain = LAPQQuantizer().weight_params(weights, 5)
        with observability.collecting():
            traced = LAPQQuantizer().weight_params(weights, 5)
        assert plain.scale.tobytes() == traced.scale.tobytes()


# ------------------------------------------------ one search over many tensors
# A context calibrates every layer of one (side, bit width) in one call; the
# clips and the refinement-step count must be those of one call per tensor.


def _per_tensor_clips(method, tensors, num_bits):
    """(clips, summed refine_steps) of one ``_optimise_clips`` call per tensor."""
    clips, steps = [], 0
    for tensor in tensors:
        with observability.collecting() as recorded:
            clips.append(method._optimise_clips([tensor], num_bits)[0])
        steps += recorded.metrics.counter("quantization.lapq.refine_steps")
    return clips, steps


def _assert_batched_equals_per_tensor(tensors, num_bits, num_candidates=12):
    method = LAPQQuantizer(num_candidates=num_candidates)
    expected, expected_steps = _per_tensor_clips(method, tensors, num_bits)
    with observability.collecting() as recorded:
        batched = method._optimise_clips(tensors, num_bits)
    assert [clips.tobytes() for clips in batched] == [clips.tobytes() for clips in expected]
    assert recorded.metrics.counter("quantization.lapq.refine_steps") == expected_steps
    assert recorded.metrics.counter("quantization.lapq.rows") == sum(len(r) for r, _ in tensors)
    return batched, expected_steps


def _mixed_tensors():
    """Weight rows (two-sided) and activation rows of both signs, interleaved."""
    tensors = []
    for weights, (name, samples) in zip(_WEIGHTS.values(), sorted(_SAMPLES.items())):
        tensors.append((weights.reshape(len(weights), -1), False))
        tensors.append((samples.reshape(1, -1), bool(samples.min() >= 0.0)))
    return tensors


class TestLayerBatchedLAPQ:
    @pytest.mark.parametrize("num_candidates", [12, 2])
    @pytest.mark.parametrize("num_bits", [2, 4, 5, 8])
    def test_mixed_one_and_two_sided_tensors(self, num_bits, num_candidates):
        tensors = _mixed_tensors()
        assert {one_sided for _, one_sided in tensors} == {True, False}
        _, steps = _assert_batched_equals_per_tensor(tensors, num_bits, num_candidates)
        assert steps > 0

    def test_all_zero_activation_keeps_the_floor_clip(self):
        tensors = [(_SAMPLES["all_zero"].reshape(1, -1), True), *_mixed_tensors()[:3]]
        batched, _ = _assert_batched_equals_per_tensor(tensors, 4)
        assert batched[0].tolist() == [1e-8]

    def test_row_with_an_empty_bracket(self):
        # A denormal range collapses the grid, so this row's best candidate
        # has high <= low and is kept without refinement.
        tiny = np.zeros((1, 30))
        tiny[0, :3] = [2e-323, -2e-323, 1e-323]
        assert lapq._TensorSearch(tiny, False, 4, 12).search.size == 0
        rows = np.vstack([_WEIGHTS["laplace"][:3], tiny, _WEIGHTS["laplace"][3:]])
        tensors = [(rows, False), (_SAMPLES["relu"].reshape(1, -1), True), (tiny, False)]
        _assert_batched_equals_per_tensor(tensors, 4)

    def test_evaluation_cap(self, monkeypatch):
        monkeypatch.setattr(lapq, "MAX_EVALUATIONS", 3)
        capped, _ = _assert_batched_equals_per_tensor(_mixed_tensors(), 4)
        monkeypatch.undo()
        refined, _ = _assert_batched_equals_per_tensor(_mixed_tensors(), 4)
        assert [c.tobytes() for c in capped] != [c.tobytes() for c in refined]

    def test_many_calls_equal_one_tensor_calls(self):
        method = LAPQQuantizer()
        weights = list(_WEIGHTS.values())
        samples = list(_SAMPLES.values())
        for got, one in zip(method.weight_params_many(weights, 5), weights):
            _assert_same_params(got, method.weight_params(one, 5))
        for got, one in zip(method.weight_params_many(weights, 5, per_channel=False), weights):
            _assert_same_params(got, method.weight_params(one, 5, per_channel=False))
        for got, one in zip(method.activation_params_many(samples, 3), samples):
            _assert_same_params(got, method.activation_params(one, 3))

    @pytest.mark.parametrize("key", ["M1", "M2", "M4", "M5"])
    def test_default_many_calls_loop_over_tensors(self, key):
        method = get_method(key)
        weights = list(_WEIGHTS.values())
        samples = list(_SAMPLES.values())
        for got, one in zip(method.weight_params_many(weights, 4), weights):
            _assert_same_params(got, method.weight_params(one, 4))
        for got, one in zip(method.activation_params_many(samples, 6), samples):
            _assert_same_params(got, method.activation_params(one, 6))

    def test_non_finite_tensor_is_rejected_in_a_batch(self):
        weights = _WEIGHTS["gaussian"].copy()
        weights[3, 0, 0, 0] = np.inf
        with pytest.raises(ValueError):
            LAPQQuantizer().weight_params_many([_WEIGHTS["laplace"], weights], 4)
