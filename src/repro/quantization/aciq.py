"""ACIQ: analytical clipping for integer quantization (Banner et al. [18]).

ACIQ models the tensor distribution as Laplace (or Gaussian) and clips it at
the threshold that minimises the combined clipping + rounding mean-squared
error.  The optimal threshold has a closed form ``alpha* = k(bits) * b``
where ``b`` is the Laplace scale (mean absolute deviation) or the Gaussian
standard deviation.  The method was designed for very low bit-widths (4-bit)
and therefore dominates the naive range-based methods exactly where the
paper needs it: at the large (α, β) compressions of the late aging levels.

An optional bias-correction step (the paper's M4 vs M5 distinction) removes
the per-channel mean/variance shift that quantization introduces in the
weights.
"""

from __future__ import annotations

import numpy as np

from repro.quantization.base import QuantParams, QuantizationMethod

#: Optimal clipping multipliers ``alpha* / b`` for a Laplace(0, b) prior,
#: indexed by bit-width (Banner et al., NeurIPS 2019, Eq. 6 solutions).
_LAPLACE_CLIP_MULTIPLIERS = {
    1: 1.86,
    2: 2.83,
    3: 3.89,
    4: 5.03,
    5: 6.20,
    6: 7.41,
    7: 8.64,
    8: 9.89,
}

#: Optimal clipping multipliers ``alpha* / sigma`` for a Gaussian prior.
_GAUSSIAN_CLIP_MULTIPLIERS = {
    1: 1.24,
    2: 1.71,
    3: 2.15,
    4: 2.55,
    5: 2.93,
    6: 3.28,
    7: 3.61,
    8: 3.92,
}


def laplace_clip_multiplier(num_bits: int) -> float:
    """Optimal Laplace clipping multiplier for ``num_bits`` (clamped to 8)."""
    return _LAPLACE_CLIP_MULTIPLIERS[min(max(num_bits, 1), 8)]


def gaussian_clip_multiplier(num_bits: int) -> float:
    """Optimal Gaussian clipping multiplier for ``num_bits`` (clamped to 8)."""
    return _GAUSSIAN_CLIP_MULTIPLIERS[min(max(num_bits, 1), 8)]


class ACIQQuantizer(QuantizationMethod):
    """ACIQ analytical clipping, with or without bias correction.

    Args:
        bias_correction: when True the quantized-model builder re-centres the
            quantized weights per channel (paper's M4); when False it does
            not (paper's M5).
        prior: ``"laplace"``, ``"gauss"``, or ``"auto"`` (default) which
            selects per tensor based on the sample's tail weight.
    """

    def __init__(self, bias_correction: bool = True, prior: str = "auto") -> None:
        if prior not in ("laplace", "gauss", "auto"):
            raise ValueError("prior must be 'laplace', 'gauss' or 'auto'")
        self._bias_correction = bias_correction
        self.prior = prior
        self.key = "M4" if bias_correction else "M5"
        self.name = "ACIQ" if bias_correction else "ACIQ w/o bias correction"

    @property
    def wants_bias_correction(self) -> bool:
        return self._bias_correction

    @property
    def calibration_key(self) -> tuple:
        # Bias correction only changes the decode, not the clipping, so M4
        # and M5 share their thresholds.
        return (type(self), self.prior)

    # ------------------------------------------------------------------ ranges
    def _laplace_rows(self, rows: np.ndarray) -> np.ndarray:
        """Per row of ``rows`` (R, K): whether the Laplace prior fits it.

        ACIQ fits the tensor to a known distribution before applying the
        analytic threshold.  We use the excess kurtosis as the fit criterion:
        a Laplace distribution has kurtosis 6, a Gaussian 3; heavy-tailed
        samples therefore use the (tighter-clipping) Laplace threshold while
        light-tailed samples fall back to the Gaussian one.
        """
        if self.prior != "auto":
            return np.full(len(rows), self.prior == "laplace")
        centred = rows - rows.mean(axis=1, keepdims=True)
        variance = np.mean(centred**2, axis=1)
        denominator = variance * variance
        # Constant (or numerically constant) rows carry no tail information;
        # the Gaussian threshold is the milder choice.
        informative = ~(denominator <= 0.0) & np.isfinite(denominator)
        kurtosis = np.mean(centred**4, axis=1) / np.where(informative, denominator, 1.0)
        return informative & (kurtosis >= 4.5)

    def _clip_threshold(self, rows: np.ndarray, num_bits: int) -> np.ndarray:
        """Two-sided clipping threshold (distance from the mean) of each row.

        ``rows`` is (R, K): the output channels of a weight tensor, or one
        row holding a whole tensor.  Each row gets its own prior and its
        Laplace scale (mean absolute deviation) or Gaussian one (standard
        deviation), reduced along the row.
        """
        rows = np.asarray(rows, dtype=np.float64)
        laplace = self._laplace_rows(rows)
        mean = rows.mean(axis=1, keepdims=True)
        scale = np.where(laplace, np.abs(rows - mean).mean(axis=1), rows.std(axis=1))
        multiplier = np.where(
            laplace, laplace_clip_multiplier(num_bits), gaussian_clip_multiplier(num_bits)
        )
        return np.maximum(multiplier * scale, 1e-8)

    def _one_sided_threshold(self, values: np.ndarray, num_bits: int) -> float:
        """Upper clipping threshold for non-negative (post-ReLU) tensors.

        Post-ReLU activations are a mass at zero plus a one-sided tail; the
        Laplace/Gaussian scale must be estimated from the tail, otherwise the
        zeros shrink the estimate and the threshold clips real signal.
        """
        values = np.asarray(values, dtype=np.float64)
        positive = values[values > 0]
        if positive.size == 0:
            return 1e-8
        if self._laplace_rows(positive.reshape(1, -1))[0]:
            scale = float(positive.mean())
            multiplier = laplace_clip_multiplier(num_bits)
        else:
            scale = float(positive.std() + positive.mean())
            multiplier = gaussian_clip_multiplier(num_bits)
        threshold = multiplier * max(scale, 1e-12)
        return max(threshold, 1e-8)

    def weight_params(
        self,
        weights: np.ndarray,
        num_bits: int,
        per_channel: bool = True,
        channel_axis: int = 0,
    ) -> QuantParams:
        weights = np.asarray(weights, dtype=np.float64)
        if per_channel and weights.ndim > 1:
            moved = np.moveaxis(weights, channel_axis, 0).reshape(weights.shape[channel_axis], -1)
            thresholds = self._clip_threshold(moved, num_bits)
            max_abs = np.abs(moved).max(axis=1)
            clip = np.minimum(thresholds, np.where(max_abs <= 0, 1e-8, max_abs))
            return QuantParams.symmetric(clip, num_bits, channel_axis=channel_axis)
        threshold = float(self._clip_threshold(weights.reshape(1, -1), num_bits)[0])
        clip = min(threshold, float(np.abs(weights).max()) or 1e-8)
        return QuantParams.symmetric(clip, num_bits)

    def activation_params(self, samples: np.ndarray, num_bits: int) -> QuantParams:
        samples = np.asarray(samples, dtype=np.float64)
        minimum = float(samples.min())
        maximum = float(samples.max())
        if minimum >= 0.0:
            # Post-ReLU activations: one-sided distribution, clip the upper tail.
            upper = min(maximum, self._one_sided_threshold(samples, num_bits))
            return QuantParams.from_range(0.0, max(upper, 1e-8), num_bits)
        threshold = float(self._clip_threshold(samples.reshape(1, -1), num_bits)[0])
        mean = float(samples.mean())
        upper = min(maximum, mean + threshold)
        lower = max(minimum, mean - threshold)
        return QuantParams.from_range(lower, upper, num_bits)


def corrected_weight_params(
    weights: np.ndarray,
    params: QuantParams,
    channel_axis: int = 0,
) -> QuantParams:
    """Bias-corrected *decode* parameters for a quantized weight tensor.

    Quantization biases the per-channel mean and shrinks/expands the
    per-channel spread of a weight tensor.  Banner et al. correct both by
    matching the statistics of the de-quantized weights to the originals.
    The correction is a per-channel affine transform of the de-quantized
    values, which folds exactly into a new (scale, zero-point) pair:
    the integer codes produced by ``params.quantize`` stay unchanged, but
    decoding (and therefore the integer-MAC scaling maths) uses the
    corrected parameters returned here.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim < 1:
        raise ValueError("weights must have at least one dimension")
    dequantized = params.dequantize(params.quantize(weights))
    channels = weights.shape[channel_axis]
    moved_orig = np.moveaxis(weights, channel_axis, 0).reshape(channels, -1)
    moved_quant = np.moveaxis(dequantized, channel_axis, 0).reshape(channels, -1)
    mean_orig = moved_orig.mean(axis=1)
    mean_quant = moved_quant.mean(axis=1)
    std_orig = moved_orig.std(axis=1)
    std_quant = moved_quant.std(axis=1)
    gamma = np.where(std_quant > 1e-12, std_orig / np.maximum(std_quant, 1e-12), 1.0)

    base_scale = np.broadcast_to(np.asarray(params.scale, dtype=np.float64), (channels,)).copy()
    base_zero = np.broadcast_to(np.asarray(params.zero_point, dtype=np.float64), (channels,)).copy()
    corrected_scale = gamma * base_scale
    # corrected(w) = gamma * (deq(w) - mean_quant) + mean_orig
    #              = corrected_scale * (q - corrected_zero_point)
    corrected_zero = base_zero + (gamma * mean_quant - mean_orig) / np.maximum(corrected_scale, 1e-18)
    return QuantParams(
        scale=corrected_scale,
        zero_point=corrected_zero,
        num_bits=params.num_bits,
        channel_axis=channel_axis,
    )
