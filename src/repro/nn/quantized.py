"""Integer (quantized) execution of trained models.

This module turns an FP32 :class:`~repro.nn.model.Model` into the integer
inference the paper's NPU performs:

* activations are quantized to ``8-α`` bits, weights to ``8-β`` bits and
  biases to ``16-α-β`` bits (per Section V of the paper),
* every convolution / dense layer computes the raw unsigned products
  ``q_a * q_w`` — exactly what the 8-bit MAC multiplier produces — followed
  by the zero-point corrections and rescaling (the zero-point expansion of
  Jacob et al., arXiv:1712.05877, whose weight-side terms are fixed per
  layer when the :class:`QuantizationContext` is built),
* an optional :class:`~repro.nn.faults.MsbBitFlipInjector` perturbs those
  raw products to model aging-induced timing errors of an unprotected NPU.

The quantization *method* (M1..M5) only decides the clipping ranges; the
execution path is identical for all methods, so accuracy differences are
attributable to the range/bias-correction choices alone, as in the paper.

Run-phase contract: calibration runs first, once per model and calibration
set, in :func:`record_calibration`, which passes ``forward_quantized`` a
recorder that computes in FP32 and keeps a sample of every quantizable
layer's inputs (a :class:`CalibrationRecording`).  A
:class:`QuantizationContext` is then built from ``(method, bit widths,
recording)`` with every layer's parameters fixed, and only runs integer
inference.  A method's clipping of a layer depends only on the method's
settings, the recorded tensor and that operand's bit width, so the recording
memoises it: each (method, layer, bit width) is calibrated once per
recording, however many configurations are built from it.  In the run
phase, a layer first asks :meth:`QuantizationContext.layer_input` for its
operand — the activation codes of its whole input, quantized once —
and then passes those codes (im2col-unfolded for a convolution, padded with
the code of 0.0) to :meth:`QuantizationContext.linear`.  Activation
parameters are per-tensor and quantization is elementwise, so this equals
quantizing the unfolded FP32 columns, without quantizing every input value
once per kernel tap.

Codes are held in floating point so the integer GEMM runs on BLAS.  Every
product and partial sum is a non-negative integer no larger than the full
sum, so a layer whose largest possible accumulator is below ``2**24`` gets
exact results from a float32 GEMM in any summation order; each layer picks
float32 where that bound holds (:attr:`LayerQuantization.code_dtype`) and
float64 (exact below ``2**53``) elsewhere.  The same GEMM yields the
activation row sums of the zero-point expansion through an all-ones column
appended to the weight codes, so the column matrix is read once.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

import numpy as np

import repro.observability as observability
from repro.nn.faults import MsbBitFlipInjector
from repro.nn.layers import Layer
from repro.nn.model import Model
from repro.quantization.aciq import corrected_weight_params
from repro.quantization.base import QuantizationMethod, QuantParams
from repro.utils.rng import make_rng


@dataclass
class LayerQuantization:
    """Frozen quantization data of one convolution/dense layer.

    Attributes:
        activation: parameters of the layer's input activations.
        weight_encode: grid used to produce the integer weight codes.
        weight_decode: parameters used to interpret the codes (differs from
            ``weight_encode`` only when bias correction is applied).
        quantized_weights: unsigned integer weight codes, shape (N, K).
        quantized_bias: integer bias codes at the accumulator scale.
        bias_scale: per-output-channel scale of the accumulator
            (``s_a * s_w``).

    The remaining attributes are derived once, for the run phase:

    * ``activation_pad``: the code of real 0.0, which pads unfolded codes.
    * ``code_dtype``: float32 when ``activation.max_level`` times the
      largest column sum of ``gemm_operand`` is below ``2**24`` (every
      partial sum of the GEMM is then an exact float32 integer), else
      float64.  Activation codes and both operands below use it.
    * ``gemm_operand``: the (K, N + 1) GEMM operand ``[q_w | 1]``, the
      weight codes with an all-ones column whose product is each row's
      activation code sum (the ones column counts toward the bound).
    * ``weight_codes``: the contiguous (K, N) weight codes, which the fault
      injector gathers hit products from.
    * ``weight_zero``: the per-channel decode zero points ``z_w``.
    * ``zero_col_sums`` and ``zero_product``: the constant zero-point terms
      ``z_a * sum_k q_w`` and ``K * z_a * z_w``.
    """

    activation: QuantParams
    weight_encode: QuantParams
    weight_decode: QuantParams
    quantized_weights: np.ndarray
    quantized_bias: np.ndarray
    bias_scale: np.ndarray
    activation_pad: float = field(init=False)
    code_dtype: type = field(init=False)
    gemm_operand: np.ndarray = field(init=False, repr=False)
    weight_codes: np.ndarray = field(init=False, repr=False)
    weight_zero: np.ndarray = field(init=False, repr=False)
    zero_col_sums: np.ndarray = field(init=False, repr=False)
    zero_product: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        channels, inner = self.quantized_weights.shape
        activation_zero = float(np.asarray(self.activation.zero_point).reshape(-1)[0])
        self.activation_pad = float(self.activation.quantize(0.0))
        operand = np.ones((inner, channels + 1))
        operand[:, :channels] = self.quantized_weights.T
        column_sums = operand.sum(axis=0)
        bound = self.activation.max_level * column_sums.max()
        self.code_dtype = np.float32 if bound < 2**24 else np.float64
        self.gemm_operand = operand.astype(self.code_dtype)
        self.weight_codes = np.ascontiguousarray(self.gemm_operand[:, :channels])
        self.weight_zero = np.broadcast_to(
            np.asarray(self.weight_decode.zero_point, dtype=np.float64), (channels,)
        )
        self.zero_col_sums = activation_zero * column_sums[:channels]
        self.zero_product = inner * activation_zero * self.weight_zero


# Calibration subsamples each layer's inputs to at most this many values
# (seed-0 draws), and runs the model on batches of this many images.
_CALIBRATION_SAMPLE_CAP = 16384
_CALIBRATION_BATCH = 64


@dataclass(frozen=True)
class CalibrationRecording:
    """FP32 calibration observations captured once, reusable across configs.

    The calibration forward pass only depends on the model and the
    calibration data — not on the quantization method or bit widths — so
    :func:`record_calibration` runs it once and every ``(method,
    activation_bits, weight_bits)`` configuration (Algorithm 1's method
    search, the Section VI-B ablation grid) is built from the recording.

    Building also memoises, on the recording, what it derives per tensor:
    the activation parameters per (method, layer, activation bits), and the
    weight grid with its codes per (method, layer, weight bits), plus the
    bias-corrected decode beside them.  The method part of each key is its
    :attr:`~repro.quantization.base.QuantizationMethod.calibration_key`, so
    M4 and M5 share their clipping.  Building only adds memo entries;
    ``observations`` and ``layer_tensors`` (a copy of the weights taken
    when recording) never change.  A new recording starts with an empty
    memo, and the memo is not pickled, so a recording shipped to a worker
    process arrives without it.
    """

    observations: dict[str, np.ndarray]
    layer_tensors: dict[str, tuple[np.ndarray, np.ndarray]]
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_memo"] = {}
        return state

    def memoised(self, side: str, key: tuple, compute: Callable[[], Any]) -> Any:
        """The memo entry ``(side, key)``, computed by ``compute()`` on a miss.

        Hits and misses are counted per side as
        ``quantization.calibration.<side>.hits`` / ``.misses``.
        """
        try:
            value = self._memo[side, key]
        except KeyError:
            observability.add(f"quantization.calibration.{side}.misses")
            value = self._memo[side, key] = compute()
        else:
            observability.add(f"quantization.calibration.{side}.hits")
        return value


class _CalibrationRecorder:
    """The stand-in context of the calibration pass.

    It runs every quantizable layer in FP32 while recording a sample of the
    layer's inputs and a reference to its weights.
    """

    def __init__(self) -> None:
        self.observations: dict[str, np.ndarray] = {}
        self.layer_tensors: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        self._rng = make_rng(0)

    def layer_input(self, layer: Layer, x: np.ndarray) -> tuple[np.ndarray, float]:
        return x, 0.0

    def linear(
        self, layer: Layer, inputs: np.ndarray, weights: np.ndarray, bias: np.ndarray
    ) -> np.ndarray:
        weights = weights.reshape(weights.shape[0], -1)
        self._observe(layer.name, inputs, weights, bias)
        return inputs @ weights.T + bias

    def _observe(
        self, layer_name: str, inputs: np.ndarray, weights: np.ndarray, bias: np.ndarray
    ) -> None:
        flat = np.asarray(inputs, dtype=np.float64).ravel()
        if flat.size > _CALIBRATION_SAMPLE_CAP:
            chosen = self._rng.choice(flat.size, size=_CALIBRATION_SAMPLE_CAP, replace=False)
            flat = flat[chosen]
        if layer_name in self.observations:
            combined = np.concatenate([self.observations[layer_name], flat])
            if combined.size > _CALIBRATION_SAMPLE_CAP:
                chosen = self._rng.choice(
                    combined.size, size=_CALIBRATION_SAMPLE_CAP, replace=False
                )
                combined = combined[chosen]
            self.observations[layer_name] = combined
        else:
            self.observations[layer_name] = flat
            # A copy, so later in-place edits of the model cannot reach the
            # recording or the clipping memoised on it.
            self.layer_tensors[layer_name] = (
                np.array(weights, dtype=np.float64),
                np.array(bias, dtype=np.float64),
            )


def record_calibration(model: Model, calibration_data: np.ndarray) -> CalibrationRecording:
    """Run the FP32 calibration pass once and return a reusable recording.

    The recording is method- and bit-width-independent; pass it to
    :meth:`QuantizedModel.build` to quantize the same model many times.
    """
    recorder = _CalibrationRecorder()
    with observability.span(
        "nn.record_calibration", category="nn", images=int(calibration_data.shape[0])
    ):
        for start in range(0, calibration_data.shape[0], _CALIBRATION_BATCH):
            model.forward_quantized(
                calibration_data[start : start + _CALIBRATION_BATCH], recorder
            )
    if not recorder.observations:
        raise RuntimeError(
            "no calibration data observed; the calibration set is empty or the "
            "model has no convolution/dense layer"
        )
    return CalibrationRecording(
        observations=recorder.observations, layer_tensors=recorder.layer_tensors
    )


class QuantizationContext:
    """Holds per-layer quantization state and executes the integer MACs.

    Every recorded layer's parameters are fixed at construction, from a
    :class:`CalibrationRecording` for one method and set of bit widths (the
    clipping comes from the recording's memo where an earlier build already
    calibrated that method, layer and width); :meth:`linear` then performs
    the integer computation.
    """

    def __init__(
        self,
        method: QuantizationMethod,
        activation_bits: int,
        weight_bits: int,
        calibration: CalibrationRecording,
        bias_bits: int | None = None,
    ) -> None:
        if activation_bits < 1 or weight_bits < 1:
            raise ValueError("activation_bits and weight_bits must be >= 1")
        self.method = method
        self.activation_bits = activation_bits
        self.weight_bits = weight_bits
        self.bias_bits = bias_bits if bias_bits is not None else activation_bits + weight_bits
        if self.bias_bits < 1:
            raise ValueError("bias_bits must be >= 1")
        self.fault_injector: MsbBitFlipInjector | None = None
        self.layer_params: dict[str, LayerQuantization] = {
            layer_name: self._build_layer_quantization(calibration, layer_name)
            for layer_name in calibration.observations
        }

    def _build_layer_quantization(
        self, calibration: CalibrationRecording, layer_name: str
    ) -> LayerQuantization:
        method = self.method
        samples = calibration.observations[layer_name]
        weights, bias = calibration.layer_tensors[layer_name]
        activation = calibration.memoised(
            "activation",
            (method.calibration_key, layer_name, self.activation_bits),
            lambda: method.activation_params(samples, self.activation_bits),
        )
        weight_key = (method.calibration_key, layer_name, self.weight_bits)
        weight_encode, quantized_weights = calibration.memoised(
            "weight", weight_key, lambda: self._weight_codes(weights)
        )
        if method.wants_bias_correction and weights.ndim > 1:
            weight_decode = calibration.memoised(
                "weight_decode",
                weight_key,
                lambda: corrected_weight_params(weights, weight_encode, channel_axis=0),
            )
        else:
            weight_decode = weight_encode

        activation_scale = float(np.asarray(activation.scale).reshape(-1)[0])
        weight_scale = np.broadcast_to(
            np.asarray(weight_decode.scale, dtype=np.float64), (weights.shape[0],)
        )
        bias_scale = activation_scale * weight_scale
        bias_limit = 1 << (self.bias_bits - 1) if self.bias_bits > 1 else 1
        quantized_bias = np.clip(
            np.round(bias / bias_scale), -bias_limit, bias_limit - 1
        )
        return LayerQuantization(
            activation=activation,
            weight_encode=weight_encode,
            weight_decode=weight_decode,
            quantized_weights=quantized_weights,
            quantized_bias=quantized_bias,
            bias_scale=bias_scale,
        )

    def _weight_codes(self, weights: np.ndarray) -> tuple[QuantParams, np.ndarray]:
        """The weight grid and the codes on it.

        The codes are read-only: every context built from the recording
        shares them.
        """
        encode = self.method.weight_params(weights, self.weight_bits, channel_axis=0)
        codes = encode.quantize(weights)
        codes.flags.writeable = False
        return encode, codes

    # -------------------------------------------------------------- execution
    def _params(self, layer: Layer) -> LayerQuantization:
        try:
            return self.layer_params[layer.name]
        except KeyError:
            raise KeyError(
                f"layer {layer.name!r} has no quantization parameters; "
                "was the calibration recorded on this model?"
            ) from None

    def layer_input(self, layer: Layer, x: np.ndarray) -> tuple[np.ndarray, float]:
        """The operand ``layer`` builds its :meth:`linear` input from, and its pad value.

        This is the activation codes of ``x`` (one quantization of the whole
        input) in the layer's ``code_dtype``, padded with the code of 0.0.
        """
        params = self._params(layer)
        return params.activation.quantize(x, params.code_dtype), params.activation_pad

    def linear(
        self,
        layer: Layer,
        inputs: np.ndarray,
        weights: np.ndarray,
        bias: np.ndarray,
    ) -> np.ndarray:
        """Quantized affine transform ``inputs @ weights.T + bias``.

        ``inputs`` is the (M, K) activation-code matrix (im2col columns for
        a convolution, features for a dense layer) built from
        :meth:`layer_input`.  The integer path runs on the layer's frozen
        weight codes; the FP32 ``weights`` and ``bias`` are not read.
        """
        return self._integer_linear(inputs, self._params(layer))

    def _integer_linear(self, q_activations: np.ndarray, params: LayerQuantization) -> np.ndarray:
        # Integer codes in ``code_dtype`` give an exact BLAS matmul (see
        # LayerQuantization); the epilogue runs in float64.  The last column
        # is each row's code sum, the rest the accumulated MAC products.
        accumulated = (q_activations @ params.gemm_operand).astype(np.float64, copy=False)
        raw, row_sums = accumulated[:, :-1], accumulated[:, -1:]
        if self.fault_injector is not None:
            deltas = self.fault_injector.accumulation_deltas(q_activations, params.weight_codes)
            if deltas is not None:
                raw += deltas

        # Strictly left to right: decode zero points may be non-integer (bias
        # correction), so reassociating the terms would change the result.
        accumulator = raw - row_sums * params.weight_zero
        accumulator -= params.zero_col_sums
        accumulator += params.zero_product
        accumulator += params.quantized_bias
        accumulator *= params.bias_scale
        return accumulator


class QuantizedModel:
    """A frozen quantized view of an FP32 model.

    Use :meth:`build` to construct from a :func:`record_calibration`
    recording; the object behaves like a read-only classifier (``forward`` /
    ``predict`` / ``accuracy``) running on the integer MAC path.
    """

    def __init__(self, model: Model, context: QuantizationContext) -> None:
        self.model = model
        self.context = context

    @classmethod
    def build(
        cls,
        model: Model,
        method: QuantizationMethod,
        activation_bits: int,
        weight_bits: int,
        calibration: CalibrationRecording,
        bias_bits: int | None = None,
    ) -> "QuantizedModel":
        """Quantize ``model`` with ``method`` from its calibration recording."""
        return cls(
            model, QuantizationContext(method, activation_bits, weight_bits, calibration, bias_bits)
        )

    # -------------------------------------------------------------- inference
    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.model.forward_quantized(x, self.context)

    def predict_logits(self, x: np.ndarray, batch_size: int = 256) -> np.ndarray:
        outputs = []
        for start in range(0, x.shape[0], batch_size):
            outputs.append(self.forward(x[start : start + batch_size]))
        return np.concatenate(outputs, axis=0)

    def predict(self, x: np.ndarray, batch_size: int = 256) -> np.ndarray:
        return self.predict_logits(x, batch_size).argmax(axis=1)

    def accuracy(self, x: np.ndarray, labels: np.ndarray, batch_size: int = 256) -> float:
        """Top-1 accuracy of the quantized model."""
        predictions = self.predict(x, batch_size)
        return float((predictions == np.asarray(labels)).mean())

    # ---------------------------------------------------------------- faults
    def set_fault_injector(self, injector: MsbBitFlipInjector | None) -> None:
        """Attach (or remove) a multiplication fault injector."""
        self.context.fault_injector = injector

    @property
    def fault_injector(self) -> MsbBitFlipInjector | None:
        return self.context.fault_injector

