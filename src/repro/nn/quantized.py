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
recording, however many configurations are built from it, and a build
calibrates all layers missing from the memo for one side in one method call
(which LAPQ runs as one search).  In the run
phase, a layer first asks :meth:`QuantizationContext.layer_input` for its
operand — the activation codes of its whole input, quantized once —
and then passes those codes (im2col-unfolded for a convolution, padded with
the code of 0.0) to :meth:`QuantizationContext.linear`.  Activation
parameters are per-tensor and quantization is elementwise, so this equals
quantizing the unfolded FP32 columns, without quantizing every input value
once per kernel tap.

Codes are held in floating point so the integer GEMM runs on BLAS, and the
context unfolds convolution codes into channels-last (kh, kw, C) columns
(:attr:`QuantizationContext.channels_last`), whose window copies read runs
of C contiguous codes.  Each layer's GEMM operand rows are permuted once, at
construction, to that column order; the recording, its memoised codes and
the calibration pass keep the canonical (C, kh, kw) order.  A layer whose
largest possible accumulator is below ``2**24`` gets exact results from a
float32 GEMM in any summation order (every product and partial sum is an
integer no larger in magnitude than that bound), so the column order does
not change a single accumulator bit; each layer picks float32 where the
bound holds (:attr:`LayerQuantization.code_dtype`) and float64 (exact below
``2**53``) elsewhere.

Where every zero point of a layer is an integer (every method but M4's
bias-corrected weight decode), the weight zero points fold into the operand
``q_w - z_w``, and the epilogue is ``(GEMM + offset) * bias_scale``: every
term is an exact integer, so this equals the strict left-to-right sum
below.  A layer with a fractional weight zero point keeps the operand
``[q_w | 1]``, whose all-ones column yields the activation row sums in the
same GEMM, and the strict epilogue, whose rounding M4's results depend on.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
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
        quantized_weights: unsigned integer weight codes, shape (N, K), in
            the canonical (C, kh, kw) order of K.
        quantized_bias: integer bias codes at the accumulator scale.
        bias_scale: per-output-channel scale of the accumulator
            (``s_a * s_w``).
        kernel_shape: the layer's weight shape after N (``(C, kh, kw)``
            for a convolution, ``(K,)`` for a dense layer) when its
            activation columns arrive channels-last, in (kh, kw, C) order;
            ``None`` when they arrive in the canonical order.

    The remaining attributes are derived once, for the run phase:

    * ``activation_pad``: the code of real 0.0, which pads unfolded codes.
    * ``folded``: whether the weight zero points fold into the operand,
      which needs every zero point ``z_a``, ``z_w`` to be an integer.
    * ``gemm_operand``: the (K, N) operand ``q_w - z_w`` of a folded layer;
      otherwise the (K, N + 1) operand ``[q_w | 1]``, the weight codes with
      an all-ones column whose product is each row's activation code sum.
      Its rows follow the activation column order.
    * ``code_dtype``: float32 when ``activation.max_level`` times the
      largest column sum of ``|gemm_operand|`` is below ``2**24`` (every
      partial sum of the GEMM is then an exact float32 integer), else
      float64.  Activation codes and both operands below use it.
    * ``weight_codes``: the contiguous (K, N) weight codes in canonical
      order, which the fault injector gathers hit products from.
    * ``activation_columns``: for each canonical k, the activation column
      that holds it (``None`` when the orders agree).
    * ``weight_zero``: the per-channel decode zero points ``z_w``.
    * ``offset``: the folded epilogue's ``q_b - z_a * sum_k (q_w - z_w)``,
      normalised with ``+ 0.0`` so a ``-0.0`` bias code cannot turn a zero
      output negative (``None`` on a strict layer).
    * ``zero_col_sums`` and ``zero_product``: the strict epilogue's
      constant zero-point terms ``z_a * sum_k q_w`` and ``K * z_a * z_w``
      (``None`` on a folded layer).  The strict epilogue allocates one
      (M, N) float64 temporary, the product ``row_sums * z_w``, and writes
      each later term over it, so it costs one buffer beyond the GEMM's.
    """

    activation: QuantParams
    weight_encode: QuantParams
    weight_decode: QuantParams
    quantized_weights: np.ndarray
    quantized_bias: np.ndarray
    bias_scale: np.ndarray
    kernel_shape: tuple[int, ...] | None = None
    activation_pad: float = field(init=False)
    folded: bool = field(init=False)
    code_dtype: type = field(init=False)
    gemm_operand: np.ndarray = field(init=False, repr=False)
    weight_codes: np.ndarray = field(init=False, repr=False)
    activation_columns: np.ndarray | None = field(init=False, repr=False)
    weight_zero: np.ndarray = field(init=False, repr=False)
    offset: np.ndarray | None = field(init=False, repr=False, default=None)
    zero_col_sums: np.ndarray | None = field(init=False, repr=False, default=None)
    zero_product: np.ndarray | None = field(init=False, repr=False, default=None)

    def __post_init__(self) -> None:
        channels, inner = self.quantized_weights.shape
        activation_zero = float(np.asarray(self.activation.zero_point).reshape(-1)[0])
        self.activation_pad = float(self.activation.quantize(0.0))
        self.weight_zero = weight_zero = np.broadcast_to(
            np.asarray(self.weight_decode.zero_point, dtype=np.float64), (channels,)
        )
        canonical = np.ascontiguousarray(self.quantized_weights.T, dtype=np.float64)
        self.folded = activation_zero.is_integer() and bool(
            np.all(weight_zero == np.round(weight_zero))
        )
        if self.folded:
            operand = canonical - weight_zero
            self.offset = self.quantized_bias - activation_zero * operand.sum(axis=0) + 0.0
            bound = np.abs(operand).sum(axis=0).max()
        else:
            operand = np.ones((inner, channels + 1))
            operand[:, :channels] = canonical
            column_sums = operand.sum(axis=0)
            self.zero_col_sums = activation_zero * column_sums[:channels]
            self.zero_product = inner * activation_zero * weight_zero
            bound = column_sums.max()
        self.code_dtype = (
            np.float32 if self.activation.max_level * bound < 2**24 else np.float64
        )
        self.weight_codes = canonical.astype(self.code_dtype)
        self.activation_columns = None
        if self.kernel_shape is not None and np.prod(self.kernel_shape[1:]) > 1:
            # Row r of the channels-last operand is canonical row order[r].
            order = np.arange(inner).reshape(self.kernel_shape).transpose(1, 2, 0).ravel()
            operand = operand[order]
            self.activation_columns = np.argsort(order)
        self.gemm_operand = operand.astype(self.code_dtype)


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
    bias-corrected decode beside them (:meth:`memoised_many` fills one
    side's missing entries for every layer in one computation).  The method
    part of each key is its
    :attr:`~repro.quantization.base.QuantizationMethod.calibration_key`, so
    M4 and M5 share their clipping.  Building only adds memo entries;
    ``observations``, ``layer_tensors`` (a copy of the weights taken when
    recording, each flattened to (N, K)) and ``kernel_shapes`` (each
    layer's weight shape after N: ``(C, kh, kw)`` for a convolution,
    ``(K,)`` for a dense layer) never change, and the memoised codes stay
    in the canonical order of K.  A new recording starts with an empty
    memo, and the memo is not pickled, so a recording shipped to a worker
    process arrives without it.
    """

    observations: dict[str, np.ndarray]
    layer_tensors: dict[str, tuple[np.ndarray, np.ndarray]]
    kernel_shapes: dict[str, tuple[int, ...]]
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
        return self.memoised_many(side, [key], lambda missing: [compute()])[0]

    def memoised_many(
        self,
        side: str,
        keys: Sequence[tuple],
        compute_many: Callable[[list[tuple]], Sequence[Any]],
    ) -> list[Any]:
        """The memo entries ``(side, key)`` of ``keys``, in order.

        ``compute_many(missing)`` returns the values of the keys not yet
        memoised, in the order given, in one call.  Each key counts one hit
        or one miss, as in :meth:`memoised`; a key repeated after a miss
        counts as a hit.
        """
        missing = list(dict.fromkeys(key for key in keys if (side, key) not in self._memo))
        if missing:
            observability.add(f"quantization.calibration.{side}.misses", len(missing))
            for key, value in zip(missing, compute_many(missing), strict=True):
                self._memo[side, key] = value
        if len(keys) > len(missing):
            observability.add(f"quantization.calibration.{side}.hits", len(keys) - len(missing))
        return [self._memo[side, key] for key in keys]


class _CalibrationRecorder:
    """The stand-in context of the calibration pass.

    It runs every quantizable layer in FP32 while recording a sample of the
    layer's inputs, a copy of its weights and their kernel shape.  Its
    columns keep the canonical (C, kh, kw) order, which the seeded input
    subsample depends on.
    """

    channels_last = False

    def __init__(self) -> None:
        self.observations: dict[str, np.ndarray] = {}
        self.layer_tensors: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        self.kernel_shapes: dict[str, tuple[int, ...]] = {}
        self._rng = make_rng(0)

    def layer_input(self, layer: Layer, x: np.ndarray) -> tuple[np.ndarray, float]:
        return x, 0.0

    def linear(
        self, layer: Layer, inputs: np.ndarray, weights: np.ndarray, bias: np.ndarray
    ) -> np.ndarray:
        self._observe(layer.name, inputs, weights, bias)
        return inputs @ weights.reshape(weights.shape[0], -1).T + bias

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
                np.array(weights.reshape(weights.shape[0], -1), dtype=np.float64),
                np.array(bias, dtype=np.float64),
            )
            self.kernel_shapes[layer_name] = weights.shape[1:]


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
        observations=recorder.observations,
        layer_tensors=recorder.layer_tensors,
        kernel_shapes=recorder.kernel_shapes,
    )


class QuantizationContext:
    """Holds per-layer quantization state and executes the integer MACs.

    Every recorded layer's parameters are fixed at construction, from a
    :class:`CalibrationRecording` for one method and set of bit widths (the
    clipping comes from the recording's memo where an earlier build already
    calibrated that method, layer and width); :meth:`linear` then performs
    the integer computation.

    Convolutions unfold this context's operands into channels-last
    (kh, kw, C) columns (:attr:`channels_last`); each layer's GEMM operand
    is permuted to match when it is built.  Building counts the layers by
    epilogue, as ``nn.integer.layers.folded`` and ``nn.integer.layers.strict``.
    """

    channels_last = True

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
        # Each side's misses are calibrated in one call over all layers.
        layers = list(calibration.observations)
        activation_keys = [(method.calibration_key, name, activation_bits) for name in layers]
        activations = calibration.memoised_many(
            "activation",
            activation_keys,
            lambda missing: method.activation_params_many(
                [calibration.observations[name] for _, name, _ in missing], activation_bits
            ),
        )
        weight_keys = [(method.calibration_key, name, weight_bits) for name in layers]
        weight_codes = calibration.memoised_many(
            "weight",
            weight_keys,
            lambda missing: self._weight_codes(
                [calibration.layer_tensors[name][0] for _, name, _ in missing]
            ),
        )
        self.layer_params: dict[str, LayerQuantization] = {
            name: self._build_layer_quantization(calibration, name, activation, codes, key)
            for name, activation, codes, key in zip(layers, activations, weight_codes, weight_keys)
        }
        folded = sum(params.folded for params in self.layer_params.values())
        observability.add("nn.integer.layers.folded", folded)
        observability.add("nn.integer.layers.strict", len(self.layer_params) - folded)

    def _build_layer_quantization(
        self,
        calibration: CalibrationRecording,
        layer_name: str,
        activation: QuantParams,
        weight_codes: tuple[QuantParams, np.ndarray],
        weight_key: tuple,
    ) -> LayerQuantization:
        weights, bias = calibration.layer_tensors[layer_name]
        weight_encode, quantized_weights = weight_codes
        if self.method.wants_bias_correction and weights.ndim > 1:
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
            kernel_shape=calibration.kernel_shapes[layer_name],
        )

    def _weight_codes(
        self, tensors: list[np.ndarray]
    ) -> list[tuple[QuantParams, np.ndarray]]:
        """Each weight tensor's grid and the codes on it.

        The codes are read-only: every context built from the recording
        shares them.
        """
        pairs = []
        for encode, weights in zip(
            self.method.weight_params_many(tensors, self.weight_bits, channel_axis=0), tensors
        ):
            codes = encode.quantize(weights)
            codes.flags.writeable = False
            pairs.append((encode, codes))
        return pairs

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

        ``inputs`` is the (M, K) activation-code matrix (channels-last
        im2col columns for a convolution, features for a dense layer) built
        from :meth:`layer_input`.  The integer path runs on the layer's
        frozen weight codes; the FP32 ``weights`` ((N, C, kh, kw) or (N, K))
        and ``bias`` are not read.
        """
        return self._integer_linear(inputs, self._params(layer))

    def _integer_linear(self, q_activations: np.ndarray, params: LayerQuantization) -> np.ndarray:
        # Integer codes in ``code_dtype`` give an exact BLAS matmul (see
        # LayerQuantization); the epilogue runs in float64.
        accumulated = (q_activations @ params.gemm_operand).astype(np.float64, copy=False)
        if params.folded:
            raw = accumulated
        else:
            # The last column is each row's code sum, the rest the MAC sums.
            raw, row_sums = accumulated[:, :-1], accumulated[:, -1:]
        if self.fault_injector is not None:
            deltas = self.fault_injector.accumulation_deltas(
                q_activations, params.weight_codes, params.activation_columns
            )
            if deltas is not None:
                raw += deltas

        if params.folded:
            # Exact integers throughout, so one add equals the strict sum.
            raw += params.offset
            raw *= params.bias_scale
            return raw
        # Strictly left to right: decode zero points may be non-integer (bias
        # correction), so reassociating the terms would change the result.
        # ``raw - row_sums * weight_zero``, with the difference written over
        # the product: one (M, N) temporary, not two.
        accumulator = np.multiply(row_sums, params.weight_zero)
        np.subtract(raw, accumulator, out=accumulator)
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

