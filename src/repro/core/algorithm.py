"""Algorithm 1: aging-aware quantization.

Given an aging level (ΔVth), the algorithm

1. runs STA over all (α, β) compressions and both paddings with the matching
   aging-aware library, keeping the candidates that meet the *fresh*
   critical-path delay (lines 2-4),
2. selects the minimal feasible compression by the Euclidean surrogate
   √(α²+β²), tie-broken towards activation precision (line 5),
3. quantizes the network with every method of the quantization library at
   the bit-widths the compression dictates and returns the first/best method
   that satisfies the accuracy-loss threshold (lines 6-9); when no threshold
   is given, the method with the highest accuracy is returned, as in the
   paper's evaluation.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from repro.aging.cell_library import AgingAwareLibrarySet
from repro.aging.scenarios.base import AgingScenario
from repro.circuits.mac import ArithmeticUnit
from repro.core.compression import CompressionChoice
from repro.core.padding import Padding
from repro.core.timing_analysis import CompressionTiming, CompressionTimingAnalyzer
from repro.nn.evaluate import QuantizedEvaluation, quantize_and_evaluate
from repro.nn.model import Model
from repro.nn.quantized import CalibrationRecording, record_calibration
from repro.quantization.base import QuantizationMethod
from repro.quantization.registry import available_methods


@dataclass
class AgingAwareQuantizationResult:
    """Output of Algorithm 1 for one network at one aging level.

    Attributes:
        delta_vth_mv: the aging level analysed.
        timing: STA record of the selected compression (delay, slack, target).
        selected_method: key of the quantization method chosen (``"M3"``...).
        evaluation: accuracy record of the selected method.
        per_method: accuracy records of every evaluated method, keyed by
            method key (useful for the Table 1 analysis and the ablations).
        threshold_satisfied: whether the user-supplied accuracy-loss
            threshold (if any) was met.
    """

    delta_vth_mv: float
    timing: CompressionTiming
    selected_method: str
    evaluation: QuantizedEvaluation
    per_method: dict[str, QuantizedEvaluation] = field(default_factory=dict)
    threshold_satisfied: bool = True

    @property
    def compression(self) -> CompressionChoice:
        return self.timing.choice

    @property
    def accuracy_loss_percent(self) -> float:
        return self.evaluation.accuracy_loss_percent


class AgingAwareQuantizer:
    """The paper's aging-aware quantization flow (Fig. 3 / Algorithm 1)."""

    def __init__(
        self,
        mac: ArithmeticUnit | None = None,
        library_set: AgingAwareLibrarySet | None = None,
        methods: list[QuantizationMethod] | None = None,
        max_alpha: int | None = None,
        max_beta: int | None = None,
        paddings: tuple[Padding, ...] = (Padding.MSB, Padding.LSB),
    ) -> None:
        self.timing_analyzer = CompressionTimingAnalyzer(mac, library_set)
        self.methods = methods if methods is not None else available_methods()
        if not self.methods:
            raise ValueError("the quantization method library must not be empty")
        self.max_alpha = max_alpha
        self.max_beta = max_beta
        self.paddings = paddings
        # The most recent calibration of :meth:`run`, as (model, fingerprint
        # of the model's parameters and the calibration data, recording).
        self._calibration: tuple[Model, bytes, CalibrationRecording] | None = None

    # -------------------------------------------------------------- line 2-5
    def select_compression(self, delta_vth_mv: "float | AgingScenario") -> CompressionTiming:
        """Minimal compression whose aged delay meets the fresh clock.

        Accepts a ΔVth float (the uniform contract) or any
        :class:`~repro.aging.scenarios.AgingScenario`; delegates to
        :meth:`~repro.core.timing_analysis.CompressionTimingAnalyzer.select_timing`
        so Algorithm 1 and the scenario-grid study share one selection rule.
        """
        return self.timing_analyzer.select_timing(
            delta_vth_mv,
            max_alpha=self.max_alpha,
            max_beta=self.max_beta,
            paddings=self.paddings,
        )

    # -------------------------------------------------------------- line 6-9
    def quantize_model(
        self,
        model: Model,
        compression: CompressionChoice,
        calibration: CalibrationRecording,
        x_test: np.ndarray,
        y_test: np.ndarray,
        accuracy_loss_threshold_percent: float | None = None,
        fp32_accuracy: float | None = None,
    ) -> tuple[str, QuantizedEvaluation, dict[str, QuantizedEvaluation], bool]:
        """Search the method library at the compression's bit-widths.

        The FP32 calibration pass depends only on the model and the
        calibration data, so every method quantizes from the one shared
        ``calibration`` recording (see
        :func:`~repro.nn.quantized.record_calibration`); callers that
        quantize the same model at several compressions record it once.

        Returns ``(selected_key, selected_evaluation, per_method, satisfied)``.
        """
        multiplier_width = int(self.timing_analyzer.mac.input_widths.get("a", 8))
        activation_bits = compression.activation_bits(multiplier_width)
        weight_bits = compression.weight_bits(multiplier_width)
        bias_bits = compression.bias_bits(multiplier_width)
        if fp32_accuracy is None:
            fp32_accuracy = model.accuracy(x_test, y_test)

        per_method: dict[str, QuantizedEvaluation] = {}
        for method in self.methods:
            evaluation = quantize_and_evaluate(
                model,
                method,
                activation_bits,
                weight_bits,
                calibration,
                x_test,
                y_test,
                bias_bits=bias_bits,
                fp32_accuracy=fp32_accuracy,
            )
            per_method[method.key] = evaluation
            if (
                accuracy_loss_threshold_percent is not None
                and evaluation.accuracy_loss_percent <= accuracy_loss_threshold_percent
            ):
                return method.key, evaluation, per_method, True

        best_key = min(per_method, key=lambda key: per_method[key].accuracy_loss_percent)
        satisfied = accuracy_loss_threshold_percent is None
        return best_key, per_method[best_key], per_method, satisfied

    # ------------------------------------------------------------------- run
    def run(
        self,
        model: Model,
        delta_vth_mv: "float | AgingScenario",
        calibration_data: np.ndarray,
        x_test: np.ndarray,
        y_test: np.ndarray,
        accuracy_loss_threshold_percent: float | None = None,
        fp32_accuracy: float | None = None,
    ) -> AgingAwareQuantizationResult:
        """Full Algorithm 1 for one network at one aging level.

        The quantizer keeps the calibration recording of its most recent
        call and reuses it while the model and the calibration data are
        unchanged, so running one network over a lifetime of aging levels
        records the FP32 calibration pass once, and each method calibrates
        each bit width once (the recording memoises the clipping; see
        :class:`~repro.nn.quantized.CalibrationRecording`).  Reuse needs
        the same model object and an exact match of a content fingerprint
        of the calibration data and every model parameter: editing the
        weights in place or passing other data records afresh.
        """
        timing = self.select_compression(delta_vth_mv)
        selected, evaluation, per_method, satisfied = self.quantize_model(
            model,
            timing.choice,
            self._recording(model, calibration_data),
            x_test,
            y_test,
            accuracy_loss_threshold_percent=accuracy_loss_threshold_percent,
            fp32_accuracy=fp32_accuracy,
        )
        return AgingAwareQuantizationResult(
            delta_vth_mv=timing.delta_vth_mv,
            timing=timing,
            selected_method=selected,
            evaluation=evaluation,
            per_method=per_method,
            threshold_satisfied=satisfied,
        )

    def _recording(self, model: Model, calibration_data: np.ndarray) -> CalibrationRecording:
        """The kept recording if it matches ``model`` and the data, else a new one."""
        fingerprint = _calibration_fingerprint(model, calibration_data)
        kept = self._calibration
        if kept is None or kept[0] is not model or kept[1] != fingerprint:
            kept = (model, fingerprint, record_calibration(model, calibration_data))
            self._calibration = kept
        return kept[2]


def _calibration_fingerprint(model: Model, calibration_data: np.ndarray) -> bytes:
    """Digest of the calibration data and every parameter, in ``named_layers`` order."""
    digest = hashlib.blake2b(digest_size=16)
    arrays = [("calibration_data", calibration_data)] + [
        (f"{layer_name}/{param.name}", param.value)
        for layer_name, layer in model.named_layers()
        for param in layer.parameters()
    ]
    for name, array in arrays:
        array = np.ascontiguousarray(array)
        digest.update(f"{name}:{array.dtype.str}:{array.shape}".encode())
        digest.update(array)
    return digest.digest()
