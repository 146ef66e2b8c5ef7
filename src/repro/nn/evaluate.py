"""Accuracy evaluation helpers for FP32, quantized and fault-injected models.

The sweep entry points (:func:`sweep_fault_injection`,
:func:`sweep_quantization_grid`) shard their grids by tile across worker
processes via :class:`repro.parallel.ParallelExecutor`; results are merged
in grid order and are bit-identical for any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.nn.faults import MsbBitFlipInjector
from repro.nn.model import Model
from repro.nn.quantized import CalibrationRecording, QuantizedModel, record_calibration
from repro.parallel import ParallelExecutor
from repro.quantization.base import QuantizationMethod


@dataclass(frozen=True)
class QuantizedEvaluation:
    """Accuracy of one quantized configuration against its FP32 reference.

    Attributes:
        method_key: registry key of the quantization method used.
        activation_bits / weight_bits / bias_bits: integer widths used.
        fp32_accuracy: accuracy of the original FP32 model.
        quantized_accuracy: accuracy of the quantized model.
    """

    method_key: str
    activation_bits: int
    weight_bits: int
    bias_bits: int
    fp32_accuracy: float
    quantized_accuracy: float

    @property
    def accuracy_loss_percent(self) -> float:
        """Accuracy loss in absolute percentage points (paper's metric)."""
        return (self.fp32_accuracy - self.quantized_accuracy) * 100.0


def quantize_and_evaluate(
    model: Model,
    method: QuantizationMethod,
    activation_bits: int,
    weight_bits: int,
    calibration: CalibrationRecording,
    x_test: np.ndarray,
    y_test: np.ndarray,
    bias_bits: int | None = None,
    fp32_accuracy: float | None = None,
) -> QuantizedEvaluation:
    """Quantize ``model`` with ``method`` and measure its test accuracy.

    ``calibration`` is the model's :func:`~repro.nn.quantized.record_calibration`
    recording, shared by every configuration a sweep evaluates.  The bias
    width defaults to ``activation_bits + weight_bits`` which, for the
    paper's (α, β) compression of an 8/8/16-bit MAC datapath, equals
    ``16 - α - β``.
    """
    if fp32_accuracy is None:
        fp32_accuracy = model.accuracy(x_test, y_test)
    quantized = QuantizedModel.build(
        model, method, activation_bits, weight_bits, calibration, bias_bits
    )
    accuracy = quantized.accuracy(x_test, y_test)
    return QuantizedEvaluation(
        method_key=method.key,
        activation_bits=activation_bits,
        weight_bits=weight_bits,
        bias_bits=bias_bits if bias_bits is not None else activation_bits + weight_bits,
        fp32_accuracy=fp32_accuracy,
        quantized_accuracy=accuracy,
    )


def evaluate_with_fault_injection(
    model: Model,
    method: QuantizationMethod,
    calibration_data: np.ndarray,
    x_test: np.ndarray,
    y_test: np.ndarray,
    flip_probability: float,
    repetitions: int = 3,
    activation_bits: int = 8,
    weight_bits: int = 8,
    seed: int = 0,
) -> tuple[float, float]:
    """Average accuracy of an 8-bit model whose multiplications are faulty.

    This reproduces the Fig. 1b methodology: the model runs with baseline
    8-bit quantization while each multiplication flips one of its two MSBs
    with ``flip_probability``; the experiment is repeated and averaged.

    Returns:
        ``(mean_accuracy, std_accuracy)`` over the repetitions.
    """
    results = sweep_fault_injection(
        model,
        method,
        calibration_data,
        x_test,
        y_test,
        flip_probabilities=(flip_probability,),
        repetitions=repetitions,
        activation_bits=activation_bits,
        weight_bits=weight_bits,
        seed=seed,
    )
    return results[flip_probability]


@dataclass
class _FaultSweepContext:
    """Shared, picklable state of one fault-injection sweep.

    Shipped once per worker process; each process records the calibration
    and quantizes the model a single time on first use, and reuses the
    quantized model for every grid cell it is handed.  Quantization is
    deterministic, so every process works on an identical model.
    """

    model: Model
    method: QuantizationMethod
    calibration_data: np.ndarray
    activation_bits: int
    weight_bits: int
    x_test: np.ndarray
    y_test: np.ndarray
    seed: int
    _quantized: "QuantizedModel | None" = field(default=None, repr=False)

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_quantized"] = None
        return state

    def quantized(self) -> QuantizedModel:
        if self._quantized is None:
            self._quantized = QuantizedModel.build(
                self.model,
                self.method,
                self.activation_bits,
                self.weight_bits,
                record_calibration(self.model, self.calibration_data),
            )
        return self._quantized


def _fault_cell_task(item: tuple[float, int], context: _FaultSweepContext) -> float:
    """Evaluate one (flip probability, repetition) grid cell.

    The injector seed depends only on the cell coordinates — never on the
    execution order — so any sharding of the grid produces identical
    accuracies.
    """
    probability, repetition = item
    quantized = context.quantized()
    injector = MsbBitFlipInjector(
        probability=probability, rng=context.seed * 1000 + repetition
    )
    quantized.set_fault_injector(injector)
    try:
        return quantized.accuracy(context.x_test, context.y_test)
    finally:
        quantized.set_fault_injector(None)


def sweep_fault_injection(
    model: Model,
    method: QuantizationMethod,
    calibration_data: np.ndarray,
    x_test: np.ndarray,
    y_test: np.ndarray,
    flip_probabilities: "tuple[float, ...] | list[float]",
    repetitions: int = 3,
    activation_bits: int = 8,
    weight_bits: int = 8,
    seed: int = 0,
    workers: int = 0,
) -> dict[float, tuple[float, float]]:
    """Fault-injection accuracy over a whole sweep of flip probabilities.

    Quantizes (and calibrates) the model once per process and reuses it
    across every probability and repetition — calibration is the expensive
    part of :func:`evaluate_with_fault_injection`, so sweeping through one
    quantized model is what makes the full Fig. 1b probability grid cheap.
    Each ``(probability, repetition)`` cell uses the same injector seed as a
    per-cell call, so results match the one-at-a-time path exactly.

    The grid is sharded by ``(probability, repetition)`` cell and executed on
    a :class:`~repro.parallel.ParallelExecutor`: ``workers=0`` runs serially,
    ``N > 0`` fans the cells out over ``N`` processes, with bit-identical
    results either way.

    Returns:
        ``{flip_probability: (mean_accuracy, std_accuracy)}``.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    # A zero flip probability is deterministic, so one evaluation covers
    # every repetition (std is 0 by construction).
    cells = [
        (probability, repetition)
        for probability in flip_probabilities
        for repetition in range(1 if probability == 0.0 else repetitions)
    ]
    context = _FaultSweepContext(
        model=model,
        method=method,
        calibration_data=calibration_data,
        activation_bits=activation_bits,
        weight_bits=weight_bits,
        x_test=x_test,
        y_test=y_test,
        seed=seed,
    )
    executor = ParallelExecutor(workers=workers)
    accuracies = executor.map(_fault_cell_task, cells, payload=context)

    per_probability: dict[float, list[float]] = {}
    for (probability, _), accuracy in zip(cells, accuracies):
        per_probability.setdefault(probability, []).append(accuracy)
    return {
        probability: (float(np.mean(values)), float(np.std(values)))
        for probability, values in per_probability.items()
    }


@dataclass
class _QuantizationGridContext:
    """Shared, picklable state of one quantization-grid sweep."""

    model: Model
    calibration: CalibrationRecording
    x_test: np.ndarray
    y_test: np.ndarray
    fp32_accuracy: float


def _quantization_tile_task(
    item: tuple[str, int, int, "int | None"], context: _QuantizationGridContext
) -> QuantizedEvaluation:
    """Quantize and evaluate one (method, bit-width) grid tile."""
    from repro.quantization.registry import get_method

    method_key, activation_bits, weight_bits, bias_bits = item
    return quantize_and_evaluate(
        context.model,
        get_method(method_key),
        activation_bits,
        weight_bits,
        context.calibration,
        context.x_test,
        context.y_test,
        bias_bits=bias_bits,
        fp32_accuracy=context.fp32_accuracy,
    )


def sweep_quantization_grid(
    model: Model,
    tiles: "list[tuple[str, int, int, int | None]]",
    calibration: CalibrationRecording,
    x_test: np.ndarray,
    y_test: np.ndarray,
    fp32_accuracy: float | None = None,
    workers: int = 0,
) -> list[QuantizedEvaluation]:
    """Evaluate a grid of quantization configurations of one model.

    Args:
        tiles: grid tiles ``(method_key, activation_bits, weight_bits,
            bias_bits)``; evaluations come back in the same order.
        calibration: the model's calibration recording, shared by every
            tile.
        fp32_accuracy: FP32 reference accuracy; measured once up front when
            omitted so workers never repeat the FP32 pass.
        workers: worker processes (see
            :class:`repro.parallel.ParallelExecutor`).  Quantization is
            deterministic, so any worker count returns identical
            evaluations.

    This is the engine behind the (method, α, β) case-analysis grids of the
    surrogate ablation: each tile quantizes independently from the shared
    calibration recording, so the grid is embarrassingly parallel.
    """
    if fp32_accuracy is None:
        fp32_accuracy = model.accuracy(x_test, y_test)
    context = _QuantizationGridContext(
        model=model,
        calibration=calibration,
        x_test=x_test,
        y_test=y_test,
        fp32_accuracy=fp32_accuracy,
    )
    executor = ParallelExecutor(workers=workers)
    return executor.map(_quantization_tile_task, tiles, payload=context)
