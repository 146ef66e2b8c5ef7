"""Section VII ablation — precision scaling (LSB masking) without retraining.

The paper also evaluates the prior precision-scaling approach [10, 11]:
instead of re-quantizing the network for the reduced bit-width, the already
8-bit-quantized operands simply have their LSBs masked to zero.  Without
retraining this delivers an unacceptable accuracy loss for every network and
aging level, which is why the paper excludes it from the main comparison.
This module reproduces that comparison: reliability-aware quantization vs
LSB masking at the same (α, β) compression.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.reporting import ExperimentResult
from repro.experiments.settings import ExperimentSettings
from repro.experiments.workspace import ExperimentWorkspace
from repro.nn.evaluate import quantize_and_evaluate
from repro.nn.quantized import record_calibration
from repro.nn.zoo import display_name
from repro.quantization.base import QuantParams
from repro.quantization.registry import get_method
from repro.quantization.uniform import UniformSymmetricQuantizer


class _LsbMaskedQuantizer(UniformSymmetricQuantizer):
    """8-bit min/max quantization whose codes have their LSBs masked to zero.

    This models precision scaling on an already-quantized NPU: the operands
    keep the 8-bit scale calibrated for the fresh design, but the low-order
    bits are dropped to shorten the carry chains, so the representable grid
    becomes coarse without being re-centred — the behaviour of [10, 11].
    """

    key = "PS"
    name = "Precision scaling (LSB masking)"

    def __init__(self, masked_activation_bits: int, masked_weight_bits: int) -> None:
        self.masked_activation_bits = masked_activation_bits
        self.masked_weight_bits = masked_weight_bits

    @staticmethod
    def _masked(params: QuantParams, masked_bits: int) -> QuantParams:
        # Masking `m` LSBs of an 8-bit code multiplies the step by 2^m while
        # keeping the 8-bit range.  Masking truncates instead of rounding, so
        # the codes carry a systematic bias of about half a (coarse) step;
        # the 0.5-step zero-point shift models that truncation bias.
        factor = float(1 << masked_bits)
        zero_point = np.asarray(params.zero_point, dtype=np.float64) / factor
        if masked_bits > 0:
            zero_point = zero_point - 0.5
        return QuantParams(
            scale=np.asarray(params.scale) * factor,
            zero_point=zero_point,
            num_bits=params.num_bits,
            channel_axis=params.channel_axis,
        )

    def weight_params(self, weights, num_bits, per_channel=True, channel_axis=0):
        base = super().weight_params(weights, 8, per_channel=per_channel, channel_axis=channel_axis)
        return self._masked(base, self.masked_weight_bits)

    def activation_params(self, samples, num_bits):
        base = super().activation_params(samples, 8)
        return self._masked(base, self.masked_activation_bits)


def run_precision_scaling_ablation(
    settings: ExperimentSettings | None = None,
    workspace: ExperimentWorkspace | None = None,
    delta_vth_mv: float = 50.0,
) -> ExperimentResult:
    """Compare aging-aware quantization against LSB masking at one aging level."""
    workspace = workspace or ExperimentWorkspace.create(settings)
    settings = workspace.settings
    pipeline = workspace.pipeline
    plan = pipeline.plan_level(delta_vth_mv)
    alpha, beta = plan.compression.alpha, plan.compression.beta
    calibration = workspace.calibration
    x_test = workspace.test_inputs
    y_test = workspace.test_labels

    rows = []
    for network in settings.ablation_networks:
        pretrained = workspace.model(network)
        fp32_accuracy = pretrained.model.accuracy(x_test, y_test)
        # One FP32 calibration pass per network, shared by both quantizations.
        recording = record_calibration(pretrained.model, calibration)
        selected, evaluation, _, _ = pipeline.quantizer.quantize_model(
            pretrained.model,
            plan.compression,
            recording,
            x_test,
            y_test,
            fp32_accuracy=fp32_accuracy,
        )
        masking = quantize_and_evaluate(
            pretrained.model,
            _LsbMaskedQuantizer(alpha, beta),
            8,
            8,
            recording,
            x_test,
            y_test,
            bias_bits=16,
            fp32_accuracy=fp32_accuracy,
        )
        rows.append(
            [
                display_name(network),
                plan.compression.label(),
                evaluation.accuracy_loss_percent,
                selected,
                masking.accuracy_loss_percent,
            ]
        )
    return ExperimentResult(
        experiment_id="ablation_precision_scaling",
        title="Precision scaling (LSB masking) vs reliability-aware quantization",
        columns=[
            "network",
            "compression",
            "ours_accuracy_loss_percent",
            "ours_method",
            "lsb_masking_accuracy_loss_percent",
        ],
        rows=rows,
        metadata={
            "delta_vth_mv": delta_vth_mv,
            "paper_reference": "without retraining, precision scaling delivers unacceptable loss "
            "for all examined networks and aging levels",
        },
    )
