#!/usr/bin/env python3
"""Why a *library* of quantization methods is needed (paper Section V).

The required (α, β) compression grows as the NPU ages, and no single
post-training quantization method is best at every bit-width or for every
network: naive range-based methods (uniform symmetric, min/max) hold up at 8
bits but fall apart at 4-5 bits, where the clipping-based methods (ACIQ,
LAPQ) take over.  This example sweeps all five methods over the compressions
Algorithm 1 selects across the lifetime, for two different architectures.

Run with::

    python examples/quantization_method_study.py
"""

from repro import DeviceToSystemPipeline, SGDTrainer, SyntheticImageDataset, build_model
from repro.nn.evaluate import quantize_and_evaluate
from repro.nn.quantized import record_calibration
from repro.quantization import available_methods
from repro.utils.tables import format_table


def main() -> None:
    pipeline = DeviceToSystemPipeline(max_alpha=4, max_beta=4)
    compressions = {level: pipeline.plan_level(level).compression for level in (10.0, 30.0, 50.0)}

    dataset = SyntheticImageDataset.generate(train_per_class=80, test_per_class=30, seed=0)
    calibration = dataset.calibration_split(48)
    methods = available_methods()

    for network in ("resnet50", "squeezenet"):
        print(f"\nTraining {network} ...")
        model = build_model(network, num_classes=dataset.num_classes, image_size=dataset.image_size, rng=0)
        SGDTrainer(epochs=8).fit(model, dataset.x_train, dataset.y_train, rng=0)
        fp32 = model.accuracy(dataset.x_test, dataset.y_test)
        # Calibration depends on neither the method nor the bit widths, so
        # one recording serves the whole method x compression sweep.
        recording = record_calibration(model, calibration)

        rows = []
        for level, compression in compressions.items():
            losses = {}
            for method in methods:
                evaluation = quantize_and_evaluate(
                    model,
                    method,
                    compression.activation_bits(),
                    compression.weight_bits(),
                    recording,
                    dataset.x_test,
                    dataset.y_test,
                    bias_bits=compression.bias_bits(),
                    fp32_accuracy=fp32,
                )
                losses[method.key] = evaluation.accuracy_loss_percent
            best = min(losses, key=losses.get)
            rows.append(
                [level, compression.label()]
                + [round(losses[key], 2) for key in ("M1", "M2", "M3", "M4", "M5")]
                + [best]
            )
        print(
            format_table(
                ["dVth (mV)", "compression", "M1", "M2", "M3", "M4", "M5", "best"],
                rows,
                title=f"{network}: accuracy loss (%) per quantization method (FP32 acc {fp32:.3f})",
            )
        )

    print(
        "\nThe best method changes with the compression level and the architecture —"
        " exactly why Algorithm 1 searches the whole library instead of fixing one method."
    )


if __name__ == "__main__":
    main()
