"""Fig. 1b — NN accuracy under random MSB bit flips in the multiplications.

Three ResNet-style networks run with baseline 8-bit quantization while every
multiplication flips one of its two MSBs with a given probability; each
configuration is repeated and averaged, and the accuracy is normalized to
the fault-free accuracy of the same network — matching the paper's plot.

Each network is quantized and calibrated once and swept through the whole
probability grid (:func:`repro.nn.evaluate.sweep_fault_injection`), instead
of re-quantizing per probability point.
"""

from __future__ import annotations

from repro.experiments.reporting import ExperimentResult
from repro.experiments.settings import ExperimentSettings
from repro.experiments.workspace import ExperimentWorkspace
from repro.nn.evaluate import sweep_fault_injection
from repro.nn.zoo import display_name
from repro.quantization.registry import get_method


def run_fig1b(
    settings: ExperimentSettings | None = None,
    workspace: ExperimentWorkspace | None = None,
) -> ExperimentResult:
    """Regenerate the Fig. 1b data (normalized accuracy vs flip probability)."""
    workspace = workspace or ExperimentWorkspace.create(settings)
    settings = workspace.settings
    method = get_method("M2")
    calibration = workspace.calibration
    x_test = workspace.test_inputs
    y_test = workspace.test_labels

    rows = []
    baselines = {}
    for network in settings.fig1b_networks:
        pretrained = workspace.model(network)
        # One quantization pass per network: probability 0.0 gives the
        # fault-free baseline, the rest of the grid reuses the same model.
        sweep = sweep_fault_injection(
            pretrained.model,
            method,
            calibration,
            x_test,
            y_test,
            flip_probabilities=(0.0, *settings.flip_probabilities),
            repetitions=settings.fault_repetitions,
            seed=settings.seed,
            workers=settings.workers,
        )
        fault_free = sweep[0.0][0]
        baselines[network] = fault_free
        for probability in settings.flip_probabilities:
            mean_accuracy, std_accuracy = sweep[probability]
            normalized = mean_accuracy / fault_free if fault_free > 0 else 0.0
            rows.append(
                [
                    display_name(network),
                    probability,
                    mean_accuracy,
                    normalized,
                    std_accuracy,
                ]
            )
    return ExperimentResult(
        experiment_id="fig1b",
        title="Fig. 1b: accuracy under random MSB flips in the multiplications",
        columns=[
            "network",
            "flip_probability",
            "accuracy",
            "normalized_accuracy",
            "accuracy_std",
        ],
        rows=rows,
        metadata={
            "fault_free_accuracy": baselines,
            "repetitions": settings.fault_repetitions,
            "paper_reference": "accuracy collapses beyond a flip probability of ~5e-4 and "
            "deeper networks degrade faster",
        },
    )
