"""Reproduction of "Reliability-Aware Quantization for Anti-Aging NPUs" (DATE 2021).

The package is organised as a device-to-system stack:

* :mod:`repro.aging` — BTI kinetics, delay degradation, aging-aware cell libraries,
* :mod:`repro.circuits` — gate-level adders/multipliers/MAC and their simulators,
* :mod:`repro.timing` — static timing analysis and aged-circuit error characterisation,
* :mod:`repro.power` — switching-activity energy estimation,
* :mod:`repro.quantization` — the post-training quantization method library (M1..M5),
* :mod:`repro.nn` — NumPy NN substrate (layers, training, model zoo, integer inference),
* :mod:`repro.npu` — systolic-array performance model,
* :mod:`repro.core` — the paper's aging-aware quantization flow (Algorithm 1),
* :mod:`repro.parallel` — process-parallel sweep executor with spawn-safe
  deterministic seed sharding,
* :mod:`repro.experiments` — one module per paper table/figure.

Quickstart::

    from repro import DeviceToSystemPipeline
    pipeline = DeviceToSystemPipeline(max_alpha=4, max_beta=4)
    for plan in pipeline.plan():
        print(plan.delta_vth_mv, plan.compression.label(), plan.normalized_compensated_delay)
"""

from repro.aging import (
    AgingAwareLibrarySet,
    AgingScenario,
    AgingTimeline,
    AlphaPowerDelayModel,
    BTIModel,
    MissionProfile,
    PerCellTypeAging,
    UniformAging,
    VariationAging,
)
from repro.circuits import build_adder, build_mac, build_multiplier
from repro.core import (
    AgingAwareQuantizationResult,
    AgingAwareQuantizer,
    CompressionChoice,
    DeviceToSystemPipeline,
    Padding,
    analyze_guardband,
)
from repro.nn import (
    Model,
    MsbBitFlipInjector,
    QuantizedModel,
    SGDTrainer,
    SyntheticImageDataset,
    build_model,
    get_pretrained,
)
from repro.npu import NpuPerformanceModel, SystolicArray
from repro.parallel import ParallelExecutor
from repro.quantization import available_methods, get_method
from repro.timing import StaticTimingAnalyzer, characterize_timing_errors, sweep_timing_errors

__version__ = "1.0.0"

__all__ = [
    "AgingAwareLibrarySet",
    "AgingScenario",
    "AgingTimeline",
    "AlphaPowerDelayModel",
    "BTIModel",
    "MissionProfile",
    "PerCellTypeAging",
    "UniformAging",
    "VariationAging",
    "build_adder",
    "build_mac",
    "build_multiplier",
    "AgingAwareQuantizationResult",
    "AgingAwareQuantizer",
    "CompressionChoice",
    "DeviceToSystemPipeline",
    "Padding",
    "analyze_guardband",
    "Model",
    "MsbBitFlipInjector",
    "QuantizedModel",
    "SGDTrainer",
    "SyntheticImageDataset",
    "build_model",
    "get_pretrained",
    "NpuPerformanceModel",
    "SystolicArray",
    "ParallelExecutor",
    "available_methods",
    "get_method",
    "StaticTimingAnalyzer",
    "characterize_timing_errors",
    "sweep_timing_errors",
    "__version__",
]
