"""The paper's contribution: reliability-aware (aging-aware) quantization.

This package implements the device-to-system flow of the paper's Fig. 3 and
Algorithm 1 on top of the substrate packages:

* :mod:`repro.core.padding` — the MSB/LSB zero-padding semantics of the
  compressed MAC inputs and the corresponding STA case-analysis constants,
* :mod:`repro.core.compression` — the (α, β) compression space, the
  Euclidean surrogate metric and the minimal-compression selection rule,
* :mod:`repro.core.timing_analysis` — delay of the (aged, compressed) MAC
  and the feasible-compression search,
* :mod:`repro.core.algorithm` — Algorithm 1: select the minimal compression
  that meets the fresh clock, then pick the quantization method with the
  smallest accuracy loss,
* :mod:`repro.core.guardband` — baseline guardband sizing,
* :mod:`repro.core.pipeline` — the full lifetime study used by the
  experiment harness; its ``plan_level`` is the one planner of Algorithm 1's
  timing phase behind Table 2, Figs. 4a and 5 and the scenario sweep.
"""

from repro.core.padding import (
    Padding,
    compressed_input_sampler,
    mac_case_analysis,
    multiplier_case_analysis,
    output_shift,
)
from repro.core.compression import (
    CompressionChoice,
    enumerate_compressions,
    euclidean_surrogate,
    select_minimal_compression,
)
from repro.core.timing_analysis import CompressionTimingAnalyzer, CompressionTiming
from repro.core.algorithm import AgingAwareQuantizer, AgingAwareQuantizationResult
from repro.core.guardband import GuardbandAnalysis, analyze_guardband
from repro.core.pipeline import DeviceToSystemPipeline, LevelPlan

__all__ = [
    "Padding",
    "compressed_input_sampler",
    "mac_case_analysis",
    "multiplier_case_analysis",
    "output_shift",
    "CompressionChoice",
    "enumerate_compressions",
    "euclidean_surrogate",
    "select_minimal_compression",
    "CompressionTimingAnalyzer",
    "CompressionTiming",
    "AgingAwareQuantizer",
    "AgingAwareQuantizationResult",
    "GuardbandAnalysis",
    "analyze_guardband",
    "DeviceToSystemPipeline",
    "LevelPlan",
]
