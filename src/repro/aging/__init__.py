"""Transistor-aging substrate.

This package replaces the paper's device-level tooling (physics-based BTI
model [20], SPICE characterisation with Synopsys SiliconSmart, and the
Intel-14nm-calibrated BSIM-CMG compact model) with analytic models that are
calibrated to the same end-of-life anchor points the paper reports:

* ΔVth reaches 50 mV after the 10-year projected lifetime,
* a ΔVth of 50 mV slows the MAC critical path by ~23 %.

The downstream flow (STA, error characterisation, Algorithm 1) consumes the
aging substrate through the ΔVth(t) trajectory (:class:`BTIModel`,
:class:`AgingTimeline`), the per-ΔVth cell libraries
(:class:`AgingAwareLibrarySet`), and — the general contract — per-gate
:mod:`aging scenarios <repro.aging.scenarios>` that resolve to a delay table
for a netlist (:class:`AgingScenario` and friends).
"""

from repro.aging.bti import BTIModel, AgingTimeline, STANDARD_DELTA_VTH_LEVELS_MV
from repro.aging.delay_model import AlphaPowerDelayModel
from repro.aging.cell_library import (
    AgingAwareLibrarySet,
    CellLibrary,
    CellSpec,
    fresh_library,
)
from repro.aging.scenarios import (
    SCENARIO_KINDS,
    AgingScenario,
    MissionProfile,
    PerCellTypeAging,
    UniformAging,
    VariationAging,
    resolve_gate_delays,
)

__all__ = [
    "BTIModel",
    "AgingTimeline",
    "STANDARD_DELTA_VTH_LEVELS_MV",
    "AlphaPowerDelayModel",
    "AgingAwareLibrarySet",
    "CellLibrary",
    "CellSpec",
    "fresh_library",
    "SCENARIO_KINDS",
    "AgingScenario",
    "MissionProfile",
    "PerCellTypeAging",
    "UniformAging",
    "VariationAging",
    "resolve_gate_delays",
]
