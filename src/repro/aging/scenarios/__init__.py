"""First-class aging scenarios.

An :class:`AgingScenario` resolves to a per-gate delay table for a netlist
(see :mod:`repro.aging.scenarios.base` for the contract).  Four families are
provided:

============== =======================================================
kind           meaning
============== =======================================================
uniform        the paper's baseline — one scalar ΔVth for every cell
mission        years × temperature × duty cycle via the BTI kinetics
per_cell_type  heterogeneous ΔVth per cell family
variation      seeded per-gate Gaussian ΔVth jitter (deterministic by
               topological gate index, pickle/worker-stable)
============== =======================================================

Every timing consumer (STA, the event-driven simulator, all simulation
backends, the Monte-Carlo sweeps) accepts a scenario wherever it accepts a
:class:`~repro.aging.cell_library.CellLibrary`; ``UniformAging`` is
bit-identical to the legacy ``library.aged(x)`` path.
"""

from repro.aging.scenarios.base import (
    AgingScenario,
    default_fresh_library,
    gate_delay_columns,
    nominal_delta_vth_mv,
    resolve_gate_delay_columns,
    resolve_gate_delays,
)
from repro.aging.scenarios.heterogeneous import PerCellTypeAging, VariationAging
from repro.aging.scenarios.uniform import MissionProfile, UniformAging

#: The registered scenario families (what ``--scenario`` accepts).
SCENARIO_KINDS: tuple[str, ...] = (
    UniformAging.kind,
    MissionProfile.kind,
    PerCellTypeAging.kind,
    VariationAging.kind,
)

__all__ = [
    "SCENARIO_KINDS",
    "AgingScenario",
    "MissionProfile",
    "PerCellTypeAging",
    "UniformAging",
    "VariationAging",
    "default_fresh_library",
    "gate_delay_columns",
    "nominal_delta_vth_mv",
    "resolve_gate_delay_columns",
    "resolve_gate_delays",
]
