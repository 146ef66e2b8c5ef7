"""Energy model combining switching activity and cell characterisation.

The model prices a circuit's activity under a delay source: a plain
:class:`~repro.aging.cell_library.CellLibrary` (the uniform contract — one
leakage derating for the whole library) or an
:class:`~repro.aging.scenarios.AgingScenario`, whose per-gate ΔVth draws
derate each gate's leakage individually through the same
:func:`~repro.aging.cell_library.leakage_derating_factor`.  The *per-toggle*
switching energy is aging-independent in this characterisation, so for a
uniform scenario the two paths run the identical float operations and report
bit-identical energy.  The toggle *counts* themselves are aging-independent
only for the default zero-delay activity; glitch-aware activity
(``activity_mode="event"``) simulates the actual per-gate delays, so aging
reshapes the glitch population and, through it, the dynamic energy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.aging.cell_library import (
    CellLibrary,
    leakage_derating_factor,
    leakage_derating_factors,
)
from repro.aging.scenarios.base import AgingScenario, default_fresh_library
from repro.circuits.mac import ArithmeticUnit
from repro.circuits.netlist import Netlist
from repro.power.switching import InputSampler, SwitchingActivity, estimate_switching_activity

#: 1 nW sustained for 1 ps equals 1e-6 fJ.
_NW_PS_TO_FJ = 1e-6


def _sequential_sum(values: np.ndarray) -> float:
    """Left-to-right float accumulation, bit-identical to ``for x: acc += x``.

    ``np.sum`` uses pairwise reduction, which is faster but rounds
    differently; ``np.cumsum`` accumulates strictly sequentially, so its last
    element reproduces the Python loop the scalar energy path used to run.
    """
    if values.size == 0:
        return 0.0
    return float(np.cumsum(values)[-1])


def _creation_order_permutation(netlist: Netlist) -> np.ndarray:
    """Indices mapping topological gate order to ``netlist.gates`` order.

    Scenario ΔVth draws are aligned with ``topological_gates()`` while the
    energy accumulation walks ``netlist.gates`` (creation order); applying
    this permutation *before* the sequential sum preserves the scalar loop's
    accumulation order bit for bit.
    """
    topo_index = {gate: i for i, gate in enumerate(netlist.topological_gates())}
    return np.array([topo_index[gate] for gate in netlist.gates], dtype=np.intp)


def delta_leakage_nw(
    netlist: Netlist,
    delta_vth_mv: np.ndarray,
    library: CellLibrary | None = None,
) -> np.ndarray:
    """Total static leakage (nW) per ΔVth column, one NumPy reduction.

    ``delta_vth_mv`` is ``(gates,)`` or ``(gates, scenarios)`` aligned with
    ``netlist.topological_gates()``.  Each column's total is bit-identical
    to the per-gate Python loop (``spec.leakage_power_nw *
    leakage_derating_factor(ΔVth)`` summed in ``netlist.gates`` order): the
    derating table goes through libm ``pow`` elementwise and the reduction
    is a sequential cumsum after reordering to creation order.
    """
    base = library if library is not None else default_fresh_library()
    deltas = np.asarray(delta_vth_mv, dtype=float)
    order = netlist.topological_gates()
    if deltas.shape[0] != len(order):
        raise ValueError(
            f"delta_vth_mv must have one row per gate ({len(order)}), "
            f"got shape {deltas.shape}"
        )
    specs = np.array([base.cell(gate.cell_name).leakage_power_nw for gate in order])
    derated = (specs[:, None] if deltas.ndim == 2 else specs) * leakage_derating_factors(deltas)
    per_gate = derated[_creation_order_permutation(netlist)]
    if per_gate.size == 0:
        return np.zeros(deltas.shape[1:] or ())
    return np.cumsum(per_gate, axis=0)[-1]


@dataclass(frozen=True)
class EnergyReport:
    """Energy breakdown of a circuit over a stream of operations.

    Attributes:
        dynamic_energy_fj: total switching energy over all simulated
            operations.
        leakage_energy_fj: total leakage energy (leakage power integrated
            over one clock period per operation).
        num_operations: number of operations the totals cover.
        clock_period_ps: the clock period used for the leakage integration.
    """

    dynamic_energy_fj: float
    leakage_energy_fj: float
    num_operations: int
    clock_period_ps: float

    @property
    def total_energy_fj(self) -> float:
        return self.dynamic_energy_fj + self.leakage_energy_fj

    @property
    def energy_per_operation_fj(self) -> float:
        if self.num_operations == 0:
            return 0.0
        return self.total_energy_fj / self.num_operations


def _dynamic_energy_terms(
    netlist: Netlist, activity: SwitchingActivity, library: CellLibrary
) -> np.ndarray:
    """Per-gate switching-energy terms in ``netlist.gates`` order."""
    return np.array(
        [
            activity.toggles_per_gate.get(gate.name, 0)
            * library.switching_energy_fj(gate.cell_name)
            for gate in netlist.gates
        ]
    )


def scenario_energy_reports(
    target: "ArithmeticUnit | Netlist",
    delta_vth_mv: np.ndarray,
    activity: SwitchingActivity,
    clock_period_ps: float,
    library: CellLibrary | None = None,
) -> list[EnergyReport]:
    """Price one activity under many per-gate ΔVth columns at once.

    ``delta_vth_mv`` is a ``(gates, scenarios)`` matrix (rows aligned with
    ``netlist.topological_gates()``) — typically the stacked
    :meth:`~repro.aging.scenarios.AgingScenario.gate_delta_vth_mv` draws of
    an array's PEs.  Switching energy is aging-independent, so the dynamic
    term is computed once; leakage derates per column through one
    vectorised reduction.  Report ``k`` is bit-identical to
    ``EnergyModel(scenario_k).energy_from_activity(...)``.
    """
    if clock_period_ps <= 0:
        raise ValueError("clock_period_ps must be positive")
    netlist = target.netlist if isinstance(target, ArithmeticUnit) else target
    base = library if library is not None else default_fresh_library()
    deltas = np.asarray(delta_vth_mv, dtype=float)
    if deltas.ndim != 2:
        raise ValueError(f"delta_vth_mv must be (gates, scenarios), got shape {deltas.shape}")
    dynamic_fj = _sequential_sum(_dynamic_energy_terms(netlist, activity, base))
    leakage_columns = delta_leakage_nw(netlist, deltas, base)
    return [
        EnergyReport(
            dynamic_energy_fj=dynamic_fj,
            leakage_energy_fj=float(leakage_nw)
            * clock_period_ps
            * activity.num_transitions
            * _NW_PS_TO_FJ,
            num_operations=activity.num_transitions,
            clock_period_ps=clock_period_ps,
        )
        for leakage_nw in leakage_columns
    ]


class EnergyModel:
    """Estimate per-operation energy of a circuit under a delay source."""

    def __init__(self, library: "CellLibrary | AgingScenario") -> None:
        if isinstance(library, AgingScenario):
            self.scenario: AgingScenario | None = library
            #: The fresh characterisation the scenario derates gate by gate.
            self.library = library.base_library()
        elif isinstance(library, CellLibrary):
            self.scenario = None
            self.library = library
        else:
            raise TypeError(
                f"expected a CellLibrary or AgingScenario, got {type(library).__name__}"
            )

    def _gate_leakage_nw(self, netlist: Netlist) -> "dict[object, float]":
        """Per-gate static leakage (nW) under the model's delay source."""
        if self.scenario is None:
            return {
                gate: self.library.leakage_power_nw(gate.cell_name)
                for gate in netlist.gates
            }
        deltas = self.scenario.gate_delta_vth_mv(netlist, self.library)
        return {
            gate: self.library.cell(gate.cell_name).leakage_power_nw
            * leakage_derating_factor(float(delta))
            for gate, delta in zip(netlist.topological_gates(), deltas)
        }

    def energy_from_activity(
        self,
        target: "ArithmeticUnit | Netlist",
        activity: SwitchingActivity,
        clock_period_ps: float,
    ) -> EnergyReport:
        """Turn a :class:`SwitchingActivity` into an energy report."""
        if clock_period_ps <= 0:
            raise ValueError("clock_period_ps must be positive")
        netlist = target.netlist if isinstance(target, ArithmeticUnit) else target
        dynamic_fj = _sequential_sum(_dynamic_energy_terms(netlist, activity, self.library))
        if self.scenario is None:
            leakage_nw = _sequential_sum(
                np.array([self.library.leakage_power_nw(g.cell_name) for g in netlist.gates])
            )
        else:
            deltas = self.scenario.gate_delta_vth_mv(netlist, self.library)
            leakage_nw = float(delta_leakage_nw(netlist, deltas, self.library))
        leakage_fj = leakage_nw * clock_period_ps * activity.num_transitions * _NW_PS_TO_FJ
        return EnergyReport(
            dynamic_energy_fj=dynamic_fj,
            leakage_energy_fj=leakage_fj,
            num_operations=activity.num_transitions,
            clock_period_ps=clock_period_ps,
        )

    def estimate_operation_energy(
        self,
        target: "ArithmeticUnit | Netlist",
        clock_period_ps: float,
        num_transitions: int = 500,
        rng: "int | None" = None,
        input_sampler: InputSampler | None = None,
        activity: SwitchingActivity | None = None,
        activity_mode: str = "zero-delay",
        workers: int = 0,
    ) -> EnergyReport:
        """Simulate random traffic through ``target`` and report its energy.

        The ``input_sampler`` controls the operand distribution; the Fig. 5
        experiment compares full-range 8-bit operands (baseline, guardbanded
        clock) against operands restricted to the compressed quantized ranges
        (our technique, fresh clock).  Pass a precomputed ``activity`` to
        price the same traffic under many delay sources without re-simulating
        (zero-delay logic values are aging-independent, so array-scale
        scenario maps simulate once and share the activity across every PE).

        ``activity_mode="event"`` counts toggles with the batched
        event-driven engine instead, using this model's own delay source
        (the scenario if one was given, else the library), so glitches —
        which the zero-delay baseline cannot see and which shift with aging —
        are priced into the dynamic term.  ``workers`` parallelises the
        activity estimation without changing its result.
        """
        if activity is None:
            activity = estimate_switching_activity(
                target,
                num_transitions=num_transitions,
                rng=rng,
                input_sampler=input_sampler,
                mode=activity_mode,
                delay_source=(
                    (self.scenario if self.scenario is not None else self.library)
                    if activity_mode == "event"
                    else None
                ),
                workers=workers,
            )
        return self.energy_from_activity(target, activity, clock_period_ps)
