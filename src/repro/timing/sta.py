"""Static timing analysis with case-analysis constant propagation.

The STA engine computes worst-case arrival times over the topologically
sorted gate graph.  Its distinguishing feature — and the reason the paper's
technique works at all — is *case analysis*: input bits that are zero-padded
by the (α, β) compression are declared constant, the constants are
propagated through the logic (a controlling zero kills an AND gate, an
entire partial-product row, and every path through it), and only the
remaining sensitisable logic contributes to the critical path.  This mirrors
the paper's use of PrimeTime ``set_case_analysis`` on the padded bit
positions.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Mapping, Sequence

import repro.observability as observability
from repro.aging.cell_library import CellLibrary
from repro.aging.scenarios.base import (
    AgingScenario,
    resolve_gate_delay_columns,
    resolve_gate_delays,
)
from repro.circuits.backends import corner_case_delays
from repro.circuits.constants import case_assignments, propagate_constants
from repro.circuits.mac import ArithmeticUnit
from repro.circuits.netlist import Net, Netlist


@dataclass(frozen=True)
class TimingPath:
    """A worst-case timing path.

    Attributes:
        delay_ps: path delay (arrival time at the endpoint).
        endpoint: name of the output net the path terminates at.
        nets: net names along the path, from the launching input (or the
            first non-constant net) to the endpoint.
    """

    delay_ps: float
    endpoint: str
    nets: tuple[str, ...]

    @property
    def depth(self) -> int:
        """Number of logic stages along the path."""
        return max(len(self.nets) - 1, 0)


def scenario_case_delays(
    target: "ArithmeticUnit | Netlist",
    scenarios: "Sequence[float | AgingScenario]",
    library: CellLibrary | None = None,
    case_analysis: Mapping[str, int] | None = None,
) -> list[float]:
    """Critical-path delays of many aging scenarios in one levelized pass.

    The dual of :meth:`StaticTimingAnalyzer.case_analysis_delays`: there the
    delay table is shared and the constants vary per corner; here the
    constants are shared (one optional ``case_analysis``) and the **delay
    table varies per corner** — scenario ``j`` becomes column ``j`` of a
    ``(gates, scenarios)`` delay matrix resolved through
    :func:`~repro.aging.scenarios.base.resolve_gate_delay_columns`, and the
    whole batch rides one corner-batched max-plus pass.  This is what turns
    a 64×64 array scenario map from 4096 ``StaticTimingAnalyzer`` runs into
    a single ``(nets, PEs)`` traversal.

    Returns per-scenario delays bit-identical to instantiating
    ``StaticTimingAnalyzer(target, scenario)`` per scenario (max-plus over
    float64 is order-insensitive, and the vectorised delay resolution goes
    through libm ``pow`` elementwise).
    """
    netlist = target.netlist if isinstance(target, ArithmeticUnit) else target
    if len(scenarios) == 0:
        return []
    delay_matrix = resolve_gate_delay_columns(netlist, list(scenarios), library)
    # One shared case analysis for every column: corner_case_delays detects
    # the identity and resolves one broadcast exclusion column.
    return corner_case_delays(netlist, delay_matrix, [case_analysis] * delay_matrix.shape[1])


class StaticTimingAnalyzer:
    """Topological worst-case STA for a combinational netlist."""

    def __init__(
        self,
        target: "ArithmeticUnit | Netlist",
        library: "CellLibrary | AgingScenario",
    ) -> None:
        self.netlist = target.netlist if isinstance(target, ArithmeticUnit) else target
        self.library = library
        self._order = self.netlist.topological_gates()
        # Per-gate delays through the scenario funnel: a plain CellLibrary
        # degrades uniformly, an AgingScenario resolves gate by gate.
        self._gate_delay_ps = resolve_gate_delays(self.netlist, library)
        #: Number of levelized arrival traversals this engine has run — the
        #: multi-corner path counts one traversal for a whole corner batch,
        #: which is what the case-analysis sweep benchmark asserts on.
        self.levelized_passes = 0

    # ----------------------------------------------------------------- timing
    def arrival_times(
        self, case_analysis: Mapping[str, int] | None = None
    ) -> tuple[dict[Net, float], dict[Net, int]]:
        """Compute per-net arrival times under optional case analysis.

        Returns the arrival-time map and the resolved constant map.  Constant
        nets do not appear in the arrival map (they never transition).
        """
        constants = propagate_constants(
            self.netlist, case_assignments(self.netlist, case_analysis)
        )
        self.levelized_passes += 1
        observability.add("sta.levelized_passes")
        arrivals: dict[Net, float] = {}
        for net in self.netlist.nets.values():
            if net.is_primary_input and net not in constants:
                arrivals[net] = 0.0
        for gate in self._order:
            if gate.output in constants:
                continue
            input_arrivals = [
                arrivals[net] for net in gate.inputs if net not in constants
            ]
            latest = max(input_arrivals, default=0.0)
            arrivals[gate.output] = latest + self._gate_delay_ps[gate]
        return arrivals, constants

    def critical_path_delay(self, case_analysis: Mapping[str, int] | None = None) -> float:
        """Worst arrival time over all primary outputs (ps)."""
        arrivals, constants = self.arrival_times(case_analysis)
        worst = 0.0
        for net in self.netlist.primary_output_nets():
            if net in constants:
                continue
            worst = max(worst, arrivals.get(net, 0.0))
        return worst

    def case_analysis_delays(
        self, cases: Sequence[Mapping[str, int] | None]
    ) -> list[float]:
        """Critical-path delays of many case-analysis corners in one pass.

        The per-gate delay table is shared by every corner, so instead of
        re-running the levelized traversal per corner (as Algorithm 1's
        original per-(α, β) STA loop did), arrival times are carried as one
        vector per net — element ``j`` belonging to corner ``j`` — through
        the corner-batched max-plus pass of the ndarray simulation backend
        (:func:`repro.circuits.backends.corner_case_delays`): the whole
        corner batch runs on the same levelized gather/scatter schedule the
        lane simulator uses for Monte-Carlo lanes.  The per-corner constants
        (they differ between paddings) resolve in one three-valued pass over
        the same schedule
        (:meth:`~repro.circuits.backends.LevelizedGraph.constant_mask`),
        which enumerates each cell group's truth table once for all corners
        and yields the exclusion mask directly.  The scalar
        :func:`~repro.circuits.constants.propagate_constants` would cost one
        Python call per gate and corner, over ten times the arrival pass
        itself on the default MAC.

        Returns per-corner delays identical to calling
        :meth:`critical_path_delay` once per corner (the constant sets are
        the same, and max-plus over float64 is order-insensitive, so the
        vectorised pass is bit-identical).
        """
        if not cases:
            return []
        delays = corner_case_delays(self.netlist, self._gate_delay_ps, cases)
        self.levelized_passes += 1
        observability.add("sta.levelized_passes")
        return delays

    def critical_path(self, case_analysis: Mapping[str, int] | None = None) -> TimingPath:
        """Worst-case path with the nets along it (for reports and debugging)."""
        arrivals, constants = self.arrival_times(case_analysis)
        endpoint: Net | None = None
        worst = 0.0
        for net in self.netlist.primary_output_nets():
            if net in constants:
                continue
            arrival = arrivals.get(net, 0.0)
            if arrival >= worst:
                worst = arrival
                endpoint = net
        if endpoint is None:
            return TimingPath(delay_ps=0.0, endpoint="", nets=())

        # Walk backwards: at each gate follow the non-constant input whose
        # arrival determined the output arrival.
        path = [endpoint.name]
        current = endpoint
        while current.driver is not None and current not in constants:
            gate = current.driver
            candidates = [net for net in gate.inputs if net not in constants]
            if not candidates:
                break
            predecessor = max(candidates, key=lambda net: arrivals.get(net, 0.0))
            path.append(predecessor.name)
            if predecessor.is_primary_input:
                break
            current = predecessor
        path.reverse()
        return TimingPath(delay_ps=worst, endpoint=endpoint.name, nets=tuple(path))

    # ----------------------------------------------------------------- slack
    def slack_ps(
        self,
        clock_period_ps: float,
        case_analysis: Mapping[str, int] | None = None,
    ) -> float:
        """Timing slack against ``clock_period_ps`` (negative means violation)."""
        if clock_period_ps <= 0:
            raise ValueError("clock_period_ps must be positive")
        return clock_period_ps - self.critical_path_delay(case_analysis)

    def meets_timing(
        self,
        clock_period_ps: float,
        case_analysis: Mapping[str, int] | None = None,
    ) -> bool:
        """Whether the (possibly compressed) circuit meets the clock period."""
        return self.slack_ps(clock_period_ps, case_analysis) >= 0.0
