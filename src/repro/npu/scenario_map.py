"""Array-level aging maps: one scenario per PE of the systolic array.

The paper analyses one MAC and multiplies it out to the 64×64 array; with
per-gate scenarios the analysis can instead give **every PE its own aging**:
each (row, col) position draws a :class:`~repro.aging.scenarios.
VariationAging` scenario from a seed that is a pure function of
``(array seed, row, col)``, and the map evaluates per-PE delay, timing
margin, energy and projected BTI lifetime across the whole array.

Evaluation order never matters: PE records are pure functions of the PE item
and the shared payload, so the batched corner-column path is bit-identical
to the per-PE scalar reference the tests compare it with.  Logic values are
aging-independent, so the switching activity powering the energy estimate
is simulated **once** in the parent and shared by every PE — only the
leakage derating differs per PE.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.aging.bti import BTIModel
from repro.aging.cell_library import CellLibrary
from repro.aging.scenarios.base import default_fresh_library, gate_delay_columns
from repro.aging.scenarios.heterogeneous import VariationAging
from repro.circuits.backends import corner_case_delays
from repro.circuits.mac import ArithmeticUnit, build_mac
from repro.npu.systolic import SystolicArray
from repro.power.energy import EnergyModel, scenario_energy_reports
from repro.power.switching import SwitchingActivity, estimate_switching_activity
from repro.timing.sta import StaticTimingAnalyzer

#: Fixed salt decorrelating per-PE scenario seeds from every other stream
#: derived from the same user seed.
_ARRAY_STREAM_TAG = 0xA88A71E5


def pe_seed(seed: int, row: int, col: int) -> int:
    """Deterministic per-PE variation seed — a pure function of its fields."""
    state = np.random.SeedSequence([_ARRAY_STREAM_TAG, int(seed), int(row), int(col)])
    return int(state.generate_state(1)[0])


def array_variation_scenarios(
    array: SystolicArray,
    nominal_mv: float,
    sigma_mv: float = 5.0,
    seed: int = 0,
    library: CellLibrary | None = None,
) -> "list[tuple[int, int, VariationAging]]":
    """One :class:`VariationAging` scenario per PE, in row-major order."""
    base = library if library is not None else default_fresh_library()
    return [
        (row, col, VariationAging(nominal_mv, sigma_mv, seed=pe_seed(seed, row, col), library=base))
        for row in range(array.rows)
        for col in range(array.cols)
    ]


@dataclass(frozen=True)
class PERecord:
    """Aging analysis of one PE (one MAC instance) of the array.

    Attributes:
        row: PE row inside the array.
        col: PE column inside the array.
        scenario: the PE's drawn aging scenario.
        delay_ps: uncompressed critical-path delay under the scenario.
        clock_period_ps: array clock the PE is judged against.
        energy_per_op_fj: per-operation energy under the scenario (shared
            traffic, per-gate leakage derating).
        effective_delta_vth_mv: the uniform ΔVth that would produce this
            PE's delay (inverse alpha-power of ``delay / fresh_delay``).
        margin_mv: additional uniform ΔVth the PE can absorb before it
            violates the clock (negative when already violating).
        lifetime_years: projected years until the margin is consumed by
            nominal BTI aging (0 when already violating).
    """

    row: int
    col: int
    scenario: VariationAging
    delay_ps: float
    clock_period_ps: float
    energy_per_op_fj: float
    effective_delta_vth_mv: float
    margin_mv: float
    lifetime_years: float

    @property
    def slack_ps(self) -> float:
        return self.clock_period_ps - self.delay_ps

    @property
    def meets_timing(self) -> bool:
        return self.slack_ps >= 0.0

    @property
    def normalized_delay(self) -> float:
        return self.delay_ps / self.clock_period_ps


def _evaluate_pe(item: "tuple[int, int, float, float, int]", payload: Any) -> PERecord:
    """Scalar reference: analyse one PE.  Pure function of (item, payload)."""
    row, col, nominal_mv, sigma_mv, seed = item
    mac: ArithmeticUnit = payload["mac"]
    library: CellLibrary = payload["library"]
    clock_period_ps: float = payload["clock_period_ps"]
    fresh_delay_ps: float = payload["fresh_delay_ps"]
    activity: SwitchingActivity = payload["activity"]
    bti: BTIModel = payload["bti"]

    scenario = VariationAging(nominal_mv, sigma_mv, seed=seed, library=library)
    delay = StaticTimingAnalyzer(mac, scenario).critical_path_delay()
    energy = (
        EnergyModel(scenario)
        .energy_from_activity(mac, activity, clock_period_ps)
        .energy_per_operation_fj
    )

    model = library.delay_model
    effective = model.delta_vth_mv_for_factor(max(delay / fresh_delay_ps, 1.0))
    budget_factor = clock_period_ps / fresh_delay_ps
    max_delta = model.delta_vth_mv_for_factor(budget_factor) if budget_factor >= 1.0 else 0.0
    margin = max_delta - effective
    if margin >= 0.0:
        # The PE's variation offset is fixed; nominal BTI keeps accruing, so
        # failure lands when the nominal level has grown by the margin.
        lifetime = bti.years_for_delta_vth(nominal_mv + margin)
    else:
        lifetime = 0.0
    return PERecord(
        row=row,
        col=col,
        scenario=scenario,
        delay_ps=delay,
        clock_period_ps=clock_period_ps,
        energy_per_op_fj=energy,
        effective_delta_vth_mv=effective,
        margin_mv=margin,
        lifetime_years=lifetime,
    )


def _evaluate_array_batched(
    items: "list[tuple[int, int, float, float, int]]", payload: Any
) -> "list[PERecord]":
    """Analyse every PE in one corner-batched pass.

    Each PE's scenario becomes one column of a ``(gates, PEs)`` delay matrix
    (:func:`~repro.aging.scenarios.base.gate_delay_columns`), so the whole
    array's timing runs as a single ``(nets, PEs)`` max-plus traversal
    through :func:`~repro.circuits.backends.corner_case_delays` instead of
    one :class:`~repro.timing.sta.StaticTimingAnalyzer` run per PE; energy
    batches the same way through :func:`~repro.power.energy.
    scenario_energy_reports`.  Records are bit-identical to
    :func:`_evaluate_pe` — the vectorised delay/derating tables go through
    libm ``pow`` elementwise and max-plus over float64 is order-insensitive,
    while the margin/lifetime math stays the scalar chain per PE.
    """
    mac: ArithmeticUnit = payload["mac"]
    library: CellLibrary = payload["library"]
    clock_period_ps: float = payload["clock_period_ps"]
    fresh_delay_ps: float = payload["fresh_delay_ps"]
    activity: SwitchingActivity = payload["activity"]
    bti: BTIModel = payload["bti"]
    netlist = mac.netlist

    scenarios = [
        VariationAging(nominal_mv, sigma_mv, seed=seed, library=library)
        for _, _, nominal_mv, sigma_mv, seed in items
    ]
    deltas = np.stack(
        [scenario.gate_delta_vth_mv(netlist, library) for scenario in scenarios], axis=1
    )
    delay_matrix = gate_delay_columns(netlist, library, deltas)
    delays = corner_case_delays(netlist, delay_matrix, [None] * len(scenarios))
    reports = scenario_energy_reports(mac, deltas, activity, clock_period_ps, library)

    model = library.delay_model
    budget_factor = clock_period_ps / fresh_delay_ps
    max_delta = model.delta_vth_mv_for_factor(budget_factor) if budget_factor >= 1.0 else 0.0
    records = []
    for item, scenario, delay, report in zip(items, scenarios, delays, reports):
        row, col, nominal_mv, _, _ = item
        effective = model.delta_vth_mv_for_factor(max(delay / fresh_delay_ps, 1.0))
        margin = max_delta - effective
        if margin >= 0.0:
            lifetime = bti.years_for_delta_vth(nominal_mv + margin)
        else:
            lifetime = 0.0
        records.append(
            PERecord(
                row=row,
                col=col,
                scenario=scenario,
                delay_ps=delay,
                clock_period_ps=clock_period_ps,
                energy_per_op_fj=report.energy_per_operation_fj,
                effective_delta_vth_mv=effective,
                margin_mv=margin,
                lifetime_years=lifetime,
            )
        )
    return records


@dataclass(frozen=True)
class ArrayScenarioMap:
    """Per-PE aging analysis of a whole systolic array.

    Attributes:
        array: the array geometry analysed.
        clock_period_ps: the array clock every PE is judged against.
        fresh_delay_ps: fresh uncompressed critical-path delay of the MAC.
        records: one :class:`PERecord` per PE, row-major.
    """

    array: SystolicArray
    clock_period_ps: float
    fresh_delay_ps: float
    records: tuple[PERecord, ...]

    def _grid(self, values: "list[float]") -> np.ndarray:
        return np.asarray(values, dtype=float).reshape(self.array.rows, self.array.cols)

    def delay_grid_ps(self) -> np.ndarray:
        """(rows × cols) array of per-PE critical-path delays."""
        return self._grid([record.delay_ps for record in self.records])

    def energy_grid_fj(self) -> np.ndarray:
        """(rows × cols) array of per-PE per-operation energies."""
        return self._grid([record.energy_per_op_fj for record in self.records])

    def margin_grid_mv(self) -> np.ndarray:
        """(rows × cols) array of remaining per-PE ΔVth budgets."""
        return self._grid([record.margin_mv for record in self.records])

    def lifetime_grid_years(self) -> np.ndarray:
        """(rows × cols) array of projected per-PE lifetimes."""
        return self._grid([record.lifetime_years for record in self.records])

    @property
    def timing_yield(self) -> float:
        """Fraction of PEs meeting the clock under their drawn aging."""
        meeting = sum(1 for record in self.records if record.meets_timing)
        return meeting / len(self.records)

    @property
    def worst_pe(self) -> PERecord:
        """The binding PE: slowest under its drawn aging."""
        return max(self.records, key=lambda record: record.delay_ps)

    @property
    def array_lifetime_years(self) -> float:
        """Projected array lifetime: the first PE failure binds the array."""
        return min(record.lifetime_years for record in self.records)


def _array_work(
    array: SystolicArray,
    nominal_mv: float,
    sigma_mv: float = 5.0,
    seed: int = 0,
    mac: ArithmeticUnit | None = None,
    library: CellLibrary | None = None,
    clock_period_ps: float | None = None,
    bti: BTIModel | None = None,
    num_transitions: int = 200,
    rng: int = 0,
) -> "tuple[list[tuple[int, int, float, float, int]], dict]":
    """The per-PE work items and the shared payload of one array map.

    Takes the arguments of :func:`array_scenario_map`, which runs the pair
    corner-batched; the per-PE reference :func:`_evaluate_pe` consumes the
    very same pair.
    """
    if nominal_mv < 0:
        raise ValueError("nominal_mv must be non-negative")
    mac = mac or build_mac()
    base = library if library is not None else default_fresh_library()
    if not base.is_fresh:
        raise ValueError("the base library of an array map must be fresh (0 mV)")
    fresh_delay = StaticTimingAnalyzer(mac, base).critical_path_delay()
    clock = clock_period_ps if clock_period_ps is not None else fresh_delay
    if clock <= 0:
        raise ValueError("clock_period_ps must be positive")
    # Logic values do not depend on aging: simulate the operand traffic once
    # and price it per PE (only the leakage derating differs).
    activity = estimate_switching_activity(mac, num_transitions=num_transitions, rng=rng)
    payload = {
        "mac": mac,
        "library": base,
        "clock_period_ps": clock,
        "fresh_delay_ps": fresh_delay,
        "activity": activity,
        "bti": bti or BTIModel(),
    }
    items = [
        (row, col, float(nominal_mv), float(sigma_mv), pe_seed(seed, row, col))
        for row in range(array.rows)
        for col in range(array.cols)
    ]
    return items, payload


def array_scenario_map(
    array: SystolicArray,
    nominal_mv: float,
    sigma_mv: float = 5.0,
    seed: int = 0,
    mac: ArithmeticUnit | None = None,
    library: CellLibrary | None = None,
    clock_period_ps: float | None = None,
    bti: BTIModel | None = None,
    num_transitions: int = 200,
    rng: int = 0,
) -> ArrayScenarioMap:
    """Map per-PE :class:`VariationAging` draws over a systolic array.

    Every PE gets its own seeded scenario (see :func:`pe_seed`), evaluated
    for delay, timing margin, energy and projected lifetime.  The clock
    defaults to the fresh uncompressed critical path — the guardband-free
    clock the paper's technique keeps.

    The whole array evaluates as corner columns: one ``(nets, PEs)``
    max-plus pass for timing and one vectorised leakage reduction for
    energy — a 64×64 array is a single levelized traversal instead of 4096
    scalar STA runs.  The records are bit-identical to the per-PE scalar
    reference :func:`_evaluate_pe`.
    """
    items, payload = _array_work(
        array, nominal_mv, sigma_mv, seed, mac, library, clock_period_ps, bti,
        num_transitions, rng,
    )
    return ArrayScenarioMap(
        array=array,
        clock_period_ps=payload["clock_period_ps"],
        fresh_delay_ps=payload["fresh_delay_ps"],
        records=tuple(_evaluate_array_batched(items, payload)),
    )
