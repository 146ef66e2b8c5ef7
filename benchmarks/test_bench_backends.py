"""Benchmarks of the levelized lane backend and the corner-batched passes.

Three properties are asserted:

* at a wide batch (8192 lanes) the NumPy ``uint64``-lane backend
  reproduces the scalar engine bit for bit on the paper's MAC, for both
  levelized arrival models, on one lane of every machine word;
* the corners x lanes levelized STA pass behind ``case_analysis_delays``
  must reproduce the per-corner ``critical_path_delay`` numbers
  bit-identically (not approximately) over the full Algorithm 1 grid;
* the corner-column array scenario map must evaluate a whole PE array in
  one batched max-plus traversal (counter-asserted, not wall clock) with
  grids byte-identical to the per-PE scalar reference.

Every assertion is exact or counter-based, so the suite runs on any host;
the recorded times are measurements, not gates.
"""

import numpy as np
import pytest

from repro.aging.cell_library import AgingAwareLibrarySet
from repro.circuits.backends import get_backend, levelized_graph
from repro.circuits.mac import build_mac
from repro.circuits.simulator import BATCH_ARRIVAL_MODELS, TimingSimulator
from repro.core.compression import enumerate_compressions
from repro.core.padding import Padding, mac_case_analysis
from repro.npu.scenario_map import (
    ArrayScenarioMap,
    _array_work,
    _evaluate_pe,
    array_scenario_map,
)
from repro.npu.systolic import SystolicArray
from repro.timing.sta import StaticTimingAnalyzer

#: Batch width of the wide-batch bit-identity check.
WIDE_LANES = 8192

_MAC = build_mac()
_LIBRARIES = AgingAwareLibrarySet.generate((0.0, 50.0))


def _batch_inputs(rng, lanes):
    return {
        bus: [int(value) for value in rng.integers(0, 1 << len(nets), size=lanes)]
        for bus, nets in _MAC.netlist.input_buses.items()
    }


@pytest.mark.parametrize("model", BATCH_ARRIVAL_MODELS)
def test_bench_ndarray_matches_scalar_at_wide_batches(benchmark, model):
    """An 8192-lane MAC batch equals the scalar engine lane by lane.

    The scalar engine runs one lane per 64-lane machine word (at a bit
    position that walks across the word) plus the last lane, so every word
    of the packed rows is checked without 8192 scalar propagations.
    """
    library = _LIBRARIES.library(50.0)
    rng = np.random.default_rng(0)
    previous = _batch_inputs(rng, WIDE_LANES)
    current = _batch_inputs(rng, WIDE_LANES)

    lane_sim = get_backend("ndarray").timing_simulator(_MAC.netlist, library, model)
    evaluation = benchmark.pedantic(
        lambda: lane_sim.propagate_batch(previous, current), rounds=3, iterations=1
    )
    clock = float(np.quantile(evaluation.worst_arrival_ps, 0.5)) or 10.0
    finals = evaluation.final_outputs()
    captured = evaluation.captured_outputs(clock)

    scalar_sim = TimingSimulator(_MAC.netlist, library, arrival_model=model)
    lanes = sorted({word * 64 + word % 64 for word in range(WIDE_LANES // 64)} | {WIDE_LANES - 1})
    for lane in lanes:
        reference = scalar_sim.propagate(
            {bus: values[lane] for bus, values in previous.items()},
            {bus: values[lane] for bus, values in current.items()},
        )
        # Bit-identical evaluations, not just close ones.
        assert evaluation.worst_arrival_ps[lane] == reference.worst_arrival_ps
        assert {bus: values[lane] for bus, values in finals.items()} == reference.final_outputs
        assert {bus: values[lane] for bus, values in captured.items()} == (
            reference.captured_outputs(clock)
        )
    benchmark.extra_info["lanes"] = WIDE_LANES
    benchmark.extra_info["scalar_checked_lanes"] = len(lanes)


def test_bench_array_map_batched_vs_scalar_16x16(benchmark):
    """16x16 array map: one max-plus pass, grids byte-identical to scalar."""
    array = SystolicArray(rows=16, cols=16)
    kwargs = dict(nominal_mv=25.0, sigma_mv=5.0, seed=0, num_transitions=50, mac=_MAC)
    items, payload = _array_work(array, **kwargs)
    scalar = ArrayScenarioMap(
        array=array,
        clock_period_ps=payload["clock_period_ps"],
        fresh_delay_ps=payload["fresh_delay_ps"],
        records=tuple(_evaluate_pe(item, payload) for item in items),
    )
    graph = levelized_graph(_MAC.netlist)

    def run():
        before = graph.max_plus_passes
        result = array_scenario_map(array, **kwargs)
        return result, graph.max_plus_passes - before

    batched, passes = benchmark(run)
    # 256 PEs, one corner-batched traversal: the counter shows the batching.
    assert passes == 1
    for grid in ("delay_grid_ps", "energy_grid_fj", "margin_grid_mv", "lifetime_grid_years"):
        assert getattr(batched, grid)().tobytes() == getattr(scalar, grid)().tobytes()
    benchmark.extra_info["pes"] = array.rows * array.cols
    benchmark.extra_info["max_plus_passes"] = passes


def test_bench_array_map_64x64_single_pass(benchmark):
    """The acceptance-scale 64x64 map runs timing in <= levels-many passes."""
    array = SystolicArray(rows=64, cols=64)
    graph = levelized_graph(_MAC.netlist)

    def run():
        before = graph.max_plus_passes
        result = array_scenario_map(
            array, nominal_mv=25.0, sigma_mv=5.0, seed=0, num_transitions=50, mac=_MAC
        )
        return result, graph.max_plus_passes - before

    result, passes = benchmark.pedantic(run, rounds=1, iterations=1)
    assert passes <= len(graph.levels)  # actually a single batched pass
    assert passes == 1
    assert result.delay_grid_ps().shape == (64, 64)
    assert np.isfinite(result.delay_grid_ps()).all()
    assert (result.energy_grid_fj() > 0.0).all()
    benchmark.extra_info["pes"] = array.rows * array.cols
    benchmark.extra_info["levels"] = len(graph.levels)
    benchmark.extra_info["max_plus_passes"] = passes


def test_bench_corner_sta_grid_bit_identical(benchmark):
    """The corners x lanes STA pass reproduces per-corner delays exactly."""
    library = _LIBRARIES.library(50.0)
    analyzer = StaticTimingAnalyzer(_MAC, library)
    cases = [
        mac_case_analysis(
            choice.alpha, choice.beta, choice.padding,
            multiplier_width=8, accumulator_width=22,
        )
        for choice in enumerate_compressions(6, 6, (Padding.MSB, Padding.LSB))
    ]

    batched = benchmark(lambda: analyzer.case_analysis_delays(cases))
    scalar = [analyzer.critical_path_delay(case) for case in cases]
    assert batched == scalar  # bit-identical floats over the whole grid
    benchmark.extra_info["corners"] = len(cases)
