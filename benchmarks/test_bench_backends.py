"""Benchmarks of the pluggable simulation backends.

Three properties are asserted:

* at wide batch widths (8192 lanes) the NumPy ``uint64``-lane backend
  must beat the bigint word-packed backend by >= 3x on the paper's MAC
  for both levelized arrival models, with bit-identical evaluations;
* the corners x lanes levelized STA pass behind ``case_analysis_delays``
  must reproduce the per-corner ``critical_path_delay`` numbers
  bit-identically (not approximately) over the full Algorithm 1 grid;
* the corner-column array scenario map must evaluate a whole PE array in
  one batched max-plus traversal (counter-asserted, not wall clock) with
  grids byte-identical to the per-PE scalar path.

A softer benchmark asserts that ndarray already beats bigint at 8 lanes,
for both levelized models, as the median of interleaved pairs; it runs on
any host.

Like the process-parallel suite, the 8192-lane speedup assertions are
skipped on machines with fewer than 4 usable CPUs, where shared/noisy
hardware makes best-of-N ratios unreliable; the counter-based batching
assertions run everywhere.
"""

import statistics
import time

import numpy as np
import pytest

from repro.aging.cell_library import AgingAwareLibrarySet
from repro.circuits.backends import get_backend, levelized_graph
from repro.circuits.mac import build_mac
from repro.circuits.simulator import BATCH_ARRIVAL_MODELS
from repro.core.compression import enumerate_compressions
from repro.core.padding import Padding, mac_case_analysis
from repro.npu.scenario_map import array_scenario_map
from repro.npu.systolic import SystolicArray
from repro.parallel import usable_cpu_count
from repro.timing.sta import StaticTimingAnalyzer

#: Batch width of the headline speedup measurement.
WIDE_LANES = 8192
#: Required ndarray-over-bigint speedup at WIDE_LANES.
REQUIRED_SPEEDUP = 3.0
#: Minimum usable CPUs for a meaningful wall-clock ratio (matches the
#: parallel-sweep benchmark's skip rule).
MIN_CPUS = 4

_MAC = build_mac()
_LIBRARIES = AgingAwareLibrarySet.generate((0.0, 50.0))


def _batch_inputs(rng, lanes):
    return {
        bus: [int(value) for value in rng.integers(0, 1 << len(nets), size=lanes)]
        for bus, nets in _MAC.netlist.input_buses.items()
    }


def _median_speedup(slow, fast, pairs):
    """Median of ``slow / fast`` seconds over interleaved pairs.

    Each pair times both callables back to back, alternating which runs
    first, so host drift hits both sides alike.
    """
    ratios = []
    for index in range(pairs):
        seconds = {}
        order = (slow, fast) if index % 2 == 0 else (fast, slow)
        for run in order:
            start = time.perf_counter()
            run()
            seconds[run] = time.perf_counter() - start
        ratios.append(seconds[slow] / seconds[fast])
    return statistics.median(ratios)


def _time_propagate(simulator, previous, current, repetitions=3):
    simulator.propagate_batch(previous, current)  # warm caches / schedules
    best = float("inf")
    for _ in range(repetitions):
        start = time.perf_counter()
        evaluation = simulator.propagate_batch(previous, current)
        best = min(best, time.perf_counter() - start)
    return best, evaluation


@pytest.mark.parametrize("model", BATCH_ARRIVAL_MODELS)
def test_bench_ndarray_beats_bigint_at_wide_batches(benchmark, model):
    """ndarray must be >= 3x faster than bigint at 8192-lane MAC batches."""
    if usable_cpu_count() < MIN_CPUS:
        pytest.skip(
            f"needs >= {MIN_CPUS} usable CPUs for a reliable wall-clock "
            f"ratio (have {usable_cpu_count()})"
        )
    library = _LIBRARIES.library(50.0)
    rng = np.random.default_rng(0)
    previous = _batch_inputs(rng, WIDE_LANES)
    current = _batch_inputs(rng, WIDE_LANES)

    lane_sim = get_backend("ndarray").timing_simulator(_MAC.netlist, library, model)
    bigint_sim = get_backend("bigint").timing_simulator(_MAC.netlist, library, model)

    lane_eval = benchmark.pedantic(
        lambda: lane_sim.propagate_batch(previous, current), rounds=3, iterations=1
    )
    lane_elapsed = benchmark.stats.stats.min
    bigint_elapsed, bigint_eval = _time_propagate(bigint_sim, previous, current)

    # Bit-identical evaluations, not just close ones.
    assert np.array_equal(lane_eval.worst_arrival_ps, bigint_eval.worst_arrival_ps)
    clock = float(np.quantile(bigint_eval.worst_arrival_ps, 0.5)) or 10.0
    assert lane_eval.captured_outputs(clock) == bigint_eval.captured_outputs(clock)

    speedup = bigint_elapsed / lane_elapsed
    benchmark.extra_info["lanes"] = WIDE_LANES
    benchmark.extra_info["bigint_s"] = bigint_elapsed
    benchmark.extra_info["speedup_vs_bigint"] = speedup
    assert speedup >= REQUIRED_SPEEDUP


def test_bench_array_map_batched_vs_scalar_16x16(benchmark):
    """16x16 array map: one max-plus pass, grids byte-identical to scalar."""
    array = SystolicArray(rows=16, cols=16)
    kwargs = dict(nominal_mv=25.0, sigma_mv=5.0, seed=0, num_transitions=50, mac=_MAC)
    scalar = array_scenario_map(array, batched=False, **kwargs)
    graph = levelized_graph(_MAC.netlist)

    def run():
        before = graph.max_plus_passes
        result = array_scenario_map(array, batched=True, **kwargs)
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


def test_bench_crossover_width(benchmark):
    """At 8 lanes the ndarray backend already wins, for both levelized models.

    ``"auto"`` resolves settle and transition to ndarray at every width.
    8 lanes is the narrowest width at which the interleaved bigint/ndarray
    measurement behind that rule found ndarray ahead by >= 1.7x on both
    models (single-vector transition batches are a tie, so 1 lane would
    assert a coin flip).  Each ratio is the median of interleaved pairs,
    alternating which backend runs first, so it holds on a 2-CPU host.
    """
    library = _LIBRARIES.library(50.0)
    rng = np.random.default_rng(1)
    lanes = 8
    previous = _batch_inputs(rng, lanes)
    current = _batch_inputs(rng, lanes)

    ratios = {}
    for model in BATCH_ARRIVAL_MODELS:
        lane_sim = get_backend("ndarray").timing_simulator(_MAC.netlist, library, model)
        bigint_sim = get_backend("bigint").timing_simulator(_MAC.netlist, library, model)
        lane_sim.propagate_batch(previous, current)  # warm caches / schedules
        bigint_sim.propagate_batch(previous, current)

        def repeat(simulator):
            # One pair side: a few calls, well above timer resolution.
            return lambda: [simulator.propagate_batch(previous, current) for _ in range(5)]

        ratios[model] = _median_speedup(repeat(bigint_sim), repeat(lane_sim), pairs=11)

    benchmark.pedantic(
        lambda: get_backend("ndarray")
        .timing_simulator(_MAC.netlist, library, "settle")
        .propagate_batch(previous, current),
        rounds=5,
        iterations=1,
    )
    benchmark.extra_info["lanes"] = lanes
    for model, ratio in ratios.items():
        benchmark.extra_info[f"speedup_vs_bigint.{model}"] = ratio
    # The median of interleaved pairs absorbs timer noise but still catches
    # a regression that makes ndarray lose to bigint on narrow batches.
    for model, ratio in ratios.items():
        assert ratio >= 1.0, (model, ratio)


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
