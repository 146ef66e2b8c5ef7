"""Benchmarks of the batched event engine (per-gate waveform propagation).

The headline assertion matches the PR acceptance criterion: at 1024 lanes
on the paper's MAC the batched :class:`EventWheelSimulator` must beat the
scalar delta-cycle event loop (one ``TimingSimulator.propagate`` per lane)
by >= 3x, with bit-identical timelines asserted before anything is timed.

A softer benchmark asserts that the batched engine already holds its own
at the ``EVENT_BACKEND_MIN_LANES`` crossover width that the ``"auto"``
selection heuristic encodes, and the counter-based observability
assertions (events popped, wheel buckets) run everywhere.

Both wall-clock ratios are the median of interleaved pairs, alternating
which engine runs first, so drift on a shared host hits both sides alike
and the assertions hold on a 2-CPU box.
"""

import statistics
import time

import numpy as np

from repro.aging.cell_library import AgingAwareLibrarySet
from repro.circuits.backends import EVENT_BACKEND_MIN_LANES, EventWheelSimulator
from repro.circuits.mac import build_mac
from repro.circuits.simulator import TimingSimulator

#: Batch width of the headline speedup measurement (>= 1024-lane criterion).
WIDE_LANES = 1024
#: Required batched-over-scalar speedup at WIDE_LANES.
REQUIRED_SPEEDUP = 3.0

_MAC = build_mac()
_LIBRARIES = AgingAwareLibrarySet.generate((0.0, 50.0))


def _batch_inputs(rng, lanes):
    return {
        bus: [int(value) for value in rng.integers(0, 1 << len(nets), size=lanes)]
        for bus, nets in _MAC.netlist.input_buses.items()
    }


def _lane_slice(batch, lane):
    return {bus: values[lane] for bus, values in batch.items()}


def _scalar_sweep(simulator, previous, current, lanes):
    return [
        simulator.propagate(_lane_slice(previous, lane), _lane_slice(current, lane))
        for lane in range(lanes)
    ]


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


def test_bench_wheel_beats_scalar_event_loop_at_wide_batches(benchmark):
    """The batched engine must be >= 3x faster at 1024-lane MAC event batches."""
    library = _LIBRARIES.library(50.0)
    rng = np.random.default_rng(0)
    previous = _batch_inputs(rng, WIDE_LANES)
    current = _batch_inputs(rng, WIDE_LANES)

    wheel = EventWheelSimulator(_MAC.netlist, library)
    scalar = TimingSimulator(_MAC.netlist, library, arrival_model="event")

    # Bit-identical results on a sampled lane subset before timing anything
    # (a full-lane sweep is the cross-engine suite's job, not a benchmark's).
    evaluation = wheel.propagate_batch(previous, current)
    finals = evaluation.final_outputs()
    clock = max(float(np.median(evaluation.worst_arrival_ps)), 1e-3)
    captured = evaluation.captured_outputs(clock)
    for lane in range(0, WIDE_LANES, WIDE_LANES // 16):
        reference = scalar.propagate(
            _lane_slice(previous, lane), _lane_slice(current, lane)
        )
        assert _lane_slice(finals, lane) == reference.final_outputs
        assert _lane_slice(captured, lane) == reference.captured_outputs(clock)
        assert float(evaluation.worst_arrival_ps[lane]) == reference.worst_arrival_ps

    speedup = _median_speedup(
        lambda: _scalar_sweep(scalar, previous, current, WIDE_LANES),
        lambda: wheel.propagate_batch(previous, current),
        pairs=3,
    )
    wheel_eval = benchmark.pedantic(
        lambda: wheel.propagate_batch(previous, current), rounds=3, iterations=1
    )
    benchmark.extra_info["lanes"] = WIDE_LANES
    benchmark.extra_info["speedup_vs_scalar"] = speedup
    benchmark.extra_info["events_popped"] = wheel_eval.counters.events_popped
    benchmark.extra_info["wheel_buckets"] = wheel_eval.counters.wheel_buckets
    benchmark.extra_info["glitches"] = wheel_eval.counters.total_glitches
    assert speedup >= REQUIRED_SPEEDUP


def test_bench_crossover_width(benchmark):
    """At the auto-selection crossover the batched engine already holds its own."""
    library = _LIBRARIES.library(50.0)
    rng = np.random.default_rng(1)
    lanes = EVENT_BACKEND_MIN_LANES
    previous = _batch_inputs(rng, lanes)
    current = _batch_inputs(rng, lanes)
    wheel = EventWheelSimulator(_MAC.netlist, library)
    scalar = TimingSimulator(_MAC.netlist, library, arrival_model="event")

    wheel.propagate_batch(previous, current)  # warm schedules
    ratio = _median_speedup(
        lambda: _scalar_sweep(scalar, previous, current, lanes),
        lambda: wheel.propagate_batch(previous, current),
        pairs=11,
    )
    benchmark.pedantic(
        lambda: wheel.propagate_batch(previous, current), rounds=5, iterations=1
    )
    benchmark.extra_info["lanes"] = lanes
    benchmark.extra_info["speedup_vs_scalar"] = ratio
    # The heuristic switches where the batched engine stops losing; the
    # median of interleaved pairs absorbs timer noise but still catches a
    # regression that moves the crossover.
    assert ratio >= 1.0


def test_bench_wheel_observability_counters(benchmark):
    """Counter-based batching evidence that runs on any hardware."""
    library = _LIBRARIES.library(50.0)
    rng = np.random.default_rng(2)
    lanes = 256
    previous = _batch_inputs(rng, lanes)
    current = _batch_inputs(rng, lanes)
    wheel = EventWheelSimulator(_MAC.netlist, library)

    evaluation = benchmark(lambda: wheel.propagate_batch(previous, current))
    counters = evaluation.counters
    assert counters.events_popped > 0
    assert 0 <= counters.events_suppressed <= counters.events_popped
    # The whole batch shares one wheel: bucket count is bounded by the
    # union of per-lane bucket sets, far below lanes x per-lane buckets.
    assert 0 < counters.wheel_buckets < counters.events_popped
    benchmark.extra_info["lanes"] = lanes
    benchmark.extra_info["events_popped"] = counters.events_popped
    benchmark.extra_info["wheel_buckets"] = counters.wheel_buckets
