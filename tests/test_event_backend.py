"""Tests of the batched event-driven (waveform-propagation) backend.

Four contracts are enforced:

* **bit-identity** — the batched engine reproduces the scalar event engine
  lane by lane (values, per-bit timelines, captured outputs, arrivals,
  worst arrival) across aging-scenario families, random netlists and a
  hand-built same-slot collision;
* **observability** — both event engines fill
  :class:`~repro.circuits.simulator.EventCounters`, and the scalar counters
  summed over a batch's lanes equal the batched counters exactly
  (``wheel_buckets`` is union-based and only bounded);
* **capture-edge semantics** — an event landing exactly at
  ``time_ps == clock_period_ps`` IS captured, on both engines (the
  edge-inclusive behaviour is the spec, pinned here against regressions);
* **arrival-model ordering** — per functionally-changed output bit,
  ``transition <= settle`` and ``event <= settle``; the strict global chain
  ``transition <= event <= settle`` is *not* part of the contract, and a
  deterministic hazard circuit documents why it cannot be.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.aging.cell_library import AgingAwareLibrarySet
from repro.aging.scenarios import (
    AgingScenario,
    MissionProfile,
    PerCellTypeAging,
    UniformAging,
    VariationAging,
)
from repro.circuits.backends import (
    EVENT_BACKEND_MIN_LANES,
    EventWheelSimulator,
    LaneTimingSimulator,
    resolve_backend,
)
from repro.circuits.mac import build_mac, build_multiplier
from repro.circuits.netlist import Netlist
from repro.circuits.simulator import TimingSimulator
from repro.timing.error_model import characterize_timing_errors
from repro.timing.sta import StaticTimingAnalyzer

from tests.test_batch_simulator import random_netlists

_MAC = build_mac(multiplier_width=4, accumulator_width=10)
_LIBRARIES = AgingAwareLibrarySet.generate((0.0, 20.0, 50.0))


def _scenario_families(base):
    """One scenario per aging family (>= 3 families, per the PR contract)."""
    return [
        UniformAging(30.0, library=base),
        MissionProfile(years=5.0, temperature_c=85.0, duty_cycle=0.8, library=base),
        PerCellTypeAging(
            levels_mv={"NAND2": 40.0, "INV": 10.0}, default_mv=20.0, library=base
        ),
        VariationAging(25.0, 6.0, seed=11, library=base),
    ]


def _lane_inputs(netlist, rng, lanes):
    return {
        bus: [int(rng.integers(0, 1 << len(nets))) for _ in range(lanes)]
        for bus, nets in netlist.input_buses.items()
    }


def _lane_slice(batch, lane):
    return {bus: values[lane] for bus, values in batch.items()}


def _hazard_netlist():
    """``out = AND2(a, INV(a))``: a static-0 hazard that glitches on a rise.

    On ``a: 0 -> 1`` the AND gate sees the new ``a`` before the inverter's
    fall arrives, so ``out`` pulses ``0 -> 1 -> 0`` while its settled value
    never changes — the canonical glitch-only output bit.
    """
    netlist = Netlist("hazard")
    (a,) = netlist.add_input_bus("a", 1)
    inverted = netlist.add_gate("INV", [a])
    pulse = netlist.add_gate("AND2", [a, inverted])
    netlist.add_output_bus("out", [pulse])
    return netlist


class _FixedDelays(AgingScenario):
    """A scenario handing the engines a fixed per-gate delay table."""

    kind = "fixed"

    def __init__(self, delays_ps):
        self._delays_ps = dict(delays_ps)

    def gate_delays_ps(self, netlist, library=None):
        return dict(self._delays_ps)

    def gate_delta_vth_mv(self, netlist, library=None):
        return np.zeros(len(netlist.topological_gates()))

    def key_fields(self):
        return {"kind": self.kind}

    @property
    def nominal_delta_vth_mv(self):
        return 0.0


def _collision_circuit():
    """``out = XOR2(BUF(a), BUF(b))`` whose two evaluations share one slot.

    The buffers take ``1.0`` and ``1.0 + 2**-52`` ps, so the XOR (``1.0``
    ps) is evaluated at two distinct times whose outputs both round to
    ``2.0``: the wheel's ``(out, 2.0)`` slot is written twice, and the
    later evaluation wins lane by lane.
    """
    netlist = Netlist("collision")
    (a,) = netlist.add_input_bus("a", 1)
    (b,) = netlist.add_input_bus("b", 1)
    fast = netlist.add_gate("BUF", [a])
    slow = netlist.add_gate("BUF", [b])
    out = netlist.add_gate("XOR2", [fast, slow])
    netlist.add_output_bus("out", [out])
    netlist.add_output_bus("paths", [fast, slow])
    delays = {fast.driver: 1.0, slow.driver: 1.0 + 2.0**-52, out.driver: 1.0}
    return netlist, _FixedDelays(delays)


# ------------------------------------------------------------- bit-identity
class TestWheelBitIdentity:
    @pytest.mark.parametrize("family", range(4))
    def test_matches_scalar_on_mac_across_scenario_families(self, family):
        scenario = _scenario_families(_LIBRARIES.fresh)[family]
        rng = np.random.default_rng(17 + family)
        lanes = 70  # one full word + a partial tail word
        previous = _lane_inputs(_MAC.netlist, rng, lanes)
        current = _lane_inputs(_MAC.netlist, rng, lanes)

        wheel = EventWheelSimulator(_MAC.netlist, scenario)
        evaluation = wheel.propagate_batch(previous, current)
        scalar = TimingSimulator(_MAC.netlist, scenario, arrival_model="event")

        finals = evaluation.final_outputs()
        previous_outs = evaluation.previous_outputs()
        clock = max(float(np.median(evaluation.worst_arrival_ps)), 1e-3)
        captured = evaluation.captured_outputs(clock)
        for lane in range(lanes):
            reference = scalar.propagate(
                _lane_slice(previous, lane), _lane_slice(current, lane)
            )
            assert _lane_slice(finals, lane) == reference.final_outputs
            assert _lane_slice(previous_outs, lane) == reference.previous_outputs
            assert _lane_slice(captured, lane) == reference.captured_outputs(clock)
            assert (
                float(evaluation.worst_arrival_ps[lane]) == reference.worst_arrival_ps
            )
            for bus, bus_timelines in reference.output_bit_timelines.items():
                for bit, changes in enumerate(bus_timelines):
                    assert (
                        evaluation.lane_bit_timeline(bus, bit, lane) == changes
                    )
                assert [
                    float(per_bit[lane])
                    for per_bit in evaluation.output_arrivals_ps[bus]
                ] == reference.output_arrivals_ps[bus]

    @given(
        netlist=random_netlists(),
        seed=st.integers(0, 2**32 - 1),
        lanes=st.integers(1, 90),
        level=st.sampled_from([0.0, 20.0, 50.0]),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_scalar_on_random_netlists(self, netlist, seed, lanes, level):
        rng = np.random.default_rng(seed)
        library = _LIBRARIES.library(level)
        previous = _lane_inputs(netlist, rng, lanes)
        current = _lane_inputs(netlist, rng, lanes)
        evaluation = EventWheelSimulator(netlist, library).propagate_batch(
            previous, current
        )
        scalar = TimingSimulator(netlist, library, arrival_model="event")
        finals = evaluation.final_outputs()
        clock = max(float(evaluation.worst_arrival_ps.max()) / 2, 1e-3)
        captured = evaluation.captured_outputs(clock)
        for lane in range(lanes):
            reference = scalar.propagate(
                _lane_slice(previous, lane), _lane_slice(current, lane)
            )
            assert _lane_slice(finals, lane) == reference.final_outputs
            assert _lane_slice(captured, lane) == reference.captured_outputs(clock)
            assert (
                float(evaluation.worst_arrival_ps[lane]) == reference.worst_arrival_ps
            )

    def test_same_slot_collision_matches_scalar(self):
        netlist, scenario = _collision_circuit()
        slow_arrival = 1.0 + 2.0**-52
        assert slow_arrival != 1.0 and slow_arrival + 1.0 == 1.0 + 1.0
        # 80 lanes over two words: every (a, b) previous value crossed with
        # every flip pattern (only a, only b, both, neither), five times.
        cases = [
            (a, b, flip_a, flip_b)
            for a in (0, 1) for b in (0, 1) for flip_a in (0, 1) for flip_b in (0, 1)
        ] * 5
        previous = {"a": [c[0] for c in cases], "b": [c[1] for c in cases]}
        current = {
            "a": [c[0] ^ c[2] for c in cases], "b": [c[1] ^ c[3] for c in cases]
        }
        lanes = len(cases)
        evaluation = EventWheelSimulator(netlist, scenario).propagate_batch(
            previous, current
        )
        scalar = TimingSimulator(netlist, scenario, arrival_model="event")

        popped = suppressed = 0
        glitches: dict[str, int] = {}
        clocks = (1.5, np.nextafter(2.0, 0.0), 2.0, 3.0)
        captured = {clock: evaluation.captured_outputs(clock) for clock in clocks}
        finals = evaluation.final_outputs()
        for lane in range(lanes):
            reference = scalar.propagate(
                _lane_slice(previous, lane), _lane_slice(current, lane)
            )
            assert _lane_slice(finals, lane) == reference.final_outputs
            for clock in clocks:
                assert _lane_slice(captured[clock], lane) == (
                    reference.captured_outputs(clock)
                )
            for bus, bus_timelines in reference.output_bit_timelines.items():
                for bit, changes in enumerate(bus_timelines):
                    assert evaluation.lane_bit_timeline(bus, bit, lane) == changes
                assert [
                    float(per_bit[lane]) for per_bit in evaluation.output_arrivals_ps[bus]
                ] == reference.output_arrivals_ps[bus]
            assert float(evaluation.worst_arrival_ps[lane]) == (
                reference.worst_arrival_ps
            )
            counters = scalar.last_event_counters
            popped += counters.events_popped
            suppressed += counters.events_suppressed
            for net, count in counters.glitches_per_net.items():
                glitches[net] = glitches.get(net, 0) + count

        batched = evaluation.counters
        assert batched.events_popped == popped
        assert batched.events_suppressed == suppressed
        assert batched.glitches_per_net == glitches
        # Buckets 0.0, 1.0, 1.0 + 2**-52 and the merged 2.0.
        assert batched.wheel_buckets == 4
        # Where both inputs flip, the later evaluation (XOR unchanged)
        # overwrites the earlier one in the merged slot: one suppressed
        # lane-event per such lane, and no output commit.
        both = sum(1 for c in cases if c[2] and c[3])
        assert suppressed == both > 0
        out_log = evaluation.event_logs["out"][0]
        assert [time_ps for time_ps, _, _ in out_log] == [2.0]

    def test_lane_timed_evaluation_rebuilds_the_scalar_result(self):
        rng = np.random.default_rng(3)
        library = _LIBRARIES.library(50.0)
        previous = _lane_inputs(_MAC.netlist, rng, 9)
        current = _lane_inputs(_MAC.netlist, rng, 9)
        evaluation = EventWheelSimulator(_MAC.netlist, library).propagate_batch(
            previous, current
        )
        scalar = TimingSimulator(_MAC.netlist, library, arrival_model="event")
        for lane in (0, 4, 8):
            rebuilt = evaluation.lane_timed_evaluation(lane)
            reference = scalar.propagate(
                _lane_slice(previous, lane), _lane_slice(current, lane)
            )
            assert rebuilt == reference


# -------------------------------------------------------------- observability
class TestEventCounters:
    @given(
        netlist=random_netlists(),
        seed=st.integers(0, 2**32 - 1),
        lanes=st.integers(1, 90),
        level=st.sampled_from([0.0, 50.0]),
    )
    @settings(max_examples=30, deadline=None)
    def test_lane_summed_scalar_counters_equal_batched(self, netlist, seed, lanes, level):
        rng = np.random.default_rng(seed)
        library = _LIBRARIES.library(level)
        previous = _lane_inputs(netlist, rng, lanes)
        current = _lane_inputs(netlist, rng, lanes)
        wheel = EventWheelSimulator(netlist, library)
        evaluation = wheel.propagate_batch(previous, current)
        batched = evaluation.counters
        assert wheel.last_event_counters is batched

        scalar = TimingSimulator(netlist, library, arrival_model="event")
        popped = suppressed = 0
        buckets = []
        glitches: dict[str, int] = {}
        for lane in range(lanes):
            scalar.propagate(_lane_slice(previous, lane), _lane_slice(current, lane))
            lane_counters = scalar.last_event_counters
            popped += lane_counters.events_popped
            suppressed += lane_counters.events_suppressed
            buckets.append(lane_counters.wheel_buckets)
            for net, count in lane_counters.glitches_per_net.items():
                glitches[net] = glitches.get(net, 0) + count

        # Popped / suppressed / glitch counts are lane-summable and exact.
        assert batched.events_popped == popped
        assert batched.events_suppressed == suppressed
        assert batched.events_committed == popped - suppressed
        assert batched.glitches_per_net == glitches
        assert batched.total_glitches == sum(glitches.values())
        # Bucket counts are union-based: bounded by the per-lane extremes.
        assert max(buckets) <= batched.wheel_buckets <= sum(buckets)

    def test_scalar_counters_populated_per_propagation(self):
        library = _LIBRARIES.library(50.0)
        scalar = TimingSimulator(_MAC.netlist, library, arrival_model="event")
        assert scalar.last_event_counters is None
        scalar.propagate({"a": 0, "b": 0, "c": 0}, {"a": 15, "b": 15, "c": 1023})
        counters = scalar.last_event_counters
        assert counters.events_popped > 0
        assert 0 <= counters.events_suppressed <= counters.events_popped
        assert counters.wheel_buckets > 0
        assert all(count > 0 for count in counters.glitches_per_net.values())

    def test_glitchy_circuit_counts_the_pulse_commits(self):
        netlist = _hazard_netlist()
        library = _LIBRARIES.fresh
        scalar = TimingSimulator(netlist, library, arrival_model="event")
        evaluation = scalar.propagate({"a": 0}, {"a": 1})
        # The output pulses 0 -> 1 -> 0: two commits against zero functional
        # change, and ``glitches = commits - functional`` counts both.
        assert evaluation.final_outputs == {"out": 0}
        assert scalar.last_event_counters.total_glitches == 2

        wheel = EventWheelSimulator(netlist, library)
        batched = wheel.propagate_batch({"a": [0, 1, 0]}, {"a": [1, 1, 0]})
        # Only lane 0 transitions; the wheel sees the same single glitch.
        assert batched.counters.glitches_per_net == (
            scalar.last_event_counters.glitches_per_net
        )
        assert batched.commit_counts[netlist.gates[-1].output.name] == 2


# ------------------------------------------------------- capture-edge pinning
class TestCaptureEdgeSemantics:
    """An event exactly at ``time_ps == clock_period_ps`` IS captured.

    Edge-inclusive capture is the specification (the scalar replay breaks
    on ``time_ps > clock_period_ps``); this pins it on both event engines
    so neither can drift to edge-exclusive independently.
    """

    def test_edge_inclusive_capture_on_both_engines(self):
        netlist = _hazard_netlist()
        library = _LIBRARIES.library(20.0)
        scalar = TimingSimulator(netlist, library, arrival_model="event")
        evaluation = scalar.propagate({"a": 0}, {"a": 1})
        (rise, fall) = evaluation.output_bit_timelines["out"][0]
        rise_time, rise_value = rise
        fall_time, fall_value = fall
        assert rise_value == 1 and fall_value == 0 and 0 < rise_time < fall_time

        wheel = EventWheelSimulator(netlist, library)
        batched = wheel.propagate_batch({"a": [0]}, {"a": [1]})
        assert batched.lane_bit_timeline("out", 0, 0) == [rise, fall]

        for clock, expected in [
            (np.nextafter(rise_time, 0.0), 0),  # just before the pulse
            (rise_time, 1),  # event exactly at the edge: captured
            (np.nextafter(rise_time, np.inf), 1),
            (np.nextafter(fall_time, 0.0), 1),
            (fall_time, 0),  # the settling event, again edge-inclusive
        ]:
            assert scalar.propagate({"a": 0}, {"a": 1}).captured_outputs(clock) == {
                "out": expected
            }
            assert wheel.propagate_batch({"a": [0]}, {"a": [1]}).captured_outputs(
                clock
            ) == {"out": [expected]}

    def test_edge_inclusive_capture_on_a_mac_output(self):
        library = _LIBRARIES.library(50.0)
        scalar = TimingSimulator(_MAC.netlist, library, arrival_model="event")
        previous = {"a": 3, "b": 5, "c": 100}
        current = {"a": 12, "b": 11, "c": 900}
        evaluation = scalar.propagate(previous, current)
        arrival = evaluation.worst_arrival_ps
        assert arrival > 0
        # At exactly the worst arrival the result is fully settled...
        assert scalar.propagate(previous, current).captured_outputs(arrival) == (
            evaluation.final_outputs
        )
        # ... and one ULP earlier the latest bit is still stale.
        just_before = np.nextafter(arrival, 0.0)
        assert scalar.propagate(previous, current).captured_outputs(just_before) != (
            evaluation.final_outputs
        )
        wheel = EventWheelSimulator(_MAC.netlist, library)
        batch_prev = {bus: [value] for bus, value in previous.items()}
        batch_curr = {bus: [value] for bus, value in current.items()}
        batched = wheel.propagate_batch(batch_prev, batch_curr)
        assert float(batched.worst_arrival_ps[0]) == arrival
        assert batched.captured_outputs(arrival) == {
            bus: [value] for bus, value in evaluation.final_outputs.items()
        }
        assert batched.captured_outputs(just_before) != {
            bus: [value] for bus, value in evaluation.final_outputs.items()
        }


# ------------------------------------------------------ arrival-model ordering
class TestArrivalModelOrdering:
    """The provable ordering contract between the three arrival models.

    For every output bit whose settled value actually changes,
    ``transition`` (optimistic) and ``event`` (exact) arrivals are both
    bounded by the ``settle`` (pessimistic) arrival.  No ordering between
    ``transition`` and ``event`` is asserted — glitch masking lets either
    one finish first — and glitch-only bits are excluded because the
    levelized models define their arrival as 0.0.
    """

    @given(
        netlist=random_netlists(),
        seed=st.integers(0, 2**32 - 1),
        lanes=st.integers(1, 60),
        level=st.sampled_from([0.0, 20.0, 50.0]),
    )
    @settings(max_examples=30, deadline=None)
    def test_changed_bits_are_bounded_by_settle(self, netlist, seed, lanes, level):
        rng = np.random.default_rng(seed)
        library = _LIBRARIES.library(level)
        previous = _lane_inputs(netlist, rng, lanes)
        current = _lane_inputs(netlist, rng, lanes)
        event = EventWheelSimulator(netlist, library).propagate_batch(
            previous, current
        )
        settle = LaneTimingSimulator(netlist, library, "settle").propagate_batch(
            previous, current
        )
        transition = LaneTimingSimulator(
            netlist, library, "transition"
        ).propagate_batch(previous, current)
        from repro.utils.bitops import lane_array_to_bits

        for bus, rows in event.final_output_words.items():
            changed = lane_array_to_bits(
                rows ^ event.previous_output_words[bus], lanes
            )
            settle_times = settle.output_arrivals_ps[bus]
            assert np.all(
                transition.output_arrivals_ps[bus][changed]
                <= settle_times[changed]
            )
            assert np.all(
                event.output_arrivals_ps[bus][changed] <= settle_times[changed]
            )

    def test_strict_global_ordering_is_not_satisfiable(self):
        # The ISSUE-style strict chain "transition <= event <= settle over
        # every bit" cannot hold: a glitch-only bit commits events at
        # positive times while both levelized models report arrival 0.0 for
        # bits whose settled value never changes.  The hazard circuit is a
        # deterministic witness, which is why the contract above is stated
        # only for functionally-changed bits.
        netlist = _hazard_netlist()
        library = _LIBRARIES.fresh
        event = EventWheelSimulator(netlist, library).propagate_batch(
            {"a": [0]}, {"a": [1]}
        )
        settle = LaneTimingSimulator(netlist, library, "settle").propagate_batch(
            {"a": [0]}, {"a": [1]}
        )
        event_arrival = float(event.output_arrivals_ps["out"][0, 0])
        settle_arrival = float(settle.output_arrivals_ps["out"][0, 0])
        assert settle_arrival == 0.0  # unchanged bit: levelized arrival is 0
        assert event_arrival > 0.0  # but the glitch settles at positive time
        assert not event_arrival <= settle_arrival


# ----------------------------------------------------------------- validation
class TestValidation:
    def test_levelized_models_rejected(self):
        for model in ("settle", "transition"):
            with pytest.raises(ValueError, match="arrival_model must be 'event'"):
                EventWheelSimulator(_MAC.netlist, _LIBRARIES.fresh, model)

    def test_registry_rejects_event_backend_for_levelized_models(self):
        with pytest.raises(ValueError, match="batched engine"):
            resolve_backend("event", "settle", 64)

    def test_lane_count_mismatch_rejected(self):
        wheel = EventWheelSimulator(_MAC.netlist, _LIBRARIES.fresh)
        with pytest.raises(ValueError, match="lanes"):
            wheel.propagate_batch(
                {"a": [1, 2], "b": [3, 4], "c": [0, 0]},
                {"a": [1], "b": [3], "c": [0]},
            )


# ---------------------------------------------------- error-model integration
class TestErrorModelIntegration:
    def test_event_backend_matches_scalar_statistics(self):
        unit = build_multiplier(4, "array")
        library = _LIBRARIES.library(50.0)
        period = StaticTimingAnalyzer(unit, _LIBRARIES.fresh).critical_path_delay()
        kwargs = dict(
            num_samples=120, rng=5, arrival_model="event", batch_size=32, msb_count=2
        )
        scalar = characterize_timing_errors(
            unit, library, period, backend="scalar", **kwargs
        )
        wheel = characterize_timing_errors(
            unit, library, period, backend="event", **kwargs
        )
        assert wheel == scalar
        assert scalar.error_rate > 0.0

    def test_auto_routes_wide_event_batches_to_the_wheel(self):
        unit = build_multiplier(4, "array")
        library = _LIBRARIES.library(50.0)
        period = StaticTimingAnalyzer(unit, _LIBRARIES.fresh).critical_path_delay()
        kwargs = dict(num_samples=150, rng=9, arrival_model="event", msb_count=2)
        narrow = characterize_timing_errors(
            unit, library, period, backend="auto",
            batch_size=EVENT_BACKEND_MIN_LANES - 1, **kwargs
        )
        wide = characterize_timing_errors(
            unit, library, period, backend="auto",
            batch_size=EVENT_BACKEND_MIN_LANES, **kwargs
        )
        assert narrow == wide  # same statistics whichever engine auto picks
