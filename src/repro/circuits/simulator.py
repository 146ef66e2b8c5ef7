"""Functional and timed simulation of netlists.

Three simulators/models are provided:

* :class:`LogicSimulator` — zero-delay functional evaluation, used for
  correctness checks of the generated arithmetic circuits.
* :class:`TimingSimulator` with the ``"event"`` arrival model (default) — a
  transport-delay event-driven simulation of the transition between two
  input vectors.  Every intermediate glitch is simulated, so the captured
  value of an output bit at the clock edge is exactly what a flip-flop would
  latch.  This is the engine behind the aged-multiplier error
  characterisation (the paper's Fig. 1a).

  The event engine uses **delta-cycle (time-wheel) semantics**: pending
  events are bucketed by exact arrival time, every same-time commit is
  applied before any gate is re-evaluated, and each affected gate is
  evaluated exactly once per bucket (scheduling one event for its output
  at ``bucket time + gate delay``; a later evaluation targeting the same
  ``(net, time)`` slot overwrites the earlier one).  These are the
  canonical semantics of event-driven gate simulation: they never emit the
  zero-width same-timestamp glitch pairs a naive per-commit scheduler
  produces, and they are exactly the specification the batched event engine
  (:mod:`repro.circuits.backends.event`) reproduces lane by lane.
  Every propagation also fills :class:`EventCounters` (events popped,
  stale suppressions, wheel buckets, per-net glitches) on the simulator's
  ``last_event_counters`` attribute for observability.
* Two analytic bounds, ``"settle"`` (pessimistic, glitch-aware upper bound on
  settling time) and ``"transition"`` (optimistic, functional transitions
  only), useful for quick envelope studies and for testing.

Batched engines
---------------

The batched engines live behind the pluggable backend registry of
:mod:`repro.circuits.backends`: ``scalar`` wraps :class:`TimingSimulator`,
the ``ndarray`` uint64-lane engine for the two levelized models lives in
:mod:`repro.circuits.backends.lane`, and the batched ``event`` waveform
engine in :mod:`repro.circuits.backends.event`.  Each is bit-for-bit
equivalent to running :class:`TimingSimulator` once per lane.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from collections.abc import Mapping

import repro.observability as observability
from repro.aging.cell_library import CellLibrary
from repro.aging.scenarios.base import AgingScenario, resolve_gate_delays
from repro.circuits.constants import propagate_constants
from repro.circuits.gates import CELL_FUNCTIONS
from repro.circuits.netlist import (
    Gate,
    Net,
    Netlist,
    bits_to_bus_values,
    bus_values_to_bits,
)

__all__ = [
    "ARRIVAL_MODELS",
    "BATCH_ARRIVAL_MODELS",
    "EventCounters",
    "LogicSimulator",
    "TimedEvaluation",
    "TimingSimulator",
]

ARRIVAL_MODELS = ("event", "settle", "transition")

#: Arrival models supported by the batched levelized (lane) timing engine.
BATCH_ARRIVAL_MODELS = ("settle", "transition")


@dataclass(frozen=True)
class GlitchSummary:
    """Bounded summary of a propagation's per-net glitch activity.

    ``glitches_per_net`` grows with the netlist (one entry per glitching
    net), which is fine for a single propagation but unbounded when folded
    into long-lived metrics.  The summary keeps the exact totals and only
    the ``top_n`` glitchiest nets, ordered by ``(-count, name)`` so the
    selection is deterministic across runs and merge orders.

    Attributes:
        total: glitch commits summed over all nets (exact, never truncated).
        nets: number of distinct nets that glitched (exact).
        top: the ``(net name, count)`` pairs of the glitchiest nets.
    """

    total: int
    nets: int
    top: tuple[tuple[str, int], ...]


@dataclass
class EventCounters:
    """Observability counters of one event-driven propagation.

    Both event engines (the scalar :class:`TimingSimulator` and the batched
    waveform engine in :mod:`repro.circuits.backends.event`) fill one of
    these per ``propagate``/``propagate_batch`` call, mirroring the
    ``levelized_passes`` / gather-locality counters of the lane backend.

    Attributes:
        events_popped: scheduled events taken off the wheel.  In the batched
            engine one scheduled ``(net, time)`` slot counts once per lane
            in its mask, so the scalar counters summed over the lanes of a
            batch equal the batched counters exactly.
        events_suppressed: popped events discarded as stale because the
            scheduled value already equals the net's current value (the
            glitch-filtering work the wheel avoids committing).
        wheel_buckets: distinct arrival-time buckets processed.  This one is
            *per propagation*, not per lane: the batched engine counts the
            distinct scheduled times, the union of the per-lane bucket sets,
            so per-lane scalar counts bound it (``max over lanes <= batched
            <= sum over lanes``).
        glitches_per_net: for every net that committed more changes than its
            functional transition needs, ``commits - functional`` (keyed by
            net name; a net whose final value differs from its previous one
            needs exactly 1 commit, an unchanged net 0).  Summed over lanes
            in the batched engine.
    """

    events_popped: int = 0
    events_suppressed: int = 0
    wheel_buckets: int = 0
    glitches_per_net: dict[str, int] = field(default_factory=dict)

    @property
    def events_committed(self) -> int:
        """Events that actually changed a net value."""
        return self.events_popped - self.events_suppressed

    @property
    def total_glitches(self) -> int:
        """Glitch commits summed over all nets (and lanes, if batched)."""
        return sum(self.glitches_per_net.values())

    def summarize_glitches(self, top_n: int = 8) -> GlitchSummary:
        """Bounded :class:`GlitchSummary` of the per-net glitch dict.

        The full ``glitches_per_net`` stays available on the instance; this
        is the path metrics snapshots use so large netlists never inflate
        long-lived telemetry.  Ties break by net name, so the top-n set is
        deterministic.
        """
        ranked = sorted(self.glitches_per_net.items(), key=lambda kv: (-kv[1], kv[0]))
        return GlitchSummary(
            total=self.total_glitches,
            nets=len(self.glitches_per_net),
            top=tuple(ranked[: max(0, top_n)]),
        )


class LogicSimulator:
    """Zero-delay functional simulator for combinational netlists."""

    def __init__(self, netlist: Netlist) -> None:
        self.netlist = netlist
        self._order = netlist.topological_gates()

    def evaluate_bits(self, inputs: Mapping[str, int]) -> dict[Net, int]:
        """Evaluate and return the value of every net (keyed by Net)."""
        values = bus_values_to_bits(dict(inputs), self.netlist.input_buses)
        for net in self.netlist.nets.values():
            if net.is_constant:
                values[net] = net.constant_value
        for gate in self._order:
            func = CELL_FUNCTIONS[gate.cell_name]
            values[gate.output] = func(*(values[net] for net in gate.inputs))
        return values

    def evaluate(self, inputs: Mapping[str, int]) -> dict[str, int]:
        """Evaluate the netlist and return output bus values."""
        values = self.evaluate_bits(inputs)
        return bits_to_bus_values(values, self.netlist.output_buses)


@dataclass
class TimedEvaluation:
    """Result of a two-vector timed simulation.

    Attributes:
        final_outputs: output bus values after all transitions settle
            (i.e. the functionally correct result for the current inputs).
        previous_outputs: settled output values of the previous input vector.
        output_bit_timelines: per output bus, an LSB-first list holding, for
            every bit, the chronological ``(time_ps, value)`` changes it goes
            through during the transition (empty if the bit never moves).
        output_arrivals_ps: per output bus, the LSB-first list of final
            settling times of each bit (0.0 if the bit never moves).
        worst_arrival_ps: the latest settling time over all output bits.
    """

    final_outputs: dict[str, int]
    previous_outputs: dict[str, int]
    output_bit_timelines: dict[str, list[list[tuple[float, int]]]]
    output_arrivals_ps: dict[str, list[float]]
    worst_arrival_ps: float

    def captured_outputs(self, clock_period_ps: float) -> dict[str, int]:
        """Output values captured by a flip-flop after ``clock_period_ps``.

        Each bit takes the value it holds at the capture edge: the last change
        at or before the edge wins; a bit with no change by then keeps the
        stale value of the previous computation.
        """
        if clock_period_ps <= 0:
            raise ValueError("clock_period_ps must be positive")
        captured: dict[str, int] = {}
        for bus, timelines in self.output_bit_timelines.items():
            previous = self.previous_outputs[bus]
            value = 0
            for bit, changes in enumerate(timelines):
                bit_value = (previous >> bit) & 1
                for time_ps, new_value in changes:
                    if time_ps > clock_period_ps:
                        break
                    bit_value = new_value
                value |= (bit_value & 1) << bit
            captured[bus] = value
        return captured

    def has_timing_violation(self, clock_period_ps: float) -> bool:
        """Whether any output bit settles after the clock edge.

        Always a plain Python :class:`bool` (the batched evaluations return
        a per-lane ``ndarray[bool]`` instead; the two types are part of the
        API contract and regression-tested).
        """
        return bool(self.worst_arrival_ps > clock_period_ps)


class TimingSimulator:
    """Two-vector timed simulation with aged cell delays.

    The simulation assumes the previous input vector has fully settled when
    the current vector is applied (single-cycle operation of the MAC unit).

    Arrival models:

    * ``"event"`` (default) — transport-delay event-driven simulation; every
      glitch is tracked, and output timelines are exact under the per-gate
      delay model.
    * ``"settle"`` — pessimistic bound: a gate in the fanout cone of a
      changed input settles only after all of its inputs have settled.
    * ``"transition"`` — optimistic bound: only functional value changes
      propagate delay.
    """

    def __init__(
        self,
        netlist: Netlist,
        library: "CellLibrary | AgingScenario",
        arrival_model: str = "event",
    ) -> None:
        if arrival_model not in ARRIVAL_MODELS:
            raise ValueError(f"arrival_model must be one of {ARRIVAL_MODELS}")
        self.netlist = netlist
        self.library = library
        self.arrival_model = arrival_model
        self._order = netlist.topological_gates()
        self._logic = LogicSimulator(netlist)
        # Pre-compute the per-gate delay table: a plain library degrades
        # every cell uniformly, an aging scenario resolves gate by gate.
        self._gate_delay_ps = resolve_gate_delays(netlist, library)
        # Nets forced to a constant by the structural zero-extension nets
        # never transition and must not contribute arrival time (this keeps
        # settle times bounded by the STA critical path).
        self._structural_constants = propagate_constants(netlist)
        #: Counters of the most recent event-driven propagation (``None``
        #: until the first ``propagate`` under the ``"event"`` model).
        self.last_event_counters: EventCounters | None = None

    # ------------------------------------------------------------------ public
    def propagate(
        self,
        previous_inputs: Mapping[str, int],
        current_inputs: Mapping[str, int],
    ) -> TimedEvaluation:
        """Simulate the transition from ``previous_inputs`` to ``current_inputs``."""
        prev_values = self._logic.evaluate_bits(previous_inputs)
        if self.arrival_model == "event":
            curr_values, timelines = self._propagate_event(prev_values, current_inputs)
        else:
            curr_values, timelines = self._propagate_levelized(prev_values, current_inputs)
        return self._build_evaluation(prev_values, curr_values, timelines)

    # ----------------------------------------------------------- event-driven
    def _propagate_event(
        self,
        prev_values: dict[Net, int],
        current_inputs: Mapping[str, int],
    ) -> tuple[dict[Net, int], dict[Net, list[tuple[float, int]]]]:
        """Delta-cycle time-wheel propagation (see the module docstring).

        Pending events are bucketed by exact arrival time in ``pending``
        (one value per ``(net, time)`` slot, last write wins); the heap
        orders the bucket times.  Each bucket commits all of its net changes
        first, then evaluates every affected sink gate exactly once and
        schedules its output at ``time + gate delay``.  Gate delays are
        strictly positive (guarded in ``__init__`` callers via the library),
        so a bucket never reschedules into itself and the wheel terminates.
        """
        input_bits = bus_values_to_bits(dict(current_inputs), self.netlist.input_buses)
        values = dict(prev_values)
        timelines: dict[Net, list[tuple[float, int]]] = {}
        counters = EventCounters()

        pending: dict[float, dict[Net, int]] = {}
        heap: list[float] = []
        first = {
            net: new_value
            for net, new_value in input_bits.items()
            if new_value != prev_values[net]
        }
        if first:
            pending[0.0] = first
            heap.append(0.0)

        while heap:
            time_ps = heapq.heappop(heap)
            bucket = pending.pop(time_ps)
            counters.wheel_buckets += 1
            affected: dict[Gate, None] = {}
            for net, value in bucket.items():
                counters.events_popped += 1
                if values[net] == value:
                    counters.events_suppressed += 1
                    continue
                values[net] = value
                timelines.setdefault(net, []).append((time_ps, value))
                for gate in net.sinks:
                    affected[gate] = None
            for gate in affected:
                new_output = CELL_FUNCTIONS[gate.cell_name](
                    *(values[inp] for inp in gate.inputs)
                )
                child_time = time_ps + self._gate_delay_ps[gate]
                child = pending.get(child_time)
                if child is None:
                    pending[child_time] = {gate.output: new_output}
                    heapq.heappush(heap, child_time)
                else:
                    child[gate.output] = new_output

        for net, changes in timelines.items():
            functional = 1 if values[net] != prev_values[net] else 0
            glitches = len(changes) - functional
            if glitches:
                counters.glitches_per_net[net.name] = glitches
        self.last_event_counters = counters
        observability.record_event_counters(counters)
        return values, timelines

    # -------------------------------------------------------------- levelized
    def _propagate_levelized(
        self,
        prev_values: dict[Net, int],
        current_inputs: Mapping[str, int],
    ) -> tuple[dict[Net, int], dict[Net, list[tuple[float, int]]]]:
        curr_values = bus_values_to_bits(dict(current_inputs), self.netlist.input_buses)
        arrivals: dict[Net, float] = {}
        perturbed: set[Net] = set()
        structural = self._structural_constants
        for net in self.netlist.nets.values():
            if net.is_constant:
                curr_values[net] = net.constant_value
                arrivals[net] = 0.0
            elif net.is_primary_input:
                arrivals[net] = 0.0
                if curr_values[net] != prev_values[net]:
                    perturbed.add(net)
        for gate in self._order:
            func = CELL_FUNCTIONS[gate.cell_name]
            new_value = func(*(curr_values[net] for net in gate.inputs))
            curr_values[gate.output] = new_value
            if gate.output in structural or not any(
                net in perturbed for net in gate.inputs
            ):
                arrivals[gate.output] = 0.0
                continue
            perturbed.add(gate.output)
            if self.arrival_model == "settle":
                relevant = [
                    arrivals[net] for net in gate.inputs if net not in structural
                ]
            else:  # "transition"
                if new_value == prev_values[gate.output]:
                    arrivals[gate.output] = 0.0
                    continue
                relevant = [
                    arrivals[net]
                    for net in gate.inputs
                    if curr_values[net] != prev_values[net]
                ]
            arrivals[gate.output] = max(relevant, default=0.0) + self._gate_delay_ps[gate]

        timelines: dict[Net, list[tuple[float, int]]] = {}
        for net, value in curr_values.items():
            if value != prev_values.get(net, value):
                timelines[net] = [(arrivals.get(net, 0.0), value)]
        return curr_values, timelines

    # ----------------------------------------------------------------- result
    def _build_evaluation(
        self,
        prev_values: dict[Net, int],
        curr_values: dict[Net, int],
        timelines: dict[Net, list[tuple[float, int]]],
    ) -> TimedEvaluation:
        final_outputs = bits_to_bus_values(curr_values, self.netlist.output_buses)
        previous_outputs = bits_to_bus_values(prev_values, self.netlist.output_buses)
        output_timelines: dict[str, list[list[tuple[float, int]]]] = {}
        output_arrivals: dict[str, list[float]] = {}
        worst = 0.0
        for bus, nets in self.netlist.output_buses.items():
            bus_timelines = []
            bus_arrivals = []
            for net in nets:
                changes = timelines.get(net, [])
                bus_timelines.append(changes)
                arrival = changes[-1][0] if changes else 0.0
                bus_arrivals.append(arrival)
                worst = max(worst, arrival)
            output_timelines[bus] = bus_timelines
            output_arrivals[bus] = bus_arrivals
        return TimedEvaluation(
            final_outputs=final_outputs,
            previous_outputs=previous_outputs,
            output_bit_timelines=output_timelines,
            output_arrivals_ps=output_arrivals,
            worst_arrival_ps=worst,
        )
