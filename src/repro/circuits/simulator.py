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

Bit-parallel batched engine
---------------------------

:class:`BatchLogicSimulator` and :class:`BatchTimingSimulator` evaluate many
Monte-Carlo vectors at once using pattern-parallel word packing, the standard
technique for high-throughput gate-level fault/timing simulation:

* **Word-packing layout** — a batch of ``W`` input vectors is transposed
  into one arbitrary-precision Python integer *per net*, whose bit ``k``
  holds that net's 0/1 value in lane (vector) ``k``.  Evaluating a gate is
  then a single word-wide bitwise expression from
  :data:`~repro.circuits.gates.WORD_CELL_FUNCTIONS` — one Python-level
  operation per gate per batch instead of one per gate per vector, with the
  actual bit twiddling running in CPython's C long implementation (64 lanes
  per machine word).
* **Arrival times** — the batched timing engine supports the two levelized
  arrival models (``"settle"`` and ``"transition"``); per-lane arrival times
  are carried as NumPy ``float64`` arrays of shape ``(W,)`` and combined
  with vectorised ``maximum``/``where`` operations, again one NumPy call per
  gate per batch.  The event-driven model needs per-lane glitch sequences
  and is batched separately by the waveform engine in
  :mod:`repro.circuits.backends.event`, which reproduces the scalar
  engine's delta-cycle commits lane by lane.

Both batched classes are bit-for-bit equivalent to running their scalar
counterpart once per lane; ``tests/test_batch_simulator.py`` enforces this
with property-based equivalence tests.

The engines in this module are consumed through the pluggable backend
registry of :mod:`repro.circuits.backends` (``scalar`` wraps
:class:`TimingSimulator`, ``bigint`` wraps :class:`BatchTimingSimulator`,
the ``ndarray`` uint64-lane engine lives in
:mod:`repro.circuits.backends.lane`, and the batched ``event`` waveform
engine in :mod:`repro.circuits.backends.event`).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from collections.abc import Mapping, Sequence

import numpy as np

import repro.observability as observability
from repro.aging.cell_library import CellLibrary
from repro.aging.scenarios.base import AgingScenario, resolve_gate_delays
from repro.circuits.constants import propagate_constants
from repro.circuits.gates import CELL_FUNCTIONS, WORD_CELL_FUNCTIONS
from repro.circuits.netlist import (
    Gate,
    Net,
    Netlist,
    bits_to_bus_values,
    bus_batches_to_words,
    bus_values_to_bits,
    words_to_bus_batches,
)

# Canonical lane-word <-> array conversions live in repro.utils.bitops (the
# ndarray backend shares them); re-exported here for backwards compatibility.
from repro.utils.bitops import lane_bits_to_word, word_to_lane_bits

__all__ = [
    "ARRIVAL_MODELS",
    "BATCH_ARRIVAL_MODELS",
    "BatchLogicSimulator",
    "BatchTimedEvaluation",
    "BatchTimingSimulator",
    "EventCounters",
    "LogicSimulator",
    "TimedEvaluation",
    "TimingSimulator",
    "lane_bits_to_word",
    "word_to_lane_bits",
]

ARRIVAL_MODELS = ("event", "settle", "transition")

#: Arrival models supported by the batched (bit-parallel) timing engine.
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
    ``levelized_passes`` / layout-locality counters of the lane backend.

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


# ======================================================================
# Bit-parallel batched engine (see the module docstring for the layout).
# ======================================================================
class BatchLogicSimulator:
    """Zero-delay functional simulator over a batch of packed vectors.

    Functionally equivalent to calling :class:`LogicSimulator` once per
    lane, but every gate is evaluated once per *batch* on lane words.
    """

    def __init__(self, netlist: Netlist) -> None:
        self.netlist = netlist
        self._order = netlist.topological_gates()

    def evaluate_words(
        self, inputs: Mapping[str, Sequence[int]]
    ) -> tuple[dict[Net, int], int]:
        """Evaluate a batch; returns per-net lane words and the lane count.

        ``inputs[bus][k]`` is the integer applied to ``bus`` in lane ``k``;
        every bus must supply the same number of lanes.
        """
        words, lanes = bus_batches_to_words(dict(inputs), self.netlist.input_buses)
        mask = (1 << lanes) - 1
        for net in self.netlist.nets.values():
            if net.is_constant:
                words[net] = mask if net.constant_value else 0
        for gate in self._order:
            func = WORD_CELL_FUNCTIONS[gate.cell_name]
            words[gate.output] = func(mask, *(words[net] for net in gate.inputs))
        return words, lanes

    def evaluate_batch(self, inputs: Mapping[str, Sequence[int]]) -> dict[str, list[int]]:
        """Evaluate a batch and return per-lane output bus values."""
        words, lanes = self.evaluate_words(inputs)
        return words_to_bus_batches(words, self.netlist.output_buses, lanes)


@dataclass
class BatchTimedEvaluation:
    """Result of a batched two-vector timed simulation.

    All per-bit containers are LSB-first and parallel to the output bus
    nets; lane words follow the packing layout of the module docstring.

    Attributes:
        lanes: number of vector pairs in the batch.
        final_output_words: per bus, the per-bit lane words after settling.
        previous_output_words: per bus, the settled per-bit lane words of the
            previous vectors.
        output_arrivals_ps: per bus, a ``(bits, lanes)`` float array of final
            settling times (0.0 for bits that do not change in a lane).
        worst_arrival_ps: per lane, the latest settling time over all output
            bits (shape ``(lanes,)``).
    """

    lanes: int
    final_output_words: dict[str, list[int]]
    previous_output_words: dict[str, list[int]]
    output_arrivals_ps: dict[str, np.ndarray]
    worst_arrival_ps: np.ndarray

    def final_outputs(self) -> dict[str, list[int]]:
        """Per-lane settled output bus values (functionally exact)."""
        return self._unpack(self.final_output_words)

    def previous_outputs(self) -> dict[str, list[int]]:
        """Per-lane settled output values of the previous vectors."""
        return self._unpack(self.previous_output_words)

    def captured_output_words(self, clock_period_ps: float) -> dict[str, list[int]]:
        """Per-bit lane words captured by a flip-flop at the clock edge.

        A bit whose (single, levelized) change arrives after the edge keeps
        the stale value of the previous computation, exactly as in
        :meth:`TimedEvaluation.captured_outputs`.
        """
        if clock_period_ps <= 0:
            raise ValueError("clock_period_ps must be positive")
        captured: dict[str, list[int]] = {}
        for bus, final_words in self.final_output_words.items():
            previous_words = self.previous_output_words[bus]
            arrivals = self.output_arrivals_ps[bus]
            bus_words = []
            for bit, (final, previous) in enumerate(zip(final_words, previous_words)):
                changed = final ^ previous
                if changed:
                    late = lane_bits_to_word(arrivals[bit] > clock_period_ps)
                    final ^= changed & late
                bus_words.append(final)
            captured[bus] = bus_words
        return captured

    def captured_outputs(self, clock_period_ps: float) -> dict[str, list[int]]:
        """Per-lane output bus values captured at the clock edge."""
        return self._unpack(self.captured_output_words(clock_period_ps))

    def has_timing_violation(self, clock_period_ps: float) -> np.ndarray:
        """Per-lane violation mask: does any output bit settle after the edge?

        Always an ``ndarray`` of dtype ``bool`` and shape ``(lanes,)`` (the
        scalar evaluation returns a plain :class:`bool` instead; the two
        types are part of the API contract and regression-tested).
        """
        return np.asarray(self.worst_arrival_ps > clock_period_ps, dtype=bool)

    def _unpack(self, bus_words: dict[str, list[int]]) -> dict[str, list[int]]:
        result: dict[str, list[int]] = {}
        for bus, words in bus_words.items():
            values = [0] * self.lanes
            for bit, word in enumerate(words):
                lane = 0
                while word:
                    if word & 1:
                        values[lane] |= 1 << bit
                    word >>= 1
                    lane += 1
            result[bus] = values
        return result


class BatchTimingSimulator:
    """Batched two-vector timed simulation with aged cell delays.

    Bit-for-bit equivalent to running :class:`TimingSimulator` with the same
    levelized arrival model once per lane: net values are evaluated on lane
    words, and per-lane arrival times are carried as ``(lanes,)`` NumPy
    arrays combined with vectorised max/where operations.

    Only the levelized arrival models are supported here; the event-driven
    model tracks per-lane glitch sequences and is batched by the waveform
    engine in :mod:`repro.circuits.backends.event` instead.
    """

    def __init__(
        self,
        netlist: Netlist,
        library: "CellLibrary | AgingScenario",
        arrival_model: str = "settle",
    ) -> None:
        if arrival_model not in BATCH_ARRIVAL_MODELS:
            raise ValueError(
                f"arrival_model must be one of {BATCH_ARRIVAL_MODELS} "
                f"(the event-driven model runs on the scalar TimingSimulator "
                f"or the batched 'event' backend)"
            )
        self.netlist = netlist
        self.library = library
        self.arrival_model = arrival_model
        self._order = netlist.topological_gates()
        self._logic = BatchLogicSimulator(netlist)
        self._gate_delay_ps = resolve_gate_delays(netlist, library)
        self._structural_constants = propagate_constants(netlist)

    def propagate_batch(
        self,
        previous_inputs: Mapping[str, Sequence[int]],
        current_inputs: Mapping[str, Sequence[int]],
    ) -> BatchTimedEvaluation:
        """Simulate the per-lane transitions from previous to current vectors."""
        prev_words, prev_lanes = self._logic.evaluate_words(previous_inputs)
        curr_words, lanes = bus_batches_to_words(
            dict(current_inputs), self.netlist.input_buses
        )
        if prev_lanes != lanes:
            raise ValueError(
                f"previous and current batches differ in lanes ({prev_lanes} vs {lanes})"
            )
        mask = (1 << lanes) - 1
        settle = self.arrival_model == "settle"
        structural = self._structural_constants

        # Per-net state: current lane word, perturbed lane mask, and (only
        # for nets that can have one) a per-lane arrival array.
        perturbed: dict[Net, int] = {}
        arrivals: dict[Net, np.ndarray] = {}
        for net in self.netlist.nets.values():
            if net.is_constant:
                curr_words[net] = mask if net.constant_value else 0
                perturbed[net] = 0
            elif net.is_primary_input:
                perturbed[net] = curr_words[net] ^ prev_words[net]

        for gate in self._order:
            output = gate.output
            func = WORD_CELL_FUNCTIONS[gate.cell_name]
            new_word = func(mask, *(curr_words[net] for net in gate.inputs))
            curr_words[output] = new_word
            pert = 0
            for net in gate.inputs:
                pert |= perturbed[net]
            if output in structural or pert == 0:
                perturbed[output] = 0
                continue
            perturbed[output] = pert
            delay = self._gate_delay_ps[gate]
            if settle:
                base = np.zeros(lanes)
                for net in gate.inputs:
                    if net in structural:
                        continue
                    arrival = arrivals.get(net)
                    if arrival is not None:
                        np.maximum(base, arrival, out=base)
                active = pert
            else:  # "transition": only functional value changes carry delay.
                active = pert & (new_word ^ prev_words[output])
                if active == 0:
                    continue
                base = np.zeros(lanes)
                for net in gate.inputs:
                    arrival = arrivals.get(net)
                    if arrival is None:
                        continue
                    changed = curr_words[net] ^ prev_words[net]
                    if changed == 0:
                        continue
                    if changed == mask:
                        np.maximum(base, arrival, out=base)
                    else:
                        np.maximum(
                            base,
                            np.where(word_to_lane_bits(changed, lanes), arrival, 0.0),
                            out=base,
                        )
            if active == mask:
                arrivals[output] = base + delay
            else:
                arrivals[output] = np.where(
                    word_to_lane_bits(active, lanes), base + delay, 0.0
                )

        return self._build_evaluation(prev_words, curr_words, arrivals, lanes)

    # ----------------------------------------------------------------- result
    def _build_evaluation(
        self,
        prev_words: dict[Net, int],
        curr_words: dict[Net, int],
        arrivals: dict[Net, np.ndarray],
        lanes: int,
    ) -> BatchTimedEvaluation:
        final_output_words: dict[str, list[int]] = {}
        previous_output_words: dict[str, list[int]] = {}
        output_arrivals: dict[str, np.ndarray] = {}
        worst = np.zeros(lanes)
        for bus, nets in self.netlist.output_buses.items():
            final_output_words[bus] = [curr_words[net] for net in nets]
            previous_output_words[bus] = [prev_words[net] for net in nets]
            bus_arrivals = np.zeros((len(nets), lanes))
            for index, net in enumerate(nets):
                arrival = arrivals.get(net)
                if arrival is None:
                    continue
                # As in the scalar engine, a bit only reports an arrival in
                # lanes where its value actually changes.
                changed = curr_words[net] ^ prev_words[net]
                if changed == 0:
                    continue
                if changed == (1 << lanes) - 1:
                    bus_arrivals[index] = arrival
                else:
                    bus_arrivals[index] = np.where(
                        word_to_lane_bits(changed, lanes), arrival, 0.0
                    )
                np.maximum(worst, bus_arrivals[index], out=worst)
            output_arrivals[bus] = bus_arrivals
        return BatchTimedEvaluation(
            lanes=lanes,
            final_output_words=final_output_words,
            previous_output_words=previous_output_words,
            output_arrivals_ps=output_arrivals,
            worst_arrival_ps=worst,
        )
