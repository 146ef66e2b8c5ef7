"""Batched event-driven timing engine (per-gate waveform propagation).

The fourth simulation backend: glitch-exact event-driven simulation of many
vector-pair lanes at once.  The scalar :class:`~repro.circuits.simulator.
TimingSimulator` propagates one vector pair through a delta-cycle time
wheel; this engine computes the *same* per-lane event streams over
``ceil(lanes / 64)`` uint64 lane words, one gate at a time in topological
order instead of one wheel bucket at a time.

Waveforms
---------

Every net that changes in some lane carries one waveform:

* its commit times, ``float64[T]`` (strictly increasing);
* the lanes that changed at each commit, ``uint64[T, words]``;
* its value after each commit, ``uint64[T + 1, words]``; row 0 is the
  settled previous value.

The primary inputs commit once, at ``0.0``.  A gate then

1. takes ``U``, the union of its input nets' commit times (exact float
   equality, no quantisation or epsilon comparisons);
2. reads every input's value at ``U`` (``searchsorted(side="right")``: the
   value after all commits at or before each time);
3. ORs the input change masks at the times that hit ``U`` exactly — the
   lanes in which the wheel would evaluate the gate in that bucket;
4. evaluates :data:`~repro.circuits.gates.WORD_CELL_FUNCTIONS` once over
   the ``(|U|, words)`` arrays;
5. schedules its output at ``U + delay``, the identical float addition
   the scalar wheel performs, so both engines produce identical time keys;
6. merges output times that round to the same float (``t1 + d == t2 + d``):
   the masks OR and the later value is kept — the wheel's lane-wise
   last-write-wins ``(net, time)`` slot;
7. commits ``mask & (v_k ^ v_{k-1})`` at each scheduled time.  A time at
   which no lane commits still counts as popped (and as a bucket), but it
   is dropped from the net's waveform.

A net's waveform is released after its last sink gate has read it, except
on output-bus rows, whose waveforms become the evaluation's event logs.

Why this is exact
-----------------

The start state is consistent: every net holds the settled value of the
previous vectors (``graph.evaluate(prev)``).  Between two times of ``U``
no input of a gate moves, so in every lane — masked or not — the value
scheduled for ``t + delay`` is the gate function of its inputs at ``t``,
and the value the wheel holds on the net just before that slot is the one
scheduled by the previous slot.  Hence each scheduled slot commits
exactly the lanes the wheel commits, with the same values, at the same
time keys; a merged slot keeps the latest evaluation, and lanes absent
from that evaluation's mask have unchanged inputs since the earlier one,
so their value agrees.  Gate delays are strictly positive (validated at
construction), matching the wheel's termination requirement.

``tests/test_event_backend.py`` property-tests the full evaluation surface
— values, per-bit timelines, captured outputs, arrivals, worst arrival,
and the lane-summed :class:`~repro.circuits.simulator.EventCounters` —
against the scalar engine across aging-scenario families, plus a
hand-built same-slot collision.

The committed-change stream doubles as glitch-aware switching activity:
:attr:`EventTimedEvaluation.commit_counts` holds per-net toggle counts
summed over lanes (glitches included), which
:func:`repro.power.switching.estimate_switching_activity` consumes in its
``mode="event"`` path.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from operator import itemgetter
from collections.abc import Mapping, Sequence

import numpy as np

import repro.observability as observability
from repro.aging.scenarios.base import resolve_gate_delays
from repro.circuits.backends.base import BatchedSimulationBackend, ErrorCounters
from repro.circuits.backends.lane import (
    LaneTimedEvaluation,
    lane_error_counters,
    levelized_graph,
)
from repro.circuits.gates import WORD_CELL_FUNCTIONS
from repro.circuits.netlist import Netlist
from repro.circuits.simulator import EventCounters, TimedEvaluation
from repro.utils.bitops import UINT64_MASK, lane_array_to_bits

__all__ = [
    "EventBackend",
    "EventTimedEvaluation",
    "EventWheelSimulator",
]


def _popcount(words: np.ndarray) -> int:
    """Total set bits of a packed lane word row."""
    return int(np.bitwise_count(words).sum())


@dataclass
class EventTimedEvaluation(LaneTimedEvaluation):
    """Result of a batched event-driven simulation.

    Extends :class:`~repro.circuits.backends.lane.LaneTimedEvaluation` with
    the per-bit event logs the glitch-exact model needs: where the
    levelized evaluations reduce each bit to one arrival time, the event
    evaluation keeps the full committed-change sequence and reads each
    bit's last commit before the clock edge for capture.

    Attributes (beyond the lane-evaluation ones):
        event_logs: per output bus, an LSB-first list holding for every bit
            the chronological ``(time_ps, changed lane mask, value lane
            row)`` commits (packed uint64 rows; a lane participates in a
            commit iff its mask bit is set, and the value row is the bit's
            whole lane row after the commit).
        counters: lane-aggregated :class:`~repro.circuits.simulator.
            EventCounters` of the propagation (``events_popped`` /
            ``events_suppressed`` / ``glitches_per_net`` summed over lanes;
            ``wheel_buckets`` counts the union of per-lane bucket sets).
        commit_counts: per net name, total committed value changes summed
            over lanes (zero-count nets omitted) — the glitch-aware toggle
            stream consumed by the switching-activity estimator.

    Note on arrivals: like the scalar event engine (and unlike the
    levelized evaluations), ``output_arrivals_ps`` reports the time of the
    *last commit* of a bit, so a bit that glitches but returns to its
    previous value still carries a non-zero arrival.
    """

    event_logs: dict[str, list[list[tuple[float, np.ndarray, np.ndarray]]]] = field(
        default_factory=dict
    )
    counters: EventCounters = field(default_factory=EventCounters)
    commit_counts: dict[str, int] = field(default_factory=dict)

    def captured_output_words(self, clock_period_ps: float) -> dict[str, np.ndarray]:
        """Per-bit lane rows captured by a flip-flop at the clock edge.

        Each bit takes the value row of its last commit at or before the
        edge (an event landing exactly at ``time_ps == clock_period_ps`` is
        captured, matching the scalar engine's ``time_ps >
        clock_period_ps`` break); lanes with no commit by the edge keep the
        stale value of the previous computation, which that row carries.
        """
        if clock_period_ps <= 0:
            raise ValueError("clock_period_ps must be positive")
        captured: dict[str, np.ndarray] = {}
        for bus, previous in self.previous_output_words.items():
            words = previous.copy()
            for bit, log in enumerate(self.event_logs[bus]):
                count = bisect_right(log, clock_period_ps, key=itemgetter(0))
                if count:
                    words[bit] = log[count - 1][2]
            captured[bus] = words
        return captured

    def lane_bit_timeline(self, bus: str, bit: int, lane: int) -> list[tuple[float, int]]:
        """One lane's chronological ``(time_ps, value)`` changes of one bit.

        Exactly the scalar evaluation's ``output_bit_timelines[bus][bit]``
        for the same lane (empty if the bit never moves in that lane).
        """
        word_index, shift = divmod(lane, 64)
        changes: list[tuple[float, int]] = []
        for time_ps, mask, value in self.event_logs[bus][bit]:
            if (int(mask[word_index]) >> shift) & 1:
                changes.append((time_ps, (int(value[word_index]) >> shift) & 1))
        return changes

    def lane_timed_evaluation(self, lane: int) -> TimedEvaluation:
        """Rebuild the scalar :class:`TimedEvaluation` of one lane.

        Convenience for tests and spot checks; bit-identical to running the
        scalar event engine on that lane's vector pair.
        """
        final = self.final_outputs()
        previous = self.previous_outputs()
        timelines = {
            bus: [
                self.lane_bit_timeline(bus, bit, lane)
                for bit in range(len(self.event_logs[bus]))
            ]
            for bus in self.event_logs
        }
        arrivals = {
            bus: [float(per_bit[lane]) for per_bit in bus_arrivals]
            for bus, bus_arrivals in self.output_arrivals_ps.items()
        }
        return TimedEvaluation(
            final_outputs={bus: values[lane] for bus, values in final.items()},
            previous_outputs={bus: values[lane] for bus, values in previous.items()},
            output_bit_timelines=timelines,
            output_arrivals_ps=arrivals,
            worst_arrival_ps=float(self.worst_arrival_ps[lane]),
        )


class EventWheelSimulator:
    """Batched two-vector event-driven simulation on uint64 lane words.

    Bit-for-bit equivalent to running the scalar
    :class:`~repro.circuits.simulator.TimingSimulator` (``"event"`` model)
    once per lane; see the module docstring for the waveform design.
    """

    def __init__(
        self,
        netlist: Netlist,
        library,
        arrival_model: str = "event",
    ) -> None:
        if arrival_model != "event":
            raise ValueError(
                f"arrival_model must be 'event' for the batched event backend, "
                f"got {arrival_model!r} (the levelized models run on the "
                f"'ndarray' backend)"
            )
        self.netlist = netlist
        self.library = library
        self.arrival_model = arrival_model
        self.graph = levelized_graph(netlist)
        graph = self.graph

        order = netlist.topological_gates()
        delay_table = resolve_gate_delays(netlist, library)
        self._gate_delay = [float(delay_table[gate]) for gate in order]
        if self._gate_delay and min(self._gate_delay) <= 0.0:
            raise ValueError(
                "the batched event engine requires strictly positive gate "
                "delays (a zero-delay gate would reschedule into its own "
                "bucket)"
            )
        self._gate_func = [WORD_CELL_FUNCTIONS[gate.cell_name] for gate in order]
        self._gate_input_rows = [
            tuple(graph.net_row[net] for net in gate.inputs) for gate in order
        ]
        # Deduplicated input rows (a gate listing one net on several pins
        # takes that net's commit times once).
        self._gate_distinct_rows = [
            tuple(dict.fromkeys(rows)) for rows in self._gate_input_rows
        ]
        self._gate_output_row = [int(graph.net_row[gate.output]) for gate in order]

        self._row_net_name: list[str] = [""] * graph.num_nets
        for net in netlist.nets.values():
            self._row_net_name[graph.net_row[net]] = net.name

        # Rows whose waveforms become event logs (output buses).
        log_rows = {int(row) for rows in graph.output_bus_rows.values() for row in rows}
        # Per gate, the input rows whose waveform nobody reads afterwards.
        last_reader: dict[int, int] = {}
        for index, rows in enumerate(self._gate_distinct_rows):
            for row in rows:
                last_reader[row] = index
        self._gate_releases: list[list[int]] = [[] for _ in order]
        for row, index in last_reader.items():
            if row not in log_rows:
                self._gate_releases[index].append(row)

        #: Counters of the most recent propagation (``None`` until the
        #: first ``propagate_batch``); also carried on each evaluation.
        self.last_event_counters: EventCounters | None = None

    def propagate_batch(
        self,
        previous_inputs: Mapping[str, Sequence[int]],
        current_inputs: Mapping[str, Sequence[int]],
    ) -> EventTimedEvaluation:
        """Simulate the per-lane transitions from previous to current vectors."""
        graph = self.graph
        prev_values, prev_lanes = graph.pack_inputs(previous_inputs)
        graph.evaluate(prev_values)
        curr_inputs, lanes = graph.pack_inputs(current_inputs)
        if prev_lanes != lanes:
            raise ValueError(
                f"previous and current batches differ in lanes ({prev_lanes} vs {lanes})"
            )
        final_values = prev_values.copy()
        commit_counts = np.zeros(graph.num_nets, dtype=np.int64)
        popped = 0
        # Net row -> (commit times, changed lane masks, values after each
        # commit with the previous value as row 0); see the module docstring.
        waveforms: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        scheduled: list[np.ndarray] = []

        for rows in graph.input_bus_rows.values():
            for row in rows:
                row = int(row)
                diff = curr_inputs[row] ^ prev_values[row]
                if diff.any():
                    waveforms[row] = (
                        np.zeros(1),
                        diff[np.newaxis],
                        np.stack([prev_values[row], curr_inputs[row]]),
                    )
                    final_values[row] = curr_inputs[row]
                    count = _popcount(diff)
                    popped += count
                    commit_counts[row] = count
        if waveforms:
            scheduled.append(np.zeros(1))

        input_rows = self._gate_input_rows
        distinct_rows = self._gate_distinct_rows
        releases = self._gate_releases
        for index, func in enumerate(self._gate_func):
            live = [
                waveforms[row] for row in distinct_rows[index] if row in waveforms
            ]
            if live:
                if len(live) == 1:
                    times, mask, _ = live[0]
                else:
                    times = np.unique(np.concatenate([wave[0] for wave in live]))
                    mask = np.zeros((times.size, prev_values.shape[1]), dtype=np.uint64)
                    for wave_times, wave_changed, _ in live:
                        mask[np.searchsorted(times, wave_times)] |= wave_changed
                pins = []
                for row in input_rows[index]:
                    wave = waveforms.get(row)
                    if wave is None:
                        pins.append(prev_values[row])
                    else:
                        wave_times, _, wave_values = wave
                        pins.append(
                            wave_values[np.searchsorted(wave_times, times, side="right")]
                        )
                outputs = func(UINT64_MASK, *pins)
                times = times + self._gate_delay[index]
                if times.size > 1:
                    repeated = times[1:] == times[:-1]
                    if repeated.any():
                        # Rounding landed several evaluations in one slot:
                        # OR their lane masks, keep the latest evaluation.
                        starts = np.flatnonzero(np.concatenate(([True], ~repeated)))
                        mask = np.bitwise_or.reduceat(mask, starts, axis=0)
                        outputs = outputs[np.append(starts[1:], times.size) - 1]
                        times = times[starts]
                scheduled.append(times)
                popped += _popcount(mask)
                row = self._gate_output_row[index]
                values = np.concatenate((prev_values[row][np.newaxis], outputs))
                changed = mask & (values[1:] ^ values[:-1])
                committed = changed.any(axis=1)
                if committed.any():
                    if not committed.all():
                        times = times[committed]
                        changed = changed[committed]
                        values = values[np.concatenate(([True], committed))]
                    waveforms[row] = (times, changed, values)
                    final_values[row] = values[-1]
                    commit_counts[row] = _popcount(changed)
            for row in releases[index]:
                waveforms.pop(row, None)

        buckets = np.unique(np.concatenate(scheduled)).size if scheduled else 0
        return self._build_evaluation(
            prev_values, final_values, waveforms, commit_counts, popped, buckets, lanes
        )

    # ----------------------------------------------------------------- result
    def _build_evaluation(
        self,
        prev_values: np.ndarray,
        final_values: np.ndarray,
        waveforms: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]],
        commit_counts: np.ndarray,
        popped: int,
        buckets: int,
        lanes: int,
    ) -> EventTimedEvaluation:
        graph = self.graph
        final_output_words: dict[str, np.ndarray] = {}
        previous_output_words: dict[str, np.ndarray] = {}
        output_arrivals: dict[str, np.ndarray] = {}
        event_logs: dict[str, list[list[tuple[float, np.ndarray, np.ndarray]]]] = {}
        worst = np.zeros(lanes)
        for bus, rows in graph.output_bus_rows.items():
            final_output_words[bus] = final_values[rows]
            previous_output_words[bus] = prev_values[rows]
            bus_arrivals = np.zeros((rows.size, lanes))
            bus_logs: list[list[tuple[float, np.ndarray, np.ndarray]]] = []
            for index, row in enumerate(rows):
                wave = waveforms.get(int(row))
                if wave is None:
                    bus_logs.append([])
                    continue
                times, changed, values = wave
                bus_logs.append(list(zip(times.tolist(), changed, values[1:])))
                # Commit times ascend, so a lane's latest commit is its
                # largest committed time: the scalar "last change time"
                # arrival (glitch-only bits included).
                bus_arrivals[index] = np.where(
                    lane_array_to_bits(changed, lanes), times[:, np.newaxis], 0.0
                ).max(axis=0)
            if bus_arrivals.size:
                np.maximum(worst, bus_arrivals.max(axis=0), out=worst)
            output_arrivals[bus] = bus_arrivals
            event_logs[bus] = bus_logs

        committed_rows = np.flatnonzero(commit_counts)
        functional = np.bitwise_count(
            final_values[committed_rows] ^ prev_values[committed_rows]
        ).sum(axis=1)
        extra = commit_counts[committed_rows] - functional
        glitches = {
            self._row_net_name[row]: int(count)
            for row, count in zip(committed_rows, extra)
            if count
        }
        committed = int(commit_counts.sum())
        counters = EventCounters(
            events_popped=popped,
            events_suppressed=popped - committed,
            wheel_buckets=buckets,
            glitches_per_net=glitches,
        )
        self.last_event_counters = counters
        observability.record_event_counters(counters)
        commits = {
            self._row_net_name[row]: int(commit_counts[row]) for row in committed_rows
        }
        return EventTimedEvaluation(
            lanes=lanes,
            final_output_words=final_output_words,
            previous_output_words=previous_output_words,
            output_arrivals_ps=output_arrivals,
            worst_arrival_ps=worst,
            event_logs=event_logs,
            counters=counters,
            commit_counts=commits,
        )


class EventBackend(BatchedSimulationBackend):
    """Lane-batched waveform engine for the glitch-exact event model."""

    name = "event"
    arrival_models = ("event",)

    def timing_simulator(self, netlist, library, arrival_model):
        return EventWheelSimulator(netlist, library, arrival_model=arrival_model)

    def _batch_counters(
        self,
        evaluation: EventTimedEvaluation,
        clock_period_ps,
        output_bus,
        msb_count,
        width,
    ) -> ErrorCounters:
        return lane_error_counters(
            evaluation, clock_period_ps, output_bus, msb_count, width
        )
