"""NumPy ``uint64``-lane backend and the shared levelized schedule.

Data layout
-----------

Every net's lane word is one row of a ``(nets, ceil(lanes / 64))`` uint64
array — lane ``k`` is bit ``k % 64`` of machine word ``k // 64``, exactly
the little-endian packing of :func:`repro.utils.bitops.word_to_lane_array`.
Gates are scheduled by :class:`LevelizedGraph` in two granularities:

* **value evaluation** groups the gates of one logic level by cell type, so
  one level of ``N`` same-type gates is evaluated with a handful of ufunc
  calls (gather input rows by fancy indexing, apply the word-level cell
  function, write the group's output block) instead of ``N`` Python calls.
  The word-level cell functions of
  :data:`repro.circuits.gates.WORD_CELL_FUNCTIONS` are pure mask/AND/OR/XOR
  expressions, so the very same table serves bigint words and uint64
  arrays.
* **arrival propagation** is cell-agnostic (max over the input arrivals
  plus the gate delay), so it runs once per *level* over arity-padded
  input-row matrices: gates narrower than the widest arity repeat their
  last input row, which is a no-op under ``max``/``or`` and keeps the
  whole level on one gather per pin regardless of the cell mix.

Row numbering
-------------

Rows are numbered level by level: the non-driven source nets first (in
creation order, so a bus built in one piece keeps contiguous rows), then
each level's gate outputs as one contiguous block, cell-type groups back
to back.  Every level's (and every cell group's) output rows are therefore
exactly ``arange(start, stop)``, so the kernels compute **directly into a
slice view of the arrival/value arrays** (no per-level scatter, no
per-level allocation — gathers stream into a reused scratch buffer).
Values and arrivals live in this numbering end to end; only
``input_bus_rows``/``output_bus_rows`` translate at the boundary, so
:class:`LaneTimedEvaluation` is bit-identical to the scalar engine
(property-tested).

Arrival propagation
-------------------

Per-lane arrival times are carried as a ``(nets, lanes)`` float64 array;
perturbation and value-change masks as ``(nets, lanes)`` booleans.  The
corner-batched STA pass of :func:`corner_case_delays` runs arrival vectors
of shape ``(nets, corners)`` through the identical
:meth:`LevelizedGraph.max_plus_pass` schedule — one levelized traversal
covers a whole corners (or lanes) batch.  Corners may share one delay
table (a ``{gate: delay}`` mapping) or carry **per-corner delay columns**
(a ``(gates, corners)`` matrix aligned with ``topological_gates()``),
which is how per-PE aging scenarios of a whole accelerator array batch
into a single pass (:func:`repro.timing.sta.scenario_case_delays`).

Case-analysis constants
-----------------------

The nets each corner's case analysis forces to a constant resolve on the
same schedule (:meth:`LevelizedGraph.constant_mask`): per net, two
``(nets, corners)`` bool rows record whether it can be 0 and whether it can
be 1, and each cell group enumerates its truth table once for the whole
corner batch.  The structural constants of the lane simulator come from the
same pass with no assignments.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from itertools import product as iter_product
from collections.abc import Mapping, Sequence

import numpy as np

import repro.observability as observability
from repro.aging.scenarios.base import resolve_gate_delays
from repro.circuits.backends.base import BatchedSimulationBackend, ErrorCounters
from repro.circuits.constants import case_assignments
from repro.circuits.gates import CELL_FUNCTIONS, CELL_INPUT_COUNTS, WORD_CELL_FUNCTIONS
from repro.circuits.netlist import Gate, Net, Netlist
from repro.circuits.simulator import BATCH_ARRIVAL_MODELS
from repro.utils.bitops import (
    UINT64_MASK,
    bits_to_lane_array,
    lane_array_to_bits,
    lane_word_count,
)

#: Per cell, its truth table for the constant pass: the ``(2**arity, arity)``
#: input combinations, the ``(arity,)`` pin indices that pair with them, and
#: the ``(2**arity,)`` bool outputs.
_TRUTH_TABLES: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]] = {
    cell_name: (
        combos := np.array(list(iter_product((0, 1), repeat=arity)), dtype=np.intp),
        np.arange(arity),
        np.array([CELL_FUNCTIONS[cell_name](*combo) for combo in combos], dtype=bool),
    )
    for cell_name, arity in CELL_INPUT_COUNTS.items()
}


def _as_slice(rows: np.ndarray) -> "slice | None":
    """``slice(start, stop)`` when ``rows`` is consecutive ascending, else None."""
    if rows.size == 0:
        return slice(0, 0)
    if rows.size == 1 or bool(np.all(np.diff(rows) == 1)):
        start = int(rows[0])
        return slice(start, start + rows.size)
    return None


def _output_block(net_row: Mapping[Net, int], gates: Sequence[Gate]) -> slice:
    """The row block of ``gates``' outputs, which are numbered back to back."""
    start = net_row[gates[0].output]
    return slice(start, start + len(gates))


@dataclass(frozen=True)
class ValueGroup:
    """All gates of one cell type within one logic level.

    Attributes:
        cell_name: the shared standard cell of the group.
        input_rows: per input pin, the ``(size,)`` net-row indices.
        input_slices: per input pin, the equivalent slice when the pin's
            rows are contiguous (a view-read instead of a gather), else
            ``None``.
        output_slice: the contiguous block of the gate-output rows.
    """

    cell_name: str
    input_rows: tuple[np.ndarray, ...]
    input_slices: "tuple[slice | None, ...]"
    output_slice: slice


@dataclass(frozen=True)
class LevelPlan:
    """One logic level of the schedule.

    Attributes:
        gates: the member gates in schedule order (the order every
            per-gate vector — e.g. delays — must follow): grouped by cell
            type, so their output rows form one ascending run.
        value_groups: per cell type, the gather/scatter plan for value
            evaluation.
        padded_input_rows: ``(max_arity, size)`` input net rows for the
            cell-agnostic arrival step; gates with fewer inputs repeat
            their last input (idempotent under max/or).
        output_slice: the contiguous block of the level's output rows,
            enabling in-place slice-view computation instead of gather +
            scatter.
        structural_outputs: ``(size,)`` bool, True for outputs forced to a
            structural constant (they never transition and must not
            contribute arrival time).
        join_segments: runs of gates whose pin-0 *and* pin-1 rows both
            advance by one row per gate — ``(dst_start, dst_stop, src0,
            src1)`` offsets, ``dst`` relative to the level's output block.
            Within a segment the two-pin max is a pure slice-view ufunc
            (no gather copy, no scratch), which is the row numbering's
            whole point: it reads each input row once and writes each
            output row once.  Covers the entire level (a single gate is a
            length-1 segment); pins beyond the second fall back to
            gathers.
    """

    gates: tuple[Gate, ...]
    value_groups: tuple[ValueGroup, ...]
    padded_input_rows: np.ndarray
    output_slice: slice
    structural_outputs: np.ndarray
    join_segments: tuple[tuple[int, int, int, int], ...]


class LevelizedGraph:
    """Precomputed gather/scatter schedule of a netlist.

    Nets are numbered into rows of a dense array; gates are grouped by
    logic level (and, for value evaluation, by cell type within the
    level).  Levels are emitted in order, so by the time a level runs,
    every input row it gathers has been written — the vectorised
    equivalent of the topological gate order.  Each level's outputs occupy
    one contiguous block of rows (see the module docstring), so the hot
    kernels write straight into slice views.
    """

    def __init__(self, netlist: Netlist) -> None:
        # Deliberately no reference to the Netlist itself: the graph is the
        # *value* of a WeakKeyDictionary keyed by the netlist, and a strong
        # value->key reference would make cache entries immortal.  Net and
        # Gate objects carry no back-reference to their netlist, so holding
        # them (and a copy of the bus dict) is safe.
        self._input_buses = dict(netlist.input_buses)
        order = netlist.topological_gates()
        nets = list(netlist.nets.values())
        self.num_nets = len(nets)
        self.num_gates = len(order)

        #: Widest gate arity in the netlist: the row count of every level's
        #: padded input matrix, so new wider cells extend the schedule
        #: instead of silently dropping their extra pins.
        self.max_arity = max((len(gate.inputs) for gate in order), default=1)

        depth: dict[Gate, int] = {}
        for gate in order:
            level = 0
            for net in gate.inputs:
                if net.driver is not None:
                    level = max(level, depth[net.driver] + 1)
            depth[gate] = level
        by_level: dict[int, list[Gate]] = {}
        for gate in order:
            by_level.setdefault(depth[gate], []).append(gate)

        # Per-level gate order and cell grouping: cell groups back to back,
        # so each group's (and each level's) output rows are numbered as one
        # ascending run.
        level_groups: list[list[tuple[str, list[Gate]]]] = []
        level_gates: list[list[Gate]] = []
        for _, gates in sorted(by_level.items()):
            by_cell: dict[str, list[Gate]] = {}
            for gate in gates:
                by_cell.setdefault(gate.cell_name, []).append(gate)
            groups = list(by_cell.items())
            level_groups.append(groups)
            level_gates.append([g for _, members in groups for g in members])

        self.net_row: dict[object, int] = {}
        row = 0
        for net in nets:  # sources first, in creation order
            if net.driver is None:
                self.net_row[net] = row
                row += 1
        self.num_source_rows = row
        for gates in level_gates:
            for gate in gates:
                self.net_row[gate.output] = row
                row += 1
        assert row == self.num_nets, "every net is a source or one gate's output"

        #: Creation-order net -> row: the numbering as a permutation, a
        #: bijection over ``range(num_nets)``.
        self.row_permutation = np.array(
            [self.net_row[net] for net in nets], dtype=np.intp
        )

        level_value_groups = [
            tuple(
                ValueGroup(
                    cell_name=cell_name,
                    input_rows=(input_rows := tuple(
                        np.array(
                            [self.net_row[gate.inputs[pin]] for gate in members],
                            dtype=np.intp,
                        )
                        for pin in range(len(members[0].inputs))
                    )),
                    input_slices=tuple(_as_slice(rows) for rows in input_rows),
                    output_slice=_output_block(self.net_row, members),
                )
                for cell_name, members in groups
            )
            for groups in level_groups
        ]

        # The constant pass's schedule: per cell group in level order, its
        # truth table, the (arity, size) stacked input rows and the output
        # block.
        self._constant_groups = tuple(
            (
                *_TRUTH_TABLES[group.cell_name],
                np.stack(group.input_rows),
                group.output_slice,
            )
            for value_groups in level_value_groups
            for group in value_groups
        )
        self._driven_rows = np.zeros(self.num_nets, dtype=bool)
        self._driven_rows[self.num_source_rows :] = True
        self._constant_rows = tuple(
            np.array(
                [self.net_row[net] for net in nets if net.constant_value == value],
                dtype=np.intp,
            )
            for value in (0, 1)
        )
        self.structural_rows = self.constant_mask([{}])[:, 0]

        self.levels: list[LevelPlan] = []
        for gates, value_groups in zip(level_gates, level_value_groups):
            padded = np.array(
                [
                    [self.net_row[gate.inputs[min(pin, len(gate.inputs) - 1)]] for gate in gates]
                    for pin in range(self.max_arity)
                ],
                dtype=np.intp,
            )
            output_slice = _output_block(self.net_row, gates)
            rows0 = padded[0]
            rows1 = padded[1] if self.max_arity >= 2 else padded[0]
            segments: list[tuple[int, int, int, int]] = []
            start = 0
            for gate_index in range(1, len(gates) + 1):
                if (
                    gate_index == len(gates)
                    or rows0[gate_index] != rows0[gate_index - 1] + 1
                    or rows1[gate_index] != rows1[gate_index - 1] + 1
                ):
                    segments.append(
                        (start, gate_index, int(rows0[start]), int(rows1[start]))
                    )
                    start = gate_index
            self.levels.append(
                LevelPlan(
                    gates=tuple(gates),
                    value_groups=value_groups,
                    padded_input_rows=padded,
                    output_slice=output_slice,
                    structural_outputs=self.structural_rows[output_slice],
                    join_segments=tuple(segments),
                )
            )
        self.max_level_size = max((len(plan.gates) for plan in self.levels), default=1)

        # Per-level topological gate indices: the row selector that turns a
        # (gates, corners) delay matrix (aligned with topological_gates())
        # into per-level delay columns.
        topo_index = {gate: index for index, gate in enumerate(order)}
        self.level_topo_indices = [
            np.array([topo_index[gate] for gate in plan.gates], dtype=np.intp)
            for plan in self.levels
        ]

        self.constant_one_rows = self._constant_rows[1]
        self.input_bus_rows = {
            name: np.array([self.net_row[net] for net in bus_nets], dtype=np.intp)
            for name, bus_nets in netlist.input_buses.items()
        }
        self.input_bus_slices = {
            name: _as_slice(rows) for name, rows in self.input_bus_rows.items()
        }
        self.output_bus_rows = {
            name: np.array([self.net_row[net] for net in bus_nets], dtype=np.intp)
            for name, bus_nets in netlist.output_buses.items()
        }

        #: Number of levelized arrival traversals this graph has run — one
        #: per :meth:`max_plus_pass` call, covering its *whole* batch.  The
        #: array-map benchmarks assert batching on this counter instead of
        #: wall clock alone.
        self.max_plus_passes = 0

    # ------------------------------------------------------------ diagnostics
    def gather_locality(self) -> dict[str, float]:
        """Locality metrics of the schedule's gathers and scatters.

        Returns fractions in ``[0, 1]``:

        * ``"contiguous_input_buses"`` — input buses packable by slice;
        * ``"sequential_read_fraction"`` — gather index steps that advance
          by exactly one row (reads the hardware prefetcher can stream).
        """
        steps = 0
        unit_steps = 0
        for plan in self.levels:
            for rows in plan.padded_input_rows:
                if rows.size > 1:
                    steps += rows.size - 1
                    unit_steps += int(np.count_nonzero(np.diff(rows) == 1))
        num_buses = max(len(self.input_bus_slices), 1)
        return {
            "contiguous_input_buses": sum(
                bus_slice is not None for bus_slice in self.input_bus_slices.values()
            )
            / num_buses,
            "sequential_read_fraction": unit_steps / steps if steps else 1.0,
        }

    # ------------------------------------------------------------- schedules
    def level_delays(self, gate_delay_ps: Mapping[Gate, float]) -> list[np.ndarray]:
        """Per-level delay vectors aligned with each level's gate order."""
        return [
            np.array([gate_delay_ps[gate] for gate in level.gates])
            for level in self.levels
        ]

    def level_delay_columns(self, delay_matrix: np.ndarray) -> list[np.ndarray]:
        """Per-level ``(level size, corners)`` delay columns.

        ``delay_matrix`` is ``(gates, corners)`` float64 aligned with
        ``netlist.topological_gates()`` — one column per corner/scenario.
        """
        matrix = np.asarray(delay_matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != self.num_gates:
            raise ValueError(
                f"delay matrix must be (num_gates={self.num_gates}, corners), "
                f"got shape {matrix.shape}"
            )
        return [matrix[indices] for indices in self.level_topo_indices]

    def pack_inputs(
        self, inputs: Mapping[str, Sequence[int]]
    ) -> tuple[np.ndarray, int]:
        """Pack bus-level lane values into a dense ``(nets, words)`` array.

        Returns the value array (rows of nets not covered by an input bus or
        a constant are zero until gate evaluation writes them) and the lane
        count.  Validation matches the bigint packing of
        :func:`repro.circuits.netlist.bus_batches_to_words`.
        """
        lanes: int | None = None
        packed: dict[str, np.ndarray] = {}
        for bus_name, bus_nets in self._input_buses.items():
            if bus_name not in inputs:
                raise KeyError(f"missing values for input bus {bus_name!r}")
            values_list = list(inputs[bus_name])
            if lanes is None:
                lanes = len(values_list)
                if lanes == 0:
                    raise ValueError("batched evaluation needs at least one lane")
            elif len(values_list) != lanes:
                raise ValueError(
                    f"bus {bus_name!r} has {len(values_list)} lanes, expected {lanes}"
                )
            width = len(bus_nets)
            if width <= 62:
                try:
                    lane_values = np.asarray(values_list, dtype=np.int64)
                except OverflowError:
                    lane_values = None
                if lane_values is None or lane_values.min() < 0 or lane_values.max() >= (
                    1 << width
                ):
                    bad = next(v for v in values_list if v < 0 or v >= (1 << width))
                    raise ValueError(
                        f"value {bad} does not fit in {width}-bit bus {bus_name!r}"
                    )
                shifts = np.arange(width, dtype=np.uint64)
                bits = (lane_values.astype(np.uint64)[None, :] >> shifts[:, None]) & np.uint64(1)
            else:
                # Buses too wide for int64 lanes: bit-extract on Python ints
                # (exact for any width, like the bigint packing).
                bits = np.zeros((width, lanes), dtype=bool)
                for lane, value in enumerate(values_list):
                    if value < 0 or value >= (1 << width):
                        raise ValueError(
                            f"value {value} does not fit in {width}-bit bus {bus_name!r}"
                        )
                    bit = 0
                    while value:
                        if value & 1:
                            bits[bit, lane] = True
                        value >>= 1
                        bit += 1
            packed[bus_name] = bits_to_lane_array(np.asarray(bits, dtype=bool))
        assert lanes is not None
        values = np.zeros((self.num_nets, lane_word_count(lanes)), dtype=np.uint64)
        for bus_name, rows in self.input_bus_rows.items():
            bus_slice = self.input_bus_slices[bus_name]
            if bus_slice is not None:
                values[bus_slice] = packed[bus_name]
            else:
                values[rows] = packed[bus_name]
        if self.constant_one_rows.size:
            values[self.constant_one_rows] = UINT64_MASK
        return values, lanes

    def evaluate(self, values: np.ndarray) -> np.ndarray:
        """Zero-delay functional pass: fill every gate-output row in place."""
        for level in self.levels:
            for group in level.value_groups:
                func = WORD_CELL_FUNCTIONS[group.cell_name]
                result = func(
                    UINT64_MASK,
                    *(
                        values[rows] if row_slice is None else values[row_slice]
                        for rows, row_slice in zip(group.input_rows, group.input_slices)
                    ),
                )
                values[group.output_slice] = result
        return values

    # ------------------------------------------------------------- constants
    def constant_mask(self, corner_assignments: Sequence[Mapping[Net, int]]) -> np.ndarray:
        """``(nets, corners)`` bool mask of the nets forced to a constant.

        Column ``j`` holds the constants of corner ``j``: the declared
        constant nets plus ``corner_assignments[j]`` (validated nets tied to
        0/1, see :func:`repro.circuits.constants.case_assignments`),
        propagated through the logic.  Every net carries two rows of
        possible values, ``can[0]`` and ``can[1]``.  Each cell group then
        enumerates its truth table once for the whole corner batch: an input
        combination is allowed where every pin can take its bit, and each
        allowed combination makes its output value possible.  A net is
        constant exactly where one value is possible (``can[0] ^ can[1]``).
        Free inputs are enumerated independently and known inputs stay
        fixed, which is the rule of the scalar
        :func:`~repro.circuits.constants.constant_gate_output`, so the mask
        equals :func:`~repro.circuits.constants.propagate_constants` corner
        by corner.  A tie on a gate output holds unless the gate's inputs
        already force it, again as in the scalar pass.
        """
        corners = len(corner_assignments)
        can = np.ones((2, self.num_nets, corners), dtype=bool)
        can[1, self._constant_rows[0]] = False
        can[0, self._constant_rows[1]] = False
        values: list[int] = []
        rows: list[int] = []
        columns: list[int] = []
        for column, assignments in enumerate(corner_assignments):
            for net, value in assignments.items():
                values.append(value)
                rows.append(self.net_row[net])
                columns.append(column)
        tied = None
        if rows:
            value_index = np.array(values, dtype=np.intp)
            row_index = np.array(rows, dtype=np.intp)
            can[value_index, row_index, columns] = True
            can[1 - value_index, row_index, columns] = False
            if self._driven_rows[row_index].any():
                tied = np.zeros_like(can)
                tied[value_index, row_index, columns] = True
        for combos, pins, ones, pin_rows, out in self._constant_groups:
            # (combinations, arity, size, corners): can[bit of the pin, pin row].
            allowed = can[:, pin_rows][combos, pins].all(axis=1)
            can[0, out] = allowed[~ones].any(axis=0)
            can[1, out] = allowed[ones].any(axis=0)
            if tied is not None:
                free = can[0, out] & can[1, out]
                can[0, out] &= ~(free & tied[1, out])
                can[1, out] &= ~(free & tied[0, out])
        return can[0] ^ can[1]

    # -------------------------------------------------------------- arrivals
    def max_plus_pass(
        self,
        level_delays: Sequence[np.ndarray],
        batch: int,
        excluded: np.ndarray | None = None,
    ) -> np.ndarray:
        """One levelized worst-arrival traversal over a whole batch.

        Arrival vectors are carried as ``(nets, batch)`` float64 — ``batch``
        being STA corners or Monte-Carlo lanes — and each level runs one
        vectorised max-plus step (arity-padded gathers, max, add the
        per-gate delay).  Each ``level_delays`` entry is either a ``(size,)``
        vector shared by the batch or a ``(size, batch)`` matrix of
        per-corner delay columns.  ``excluded`` is an optional boolean mask
        of (net, batch-element) pairs pinned to a constant, whose arrival
        reads as 0.0 (case analysis); a ``(nets, 1)`` mask broadcasts one
        shared constant set over the whole batch.

        Each level computes directly into the slice view of its output
        block; gathers stream through one reused scratch buffer, with no
        per-level allocation or scatter.
        """
        self.max_plus_passes += 1
        observability.add("lane.max_plus_passes")
        if excluded is not None:
            live = ~excluded
        arrivals = np.empty((self.num_nets, batch))
        arrivals[: self.num_source_rows] = 0.0
        scratch = np.empty((self.max_level_size, batch))
        for level, delays in zip(self.levels, level_delays):
            in_rows = level.padded_input_rows
            out = arrivals[level.output_slice]
            np.take(arrivals, in_rows[0], axis=0, out=out, mode="clip")
            if excluded is None:
                for rows in in_rows[1:]:
                    gathered = scratch[: rows.size]
                    np.take(arrivals, rows, axis=0, out=gathered, mode="clip")
                    np.maximum(out, gathered, out=out)
            else:
                out *= live[in_rows[0]]
                for rows in in_rows[1:]:
                    gathered = scratch[: rows.size]
                    np.take(arrivals, rows, axis=0, out=gathered, mode="clip")
                    gathered *= live[rows]
                    np.maximum(out, gathered, out=out)
            out += delays[:, None] if delays.ndim == 1 else delays
        return arrivals


#: One schedule per netlist: every simulator / STA corner pass over the
#: same netlist shares the grouping (keyed weakly so netlists stay
#: collectable).
_GRAPH_CACHE: "weakref.WeakKeyDictionary[Netlist, LevelizedGraph]" = (
    weakref.WeakKeyDictionary()
)
_GRAPH_CACHE_STATS = {"hits": 0, "misses": 0}


def levelized_graph(netlist: Netlist) -> LevelizedGraph:
    """The (cached) levelized gather/scatter schedule of ``netlist``."""
    graph = _GRAPH_CACHE.get(netlist)
    if graph is None:
        _GRAPH_CACHE_STATS["misses"] += 1
        observability.add("lane.graph_cache.misses")
        graph = LevelizedGraph(netlist)
        _GRAPH_CACHE[netlist] = graph
        if observability.is_enabled():
            # Locality fractions are properties of the schedule, so
            # gauge them once per construction; max keeps merges commutative
            # (all constructions of one netlist report identical values).
            for metric, value in graph.gather_locality().items():
                observability.gauge(f"lane.locality.{metric}", value)
    else:
        _GRAPH_CACHE_STATS["hits"] += 1
        observability.add("lane.graph_cache.hits")
    return graph


def levelized_graph_cache_stats() -> dict[str, int]:
    """Hit/miss counters of the schedule cache (process-lifetime totals)."""
    return dict(_GRAPH_CACHE_STATS)


# ============================================================ corner STA pass
def corner_case_delays(
    netlist: Netlist,
    gate_delay_ps: "Mapping[Gate, float] | np.ndarray",
    corner_cases: "Sequence[Mapping[str, int] | None]",
) -> list[float]:
    """Critical-path delays of many case-analysis corners in one pass.

    ``corner_cases[j]`` is corner ``j``'s case analysis: net name -> 0/1
    (``None`` for none), validated by
    :func:`~repro.circuits.constants.case_assignments`.  The constants of
    every corner resolve in one vectorised pass
    (:meth:`LevelizedGraph.constant_mask`), and the resulting exclusion
    mask feeds arrival vectors of shape ``(nets, corners)`` through the same
    levelized :meth:`LevelizedGraph.max_plus_pass` schedule the lane
    simulator uses for Monte-Carlo lanes.  Bit-identical to running a scalar
    STA traversal once per corner (max-plus over float64 is
    order-insensitive and every gate adds the same delay; arrivals are
    non-negative, so masking by multiplication equals exclusion).

    ``gate_delay_ps`` is either one ``{gate: delay}`` table shared by every
    corner, or a ``(gates, corners)`` float matrix aligned with
    ``netlist.topological_gates()`` — per-corner delay columns, which is
    how per-PE aging scenarios batch a whole accelerator array into a
    single levelized pass.  When every entry of ``corner_cases`` is the
    *same* object (one shared case analysis), the constants resolve once
    and the exclusion mask is one broadcast column.

    Records the ``sta.case_constants`` span and the
    ``sta.case_constants.corners`` counter (constant columns resolved).
    """
    if not corner_cases:
        return []
    graph = levelized_graph(netlist)
    corners = len(corner_cases)
    first = corner_cases[0]
    columns = [first] if all(case is first for case in corner_cases) else corner_cases
    with observability.span("sta.case_constants", columns=len(columns)):
        observability.add("sta.case_constants.corners", len(columns))
        excluded = graph.constant_mask(
            [case_assignments(netlist, case) for case in columns]
        )
    if isinstance(gate_delay_ps, np.ndarray):
        matrix = np.asarray(gate_delay_ps, dtype=float)
        if matrix.ndim != 2 or matrix.shape[1] != corners:
            raise ValueError(
                f"per-corner delay columns must be (gates, corners={corners}), "
                f"got shape {matrix.shape}"
            )
        level_delays = graph.level_delay_columns(matrix)
    else:
        level_delays = graph.level_delays(gate_delay_ps)
    arrivals = graph.max_plus_pass(level_delays, corners, excluded=excluded)
    worst = np.zeros(corners)
    for net in netlist.primary_output_nets():
        row = graph.net_row[net]
        np.maximum(worst, arrivals[row] * ~excluded[row], out=worst)
    return [float(delay) for delay in worst]


# ========================================================== timing simulator
@dataclass
class LaneTimedEvaluation:
    """Result of a lane-array batched two-vector timed simulation.

    The ndarray twin of
    :class:`~repro.circuits.simulator.BatchTimedEvaluation`: per-bus word
    containers are ``(bits, ceil(lanes / 64))`` uint64 arrays (LSB-first
    rows parallel to the output bus nets) instead of bigint lists; arrival
    and violation containers are identical.

    Attributes:
        lanes: number of vector pairs in the batch.
        final_output_words: per bus, the per-bit lane rows after settling.
        previous_output_words: per bus, the settled lane rows of the
            previous vectors.
        output_arrivals_ps: per bus, a ``(bits, lanes)`` float array of
            final settling times (0.0 for bits that do not change in a
            lane).
        worst_arrival_ps: per lane, the latest settling time over all
            output bits (shape ``(lanes,)``).
    """

    lanes: int
    final_output_words: dict[str, np.ndarray]
    previous_output_words: dict[str, np.ndarray]
    output_arrivals_ps: dict[str, np.ndarray]
    worst_arrival_ps: np.ndarray

    def final_outputs(self) -> dict[str, list[int]]:
        """Per-lane settled output bus values (functionally exact)."""
        return self._unpack(self.final_output_words)

    def previous_outputs(self) -> dict[str, list[int]]:
        """Per-lane settled output values of the previous vectors."""
        return self._unpack(self.previous_output_words)

    def captured_output_words(self, clock_period_ps: float) -> dict[str, np.ndarray]:
        """Per-bit lane rows captured by a flip-flop at the clock edge.

        A bit whose (single, levelized) change arrives after the edge keeps
        the stale value of the previous computation, exactly as in the
        scalar and bigint engines.
        """
        if clock_period_ps <= 0:
            raise ValueError("clock_period_ps must be positive")
        captured: dict[str, np.ndarray] = {}
        for bus, final in self.final_output_words.items():
            previous = self.previous_output_words[bus]
            late = bits_to_lane_array(self.output_arrivals_ps[bus] > clock_period_ps)
            captured[bus] = final ^ ((final ^ previous) & late)
        return captured

    def captured_outputs(self, clock_period_ps: float) -> dict[str, list[int]]:
        """Per-lane output bus values captured at the clock edge."""
        return self._unpack(self.captured_output_words(clock_period_ps))

    def has_timing_violation(self, clock_period_ps: float) -> np.ndarray:
        """Per-lane violation mask: does any bit settle after the edge?

        Always an ``ndarray`` of dtype ``bool`` and shape ``(lanes,)``,
        matching the bigint batched evaluation's contract.
        """
        return np.asarray(self.worst_arrival_ps > clock_period_ps, dtype=bool)

    def _unpack(self, bus_words: dict[str, np.ndarray]) -> dict[str, list[int]]:
        result: dict[str, list[int]] = {}
        for bus, words in bus_words.items():
            bits = lane_array_to_bits(words, self.lanes)
            if bits.shape[0] < 63:
                weights = np.int64(1) << np.arange(bits.shape[0], dtype=np.int64)
                result[bus] = (bits.T.astype(np.int64) @ weights).tolist()
            else:  # arbitrarily wide buses: accumulate as Python ints
                values = [0] * self.lanes
                for bit, row in enumerate(bits):
                    for lane in np.flatnonzero(row):
                        values[lane] |= 1 << bit
                result[bus] = values
        return result


class LaneTimingSimulator:
    """Batched two-vector timed simulation on uint64 lane arrays.

    Bit-for-bit equivalent to the scalar :class:`~repro.circuits.simulator.
    TimingSimulator` (and therefore to the bigint
    :class:`~repro.circuits.simulator.BatchTimingSimulator`) for the
    levelized arrival models, but evaluated level by level: net values on
    packed uint64 rows grouped by cell type, arrival/perturbation state on
    dense per-lane arrays with one arity-padded max-plus (or or-reduce)
    step per level.

    The per-level arrival and perturbation results are computed straight
    into slice views of the state arrays, the big float buffers are reused
    across :meth:`propagate_batch` calls (no repeated allocation /
    page-fault churn at wide batches), and only the contiguous source
    block is re-zeroed per call.
    """

    def __init__(
        self,
        netlist: Netlist,
        library,
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
        self.graph = levelized_graph(netlist)
        # The scenario funnel covers every gate of the netlist, which is a
        # superset of the levelized schedule's gates.
        self._level_delays = self.graph.level_delays(
            resolve_gate_delays(netlist, library)
        )
        # Reusable per-lane-count state: the arrival array, the gather scratch, and per-level slice views into the
        # arrival buffer (the join-segment kernel's operands, bound once
        # per lane count instead of re-sliced every call).  The evaluation
        # result holds no views into these, so the same pages serve every
        # propagate_batch call of one sweep.
        self._arrivals_buffer: np.ndarray | None = None
        self._scratch_buffer: np.ndarray | None = None
        self._level_views: list[tuple[np.ndarray, list, list[np.ndarray]]] = []

    def _lane_buffers(
        self, lanes: int
    ) -> tuple[np.ndarray, np.ndarray, "list[tuple[np.ndarray, list, list[np.ndarray]]]"]:
        if self._arrivals_buffer is None or self._arrivals_buffer.shape[1] != lanes:
            graph = self.graph
            arrivals = np.empty((graph.num_nets, lanes))
            self._arrivals_buffer = arrivals
            self._scratch_buffer = np.empty((graph.max_level_size, lanes))
            self._level_views = []
            for level in graph.levels:
                out = arrivals[level.output_slice]
                out_start = level.output_slice.start
                segments = []
                for dst_start, dst_stop, src0, src1 in level.join_segments:
                    size = dst_stop - dst_start
                    seg_a = arrivals[src0 : src0 + size]
                    seg_b = seg_a if src1 == src0 else arrivals[src1 : src1 + size]
                    segments.append((arrivals[out_start + dst_start : out_start + dst_stop], seg_a, seg_b))
                extra_pins = list(level.padded_input_rows[2:])
                self._level_views.append((out, segments, extra_pins))
        return self._arrivals_buffer, self._scratch_buffer, self._level_views

    def propagate_batch(
        self,
        previous_inputs: Mapping[str, Sequence[int]],
        current_inputs: Mapping[str, Sequence[int]],
    ) -> LaneTimedEvaluation:
        """Simulate the per-lane transitions from previous to current vectors."""
        graph = self.graph
        prev_values, prev_lanes = graph.pack_inputs(previous_inputs)
        graph.evaluate(prev_values)
        curr_values, lanes = graph.pack_inputs(current_inputs)
        if prev_lanes != lanes:
            raise ValueError(
                f"previous and current batches differ in lanes ({prev_lanes} vs {lanes})"
            )
        settle = self.arrival_model == "settle"

        # Arrival times are dense float64 rows; perturbation (and, for the
        # transition model, value-change) masks stay *packed* as uint64 rows
        # — their or/and/xor reductions cost 1/64th of the float traffic,
        # and a packed equality test against the live-lane pattern gives the
        # same "every lane active" fast path the bigint engine takes with
        # ``active == mask`` (skipping the unpack-and-mask entirely, which
        # is the common case once a few levels of random vectors fan in).
        words = curr_values.shape[1]
        live = np.zeros(words, dtype=np.uint64)
        full, tail = divmod(lanes, 64)
        live[:full] = UINT64_MASK
        if tail:
            live[full] = np.uint64((1 << tail) - 1)
        perturbed = np.zeros((graph.num_nets, words), dtype=np.uint64)
        for rows in graph.input_bus_rows.values():
            perturbed[rows] = curr_values[rows] ^ prev_values[rows]

        arrivals = self._propagate(prev_values, curr_values, perturbed, live, lanes, settle)
        return self._build_evaluation(prev_values, curr_values, arrivals, lanes)

    # ------------------------------------------------------ arrival traversal
    def _propagate(
        self,
        prev_values: np.ndarray,
        curr_values: np.ndarray,
        perturbed: np.ndarray,
        live: np.ndarray,
        lanes: int,
        settle: bool,
    ) -> np.ndarray:
        """Packed-domain pass, then float max-plus traversal.

        Phase 1 runs the cheap packed uint64 work (value evaluation,
        perturbation / activity masks) over the full width.  Phase 2 runs
        the bandwidth-bound float64 max-plus traversal; under the settle
        model each level is a handful of **join-segment** slice-view
        ``maximum`` calls — both operands read straight from their home
        rows, the result lands straight in the output block, so each input
        row is read once and each output row written once.
        """
        graph = self.graph
        arrivals, scratch, level_views = self._lane_buffers(lanes)
        levels = graph.levels

        # ---- Phase 1: packed-domain values + per-level activity masks.
        # ``active`` is None when every live lane is active (the common case
        # once a few levels of random vectors fan in) — phase 2 then skips
        # the unpack-and-mask entirely, like the bigint fast path.
        graph.evaluate(curr_values)
        level_active: list[np.ndarray | None] = []
        live_row = live[None, :]
        for level in levels:
            in_rows = level.padded_input_rows
            out_slice = level.output_slice

            pert = perturbed[out_slice]
            np.take(perturbed, in_rows[0], axis=0, out=pert, mode="clip")
            for rows in in_rows[1:]:
                np.bitwise_or(pert, perturbed[rows], out=pert)
            pert[level.structural_outputs] = 0

            if settle:
                active = pert
            else:  # "transition": only functional value changes carry delay.
                active = pert & (curr_values[out_slice] ^ prev_values[out_slice])
            level_active.append(
                None if np.array_equal(active, np.broadcast_to(live_row, active.shape))
                else active
            )

        # ---- Phase 2: float64 max-plus traversal.
        arrivals[: graph.num_source_rows] = 0.0
        for level, (out, segments, extra_pins), delays, active in zip(
            levels, level_views, self._level_delays, level_active
        ):
            if settle:
                # Structural / unperturbed / constant inputs all carry a 0.0
                # arrival row, so the plain max matches the scalar model's
                # "exclude structural inputs" rule exactly.  An arity-1
                # segment (seg_b is seg_a) degenerates to a row copy:
                # max(a, a) == a bit for bit.
                for seg_out, seg_a, seg_b in segments:
                    if seg_b is seg_a:
                        np.copyto(seg_out, seg_a)
                    else:
                        np.maximum(seg_a, seg_b, out=seg_out)
                for rows in extra_pins:
                    gathered = scratch[: rows.size]
                    np.take(arrivals, rows, axis=0, out=gathered, mode="clip")
                    np.maximum(out, gathered, out=out)
            else:  # "transition": only functional value changes carry delay.
                in_rows = level.padded_input_rows
                in_changed = lane_array_to_bits(
                    curr_values[in_rows] ^ prev_values[in_rows], lanes
                )
                np.take(arrivals, in_rows[0], axis=0, out=out, mode="clip")
                out *= in_changed[0]
                for pin in range(1, len(in_rows)):
                    gathered = scratch[: in_rows.shape[1]]
                    np.take(arrivals, in_rows[pin], axis=0, out=gathered, mode="clip")
                    gathered *= in_changed[pin]
                    np.maximum(out, gathered, out=out)
            # Arrivals and delays are non-negative, so masking by the 0/1
            # active bits is the same as where(active, base + delay, 0.0).
            out += delays[:, None]
            if active is not None:
                out *= lane_array_to_bits(active, lanes)
        return arrivals

    # ----------------------------------------------------------------- result
    def _build_evaluation(
        self,
        prev_values: np.ndarray,
        curr_values: np.ndarray,
        arrivals: np.ndarray,
        lanes: int,
    ) -> LaneTimedEvaluation:
        graph = self.graph
        final_output_words: dict[str, np.ndarray] = {}
        previous_output_words: dict[str, np.ndarray] = {}
        output_arrivals: dict[str, np.ndarray] = {}
        worst = np.zeros(lanes)
        for bus, rows in graph.output_bus_rows.items():
            final = curr_values[rows]
            previous = prev_values[rows]
            final_output_words[bus] = final
            previous_output_words[bus] = previous
            # As in the scalar engine, a bit only reports an arrival in
            # lanes where its value actually changes.
            changed_bits = lane_array_to_bits(final ^ previous, lanes)
            bus_arrivals = arrivals[rows] * changed_bits
            output_arrivals[bus] = bus_arrivals
            if bus_arrivals.size:
                np.maximum(worst, bus_arrivals.max(axis=0), out=worst)
        return LaneTimedEvaluation(
            lanes=lanes,
            final_output_words=final_output_words,
            previous_output_words=previous_output_words,
            output_arrivals_ps=output_arrivals,
            worst_arrival_ps=worst,
        )


def lane_error_counters(
    evaluation,
    clock_period_ps,
    output_bus,
    msb_count,
    width,
) -> ErrorCounters:
    """Error counters of one lane-array evaluation batch.

    Shared by every backend whose evaluation keeps ``(bits, words)`` uint64
    rows (the ndarray lane backend and the batched event backend):
    ``evaluation`` only needs ``lanes``, ``final_output_words``, and
    ``captured_output_words``.
    """
    lanes = evaluation.lanes
    exact_bits = lane_array_to_bits(
        evaluation.final_output_words[output_bus][:width], lanes
    )
    captured_bits = lane_array_to_bits(
        evaluation.captured_output_words(clock_period_ps)[output_bus][:width],
        lanes,
    )
    difference = exact_bits ^ captured_bits
    # int64 weights overflow from bit 63 up; wide buses fall back to
    # exact Python-int weights on an object array (same rule as the
    # evaluation _unpack).
    if width <= 62:
        weights = np.int64(1) << np.arange(width, dtype=np.int64)
        exact_values = exact_bits.T.astype(np.int64) @ weights
        captured_values = captured_bits.T.astype(np.int64) @ weights
    else:
        weights = np.array([1 << bit for bit in range(width)], dtype=object)
        # matmul has no object-dtype kernel; dot does.
        exact_values = exact_bits.T.astype(object).dot(weights)
        captured_values = captured_bits.T.astype(object).dot(weights)
    return ErrorCounters(
        difference.sum(axis=1).astype(np.int64),
        int(difference[width - msb_count :].any(axis=0).sum()),
        int(difference.any(axis=0).sum()),
        float(np.abs(exact_values - captured_values).sum()),
    )


class LaneBackend(BatchedSimulationBackend):
    """Dense uint64 lane arrays, one level of same-type gates per ufunc."""

    name = "ndarray"
    arrival_models = BATCH_ARRIVAL_MODELS

    def timing_simulator(self, netlist, library, arrival_model):
        return LaneTimingSimulator(netlist, library, arrival_model=arrival_model)

    def _batch_counters(
        self,
        evaluation: LaneTimedEvaluation,
        clock_period_ps,
        output_bus,
        msb_count,
        width,
    ) -> ErrorCounters:
        return lane_error_counters(
            evaluation, clock_period_ps, output_bus, msb_count, width
        )
