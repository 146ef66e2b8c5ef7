"""Structural netlist representation.

A :class:`Netlist` is a purely combinational gate graph with named input and
output buses.  Buses are LSB-first lists of :class:`Net` objects, which keeps
the arithmetic generators and the bit-level error analysis consistent with
:mod:`repro.utils.bitops`.

The representation is intentionally lightweight (no hierarchy): the paper's
driving circuit is a single MAC unit of a few hundred cells, and the STA /
timed-simulation engines only need topological traversal, fanout counts and
constant handling.
"""

from __future__ import annotations

from collections import Counter, deque
from collections.abc import Sequence

from repro.circuits.gates import CELL_INPUT_COUNTS


class Net:
    """A single-bit wire: driven by one gate (or a primary input/constant)."""

    __slots__ = ("name", "driver", "sinks", "is_primary_input", "constant_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.driver: "Gate | None" = None
        self.sinks: list["Gate"] = []
        self.is_primary_input = False
        self.constant_value: int | None = None

    @property
    def is_constant(self) -> bool:
        return self.constant_value is not None

    @property
    def fanout(self) -> int:
        return len(self.sinks)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        kind = "const" if self.is_constant else ("input" if self.is_primary_input else "net")
        return f"Net({self.name!r}, {kind}, fanout={self.fanout})"


class Gate:
    """A standard-cell instance with ordered input nets and one output net."""

    __slots__ = ("name", "cell_name", "inputs", "output")

    def __init__(self, name: str, cell_name: str, inputs: Sequence[Net], output: Net) -> None:
        self.name = name
        self.cell_name = cell_name
        self.inputs = tuple(inputs)
        self.output = output

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Gate({self.name!r}, {self.cell_name})"


class Netlist:
    """A combinational netlist with named input/output buses."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.nets: dict[str, Net] = {}
        self.gates: list[Gate] = []
        self.input_buses: dict[str, list[Net]] = {}
        self.output_buses: dict[str, list[Net]] = {}
        self._gate_counter = 0
        self._net_counter = 0
        self._topo_cache: list[Gate] | None = None

    # ------------------------------------------------------------------ nets
    def _new_net(self, name: str | None = None) -> Net:
        if name is None:
            name = f"n{self._net_counter}"
            self._net_counter += 1
        if name in self.nets:
            raise ValueError(f"net {name!r} already exists in netlist {self.name!r}")
        net = Net(name)
        self.nets[name] = net
        return net

    def constant(self, value: int) -> Net:
        """Return the shared constant-0 or constant-1 net."""
        if value not in (0, 1):
            raise ValueError(f"constant value must be 0 or 1, got {value!r}")
        name = f"const{value}"
        if name not in self.nets:
            net = self._new_net(name)
            net.constant_value = value
        return self.nets[name]

    # ----------------------------------------------------------------- ports
    def add_input_bus(self, name: str, width: int) -> list[Net]:
        """Declare a primary input bus of ``width`` bits (LSB first)."""
        if width < 1:
            raise ValueError(f"bus width must be >= 1, got {width}")
        if name in self.input_buses or name in self.output_buses:
            raise ValueError(f"bus {name!r} already declared")
        nets = []
        for i in range(width):
            net = self._new_net(f"{name}[{i}]")
            net.is_primary_input = True
            nets.append(net)
        self.input_buses[name] = nets
        self._topo_cache = None
        return nets

    def add_output_bus(self, name: str, nets: Sequence[Net]) -> None:
        """Declare an output bus made of existing nets (LSB first)."""
        if name in self.output_buses or name in self.input_buses:
            raise ValueError(f"bus {name!r} already declared")
        if not nets:
            raise ValueError("an output bus needs at least one net")
        for net in nets:
            if net.name not in self.nets or self.nets[net.name] is not net:
                raise ValueError(f"net {net.name!r} does not belong to this netlist")
        self.output_buses[name] = list(nets)

    def input_width(self, name: str) -> int:
        return len(self.input_buses[name])

    def output_width(self, name: str) -> int:
        return len(self.output_buses[name])

    # ----------------------------------------------------------------- gates
    def add_gate(
        self,
        cell_name: str,
        inputs: Sequence[Net],
        output_name: str | None = None,
    ) -> Net:
        """Instantiate ``cell_name`` over ``inputs`` and return its output net."""
        expected = CELL_INPUT_COUNTS.get(cell_name)
        if expected is None:
            raise KeyError(f"unknown cell {cell_name!r}")
        if len(inputs) != expected:
            raise ValueError(
                f"cell {cell_name} expects {expected} inputs, got {len(inputs)}"
            )
        for net in inputs:
            if net.name not in self.nets or self.nets[net.name] is not net:
                raise ValueError(f"input net {net.name!r} does not belong to this netlist")
        output = self._new_net(output_name)
        gate = Gate(name=f"g{self._gate_counter}_{cell_name.lower()}", cell_name=cell_name, inputs=inputs, output=output)
        self._gate_counter += 1
        output.driver = gate
        for net in inputs:
            net.sinks.append(gate)
        self.gates.append(gate)
        self._topo_cache = None
        return output

    # ------------------------------------------------------------- traversal
    def topological_gates(self) -> list[Gate]:
        """Gates in topological order (inputs before the gates they feed)."""
        if self._topo_cache is not None:
            return self._topo_cache
        in_degree: dict[Gate, int] = {}
        dependents: dict[Gate, list[Gate]] = {gate: [] for gate in self.gates}
        for gate in self.gates:
            degree = 0
            for net in gate.inputs:
                if net.driver is not None:
                    degree += 1
                    dependents[net.driver].append(gate)
            in_degree[gate] = degree
        ready = deque(gate for gate in self.gates if in_degree[gate] == 0)
        order: list[Gate] = []
        while ready:
            gate = ready.popleft()
            order.append(gate)
            for dependent in dependents[gate]:
                in_degree[dependent] -= 1
                if in_degree[dependent] == 0:
                    ready.append(dependent)
        if len(order) != len(self.gates):
            raise ValueError(
                f"netlist {self.name!r} contains a combinational loop "
                f"({len(self.gates) - len(order)} gates unplaced)"
            )
        self._topo_cache = order
        return order

    # ------------------------------------------------------------- pickling
    def __getstate__(self) -> dict:
        """Flatten the linked Net/Gate graph into name references.

        Default pickling recurses through the ``Net.driver``/``Gate.inputs``
        links and blows the recursion limit on circuits beyond a few dozen
        gates; the flat form also keeps parallel-sweep task specs compact.
        """
        return {
            "name": self.name,
            "nets": [
                (net.name, net.is_primary_input, net.constant_value)
                for net in self.nets.values()
            ],
            "gates": [
                (
                    gate.name,
                    gate.cell_name,
                    tuple(net.name for net in gate.inputs),
                    gate.output.name,
                )
                for gate in self.gates
            ],
            "input_buses": {
                name: [net.name for net in nets] for name, nets in self.input_buses.items()
            },
            "output_buses": {
                name: [net.name for net in nets] for name, nets in self.output_buses.items()
            },
            "counters": (self._gate_counter, self._net_counter),
        }

    def __setstate__(self, state: dict) -> None:
        self.name = state["name"]
        self.nets = {}
        for name, is_primary_input, constant_value in state["nets"]:
            net = Net(name)
            net.is_primary_input = is_primary_input
            net.constant_value = constant_value
            self.nets[name] = net
        self.gates = []
        # Rebuilding gates in their original creation order restores every
        # sink list (and therefore every fanout count) exactly.
        for gate_name, cell_name, input_names, output_name in state["gates"]:
            inputs = tuple(self.nets[name] for name in input_names)
            output = self.nets[output_name]
            gate = Gate(name=gate_name, cell_name=cell_name, inputs=inputs, output=output)
            output.driver = gate
            for net in inputs:
                net.sinks.append(gate)
            self.gates.append(gate)
        self.input_buses = {
            name: [self.nets[n] for n in nets] for name, nets in state["input_buses"].items()
        }
        self.output_buses = {
            name: [self.nets[n] for n in nets] for name, nets in state["output_buses"].items()
        }
        self._gate_counter, self._net_counter = state["counters"]
        self._topo_cache = None

    # --------------------------------------------------------------- queries
    @property
    def gate_count(self) -> int:
        return len(self.gates)

    def cell_histogram(self) -> dict[str, int]:
        """Number of instances per cell type (a tiny synthesis report)."""
        return dict(Counter(gate.cell_name for gate in self.gates))

    def primary_input_nets(self) -> list[Net]:
        return [net for nets in self.input_buses.values() for net in nets]

    def primary_output_nets(self) -> list[Net]:
        return [net for nets in self.output_buses.values() for net in nets]

    def validate(self) -> None:
        """Check structural sanity; raises ``ValueError`` on any violation."""
        for name, net in self.nets.items():
            if net.is_primary_input and net.driver is not None:
                raise ValueError(f"primary input {name!r} has a driver")
            if net.is_constant and net.driver is not None:
                raise ValueError(f"constant net {name!r} has a driver")
            if not net.is_primary_input and not net.is_constant and net.driver is None:
                # Dangling nets are only acceptable if nothing reads them.
                if net.sinks or any(net in bus for bus in self.output_buses.values()):
                    raise ValueError(f"net {name!r} is read but never driven")
        for bus_name, nets in self.output_buses.items():
            for net in nets:
                if net.driver is None and not net.is_constant and not net.is_primary_input:
                    raise ValueError(
                        f"output bus {bus_name!r} contains undriven net {net.name!r}"
                    )
        # Topological sort doubles as a combinational-loop check.
        self.topological_gates()

    def stats(self) -> dict[str, object]:
        """Summary used by reports and the synthesis-style logs."""
        return {
            "name": self.name,
            "gates": self.gate_count,
            "nets": len(self.nets),
            "inputs": {name: len(nets) for name, nets in self.input_buses.items()},
            "outputs": {name: len(nets) for name, nets in self.output_buses.items()},
            "cells": self.cell_histogram(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Netlist(name={self.name!r}, gates={self.gate_count}, nets={len(self.nets)})"


def bus_values_to_bits(values: dict[str, int], buses: dict[str, list[Net]]) -> dict[Net, int]:
    """Expand bus-level integer values into per-net bit assignments."""
    assignment: dict[Net, int] = {}
    for bus_name, nets in buses.items():
        if bus_name not in values:
            raise KeyError(f"missing value for input bus {bus_name!r}")
        value = values[bus_name]
        if value < 0 or value >= (1 << len(nets)):
            raise ValueError(
                f"value {value} does not fit in {len(nets)}-bit bus {bus_name!r}"
            )
        for i, net in enumerate(nets):
            assignment[net] = (value >> i) & 1
    return assignment


def bits_to_bus_values(bit_values: dict[Net, int], buses: dict[str, list[Net]]) -> dict[str, int]:
    """Collapse per-net bit values back into bus-level integers."""
    result = {}
    for bus_name, nets in buses.items():
        value = 0
        for i, net in enumerate(nets):
            value |= (bit_values[net] & 1) << i
        result[bus_name] = value
    return result


def bus_batches_to_words(
    values: dict[str, Sequence[int]], buses: dict[str, list[Net]]
) -> tuple[dict[Net, int], int]:
    """Pack per-lane bus integers into per-net lane words.

    ``values[bus][k]`` is the integer driven onto ``bus`` in Monte-Carlo lane
    ``k``; the result maps each bus net to a word whose bit ``k`` is that
    net's value in lane ``k`` (the transpose of :func:`bus_values_to_bits`
    applied lane by lane).

    Returns:
        ``(words, lanes)`` — the per-net lane words and the common lane
        count.

    Raises:
        KeyError: if a bus has no value sequence.
        ValueError: if lane counts differ between buses, no lane is given,
            or a lane value does not fit its bus.
    """
    words: dict[Net, int] = {}
    lanes: int | None = None
    for bus_name, nets in buses.items():
        if bus_name not in values:
            raise KeyError(f"missing values for input bus {bus_name!r}")
        lane_values = list(values[bus_name])
        if lanes is None:
            lanes = len(lane_values)
            if lanes == 0:
                raise ValueError("batched evaluation needs at least one lane")
        elif len(lane_values) != lanes:
            raise ValueError(
                f"bus {bus_name!r} has {len(lane_values)} lanes, expected {lanes}"
            )
        width = len(nets)
        limit = 1 << width
        bit_words = [0] * width
        for lane, value in enumerate(lane_values):
            if value < 0 or value >= limit:
                raise ValueError(
                    f"value {value} does not fit in {width}-bit bus {bus_name!r}"
                )
            lane_bit = 1 << lane
            bit = 0
            while value:
                if value & 1:
                    bit_words[bit] |= lane_bit
                value >>= 1
                bit += 1
        for net, word in zip(nets, bit_words):
            words[net] = word
    assert lanes is not None
    return words, lanes


def words_to_bus_batches(
    words: dict[Net, int], buses: dict[str, list[Net]], lanes: int
) -> dict[str, list[int]]:
    """Collapse per-net lane words back into per-lane bus integers."""
    result: dict[str, list[int]] = {}
    for bus_name, nets in buses.items():
        values = [0] * lanes
        for bit, net in enumerate(nets):
            word = words[net]
            lane = 0
            while word:
                if word & 1:
                    values[lane] |= 1 << bit
                word >>= 1
                lane += 1
        result[bus_name] = values
    return result
