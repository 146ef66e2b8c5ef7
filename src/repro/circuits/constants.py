"""Structural constant propagation over a netlist.

Arithmetic generators zero-extend narrower operands with the shared
constant-0 net, and the paper's input-compression case analysis ties padded
operand bits to 0.  Both the STA engine and the timed simulator need to know
which internal nets are thereby forced to a constant value: such nets never
transition, never contribute to arrival times and are excluded from the
sensitisable critical path (PrimeTime ``set_case_analysis`` semantics).

:func:`propagate_constants` is the scalar reference used by the scalar
engines; the corner-batched STA pass resolves the same sets for many corners
at once on the levelized schedule
(:meth:`repro.circuits.backends.LevelizedGraph.constant_mask`).
"""

from __future__ import annotations

from itertools import product as iter_product
from collections.abc import Mapping

from repro.circuits.gates import CELL_FUNCTIONS
from repro.circuits.netlist import Gate, Net, Netlist


def case_assignments(
    netlist: Netlist, case_analysis: Mapping[str, int] | None
) -> dict[Net, int]:
    """Validate a case-analysis mapping (net name -> 0/1) and resolve its nets.

    The one boundary check shared by the scalar STA path and the
    corner-batched pass: values must be 0/1 (``ValueError``) and every name
    must exist in ``netlist`` (``KeyError``).  ``None`` means no assignment.
    """
    assignments: dict[Net, int] = {}
    for net_name, value in (case_analysis or {}).items():
        if value not in (0, 1):
            raise ValueError(f"case-analysis value for {net_name!r} must be 0/1")
        net = netlist.nets.get(net_name)
        if net is None:
            raise KeyError(f"case-analysis net {net_name!r} not found in netlist")
        assignments[net] = value
    return assignments


def constant_gate_output(gate: Gate, constants: Mapping[Net, int]) -> int | None:
    """Return the output value of ``gate`` if it is forced by ``constants``.

    The check enumerates the free inputs (at most 3 for the supported cells),
    so a gate is recognised as constant both when all inputs are known and
    when a controlling value (e.g. a 0 on an AND input) decides the output.
    """
    func = CELL_FUNCTIONS[gate.cell_name]
    unknown_positions = [i for i, net in enumerate(gate.inputs) if net not in constants]
    if not unknown_positions:
        return func(*(constants[net] for net in gate.inputs))
    base = [constants.get(net, 0) for net in gate.inputs]
    seen: set[int] = set()
    for combo in iter_product((0, 1), repeat=len(unknown_positions)):
        for position, value in zip(unknown_positions, combo):
            base[position] = value
        seen.add(func(*base))
        if len(seen) > 1:
            return None
    return seen.pop()


def propagate_constants(
    netlist: Netlist,
    assignments: Mapping[Net, int] | None = None,
) -> dict[Net, int]:
    """Propagate constants (declared + ``assignments``) through ``netlist``.

    Args:
        netlist: the circuit to analyse.
        assignments: additional nets tied to fixed values, e.g. the
            zero-padded operand bits of a compressed MAC.

    Returns:
        A mapping of every net that is forced to a constant value, including
        the declared constant nets themselves.
    """
    constants: dict[Net, int] = {}
    for net in netlist.nets.values():
        if net.is_constant:
            constants[net] = net.constant_value
    if assignments:
        for net, value in assignments.items():
            if value not in (0, 1):
                raise ValueError(f"constant assignment for {net.name!r} must be 0/1")
            constants[net] = value
    for gate in netlist.topological_gates():
        resolved = constant_gate_output(gate, constants)
        if resolved is not None:
            constants[gate.output] = resolved
    return constants
