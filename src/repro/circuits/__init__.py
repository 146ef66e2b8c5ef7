"""Gate-level circuit substrate.

The paper's driving circuit is a MAC unit (8-bit multiplier + 22-bit
accumulator adder) synthesised from the Synopsys DesignWare library.  This
package provides the equivalent structural view in pure Python:

* :mod:`repro.circuits.gates` — boolean semantics of every standard cell,
* :mod:`repro.circuits.netlist` — nets, gates and the netlist graph,
* :mod:`repro.circuits.adders` / :mod:`repro.circuits.multipliers` —
  parametric arithmetic generators (ripple-carry / carry-select adders,
  array / Wallace-tree multipliers),
* :mod:`repro.circuits.mac` — the MAC unit builder used as the paper's
  driving circuit,
* :mod:`repro.circuits.simulator` — zero-delay functional simulation and the
  scalar (one vector at a time) two-vector timed simulation used for
  aged-circuit error characterisation, the reference of every batched engine,
* :mod:`repro.circuits.backends` — the pluggable backend registry putting
  the scalar engine, the NumPy ``uint64``-lane levelized engine and the
  batched event engine behind one
  :class:`~repro.circuits.backends.SimulationBackend` interface.
"""

from repro.circuits.gates import (
    CELL_FUNCTIONS,
    WORD_CELL_FUNCTIONS,
    evaluate_cell,
)
from repro.circuits.netlist import Gate, Net, Netlist
from repro.circuits.adders import (
    carry_select_adder,
    full_adder,
    half_adder,
    ripple_carry_adder,
)
from repro.circuits.multipliers import array_multiplier, wallace_tree_multiplier
from repro.circuits.mac import ArithmeticUnit, build_mac, build_multiplier, build_adder
from repro.circuits.simulator import (
    LogicSimulator,
    TimedEvaluation,
    TimingSimulator,
)
from repro.circuits.backends import (
    SimulationBackend,
    backend_names,
    get_backend,
    resolve_backend,
)

__all__ = [
    "SimulationBackend",
    "backend_names",
    "get_backend",
    "resolve_backend",
    "CELL_FUNCTIONS",
    "WORD_CELL_FUNCTIONS",
    "evaluate_cell",
    "Gate",
    "Net",
    "Netlist",
    "half_adder",
    "full_adder",
    "ripple_carry_adder",
    "carry_select_adder",
    "array_multiplier",
    "wallace_tree_multiplier",
    "ArithmeticUnit",
    "build_mac",
    "build_multiplier",
    "build_adder",
    "LogicSimulator",
    "TimingSimulator",
    "TimedEvaluation",
]
