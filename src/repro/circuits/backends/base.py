"""The :class:`SimulationBackend` protocol.

A simulation backend bundles one physical representation of the
two-vector data path — how net values are stored, how gates are evaluated,
and how per-lane arrival times are propagated — behind a uniform
interface.  Three engines are registered by default:

========== ===================================================== ==============
name       net-value representation                              arrival models
========== ===================================================== ==============
scalar     one Python int per net, one vector pair per call      event, settle,
                                                                 transition
ndarray    one ``uint64[ceil(lanes / 64)]`` NumPy row per net,   settle,
           a whole level of same-type gates per ufunc call       transition
event      per net, a waveform of exact commit times with        event
           ``uint64[ceil(lanes / 64)]`` changed-lane and value
           rows, one gate at a time (glitch-exact)
========== ===================================================== ==============

The name ``bigint`` is also registered; it is the ``ndarray`` engine under a
retired name (:class:`~repro.circuits.backends.lane.BigintAliasBackend`).

Every backend must be **bit-identical** to the scalar reference for the
arrival models it supports: same captured outputs, same violation masks,
same Monte-Carlo error counters (``tests/test_backends.py`` enforces this
property-style).  Backends are stateless singletons, so a backend *name*
is all that sweep work items need to carry across process boundaries — the
worker resolves it through the registry.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Any, NamedTuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.aging.cell_library import CellLibrary
    from repro.aging.scenarios.base import AgingScenario
    from repro.circuits.mac import ArithmeticUnit
    from repro.circuits.netlist import Netlist


class ErrorCounters(NamedTuple):
    """Accumulated Monte-Carlo error counters of one vector chain.

    The tuple layout matches what the error model historically passed
    around: per-bit flip counts (LSB-first, ``int64``), the number of
    samples with at least one wrong MSB, the number of samples with any
    output mismatch, and the summed absolute error distance.
    """

    bit_flip_counts: np.ndarray
    msb_flip_count: int
    error_count: int
    total_error_distance: float

    def __add__(self, other: "ErrorCounters") -> "ErrorCounters":  # type: ignore[override]
        return ErrorCounters(
            self.bit_flip_counts + other.bit_flip_counts,
            self.msb_flip_count + other.msb_flip_count,
            self.error_count + other.error_count,
            self.total_error_distance + other.total_error_distance,
        )


class SimulationBackend(ABC):
    """One levelized word-evaluation + arrival-propagation engine."""

    #: Registry key; also what sweep work items carry.
    name: str = ""
    #: Arrival models this backend can propagate.
    arrival_models: tuple[str, ...] = ()
    #: Whether the backend packs many Monte-Carlo lanes per evaluation.
    batched: bool = False

    def supports(self, arrival_model: str) -> bool:
        return arrival_model in self.arrival_models

    @abstractmethod
    def timing_simulator(
        self,
        netlist: "Netlist",
        library: "CellLibrary | AgingScenario",
        arrival_model: str,
    ) -> Any:
        """Build the backend's two-vector timing simulator.

        ``library`` is a *delay source*: either a plain
        :class:`~repro.aging.cell_library.CellLibrary` (the legacy uniform
        contract) or an :class:`~repro.aging.scenarios.AgingScenario` that
        resolves to a per-gate delay table for the netlist.  The returned
        object is backend-specific (its lane layout differs), but every
        backend consumes the same bus-level input vectors through
        :meth:`accumulate_errors`, which is the interface the error model
        programs against.
        """

    @abstractmethod
    def accumulate_errors(
        self,
        unit: "ArithmeticUnit",
        simulator: Any,
        vectors: list[dict[str, int]],
        clock_period_ps: float,
        output_bus: str,
        msb_count: int,
        width: int,
        batch_size: int,
    ) -> ErrorCounters:
        """Run the Monte-Carlo transition chain and accumulate error counters.

        Simulates the transitions ``vectors[i] -> vectors[i + 1]`` for every
        ``i`` (so ``len(vectors) - 1`` samples), captures outputs at
        ``clock_period_ps``, and counts mismatches against the settled
        values over the low ``width`` bits of ``output_bus``.  All backends
        return identical counters for identical vectors.
        """


class BatchedSimulationBackend(SimulationBackend):
    """Template for lane-packed backends: one chunking loop.

    The transition-chain chunking (pack up to ``batch_size`` consecutive
    ``vectors[i] -> vectors[i + 1]`` pairs per ``propagate_batch`` call) is
    identical for every batched backend; subclasses implement just
    :meth:`_batch_counters`.
    """

    batched = True

    def accumulate_errors(
        self,
        unit: "ArithmeticUnit",
        simulator: Any,
        vectors: list[dict[str, int]],
        clock_period_ps: float,
        output_bus: str,
        msb_count: int,
        width: int,
        batch_size: int,
    ) -> ErrorCounters:
        num_samples = len(vectors) - 1
        total = ErrorCounters(np.zeros(width, dtype=np.int64), 0, 0, 0.0)
        bus_names = list(unit.netlist.input_buses)
        for start in range(0, num_samples, batch_size):
            stop = min(start + batch_size, num_samples)
            previous = {
                bus: [vectors[i][bus] for i in range(start, stop)] for bus in bus_names
            }
            current = {
                bus: [vectors[i + 1][bus] for i in range(start, stop)] for bus in bus_names
            }
            evaluation = simulator.propagate_batch(previous, current)
            total = total + self._batch_counters(
                evaluation, clock_period_ps, output_bus, msb_count, width
            )
        return total

    @abstractmethod
    def _batch_counters(
        self,
        evaluation: Any,
        clock_period_ps: float,
        output_bus: str,
        msb_count: int,
        width: int,
    ) -> ErrorCounters:
        """Extract the error counters of one propagated batch."""
