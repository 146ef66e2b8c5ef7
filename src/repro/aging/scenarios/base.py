"""The :class:`AgingScenario` contract and the per-gate delay funnel.

An aging scenario answers one question for the timing substrate: *given a
netlist, how slow is each gate?*  The uniform-ΔVth contract the paper uses
(one scalar shift applied to the whole library) is just the simplest answer;
mission profiles (years × temperature × duty cycle through the BTI
kinetics), heterogeneous per-cell-type stress and seeded per-gate variation
are all expressible once consumers stop asking a :class:`~repro.aging.
cell_library.CellLibrary` for ``delay_ps(cell, fanout)`` and instead consume
a scenario-resolved **per-gate delay table**.

Contract
--------

* :meth:`AgingScenario.gate_delays_ps` resolves the scenario against a
  netlist (and a fresh base library) into ``{gate: delay_ps}``.  Resolution
  must be a pure function of the scenario's fields and the netlist
  *structure* — deterministic by topological gate index, independent of
  process boundaries, worker counts or evaluation order, so a scenario can
  be pickled into sweep workers and resolve bit-identically everywhere.
* :meth:`AgingScenario.key_fields` returns the stable, JSON-serialisable
  fields that identify the scenario for experiment metadata and the
  pipeline artifact cache (:meth:`cache_token` is their canonical string).
* :attr:`AgingScenario.nominal_delta_vth_mv` is the headline ΔVth the
  scenario corresponds to — what sweep statistics report as their level.

Every timing consumer (:class:`~repro.timing.sta.StaticTimingAnalyzer`, the
event-driven simulator, and all registered simulation backends) accepts
either a plain :class:`CellLibrary` (the legacy uniform contract, kept
bit-identical) or an :class:`AgingScenario`; :func:`resolve_gate_delays` is
the single funnel that turns either into the per-gate table.
"""

from __future__ import annotations

import dataclasses
import json
from abc import ABC, abstractmethod
from functools import lru_cache
from typing import TYPE_CHECKING, ClassVar

import numpy as np

from repro.aging.cell_library import CellLibrary, fresh_library

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.circuits.netlist import Gate, Netlist


def normalize_level_mv(value: float) -> float:
    """Canonical float for a ΔVth level: ints coerce and ``-0.0`` becomes ``0.0``.

    Cache keys derived from scenario fields must not alias (``-0.0`` hashes
    and compares equal to ``0.0`` but ``repr``s and JSON-serialises
    differently), so every scenario family funnels its level fields through
    this before storing them.
    """
    return float(value) + 0.0


@lru_cache(maxsize=1)
def default_fresh_library() -> CellLibrary:
    """The shared default fresh library scenarios resolve against.

    Built once per process; the characterisation is a pure function of the
    default cell data, so every process resolves identical delays.
    """
    return fresh_library()


class AgingScenario(ABC):
    """Per-gate aging contract: resolve to a delay table for a netlist."""

    #: Registry-style identifier of the scenario family (``"uniform"``,
    #: ``"mission"``, ``"per_cell_type"``, ``"variation"``).
    kind: ClassVar[str] = ""

    @abstractmethod
    def gate_delays_ps(
        self, netlist: "Netlist", library: CellLibrary | None = None
    ) -> "dict[Gate, float]":
        """Resolve the scenario into a per-gate delay table for ``netlist``.

        Args:
            netlist: the circuit whose gates are degraded.
            library: fresh characterisation to resolve against; defaults to
                the scenario's bound library or :func:`default_fresh_library`.
        """

    @abstractmethod
    def gate_delta_vth_mv(
        self, netlist: "Netlist", library: CellLibrary | None = None
    ) -> "np.ndarray":
        """Per-gate ΔVth draws (mV), aligned with ``netlist.topological_gates()``.

        The scenario's stress expressed as threshold shifts rather than
        delays — what the leakage model of :mod:`repro.power.energy` and the
        array-level lifetime maps consume.  Resolution obeys the same purity
        contract as :meth:`gate_delays_ps`: a function of (fields, netlist
        structure) only.
        """

    @abstractmethod
    def key_fields(self) -> dict[str, object]:
        """Stable, JSON-serialisable fields identifying this scenario.

        These participate in experiment metadata and pipeline cache keys, so
        two scenarios with equal key fields must resolve to identical delay
        tables for every netlist.
        """

    @property
    @abstractmethod
    def nominal_delta_vth_mv(self) -> float:
        """The headline ΔVth (mV) sweep statistics report for this scenario."""

    # ------------------------------------------------------------- utilities
    def cache_token(self) -> str:
        """Canonical string of :meth:`key_fields` for cache keys and reprs."""
        return json.dumps(self.key_fields(), sort_keys=True)

    def label(self) -> str:
        """Short human-readable description (tables, CLI output)."""
        return f"{self.kind}@{self.nominal_delta_vth_mv:g}mV"

    def base_library(self, library: CellLibrary | None = None) -> CellLibrary:
        """The fresh library to resolve against (argument > bound > default)."""
        if library is not None:
            return library
        bound = getattr(self, "library", None)
        if bound is not None:
            return bound
        return default_fresh_library()

    def bound_to(self, library: CellLibrary) -> "AgingScenario":
        """A copy bound to ``library`` (no-op if already bound).

        Concrete scenarios are frozen dataclasses with an optional
        ``library`` field, so binding is a :func:`dataclasses.replace`.
        """
        if getattr(self, "library", None) is not None:
            return self
        return dataclasses.replace(self, library=library)  # type: ignore[call-arg]


def as_scenario(
    source: "float | AgingScenario",
    library: CellLibrary | None = None,
) -> AgingScenario:
    """Normalise a ΔVth float (the legacy contract) or scenario to a scenario.

    Floats (and ints, and NumPy scalars) become :class:`UniformAging` at the
    canonical level — so ``0``, ``0.0`` and ``-0.0`` all map to the same
    scenario and the same cache token.  Scenarios pass through, bound to
    ``library`` when one is given and the scenario is not already bound.
    """
    if isinstance(source, AgingScenario):
        return source if library is None else source.bound_to(library)
    from repro.aging.scenarios.uniform import UniformAging

    return UniformAging(normalize_level_mv(source), library=library)


def resolve_gate_delays(
    netlist: "Netlist",
    source: "CellLibrary | AgingScenario",
    library: CellLibrary | None = None,
) -> "dict[Gate, float]":
    """Per-gate delay table of a delay source for ``netlist``.

    The single funnel every timing engine builds its delays through:

    * a :class:`CellLibrary` (the legacy uniform contract) maps each gate to
      ``source.delay_ps(cell, fanout)`` — exactly the table the engines used
      to build inline, so existing behaviour is bit-identical;
    * an :class:`AgingScenario` resolves against ``library`` (or its bound /
      the default fresh library).
    """
    if isinstance(source, AgingScenario):
        return source.gate_delays_ps(netlist, library)
    if not isinstance(source, CellLibrary):
        raise TypeError(
            f"expected a CellLibrary or AgingScenario delay source, got {type(source).__name__}"
        )
    return {
        gate: source.delay_ps(gate.cell_name, fanout=gate.output.fanout)
        for gate in netlist.topological_gates()
    }


def gate_delay_columns(
    netlist: "Netlist",
    library: CellLibrary,
    delta_vth_mv: "np.ndarray",
) -> "np.ndarray":
    """Vectorised per-gate delay table(s) from per-gate ΔVth draws.

    ``delta_vth_mv`` is ``(gates,)`` or ``(gates, scenarios)``, rows aligned
    with ``netlist.topological_gates()``; the result has the same shape and
    holds aged delays in ps.  Every scenario family resolves a gate's delay
    as ``fresh_delay(cell, fanout) * degradation_factor(ΔVth)``, so one fresh
    delay vector times a libm-pow factor table reproduces the scalar
    :func:`resolve_gate_delays` chain bit for bit — that is what lets per-PE
    scenarios ride :func:`~repro.circuits.backends.lane.corner_case_delays`
    as corner columns.
    """
    deltas = np.asarray(delta_vth_mv, dtype=float)
    order = netlist.topological_gates()
    if deltas.ndim not in (1, 2) or deltas.shape[0] != len(order):
        raise ValueError(
            f"delta_vth_mv must be (gates,) or (gates, scenarios) with "
            f"gates={len(order)}, got shape {deltas.shape}"
        )
    fresh = library if library.is_fresh else library.aged(0.0)
    fresh_delays = np.array(
        [fresh.delay_ps(gate.cell_name, fanout=gate.output.fanout) for gate in order]
    )
    factors = fresh.delay_model.degradation_factors(deltas)
    if deltas.ndim == 2:
        return fresh_delays[:, None] * factors
    return fresh_delays * factors


def resolve_gate_delay_columns(
    netlist: "Netlist",
    scenarios: "tuple[AgingScenario, ...] | list[AgingScenario]",
    library: CellLibrary | None = None,
) -> "np.ndarray":
    """Stack scenarios into a ``(gates, scenarios)`` delay matrix.

    Each column is bit-identical to the per-gate table the corresponding
    scenario's :meth:`AgingScenario.gate_delays_ps` resolves (in topological
    gate order).  All scenarios resolve against one shared fresh base —
    ``library`` when given, else the first scenario's base.
    """
    entries = [as_scenario(scenario, library) for scenario in scenarios]
    if not entries:
        raise ValueError("resolve_gate_delay_columns needs at least one scenario")
    base = entries[0].base_library(library)
    deltas = np.stack(
        [scenario.gate_delta_vth_mv(netlist, base) for scenario in entries], axis=1
    )
    return gate_delay_columns(netlist, base, deltas)


def nominal_delta_vth_mv(source: "CellLibrary | AgingScenario") -> float:
    """Headline ΔVth of a delay source (library level or scenario nominal)."""
    if isinstance(source, AgingScenario):
        return source.nominal_delta_vth_mv
    return source.delta_vth_mv
