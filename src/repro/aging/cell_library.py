"""Aging-aware standard-cell libraries.

The paper characterises every standard cell of an open-source FinFET library
at each examined ΔVth level (SiliconSmart + SPICE) and hands the resulting
"aging-aware libraries" to Synopsys PrimeTime.  This module provides the
equivalent data structure for the Python flow:

* :class:`CellSpec` — timing/power data of one combinational cell,
* :class:`CellLibrary` — a named collection of cells, optionally degraded to
  a specific ΔVth level through an :class:`~repro.aging.delay_model.AlphaPowerDelayModel`,
* :class:`AgingAwareLibrarySet` — one library per examined aging level,
  which is exactly what the STA engine and Algorithm 1 consume.

Absolute delay/energy values are loosely representative of a 14nm-class
technology.  All paper results are normalized, so only the *ratios* between
cells and between aging levels matter.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable, Mapping

import numpy as np

from repro.aging.delay_model import _LIBM_POW, AlphaPowerDelayModel


@dataclass(frozen=True)
class CellSpec:
    """Characterisation data of a single combinational standard cell.

    Attributes:
        name: cell name; must match a boolean function registered in
            :mod:`repro.circuits.gates`.
        num_inputs: number of input pins.
        intrinsic_delay_ps: fresh input-to-output delay at minimum load.
        load_delay_ps: additional delay per unit of fanout.
        input_capacitance_ff: capacitance presented by each input pin.
        switching_energy_fj: internal + load energy per output transition.
        leakage_power_nw: static leakage power.
    """

    name: str
    num_inputs: int
    intrinsic_delay_ps: float
    load_delay_ps: float
    input_capacitance_ff: float
    switching_energy_fj: float
    leakage_power_nw: float

    def __post_init__(self) -> None:
        if self.num_inputs < 1:
            raise ValueError(f"cell {self.name}: num_inputs must be >= 1")
        for field_name in (
            "intrinsic_delay_ps",
            "load_delay_ps",
            "input_capacitance_ff",
            "switching_energy_fj",
            "leakage_power_nw",
        ):
            if getattr(self, field_name) < 0:
                raise ValueError(f"cell {self.name}: {field_name} must be non-negative")


#: Fresh characterisation of the cells used by the circuit generators.
#: (name, inputs, intrinsic ps, load ps/fanout, input cap fF, energy fJ, leakage nW)
_DEFAULT_CELL_DATA: tuple[tuple[str, int, float, float, float, float, float], ...] = (
    ("INV", 1, 5.0, 1.0, 0.9, 0.35, 1.6),
    ("BUF", 1, 8.0, 0.9, 0.9, 0.50, 2.1),
    ("NAND2", 2, 9.0, 1.2, 1.1, 0.55, 2.4),
    ("NOR2", 2, 10.0, 1.3, 1.1, 0.60, 2.4),
    ("AND2", 2, 12.0, 1.2, 1.1, 0.70, 2.9),
    ("OR2", 2, 13.0, 1.3, 1.1, 0.75, 2.9),
    ("XOR2", 2, 18.0, 1.6, 1.5, 1.10, 3.8),
    ("XNOR2", 2, 18.0, 1.6, 1.5, 1.10, 3.8),
    ("MUX2", 3, 16.0, 1.4, 1.3, 0.95, 3.4),
    ("AOI21", 3, 14.0, 1.4, 1.2, 0.80, 3.1),
    ("OAI21", 3, 14.0, 1.4, 1.2, 0.80, 3.1),
)

#: Leakage reduces as the threshold voltage rises; this subthreshold-slope
#: style factor (mV per decade) controls how fast.
_LEAKAGE_SLOPE_MV_PER_DECADE = 90.0


def leakage_derating_factor(delta_vth_mv: float) -> float:
    """Static-leakage multiplier at a ΔVth shift (≤ 1; exactly 1 when fresh).

    The single definition of the subthreshold derating — uniformly-aged
    libraries scale their whole-library leakage through it, and the
    scenario-aware energy model applies it gate by gate to per-gate ΔVth
    draws, so the two paths can never diverge.
    """
    return 10.0 ** (-delta_vth_mv / _LEAKAGE_SLOPE_MV_PER_DECADE)


def leakage_derating_factors(delta_vth_mv: np.ndarray) -> np.ndarray:
    """Vectorised :func:`leakage_derating_factor` over an array of ΔVth (mV).

    Bit-identical to the scalar function per element (libm ``pow`` through
    :data:`~repro.aging.delay_model._LIBM_POW`, exact negate/divide), so the
    batched energy path and the per-gate Python loop can never diverge.
    """
    deltas = np.asarray(delta_vth_mv, dtype=float)
    return _LIBM_POW(10.0, -deltas / _LEAKAGE_SLOPE_MV_PER_DECADE).astype(float)


class CellLibrary:
    """A standard-cell library, optionally degraded to a given ΔVth level."""

    def __init__(
        self,
        name: str,
        cells: Mapping[str, CellSpec],
        delta_vth_mv: float = 0.0,
        delay_model: AlphaPowerDelayModel | None = None,
    ) -> None:
        if not cells:
            raise ValueError("a cell library needs at least one cell")
        if delta_vth_mv < 0:
            raise ValueError("delta_vth_mv must be non-negative")
        self.name = name
        self._cells = dict(cells)
        self.delta_vth_mv = float(delta_vth_mv)
        self.delay_model = delay_model or AlphaPowerDelayModel()
        self._delay_scale = self.delay_model.degradation_factor(self.delta_vth_mv)
        self._leakage_scale = leakage_derating_factor(self.delta_vth_mv)
        # Memoised (cell, fanout) -> delay lookups: every simulator and STA
        # engine built against this library asks for the same few hundred
        # combinations, and Monte-Carlo sweeps rebuild those engines per
        # ΔVth level.
        self._delay_cache: dict[tuple[str, int], float] = {}

    # ------------------------------------------------------------------ cells
    def cell(self, name: str) -> CellSpec:
        """Look up a cell by name, raising ``KeyError`` with context."""
        try:
            return self._cells[name]
        except KeyError:
            raise KeyError(
                f"cell {name!r} not in library {self.name!r}; "
                f"available: {sorted(self._cells)}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._cells

    def cell_names(self) -> tuple[str, ...]:
        return tuple(sorted(self._cells))

    # ----------------------------------------------------------------- timing
    @property
    def delay_degradation_factor(self) -> float:
        """Delay multiplier relative to the fresh library (≥ 1)."""
        return self._delay_scale

    @property
    def is_fresh(self) -> bool:
        return self.delta_vth_mv == 0.0

    def delay_ps(self, cell_name: str, fanout: int = 1) -> float:
        """Aged propagation delay of ``cell_name`` driving ``fanout`` loads."""
        if fanout < 0:
            raise ValueError("fanout must be non-negative")
        key = (cell_name, fanout)
        cached = self._delay_cache.get(key)
        if cached is not None:
            return cached
        spec = self.cell(cell_name)
        fresh = spec.intrinsic_delay_ps + spec.load_delay_ps * max(fanout, 1)
        delay = fresh * self._delay_scale
        self._delay_cache[key] = delay
        return delay

    # ------------------------------------------------------------------ power
    def switching_energy_fj(self, cell_name: str) -> float:
        """Energy consumed per output transition of ``cell_name``."""
        return self.cell(cell_name).switching_energy_fj

    def leakage_power_nw(self, cell_name: str) -> float:
        """Aged static leakage of ``cell_name`` (decreases as Vth rises)."""
        return self.cell(cell_name).leakage_power_nw * self._leakage_scale

    # ------------------------------------------------------------------ aging
    def aged(self, delta_vth_mv: float) -> "CellLibrary":
        """Return a copy of this library degraded to ``delta_vth_mv``."""
        return CellLibrary(
            name=f"{self.name}@{delta_vth_mv:g}mV",
            cells=self._cells,
            delta_vth_mv=delta_vth_mv,
            delay_model=self.delay_model,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"CellLibrary(name={self.name!r}, cells={len(self._cells)}, "
            f"delta_vth_mv={self.delta_vth_mv})"
        )


def fresh_library(
    name: str = "finfet14",
    delay_model: AlphaPowerDelayModel | None = None,
) -> CellLibrary:
    """Build the default fresh (un-aged) 14nm-class cell library."""
    cells = {
        data[0]: CellSpec(
            name=data[0],
            num_inputs=data[1],
            intrinsic_delay_ps=data[2],
            load_delay_ps=data[3],
            input_capacitance_ff=data[4],
            switching_energy_fj=data[5],
            leakage_power_nw=data[6],
        )
        for data in _DEFAULT_CELL_DATA
    }
    return CellLibrary(name=name, cells=cells, delta_vth_mv=0.0, delay_model=delay_model)


class AgingAwareLibrarySet:
    """A family of cell libraries, one per examined ΔVth level.

    This mirrors the paper's "aging-aware libraries" box in Fig. 3: the same
    cells are re-characterised at every aging level, and the STA engine picks
    the library matching the aging period under analysis.
    """

    def __init__(self, base_library: CellLibrary, levels_mv: Iterable[float]) -> None:
        levels = sorted({float(level) for level in levels_mv})
        if not levels:
            raise ValueError("levels_mv must not be empty")
        if levels[0] < 0:
            raise ValueError("aging levels must be non-negative")
        if not base_library.is_fresh:
            raise ValueError("base_library must be the fresh (0 mV) library")
        self._base = base_library
        self._libraries = {level: base_library.aged(level) if level > 0 else base_library for level in levels}

    @classmethod
    def generate(
        cls,
        levels_mv: Iterable[float] = (0.0, 10.0, 20.0, 30.0, 40.0, 50.0),
        delay_model: AlphaPowerDelayModel | None = None,
    ) -> "AgingAwareLibrarySet":
        """Generate a library set for ``levels_mv`` from the default cells."""
        return cls(fresh_library(delay_model=delay_model), levels_mv)

    @property
    def levels_mv(self) -> tuple[float, ...]:
        return tuple(sorted(self._libraries))

    @property
    def fresh(self) -> CellLibrary:
        return self._base

    def library(self, delta_vth_mv: float) -> CellLibrary:
        """Library characterised at ``delta_vth_mv`` (created on demand)."""
        if delta_vth_mv < 0:
            raise ValueError("delta_vth_mv must be non-negative")
        key = float(delta_vth_mv)
        if key not in self._libraries:
            # Characterise a new corner lazily; keep it for later calls.
            self._libraries[key] = self._base.aged(key)
        return self._libraries[key]

    def degradation_factor(self, delta_vth_mv: float) -> float:
        """Convenience accessor for the delay degradation at a level."""
        return self.library(delta_vth_mv).delay_degradation_factor

    # -------------------------------------------------------------- scenarios
    def scenario(self, delta_vth_mv: float):
        """The :class:`~repro.aging.scenarios.UniformAging` view of one level.

        Bound to this set's fresh library, so the scenario resolves the
        bit-identical per-gate delay table :meth:`library` would yield.
        """
        from repro.aging.scenarios.uniform import UniformAging

        return UniformAging(float(delta_vth_mv), library=self._base)

    def __iter__(self):
        return iter(sorted(self._libraries.items()))

    def __len__(self) -> int:
        return len(self._libraries)


def end_of_life_guardband_fraction(
    library_set: AgingAwareLibrarySet,
    end_of_life_mv: float = 50.0,
) -> float:
    """Cell-level guardband fraction needed to survive until ``end_of_life_mv``.

    This is the naive (cell-delay) view; the circuit-level guardband computed
    by :mod:`repro.core.guardband` via STA matches it because the worst-case
    analysis degrades every cell by the same factor.
    """
    factor = library_set.degradation_factor(end_of_life_mv)
    return factor - 1.0
