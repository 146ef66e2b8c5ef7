"""Heterogeneous aging scenarios: per-cell-type stress and per-gate variation.

Real workloads do not stress every transistor equally: the partial-product
XOR trees of a MAC toggle far more than its buffers, and process variation
spreads the BTI response gate to gate.  The uniform library contract cannot
express either; these scenarios can, because the timing engines consume a
per-gate delay table.

:class:`PerCellTypeAging` assigns one ΔVth per cell family (with a default
for unlisted cells).  :class:`VariationAging` draws a seeded Gaussian ΔVth
per gate, **deterministic by topological gate index**: resolution performs
one vectorised draw over the topologically ordered gate list, so the same
scenario resolves bit-identically after pickling into any sweep worker, for
any worker count (property-tested).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Mapping
from typing import TYPE_CHECKING

import numpy as np

from repro.aging.cell_library import CellLibrary
from repro.aging.scenarios.base import AgingScenario, normalize_level_mv

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.circuits.netlist import Gate, Netlist

#: Fixed salt decorrelating variation draws from the Monte-Carlo sweep
#: streams (which spawn from the bare user seed).
_VARIATION_STREAM_TAG = 0x5CE9A110

#: Fraction of the delay model's available overdrive the per-gate ΔVth draw
#: is clipped to, so Gaussian tails can never push a gate past cutoff.
_OVERDRIVE_CLIP_FRACTION = 0.9


@dataclass(frozen=True)
class PerCellTypeAging(AgingScenario):
    """Heterogeneous ΔVth per cell family.

    Attributes:
        levels_mv: mapping from cell name to its ΔVth (mV); accepted as any
            mapping and normalised to a sorted tuple of pairs so the
            scenario stays hashable and its cache key stable.
        default_mv: ΔVth applied to cells not listed in ``levels_mv``.
        library: optional bound fresh library; excluded from keys.
    """

    kind = "per_cell_type"

    levels_mv: tuple[tuple[str, float], ...] = ()
    default_mv: float = 0.0
    library: CellLibrary | None = field(
        default=None, compare=False, repr=False, hash=False
    )

    def __post_init__(self) -> None:
        entries = self.levels_mv
        if isinstance(entries, Mapping):
            entries = tuple(entries.items())
        normalized = tuple(
            sorted((str(cell), normalize_level_mv(level)) for cell, level in entries)
        )
        object.__setattr__(self, "levels_mv", normalized)
        if self.default_mv < 0:
            raise ValueError("default_mv must be non-negative")
        object.__setattr__(self, "default_mv", normalize_level_mv(self.default_mv))
        seen = set()
        for cell, level in normalized:
            if level < 0:
                raise ValueError(f"ΔVth for cell {cell!r} must be non-negative")
            if cell in seen:
                raise ValueError(f"duplicate cell {cell!r} in levels_mv")
            seen.add(cell)

    def level_for(self, cell_name: str) -> float:
        """ΔVth (mV) applied to one cell family."""
        for cell, level in self.levels_mv:
            if cell == cell_name:
                return level
        return float(self.default_mv)

    def gate_delays_ps(
        self, netlist: "Netlist", library: CellLibrary | None = None
    ) -> "dict[Gate, float]":
        base = self.base_library(library)
        levels = dict(self.levels_mv)
        # One aged library per distinct level: the memoised delay tables are
        # shared by every gate of the same stress class.
        aged: dict[float, CellLibrary] = {}

        def library_at(level: float) -> CellLibrary:
            if level not in aged:
                aged[level] = base if base.delta_vth_mv == level else base.aged(level)
            return aged[level]

        return {
            gate: library_at(levels.get(gate.cell_name, float(self.default_mv))).delay_ps(
                gate.cell_name, fanout=gate.output.fanout
            )
            for gate in netlist.topological_gates()
        }

    def gate_delta_vth_mv(
        self, netlist: "Netlist", library: CellLibrary | None = None
    ) -> np.ndarray:
        levels = dict(self.levels_mv)
        return np.array(
            [
                levels.get(gate.cell_name, self.default_mv)
                for gate in netlist.topological_gates()
            ]
        )

    def key_fields(self) -> dict[str, object]:
        return {
            "kind": self.kind,
            "levels_mv": [[cell, level] for cell, level in self.levels_mv],
            "default_mv": float(self.default_mv),
        }

    @property
    def nominal_delta_vth_mv(self) -> float:
        """The worst stress across all families (the binding timing corner)."""
        levels = [level for _, level in self.levels_mv]
        return float(max([self.default_mv, *levels]))

    def label(self) -> str:
        listed = ",".join(f"{cell}:{level:g}" for cell, level in self.levels_mv)
        return f"per-cell[{listed or '-'};default={self.default_mv:g}mV]"


@dataclass(frozen=True)
class VariationAging(AgingScenario):
    """Seeded per-gate ΔVth jitter around a nominal shift.

    Each gate receives ``nominal_mv + sigma_mv * N(0, 1)`` millivolts,
    clipped to ``[0, 0.9 × overdrive]`` so the alpha-power delay model stays
    defined.  The Gaussian draw is a single vectorised sample over the
    topologically ordered gate list seeded only by ``seed``, so resolution
    is a pure function of (fields, netlist structure): it pickles into sweep
    workers and resolves bit-identically for any worker count or scheduling
    order.

    Attributes:
        nominal_mv: mean ΔVth (mV) of the per-gate distribution.
        sigma_mv: standard deviation (mV); 0 reproduces ``UniformAging``.
        seed: variation stream seed (non-negative).
        library: optional bound fresh library; excluded from keys.
    """

    kind = "variation"

    nominal_mv: float = 0.0
    sigma_mv: float = 5.0
    seed: int = 0
    library: CellLibrary | None = field(
        default=None, compare=False, repr=False, hash=False
    )

    def __post_init__(self) -> None:
        if self.nominal_mv < 0:
            raise ValueError("nominal_mv must be non-negative")
        if self.sigma_mv < 0:
            raise ValueError("sigma_mv must be non-negative")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        object.__setattr__(self, "nominal_mv", normalize_level_mv(self.nominal_mv))
        object.__setattr__(self, "sigma_mv", normalize_level_mv(self.sigma_mv))
        object.__setattr__(self, "seed", int(self.seed))

    def gate_delta_vth_mv(
        self, netlist: "Netlist", library: CellLibrary | None = None
    ) -> np.ndarray:
        """Per-gate ΔVth draws, aligned with ``netlist.topological_gates()``."""
        base = self.base_library(library)
        num_gates = len(netlist.topological_gates())
        rng = np.random.default_rng(
            np.random.SeedSequence([_VARIATION_STREAM_TAG, int(self.seed)])
        )
        draws = self.nominal_mv + self.sigma_mv * rng.standard_normal(num_gates)
        upper = _OVERDRIVE_CLIP_FRACTION * base.delay_model.max_delta_vth_mv()
        return np.clip(draws, 0.0, upper)

    def gate_delays_ps(
        self, netlist: "Netlist", library: CellLibrary | None = None
    ) -> "dict[Gate, float]":
        base = self.base_library(library)
        # The per-gate ΔVth draws are *absolute* shifts, like every other
        # family's levels: scale the fresh characterisation, never an
        # already-degraded one (an aged base would compound its factor
        # under the draw's).
        fresh = base if base.is_fresh else base.aged(0.0)
        model = fresh.delay_model
        deltas = self.gate_delta_vth_mv(netlist, fresh)
        return {
            gate: fresh.delay_ps(gate.cell_name, fanout=gate.output.fanout)
            * model.degradation_factor(float(delta))
            for gate, delta in zip(netlist.topological_gates(), deltas)
        }

    def key_fields(self) -> dict[str, object]:
        return {
            "kind": self.kind,
            "nominal_mv": float(self.nominal_mv),
            "sigma_mv": float(self.sigma_mv),
            "seed": int(self.seed),
        }

    @property
    def nominal_delta_vth_mv(self) -> float:
        return float(self.nominal_mv)

    def label(self) -> str:
        return f"variation[{self.nominal_mv:g}±{self.sigma_mv:g}mV,seed={self.seed}]"
