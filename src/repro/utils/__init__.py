"""Shared utilities: lane-word packing (:mod:`repro.utils.bitops`), RNG
management and table formatting."""

from repro.utils.rng import derive_rng, make_rng
from repro.utils.tables import format_table

__all__ = [
    "derive_rng",
    "make_rng",
    "format_table",
]
