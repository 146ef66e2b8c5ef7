"""Pluggable simulation backends.

See :mod:`repro.circuits.backends.base` for the protocol and
:mod:`repro.circuits.backends.registry` for name resolution and the
``"auto"`` selection rule.  Importing this package registers the
three built-in engines (``scalar``, ``ndarray``, ``event``) as stateless
singletons, plus ``bigint``, a retired name that runs the ``ndarray``
engine (see :class:`~repro.circuits.backends.lane.BigintAliasBackend`).
"""

from __future__ import annotations

from repro.circuits.backends.base import (
    BatchedSimulationBackend,
    ErrorCounters,
    SimulationBackend,
)
from repro.circuits.backends.event import (
    EventBackend,
    EventTimedEvaluation,
    EventWheelSimulator,
)
from repro.circuits.backends.lane import (
    BigintAliasBackend,
    LaneBackend,
    LaneTimedEvaluation,
    LaneTimingSimulator,
    LevelizedGraph,
    corner_case_delays,
    lane_error_counters,
    levelized_graph,
    levelized_graph_cache_stats,
)
from repro.circuits.backends.registry import (
    EVENT_BACKEND_MIN_LANES,
    auto_select,
    backend_names,
    get_backend,
    register_backend,
    resolve_backend,
)
from repro.circuits.backends.scalar import ScalarBackend

SCALAR_BACKEND = register_backend(ScalarBackend())
NDARRAY_BACKEND = register_backend(LaneBackend())
EVENT_BACKEND = register_backend(EventBackend())
register_backend(BigintAliasBackend())

__all__ = [
    "EVENT_BACKEND",
    "EVENT_BACKEND_MIN_LANES",
    "NDARRAY_BACKEND",
    "SCALAR_BACKEND",
    "BatchedSimulationBackend",
    "BigintAliasBackend",
    "ErrorCounters",
    "EventBackend",
    "EventTimedEvaluation",
    "EventWheelSimulator",
    "LaneBackend",
    "LaneTimedEvaluation",
    "LaneTimingSimulator",
    "LevelizedGraph",
    "ScalarBackend",
    "SimulationBackend",
    "auto_select",
    "backend_names",
    "corner_case_delays",
    "get_backend",
    "lane_error_counters",
    "levelized_graph",
    "levelized_graph_cache_stats",
    "register_backend",
    "resolve_backend",
]
