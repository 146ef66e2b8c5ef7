"""Backend registry and auto-selection.

The registry replaces the ad-hoc engine-string plumbing that used to live
in :mod:`repro.timing.error_model`: consumers name a backend (or ask for
``"auto"``) and receive a :class:`~repro.circuits.backends.base.SimulationBackend`
singleton; every validation rule about (backend, arrival model, batch
width) combinations lives here, in one place.

Auto-selection
--------------

``"auto"`` picks the fastest registered backend for the requested arrival
model and batch width:

* the ``"event"`` arrival model resolves to the scalar backend for narrow
  batches and to the batched waveform-propagation backend
  (:mod:`repro.circuits.backends.event`) once the batch is at least
  :data:`EVENT_BACKEND_MIN_LANES` lanes wide, the measured crossover where
  per-gate lane-word waveforms beat the per-vector Python wheel (see
  ``benchmarks/test_bench_events.py``);
* the levelized models resolve to the bigint word-packed backend for
  narrow batches and to the NumPy ``uint64``-lane backend once the batch
  is at least :data:`LANE_BACKEND_MIN_LANES` lanes wide, a conservative
  bound on the crossover where level-vectorised ufunc evaluation beats
  CPython bigint bit-twiddling (see ``benchmarks/test_bench_backends.py``).
  Both stay registered by name; only narrow batches still go to bigint
  under ``"auto"``.
"""

from __future__ import annotations

import repro.observability as observability
from repro.circuits.backends.base import SimulationBackend
from repro.circuits.simulator import ARRIVAL_MODELS

#: Batch width (in lanes) from which ``"auto"`` prefers the ndarray backend
#: over the bigint backend.  Median bigint / ndarray time over interleaved
#: pairs on a 2-CPU host (8x8 array multiplier and the 8x22-bit MAC at
#: 50 mV):
#:
#: ============  =====  =====  =====  =====  =====  =====
#: lanes             1      8     16     32     64    128
#: ============  =====  =====  =====  =====  =====  =====
#: mult transit   1.00   4.66   4.98   5.50   5.33   5.29
#: mult settle    1.88   1.77   1.87   1.91   2.01   2.35
#: MAC transit    1.06   4.46   4.69   5.02   4.97   5.53
#: MAC settle     1.80   1.80   1.95   2.04   2.20   2.38
#: ============  =====  =====  =====  =====  =====  =====
#:
#: Single-vector batches are a tie for transition; from 8 lanes ndarray
#: wins both models by >= 1.7x, and the gap keeps widening with width —
#: >= 3x on the MAC at 4096 lanes (``benchmarks/test_bench_backends.py``
#: re-measures the crossover and the 8192-lane ratio).  The threshold is
#: conservative: the ratios no longer need it this high, and lowering it
#: only changes which of two byte-identical engines runs.
LANE_BACKEND_MIN_LANES = 32

#: Batch width (in lanes) from which ``"auto"`` prefers the batched event
#: backend over the scalar event loop.  The batched engine's per-gate cost
#: is nearly lane-independent (a handful of uint64-word ufunc calls per
#: gate waveform), so its advantage grows with width.  Median scalar /
#: batched time over interleaved pairs on a 2-CPU host at 50 mV:
#: 1 lane 0.19-0.24x, 4 lanes 0.59-0.65x, 8 lanes 0.94-1.00x, 16 lanes
#: 1.85-2.16x, 32 lanes ~3.8x, 128 lanes 10-12x, 1024 lanes 55-60x (array
#: multiplier / MAC; ``benchmarks/test_bench_events.py`` re-measures and
#: asserts >= 3x at 1024 lanes and >= 1x here).
EVENT_BACKEND_MIN_LANES = 16

_REGISTRY: dict[str, SimulationBackend] = {}


def register_backend(backend: SimulationBackend) -> SimulationBackend:
    """Register a backend singleton under ``backend.name``."""
    if not backend.name:
        raise ValueError("backend must define a non-empty name")
    if backend.name in _REGISTRY:
        raise ValueError(f"backend {backend.name!r} is already registered")
    _REGISTRY[backend.name] = backend
    return backend


def backend_names(include_auto: bool = True) -> tuple[str, ...]:
    """Registered backend names (optionally with the ``"auto"`` selector)."""
    names = tuple(sorted(_REGISTRY))
    return ("auto",) + names if include_auto else names


def get_backend(name: str) -> SimulationBackend:
    """Look up a registered backend by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown simulation engine/backend {name!r}; registered backends: "
            f"{backend_names(include_auto=False)} (or 'auto' to select by "
            f"arrival model and batch width, via resolve_backend)"
        ) from None


def auto_select(arrival_model: str, batch_size: int) -> SimulationBackend:
    """Pick the fastest backend for an arrival model and batch width."""
    candidates = [
        backend for backend in _REGISTRY.values() if backend.supports(arrival_model)
    ]
    if not candidates:
        raise ValueError(
            f"no registered backend supports arrival model {arrival_model!r}"
        )
    batched = [backend for backend in candidates if backend.batched]
    if not batched:
        return candidates[0]
    if arrival_model == "event":
        if batch_size >= EVENT_BACKEND_MIN_LANES:
            wheel = [backend for backend in batched if backend.name == "event"]
            if wheel:
                return wheel[0]
        scalar = [backend for backend in candidates if not backend.batched]
        return scalar[0] if scalar else batched[0]
    if batch_size >= LANE_BACKEND_MIN_LANES:
        wide = [backend for backend in batched if backend.name == "ndarray"]
        if wide:
            return wide[0]
    narrow = [backend for backend in batched if backend.name == "bigint"]
    return narrow[0] if narrow else batched[0]


def resolve_backend(
    name: str, arrival_model: str, batch_size: int | None, default_batch_size: int = 256
) -> tuple[SimulationBackend, int]:
    """Validate and resolve one (backend, arrival model, batch size) request.

    Shared by every error-model entry point so they can never drift in
    which combinations they accept.  Returns the backend singleton and the
    effective batch size.
    """
    if arrival_model not in ARRIVAL_MODELS:
        raise ValueError(f"arrival_model must be one of {ARRIVAL_MODELS}")
    if batch_size is None:
        batch_size = default_batch_size
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if name == "auto":
        backend = auto_select(arrival_model, batch_size)
    else:
        backend = get_backend(name)
    if not backend.supports(arrival_model):
        raise ValueError(
            f"the batched engine {backend.name!r} only supports the "
            f"{backend.arrival_models} arrival models, not {arrival_model!r}"
        )
    observability.add(f"backend.selected.{backend.name}")
    return backend, batch_size
