"""Process-parallel sweep orchestration.

The paper's headline results are all sweeps — timing-error characterisation
across ΔVth aging levels, fault injection across flip-probability grids and
(method, α, β) quantization grids — and every one of them is embarrassingly
parallel.  This package provides the shared machinery the sweep front-ends
(:func:`repro.timing.error_model.sweep_timing_errors`,
:func:`repro.nn.evaluate.sweep_fault_injection`,
:func:`repro.nn.evaluate.sweep_quantization_grid`) run on:

* :class:`~repro.parallel.executor.ExecutorSession` — the one dispatch
  path: an incremental submit/wait-any session with a once-per-worker
  shared payload and a graceful serial fallback (``workers=0`` or
  platforms that cannot start worker processes).  Every worker runs one
  entry point, and one factory builds every process pool.
  :meth:`ParallelExecutor.map <repro.parallel.executor.ParallelExecutor.map>`
  is a session on its own pool that submits automatically sized chunks and
  merges results in item order; the dependency-aware experiment scheduler
  (:mod:`repro.pipeline`) dispatches ready tasks on a session; and a
  long-lived :class:`~repro.parallel.executor.WorkerPool` keeps worker
  processes alive across many sessions (the shape :mod:`repro.service`
  needs to answer queries without paying pool startup per query),
* :mod:`repro.parallel.seeding` — spawn-safe deterministic RNG built on
  :meth:`numpy.random.SeedSequence.spawn`: one independent child stream per
  work item, keyed only by the item's position in the sweep, so results are
  bit-identical for any worker count or scheduling order.
"""

from repro.parallel.executor import (
    ExecutorSession,
    ParallelExecutor,
    WorkerPool,
    resolve_workers,
    usable_cpu_count,
)
from repro.parallel.seeding import (
    root_seed_sequence,
    shard_sizes,
    spawn_generators,
    spawn_seed_sequences,
)

__all__ = [
    "ExecutorSession",
    "ParallelExecutor",
    "WorkerPool",
    "resolve_workers",
    "usable_cpu_count",
    "root_seed_sequence",
    "shard_sizes",
    "spawn_generators",
    "spawn_seed_sequences",
]
