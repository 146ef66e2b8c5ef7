"""Spawn-safe deterministic RNG for sharded sweeps.

Every sweep that runs on the :class:`~repro.parallel.executor.ParallelExecutor`
derives one independent child stream per work item through
:meth:`numpy.random.SeedSequence.spawn`.  The children are spawned *before*
the work is dispatched and are keyed only by the item's position in the
sweep, so the random numbers a work item consumes do not depend on the
worker count, the dispatch chunking, the scheduling order or the process start
method — serial and parallel runs are bit-identical by construction.
"""

from __future__ import annotations

import numpy as np

#: Seeds drawn from a live generator when one is used as the sweep root.
_GENERATOR_SEED_BOUND = 2**63 - 1


def root_seed_sequence(rng: "int | np.random.Generator | np.random.SeedSequence | None") -> np.random.SeedSequence:
    """Normalise a seed / generator / seed sequence into a root ``SeedSequence``.

    ``None`` maps to the fixed default seed 0 (matching
    :func:`repro.utils.rng.make_rng`).  A live generator is consumed once —
    a single draw supplies the root entropy — which keeps the convenience of
    passing generators while everything downstream stays spawn-safe.
    """
    if isinstance(rng, np.random.SeedSequence):
        return rng
    if isinstance(rng, np.random.Generator):
        return np.random.SeedSequence(int(rng.integers(0, _GENERATOR_SEED_BOUND)))
    if rng is None:
        rng = 0
    return np.random.SeedSequence(int(rng))


def spawn_seed_sequences(
    rng: "int | np.random.Generator | np.random.SeedSequence | None", count: int
) -> list[np.random.SeedSequence]:
    """Spawn ``count`` independent child seed sequences from ``rng``.

    Child ``i`` depends only on the root entropy and on ``i``, never on which
    worker ends up simulating it.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    return list(root_seed_sequence(rng).spawn(count))


def spawn_generators(
    rng: "int | np.random.Generator | np.random.SeedSequence | None", count: int
) -> list[np.random.Generator]:
    """Spawn ``count`` independent generators from ``rng`` (see above)."""
    return [np.random.default_rng(child) for child in spawn_seed_sequences(rng, count)]


def shard_sizes(total: int, shard_size: int) -> list[int]:
    """Split ``total`` work units into deterministic shard sample counts.

    The decomposition depends only on ``total`` and ``shard_size`` — never on
    the worker count or chunking — so the seed-sharding contract holds: the
    same shards (and therefore the same child streams) are simulated whether
    the sweep runs serially or across any number of processes.
    """
    if total < 0:
        raise ValueError("total must be non-negative")
    if shard_size < 1:
        raise ValueError("shard_size must be >= 1")
    full, remainder = divmod(total, shard_size)
    sizes = [shard_size] * full
    if remainder:
        sizes.append(remainder)
    return sizes
