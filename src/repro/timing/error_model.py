"""Monte-Carlo characterisation of aging-induced timing errors.

Reproduces the methodology behind the paper's Fig. 1a: the circuit is
clocked at the maximum frequency obtained from the *fresh* critical-path
delay (no guardband), its cells are degraded by an aging scenario, and
random input pairs are simulated with the two-vector timing simulator.
Output bits that settle after the clock edge capture stale values, producing
the MSB-dominated error pattern the paper reports (rising Mean Error
Distance and MSB bit-flip probability as aging grows).

All three simulation engines are reachable from here: with
``arrival_model="event"`` the ``"auto"`` selector batches wide Monte-Carlo
runs through the glitch-exact batched event backend
(:mod:`repro.circuits.backends.event`) and falls back to the scalar event
loop for narrow ones; the levelized settle/transition models run on the
ndarray lane backend at every width.

Batch width
-----------

:func:`sweep_timing_errors` runs each sample shard as one packed batch, so
the shard plan is the only thing that splits its work.
:func:`characterize_timing_errors` keeps a ``batch_size`` argument;
regrouping a chain into batches never changes its counters, because every
counter is an integer sum.

Aging scenarios
---------------

Both entry points consume *delay sources*: either an (aged)
:class:`~repro.aging.cell_library.CellLibrary` — the paper's uniform-ΔVth
contract — or any :class:`~repro.aging.scenarios.AgingScenario`, which
resolves to a per-gate delay table (mission profiles, per-cell-type stress,
seeded per-gate variation).  :func:`sweep_timing_errors` sweeps an axis of
scenarios; its legacy ``levels_mv`` interface builds the equivalent
:class:`~repro.aging.scenarios.UniformAging` axis and is bit-identical to
the pre-scenario implementation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from collections.abc import Callable, Iterable, Mapping, Sequence

import numpy as np

import repro.observability as observability
from repro.aging.cell_library import AgingAwareLibrarySet, CellLibrary
from repro.aging.scenarios.base import (
    AgingScenario,
    default_fresh_library,
    nominal_delta_vth_mv,
)
from repro.aging.scenarios.uniform import UniformAging
from repro.circuits.backends import (
    ErrorCounters,
    SimulationBackend,
    get_backend,
    resolve_backend,
)
from repro.circuits.mac import ArithmeticUnit
from repro.parallel import ParallelExecutor, shard_sizes, spawn_seed_sequences
from repro.timing.sta import StaticTimingAnalyzer
from repro.utils.rng import make_rng

InputSampler = Callable[[np.random.Generator], Mapping[str, int]]

#: Default number of vector pairs packed per bit-parallel batch of
#: :func:`characterize_timing_errors`.
DEFAULT_BATCH_SIZE = 256

#: Default Monte-Carlo samples per sweep work item, which is also the lane
#: count of the shard's one packed batch.  The shard decomposition (and
#: therefore the per-shard child RNG streams) depends only on this and on
#: ``num_samples`` — never on the worker count, chunking or backend — which
#: is what makes parallel sweep results bit-identical to serial ones.
DEFAULT_SAMPLES_PER_SHARD = 500


@dataclass(frozen=True)
class TimingErrorStatistics:
    """Error statistics of an aged circuit clocked at a fixed period.

    Attributes:
        delta_vth_mv: nominal aging level of the delay source (a scenario's
            :attr:`~repro.aging.scenarios.AgingScenario.nominal_delta_vth_mv`).
        clock_period_ps: sampling clock period (fresh critical-path delay).
        num_samples: number of simulated input transitions.
        mean_error_distance: average absolute difference between the exact
            and the captured output (the paper's MED metric).
        error_rate: fraction of samples with any output mismatch.
        bit_flip_probabilities: per-output-bit mismatch probability,
            LSB-first.
        msb_flip_probability: probability that at least one of the two most
            significant output bits is wrong (the paper's Fig. 1a metric).
    """

    delta_vth_mv: float
    clock_period_ps: float
    num_samples: int
    mean_error_distance: float
    error_rate: float
    bit_flip_probabilities: tuple[float, ...]
    msb_flip_probability: float

    @property
    def output_width(self) -> int:
        return len(self.bit_flip_probabilities)

    @classmethod
    def from_counters(
        cls,
        counters: ErrorCounters,
        delta_vth_mv: float,
        clock_period_ps: float,
        num_samples: int,
    ) -> "TimingErrorStatistics":
        """Normalise accumulated Monte-Carlo counters into statistics."""
        return cls(
            delta_vth_mv=delta_vth_mv,
            clock_period_ps=clock_period_ps,
            num_samples=num_samples,
            mean_error_distance=counters.total_error_distance / num_samples,
            error_rate=counters.error_count / num_samples,
            bit_flip_probabilities=tuple(counters.bit_flip_counts / num_samples),
            msb_flip_probability=counters.msb_flip_count / num_samples,
        )


def _resolve_output_window(
    unit: ArithmeticUnit,
    output_bus: str,
    effective_output_width: int | None,
    msb_count: int,
) -> int:
    """Validate the observed bus and return the effective output width."""
    if output_bus not in unit.netlist.output_buses:
        raise KeyError(f"output bus {output_bus!r} not found in unit {unit.name!r}")
    width = effective_output_width or unit.netlist.output_width(output_bus)
    if not 0 < width <= unit.netlist.output_width(output_bus):
        raise ValueError(
            f"effective_output_width must be in [1, {unit.netlist.output_width(output_bus)}]"
        )
    if not 0 < msb_count <= width:
        raise ValueError(f"msb_count must be in [1, {width}]")
    return width


def _draw_input_vectors(
    unit: ArithmeticUnit,
    input_sampler: InputSampler | None,
    generator: np.random.Generator,
    count: int,
) -> list[dict[str, int]]:
    """Draw ``count`` input vectors, vectorised when no custom sampler is set.

    The default (uniform) sampler draws one whole batch per input bus and RNG
    call — ``count`` 64-bit words per bus — instead of one Python-int
    ``rng.integers`` call per bus per sample, which keeps vector generation
    negligible next to simulation even at paper-scale sample counts.  Both
    simulation engines consume the same vector list, so scalar and batch
    statistics stay bit-for-bit identical.
    """
    if input_sampler is not None:
        return [dict(input_sampler(generator)) for _ in range(count)]
    batches = {
        name: generator.integers(0, 1 << width, size=count, dtype=np.uint64).tolist()
        for name, width in unit.input_widths.items()
    }
    names = list(batches)
    return [dict(zip(names, column)) for column in zip(*(batches[name] for name in names))]


def _simulate_chain(
    backend: SimulationBackend,
    simulator,
    unit: ArithmeticUnit,
    input_sampler: InputSampler | None,
    generator: np.random.Generator,
    num_samples: int,
    clock_period_ps: float,
    output_bus: str,
    msb_count: int,
    width: int,
    batch_size: int,
) -> ErrorCounters:
    """Draw one ``num_samples``-transition input chain and count its errors."""
    vectors = _draw_input_vectors(unit, input_sampler, generator, num_samples + 1)
    counters = backend.accumulate_errors(
        unit, simulator, vectors, clock_period_ps, output_bus, msb_count, width, batch_size
    )
    observability.add("sweep.samples", num_samples)
    observability.add("sim.lanes", num_samples)
    return counters


def characterize_timing_errors(
    unit: ArithmeticUnit,
    library: "CellLibrary | AgingScenario",
    clock_period_ps: float,
    num_samples: int = 2000,
    rng: "int | np.random.Generator | None" = None,
    input_sampler: InputSampler | None = None,
    output_bus: str = "out",
    msb_count: int = 2,
    effective_output_width: int | None = None,
    arrival_model: str = "event",
    backend: str = "auto",
    batch_size: int | None = None,
) -> TimingErrorStatistics:
    """Characterise the timing errors of ``unit`` under an aging delay source.

    Args:
        unit: the circuit under test (multiplier or MAC).
        library: the delay source — an (aged) cell library or any
            :class:`~repro.aging.scenarios.AgingScenario`; the fresh library
            yields zero errors when ``clock_period_ps`` equals the fresh
            critical path.
        clock_period_ps: capture clock period, typically the fresh
            critical-path delay obtained from STA.
        num_samples: number of random input transitions to simulate.
        rng: seed or generator controlling the random inputs.
        input_sampler: optional custom sampler (e.g. operands restricted to a
            quantized range); defaults to uniform over all input buses.
        output_bus: name of the observed output bus.
        msb_count: number of most significant bits used for the MSB flip
            probability (the paper uses the top 2).
        effective_output_width: number of low-order output bits considered
            meaningful (e.g. 16 for an 8x8 multiplier whose ``out`` bus is
            wider); defaults to the full bus width.
        arrival_model: ``"event"`` (exact, glitch-accurate), ``"settle"``
            (pessimistic bound) or ``"transition"`` (optimistic bound).
        backend: a registered simulation-backend name (``"scalar"``,
            ``"ndarray"`` — the lane engine for the levelized models,
            ``"event"`` — the batched waveform engine for the ``"event"``
            arrival model) or
            ``"auto"`` to let the registry pick by arrival model (and, for
            ``"event"``, batch width) — see
            :func:`repro.circuits.backends.resolve_backend`.  For a given
            arrival model every backend produces bit-for-bit identical
            statistics.
        batch_size: vector pairs (lanes) per packed batch for the batched
            backends (default :data:`DEFAULT_BATCH_SIZE`); also the width
            ``"auto"`` keys the ``"event"`` choice on.  It changes only
            throughput, never the statistics.
    """
    if num_samples < 1:
        raise ValueError("num_samples must be >= 1")
    if clock_period_ps <= 0:
        raise ValueError("clock_period_ps must be positive")
    resolved, batch_size = resolve_backend(
        backend, arrival_model, batch_size, default_batch_size=DEFAULT_BATCH_SIZE
    )
    width = _resolve_output_window(unit, output_bus, effective_output_width, msb_count)

    with observability.span(
        "sweep:characterize",
        category="sweep",
        samples=num_samples,
        backend=resolved.name,
        arrival_model=arrival_model,
    ):
        simulator = resolved.timing_simulator(unit.netlist, library, arrival_model)
        counters = _simulate_chain(
            resolved, simulator, unit, input_sampler, make_rng(rng), num_samples,
            clock_period_ps, output_bus, msb_count, width, batch_size,
        )
    return TimingErrorStatistics.from_counters(
        counters, nominal_delta_vth_mv(library), clock_period_ps, num_samples
    )


@dataclass
class _TimingSweepContext:
    """Shared, picklable state of one timing-error sweep.

    Shipped to each worker process exactly once (via the executor payload),
    so workers reuse one bound scenario axis — aged libraries and per-gate
    delay tables are resolved once per scenario per process, not once per
    shard.  Scenario resolution is a pure function of (scenario fields,
    netlist structure), so every worker resolves bit-identical tables.  The
    backend is carried by *name* (backends are stateless registry
    singletons, so the choice survives pickling into workers trivially);
    the simulator cache itself is per-process scratch state and is
    deliberately not pickled.
    """

    unit: ArithmeticUnit
    scenarios: tuple[AgingScenario, ...]
    clock_period_ps: float
    input_sampler: InputSampler | None
    output_bus: str
    msb_count: int
    width: int
    arrival_model: str
    backend: str
    simulator_cache: dict = field(default_factory=dict, repr=False)

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["simulator_cache"] = {}
        return state

    def simulator(self, index: int):
        """Per-process simulator for one scenario (delay tables cached)."""
        key = (index, self.arrival_model, self.backend)
        simulator = self.simulator_cache.get(key)
        if simulator is None:
            simulator = get_backend(self.backend).timing_simulator(
                self.unit.netlist, self.scenarios[index], self.arrival_model
            )
            self.simulator_cache[key] = simulator
        return simulator


def _timing_shard_task(
    item: tuple[int, int, np.random.SeedSequence], context: _TimingSweepContext
) -> ErrorCounters:
    """Simulate one (scenario, sample shard) work item and return counters.

    The shard runs as one packed batch (lanes = ``shard_samples``).  Metrics
    are recorded per *shard*, never per chunk: the shard plan is a pure
    function of ``(num_samples, samples_per_shard)``, so the merged
    ``sweep.*``/``sim.*`` counters are bit-identical for any worker count or
    chunking — the same invariance contract the statistics themselves obey.
    """
    scenario_index, shard_samples, seed = item
    start = time.perf_counter()
    with observability.span(
        "sweep:shard",
        category="sweep",
        scenario=scenario_index,
        samples=shard_samples,
        backend=context.backend,
    ):
        counters = _simulate_chain(
            get_backend(context.backend), context.simulator(scenario_index),
            context.unit, context.input_sampler, np.random.default_rng(seed),
            shard_samples, context.clock_period_ps, context.output_bus,
            context.msb_count, context.width, shard_samples,
        )
    observability.add("sweep.shards")
    observability.observe("time.shard_seconds", time.perf_counter() - start)
    return counters


def _resolve_scenario_axis(
    library_set: AgingAwareLibrarySet | None,
    levels_mv: Iterable[float],
    scenarios: "Sequence[AgingScenario] | None",
) -> tuple[CellLibrary, tuple[AgingScenario, ...]]:
    """The sweep's (fresh library, scenario axis) from the legacy or new API.

    Explicit ``scenarios`` win (caller order preserved); otherwise
    ``levels_mv`` builds the paper's uniform axis (sorted ascending, exactly
    as the pre-scenario sweep did).  The returned fresh library is also the clock
    reference, so when no ``library_set`` names one, a pre-bound scenario's
    own library wins over the default — the capture clock must come from
    the same characterisation the scenarios resolve against.
    """
    if isinstance(library_set, AgingAwareLibrarySet):
        fresh = library_set.fresh
    elif library_set is None:
        fresh = default_fresh_library()
    else:
        raise TypeError(
            "library_set must be an AgingAwareLibrarySet or None, got "
            f"{type(library_set).__name__}"
        )
    if scenarios is not None:
        if library_set is None:
            for scenario in scenarios:
                bound = getattr(scenario, "library", None)
                if bound is not None:
                    if not bound.is_fresh:
                        raise ValueError(
                            "scenarios must be bound to a fresh (0 mV) library"
                        )
                    fresh = bound
                    break
        axis = tuple(scenario.bound_to(fresh) for scenario in scenarios)
    else:
        levels = sorted(float(level) for level in levels_mv)
        axis = tuple(UniformAging(level, library=fresh) for level in levels)
    if not axis:
        name = "scenarios" if scenarios is not None else "levels_mv"
        raise ValueError(f"{name} must not be empty")
    return fresh, axis


def sweep_timing_errors(
    unit: ArithmeticUnit,
    library_set: AgingAwareLibrarySet | None = None,
    levels_mv: Iterable[float] = (0.0, 10.0, 20.0, 30.0, 40.0, 50.0),
    num_samples: int = 2000,
    rng: "int | np.random.Generator | None" = None,
    input_sampler: InputSampler | None = None,
    msb_count: int = 2,
    effective_output_width: int | None = None,
    arrival_model: str = "event",
    backend: str = "auto",
    workers: int = 0,
    samples_per_shard: int = DEFAULT_SAMPLES_PER_SHARD,
    scenarios: "Sequence[AgingScenario] | None" = None,
) -> list[TimingErrorStatistics]:
    """Characterise ``unit`` over an aging-scenario axis, fresh clock throughout.

    This is the full Fig. 1a experiment: the clock period is the fresh
    critical-path delay (no guardband) and each sweep point degrades the
    gates through its own aging scenario.  The axis comes from (first match
    wins):

    * ``scenarios`` — any sequence of
      :class:`~repro.aging.scenarios.AgingScenario` objects (mission
      profiles, per-cell-type stress, per-gate variation, ...); results are
      returned in the given order;
    * ``levels_mv`` — the paper's uniform axis, one
      :class:`~repro.aging.scenarios.UniformAging` per level, sorted
      ascending.  This is the legacy interface and produces statistics
      bit-identical to the pre-scenario implementation.

    ``arrival_model``/``backend`` select the simulation backend through the
    registry exactly as in :func:`characterize_timing_errors`; ``"auto"``
    resolves once per sweep, from the widest batch it will run
    (``min(num_samples, samples_per_shard)`` lanes).  The resolved backend
    name is what ships to worker processes, so the choice survives pickling.

    The Monte-Carlo work is sharded by scenario *and* by sample block within
    a scenario (``samples_per_shard`` samples per work item, default
    :data:`DEFAULT_SAMPLES_PER_SHARD`) and executed on a
    :class:`~repro.parallel.ParallelExecutor`.  Each shard runs as one
    packed batch, so the shard plan is the only thing that splits the work:

    * the statistics depend only on ``num_samples``, ``samples_per_shard``
      and ``rng`` — the backend and the worker count change throughput only;
    * ``workers=0`` (default) runs the shards serially in-process; ``N > 0``
      fans them out over ``N`` worker processes; ``-1`` uses every CPU.
    * Each work item draws from its own :class:`numpy.random.SeedSequence`
      child spawned from ``rng``, keyed only by the item's position in the
      sweep, and scenario resolution is deterministic by construction, so
      the returned statistics are **bit-identical for any ``workers``
      count** and any scheduling order.
    * Results are merged in shard order, one entry per scenario in axis
      order, regardless of worker completion order.

    A custom ``input_sampler`` that cannot be pickled (e.g. a local closure)
    still parallelises under the fork start method (workers inherit it); on
    spawn platforms it degrades the sweep to serial execution with a
    ``RuntimeWarning``.  The statistics are identical in every case.
    """
    if num_samples < 1:
        raise ValueError("num_samples must be >= 1")
    if samples_per_shard < 1:
        raise ValueError("samples_per_shard must be >= 1")
    resolved, _ = resolve_backend(backend, arrival_model, min(num_samples, samples_per_shard))
    output_bus = "out"
    width = _resolve_output_window(unit, output_bus, effective_output_width, msb_count)

    fresh, axis = _resolve_scenario_axis(library_set, levels_mv, scenarios)
    fresh_period_ps = StaticTimingAnalyzer(unit, fresh).critical_path_delay()
    shard_plan = shard_sizes(num_samples, samples_per_shard)
    # One child stream per sample shard, *shared across scenarios*: every
    # sweep point is characterised on the identical input-transition chain
    # (common random numbers), which isolates the aging effect and keeps
    # cross-point comparisons (MED/MSB monotonicity) low-variance even at
    # small sample counts.
    seeds = spawn_seed_sequences(rng, len(shard_plan))
    items = [
        (scenario_index, shard_samples, seeds[shard_index])
        for scenario_index in range(len(axis))
        for shard_index, shard_samples in enumerate(shard_plan)
    ]
    context = _TimingSweepContext(
        unit=unit,
        scenarios=axis,
        clock_period_ps=fresh_period_ps,
        input_sampler=input_sampler,
        output_bus=output_bus,
        msb_count=msb_count,
        width=width,
        arrival_model=arrival_model,
        backend=resolved.name,
    )
    executor = ParallelExecutor(workers=workers)
    with observability.span(
        "sweep:timing_errors",
        category="sweep",
        scenarios=len(axis),
        shards=len(items),
        samples=num_samples * len(axis),
        backend=resolved.name,
        workers=executor.workers,
    ):
        counters = executor.map(_timing_shard_task, items, payload=context)

    results = []
    shards_per_scenario = len(shard_plan)
    empty = ErrorCounters(np.zeros(width, dtype=np.int64), 0, 0, 0.0)
    for scenario_index, scenario in enumerate(axis):
        scenario_counters = counters[
            scenario_index * shards_per_scenario : (scenario_index + 1) * shards_per_scenario
        ]
        # Left-fold in shard order: float sums stay bit-identical to the
        # serial accumulation for any workers count.
        total = sum(scenario_counters, start=empty)
        results.append(
            TimingErrorStatistics.from_counters(
                total, scenario.nominal_delta_vth_mv, fresh_period_ps, num_samples
            )
        )
    return results
