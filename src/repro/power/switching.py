"""Monte-Carlo switching-activity estimation.

Two activity modes share one sharded, seed-spawned estimation pipeline:

* ``"zero-delay"`` (default) — the glitch-free baseline: a toggle is one
  *functional* output change between consecutive input vectors.  Each
  shard's vector chain is packed into uint64 lanes, evaluated with one
  zero-delay pass of the levelized graph, and the per-net toggle counts
  fall out of one adjacent-lane XOR + popcount reduction.
* ``"event"`` — glitch-aware: each shard's chain runs through the batched
  event-driven engine
  (:class:`repro.circuits.backends.event.EventWheelSimulator`, lane ``k``
  simulating the transition ``v_k -> v_{k+1}``; every net's commits are
  propagated gate by gate as lane-word waveforms, identical per lane to
  the scalar time wheel), and a toggle is one *committed net change* —
  functional transitions plus every glitch the per-gate delays of
  ``delay_source`` produce; the counts come straight from
  :attr:`~repro.circuits.backends.event.EventTimedEvaluation.commit_counts`.
  Per gate, event toggles are therefore >= zero-delay toggles on the
  identical vector chain (every functional change commits at least once);
  the surplus is exactly the glitch activity the zero-delay baseline cannot
  see.

Sharding contract (same as the PR 2 sweeps): the transition stream is
split into independent chains of ``transitions_per_shard`` transitions
(:func:`repro.parallel.shard_sizes`), each drawing its inputs from its own
``SeedSequence`` child spawned from ``rng`` and keyed only by shard
position (:func:`repro.parallel.spawn_seed_sequences`).  Toggle counts are
integers summed over shards, so the returned activity is **bit-identical
for any ``workers`` count**.  A custom
``input_sampler`` that cannot be pickled still parallelises under the fork
start method (workers inherit it); on spawn platforms the executor
degrades to serial with a warning, results unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Callable, Mapping

import numpy as np

from repro.circuits.backends.event import EventWheelSimulator
from repro.circuits.backends.lane import levelized_graph
from repro.circuits.mac import ArithmeticUnit
from repro.circuits.netlist import Netlist
from repro.parallel import ParallelExecutor, shard_sizes, spawn_seed_sequences
from repro.utils.bitops import UINT64_MASK

InputSampler = Callable[[np.random.Generator], Mapping[str, int]]

#: Supported activity modes (see the module docstring).
SWITCHING_MODES = ("zero-delay", "event")

#: Default transitions per shard; the shard decomposition (and therefore
#: the per-shard child RNG streams) depends only on this and on
#: ``num_transitions``, never on the worker count or chunking.
DEFAULT_TRANSITIONS_PER_SHARD = 500


@dataclass(frozen=True)
class SwitchingActivity:
    """Per-gate toggle statistics collected over a random input stream.

    Attributes:
        num_transitions: number of simulated input transitions.
        toggles_per_gate: mapping from gate name to the number of output
            toggles observed (functional changes in ``"zero-delay"`` mode,
            committed changes including glitches in ``"event"`` mode).
        toggles_per_cell: toggles aggregated by cell type.
        input_toggles: total toggles on primary input nets (driven by the
            operand registers, counted separately from internal activity).
        mode: the activity mode that produced the counts (``"zero-delay"``
            or ``"event"``).
    """

    num_transitions: int
    toggles_per_gate: dict[str, int]
    toggles_per_cell: dict[str, int]
    input_toggles: int
    mode: str = "zero-delay"

    @property
    def total_internal_toggles(self) -> int:
        return sum(self.toggles_per_gate.values())

    @property
    def average_toggles_per_transition(self) -> float:
        if self.num_transitions == 0:
            return 0.0
        return self.total_internal_toggles / self.num_transitions

    @property
    def is_glitch_aware(self) -> bool:
        return self.mode == "event"


def _adjacent_toggle_counts(values: np.ndarray, lanes: int) -> np.ndarray:
    """Per-net toggles between consecutive lanes of a packed value array.

    ``values`` is ``(nets, ceil(lanes / 64))`` uint64 holding ``lanes``
    consecutive vectors; the result counts, per net row, the transitions
    ``lane t -> lane t + 1`` (``lanes - 1`` of them) where the value
    changes — one shifted XOR and a popcount, no unpacking.
    """
    shifted = values >> np.uint64(1)
    if values.shape[1] > 1:
        shifted[:, :-1] |= values[:, 1:] << np.uint64(63)
    transitions = lanes - 1
    mask = np.zeros(values.shape[1], dtype=np.uint64)
    full, tail = divmod(transitions, 64)
    mask[:full] = UINT64_MASK
    if tail:
        mask[full] = np.uint64((1 << tail) - 1)
    diff = (values ^ shifted) & mask
    return np.bitwise_count(diff).sum(axis=1).astype(np.int64)


@dataclass
class _ActivityContext:
    """Shared, picklable state of one sharded activity estimation.

    Shipped to each worker exactly once via the executor payload; the
    per-process event simulator (whose construction resolves the per-gate
    delay table) is scratch state and is deliberately not pickled.
    """

    netlist: Netlist
    mode: str
    delay_source: object
    input_sampler: InputSampler | None
    simulator_cache: dict = field(default_factory=dict, repr=False)

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["simulator_cache"] = {}
        return state

    def event_simulator(self) -> EventWheelSimulator:
        simulator = self.simulator_cache.get("event")
        if simulator is None:
            simulator = EventWheelSimulator(self.netlist, self.delay_source)
            self.simulator_cache["event"] = simulator
        return simulator


def _draw_vectors(
    netlist: Netlist,
    input_sampler: InputSampler | None,
    generator: np.random.Generator,
    count: int,
) -> dict[str, list[int]]:
    """Draw ``count`` vectors per bus, vectorised when no sampler is set."""
    if input_sampler is not None:
        samples = [dict(input_sampler(generator)) for _ in range(count)]
        return {name: [sample[name] for sample in samples] for name in netlist.input_buses}
    return {
        name: generator.integers(0, 1 << len(nets), size=count, dtype=np.uint64).tolist()
        for name, nets in netlist.input_buses.items()
    }


def _activity_shard_task(
    item: tuple[int, np.random.SeedSequence], context: _ActivityContext
) -> dict[str, int]:
    """Simulate one shard chain and return its per-net toggle counts."""
    shard_transitions, seed = item
    generator = np.random.default_rng(seed)
    netlist = context.netlist
    vectors = _draw_vectors(netlist, context.input_sampler, generator, shard_transitions + 1)
    if context.mode == "event":
        previous = {name: values[:-1] for name, values in vectors.items()}
        current = {name: values[1:] for name, values in vectors.items()}
        evaluation = context.event_simulator().propagate_batch(previous, current)
        return evaluation.commit_counts
    graph = levelized_graph(netlist)
    values, lanes = graph.pack_inputs(vectors)
    graph.evaluate(values)
    counts = _adjacent_toggle_counts(values, lanes)
    return {
        net.name: int(counts[graph.net_row[net]])
        for net in netlist.nets.values()
        if counts[graph.net_row[net]]
    }


def estimate_switching_activity(
    target: "ArithmeticUnit | Netlist",
    num_transitions: int = 500,
    rng: "int | np.random.Generator | None" = None,
    input_sampler: InputSampler | None = None,
    *,
    mode: str = "zero-delay",
    delay_source: object | None = None,
    workers: int = 0,
    transitions_per_shard: int | None = None,
) -> SwitchingActivity:
    """Estimate switching activity of ``target`` under a random input stream.

    Args:
        target: circuit under analysis.
        num_transitions: number of simulated input transitions, summed over
            all shard chains.
        rng: seed / generator / seed sequence rooting the per-shard child
            streams (see the module docstring's sharding contract).
        input_sampler: optional custom operand distribution; the Fig. 5
            experiment passes a sampler restricted to the compressed operand
            ranges to model quantized traffic.
        mode: ``"zero-delay"`` (functional toggles, the glitch-free
            baseline) or ``"event"`` (committed toggles including glitches,
            simulated by the batched event engine).
        delay_source: required for ``mode="event"``: the
            :class:`~repro.aging.cell_library.CellLibrary` or
            :class:`~repro.aging.scenarios.AgingScenario` whose per-gate
            delays shape the glitch activity.
        workers: worker processes for the shard fan-out (``0`` = serial
            in-process, ``-1`` = all usable CPUs); results are
            bit-identical for any value.
        transitions_per_shard: transitions per shard chain (default
            :data:`DEFAULT_TRANSITIONS_PER_SHARD`); part of the result's
            identity — changing it changes the drawn chains.
    """
    if num_transitions < 1:
        raise ValueError("num_transitions must be >= 1")
    if mode not in SWITCHING_MODES:
        raise ValueError(f"mode must be one of {SWITCHING_MODES}, got {mode!r}")
    if mode == "event" and delay_source is None:
        raise ValueError(
            "mode='event' needs a delay_source (a CellLibrary or "
            "AgingScenario) to resolve the per-gate delays that shape "
            "glitch activity"
        )
    netlist = target.netlist if isinstance(target, ArithmeticUnit) else target
    if transitions_per_shard is None:
        transitions_per_shard = DEFAULT_TRANSITIONS_PER_SHARD
    if transitions_per_shard < 1:
        raise ValueError("transitions_per_shard must be >= 1")

    shard_plan = shard_sizes(num_transitions, transitions_per_shard)
    seeds = spawn_seed_sequences(rng, len(shard_plan))
    items = list(zip(shard_plan, seeds))
    context = _ActivityContext(
        netlist=netlist,
        mode=mode,
        delay_source=delay_source,
        input_sampler=input_sampler,
    )
    executor = ParallelExecutor(workers=workers)
    shard_counts = executor.map(_activity_shard_task, items, payload=context)

    net_toggles: dict[str, int] = {}
    for counts in shard_counts:
        for name, count in counts.items():
            net_toggles[name] = net_toggles.get(name, 0) + count

    toggles_per_gate: dict[str, int] = {}
    toggles_per_cell: dict[str, int] = {}
    for gate in netlist.gates:
        toggles = net_toggles.get(gate.output.name, 0)
        toggles_per_gate[gate.name] = toggles
        if toggles:
            toggles_per_cell[gate.cell_name] = (
                toggles_per_cell.get(gate.cell_name, 0) + toggles
            )
    input_toggles = sum(
        net_toggles.get(net.name, 0) for net in netlist.primary_input_nets()
    )
    return SwitchingActivity(
        num_transitions=num_transitions,
        toggles_per_gate=toggles_per_gate,
        toggles_per_cell=toggles_per_cell,
        input_toggles=input_toggles,
        mode=mode,
    )
