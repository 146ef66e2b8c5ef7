"""Tests of the process-parallel sweep subsystem (repro.parallel).

The central property under test is the seed-sharding contract: every sweep
front-end must produce **bit-identical** results for any ``workers``
count, because work items (and their spawned child RNG streams) are fixed
before dispatch and merged in item order.
"""

from __future__ import annotations

import pickle
import time
from pathlib import Path

import numpy as np
import pytest

import repro.observability as observability

from repro.aging.cell_library import AgingAwareLibrarySet
from repro.circuits.mac import build_mac, build_multiplier
from repro.circuits.simulator import LogicSimulator
from repro.nn.evaluate import sweep_fault_injection, sweep_quantization_grid
from repro.nn.quantized import record_calibration
from repro.parallel import (
    ParallelExecutor,
    WorkerPool,
    resolve_workers,
    shard_sizes,
    spawn_generators,
    spawn_seed_sequences,
    usable_cpu_count,
)
from repro.quantization.registry import get_method
from repro.timing.error_model import sweep_timing_errors
from repro.timing.sta import StaticTimingAnalyzer
from repro.core.padding import Padding, mac_case_analysis


# Module-level task functions: executor tasks must be picklable.
def _square(item, payload):
    return item * item


def _add_payload(item, payload):
    return item + payload["offset"]


def _fail_on_three(item, payload):
    if item == 3:
        raise ValueError("item three is broken")
    return item


def _counted_affine(item, payload):
    observability.add("test.items")
    observability.add("test.item_sum", item)
    return item * payload + 1


def _mark_then_sleep(item, marker_dir):
    """Item 0 fails at once; every other item leaves a marker and sleeps."""
    if item == 0:
        raise ValueError("item zero is broken")
    (Path(marker_dir) / f"{item}.ran").touch()
    time.sleep(0.1)
    return item


def _sleep_less_for_later_items(item, payload):
    """Later items finish sooner, so later chunks complete first."""
    time.sleep(0.005 * (payload - item))
    return item


def _drain_session(session, items):
    """Submit every item, then collect results back into item order."""
    tickets = {session.submit(item): index for index, item in enumerate(items)}
    results = [None] * len(items)
    while session.outstanding:
        ticket, value = session.wait_any()
        results[tickets[ticket]] = value
    return results


# ---------------------------------------------------------------- executor
class TestParallelExecutor:
    @pytest.mark.parametrize("workers", [0, 1, 2])
    def test_map_preserves_item_order(self, workers):
        executor = ParallelExecutor(workers=workers)
        assert executor.map(_square, range(7)) == [i * i for i in range(7)]

    @pytest.mark.parametrize("num_items,num_chunks", [(1, 1), (8, 8), (9, 5), (33, 7)])
    def test_map_chunks_cover_every_item_once(self, num_items, num_chunks):
        """map's automatic chunks neither drop nor repeat an item.

        On two workers chunks hold ``ceil(n / 8)`` items: one item runs on
        a single worker, 8 items go one per chunk, 9 make chunks of 2 with
        a short last one, and 33 make chunks of 5.  The per-item counters
        merged back from the workers prove each item ran exactly once.
        """
        items = list(range(num_items))
        with observability.collecting() as snapshot:
            result = ParallelExecutor(workers=2).map(_counted_affine, items, 3)
        assert result == [item * 3 + 1 for item in items]
        assert snapshot.metrics.counter("test.items") == num_items
        assert snapshot.metrics.counter("test.item_sum") == sum(items)
        (span,) = [span for span in snapshot.spans if span.name == "parallel:map"]
        assert span.args["chunks"] == num_chunks
        assert span.args["workers"] == min(2, num_items)

    def test_map_window_keeps_item_order_when_later_chunks_finish_first(self):
        items = list(range(16))
        with observability.collecting() as snapshot:
            result = ParallelExecutor(workers=2).map(_sleep_less_for_later_items, items, 16)
        assert result == items
        (span,) = [span for span in snapshot.spans if span.name == "parallel:map"]
        assert span.args["chunks"] == 8

    def test_chunk_size_option_is_gone(self):
        """Chunk size is derived from the item count, never passed in."""
        with pytest.raises(TypeError):
            ParallelExecutor(workers=2, chunk_size=3)

    def test_payload_is_shared(self):
        executor = ParallelExecutor(workers=2)
        assert executor.map(_add_payload, [1, 2, 3], payload={"offset": 10}) == [11, 12, 13]

    def test_empty_items(self):
        assert ParallelExecutor(workers=2).map(_square, []) == []

    @pytest.mark.parametrize("workers", [0, 2])
    def test_task_errors_propagate(self, workers):
        executor = ParallelExecutor(workers=workers)
        with pytest.raises(ValueError, match="item three"):
            executor.map(_fail_on_three, [1, 2, 3, 4])

    def test_unpicklable_task_falls_back_to_serial_under_spawn(self):
        captured = []

        def closure_task(item, payload):  # not picklable
            captured.append(item)
            return item

        # Spawn must pickle the initargs, so the closure forces the serial
        # fallback (the pre-check fires before any process is started).
        executor = ParallelExecutor(workers=2, start_method="spawn")
        with pytest.warns(RuntimeWarning, match="not picklable"):
            result = executor.map(closure_task, [1, 2])
        assert result == [1, 2]
        assert captured == [1, 2]  # ran in this process

    @pytest.mark.skipif(
        "fork" not in __import__("multiprocessing").get_all_start_methods(),
        reason="fork start method unavailable",
    )
    def test_unpicklable_task_still_parallelises_under_fork(self):
        def closure_task(item, payload):  # not picklable, but fork-inheritable
            return item * item

        executor = ParallelExecutor(workers=2, start_method="fork")
        assert executor.map(closure_task, [1, 2, 3]) == [1, 4, 9]

    def test_every_dispatch_path_agrees(self):
        """map (serial and parallel), owned and shared sessions: one answer.

        Under ``collecting()`` the worker telemetry merged back into the
        parent must also match the serial run's, counter for counter.
        """
        items = list(range(11))
        with WorkerPool(workers=2) as pool:

            def owned_session():
                with ParallelExecutor(workers=2).session(_counted_affine, 3) as session:
                    assert session.parallel
                    return _drain_session(session, items)

            def shared_session():
                with pool.session(_counted_affine, 3) as session:
                    assert session.parallel
                    return _drain_session(session, items)

            paths = {
                "map, workers=0": lambda: ParallelExecutor(0).map(_counted_affine, items, 3),
                "map, workers=2": lambda: ParallelExecutor(2).map(_counted_affine, items, 3),
                "owned session": owned_session,
                "WorkerPool session": shared_session,
            }
            expected = [item * 3 + 1 for item in items]
            counters = {}
            for name, run in paths.items():
                assert run() == expected, name
                with observability.collecting() as snapshot:
                    assert run() == expected, name
                counters[name] = dict(snapshot.metrics.counters)
        assert counters["map, workers=0"] == {"test.items": 11, "test.item_sum": 55}
        for name, merged in counters.items():
            assert merged == counters["map, workers=0"], name

    @pytest.mark.parametrize("path", ["map", "owned session", "WorkerPool session"])
    def test_failure_cancels_queued_items(self, path, tmp_path):
        """A failing item stops the queue: unstarted items never run.

        Item 0 fails at once while 19 items of 0.1 s wait behind it on two
        workers.  Sessions submit single items, all at once: only those
        already handed to a worker process may still run, one per worker
        plus the pool's call queue of ``workers + 1``, so at most
        ``2 * 2 + 1`` items.  map submits chunks of ``ceil(20 / 8) = 3``
        items through a window of ``workers = 2`` chunks in flight, topped
        up only when a chunk finishes.  The failing chunk 0 finishes first
        (its neighbour sleeps 0.3 s), before any top-up, so only the other
        chunk in the window, ``(2 - 1) * 3`` items, may run.
        """
        items = list(range(20))
        bound = (2 - 1) * 3 if path == "map" else 2 * 2 + 1
        with pytest.raises(ValueError, match="item zero"):
            if path == "map":
                ParallelExecutor(workers=2).map(_mark_then_sleep, items, str(tmp_path))
            elif path == "owned session":
                with ParallelExecutor(workers=2).session(
                    _mark_then_sleep, str(tmp_path)
                ) as session:
                    _drain_session(session, items)
            else:
                with WorkerPool(workers=2) as pool:
                    with pool.session(_mark_then_sleep, str(tmp_path)) as session:
                        _drain_session(session, items)
        ran = len(list(tmp_path.iterdir()))
        assert ran <= bound

    def test_resolve_workers(self):
        assert resolve_workers(None) == 0
        assert resolve_workers(0) == 0
        assert resolve_workers(3) == 3
        assert resolve_workers(-1) == usable_cpu_count()
        assert resolve_workers(-1) >= 1


# ----------------------------------------------------------------- seeding
class TestSeeding:
    def test_spawn_is_deterministic(self):
        first = [g.integers(0, 2**32, size=4).tolist() for g in spawn_generators(7, 5)]
        second = [g.integers(0, 2**32, size=4).tolist() for g in spawn_generators(7, 5)]
        assert first == second

    def test_children_are_independent(self):
        draws = [g.integers(0, 2**32, size=4).tolist() for g in spawn_generators(7, 5)]
        assert len({tuple(d) for d in draws}) == 5

    def test_generator_root_is_consumed_once(self):
        parent = np.random.default_rng(0)
        children = spawn_seed_sequences(parent, 3)
        assert len(children) == 3

    def test_shard_sizes(self):
        assert shard_sizes(10, 4) == [4, 4, 2]
        assert shard_sizes(8, 4) == [4, 4]
        assert shard_sizes(3, 10) == [3]
        assert shard_sizes(0, 10) == []
        with pytest.raises(ValueError):
            shard_sizes(10, 0)
        with pytest.raises(ValueError):
            shard_sizes(-1, 4)

    def test_seed_sequences_are_picklable(self):
        children = spawn_seed_sequences(0, 2)
        clones = pickle.loads(pickle.dumps(children))
        assert [np.random.default_rng(c).integers(0, 100) for c in clones] == [
            np.random.default_rng(c).integers(0, 100) for c in children
        ]


# ---------------------------------------------------------- netlist pickle
class TestPicklableTaskSpecs:
    def test_netlist_round_trip_preserves_structure_and_timing(self, library_set):
        mac = build_mac()
        clone = pickle.loads(pickle.dumps(mac))
        assert clone.netlist.stats() == mac.netlist.stats()
        inputs = {"a": 37, "b": 201, "c": 5000}
        assert (
            LogicSimulator(clone.netlist).evaluate(inputs)
            == LogicSimulator(mac.netlist).evaluate(inputs)
        )
        aged = library_set.library(50.0)
        assert (
            StaticTimingAnalyzer(clone, aged).critical_path_delay()
            == StaticTimingAnalyzer(mac, aged).critical_path_delay()
        )

    def test_round_trip_preserves_fanout_order(self):
        multiplier = build_multiplier(4, "array")
        clone = pickle.loads(pickle.dumps(multiplier))
        for original, copy in zip(multiplier.netlist.gates, clone.netlist.gates):
            assert original.cell_name == copy.cell_name
            assert original.output.fanout == copy.output.fanout


# ------------------------------------------------------- timing-error sweep
@pytest.fixture(scope="module")
def sweep_unit():
    return build_multiplier(5, "array")


def _run_sweep(unit, libraries, **overrides):
    kwargs = dict(
        levels_mv=(0.0, 30.0, 50.0),
        num_samples=60,
        rng=0,
        effective_output_width=10,
        arrival_model="settle",
        samples_per_shard=16,
    )
    kwargs.update(overrides)
    return sweep_timing_errors(unit, libraries, **kwargs)


class TestTimingSweepDeterminism:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_parallel_matches_serial_bit_for_bit(self, sweep_unit, library_set, workers):
        serial = _run_sweep(sweep_unit, library_set)
        parallel = _run_sweep(sweep_unit, library_set, workers=workers)
        assert parallel == serial

    def test_event_model_parallel_matches_serial(self, sweep_unit, library_set):
        serial = _run_sweep(sweep_unit, library_set, arrival_model="event", num_samples=24)
        parallel = _run_sweep(
            sweep_unit, library_set, arrival_model="event", num_samples=24, workers=2
        )
        assert parallel == serial

    def test_results_sorted_by_level_regardless_of_input_order(self, sweep_unit, library_set):
        shuffled = _run_sweep(sweep_unit, library_set, levels_mv=(50.0, 0.0, 30.0))
        ordered = _run_sweep(sweep_unit, library_set, levels_mv=(0.0, 30.0, 50.0))
        assert shuffled == ordered
        assert [stat.delta_vth_mv for stat in shuffled] == [0.0, 30.0, 50.0]

    def test_levels_share_the_input_transition_chain(self, sweep_unit, library_set):
        """Common random numbers: the fresh level errors nowhere, and every
        level draws the same vectors, so per-level statistics at one shard
        plan never depend on which other levels are swept."""
        alone = _run_sweep(sweep_unit, library_set, levels_mv=(50.0,))
        together = _run_sweep(sweep_unit, library_set, levels_mv=(0.0, 30.0, 50.0))
        assert together[-1] == alone[0]

    def test_shard_plan_changes_streams_but_not_contract(self, sweep_unit, library_set):
        """samples_per_shard is part of the statistical contract (it fixes
        the shard decomposition), unlike workers, which is a pure
        dispatch knob."""
        serial = _run_sweep(sweep_unit, library_set, samples_per_shard=64)
        parallel = _run_sweep(sweep_unit, library_set, samples_per_shard=64, workers=3)
        assert parallel == serial

    def test_custom_closure_sampler_keeps_results_identical(self, sweep_unit, library_set):
        """A closure sampler parallelises under fork (inherited) and falls
        back to serial under spawn — bit-identical statistics either way."""
        widths = dict(sweep_unit.input_widths)

        def sampler(rng):  # closure: cannot be pickled
            return {name: int(rng.integers(0, 1 << width)) for name, width in widths.items()}

        serial = _run_sweep(sweep_unit, library_set, input_sampler=sampler)
        fallback = _run_sweep(sweep_unit, library_set, input_sampler=sampler, workers=2)
        assert fallback == serial
        assert serial[-1].error_rate > 0.0

    def test_invalid_samples_per_shard_rejected(self, sweep_unit, library_set):
        with pytest.raises(ValueError):
            _run_sweep(sweep_unit, library_set, samples_per_shard=0)


# ---------------------------------------------------- fault-injection sweep
class TestFaultSweepDeterminism:
    def test_parallel_matches_serial_bit_for_bit(self, tiny_model, tiny_dataset, tiny_calibration):
        x_test = tiny_dataset.x_test[:40]
        y_test = tiny_dataset.y_test[:40]
        kwargs = dict(
            flip_probabilities=(0.0, 1e-3, 1e-2),
            repetitions=2,
            seed=3,
        )
        serial = sweep_fault_injection(
            tiny_model, get_method("M2"), tiny_calibration, x_test, y_test, **kwargs
        )
        parallel = sweep_fault_injection(
            tiny_model, get_method("M2"), tiny_calibration, x_test, y_test,
            workers=2, **kwargs
        )
        assert parallel == serial
        assert set(serial) == {0.0, 1e-3, 1e-2}


# ------------------------------------------------------- quantization grid
class TestQuantizationGridDeterminism:
    def test_parallel_matches_serial(self, tiny_model, tiny_dataset, tiny_recording):
        x_test = tiny_dataset.x_test[:40]
        y_test = tiny_dataset.y_test[:40]
        tiles = [
            (method_key, 8 - alpha, 8 - beta, 16 - alpha - beta)
            for method_key in ("M2", "M4")
            for alpha, beta in ((0, 0), (2, 2), (4, 4))
        ]
        serial = sweep_quantization_grid(tiny_model, tiles, tiny_recording, x_test, y_test)
        parallel = sweep_quantization_grid(
            tiny_model, tiles, tiny_recording, x_test, y_test, workers=2
        )
        assert parallel == serial
        assert [e.method_key for e in serial] == [t[0] for t in tiles]
        assert all(e.fp32_accuracy == serial[0].fp32_accuracy for e in serial)

    def test_repeated_widths_and_a_warm_recording(self, tiny_model, tiny_dataset, tiny_calibration):
        x_test = tiny_dataset.x_test[:40]
        y_test = tiny_dataset.y_test[:40]
        # Widths repeat within and across methods, so tiles share memo entries.
        tiles = [
            (method_key, 8 - alpha, 8 - beta, 16 - alpha - beta)
            for method_key in ("M3", "M4", "M5")
            for alpha, beta in ((0, 2), (2, 2), (2, 0), (0, 2))
        ]
        recording = record_calibration(tiny_model, tiny_calibration)

        def parallel_sweep():
            with observability.collecting() as recorded:
                evaluations = sweep_quantization_grid(
                    tiny_model, tiles, recording, x_test, y_test, workers=2
                )
            return evaluations, recorded.metrics.gauges["executor.payload_bytes"].value

        cold, cold_payload = parallel_sweep()
        serial = sweep_quantization_grid(tiny_model, tiles, recording, x_test, y_test)
        warm, warm_payload = parallel_sweep()
        assert cold == serial == warm
        # The memo the serial sweep filled is not shipped to the workers.
        assert warm_payload == cold_payload


# --------------------------------------------------- multi-corner STA pass
class TestBatchedCaseAnalysis:
    def test_batch_matches_per_corner_delays(self, paper_mac, library_set):
        analyzer = StaticTimingAnalyzer(paper_mac, library_set.library(40.0))
        cases = [None, {}]
        cases += [
            mac_case_analysis(alpha, beta, padding)
            for alpha in (0, 2, 5)
            for beta in (1, 3)
            for padding in (Padding.MSB, Padding.LSB)
        ]
        batched = analyzer.case_analysis_delays(cases)
        individual = [analyzer.critical_path_delay(case) for case in cases]
        assert batched == individual

    def test_single_levelized_pass_per_batch(self, paper_mac, library_set):
        analyzer = StaticTimingAnalyzer(paper_mac, library_set.fresh)
        cases = [mac_case_analysis(alpha, alpha, Padding.LSB) for alpha in range(5)]
        before = analyzer.levelized_passes
        analyzer.case_analysis_delays(cases)
        assert analyzer.levelized_passes == before + 1

    def test_empty_batch(self, paper_mac, library_set):
        analyzer = StaticTimingAnalyzer(paper_mac, library_set.fresh)
        assert analyzer.case_analysis_delays([]) == []
