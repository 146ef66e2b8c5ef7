"""Tests of the dependency-aware experiment pipeline (repro.pipeline).

Covers the graph layer (topology, closure, validation), the input-addressed
cache keys (stability + subtree invalidation), the artifact cache
round-trips, and the scheduler contracts: bit-identical results for any
worker count, warm-cache reruns that execute zero experiment bodies, and the
``fig4b -> table1`` dependency edge that replaced the old runner's
hard-coded special case.
"""

from __future__ import annotations

import hashlib
import json
import warnings

import pytest

import repro.observability as observability
from repro.experiments.reporting import ExperimentResult, _jsonify
from repro.experiments.settings import ExperimentSettings
from repro.experiments.workspace import ExperimentWorkspace
from repro.experiments.fig1a_multiplier_errors import run_fig1a
from repro.experiments.fig2_mac_delay import run_fig2
from repro.experiments.fig4_delay_accuracy import run_fig4a, run_fig4b
from repro.experiments.fig5_energy import run_fig5
from repro.experiments.table1_accuracy import run_table1
from repro.experiments.table2_compression import run_table2
from repro.parallel import ParallelExecutor
from repro.pipeline import (
    ArtifactCache,
    EXPERIMENT_NAMES,
    Task,
    TaskGraph,
    build_experiment_graph,
    compute_cache_keys,
    run_pipeline,
)
from repro.pipeline.task import PICKLE_FORMAT, PRODUCT


def canonical(result: ExperimentResult) -> str:
    """JSON-canonical form: what save_json writes, invariant to the cache.

    A cache round-trip JSON-normalises containers (tuples become lists,
    float dict keys become strings); the serialised text is identical.
    """
    return json.dumps(result.to_dict(), indent=2, default=_jsonify)


@pytest.fixture(scope="module")
def hw_settings() -> ExperimentSettings:
    """Hardware-side experiments only: no dataset, no model training."""
    return ExperimentSettings.fast(
        error_samples=60,
        energy_transitions=50,
        max_alpha=4,
        max_beta=4,
        test_subset=40,
        fig2_max_compression=3,
    )


@pytest.fixture(scope="module")
def nn_settings(tmp_path_factory) -> ExperimentSettings:
    """Tiny but complete NN-side settings (one network, one aged level)."""
    return ExperimentSettings.fast(
        train_per_class=8,
        test_per_class=4,
        training_epochs=1,
        training_batch_size=8,
        test_subset=8,
        calibration_samples=8,
        table1_networks=("squeezenet",),
        fig1b_networks=("resnet20",),
        ablation_networks=("squeezenet",),
        aging_levels_mv=(0.0, 50.0),
        max_alpha=3,
        max_beta=3,
        cache_dir=tmp_path_factory.mktemp("nn-zoo-cache"),
    )


class TestTaskGraph:
    def test_registry_covers_every_experiment(self, hw_settings):
        graph = build_experiment_graph(hw_settings)
        assert {task.name for task in graph.experiments()} == set(EXPERIMENT_NAMES)
        graph.validate()

    def test_fig4b_depends_on_table1(self, hw_settings):
        graph = build_experiment_graph(hw_settings)
        assert "table1" in graph["fig4b"].depends
        closure = graph.closure(["fig4b"])
        assert "table1" in closure and "dataset" in closure

    def test_model_tasks_follow_settings(self, hw_settings):
        settings = hw_settings.with_overrides(
            table1_networks=("vgg16",), fig1b_networks=("resnet20",), ablation_networks=("vgg16",)
        )
        graph = build_experiment_graph(settings)
        models = [name for name in graph.names if name.startswith("model:")]
        assert models == ["model:resnet20", "model:vgg16"]
        assert graph["fig1b"].depends == ("dataset", "model:resnet20")

    def test_topological_order_is_dependency_closed_and_stable(self, hw_settings):
        graph = build_experiment_graph(hw_settings)
        order = [task.name for task in graph.topological_order()]
        position = {name: index for index, name in enumerate(order)}
        for task in graph:
            for dep in task.depends:
                assert position[dep] < position[task.name]
        assert order == [task.name for task in graph.topological_order()]

    def test_cycle_detection(self):
        graph = TaskGraph(
            [
                Task("a", lambda ctx: None, depends=("b",)),
                Task("b", lambda ctx: None, depends=("a",)),
            ]
        )
        with pytest.raises(ValueError, match="cycle"):
            graph.topological_order()

    def test_unknown_dependency_rejected(self):
        graph = TaskGraph([Task("a", lambda ctx: None, depends=("ghost",))])
        with pytest.raises(KeyError, match="ghost"):
            graph.validate()

    def test_light_task_may_not_depend_on_heavy(self):
        graph = TaskGraph(
            [
                Task("heavy", lambda ctx: None, heavy=True),
                Task("light", lambda ctx: None, depends=("heavy",), heavy=False),
            ]
        )
        with pytest.raises(ValueError, match="light"):
            graph.validate()

    def test_duplicate_task_rejected(self):
        graph = TaskGraph([Task("a", lambda ctx: None)])
        with pytest.raises(ValueError, match="duplicate"):
            graph.add(Task("a", lambda ctx: None))


class TestCacheKeys:
    def test_keys_are_stable_across_processes_worth_of_rebuilds(self, hw_settings):
        first = compute_cache_keys(build_experiment_graph(hw_settings), hw_settings)
        second = compute_cache_keys(build_experiment_graph(hw_settings), hw_settings)
        assert first == second

    def test_unrelated_field_change_keeps_keys_warm(self, hw_settings):
        keys = compute_cache_keys(build_experiment_graph(hw_settings), hw_settings)
        changed = hw_settings.with_overrides(energy_transitions=999)
        keys2 = compute_cache_keys(build_experiment_graph(changed), changed)
        assert keys2["fig5"] != keys["fig5"]
        for untouched in ("fig1a", "fig2", "table2", "table1", "fig4b", "dataset"):
            assert keys2[untouched] == keys[untouched]

    def test_throughput_knobs_never_change_keys(self, hw_settings):
        keys = compute_cache_keys(build_experiment_graph(hw_settings), hw_settings)
        changed = hw_settings.with_overrides(workers=4)
        assert compute_cache_keys(build_experiment_graph(changed), changed) == keys

    def test_fig1a_key_has_no_throughput_knob(self, hw_settings):
        """The sweep runs each shard as one batch on the backend it picks
        itself, so fig1a's key ignores the worker count, and no lane-count
        or backend setting exists to key on."""
        keys = compute_cache_keys(build_experiment_graph(hw_settings), hw_settings)
        changed = hw_settings.with_overrides(workers=2)
        keys2 = compute_cache_keys(build_experiment_graph(changed), changed)
        assert keys2["fig1a"] == keys["fig1a"]
        with pytest.raises(TypeError):
            ExperimentSettings.fast(sim_batch_size=8192)
        with pytest.raises(TypeError):
            ExperimentSettings.fast(sim_backend="ndarray")

    @staticmethod
    def _scenario_family(keys: "dict[str, str]") -> set[str]:
        return {
            name
            for name in keys
            if name == "scenario_sweep" or name.startswith("scenario_point:")
        }

    def test_scenario_fields_key_the_scenario_readers_only(self, hw_settings):
        """The aging-scenario axis is statistical configuration of its
        readers: switching the family (or any of its knobs) must invalidate
        fig1a and the scenario_sweep point family (whose task *names* follow
        the axis) while every level-based experiment stays warm."""
        keys = compute_cache_keys(build_experiment_graph(hw_settings), hw_settings)
        changed = hw_settings.with_overrides(scenario="mission")
        keys2 = compute_cache_keys(build_experiment_graph(changed), changed)
        assert keys2["fig1a"] != keys["fig1a"]
        assert self._scenario_family(keys2) != self._scenario_family(keys)
        stable = set(keys) - {"fig1a"} - self._scenario_family(keys)
        assert stable == set(keys2) - {"fig1a"} - self._scenario_family(keys2)
        assert all(keys2[n] == keys[n] for n in stable)
        tweaked = changed.with_overrides(mission_years=(0.0, 2.0))
        keys3 = compute_cache_keys(build_experiment_graph(tweaked), tweaked)
        assert keys3["fig1a"] != keys2["fig1a"]

    def test_seed_change_invalidates_exactly_the_reading_subtree(self, hw_settings):
        keys = compute_cache_keys(build_experiment_graph(hw_settings), hw_settings)
        reseeded = hw_settings.with_overrides(seed=99)
        keys2 = compute_cache_keys(build_experiment_graph(reseeded), reseeded)
        # Everything that (transitively) draws randomness moves...
        for seeded in ("dataset", "model:squeezenet", "table1", "fig4b", "fig1a", "fig5"):
            assert keys2[seeded] != keys[seeded]
        # ...while the purely structural STA tasks stay put.
        for unseeded in ("mac", "library_set", "pipeline", "fig2", "table2", "fig4a"):
            assert keys2[unseeded] == keys[unseeded]

    def test_upstream_invalidation_propagates_through_edges(self, hw_settings):
        keys = compute_cache_keys(build_experiment_graph(hw_settings), hw_settings)
        changed = hw_settings.with_overrides(training_epochs=99)
        keys2 = compute_cache_keys(build_experiment_graph(changed), changed)
        assert keys2["model:squeezenet"] != keys["model:squeezenet"]
        assert keys2["table1"] != keys["table1"]  # via model edge
        assert keys2["fig4b"] != keys["fig4b"]  # via table1 edge
        assert keys2["dataset"] == keys["dataset"]


class TestArtifactCache:
    def test_result_round_trip_preserves_json_form(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        task = Task("demo", lambda ctx: None)
        result = ExperimentResult(
            "demo", "Demo", ["x"], [[1.5]], metadata={"levels": (1.0, 2.0), 3.0: "k"}
        )
        assert not cache.contains(task, "k" * 8)
        cache.store(task, "k" * 8, result)
        assert cache.contains(task, "k" * 8)
        loaded = cache.load(task, "k" * 8)
        assert canonical(loaded) == canonical(result)
        meta = json.loads(cache.meta_path(task, "k" * 8).read_text())
        assert meta["task"] == "demo" and meta["format"] == "json"

    def test_pickle_round_trip_for_products(self, tmp_path):
        import numpy as np

        cache = ArtifactCache(tmp_path)
        task = Task("library_set", lambda ctx: None, kind=PRODUCT, serializer=PICKLE_FORMAT)
        value = {"array": np.arange(5), "tag": "libs"}
        cache.store(task, "abc", value)
        loaded = cache.load(task, "abc")
        assert loaded["tag"] == "libs"
        assert np.array_equal(loaded["array"], value["array"])

    def test_corrupt_entries_are_counted_misses(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        task = Task("library_set", lambda ctx: None, kind=PRODUCT, serializer=PICKLE_FORMAT)
        for key in ("truncated", "no-sidecar", "undecodable"):
            cache.store(task, key, {"tag": key})
        path = cache.artifact_path(task, "truncated")
        path.write_bytes(path.read_bytes()[:-3])
        cache.meta_path(task, "no-sidecar").unlink()
        # Bytes that match the sidecar's hash but are not a pickle.
        garbage = b"not a pickle"
        cache.artifact_path(task, "undecodable").write_bytes(garbage)
        meta_path = cache.meta_path(task, "undecodable")
        meta = json.loads(meta_path.read_text())
        meta["content_sha256"] = hashlib.sha256(garbage).hexdigest()
        meta_path.write_text(json.dumps(meta))
        cache.store(task, "sound", {"tag": "sound"})
        with observability.collecting() as recorded:
            assert not cache.contains(task, "truncated")
            assert not cache.contains(task, "no-sidecar")
            assert not cache.contains(task, "undecodable")
            assert not cache.contains(task, "absent")
            assert cache.contains(task, "sound")
        assert recorded.metrics.counter("pipeline.cache.corrupt") == 3
        cache.store(task, "truncated", {"tag": "again"})
        assert cache.contains(task, "truncated")
        assert cache.load(task, "truncated") == {"tag": "again"}

    def test_uncacheable_tasks_are_never_stored(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        task = Task("mac", lambda ctx: None, kind=PRODUCT, cacheable=False, serializer=PICKLE_FORMAT)
        assert cache.store(task, "abc", object()) is None
        assert not cache.contains(task, "abc")

    def test_model_task_directories_are_filesystem_safe(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        task = Task("model:vgg16", lambda ctx: None, kind=PRODUCT, serializer=PICKLE_FORMAT)
        path = cache.store(task, "abc", [1, 2])
        assert path.parent.name == "model_vgg16"


class TestSchedulerHardware:
    """Scheduler contracts on the circuit-side experiments (fast)."""

    NAMES = ("fig1a", "fig2", "table2", "fig4a", "fig5")

    @pytest.fixture(scope="class")
    def sequential_reference(self, hw_settings):
        """The PR 3 sequential runner semantics: one shared workspace."""
        workspace = ExperimentWorkspace.create(hw_settings)
        runners = {
            "fig1a": run_fig1a,
            "fig2": run_fig2,
            "table2": run_table2,
            "fig4a": run_fig4a,
            "fig5": run_fig5,
        }
        return {name: canonical(runners[name](workspace=workspace)) for name in self.NAMES}

    @pytest.mark.parametrize("workers", [0, 2, 4])
    def test_bit_identical_to_sequential_runner(self, hw_settings, sequential_reference, workers):
        run = run_pipeline(
            list(self.NAMES), hw_settings.with_overrides(workers=workers), cache=False
        )
        for name in self.NAMES:
            assert canonical(run.results[name]) == sequential_reference[name], name

    def test_subsets_are_bit_identical_too(self, hw_settings, sequential_reference):
        run = run_pipeline(["fig5", "fig1a"], hw_settings, cache=False)
        assert run.requested == ("fig5", "fig1a")
        assert canonical(run.results_list()[0]) == sequential_reference["fig5"]
        assert canonical(run.results_list()[1]) == sequential_reference["fig1a"]

    def test_warm_cache_rerun_executes_zero_experiment_bodies(self, hw_settings, tmp_path):
        cold = run_pipeline(["fig1a", "fig2", "table2"], hw_settings, cache_dir=tmp_path)
        assert cold.executed_experiments == ("fig1a", "fig2", "table2")
        assert all(cold.records[name].stored for name in cold.executed_experiments)
        warm = run_pipeline(["fig1a", "fig2", "table2"], hw_settings, cache_dir=tmp_path)
        assert warm.executed == ()  # not even the netlist builders run
        assert warm.cache_hits == ("fig1a", "fig2", "table2")
        for name in ("fig1a", "fig2", "table2"):
            assert canonical(warm.results[name]) == canonical(cold.results[name])

    def test_truncated_artifact_is_recomputed_and_overwritten(
        self, hw_settings, tmp_path, monkeypatch
    ):
        cold = run_pipeline(["fig2"], hw_settings, cache_dir=tmp_path)
        cache = ArtifactCache(cold.cache_root)
        path = cache.root / "fig2" / f"{cold.records['fig2'].key}.json"
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with observability.collecting() as recorded:
            rerun = run_pipeline(["fig2"], hw_settings, cache_dir=tmp_path)
        assert recorded.metrics.counter("pipeline.cache.corrupt") == 1
        assert rerun.executed_experiments == ("fig2",)
        assert canonical(rerun.results["fig2"]) == canonical(cold.results["fig2"])
        assert path.read_bytes() == blob
        # A warm run verifies only what it may load: fig2, not its inputs.
        probed = []
        contains = ArtifactCache.contains

        def recording_contains(self, task, key):
            probed.append(task.name)
            return contains(self, task, key)

        monkeypatch.setattr(ArtifactCache, "contains", recording_contains)
        warm = run_pipeline(["fig2"], hw_settings, cache_dir=tmp_path)
        assert warm.executed == () and warm.cache_hits == ("fig2",)
        assert probed == ["fig2"]

    def test_settings_change_invalidates_only_the_affected_subtree(self, hw_settings, tmp_path):
        run_pipeline(["fig1a", "fig5"], hw_settings, cache_dir=tmp_path)
        changed = hw_settings.with_overrides(energy_transitions=60)
        second = run_pipeline(["fig1a", "fig5"], changed, cache_dir=tmp_path)
        assert second.executed_experiments == ("fig5",)
        assert "fig1a" in second.cache_hits

    def test_disabled_cache_stores_nothing(self, hw_settings, tmp_path):
        run = run_pipeline(["fig2"], hw_settings, cache=False, cache_dir=tmp_path)
        assert run.executed_experiments == ("fig2",)
        assert not any(tmp_path.iterdir())

    def test_workers_do_not_touch_the_cold_cache_semantics(self, hw_settings, tmp_path):
        cold = run_pipeline(
            ["fig1a", "fig2", "table2"],
            hw_settings.with_overrides(workers=2),
            cache_dir=tmp_path,
        )
        assert cold.executed_experiments == ("fig1a", "fig2", "table2")
        warm = run_pipeline(["fig1a", "fig2", "table2"], hw_settings, cache_dir=tmp_path)
        assert warm.executed == ()
        for name in ("fig1a", "fig2", "table2"):
            assert canonical(warm.results[name]) == canonical(cold.results[name])

    def test_unknown_experiment_rejected(self, hw_settings):
        with pytest.raises(KeyError, match="fig99"):
            run_pipeline(["fig99"], hw_settings, cache=False)

    def test_completed_outputs_survive_a_mid_run_crash(self, hw_settings, tmp_path, monkeypatch):
        """Each requested JSON is written as soon as its task finishes."""
        import repro.pipeline.registry as registry_module

        def exploding_table2(*args, **kwargs):
            raise RuntimeError("simulated crash")

        monkeypatch.setattr(registry_module, "run_table2", exploding_table2)
        with pytest.raises(RuntimeError, match="simulated crash"):
            run_pipeline(
                ["fig2", "table2"], hw_settings, cache=False, output_dir=tmp_path
            )
        assert (tmp_path / "fig2.json").exists()  # completed before the crash
        assert not (tmp_path / "table2.json").exists()

    def test_explain_reports_every_task_in_the_closure(self, hw_settings, tmp_path):
        run = run_pipeline(["fig2"], hw_settings, cache_dir=tmp_path)
        report = run.explain()
        for name in ("fig2", "pipeline", "mac", "library_set"):
            assert name in report
        assert "executed" in report
        warm = run_pipeline(["fig2"], hw_settings, cache_dir=tmp_path)
        assert "hit" in warm.explain() and "pruned" in warm.explain()


class TestSchedulerNN:
    """The fig4b regression and model-task scheduling (tiny NN settings)."""

    def test_fig4b_alone_runs_and_caches_table1(self, nn_settings, tmp_path):
        run = run_pipeline(["fig4b"], nn_settings, cache_dir=tmp_path)
        # The old runner silently passed table1=None here; now it is an edge.
        assert "table1" in run.executed_experiments
        assert run.records["table1"].stored
        # fig4b aggregated a real table1, not a recomputed stub: the loss
        # columns must match the cached table1 artifact.
        warm = run_pipeline(["fig4b", "table1"], nn_settings, cache_dir=tmp_path)
        assert warm.executed_experiments == ()
        losses = warm.results["table1"].column_values("accuracy_loss_percent")
        assert warm.results["fig4b"].rows  # one row per aged level
        assert len(losses) == len(nn_settings.aged_levels_mv)

    def test_fig4b_matches_direct_sequential_run(self, nn_settings):
        workspace = ExperimentWorkspace.create(nn_settings)
        table1 = run_table1(workspace=workspace)
        reference = run_fig4b(workspace=workspace, table1=table1)
        run = run_pipeline(["fig4b"], nn_settings, cache=False)
        assert canonical(run.results["fig4b"]) == canonical(reference)

    def test_parallel_nn_run_is_bit_identical_and_overlaps_training(self, nn_settings):
        serial = run_pipeline(["fig4b", "fig1b"], nn_settings, cache=False)
        parallel = run_pipeline(
            ["fig4b", "fig1b"], nn_settings.with_overrides(workers=2), cache=False
        )
        for name in ("fig4b", "fig1b"):
            assert canonical(parallel.results[name]) == canonical(serial.results[name])
        # Model training and the experiments were dispatched, not inlined.
        assert parallel.records["model:squeezenet"].where == "worker"
        assert parallel.records["model:resnet20"].where == "worker"
        assert parallel.records["fig1b"].where == "worker"

    def test_pure_chains_run_inline_with_inner_parallelism(self, nn_settings):
        # model:squeezenet -> table1 -> fig4b is a chain: overlap cannot
        # help, so the pipeline keeps the old inner-sweep parallelism.
        run = run_pipeline(["fig4b"], nn_settings.with_overrides(workers=2), cache=False)
        assert all(run.records[name].where == "inline" for name in run.executed)


class TestExecutorSession:
    def test_serial_session_runs_inline(self):
        executor = ParallelExecutor(workers=0)
        with executor.session(lambda item, payload: item * payload, 10) as session:
            assert not session.parallel
            tickets = [session.submit(i) for i in range(5)]
            results = dict(session.wait_any() for _ in tickets)
        assert results == {i: i * 10 for i in range(5)}

    def test_parallel_session_matches_serial(self):
        executor = ParallelExecutor(workers=2)
        with executor.session(_square_plus, 3) as session:
            tickets = {session.submit(i): i for i in range(8)}
            results = {}
            while session.outstanding:
                ticket, value = session.wait_any()
                results[tickets[ticket]] = value
        assert results == {i: i * i + 3 for i in range(8)}

    def test_wait_any_without_work_raises(self):
        executor = ParallelExecutor(workers=0)
        with executor.session(lambda item, payload: item) as session:
            with pytest.raises(RuntimeError, match="no outstanding"):
                session.wait_any()

    def test_worker_exception_propagates(self):
        executor = ParallelExecutor(workers=2)
        with executor.session(_raise_on_negative, None) as session:
            session.submit(-1)
            with pytest.raises(ValueError, match="negative"):
                session.wait_any()

    def test_unpicklable_task_falls_back_serially_under_spawn(self):
        executor = ParallelExecutor(workers=2, start_method="spawn")
        payload = lambda x: x  # noqa: E731 - deliberately unpicklable payload
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with executor.session(_square_plus, payload) as session:
                assert not session.parallel
        assert any("not picklable" in str(w.message) for w in caught)


def _square_plus(item, payload):
    return item * item + payload


def _raise_on_negative(item, payload):
    if item < 0:
        raise ValueError("negative item")
    return item
