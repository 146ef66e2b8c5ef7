"""Tests of the unified observability layer (repro.observability).

Pins down the three contracts the subsystem is built on:

* **mergeable metrics** — counter/gauge/histogram merges are associative and
  commutative, so worker snapshots aggregate to the same numbers for any
  sharding, chunking or arrival order;
* **inertness** — experiment results are byte-identical with observability
  on vs. off, for any workers count (recording is *about*
  the work, never *into* it), and the disabled path is a no-op;
* **exports** — the Chrome trace-event JSON is schema-valid and the span
  tree nests pipeline run -> task -> sweep -> shard; the metrics sidecar
  and the ``.meta.json`` timing/hit history feed ``--explain``.
"""

from __future__ import annotations

import json
import pickle

import pytest

import repro.observability as observability
from repro.circuits.simulator import EventCounters
from repro.experiments.reporting import _jsonify
from repro.experiments.runner import main as runner_main
from repro.experiments.settings import ExperimentSettings
from repro.observability import ObservabilitySnapshot
from repro.observability.export import (
    SIDECAR_SCHEMA_VERSION,
    format_run_report,
    metrics_sidecar,
    span_tree,
    write_chrome_trace,
)
from repro.observability.metrics import BUCKET_BOUNDS, Gauge, Histogram, MetricsRegistry
from repro.observability.tracer import NULL_ARGS, NULL_SPAN
from repro.pipeline import ArtifactCache, run_pipeline
from repro.timing.error_model import sweep_timing_errors


@pytest.fixture(autouse=True)
def _clean_observability():
    """Every test starts and ends with recording off and state empty."""
    observability.disable()
    observability.reset()
    yield
    observability.disable()
    observability.reset()


@pytest.fixture(scope="module")
def hw_settings() -> ExperimentSettings:
    return ExperimentSettings.fast(
        error_samples=60,
        energy_transitions=50,
        max_alpha=4,
        max_beta=4,
        test_subset=40,
        fig2_max_compression=3,
    )


def canonical(result) -> str:
    return json.dumps(result.to_dict(), indent=2, default=_jsonify)


def _sample_registry(seed: int) -> MetricsRegistry:
    registry = MetricsRegistry()
    for i in range(5):
        registry.add("events", seed + i)
        registry.add("bytes", (seed + i) * 0.125)
        registry.observe("latency", 10.0 ** ((seed + i) % 7 - 3) * 1.7)
        registry.observe("latency", 0.1 + seed / 3.0)
    registry.gauge("peak", 10.0 + seed * 3.3)
    registry.gauge("floor", 5.0 - seed * 1.1, mode="min")
    return registry


class TestMetricsRegistry:
    def test_counters_sum_and_stay_int(self):
        registry = MetricsRegistry()
        registry.add("n")
        registry.add("n", 41)
        assert registry.counter("n") == 42
        assert isinstance(registry.counter("n"), int)
        assert registry.counter("missing") == 0

    def test_gauge_modes_are_commutative_only(self):
        registry = MetricsRegistry()
        registry.gauge("hi", 3.0)
        registry.gauge("hi", 1.0)
        registry.gauge("lo", 3.0, mode="min")
        registry.gauge("lo", 1.0, mode="min")
        assert registry.gauges["hi"].value == 3.0
        assert registry.gauges["lo"].value == 1.0
        with pytest.raises(ValueError):
            Gauge(1.0, mode="last")  # no order-dependent policy exists
        with pytest.raises(ValueError):
            registry.gauge("hi", 2.0, mode="min")  # kind confusion is an error
        with pytest.raises(ValueError):
            Gauge(1.0, "max").merge(Gauge(2.0, "min"))

    def test_histogram_semantics(self):
        histogram = Histogram()
        for value in (0.5e-6, 1.0, 3.0, 2.0e6):
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.min == 0.5e-6
        assert histogram.max == 2.0e6
        assert histogram.total == pytest.approx(4.0 + 0.5e-6 + 2.0e6)
        assert len(histogram.buckets) == len(BUCKET_BOUNDS) + 1
        assert histogram.buckets[0] == 1  # below the first bound
        assert histogram.buckets[-1] == 1  # overflow bucket
        assert sum(histogram.buckets) == histogram.count
        assert histogram.mean == pytest.approx(histogram.total / 4)

    def test_merge_is_associative_and_commutative(self):
        parts = [_sample_registry(seed) for seed in range(4)]

        def fold(order, grouping):
            if grouping == "left":
                total = MetricsRegistry()
                for index in order:
                    total.merge(parts[index].snapshot())
                return total
            # right-associated: a ⊕ (b ⊕ (c ⊕ d))
            total = parts[order[-1]].snapshot()
            for index in reversed(order[:-1]):
                total = parts[index].snapshot().merge(total)
            return total

        reference = fold((0, 1, 2, 3), "left").to_dict()
        assert fold((3, 1, 0, 2), "left").to_dict() == reference
        assert fold((0, 1, 2, 3), "right").to_dict() == reference
        assert fold((2, 3, 0, 1), "right").to_dict() == reference

    def test_snapshot_is_independent_and_picklable(self):
        registry = _sample_registry(1)
        copy = registry.snapshot()
        registry.add("events", 100)
        registry.observe("latency", 9.0)
        assert copy.counter("events") != registry.counter("events")
        snapshot = ObservabilitySnapshot(metrics=copy)
        restored = pickle.loads(pickle.dumps(snapshot))
        assert restored.metrics.to_dict() == copy.to_dict()


class TestTracerAndLifecycle:
    def test_spans_nest_via_parent_ids(self):
        with observability.collecting() as snap:
            with observability.span("outer", category="test"):
                with observability.span("inner", category="test") as args:
                    args["detail"] = 7
        by_name = {span.name: span for span in snap.spans}
        assert by_name["inner"].parent_id == by_name["outer"].span_id
        assert by_name["outer"].parent_id is None
        assert by_name["inner"].args == {"detail": 7}
        assert by_name["outer"].duration_s >= by_name["inner"].duration_s >= 0.0

    def test_disabled_path_records_nothing(self):
        assert not observability.is_enabled()
        context = observability.span("ignored", category="test")
        assert context is NULL_SPAN
        with context as args:
            args["written"] = True
            args.update(more=1)
        assert args is NULL_ARGS and len(args) == 0
        observability.add("counter")
        observability.gauge("gauge", 1.0)
        observability.observe("histogram", 1.0)
        snap = observability.snapshot()
        assert not snap.metrics and snap.spans == []

    def test_collecting_isolates_and_restores(self):
        observability.enable()
        observability.add("outer.counter")
        with observability.collecting() as snap:
            observability.add("inner.counter")
        assert snap.metrics.counter("inner.counter") == 1
        assert snap.metrics.counter("outer.counter") == 0
        assert observability.snapshot().metrics.counter("inner.counter") == 0
        observability.merge_snapshot(snap)
        assert observability.snapshot().metrics.counter("inner.counter") == 1


def _sweep_counters(unit, workers):
    with observability.collecting() as snap:
        stats = sweep_timing_errors(
            unit,
            levels_mv=(0.0, 30.0),
            num_samples=40,
            rng=11,
            samples_per_shard=10,
            workers=workers,
        )
    counters = {
        name: value
        for name, value in snap.metrics.counters.items()
        if name.startswith(("sweep.", "sim."))
    }
    return stats, counters


class TestWorkerInvariance:
    def test_sweep_counters_bit_identical_for_any_workers_and_chunking(
        self, small_multiplier
    ):
        """Per-shard recording makes merged sweep metrics worker-invariant.

        The shard plan depends only on (num_samples, samples_per_shard), so
        the ``sweep.*``/``sim.*`` counters — recorded inside the shard task,
        never per chunk or per process — must merge to identical values for
        every workers count, exactly like the statistics.
        """
        reference_stats, reference = _sweep_counters(small_multiplier, 0)
        assert reference["sweep.shards"] == 8  # 2 scenarios x 4 shards
        assert reference["sweep.samples"] == 80
        for workers in (1, 2, 4):
            stats, counters = _sweep_counters(small_multiplier, workers)
            assert stats == reference_stats, workers
            assert counters == reference, workers


class TestInertness:
    """Observability on vs. off never changes experiment bytes."""

    def test_fig1a_bytes_identical_on_vs_off(self, hw_settings, tmp_path):
        off = run_pipeline(["fig1a"], hw_settings, cache_dir=tmp_path / "off")
        observability.enable()
        on = run_pipeline(["fig1a"], hw_settings, cache_dir=tmp_path / "on")
        assert canonical(on.results["fig1a"]) == canonical(off.results["fig1a"])
        assert off.observability is None
        assert on.observability is not None

    def test_scenario_sweep_bytes_identical_on_vs_off(self, tmp_path):
        settings = ExperimentSettings.fast(
            scenario="mission",
            mission_years=(0.0, 3.0),
            max_alpha=3,
            max_beta=3,
        )
        off = run_pipeline(["scenario_sweep"], settings, cache_dir=tmp_path / "off")
        observability.enable()
        on = run_pipeline(["scenario_sweep"], settings, cache_dir=tmp_path / "on")
        assert canonical(on.results["scenario_sweep"]) == canonical(
            off.results["scenario_sweep"]
        )

    def test_sweep_statistics_identical_on_vs_off(self, small_multiplier):
        kwargs = dict(levels_mv=(0.0, 30.0), num_samples=30, rng=5, workers=2)
        off = sweep_timing_errors(small_multiplier, **kwargs)
        with observability.enabled():
            on = sweep_timing_errors(small_multiplier, **kwargs)
        assert on == off


class TestGlitchSummary:
    def test_summary_is_bounded_exact_and_deterministic(self):
        glitches = {f"net{i}": i % 5 + 1 for i in range(20)}
        counters = EventCounters(glitches_per_net=glitches)
        summary = counters.summarize_glitches(top_n=4)
        assert summary.total == counters.total_glitches  # exact, not truncated
        assert summary.nets == 20
        assert len(summary.top) == 4
        counts = [count for _, count in summary.top]
        assert counts == sorted(counts, reverse=True)
        # Ties break by name, so the selection is deterministic.
        assert summary.top == counters.summarize_glitches(top_n=4).top
        assert counters.summarize_glitches(top_n=0).top == ()
        # The full per-net dict stays available on the instance.
        assert counters.glitches_per_net == glitches

    def test_record_event_counters_uses_the_bounded_path(self):
        counters = EventCounters(
            events_popped=10,
            events_suppressed=2,
            wheel_buckets=4,
            glitches_per_net={f"n{i}": 20 - i for i in range(20)},
        )
        with observability.collecting() as snap:
            observability.record_event_counters(counters, top_n=3)
        merged = snap.metrics.counters
        assert merged["sim.events.popped"] == 10
        assert merged["sim.events.suppressed"] == 2
        assert merged["sim.glitches.total"] == counters.total_glitches
        assert merged["sim.glitches.nets"] == 20
        per_net = [name for name in merged if name.startswith("sim.glitches.net.")]
        assert len(per_net) == 3


class TestExportsAndSidecars:
    def test_chrome_trace_schema(self, hw_settings, tmp_path):
        observability.enable()
        run = run_pipeline(["fig1a"], hw_settings, cache_dir=tmp_path)
        path = write_chrome_trace(tmp_path / "trace.json", run.observability)
        trace = json.loads(path.read_text())
        events = trace["traceEvents"]
        assert events and trace["displayTimeUnit"] == "ms"
        names = set()
        for event in events:
            assert event["ph"] in ("X", "M")
            assert isinstance(event["pid"], int) and isinstance(event["tid"], int)
            if event["ph"] == "X":
                assert event["ts"] >= 0.0 and event["dur"] >= 0.0
                assert isinstance(event["args"], dict)
                names.add(event["name"])
            else:
                assert event["name"] == "process_name"
        assert "pipeline:run" in names and "task:fig1a" in names

    def test_span_tree_nests_run_task_sweep_shard(self, hw_settings, tmp_path):
        observability.enable()
        run = run_pipeline(["fig1a"], hw_settings, cache_dir=tmp_path)
        spans = run.observability.spans
        children = span_tree(spans)
        by_id = {(s.pid, s.span_id): s for s in spans}

        def parent_of(span):
            return by_id.get((span.pid, span.parent_id))

        task = next(s for s in spans if s.name == "task:fig1a")
        assert parent_of(task).name == "pipeline:run"
        sweep = next(s for s in spans if s.name == "sweep:timing_errors")
        assert parent_of(sweep).name == "task:fig1a"
        shards = [s for s in spans if s.name == "sweep:shard"]
        assert shards and all(parent_of(s) is not None for s in shards)
        # Roots of the parent process: exactly the pipeline:run span.
        parent_pid = task.pid
        roots = children.get((parent_pid, None), [])
        assert [s.name for s in roots] == ["pipeline:run"]

    def test_metrics_sidecar_and_run_report(self, hw_settings, tmp_path):
        observability.enable()
        run = run_pipeline(["fig1a"], hw_settings, cache_dir=tmp_path)
        payload = metrics_sidecar(run)
        assert payload["schema"] == SIDECAR_SCHEMA_VERSION
        assert payload["tasks"]["fig1a"]["action"] == "executed"
        assert payload["tasks"]["fig1a"]["duration_s"] > 0.0
        assert payload["observability"]["metrics"]["counters"]["sim.lanes"] > 0
        report = format_run_report(run)
        assert "cache hit ratio: 0.0%" in report
        assert "lanes simulated" in report
        warm = run_pipeline(["fig1a"], hw_settings, cache_dir=tmp_path)
        assert "cache hit ratio: 100.0%" in format_run_report(warm)

    def test_meta_sidecar_persists_timing_and_hits(self, hw_settings, tmp_path):
        cold = run_pipeline(["fig1a"], hw_settings, cache_dir=tmp_path)
        cache = ArtifactCache(cold.cache_root)
        meta = cache.read_meta("fig1a", cold.keys["fig1a"])
        assert meta["timing"]["duration_s"] > 0.0
        assert meta["timing"]["where"] == "inline"
        assert meta["timing"]["queue_wait_s"] == 0.0
        assert meta["hits"] == 0
        run_pipeline(["fig1a"], hw_settings, cache_dir=tmp_path)
        run_pipeline(["fig1a"], hw_settings, cache_dir=tmp_path)
        meta = cache.read_meta("fig1a", cold.keys["fig1a"])
        assert meta["hits"] == 2
        assert "last_hit_at" in meta

    def test_explain_reports_prior_run_history(self, hw_settings, tmp_path):
        run_pipeline(["fig1a"], hw_settings, cache_dir=tmp_path)
        warm = run_pipeline(["fig1a"], hw_settings, cache_dir=tmp_path)
        explain = warm.explain()
        assert "last_run" in explain and "hit_ratio" in explain
        # One build + one hit of the same artifact: 50% (1/2).
        assert "50% (1/2)" in explain


class TestRunnerCLI:
    def test_trace_metrics_and_report_flags(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.json"
        code = runner_main(
            [
                "--experiments",
                "fig1a",
                "--trace",
                str(trace_path),
                "--metrics",
                str(metrics_path),
                "--metrics-report",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Pipeline run report" in out
        assert "cache hit ratio" in out
        trace = json.loads(trace_path.read_text())
        assert any(e["name"] == "task:fig1a" for e in trace["traceEvents"])
        sidecar = json.loads(metrics_path.read_text())
        assert sidecar["schema"] == SIDECAR_SCHEMA_VERSION
        assert "fig1a" in sidecar["tasks"]
        # A warm traced rerun into the same cache is served from it whole,
        # and an observed run with --output leaves a sidecar beside the JSON.
        output = tmp_path / "out"
        code = runner_main(
            [
                "--experiments",
                "fig1a",
                "--trace",
                str(trace_path),
                "--metrics-report",
                "--output",
                str(output),
            ]
        )
        assert code == 0
        assert "cache hit ratio: 100.0%" in capsys.readouterr().out
        sidecar = json.loads((output / "run.metrics.json").read_text())
        assert sidecar["schema"] == SIDECAR_SCHEMA_VERSION
        assert "fig1a" in sidecar["tasks"]

    def test_untraced_cli_rerun_is_byte_identical(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert (
            runner_main(
                ["--experiments", "fig1a", "--no-cache", "--output", str(out_a)]
            )
            == 0
        )
        assert (
            runner_main(
                [
                    "--experiments",
                    "fig1a",
                    "--no-cache",
                    "--output",
                    str(out_b),
                    "--trace",
                    str(tmp_path / "trace.json"),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert (out_a / "fig1a.json").read_text() == (out_b / "fig1a.json").read_text()
