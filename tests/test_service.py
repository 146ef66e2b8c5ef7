"""Tests of the query service stack (repro.service) and its enablers.

Covers the persistent :class:`~repro.parallel.executor.WorkerPool` (shared
sessions, failure recovery, idempotent shutdown), re-entrant
``run_pipeline`` over one pool (byte-identity vs sequential runs), the
artifact-cache LRU size cap with in-flight pinning, the metrics-history
ingest, the wire protocol and admission policy, and the server itself:
cold / warm / coalesced queries byte-identical to the offline runner with
coalesced identical queries executing each task body exactly once.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
import repro.observability as observability
from repro.experiments.reporting import ExperimentResult, _jsonify
from repro.experiments.runner import main as runner_main
from repro.experiments.settings import ExperimentSettings
from repro.observability.history import (
    HISTORY_SCHEMA_VERSION,
    append_history,
    history_row,
    read_history,
)
from repro.parallel import ParallelExecutor, WorkerPool
from repro.pipeline import ArtifactCache, run_pipeline
from repro.pipeline.cache import compute_cache_keys
from repro.pipeline.registry import build_experiment_graph
from repro.pipeline.scheduler import HIT
from repro.pipeline.task import PICKLE_FORMAT, PRODUCT, Task
from repro.service import (
    AdmissionPolicy,
    AgingAnalysisService,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    ServiceThread,
    coalesce_key,
    estimate_query_seconds,
)
from repro.service.protocol import (
    BAD_REQUEST,
    OVERLOADED,
    ProtocolError,
    decode,
    encode,
    parse_query,
)
from repro.utils.io import atomic_write_text


def canonical(result: ExperimentResult) -> str:
    """Exactly what save_json / the cache / the service serialize."""
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


@pytest.fixture(autouse=True)
def _restore_observability():
    """The service enables process-global observability; undo after each test."""
    was_enabled = observability.is_enabled()
    yield
    if not was_enabled:
        observability.disable()
    observability.reset()


# ---------------------------------------------------------------- WorkerPool
def _mul(item, payload):
    return item * payload


def _boom(item, payload):
    raise ValueError(f"boom on {item}")


class TestWorkerPool:
    def test_sessions_share_one_pool_with_fresh_payloads(self):
        with WorkerPool(workers=2) as pool:
            with pool.session(_mul, 10) as session:
                assert session.parallel
                tickets = [session.submit(i) for i in range(5)]
                got = dict(session.wait_any() for _ in tickets)
            assert got == {t: i * 10 for i, t in enumerate(tickets)}
            # Second session, different payload, same worker processes.
            with pool.session(_mul, 100) as session:
                ticket = session.submit(3)
                assert session.wait_any() == (ticket, 300)

    def test_failing_task_leaves_pool_usable(self):
        """Satellite bugfix: a mid-flight failure must not poison the pool."""
        with WorkerPool(workers=2) as pool:
            with pytest.raises(ValueError, match="boom"):
                with pool.session(_boom, None) as session:
                    session.submit(1)
                    session.wait_any()
            # The shared pool survives the failed session untouched.
            with pool.session(_mul, 7) as session:
                assert session.parallel
                ticket = session.submit(6)
                assert session.wait_any() == (ticket, 42)

    def test_session_close_is_idempotent(self):
        pool = WorkerPool(workers=2)
        session = pool.session(_mul, 2)
        ticket = session.submit(4)
        assert session.wait_any() == (ticket, 8)
        session.close()
        session.close()  # second close is a no-op, not a double shutdown
        pool.close()
        pool.close()  # pool close idempotent too
        with pytest.raises(RuntimeError, match="closed"):
            pool.session(_mul, 1)

    def test_owned_session_close_is_idempotent(self):
        executor = ParallelExecutor(workers=2)
        session = executor.session(_mul, 3)
        ticket = session.submit(2)
        assert session.wait_any() == (ticket, 6)
        session.close()
        session.close()

    def test_serial_pool_runs_inline(self):
        with WorkerPool(workers=0) as pool:
            with pool.session(_mul, 5) as session:
                assert not session.parallel
                ticket = session.submit(4)
                assert session.wait_any() == (ticket, 20)

    def test_unpicklable_session_falls_back_serial(self):
        with WorkerPool(workers=2) as pool:
            with pytest.warns(RuntimeWarning, match="not picklable"):
                session = pool.session(lambda item, payload: item, None)
            with session:
                assert not session.parallel
                ticket = session.submit(9)
                assert session.wait_any() == (ticket, 9)


# --------------------------------------------------- re-entrant run_pipeline
class TestReentrantScheduling:
    def test_overlapping_runs_on_one_pool_match_sequential(self, hw_settings):
        """Two concurrent run_pipeline calls sharing one pool: bytes equal."""
        sequential = {
            "fig2": canonical(run_pipeline(["fig2"], hw_settings, cache=False).results["fig2"]),
            "fig5": canonical(run_pipeline(["fig5"], hw_settings, cache=False).results["fig5"]),
        }
        concurrent: dict[str, str] = {}
        errors: list[BaseException] = []
        with WorkerPool(workers=2) as pool:
            def run(name: str) -> None:
                try:
                    run_result = run_pipeline([name], hw_settings, cache=False, pool=pool)
                    concurrent[name] = canonical(run_result.results[name])
                except BaseException as error:  # noqa: BLE001 - surfaced below
                    errors.append(error)

            threads = [threading.Thread(target=run, args=(name,)) for name in sequential]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(600)
        assert not errors, errors
        assert concurrent == sequential

    def test_multi_experiment_run_on_pool_matches_per_invocation(self, hw_settings):
        """One pool dispatching overlapped heavies == default execution."""
        baseline = run_pipeline(["fig2", "fig5"], hw_settings, cache=False)
        with WorkerPool(workers=2) as pool:
            pooled = run_pipeline(["fig2", "fig5"], hw_settings, cache=False, pool=pool)
            # The pool stays usable for a second full invocation.
            again = run_pipeline(["fig2", "fig5"], hw_settings, cache=False, pool=pool)
        for name in ("fig2", "fig5"):
            assert canonical(pooled.results[name]) == canonical(baseline.results[name])
            assert canonical(again.results[name]) == canonical(baseline.results[name])


# ------------------------------------------------------------- cache LRU cap
def _product_task(name: str) -> Task:
    return Task(
        name=name,
        fn=lambda ctx: None,
        kind=PRODUCT,
        heavy=False,
        serializer=PICKLE_FORMAT,
    )


def _set_last_hit(cache: ArtifactCache, task: Task, key: str, when: float) -> None:
    meta = cache.read_meta(task.name, key)
    assert meta is not None
    meta["last_hit_at"] = when
    atomic_write_text(cache.meta_path(task, key), json.dumps(meta))


class TestCacheSizeCap:
    def _store_three(self, tmp_path):
        cache = ArtifactCache(tmp_path / "pipeline")
        tasks = [_product_task(f"prod:{i}") for i in range(3)]
        keys = [f"k{i}" for i in range(3)]
        for i, (task, key) in enumerate(zip(tasks, keys)):
            cache.store(task, key, b"x" * 1000)
            _set_last_hit(cache, task, key, 1000.0 + i)  # prod:0 is coldest
        return cache, tasks, keys

    def test_evicts_least_recently_hit_first(self, tmp_path):
        cache, tasks, keys = self._store_three(tmp_path)
        sizes = [record["size_bytes"] for record in cache.entries()]
        assert len(sizes) == 3
        cache.max_bytes = sum(sizes) - 1  # one entry must go
        evicted = cache.enforce_size_cap()
        assert evicted == [("prod_0", "k0")]
        assert not cache.contains(tasks[0], keys[0])
        assert cache.contains(tasks[1], keys[1]) and cache.contains(tasks[2], keys[2])

    def test_pinned_entries_survive_eviction(self, tmp_path):
        cache, tasks, keys = self._store_three(tmp_path)
        cache.max_bytes = 1  # nothing fits: evict all but pinned
        with cache.pinned([(tasks[0].name, keys[0])]):
            evicted = cache.enforce_size_cap()
            assert ("prod_0", "k0") not in evicted
            assert cache.contains(tasks[0], keys[0])
        # Unpinned now; the next pass may evict it.
        assert cache.enforce_size_cap() == [("prod_0", "k0")]

    def test_pins_are_refcounted(self, tmp_path):
        cache, tasks, keys = self._store_three(tmp_path)
        cache.pin(tasks[0].name, keys[0])
        cache.pin(tasks[0].name, keys[0])
        cache.unpin(tasks[0].name, keys[0])
        assert cache.is_pinned("prod_0", keys[0])  # one pin still held
        cache.unpin(tasks[0].name, keys[0])
        assert not cache.is_pinned("prod_0", keys[0])

    def test_no_cap_means_no_eviction(self, tmp_path):
        cache, _, _ = self._store_three(tmp_path)
        assert cache.max_bytes is None
        assert cache.enforce_size_cap() == []
        assert len(cache.entries()) == 3

    def test_scheduler_enforces_cap_after_run(self, tmp_path, hw_settings):
        settings = hw_settings.with_overrides(cache_max_bytes=1)
        run = run_pipeline(["fig2"], settings, cache_dir=tmp_path)
        assert run.results["fig2"].rows
        cache = ArtifactCache.resolve(tmp_path)
        # Every artifact exceeds a 1-byte budget; with no pins left after
        # the run, the cap empties the cache.
        assert cache.entries() == []


# ------------------------------------------------------------ metrics history
def _fake_sidecar() -> dict:
    return {
        "schema": 1,
        "requested": ["fig2"],
        "cache_root": None,
        "tasks": {
            "fig2": {"action": "executed", "duration_s": 2.0, "where": "inline"},
            "mac": {"action": "hit", "duration_s": 0.1, "where": "cache"},
            "fig5": {"action": "pruned", "duration_s": 0.0, "where": "-"},
        },
        "observability": {
            "metrics": {"counters": {"sim.events.popped": 500, "sim.lanes": 64}},
            "spans": [
                {"name": "pipeline:run", "duration_s": 2.5, "parent_id": None},
            ],
        },
    }


class TestMetricsHistory:
    def test_history_row_derives_rates_and_ratio(self):
        row = history_row(_fake_sidecar(), commit="abc123", timestamp=42.0)
        assert row["schema"] == HISTORY_SCHEMA_VERSION
        assert row["commit"] == "abc123" and row["timestamp"] == 42.0
        assert row["tasks_executed"] == 1 and row["tasks_hit"] == 1
        assert row["cache_hit_ratio"] == pytest.approx(0.5)
        assert row["events_per_s"] == pytest.approx(500 / 2.5)
        assert row["lanes_per_s"] == pytest.approx(64 / 2.5)
        assert row["task_durations_s"] == {"fig2": 2.0, "mac": 0.1}  # pruned excluded

    def test_append_and_read_roundtrip(self, tmp_path):
        path = tmp_path / "history" / "runs.jsonl"
        append_history(path, _fake_sidecar(), commit="one", timestamp=1.0)
        append_history(path, _fake_sidecar(), commit="two", timestamp=2.0)
        rows = read_history(path)
        assert [row["commit"] for row in rows] == ["one", "two"]
        assert all(row["requested"] == ["fig2"] for row in rows)

    def test_read_skips_corrupt_lines(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        append_history(path, _fake_sidecar(), commit="ok", timestamp=1.0)
        with path.open("a") as handle:
            handle.write("not json\n")
        assert [row["commit"] for row in read_history(path)] == ["ok"]

    def test_runner_append_history_flag(self, tmp_path, hw_settings, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setenv("REPRO_COMMIT", "deadbeef")
        history = tmp_path / "runs.jsonl"
        assert (
            runner_main(
                [
                    "--experiments",
                    "fig2",
                    "--append-history",
                    str(history),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "history row appended" in out
        rows = read_history(history)
        assert len(rows) == 1
        assert rows[0]["commit"] == "deadbeef"
        assert rows[0]["requested"] == ["fig2"]
        assert rows[0]["tasks_executed"] >= 1


# ------------------------------------------------------------------ protocol
class TestProtocol:
    def test_encode_decode_roundtrip(self):
        message = {"op": "query", "experiments": ["fig2"], "overrides": {"seed": 3}}
        assert decode(encode(message)) == message

    def test_decode_rejects_garbage(self):
        with pytest.raises(ProtocolError):
            decode(b"not json\n")
        with pytest.raises(ProtocolError):
            decode(b"[1, 2]\n")
        with pytest.raises(ProtocolError):
            decode(b"\n")

    def test_parse_query_validates_shape(self):
        with pytest.raises(ProtocolError):
            parse_query({"op": "query"})
        with pytest.raises(ProtocolError):
            parse_query({"op": "query", "experiments": []})
        with pytest.raises(ProtocolError):
            parse_query({"op": "query", "experiments": ["fig2"], "overrides": [1]})
        names, overrides = parse_query(
            {"op": "query", "experiments": ["fig2", "fig5"], "overrides": {"seed": 1}}
        )
        assert names == ["fig2", "fig5"] and overrides == {"seed": 1}

    def test_coalesce_key_is_order_invariant_and_key_sensitive(self, hw_settings):
        graph = build_experiment_graph(hw_settings)
        keys = compute_cache_keys(graph, hw_settings)
        changed = compute_cache_keys(
            graph, hw_settings.with_overrides(fig2_max_compression=2)
        )
        assert coalesce_key(["fig2", "fig5"], keys) == coalesce_key(["fig5", "fig2"], keys)
        assert coalesce_key(["fig2"], keys) != coalesce_key(["fig5"], keys)
        assert coalesce_key(["fig2"], keys) != coalesce_key(["fig2"], changed)


# ----------------------------------------------------------------- admission
class TestAdmission:
    def test_queue_bound(self):
        policy = AdmissionPolicy(max_pending=2)
        ok = policy.admit(
            tasks_to_execute=1, estimated_seconds=0.0, pending=1, inflight_tasks=0
        )
        assert ok.admitted
        full = policy.admit(
            tasks_to_execute=1, estimated_seconds=0.0, pending=2, inflight_tasks=0
        )
        assert not full.admitted and "queue full" in full.reason

    def test_per_query_task_budget(self):
        policy = AdmissionPolicy(max_tasks_per_query=3)
        no = policy.admit(
            tasks_to_execute=4, estimated_seconds=0.0, pending=0, inflight_tasks=0
        )
        assert not no.admitted and "max_tasks_per_query" in no.reason

    def test_global_inflight_cap(self):
        policy = AdmissionPolicy(max_inflight_tasks=5)
        no = policy.admit(
            tasks_to_execute=3, estimated_seconds=0.0, pending=0, inflight_tasks=4
        )
        assert not no.admitted and "max_inflight_tasks" in no.reason

    def test_estimated_cost_ceiling(self):
        policy = AdmissionPolicy(max_estimated_seconds=10.0)
        no = policy.admit(
            tasks_to_execute=1, estimated_seconds=11.0, pending=0, inflight_tasks=0
        )
        assert not no.admitted and "max_estimated_seconds" in no.reason

    def test_estimate_uses_sidecar_timings(self, tmp_path):
        cache = ArtifactCache(tmp_path / "pipeline")
        task = _product_task("prod:est")
        cache.store(task, "key1", b"blob", timing={"duration_s": 2.5})
        estimate = estimate_query_seconds(
            cache, ["prod:est", "never:seen"], {}, default_task_seconds=1.0
        )
        assert estimate == pytest.approx(3.5)  # 2.5 from sidecar + 1.0 default
        assert estimate_query_seconds(None, ["a", "b"], {}, default_task_seconds=2.0) == 4.0


# ------------------------------------------------------------------- service
def _wait_for(condition, timeout=60.0, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if condition():
            return
        time.sleep(0.01)
    raise AssertionError(f"timed out waiting for {message}")


class TestService:
    def _config(self, tmp_path, hw_settings, **kwargs):
        return ServiceConfig(
            settings=hw_settings,
            cache_dir=tmp_path / "service-cache",
            **kwargs,
        )

    def test_cold_and_warm_queries_byte_identical_to_offline(
        self, tmp_path, hw_settings
    ):
        expected = canonical(
            run_pipeline(["fig2"], hw_settings, cache=False).results["fig2"]
        )
        service = ServiceThread(self._config(tmp_path, hw_settings))
        host, port = service.start()
        try:
            with ServiceClient(host, port) as client:
                assert client.ping()["event"] == "pong"
                before = client.stats()["counters"]

                cold_events: list[dict] = []
                cold = client.query(["fig2"], on_event=cold_events.append)
                accepted = cold_events[0]
                assert accepted["event"] == "accepted"
                assert not accepted["coalesced"] and not accepted["warm"]
                assert cold["artifacts"]["fig2"] == expected
                task_events = [e for e in cold_events if e["event"] == "task"]
                assert {e["name"] for e in task_events} >= {"fig2"}
                assert all(e["action"] == "executed" for e in task_events)

                warm_events: list[dict] = []
                warm = client.query(["fig2"], on_event=warm_events.append)
                assert warm_events[0]["warm"] is True
                assert warm["artifacts"]["fig2"] == expected
                assert warm["warm"] is True

                after = client.stats()["counters"]
                executed = after.get("pipeline.tasks.executed", 0) - before.get(
                    "pipeline.tasks.executed", 0
                )
                assert executed == accepted["tasks_to_execute"]  # warm added none
                assert after.get("service.queries.warm", 0) == 1
        finally:
            service.stop()

    def test_concurrent_identical_queries_coalesce_exactly_once(
        self, tmp_path, hw_settings
    ):
        gate = threading.Event()
        running = threading.Event()

        def hook(plan) -> None:
            running.set()
            assert gate.wait(120), "test gate never released"

        service = ServiceThread(
            self._config(tmp_path, hw_settings, execution_hook=hook)
        )
        host, port = service.start()
        results: dict[int, dict] = {}
        events: dict[int, list] = {1: [], 2: []}
        errors: list[BaseException] = []

        def do_query(slot: int) -> None:
            try:
                with ServiceClient(host, port) as client:
                    results[slot] = client.query(
                        ["fig2"], on_event=events[slot].append
                    )
            except BaseException as error:  # noqa: BLE001 - surfaced below
                errors.append(error)

        try:
            with ServiceClient(host, port) as control:
                before = control.stats()["counters"]
                first = threading.Thread(target=do_query, args=(1,))
                first.start()
                assert running.wait(120), "first query never started executing"
                second = threading.Thread(target=do_query, args=(2,))
                second.start()
                _wait_for(
                    lambda: any(e.get("event") == "accepted" for e in events[2]),
                    message="second query acceptance",
                )
                accepted_2 = next(e for e in events[2] if e["event"] == "accepted")
                assert accepted_2["coalesced"] is True
                gate.set()
                first.join(300)
                second.join(300)
                assert not errors, errors
                after = control.stats()["counters"]
        finally:
            gate.set()
            service.stop()

        accepted_1 = next(e for e in events[1] if e["event"] == "accepted")
        assert accepted_1["coalesced"] is False
        # Both subscribers got byte-identical artifacts from ONE execution.
        assert results[1]["artifacts"] == results[2]["artifacts"]
        executed = after.get("pipeline.tasks.executed", 0) - before.get(
            "pipeline.tasks.executed", 0
        )
        assert executed == accepted_1["tasks_to_execute"]
        assert (
            after.get("service.queries.coalesced", 0)
            - before.get("service.queries.coalesced", 0)
        ) == 1

    def test_admission_rejects_over_budget_query(self, tmp_path, hw_settings):
        service = ServiceThread(
            self._config(
                tmp_path,
                hw_settings,
                admission=AdmissionPolicy(max_tasks_per_query=1),
            )
        )
        host, port = service.start()
        try:
            with ServiceClient(host, port) as client:
                with pytest.raises(ServiceError) as excinfo:
                    client.query(["fig2"])
                assert excinfo.value.code == OVERLOADED
        finally:
            service.stop()

    def test_bounded_queue_rejects_when_full(self, tmp_path, hw_settings):
        gate = threading.Event()
        running = threading.Event()

        def hook(plan) -> None:
            running.set()
            assert gate.wait(120)

        service = ServiceThread(
            self._config(
                tmp_path,
                hw_settings,
                execution_hook=hook,
                admission=AdmissionPolicy(max_pending=1),
            )
        )
        host, port = service.start()
        holder: dict[str, dict] = {}
        second_events: list[dict] = []
        errors: list[BaseException] = []

        def run_query(slot: str, overrides: "dict | None", on_event=None) -> None:
            try:
                with ServiceClient(host, port) as client:
                    holder[slot] = client.query(["fig2"], overrides, on_event=on_event)
            except BaseException as error:  # noqa: BLE001
                errors.append(error)

        try:
            # First query executes (held open by the gate): pending == 0.
            first = threading.Thread(target=run_query, args=("first", None))
            first.start()
            assert running.wait(120)
            # Second query has a *different* coalesce key (fig2 declares
            # fig2_max_compression): admitted and queued -> pending == 1.
            second = threading.Thread(
                target=run_query,
                args=("second", {"fig2_max_compression": 2}, second_events.append),
            )
            second.start()
            _wait_for(
                lambda: any(e.get("event") == "accepted" for e in second_events),
                message="second query acceptance",
            )
            # Third distinct cold query: the bounded queue is full.
            with ServiceClient(host, port) as client:
                with pytest.raises(ServiceError) as excinfo:
                    client.query(["fig2"], {"fig2_max_compression": 1})
                assert excinfo.value.code == OVERLOADED
                assert "queue full" in str(excinfo.value)
            gate.set()
            first.join(300)
            second.join(300)
            assert not errors, errors
            assert "fig2" in holder["first"]["artifacts"]
            assert "fig2" in holder["second"]["artifacts"]
        finally:
            gate.set()
            service.stop()

    def test_bad_requests_rejected_not_fatal(self, tmp_path, hw_settings):
        service = ServiceThread(self._config(tmp_path, hw_settings))
        host, port = service.start()
        try:
            with ServiceClient(host, port) as client:
                with pytest.raises(ServiceError) as excinfo:
                    client.query(["fig99"])
                assert excinfo.value.code == BAD_REQUEST
                with pytest.raises(ServiceError) as excinfo:
                    client.query(["fig2"], {"not_a_field": 1})
                assert excinfo.value.code == BAD_REQUEST
                with pytest.raises(ServiceError) as excinfo:
                    client.query(["fig2"], {"sim_backend": "wheel"})
                assert excinfo.value.code == BAD_REQUEST
                # The removed chunk_size knob is an unknown field now.
                with pytest.raises(ServiceError) as excinfo:
                    client.query(["fig2"], {"chunk_size": 4})
                assert excinfo.value.code == BAD_REQUEST
                # The connection is still usable afterwards.
                assert client.ping()["event"] == "pong"
        finally:
            service.stop()

    def test_failed_execution_reports_error_and_service_survives(
        self, tmp_path, hw_settings
    ):
        def hook(plan) -> None:
            if plan.settings.seed == 4242:
                raise RuntimeError("injected failure")

        service = ServiceThread(
            self._config(tmp_path, hw_settings, execution_hook=hook)
        )
        host, port = service.start()
        try:
            with ServiceClient(host, port) as client:
                with pytest.raises(ServiceError, match="injected failure"):
                    client.query(["fig2"], {"seed": 4242})
                # The same connection and service keep working; the failed
                # query holds no inflight slots.
                stats = client.stats()
                assert stats["inflight_queries"] == 0
                assert stats["inflight_tasks"] == 0
                result = client.query(["fig2"])
                assert "fig2" in result["artifacts"]
        finally:
            service.stop()

    def test_shutdown_op_stops_the_service(self, tmp_path, hw_settings):
        service = ServiceThread(self._config(tmp_path, hw_settings))
        host, port = service.start()
        with ServiceClient(host, port) as client:
            assert client.shutdown()["event"] == "bye"
        service.stop()  # joins the already-stopping thread
        with pytest.raises((ConnectionError, OSError)):
            ServiceClient(host, port, timeout=2).ping()

    def test_plan_is_exactly_what_run_pipeline_executes(self, tmp_path, hw_settings):
        service = AgingAnalysisService(self._config(tmp_path, hw_settings))
        try:
            plans = []
            # Cold; partially warm (fig4a cached, fig5 not); warm.
            for names in (["fig4a"], ["fig4a", "fig5"], ["fig4a", "fig5"]):
                plan = service._plan(names, {})
                run = run_pipeline(names, plan.settings, cache_dir=plan.cache_dir)
                assert plan.to_execute == run.executed
                assert plan.hits == tuple(
                    name for name in run.order if run.records[name].action == HIT
                )
                plans.append(plan)
            cold, partial, warm = plans
            assert "fig4a" in cold.to_execute and not cold.hits
            assert "fig5" in partial.to_execute and "fig4a" in partial.hits
            assert warm.to_execute == () and set(warm.hits) == {"fig4a", "fig5"}
        finally:
            service._pool.close()


# ------------------------------------------------------------ serve / query CLI
class TestServiceCLI:
    def test_served_queries_byte_identical_to_offline_run(self, tmp_path, capsys):
        """``runner serve`` in its own process answers ``runner query`` cold,
        then warm with zero task bodies, byte-identical to an offline run."""
        assert runner_main(
            ["--experiments", "fig2", "--no-cache", "--output", str(tmp_path / "offline")]
        ) == 0
        offline = (tmp_path / "offline" / "fig2.json").read_bytes()
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(Path(repro.__file__).resolve().parents[1]), env.get("PYTHONPATH")])
        )
        server = subprocess.Popen(
            [
                sys.executable, "-m", "repro.experiments.runner", "serve",
                "--port", "0", "--cache-dir", str(tmp_path / "cache"),
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            for line in server.stdout:
                if "repro service listening on" in line:
                    break
            else:
                pytest.fail(f"service exited with {server.wait()} before listening")
            port = line.strip().rsplit(":", 1)[1]
            printed = {}
            for label, accepted in (
                ("cold", "accepted (cold)"),
                ("warm", "accepted (warm): 0 task(s) to execute"),
            ):
                output = tmp_path / label
                argv = ["query", "--port", port, "--experiments", "fig2", "--quiet"]
                assert runner_main([*argv, "--output", str(output)]) == 0
                printed[label] = capsys.readouterr().out
                assert accepted in printed[label]
                assert (output / "fig2.json").read_bytes() == offline
            cold_tasks = int(printed["cold"].split("accepted (cold): ")[1].split()[0])
            with ServiceClient("127.0.0.1", int(port)) as client:
                counters = client.stats()["counters"]
                assert client.shutdown()["event"] == "bye"
            assert server.wait(timeout=60) == 0
            # The warm query executed nothing: the service's executed-task
            # total is exactly the cold plan's.
            assert counters.get("service.queries") == 2, counters
            assert counters.get("service.queries.completed") == 2, counters
            assert counters.get("service.queries.warm") == 1, counters
            assert counters.get("pipeline.tasks.executed") == cold_tasks > 0, counters
        finally:
            if server.poll() is None:
                server.kill()
                server.wait()
            server.stdout.close()

    @pytest.mark.parametrize(
        "argv",
        [
            ["--max-pending", "0"],
            ["--max-pending", "-2"],
            ["--max-estimated-seconds", "0"],
            ["--max-estimated-seconds", "-1"],
            ["--max-estimated-seconds", "nan"],
            ["--max-estimated-seconds", "inf"],
        ],
    )
    def test_serve_rejects_admission_limits_that_admit_nothing_or_everything(
        self, argv, capsys
    ):
        """A zero/negative queue bound or cost ceiling rejects every cold
        query and a NaN ceiling admits any; argparse refuses them up front."""
        with pytest.raises(SystemExit) as excinfo:
            runner_main(["serve", *argv])
        assert excinfo.value.code == 2
        assert "error" in capsys.readouterr().err
