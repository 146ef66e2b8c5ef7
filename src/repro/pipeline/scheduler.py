"""Dependency-aware scheduler with demand-driven caching.

Given requested experiment names, the scheduler

1. builds the task graph and computes every task's cache key (keys are
   input-addressed, so they exist before anything runs),
2. probes the artifact cache and prunes: a task executes only if some
   requested result (transitively) needs it *and* its artifact is not
   cached — so a warm rerun executes nothing at all, and a settings change
   re-runs exactly the invalidated subtree,
3. executes what remains: light tasks inline in the parent, heavy tasks
   (experiments, model training) dispatched concurrently over an
   :class:`~repro.parallel.executor.ExecutorSession` as their dependencies
   complete.  With ``workers=0`` — or when the executable subgraph is a pure
   chain, where overlap cannot help — everything runs inline against one
   shared workspace, exactly like the old sequential runner.

Determinism: every task derives its randomness from ``settings.seed`` and
its input artifacts alone (see :mod:`repro.pipeline.task`), so results are
bit-identical to the sequential runner for any worker count.  Worker-side
sweeps run with ``workers=0`` to avoid oversubscription — also a pure
throughput choice by the ``repro.parallel`` seed-sharding contract.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable
from collections.abc import Sequence

import repro.observability as observability
from repro.experiments.reporting import ExperimentResult
from repro.experiments.settings import ExperimentSettings
from repro.experiments.workspace import ExperimentWorkspace
from repro.observability import ObservabilitySnapshot
from repro.parallel import ParallelExecutor, WorkerPool, resolve_workers
from repro.pipeline.cache import ArtifactCache, compute_cache_keys
from repro.pipeline.graph import TaskGraph
from repro.pipeline.registry import build_experiment_graph
from repro.pipeline.task import EXPERIMENT, Task, TaskContext
from repro.utils.tables import format_table

#: TaskRecord actions.
EXECUTED = "executed"
HIT = "hit"
PRUNED = "pruned"


@dataclass
class TaskRecord:
    """What happened to one task during a pipeline run.

    ``duration_s`` is the task body's own execution time (or the cache-load
    time for hits); ``queue_wait_s`` is how long a dispatched task sat
    between submission to the executor and its body actually starting in a
    worker (always 0 for inline execution).  Both are persisted into the
    artifact's ``.meta.json`` sidecar at store time.
    """

    name: str
    kind: str
    action: str
    where: str = "-"  # "inline" | "worker" | "cache" | "-"
    key: str = ""
    stored: bool = False
    duration_s: float = 0.0
    queue_wait_s: float = 0.0
    depends: tuple[str, ...] = ()


@dataclass
class PipelineRun:
    """Results plus a per-task audit trail of one pipeline invocation."""

    requested: tuple[str, ...]
    results: dict[str, ExperimentResult]
    records: dict[str, TaskRecord]
    keys: dict[str, str]
    cache_root: Path | None = None
    order: tuple[str, ...] = ()
    #: Merged telemetry of this run (parent + shipped-back worker snapshots);
    #: None when observability was disabled.
    observability: "ObservabilitySnapshot | None" = None

    @property
    def executed(self) -> tuple[str, ...]:
        """Names of all tasks whose bodies ran, in topological order."""
        return tuple(n for n in self.order if self.records[n].action == EXECUTED)

    @property
    def executed_experiments(self) -> tuple[str, ...]:
        """Experiment bodies that actually ran (empty on a warm cache)."""
        return tuple(
            n for n in self.executed if self.records[n].kind == EXPERIMENT
        )

    @property
    def cache_hits(self) -> tuple[str, ...]:
        return tuple(n for n in self.order if self.records[n].action == HIT)

    def results_list(self) -> list[ExperimentResult]:
        """Results in deduplicated request order (one entry per unique name)."""
        return [self.results[name] for name in self.requested]

    def explain(self) -> str:
        """Human-readable per-task hit/run/prune report (``--explain``).

        When an artifact cache is active, each task's prior-run history is
        read from its ``.meta.json`` sidecar: ``last_run`` is the duration
        the artifact cost when it was originally built (plus any queue
        wait), and ``hit_ratio`` is how often this exact artifact has been
        served from cache since (``hits / (hits + 1 build)``).
        """
        cache = ArtifactCache(self.cache_root) if self.cache_root is not None else None
        rows = []
        for name in self.order:
            record = self.records[name]
            last_run, hit_ratio = "-", "-"
            if cache is not None and record.key:
                meta = cache.read_meta(record.name, record.key)
                if meta is not None:
                    timing = meta.get("timing") or {}
                    if "duration_s" in timing:
                        last_run = f"{timing['duration_s']:.2f}s"
                        if timing.get("queue_wait_s"):
                            last_run += f"+{timing['queue_wait_s']:.2f}s wait"
                    hits = int(meta.get("hits", 0))
                    hit_ratio = f"{hits / (hits + 1):.0%} ({hits}/{hits + 1})"
            rows.append(
                [
                    record.name,
                    record.kind,
                    record.action,
                    record.where,
                    f"{record.duration_s:.2f}s" if record.action == EXECUTED else "-",
                    last_run,
                    hit_ratio,
                    record.key[:12] if record.key else "-",
                    ", ".join(record.depends) if record.depends else "-",
                ]
            )
        title = f"Pipeline plan (cache: {self.cache_root if self.cache_root else 'disabled'})"
        return format_table(
            [
                "task",
                "kind",
                "action",
                "where",
                "time",
                "last_run",
                "hit_ratio",
                "cache_key",
                "depends",
            ],
            rows,
            title=title,
        )

    def run_report(self) -> str:
        """The human-readable end-of-run observability report."""
        from repro.observability.export import format_run_report

        return format_run_report(self)


# ----------------------------------------------------------------- worker
def _execute_work_item(
    item: "tuple[str, dict[str, Any]]",
    payload: "tuple[ExperimentSettings, dict[str, Any]]",
) -> tuple[Any, float, float]:
    """Run one task body in a worker process.

    The payload (shipped once per worker) carries the settings and every
    artifact the parent knew at dispatch-session start; artifacts produced
    later arrive per item.  The worker rebuilds the (deterministic) graph
    from the settings to resolve the task body by name.

    Returns ``(artifact, started_wall_s, duration_s)``: the wall-clock body
    start lets the parent compute queue wait (``start - submit time``), and
    the duration is the body's own cost excluding queue and IPC time.  The
    timing ride-along never feeds back into any task body, so results stay
    bit-identical to inline execution.
    """
    settings, base_artifacts = payload
    name, extra_artifacts = item
    graph = build_experiment_graph(settings)
    task = graph[name]
    artifacts = {
        dep: extra_artifacts[dep] if dep in extra_artifacts else base_artifacts[dep]
        for dep in task.depends
    }
    started_wall = time.time()
    start = time.perf_counter()
    with observability.span(f"task:{name}", category="task", where="worker", action="executed"):
        value = task.run(TaskContext(settings, artifacts))
    return value, started_wall, time.perf_counter() - start


# -------------------------------------------------------------- scheduler
def prune_to_demand(
    order: Sequence[Task], requested: Sequence[str], is_hit: Callable[[Task], bool]
) -> tuple[set[str], list[Task]]:
    """Demand-driven pruning of a topological ``order``, consumers first.

    A task is needed if it is requested or feeds a task that will execute;
    it executes if it is needed and ``is_hit`` says it is not cached.
    ``is_hit`` is asked once per needed task and never about another, so a
    cache probe that verifies artifacts reads only those a run may load.
    Returns the needed task names and the executing tasks in ``order``; the
    needed tasks that do not execute are the hits.  The query service plans
    with this same function, so its plan is exactly what
    :func:`run_pipeline` executes.
    """
    needed: set[str] = set(requested)
    executing: list[Task] = []
    for task in reversed(order):
        if task.name in needed and not is_hit(task):
            executing.append(task)
            needed.update(task.depends)
    executing.reverse()
    return needed, executing


def _is_chain(tasks: Sequence[Task], names: set[str]) -> bool:
    """True if the heavy tasks form a single dependency chain (no overlap).

    Heavy-to-heavy edges are always direct (light tasks cannot depend on
    heavy ones), so ancestor sets close over direct edges restricted to
    ``names``.
    """
    ancestors: dict[str, set[str]] = {}
    for task in tasks:  # topological order
        mine: set[str] = set()
        for dep in task.depends:
            if dep in names:
                mine.add(dep)
                mine.update(ancestors[dep])
        ancestors[task.name] = mine
    for task in tasks:
        for other in tasks:
            if task.name == other.name:
                continue
            if task.name not in ancestors[other.name] and other.name not in ancestors[task.name]:
                return False
    return True


def run_pipeline(
    names: Sequence[str],
    settings: ExperimentSettings | None = None,
    *,
    cache: bool | None = None,
    cache_dir: "str | Path | None" = None,
    output_dir: "str | Path | None" = None,
    pool: "WorkerPool | None" = None,
    on_task: "Callable[[TaskRecord], None] | None" = None,
) -> PipelineRun:
    """Run the named experiments through the dependency-aware pipeline.

    Args:
        names: experiment identifiers (see ``EXPERIMENT_NAMES``); transitive
            dependencies (e.g. ``table1`` for ``fig4b``) are pulled in
            automatically.
        settings: experiment settings; ``settings.workers`` is the number of
            concurrently executing tasks (0 = fully serial, as the old
            sequential runner).
        cache: overrides ``settings.pipeline_cache`` (None = use it).
        cache_dir: overrides ``settings.cache_dir`` for the artifact cache.
        output_dir: when given, each requested experiment's JSON is written
            there *as soon as the result is available* (execution or cache
            hit), so a crash later in the run loses no completed work.
        pool: dispatch heavy tasks on this persistent
            :class:`~repro.parallel.executor.WorkerPool` instead of a
            per-invocation pool — the re-entrant shape :mod:`repro.service`
            uses so many queries share one set of worker processes.  The
            pool's worker count then decides whether tasks overlap
            (``settings.workers`` still controls worker-side inner sweeps).
        on_task: called with each task's :class:`TaskRecord` the moment the
            task resolves (cache hit or body completion) — the streaming
            hook service clients receive progress events through.  Must not
            mutate the record; exceptions propagate and abort the run.

    Returns:
        A :class:`PipelineRun` with the results and the per-task records.
        When observability is enabled (:mod:`repro.observability`), the
        run's merged telemetry — parent spans/metrics plus every worker
        snapshot shipped back through the executor — is attached as
        ``run.observability``.
    """
    if not observability.is_enabled():
        return _run_pipeline(
            names,
            settings,
            cache=cache,
            cache_dir=cache_dir,
            output_dir=output_dir,
            pool=pool,
            on_task=on_task,
        )
    # Give the run its own collection scope so ``run.observability`` holds
    # exactly this invocation's telemetry; fold it back into the process
    # registry afterwards so long-lived callers keep their running totals.
    with observability.collecting() as run_snapshot:
        with observability.span(
            "pipeline:run", category="pipeline", requested=list(dict.fromkeys(names))
        ):
            run = _run_pipeline(
                names,
                settings,
                cache=cache,
                cache_dir=cache_dir,
                output_dir=output_dir,
                pool=pool,
                on_task=on_task,
            )
    observability.merge_snapshot(run_snapshot)
    run.observability = run_snapshot
    return run


def _run_pipeline(
    names: Sequence[str],
    settings: ExperimentSettings | None = None,
    *,
    cache: bool | None = None,
    cache_dir: "str | Path | None" = None,
    output_dir: "str | Path | None" = None,
    pool: "WorkerPool | None" = None,
    on_task: "Callable[[TaskRecord], None] | None" = None,
) -> PipelineRun:
    settings = settings or ExperimentSettings.fast()
    graph = build_experiment_graph(settings)
    experiment_names = {task.name for task in graph.experiments()}
    unknown = [name for name in names if name not in experiment_names]
    if unknown:
        raise KeyError(f"unknown experiments {unknown}; available: {sorted(experiment_names)}")
    requested = tuple(dict.fromkeys(names))

    keys = compute_cache_keys(graph, settings)
    use_cache = settings.pipeline_cache if cache is None else cache
    artifact_cache = ArtifactCache.resolve(
        cache_dir if cache_dir is not None else settings.cache_dir,
        max_bytes=settings.cache_max_bytes,
    ) if use_cache else None

    order = graph.topological_order(requested)
    needed, exec_order = prune_to_demand(
        order,
        requested,
        lambda task: artifact_cache is not None
        and artifact_cache.contains(task, keys[task.name]),
    )
    hits = needed.difference(task.name for task in exec_order)

    records = {
        task.name: TaskRecord(
            name=task.name,
            kind=task.kind,
            action=PRUNED,
            key=keys[task.name],
            depends=task.depends,
        )
        for task in order
    }

    artifacts: dict[str, Any] = {}

    def _save_output(task: Task) -> None:
        if output_dir is not None and task.name in requested:
            artifacts[task.name].save_json(Path(output_dir) / f"{task.name}.json")

    def _load(task: Task) -> None:
        start = time.perf_counter()
        with observability.span(
            f"task:{task.name}", category="task", where="cache", action="hit"
        ):
            artifacts[task.name] = artifact_cache.load(task, keys[task.name])
        artifact_cache.record_hit(task, keys[task.name])
        record = records[task.name]
        record.action, record.where = HIT, "cache"
        record.duration_s = time.perf_counter() - start
        observability.add("pipeline.tasks.hit")
        _save_output(task)
        if on_task is not None:
            on_task(record)

    def _finish(
        task: Task,
        value: Any,
        where: str,
        start: float,
        *,
        duration_s: "float | None" = None,
        queue_wait_s: float = 0.0,
    ) -> None:
        artifacts[task.name] = value
        record = records[task.name]
        record.action, record.where = EXECUTED, where
        record.duration_s = (
            time.perf_counter() - start if duration_s is None else duration_s
        )
        record.queue_wait_s = queue_wait_s
        observability.add("pipeline.tasks.executed")
        if queue_wait_s:
            observability.observe("time.task_queue_wait_seconds", queue_wait_s)
        if artifact_cache is not None and task.cacheable:
            artifact_cache.store(
                task,
                keys[task.name],
                value,
                timing={
                    "duration_s": record.duration_s,
                    "queue_wait_s": record.queue_wait_s,
                    "where": where,
                },
            )
            record.stored = True
        _save_output(task)
        if on_task is not None:
            on_task(record)

    # Pin every artifact this run reads or writes for the duration of the
    # run: with a size-capped cache and concurrent queries (service mode),
    # another run's eviction pass must never remove entries between this
    # run's cache probe and its loads/stores.  Eviction happens afterwards.
    pin_guard = (
        artifact_cache.pinned(
            [
                (task.name, keys[task.name])
                for task in order
                if task.name in needed and task.cacheable
            ]
        )
        if artifact_cache is not None
        else contextlib.nullcontext()
    )
    with pin_guard:
        for task in order:
            if task.name in hits:
                _load(task)

        heavy_exec = [task for task in exec_order if task.heavy]
        # With a persistent pool, its size decides overlap (settings.workers
        # still steers worker-side inner sweeps via worker_settings below).
        workers = pool.workers if pool is not None else resolve_workers(settings.workers)
        # One worker cannot overlap anything: stay inline so the task's inner
        # sweeps keep the workers knob (the pre-pipeline behaviour).
        overlap = (
            workers > 1
            and len(heavy_exec) > 1
            and not _is_chain(heavy_exec, {task.name for task in heavy_exec})
        )

        # Inline tasks share one workspace and the original settings, so
        # their inner sweeps keep the workers knob.  Without overlap every
        # executing task runs here, exactly like the PR 3 runner; with it
        # only the light ones do (they are closed under dependencies by the
        # light-before-heavy layering rule) and the heavy ones follow below.
        shared = ExperimentWorkspace.create(settings)
        shared.adopt(artifacts)
        for task in exec_order:
            if overlap and task.heavy:
                continue
            context = TaskContext(
                settings,
                {dep: artifacts[dep] for dep in task.depends},
                workspace=shared,
            )
            start = time.perf_counter()
            with observability.span(
                f"task:{task.name}", category="task", where="inline", action="executed"
            ):
                value = task.run(context)
            _finish(task, value, "inline", start)

        if overlap:
            # Dispatch heavy tasks as their dependencies complete.
            # With a per-invocation pool the session payload ships once per
            # worker through the pool initializer; on a persistent pool it
            # rides each item (memoised worker-side).  Later artifacts ride
            # along with the items that need them.  Worker-side sweeps run
            # serially (pure throughput choice; results identical).
            worker_settings = settings.with_overrides(workers=0)
            heavy_deps = {dep for task in heavy_exec for dep in task.depends}
            base_artifacts = {
                name: value for name, value in artifacts.items() if name in heavy_deps
            }
            dispatcher = pool if pool is not None else ParallelExecutor(settings.workers)
            tickets: dict[int, tuple[Task, float, float]] = {}
            pending = {task.name: task for task in heavy_exec}
            dispatched: set[str] = set()
            with dispatcher.session(
                _execute_work_item, (worker_settings, base_artifacts)
            ) as session:
                where = "worker" if session.parallel else "inline"
                while pending:
                    for name in list(pending):
                        task = pending[name]
                        if name in dispatched or any(
                            dep not in artifacts for dep in task.depends
                        ):
                            continue
                        extra = {
                            dep: artifacts[dep]
                            for dep in task.depends
                            if dep not in base_artifacts
                        }
                        tickets[session.submit((name, extra))] = (
                            task,
                            time.perf_counter(),
                            time.time(),
                        )
                        dispatched.add(name)
                    ticket, payload_value = session.wait_any()
                    value, started_wall, body_duration = payload_value
                    task, start, submit_wall = tickets.pop(ticket)
                    del pending[task.name]
                    queue_wait = max(0.0, started_wall - submit_wall)
                    _finish(
                        task,
                        value,
                        where,
                        start,
                        duration_s=body_duration,
                        queue_wait_s=queue_wait,
                    )

    if artifact_cache is not None:
        artifact_cache.enforce_size_cap()
    results = {name: artifacts[name] for name in requested}
    return PipelineRun(
        requested=requested,
        results=results,
        records=records,
        keys=keys,
        cache_root=artifact_cache.root if artifact_cache is not None else None,
        order=tuple(task.name for task in order),
    )
