"""The aging-analysis query server.

One asyncio TCP front-end (see :mod:`repro.service.protocol` for the wire
format) over the demand-driven pipeline:

* **planning up front** — artifact keys are input-addressed, so for every
  query the server computes each task's key and probes the cache *before*
  running anything: it knows the exact set of task bodies the query would
  execute, which drives admission control and warm detection;
* **warm fast path** — a query whose requested artifacts are all cached
  executes zero task bodies (the scheduler loads straight from the
  :class:`~repro.pipeline.cache.ArtifactCache`) and bypasses admission;
* **coalescing** — identical in-flight queries (same experiments, same
  artifact keys; see :func:`repro.service.protocol.coalesce_key`) share
  one execution: late subscribers replay the buffered event backlog and
  then stream live, so N clients cost one run;
* **persistent pool** — heavy tasks dispatch onto one long-lived
  :class:`~repro.parallel.executor.WorkerPool` shared by every query
  (``run_pipeline(pool=...)``), so no query pays process startup.

Byte-reproducibility contract: the ``result`` event carries, per requested
experiment, the exact JSON text the offline runner writes —
``json.dumps(result.to_dict(), indent=2, default=_jsonify)`` — which is
also exactly what the artifact cache stores.  Cold, warm, and coalesced
answers are therefore byte-identical to ``python -m repro.experiments.runner``
output by construction, and the test suite + CI assert it.

Pipeline executions are serialized with an asyncio semaphore: observability
collection scopes swap process-global state and the scheduler's workspace
is process-wide, so intra-query parallelism comes from the worker pool
while queries themselves run one at a time.  Coalescing and the warm path
are what make this arrangement scale: the expensive thing about a popular
query is computed once and then served from cache.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import repro.observability as observability
from repro.experiments.reporting import _jsonify
from repro.experiments.settings import ExperimentSettings
from repro.parallel import WorkerPool
from repro.pipeline.cache import ArtifactCache, compute_cache_keys
from repro.pipeline.registry import build_experiment_graph
from repro.pipeline.scheduler import TaskRecord, prune_to_demand, run_pipeline
from repro.service.admission import AdmissionPolicy, estimate_query_seconds
from repro.service.protocol import (
    BAD_REQUEST,
    MAX_LINE_BYTES,
    OVERLOADED,
    PROTOCOL_VERSION,
    ProtocolError,
    coalesce_key,
    decode,
    encode,
    parse_query,
)


@dataclass(frozen=True)
class QueryPlan:
    """Everything the server derives from a query before executing it."""

    requested: tuple[str, ...]
    settings: ExperimentSettings
    keys: dict[str, str]
    to_execute: tuple[str, ...]
    hits: tuple[str, ...]
    coalesce_key: str
    estimated_seconds: float
    cache_dir: "str | Path | None"

    @property
    def warm(self) -> bool:
        """True when the query executes zero task bodies (pure cache read)."""
        return not self.to_execute


@dataclass
class ServiceConfig:
    """Configuration of one :class:`AgingAnalysisService` instance."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; the bound port is in ``service.address``
    settings: ExperimentSettings = field(default_factory=ExperimentSettings.fast)
    cache_dir: "str | Path | None" = None
    workers: int = 0  # persistent pool size (0 = in-process execution)
    admission: AdmissionPolicy = field(default_factory=AdmissionPolicy)
    allow_remote_shutdown: bool = True
    #: Test seam: called in the executor thread right before each cold
    #: query's ``run_pipeline`` (e.g. a gate that holds the run open so a
    #: test can provably coalesce a second query).  Never set in production.
    execution_hook: "Callable[[QueryPlan], None] | None" = None


class _Inflight:
    """One in-flight query execution and its subscriber fan-out.

    Events published while the query runs are buffered, so a subscriber
    that coalesces in late first replays the backlog, then streams live —
    every subscriber sees the identical event sequence.  Event-loop only
    (worker threads publish via ``loop.call_soon_threadsafe``).
    """

    def __init__(self, plan: QueryPlan) -> None:
        self.plan = plan
        self.backlog: list[dict[str, Any]] = []
        self.queues: "list[asyncio.Queue[dict[str, Any]]]" = []

    def subscribe(self) -> "asyncio.Queue[dict[str, Any]]":
        queue: "asyncio.Queue[dict[str, Any]]" = asyncio.Queue()
        for event in self.backlog:
            queue.put_nowait(event)
        self.queues.append(queue)
        return queue

    def publish(self, event: dict[str, Any]) -> None:
        self.backlog.append(event)
        for queue in self.queues:
            queue.put_nowait(event)


#: Events that end a query's stream.
_TERMINAL_EVENTS = frozenset({"result", "error", "rejected"})


class AgingAnalysisService:
    """Long-lived asyncio TCP server answering aging-analysis queries."""

    def __init__(self, config: "ServiceConfig | None" = None) -> None:
        self.config = config or ServiceConfig()
        self._server: "asyncio.base_events.Server | None" = None
        self._loop: "asyncio.AbstractEventLoop | None" = None
        self._pool = WorkerPool(workers=self.config.workers)
        self._exec_sem = asyncio.Semaphore(1)
        self._stop = asyncio.Event()
        self._inflight: dict[str, _Inflight] = {}
        self._pending = 0
        self._inflight_tasks = 0
        self._started_at = time.time()
        # The service records its own counters (and the pipeline's) into the
        # process observability registry; stats queries read it back.
        observability.enable()

    # -------------------------------------------------------------- lifecycle
    async def start(self) -> tuple[str, int]:
        """Bind and start serving; returns the actual (host, port)."""
        self._loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(
            self._handle_client,
            host=self.config.host,
            port=self.config.port,
            limit=MAX_LINE_BYTES,
        )
        return self.address

    @property
    def address(self) -> tuple[str, int]:
        assert self._server is not None, "service not started"
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    async def wait_stopped(self) -> None:
        """Block until a shutdown request (op or :meth:`close`) arrives."""
        await self._stop.wait()

    async def close(self) -> None:
        """Stop accepting connections and shut the worker pool down."""
        self._stop.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        loop = self._loop or asyncio.get_running_loop()
        await loop.run_in_executor(None, self._pool.close)

    # -------------------------------------------------------------- handlers
    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while not self._stop.is_set():
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    await self._send(
                        writer,
                        {
                            "event": "rejected",
                            "code": BAD_REQUEST,
                            "reason": "request line too long",
                        },
                    )
                    break
                if not line:
                    break
                try:
                    message = decode(line)
                except ProtocolError as error:
                    await self._send(
                        writer,
                        {"event": "rejected", "code": BAD_REQUEST, "reason": str(error)},
                    )
                    continue
                op = message.get("op")
                qid = message.get("id")
                if op == "ping":
                    await self._send(
                        writer, self._echo({"event": "pong", "version": PROTOCOL_VERSION}, qid)
                    )
                elif op == "stats":
                    await self._send(writer, self._echo(self._stats_event(), qid))
                elif op == "shutdown":
                    if not self.config.allow_remote_shutdown:
                        await self._send(
                            writer,
                            self._echo(
                                {
                                    "event": "rejected",
                                    "code": BAD_REQUEST,
                                    "reason": "remote shutdown disabled",
                                },
                                qid,
                            ),
                        )
                        continue
                    await self._send(writer, self._echo({"event": "bye"}, qid))
                    self._stop.set()
                    break
                elif op == "query":
                    await self._handle_query(writer, message, qid)
                else:
                    await self._send(
                        writer,
                        self._echo(
                            {
                                "event": "rejected",
                                "code": BAD_REQUEST,
                                "reason": f"unknown op {op!r}",
                            },
                            qid,
                        ),
                    )
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away; any in-flight execution continues
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - teardown race
                pass

    async def _handle_query(
        self, writer: asyncio.StreamWriter, message: dict[str, Any], qid: Any
    ) -> None:
        observability.add("service.queries")
        assert self._loop is not None
        try:
            experiments, overrides = parse_query(message)
            plan = await self._loop.run_in_executor(
                None, self._plan, experiments, overrides
            )
        except ProtocolError as error:
            observability.add("service.queries.rejected")
            await self._send(
                writer,
                self._echo(
                    {"event": "rejected", "code": BAD_REQUEST, "reason": str(error)}, qid
                ),
            )
            return

        inflight = self._inflight.get(plan.coalesce_key)
        coalesced = inflight is not None
        if inflight is None:
            if not plan.warm:
                decision = self.config.admission.admit(
                    tasks_to_execute=len(plan.to_execute),
                    estimated_seconds=plan.estimated_seconds,
                    pending=self._pending,
                    inflight_tasks=self._inflight_tasks,
                )
                if not decision.admitted:
                    observability.add("service.queries.rejected")
                    await self._send(
                        writer,
                        self._echo(
                            {
                                "event": "rejected",
                                "code": OVERLOADED,
                                "reason": decision.reason,
                            },
                            qid,
                        ),
                    )
                    return
            inflight = _Inflight(plan)
            self._inflight[plan.coalesce_key] = inflight
            self._inflight_tasks += len(plan.to_execute)
            self._loop.create_task(self._execute(inflight))
        else:
            observability.add("service.queries.coalesced")
        if inflight.plan.warm:
            observability.add("service.queries.warm")

        queue = inflight.subscribe()
        await self._send(
            writer,
            self._echo(
                {
                    "event": "accepted",
                    "version": PROTOCOL_VERSION,
                    "coalesce_key": plan.coalesce_key,
                    "coalesced": coalesced,
                    "warm": inflight.plan.warm,
                    "experiments": sorted(plan.requested),
                    "tasks_to_execute": len(inflight.plan.to_execute),
                    "cache_hits_planned": len(inflight.plan.hits),
                    "estimated_seconds": inflight.plan.estimated_seconds,
                },
                qid,
            ),
        )
        while True:
            event = await queue.get()
            await self._send(writer, self._echo(dict(event), qid))
            if event.get("event") in _TERMINAL_EVENTS:
                break

    # ------------------------------------------------------------- execution
    async def _execute(self, inflight: _Inflight) -> None:
        """Run one admitted query and publish its events (event-loop task)."""
        assert self._loop is not None
        plan = inflight.plan
        self._pending += 1
        queued = True
        try:
            async with self._exec_sem:
                self._pending -= 1
                queued = False
                artifacts = await self._loop.run_in_executor(
                    None, self._run_query, plan, inflight
                )
        except Exception as error:  # noqa: BLE001 - reported to subscribers
            observability.add("service.queries.errors")
            self._finish(inflight, {"event": "error", "message": f"{type(error).__name__}: {error}"})
            return
        finally:
            if queued:  # cancelled while waiting for the execution slot
                self._pending -= 1
            self._inflight_tasks -= len(plan.to_execute)
        observability.add("service.queries.completed")
        self._finish(
            inflight,
            {
                "event": "result",
                "coalesce_key": plan.coalesce_key,
                "warm": plan.warm,
                "artifacts": artifacts,
                "keys": {name: plan.keys[name] for name in plan.requested},
            },
        )

    def _finish(self, inflight: _Inflight, terminal: dict[str, Any]) -> None:
        # Deregister before publishing: an identical query arriving from
        # here on re-plans against the now-warm cache instead of joining a
        # finished execution.
        self._inflight.pop(inflight.plan.coalesce_key, None)
        inflight.publish(terminal)
        # Long-lived process hygiene: metrics aggregate in place, spans do
        # not — drop the ones this query's run merged back.
        observability.drain_spans()

    def _run_query(self, plan: QueryPlan, inflight: _Inflight) -> dict[str, str]:
        """Execute the pipeline in a worker thread; returns artifact texts."""
        if self.config.execution_hook is not None:
            self.config.execution_hook(plan)
        assert self._loop is not None
        loop = self._loop

        def on_task(record: TaskRecord) -> None:
            event = {
                "event": "task",
                "name": record.name,
                "action": record.action,
                "where": record.where,
                "duration_s": record.duration_s,
                "queue_wait_s": record.queue_wait_s,
            }
            loop.call_soon_threadsafe(inflight.publish, event)

        run = run_pipeline(
            plan.requested,
            plan.settings,
            cache_dir=plan.cache_dir,
            pool=self._pool if self.config.workers > 0 else None,
            on_task=on_task,
        )
        # Exactly the offline runner's bytes: save_json writes this string.
        return {
            name: json.dumps(run.results[name].to_dict(), indent=2, default=_jsonify)
            for name in plan.requested
        }

    # -------------------------------------------------------------- planning
    def _plan(self, experiments: "list[str]", overrides: dict[str, Any]) -> QueryPlan:
        """Resolve one query to keys + execution plan (worker thread, pure)."""
        settings = self._apply_overrides(overrides)
        graph = build_experiment_graph(settings)
        known = {task.name for task in graph.experiments()}
        unknown = sorted(set(experiments) - known)
        if unknown:
            raise ProtocolError(
                f"unknown experiments {unknown}; available: {sorted(known)}"
            )
        requested = tuple(dict.fromkeys(experiments))
        keys = compute_cache_keys(graph, settings)
        cache_dir = (
            self.config.cache_dir
            if self.config.cache_dir is not None
            else settings.cache_dir
        )
        cache = (
            ArtifactCache.resolve(cache_dir, max_bytes=settings.cache_max_bytes)
            if settings.pipeline_cache
            else None
        )
        order = graph.topological_order(requested)
        needed, executing = prune_to_demand(
            order,
            requested,
            lambda task: cache is not None and cache.contains(task, keys[task.name]),
        )
        to_execute = [task.name for task in executing]
        hits = [task.name for task in order if task.name in needed and task.name not in to_execute]
        return QueryPlan(
            requested=requested,
            settings=settings,
            keys=keys,
            to_execute=tuple(to_execute),
            hits=tuple(hits),
            coalesce_key=coalesce_key(requested, keys),
            estimated_seconds=estimate_query_seconds(
                cache,
                to_execute,
                keys,
                default_task_seconds=self.config.admission.default_task_seconds,
            ),
            cache_dir=cache_dir,
        )

    def _apply_overrides(self, overrides: dict[str, Any]) -> ExperimentSettings:
        base = self.config.settings
        unknown = sorted(set(overrides) - set(base.__dataclass_fields__))
        if unknown:
            raise ProtocolError(f"unknown settings fields {unknown}")
        coerced: dict[str, Any] = {}
        for name, value in overrides.items():
            # JSON has no tuples; tuple-valued fields (aging_levels_mv,
            # networks, ...) arrive as lists and must coerce back so reprs
            # — and therefore cache keys — match the offline runner's.
            if isinstance(value, list) and isinstance(getattr(base, name), tuple):
                value = tuple(tuple(v) if isinstance(v, list) else v for v in value)
            coerced[name] = value
        return base.with_overrides(**coerced)

    # ----------------------------------------------------------------- stats
    def _stats_event(self) -> dict[str, Any]:
        counters = dict(observability.snapshot().metrics.counters)
        return {
            "event": "stats",
            "version": PROTOCOL_VERSION,
            "uptime_s": time.time() - self._started_at,
            "pending": self._pending,
            "inflight_queries": len(self._inflight),
            "inflight_tasks": self._inflight_tasks,
            "pool_workers": self._pool.workers,
            "counters": counters,
        }

    # --------------------------------------------------------------- helpers
    @staticmethod
    def _echo(event: dict[str, Any], qid: Any) -> dict[str, Any]:
        if qid is not None:
            event["id"] = qid
        return event

    @staticmethod
    async def _send(writer: asyncio.StreamWriter, event: dict[str, Any]) -> None:
        writer.write(encode(event))
        await writer.drain()


async def run_service(config: "ServiceConfig | None" = None) -> None:
    """Start a service and serve until a shutdown request (CLI entry)."""
    service = AgingAnalysisService(config)
    host, port = await service.start()
    print(f"repro service listening on {host}:{port}", flush=True)
    try:
        await service.wait_stopped()
    finally:
        await service.close()
