"""Process-pool executor with one dispatch path and ordered result merging.

The executor runs a picklable task function over a list of picklable work
items, optionally sharing a larger *payload* (netlists, cell-library sets,
trained models...) that is shipped to each worker process once instead of
once per item.  Everything dispatches through :class:`ExecutorSession`:

* :meth:`ParallelExecutor.map` opens a session on its own pool, submits the
  items in automatically sized chunks and collects them in work-item order,
  whatever order the workers complete in, so sweep front-ends merge
  statistics deterministically;
* :meth:`ParallelExecutor.session` hands the same session to callers that
  submit items one at a time (the pipeline scheduler);
* :meth:`WorkerPool.session` runs a session on a long-lived shared pool.

Every worker runs :func:`_run_items`.  Owned pools deliver the task and
payload through the pool initializer; shared pools send one pre-pickled
``(token, blob)`` state with each submission, decoded once per worker.

Falls back to in-process serial execution — same items, same order, same
results — when ``workers=0``, when there is nothing to parallelise, or on
platforms that cannot start worker processes at all.  Under spawn-family
start methods a task/payload that cannot be pickled (e.g. a closure input
sampler) also falls back serially, with a ``RuntimeWarning``; under fork an
owned pool's workers share it by inheritance and run in parallel anyway.
Either way the results are identical.
"""

from __future__ import annotations

import itertools
import math
import multiprocessing
import os
import pickle
import threading
import warnings
from collections import OrderedDict, deque
from collections.abc import Callable, Sequence
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from typing import Any

import repro.observability as observability

TaskFunction = Callable[[Any, Any], Any]

#: Chunks :meth:`ParallelExecutor.map` submits per worker; a few chunks per
#: worker keeps the pool busy when shard runtimes are uneven without paying
#: per-item dispatch overhead.
_CHUNKS_PER_WORKER = 4

# Per-process state installed by an owned pool's initializer: the task
# function and the shared payload, delivered once per worker.  Under fork
# they are inherited by memory, so closures work without pickling.
_WORKER_TASK: TaskFunction | None = None
_WORKER_PAYLOAD: Any = None

# Worker-side state for *shared* pools (WorkerPool): sessions come and go
# while the worker processes live on, so each session's (task, payload) pair
# travels with every submission as a pre-pickled blob tagged with a session
# token, and the worker memoises the decoded pair by token — the decode cost
# is paid once per (worker, session), not once per item.  The cache is
# bounded so a long-lived service cycling through many sessions cannot grow
# worker memory without limit.
_POOL_SESSIONS: "OrderedDict[int, tuple[TaskFunction, Any]]" = OrderedDict()
_POOL_SESSION_CACHE_SIZE = 4


def usable_cpu_count() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def resolve_workers(workers: int | None) -> int:
    """Normalise a ``workers`` knob: ``None``/``0`` serial, ``-1`` all CPUs."""
    if workers is None or workers == 0:
        return 0
    if workers < 0:
        return usable_cpu_count()
    return int(workers)


def _initialize_worker(task: TaskFunction, payload: Any) -> None:
    global _WORKER_TASK, _WORKER_PAYLOAD
    _WORKER_TASK = task
    _WORKER_PAYLOAD = payload


def _pooled_session_state(token: int, blob: bytes) -> tuple[TaskFunction, Any]:
    state = _POOL_SESSIONS.get(token)
    if state is None:
        state = pickle.loads(blob)
        _POOL_SESSIONS[token] = state
        while len(_POOL_SESSIONS) > _POOL_SESSION_CACHE_SIZE:
            _POOL_SESSIONS.popitem(last=False)
    else:
        _POOL_SESSIONS.move_to_end(token)
    return state


def _run_items(state: "tuple[int, bytes] | None", items: list[Any], observed: bool) -> Any:
    """The worker-side entry point of every pool: run ``items`` in order.

    ``state`` is ``None`` on an owned pool (the initializer installed the
    task and payload) and ``(token, blob)`` on a shared pool.  When
    ``observed``, ``collecting()`` installs a fresh enabled registry/tracer
    for the batch (isolating it from any state inherited over ``fork``) and
    the snapshot is returned with the results for the parent to merge.
    Results are byte-identical either way — the wrapper only records
    *about* the work.
    """
    if state is None:
        assert _WORKER_TASK is not None, "worker used before initialization"
        task, payload = _WORKER_TASK, _WORKER_PAYLOAD
    else:
        task, payload = _pooled_session_state(*state)
    if not observed:
        return [task(item, payload) for item in items]
    with observability.collecting() as snapshot:
        results = [task(item, payload) for item in items]
    return results, snapshot


def _start_method(start_method: str | None) -> str:
    if start_method is not None:
        return start_method
    return "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"


def _process_pool(
    workers: int, start_method: str, initargs: "tuple[TaskFunction, Any] | None" = None
) -> ProcessPoolExecutor | None:
    """Build a worker pool, or return ``None`` (with a warning) to run serially.

    ``initargs`` installs an owned session's task and payload in every
    worker; a shared :class:`WorkerPool` passes none.
    """
    try:
        return ProcessPoolExecutor(
            max_workers=workers,
            mp_context=multiprocessing.get_context(start_method),
            initializer=_initialize_worker if initargs is not None else None,
            initargs=initargs or (),
        )
    except (OSError, ValueError, NotImplementedError) as error:  # pragma: no cover
        warnings.warn(
            f"could not start worker processes ({error}); "
            "falling back to serial execution",
            RuntimeWarning,
            stacklevel=4,
        )
        return None


def _pickled(task: TaskFunction, payload: Any) -> bytes | None:
    try:
        return pickle.dumps((task, payload), protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:
        return None


class ParallelExecutor:
    """Maps a task function over work items across worker processes.

    Attributes:
        workers: number of worker processes; ``0`` runs serially in-process
            and ``-1`` uses every usable CPU.
        start_method: multiprocessing start method; defaults to ``"fork"``
            where available (cheap on Linux) and ``"spawn"`` elsewhere.
            Deterministic sweeps do not depend on the choice.
    """

    def __init__(self, workers: int | None = 0, start_method: str | None = None) -> None:
        self.workers = resolve_workers(workers)
        self.start_method = start_method

    def map(self, task: TaskFunction, items: Sequence[Any], payload: Any = None) -> list[Any]:
        """Apply ``task(item, payload)`` to every item, results in item order.

        Items go out in chunks of ``ceil(len(items) / (workers * 4))``,
        at most ``workers`` chunks in flight: each finished chunk tops the
        window up with the next one, so a failure leaves few chunks behind
        it to cancel or to run out.  Chunking only batches IPC — results are
        determined by the work items alone.
        """
        items = list(items)
        if not items:
            return []
        workers = min(self.workers, len(items))
        session = ExecutorSession(
            task, payload, workers=workers, start_method=self.start_method
        )
        with session:
            if not session.parallel:
                return session._collect(session._submit(items))
            size = math.ceil(len(items) / (workers * _CHUNKS_PER_WORKER))
            chunks = [items[start : start + size] for start in range(0, len(items), size)]
            with observability.span(
                "parallel:map",
                category="parallel",
                items=len(items),
                workers=workers,
                chunks=len(chunks),
            ):
                pending = iter(chunks)
                tickets: deque[int] = deque()
                running: set[int] = set()

                def submit_next() -> None:
                    chunk = next(pending, None)
                    if chunk is not None:
                        tickets.append(session._submit(chunk))
                        running.add(tickets[-1])

                for _ in range(workers):
                    submit_next()
                results: list[Any] = []
                while tickets:
                    for ticket in session._wait_finished(running):
                        running.discard(ticket)
                        submit_next()
                    # Collecting in submission order restores work-item
                    # order (results and worker telemetry alike), whichever
                    # worker finished first.
                    while tickets and tickets[0] not in running:
                        results.extend(session._collect(tickets.popleft()))
                return results

    def session(self, task: TaskFunction, payload: Any = None) -> "ExecutorSession":
        """Open an incremental submit/collect session for ``task``.

        Unlike :meth:`map`, which needs the whole work list up front, a
        session accepts items one at a time and hands back results as they
        complete — the shape a dependency-aware scheduler needs, where a
        finishing task unlocks new ready tasks.  The payload is still shipped
        to each worker exactly once, and the same serial/pickling fallbacks
        apply.  Use as a context manager so the worker pool is torn down.
        """
        return ExecutorSession(task, payload, workers=self.workers, start_method=self.start_method)


class WorkerPool:
    """A long-lived worker-process pool shared by many sessions and callers.

    :meth:`ParallelExecutor.session` builds (and tears down) one process
    pool per session, delivering the task function and payload through the
    pool *initializer* — the right shape for one-shot sweeps, but a query
    server that answers thousands of pipeline runs cannot pay pool startup
    per query.  A ``WorkerPool`` keeps the worker processes alive across
    sessions: each :meth:`session` ships its ``(task, payload)`` pair with
    every item as a pre-pickled blob tagged with a session token, and
    workers memoise the decoded pair by token (see :func:`_run_items`).

    Consequences of outliving any single session:

    * the task and payload must be picklable even under ``fork`` (a running
      pool cannot inherit new parent state); unpicklable sessions fall back
      to serial execution with a ``RuntimeWarning``, results identical;
    * session close never shuts the pool down, so a failing query leaves
      the pool immediately usable for the next one;
    * :meth:`close` is idempotent and must be called (or the pool used as a
      context manager) when the owner shuts down.

    Thread-safe: sessions may be opened from any thread (the service opens
    them from executor threads while the pool is owned by the event loop's
    process).
    """

    def __init__(self, workers: int | None = 0, start_method: str | None = None) -> None:
        self.workers = resolve_workers(workers)
        self.start_method = start_method
        self._pool: ProcessPoolExecutor | None = None
        self._started = False
        self._closed = False
        self._tokens = itertools.count()
        self._lock = threading.Lock()

    @property
    def closed(self) -> bool:
        return self._closed

    def _handle(self) -> ProcessPoolExecutor | None:
        """The shared process pool, started lazily (None = run serially)."""
        with self._lock:
            if self._closed:
                raise RuntimeError("WorkerPool is closed")
            if not self._started:
                self._started = True
                self._pool = _process_pool(self.workers, _start_method(self.start_method))
            return self._pool

    def next_token(self) -> int:
        return next(self._tokens)

    def session(self, task: TaskFunction, payload: Any = None) -> "ExecutorSession":
        """Open an incremental session backed by this shared pool.

        Same submit/wait_any contract as :meth:`ParallelExecutor.session`;
        closing the session leaves the pool running for the next one.
        """
        return ExecutorSession(task, payload, shared=self)

    def close(self) -> None:
        """Shut the worker processes down (idempotent, exception-safe)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class ExecutorSession:
    """Incremental submit/collect session: the one dispatch path.

    ``submit`` hands one work item to the pool and returns a ticket;
    ``wait_any`` blocks until *some* outstanding item finishes and returns
    ``(ticket, result)``.  In serial mode (``workers=0``, unpicklable
    task/payload, or a pool that cannot start) items run inline at
    ``submit`` time — same items, same results, just no overlap — so
    callers never need a separate code path.

    A session is backed either by its *own* pool of ``workers`` processes
    (torn down on close) or by a ``shared`` :class:`WorkerPool` (left
    running on close).  Results are whatever the items determine: the
    session adds no ordering guarantees beyond the tickets, which is exactly
    right for schedulers whose tasks are deterministic functions of their
    inputs.
    """

    def __init__(
        self,
        task: TaskFunction,
        payload: Any = None,
        *,
        workers: int = 0,
        start_method: str | None = None,
        shared: "WorkerPool | None" = None,
    ) -> None:
        self._task = task
        self._payload = payload
        self._pool: ProcessPoolExecutor | None = None
        self._owned = shared is None
        self._state: "tuple[int, bytes] | None" = None
        self._futures: dict[int, Future] = {}
        self._completed: dict[int, list[Any]] = {}
        self._tickets = itertools.count()
        # Captured at session start: dispatched items run observed and ship
        # their telemetry snapshots back (merged on collection); serially
        # executed items record into the parent's registry directly.
        self._observed = observability.is_enabled()
        if shared is not None:
            workers, start_method = shared.workers, shared.start_method
        if workers <= 0:
            return
        start_method = _start_method(start_method)
        # A shared pool cannot inherit new parent state and spawn-family
        # workers unpickle their initargs, so both need the pair to pickle;
        # forked owned workers inherit it by memory, and pickle it here only
        # to gauge its size for telemetry.
        must_pickle = shared is not None or start_method != "fork"
        blob = _pickled(task, payload) if must_pickle or self._observed else None
        if blob is None and must_pickle:
            warnings.warn(
                "task or payload is not picklable; falling back to serial execution",
                RuntimeWarning,
                stacklevel=3,
            )
            return
        if shared is not None:
            self._pool = shared._handle()
            self._state = (shared.next_token(), blob)
        else:
            self._pool = _process_pool(workers, start_method, (task, payload))
        if self._pool is not None and blob is not None:
            observability.gauge("executor.payload_bytes", len(blob))

    @property
    def parallel(self) -> bool:
        """Whether items actually run in worker processes."""
        return self._pool is not None

    def submit(self, item: Any) -> int:
        """Queue one work item; returns a ticket for :meth:`wait_any`."""
        return self._submit([item])

    def _submit(self, items: list[Any]) -> int:
        ticket = next(self._tickets)
        if self._pool is None:
            # Serial fallback: run now, collect like any other ticket.
            self._completed[ticket] = [self._task(item, self._payload) for item in items]
        else:
            self._futures[ticket] = self._pool.submit(
                _run_items, self._state, items, self._observed
            )
        return ticket

    def _collect(self, ticket: int) -> list[Any]:
        """Block for one ticket's results (merging its worker telemetry)."""
        if ticket in self._completed:
            return self._completed.pop(ticket)
        output = self._futures.pop(ticket).result()
        if not self._observed:
            return output
        results, snapshot = output
        observability.merge_snapshot(snapshot)
        return results

    def _wait_finished(self, tickets: "set[int]") -> list[int]:
        """Block until some of the pool ``tickets`` finish; returns those.

        Re-raises the task's exception as soon as a finished item failed.
        """
        done, _ = wait([self._futures[t] for t in tickets], return_when=FIRST_COMPLETED)
        finished = [t for t in sorted(tickets) if self._futures[t] in done]
        for ticket in finished:
            if self._futures[ticket].exception() is not None:
                self._collect(ticket)
        return finished

    def wait_any(self) -> tuple[int, Any]:
        """Block until any outstanding item completes; returns (ticket, result).

        Raises ``RuntimeError`` when nothing is outstanding, and re-raises
        the task's exception if the item failed.
        """
        if self._completed:
            ticket = next(iter(self._completed))
        elif self._futures:
            done, _ = wait(self._futures.values(), return_when=FIRST_COMPLETED)
            ticket = next(t for t, future in self._futures.items() if future in done)
        else:
            raise RuntimeError("wait_any called with no outstanding work items")
        (result,) = self._collect(ticket)
        return ticket, result

    @property
    def outstanding(self) -> int:
        """Number of submitted items whose results were not collected yet."""
        return len(self._futures) + len(self._completed)

    def close(self) -> None:
        """Drain the session and release its pool (idempotent, exception-safe).

        Items not yet started are cancelled and running ones awaited, so a
        failure does not run the rest of the queue; then an owned pool is
        shut down, while a shared :class:`WorkerPool` stays usable for the
        next session.  The pool handle is detached before any blocking
        call, so a second ``close`` (e.g. ``__exit__`` after an explicit
        close, or cleanup re-entered from an exception handler) is a no-op.
        """
        pool, self._pool = self._pool, None
        futures = list(self._futures.values())
        self._futures.clear()
        self._completed.clear()
        if pool is None:
            return
        for future in futures:
            future.cancel()
        wait(futures)
        if self._owned:
            pool.shutdown(wait=True)

    def __enter__(self) -> "ExecutorSession":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
