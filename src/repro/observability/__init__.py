"""Unified observability: mergeable metrics, span tracing, and exporters.

The repo's telemetry used to be fragmented — ``EventCounters`` on the event
engines, ``levelized_passes`` on the STA engines, gather-locality fractions
on the lane backend, per-task ``duration_s`` inside the pipeline scheduler —
with no common schema and no way to aggregate across worker processes.
This package unifies all of it behind three pieces:

* a **mergeable metrics registry** (:mod:`repro.observability.metrics`):
  counters, gauges and histograms whose ``merge()`` is associative and
  commutative, so worker snapshots aggregate deterministically no matter
  how work was sharded or scheduled;
* a **hierarchical span tracer** (:mod:`repro.observability.tracer`):
  pipeline run → task → sweep → shard spans with wall time, queue wait,
  payload bytes and cache disposition;
* **exporters** (:mod:`repro.observability.export`): Chrome trace-event
  JSON (loadable in Perfetto / ``chrome://tracing``), a human-readable
  end-of-run report, and an atomic machine-readable metrics sidecar.

Usage contract
--------------

Observability is **off by default** and the disabled path is no-op cheap:
every instrumentation point is one module-level function call that checks
one boolean and returns a shared null object.  Enabling it never changes
results — instrumented code records *about* its work, never *into* it; the
property suite asserts experiment outputs byte-identical with observability
on vs. off for any workers count.

Worker processes do not inherit a live connection to the parent's registry.
Instead the executor's one worker entry point
(:func:`repro.parallel.executor._run_items`) wraps each dispatched batch of
items in :func:`collecting`, which installs a fresh enabled registry +
tracer for its duration, and ships the resulting
:class:`ObservabilitySnapshot` back with the results; the parent merges it
via :func:`merge_snapshot`.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any

from repro.observability.metrics import BUCKET_BOUNDS, Gauge, Histogram, MetricsRegistry
from repro.observability.tracer import NULL_SPAN, Span, Tracer, sorted_spans

__all__ = [
    "BUCKET_BOUNDS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ObservabilitySnapshot",
    "Span",
    "Tracer",
    "add",
    "collecting",
    "disable",
    "drain_spans",
    "enable",
    "enabled",
    "gauge",
    "is_enabled",
    "merge_snapshot",
    "observe",
    "record_event_counters",
    "reset",
    "snapshot",
    "sorted_spans",
    "span",
]


@dataclass
class ObservabilitySnapshot:
    """Picklable bundle of one process's (or one run's) telemetry."""

    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    spans: list[Span] = field(default_factory=list)

    def merge(self, other: "ObservabilitySnapshot") -> "ObservabilitySnapshot":
        """Fold another snapshot in (metrics order-independently); returns self."""
        self.metrics.merge(other.metrics)
        self.spans.extend(other.spans)
        return self

    def to_dict(self) -> dict[str, Any]:
        """JSON-able form: merged metrics plus canonically ordered spans."""
        return {
            "metrics": self.metrics.to_dict(),
            "spans": [
                {
                    "name": span.name,
                    "category": span.category,
                    "start_s": span.start_s,
                    "duration_s": span.duration_s,
                    "pid": span.pid,
                    "span_id": span.span_id,
                    "parent_id": span.parent_id,
                    "args": span.args,
                }
                for span in sorted_spans(self.spans)
            ],
        }


class _State:
    """The process-global observability state (one per process)."""

    __slots__ = ("enabled", "registry", "tracer")

    def __init__(self) -> None:
        self.enabled = False
        self.registry = MetricsRegistry()
        self.tracer = Tracer()


_STATE = _State()


# ----------------------------------------------------------------- lifecycle
def is_enabled() -> bool:
    """Whether telemetry is being recorded in this process."""
    return _STATE.enabled


def enable() -> None:
    """Turn recording on (idempotent; state accumulates until :func:`reset`)."""
    _STATE.enabled = True


def disable() -> None:
    """Turn recording off (recorded state is kept until :func:`reset`)."""
    _STATE.enabled = False


def reset() -> None:
    """Drop all recorded metrics and spans (recording flag unchanged)."""
    _STATE.registry = MetricsRegistry()
    _STATE.tracer = Tracer()


@contextmanager
def enabled():
    """Enable recording for a with-block, restoring the previous flag after."""
    previous = _STATE.enabled
    _STATE.enabled = True
    try:
        yield
    finally:
        _STATE.enabled = previous


def snapshot() -> ObservabilitySnapshot:
    """Deep copy of everything recorded so far in this process."""
    return ObservabilitySnapshot(
        metrics=_STATE.registry.snapshot(), spans=list(_STATE.tracer.spans)
    )


def merge_snapshot(other: ObservabilitySnapshot) -> None:
    """Fold a shipped-back snapshot into this process's registry and tracer."""
    _STATE.registry.merge(other.metrics)
    _STATE.tracer.spans.extend(other.spans)


def drain_spans() -> list[Span]:
    """Remove and return every completed span recorded so far.

    Metrics are cheap to keep forever (they aggregate in place), but spans
    accumulate one record per task/sweep/shard: a long-lived process that
    merges run snapshots back — the query server answering thousands of
    pipeline runs — must periodically drain them or grow without bound.
    Spans still open (inside a ``with span(...)`` block) are unaffected;
    they are appended on exit as usual.
    """
    spans = _STATE.tracer.spans
    drained = list(spans)
    spans.clear()
    return drained


@contextmanager
def collecting():
    """Record into a fresh, enabled scope; yields its live snapshot.

    Installs a fresh registry and tracer (recording forced on) for the
    duration of the block and restores the previous state — enabled flag
    included — afterwards.  The yielded :class:`ObservabilitySnapshot`
    aliases the scope's live registry/span list, so after the block it
    holds exactly what the block recorded: this is how worker processes
    isolate per-chunk telemetry from state inherited over ``fork``, and how
    the scheduler gives each pipeline run its own snapshot.
    """
    previous_enabled = _STATE.enabled
    previous_registry = _STATE.registry
    previous_tracer = _STATE.tracer
    registry = MetricsRegistry()
    tracer = Tracer()
    _STATE.enabled = True
    _STATE.registry = registry
    _STATE.tracer = tracer
    try:
        yield ObservabilitySnapshot(metrics=registry, spans=tracer.spans)
    finally:
        _STATE.enabled = previous_enabled
        _STATE.registry = previous_registry
        _STATE.tracer = previous_tracer


# ----------------------------------------------------------------- recording
def add(name: str, amount: "int | float" = 1) -> None:
    """Increment a counter (no-op unless enabled)."""
    if _STATE.enabled:
        _STATE.registry.add(name, amount)


def gauge(name: str, value: float, mode: str = "max") -> None:
    """Record a gauge value (no-op unless enabled)."""
    if _STATE.enabled:
        _STATE.registry.gauge(name, value, mode)


def observe(name: str, value: float) -> None:
    """Record a histogram observation (no-op unless enabled)."""
    if _STATE.enabled:
        _STATE.registry.observe(name, value)


def span(name: str, category: str = "run", **args: Any):
    """Context manager timing a span; yields its mutable args dict.

    Returns a shared null context (no allocation, writes discarded) when
    recording is disabled.
    """
    if not _STATE.enabled:
        return NULL_SPAN
    return _STATE.tracer.span(name, category, args)


def record_event_counters(counters: Any, top_n: int = 8) -> None:
    """Fold one event-propagation's :class:`EventCounters` into the metrics.

    Uses the bounded ``summarize_glitches(top_n)`` path rather than the full
    per-net dict, so large netlists never inflate snapshots: the total glitch
    count is exact, per-net counters are kept only for each propagation's
    ``top_n`` glitchiest nets.  No-op unless enabled.
    """
    if not _STATE.enabled:
        return
    registry = _STATE.registry
    registry.add("sim.events.popped", counters.events_popped)
    registry.add("sim.events.suppressed", counters.events_suppressed)
    registry.add("sim.events.wheel_buckets", counters.wheel_buckets)
    summary = counters.summarize_glitches(top_n)
    if summary.total:
        registry.add("sim.glitches.total", summary.total)
        registry.add("sim.glitches.nets", summary.nets)
        for net_name, count in summary.top:
            registry.add(f"sim.glitches.net.{net_name}", count)
