"""Content-addressed artifact cache for the experiment pipeline.

Every task's artifact is addressed by a key hashed from

* the task name and version,
* the repr of every :class:`ExperimentSettings` field the task declares it
  reads, and
* the cache keys of its dependencies (recursively, so a key fingerprints
  the whole upstream input closure).

Keys are therefore *input*-addressed, the way build-system action caches
work: they are computable before anything runs, identical in every process,
and a settings change invalidates exactly the subtree of tasks that
(transitively) read the changed field.  The throughput-only knob
``workers`` is never part of any task's declared fields, so a cache stays
warm across worker-count changes — results are bit-identical by the
determinism contract.  The Monte-Carlo sweep has no backend or batch-width
knob at all: it selects its backend itself and runs each sample shard as
one packed batch, so its streams depend only on the statistical settings
fig1a keys.

Layout under ``<cache_dir>/pipeline/``::

    <task-name>/<key>.json        ExperimentResult artifacts
    <task-name>/<key>.pkl         workspace-product artifacts (pickle)
    <task-name>/<key>.meta.json   inputs that produced the key + content hash

(the ``:`` of model task names is replaced with ``_`` in directory names).
All writes are atomic, so a killed run never leaves a truncated artifact.
An artifact counts as cached only while it matches the ``content_sha256``
its sidecar records and decodes: anything else (a truncated or edited
file, a missing sidecar) is counted as ``pipeline.cache.corrupt`` and
treated as a miss, so the task is recomputed and its artifact overwritten.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import pickle
import threading
import time
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping

import repro.observability as observability
from repro.experiments.reporting import ExperimentResult, _jsonify
from repro.experiments.settings import ExperimentSettings
from repro.pipeline.graph import TaskGraph
from repro.pipeline.task import JSON_FORMAT, Task
from repro.utils.io import atomic_write_bytes, atomic_write_text

#: Bumping this invalidates every cached artifact (schema-level changes).
CACHE_SCHEMA_VERSION = 1


def default_cache_root() -> Path:
    """Default pipeline cache location (shared with the model zoo cache)."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-aging-npu"


def settings_fingerprint(settings: ExperimentSettings, fields: tuple[str, ...]) -> dict[str, str]:
    """Stable ``{field: repr(value)}`` map of the declared settings fields."""
    return {name: repr(getattr(settings, name)) for name in sorted(fields)}


def compute_cache_keys(graph: TaskGraph, settings: ExperimentSettings) -> dict[str, str]:
    """Cache key of every task in the graph, dependencies first."""
    keys: dict[str, str] = {}
    for task in graph.topological_order():
        payload = {
            "schema": CACHE_SCHEMA_VERSION,
            "task": task.name,
            "version": task.version,
            "settings": settings_fingerprint(settings, task.settings_fields),
            "depends": {dep: keys[dep] for dep in sorted(task.depends)},
        }
        blob = json.dumps(payload, sort_keys=True).encode("utf-8")
        keys[task.name] = hashlib.sha256(blob).hexdigest()
    return keys


# In-flight pin registry: ``(cache root, task dir name, key)`` → refcount.
# Process-global (not per-ArtifactCache) because the service and the
# scheduler construct independent ArtifactCache objects over the same root,
# and eviction must see every pin regardless of which instance runs it.
_PINNED: dict[tuple[str, str, str], int] = {}
_PIN_LOCK = threading.Lock()


class ArtifactCache:
    """Persists task artifacts under ``root`` keyed by their cache key.

    ``max_bytes`` (optional) turns the cache into a bounded LRU store:
    :meth:`enforce_size_cap` evicts least-recently-hit artifacts (by the
    ``.meta.json`` ``last_hit_at`` telemetry, falling back to ``stored_at``)
    until the total artifact size fits.  Entries pinned by in-flight
    queries (see :meth:`pinned`) are never evicted.
    """

    def __init__(self, root: "str | Path", max_bytes: "int | None" = None) -> None:
        self.root = Path(root)
        self.max_bytes = max_bytes

    @classmethod
    def resolve(
        cls,
        cache_dir: "str | Path | None" = None,
        max_bytes: "int | None" = None,
    ) -> "ArtifactCache":
        """Cache at ``cache_dir`` (or the REPRO_CACHE_DIR / ~/.cache default)."""
        base = Path(cache_dir) if cache_dir is not None else default_cache_root()
        return cls(base / "pipeline", max_bytes=max_bytes)

    # ------------------------------------------------------------ locations
    def _task_dir(self, task: Task) -> Path:
        return self.root / task.name.replace(":", "_")

    def artifact_path(self, task: Task, key: str) -> Path:
        suffix = ".json" if task.serializer == JSON_FORMAT else ".pkl"
        return self._task_dir(task) / f"{key}{suffix}"

    def meta_path(self, task: Task, key: str) -> Path:
        return self._task_dir(task) / f"{key}.meta.json"

    # ------------------------------------------------------------- protocol
    def contains(self, task: Task, key: str) -> bool:
        """Whether a sound artifact is cached under ``key``.

        An existing artifact that does not match its sidecar's
        ``content_sha256``, has no sidecar or does not decode is counted as
        ``pipeline.cache.corrupt`` and reported missing, so the caller
        recomputes it and :meth:`store` overwrites it.
        """
        if not task.cacheable:
            return False
        try:
            blob = self.artifact_path(task, key).read_bytes()
        except FileNotFoundError:
            return False
        meta = self.read_meta(task.name, key) or {}
        if meta.get("content_sha256") == hashlib.sha256(blob).hexdigest():
            try:
                self._decode(task, blob)
                return True
            except Exception:  # any decode failure means the entry is unusable
                pass
        observability.add("pipeline.cache.corrupt")
        return False

    def load(self, task: Task, key: str) -> Any:
        """Deserialize the stored artifact (the caller checked ``contains``)."""
        blob = self.artifact_path(task, key).read_bytes()
        observability.add("pipeline.cache.hits")
        observability.add("pipeline.cache.bytes_read", len(blob))
        return self._decode(task, blob)

    @staticmethod
    def _decode(task: Task, blob: bytes) -> Any:
        if task.serializer == JSON_FORMAT:
            data = json.loads(blob)
            return ExperimentResult(
                experiment_id=data["experiment_id"],
                title=data["title"],
                columns=list(data["columns"]),
                rows=[list(row) for row in data["rows"]],
                metadata=data["metadata"],
            )
        return pickle.loads(blob)

    def store(
        self,
        task: Task,
        key: str,
        artifact: Any,
        timing: "Mapping[str, Any] | None" = None,
    ) -> Path | None:
        """Persist ``artifact`` (no-op for non-cacheable tasks).

        ``timing`` is the scheduler's per-task execution record (duration,
        queue wait, where it ran) and lands in the ``.meta.json`` sidecar, so
        a later ``--explain`` can report what the artifact originally cost.
        """
        if not task.cacheable:
            return None
        path = self.artifact_path(task, key)
        if task.serializer == JSON_FORMAT:
            blob = json.dumps(artifact.to_dict(), indent=2, default=_jsonify).encode("utf-8")
        else:
            blob = pickle.dumps(artifact, protocol=pickle.HIGHEST_PROTOCOL)
        atomic_write_bytes(path, blob)
        observability.add("pipeline.cache.stores")
        observability.add("pipeline.cache.bytes_written", len(blob))
        meta = {
            "task": task.name,
            "key": key,
            "format": task.serializer,
            "content_sha256": hashlib.sha256(blob).hexdigest(),
            "size_bytes": len(blob),
            "stored_at": time.time(),
            "hits": 0,
        }
        if timing is not None:
            meta["timing"] = dict(timing)
        atomic_write_text(self.meta_path(task, key), json.dumps(meta, indent=2))
        return path

    # ------------------------------------------------------------- telemetry
    def read_meta(self, task_name: str, key: str) -> "dict[str, Any] | None":
        """The ``.meta.json`` sidecar of an artifact, or None when absent.

        Addressed by name rather than :class:`Task` so report readers (e.g.
        ``--explain``) can inspect history without rebuilding the graph.
        """
        path = self.root / task_name.replace(":", "_") / f"{key}.meta.json"
        try:
            return json.loads(path.read_text())
        except (OSError, ValueError):
            return None

    def record_hit(self, task: Task, key: str) -> None:
        """Bump the sidecar's hit counter after a cache load (best-effort).

        Sidecars are telemetry, never inputs: a missing or corrupt one is
        rebuilt minimal, and failures here must not fail the pipeline.
        """
        meta = self.read_meta(task.name, key) or {
            "task": task.name,
            "key": key,
            "format": task.serializer,
        }
        meta["hits"] = int(meta.get("hits", 0)) + 1
        meta["last_hit_at"] = time.time()
        try:
            atomic_write_text(self.meta_path(task, key), json.dumps(meta, indent=2))
        except OSError:  # pragma: no cover - filesystem races/permissions
            pass

    # -------------------------------------------------------------- pinning
    def _pin_key(self, task_name: str, key: str) -> tuple[str, str, str]:
        return (str(self.root), task_name.replace(":", "_"), key)

    def pin(self, task_name: str, key: str) -> None:
        """Protect one artifact from eviction (refcounted; see :meth:`unpin`)."""
        handle = self._pin_key(task_name, key)
        with _PIN_LOCK:
            _PINNED[handle] = _PINNED.get(handle, 0) + 1

    def unpin(self, task_name: str, key: str) -> None:
        handle = self._pin_key(task_name, key)
        with _PIN_LOCK:
            count = _PINNED.get(handle, 0) - 1
            if count > 0:
                _PINNED[handle] = count
            else:
                _PINNED.pop(handle, None)

    def is_pinned(self, task_dir_name: str, key: str) -> bool:
        with _PIN_LOCK:
            return (str(self.root), task_dir_name, key) in _PINNED

    @contextlib.contextmanager
    def pinned(self, keys: "Mapping[str, str] | Iterable[tuple[str, str]]") -> Iterator[None]:
        """Pin a batch of ``(task name, key)`` pairs for the enclosed block.

        The scheduler wraps each run in this so a concurrent query's
        eviction pass can never remove artifacts the run is about to hit.
        """
        pairs = list(keys.items() if isinstance(keys, Mapping) else keys)
        for name, key in pairs:
            self.pin(name, key)
        try:
            yield
        finally:
            for name, key in pairs:
                self.unpin(name, key)

    # ------------------------------------------------------------- eviction
    def entries(self) -> list[dict[str, Any]]:
        """All cached artifacts, one record per ``.meta.json`` sidecar.

        Each record carries ``task_dir``/``key``/``size_bytes`` plus the
        recency timestamp eviction sorts by.  Artifacts whose sidecar is
        missing or corrupt are skipped (they are invisible to eviction,
        which errs on the side of keeping bytes).
        """
        records: list[dict[str, Any]] = []
        if not self.root.is_dir():
            return records
        for meta_path in sorted(self.root.glob("*/*.meta.json")):
            try:
                meta = json.loads(meta_path.read_text())
            except (OSError, ValueError):
                continue
            key = meta_path.name[: -len(".meta.json")]
            artifact = None
            for suffix in (".json", ".pkl"):
                candidate = meta_path.with_name(key + suffix)
                if candidate.exists():
                    artifact = candidate
                    break
            if artifact is None:
                continue
            size = meta.get("size_bytes")
            if not isinstance(size, (int, float)):
                try:
                    size = artifact.stat().st_size
                except OSError:  # pragma: no cover - race with eviction
                    continue
            records.append(
                {
                    "task_dir": meta_path.parent.name,
                    "key": key,
                    "size_bytes": int(size),
                    "last_used_at": float(
                        meta.get("last_hit_at") or meta.get("stored_at") or 0.0
                    ),
                    "artifact_path": artifact,
                    "meta_path": meta_path,
                }
            )
        return records

    def enforce_size_cap(self) -> list[tuple[str, str]]:
        """Evict least-recently-hit artifacts until the cache fits ``max_bytes``.

        Returns the evicted ``(task_dir, key)`` pairs.  Pinned entries are
        skipped even when the cache stays over budget — correctness of
        in-flight queries beats the size cap.  A no-op when ``max_bytes``
        is unset.
        """
        if self.max_bytes is None:
            return []
        records = self.entries()
        total = sum(record["size_bytes"] for record in records)
        if total <= self.max_bytes:
            return []
        evicted: list[tuple[str, str]] = []
        for record in sorted(records, key=lambda r: (r["last_used_at"], r["key"])):
            if total <= self.max_bytes:
                break
            if self.is_pinned(record["task_dir"], record["key"]):
                continue
            for path in (record["artifact_path"], record["meta_path"]):
                try:
                    path.unlink()
                except OSError:  # pragma: no cover - concurrent eviction
                    pass
            total -= record["size_bytes"]
            evicted.append((record["task_dir"], record["key"]))
            observability.add("pipeline.cache.evictions")
            observability.add("pipeline.cache.bytes_evicted", record["size_bytes"])
        return evicted
