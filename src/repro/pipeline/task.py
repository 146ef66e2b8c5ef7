"""Task declarations for the experiment pipeline.

A :class:`Task` is one node of the experiment graph: a named, deterministic
function of (a) the :class:`~repro.experiments.settings.ExperimentSettings`
fields it declares and (b) the artifacts of its dependencies.  Experiments
(``fig1a``, ``table1``, ...) and expensive workspace products (the synthetic
dataset, each trained zoo model, the MAC and its aging libraries) are all
tasks; the implicit lazy-property dependency web of the old sequential
runner becomes explicit edges the scheduler and the artifact cache can see.

Determinism contract: a task body must derive all randomness from the
settings (``settings.seed``) and its input artifacts — never from the
scheduling.  That is what makes pipeline runs bit-identical to the
sequential runner for any worker count, and what makes the declared
``settings_fields`` + upstream keys a sound cache key.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Callable
from typing import Any

from repro.experiments.settings import ExperimentSettings
from repro.experiments.workspace import ExperimentWorkspace

#: Task kinds: ``experiment`` tasks produce an ExperimentResult the runner
#: reports; ``product`` tasks produce a shared workspace ingredient.
EXPERIMENT = "experiment"
PRODUCT = "product"

#: Artifact serialization formats understood by the cache.
JSON_FORMAT = "json"
PICKLE_FORMAT = "pickle"


class TaskContext:
    """What a task body sees: settings, input artifacts, and a workspace.

    The workspace is adopted from the artifacts, so a task that asks for
    ``ctx.workspace.dataset`` gets the *artifact* produced by the ``dataset``
    task rather than lazily rebuilding it.  In the serial scheduler one
    workspace is shared across all tasks (matching the old sequential
    runner); each dispatched worker task gets its own.
    """

    def __init__(
        self,
        settings: ExperimentSettings,
        artifacts: dict[str, Any],
        workspace: ExperimentWorkspace | None = None,
    ) -> None:
        self.settings = settings
        self.artifacts = artifacts
        self._workspace = workspace

    @property
    def workspace(self) -> ExperimentWorkspace:
        if self._workspace is None:
            self._workspace = ExperimentWorkspace.create(self.settings)
        self._workspace.adopt(self.artifacts)
        return self._workspace

    def artifact(self, name: str) -> Any:
        """Artifact of a declared dependency (KeyError if not declared)."""
        return self.artifacts[name]


@dataclass(frozen=True)
class Task:
    """One node of the experiment graph.

    Attributes:
        name: unique identifier (``"fig1a"``, ``"model:resnet50"``, ...).
        fn: the task body, ``fn(ctx: TaskContext) -> artifact``.
        depends: names of the tasks whose artifacts the body consumes.
        settings_fields: the :class:`ExperimentSettings` fields the body
            reads.  Together with the upstream cache keys these define the
            task's cache key — the throughput-only knob ``workers`` is
            never declared, so changing it keeps the cache warm.
        kind: ``"experiment"`` or ``"product"``.
        heavy: heavy tasks are dispatched to worker processes when the
            pipeline runs with ``workers > 0``; light tasks (cheap
            constructors) always run inline in the parent.
        cacheable: whether the artifact is persisted to the artifact cache.
            Non-cacheable tasks (e.g. the netlist builders) are re-executed
            when needed; they still contribute a stable cache key.
        serializer: cache format, ``"json"`` (ExperimentResult) or
            ``"pickle"`` (workspace products).
        version: bump to invalidate cached artifacts when the body's
            semantics change.
    """

    name: str
    fn: Callable[[TaskContext], Any] = field(repr=False)
    depends: tuple[str, ...] = ()
    settings_fields: tuple[str, ...] = ()
    kind: str = EXPERIMENT
    heavy: bool = True
    cacheable: bool = True
    serializer: str = JSON_FORMAT
    version: int = 1

    def __post_init__(self) -> None:
        if self.kind not in (EXPERIMENT, PRODUCT):
            raise ValueError(f"unknown task kind {self.kind!r}")
        if self.serializer not in (JSON_FORMAT, PICKLE_FORMAT):
            raise ValueError(f"unknown serializer {self.serializer!r}")

    def run(self, context: TaskContext) -> Any:
        return self.fn(context)
