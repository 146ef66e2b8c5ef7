"""Command-line entry point regenerating the paper's tables and figures.

Example::

    python -m repro.experiments.runner --experiments fig1a fig2 table2 --profile fast
    python -m repro.experiments.runner --all --profile full --output results/ --workers 4
    python -m repro.experiments.runner --experiments fig4b --explain
    python -m repro.experiments.runner --list
    python -m repro.experiments.runner serve --port 7321 --workers 4
    python -m repro.experiments.runner query --port 7321 --experiments fig2

Experiments run through the dependency-aware pipeline (:mod:`repro.pipeline`):
``--workers N`` overlaps up to N whole tasks (experiments, model training) in
worker processes, dependencies like ``table1`` before ``fig4b`` are graph
edges, and completed artifacts are cached under ``cache_dir`` so a rerun is
near-instant.  Results are bit-identical for any worker count and cache
state.  Each experiment prints the rows the paper reports; ``--output``
additionally stores them as JSON for later inspection.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from collections.abc import Callable, Sequence

from repro.aging.scenarios import SCENARIO_KINDS
from repro.circuits.backends import backend_names
from repro.experiments.ablation_precision_scaling import run_precision_scaling_ablation
from repro.experiments.ablation_surrogate import run_surrogate_ablation
from repro.experiments.fig1a_multiplier_errors import run_fig1a
from repro.experiments.fig1b_error_injection import run_fig1b
from repro.experiments.fig2_mac_delay import run_fig2
from repro.experiments.fig4_delay_accuracy import run_fig4a, run_fig4b
from repro.experiments.fig5_energy import run_fig5
from repro.experiments.reporting import ExperimentResult
from repro.experiments.scenario_study import run_scenario_sweep
from repro.experiments.settings import ExperimentSettings
from repro.experiments.table1_accuracy import run_table1
from repro.experiments.table2_compression import run_table2

#: Registry of all experiments keyed by their identifier.  The pipeline's
#: task graph (repro.pipeline.registry) wraps exactly these entry points;
#: the dict is kept for direct, single-experiment use.
EXPERIMENTS: dict[str, Callable[..., ExperimentResult]] = {
    "fig1a": run_fig1a,
    "fig1b": run_fig1b,
    "fig2": run_fig2,
    "table2": run_table2,
    "table1": run_table1,
    "fig4a": run_fig4a,
    "fig4b": run_fig4b,
    "fig5": run_fig5,
    "scenario_sweep": run_scenario_sweep,
    "ablation_surrogate": run_surrogate_ablation,
    "ablation_precision_scaling": run_precision_scaling_ablation,
}


def run_experiments(
    names: Sequence[str],
    settings: ExperimentSettings | None = None,
    output_dir: "str | Path | None" = None,
    *,
    cache: bool | None = None,
    cache_dir: "str | Path | None" = None,
) -> list[ExperimentResult]:
    """Run the named experiments through the dependency-aware pipeline.

    Dependencies are resolved as graph edges (requesting ``fig4b`` alone
    runs — or loads from cache — ``table1`` first), ``settings.workers``
    overlaps independent experiments, and artifacts are reused from the
    cache when their inputs are unchanged.  Results come back in request
    order, bit-identical to a fully serial run.
    """
    # Imported lazily: repro.pipeline imports the experiment modules, which
    # import this package — a module-level import would be circular.
    from repro.pipeline import run_pipeline

    run = run_pipeline(
        names, settings=settings, cache=cache, cache_dir=cache_dir, output_dir=output_dir
    )
    # One result per requested name, repeats included (matching the old
    # sequential runner); repeated names resolve to the same result object.
    return [run.results[name] for name in names]


def _positive_int(text: str) -> int:
    """Argparse type: an integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _workers_arg(text: str) -> int:
    """Argparse type: worker count (0 serial, -1 all CPUs, N processes)."""
    value = int(text)
    if value < -1:
        raise argparse.ArgumentTypeError(
            f"must be >= -1 (0 = serial, -1 = all CPUs), got {value}"
        )
    return value


def _list_registry(settings: ExperimentSettings, use_cache: bool) -> str:
    """Render the experiment registry with dependencies and cache status."""
    from repro.pipeline import ArtifactCache, build_experiment_graph, compute_cache_keys
    from repro.utils.tables import format_table

    graph = build_experiment_graph(settings)
    keys = compute_cache_keys(graph, settings)
    cache = ArtifactCache.resolve(settings.cache_dir) if use_cache else None
    rows = []
    for task in graph.topological_order():
        if cache is None:
            status = "disabled"
        elif not task.cacheable:
            status = "uncached"
        elif cache.contains(task, keys[task.name]):
            status = "cached"
        else:
            status = "miss"
        rows.append(
            [
                task.name,
                task.kind,
                ", ".join(task.depends) if task.depends else "-",
                status,
                keys[task.name][:12],
            ]
        )
    title = "Experiment registry (cache: {})".format(cache.root if cache else "disabled")
    return format_table(["task", "kind", "depends", "cache", "key"], rows, title=title)


# ---------------------------------------------------------------- service CLI
def _serve_main(argv: Sequence[str]) -> int:
    """``runner serve``: run the aging-analysis query service."""
    import asyncio

    from repro.service import AdmissionPolicy, ServiceConfig, run_service

    parser = argparse.ArgumentParser(
        prog="runner serve", description="Serve aging-analysis queries over TCP."
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=0, help="TCP port (0 = ephemeral, printed on start)"
    )
    parser.add_argument(
        "--profile", choices=("fast", "full"), default="fast", help="base settings profile"
    )
    parser.add_argument("--seed", type=int, default=0, help="base global random seed")
    parser.add_argument(
        "--workers",
        type=_workers_arg,
        default=0,
        help="persistent worker-pool size shared by all queries (0 = in-process)",
    )
    parser.add_argument(
        "--cache-dir", type=Path, default=None, help="pipeline artifact cache location"
    )
    parser.add_argument(
        "--cache-max-bytes",
        type=_positive_int,
        default=None,
        help="LRU size cap on the artifact cache (least-recently-hit entries "
        "are evicted after each run; in-flight queries pin theirs)",
    )
    parser.add_argument(
        "--max-pending",
        type=int,
        default=16,
        help="bounded queue: cold queries waiting to execute before 429s start",
    )
    parser.add_argument(
        "--max-tasks-per-query",
        type=_positive_int,
        default=None,
        help="reject a query that would execute more task bodies than this",
    )
    parser.add_argument(
        "--max-inflight-tasks",
        type=_positive_int,
        default=None,
        help="global cap on task bodies across all executing queries",
    )
    parser.add_argument(
        "--max-estimated-seconds",
        type=float,
        default=None,
        help="reject a query whose sidecar-estimated cost exceeds this",
    )
    arguments = parser.parse_args(argv)

    overrides: dict[str, object] = {"seed": arguments.seed}
    if arguments.cache_max_bytes is not None:
        overrides["cache_max_bytes"] = arguments.cache_max_bytes
    settings_factory = (
        ExperimentSettings.full if arguments.profile == "full" else ExperimentSettings.fast
    )
    config = ServiceConfig(
        host=arguments.host,
        port=arguments.port,
        settings=settings_factory(**overrides),
        cache_dir=arguments.cache_dir,
        workers=arguments.workers,
        admission=AdmissionPolicy(
            max_pending=arguments.max_pending,
            max_tasks_per_query=arguments.max_tasks_per_query,
            max_inflight_tasks=arguments.max_inflight_tasks,
            max_estimated_seconds=arguments.max_estimated_seconds,
        ),
    )
    try:
        asyncio.run(run_service(config))
    except KeyboardInterrupt:  # pragma: no cover - interactive stop
        pass
    return 0


def _parse_override(text: str) -> tuple[str, object]:
    """``name=value`` with the value parsed as JSON (bare words stay strings)."""
    name, separator, raw = text.partition("=")
    if not separator or not name:
        raise argparse.ArgumentTypeError(f"expected NAME=VALUE, got {text!r}")
    try:
        value: object = json.loads(raw)
    except ValueError:
        value = raw
    return name, value


def _query_main(argv: Sequence[str]) -> int:
    """``runner query``: run experiments through a running service."""
    from repro.service import ServiceClient, ServiceError

    parser = argparse.ArgumentParser(
        prog="runner query", description="Query a running aging-analysis service."
    )
    parser.add_argument("--host", default="127.0.0.1", help="service address")
    parser.add_argument("--port", type=int, required=True, help="service port")
    parser.add_argument(
        "--experiments",
        nargs="+",
        required=True,
        help="experiments to request (dependencies resolve server-side)",
    )
    parser.add_argument("--seed", type=int, default=None, help="override the seed")
    parser.add_argument(
        "--override",
        action="append",
        type=_parse_override,
        default=[],
        metavar="NAME=VALUE",
        help="settings override (VALUE parsed as JSON); repeatable",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="write each returned artifact verbatim to <output>/<name>.json "
        "(byte-identical to the offline runner's files)",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-task progress events"
    )
    arguments = parser.parse_args(argv)

    overrides = dict(arguments.override)
    if arguments.seed is not None:
        overrides["seed"] = arguments.seed

    def on_event(event: dict) -> None:
        kind = event.get("event")
        if kind == "accepted":
            mode = (
                "coalesced" if event.get("coalesced")
                else "warm" if event.get("warm")
                else "cold"
            )
            print(
                f"accepted ({mode}): {event.get('tasks_to_execute', 0)} task(s) "
                f"to execute, {event.get('cache_hits_planned', 0)} cache hit(s) planned",
                flush=True,
            )
        elif kind == "task" and not arguments.quiet:
            print(
                f"task {event['name']}: {event['action']} ({event['where']}, "
                f"{event.get('duration_s', 0.0):.2f}s)",
                flush=True,
            )

    try:
        with ServiceClient(arguments.host, arguments.port) as client:
            result = client.query(
                arguments.experiments, overrides, on_event=on_event
            )
    except ServiceError as error:
        print(f"query rejected: {error}", file=sys.stderr)
        return 1
    except (ConnectionError, OSError) as error:
        print(f"cannot reach service: {error}", file=sys.stderr)
        return 1

    artifacts = result.get("artifacts", {})
    if arguments.output is not None:
        arguments.output.mkdir(parents=True, exist_ok=True)
        for name, text in artifacts.items():
            (arguments.output / f"{name}.json").write_text(text, encoding="utf-8")
    for name in arguments.experiments:
        text = artifacts.get(name)
        if text is None:
            continue
        result_obj = ExperimentResult.from_dict(json.loads(text))
        print(result_obj.to_table())
        print()
    print(
        "query complete ({} artifact(s){})".format(
            len(artifacts),
            f", written to {arguments.output}" if arguments.output is not None else "",
        )
    )
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point."""
    argv = list(sys.argv[1:] if argv is None else argv)
    # Subcommand dispatch by peeking at the first token keeps every legacy
    # flag invocation working unchanged (argparse subparsers would not).
    if argv and argv[0] == "serve":
        return _serve_main(argv[1:])
    if argv and argv[0] == "query":
        return _query_main(argv[1:])
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--experiments",
        nargs="+",
        default=None,
        choices=sorted(EXPERIMENTS),
        help="experiments to run (default: all); dependencies are pulled in "
        "automatically",
    )
    parser.add_argument("--all", action="store_true", help="run every experiment")
    parser.add_argument(
        "--list",
        action="store_true",
        help="print the experiment task registry (dependencies and cache "
        "status for the chosen settings) and exit",
    )
    parser.add_argument(
        "--profile", choices=("fast", "full"), default="fast", help="settings profile"
    )
    parser.add_argument("--seed", type=int, default=0, help="global random seed")
    parser.add_argument("--output", type=Path, default=None, help="directory for JSON results")
    parser.add_argument(
        "--workers",
        type=_workers_arg,
        default=0,
        help="worker processes (0 = serial, -1 = all CPUs): whole experiments "
        "and model trainings overlap across workers; single-task runs fan "
        "their inner sweeps out instead; results are bit-identical for any "
        "value",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the pipeline artifact cache (recompute everything and "
        "persist nothing)",
    )
    parser.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help="cache location for trained models and pipeline artifacts "
        "(default: REPRO_CACHE_DIR or ~/.cache/repro-aging-npu)",
    )
    parser.add_argument(
        "--cache-max-bytes",
        type=_positive_int,
        default=None,
        help="LRU size cap on the pipeline artifact cache: after the run, "
        "least-recently-hit artifacts are evicted until the cache fits "
        "(results are unaffected; evicted entries just rebuild on demand)",
    )
    parser.add_argument(
        "--append-history",
        type=Path,
        default=None,
        metavar="FILE",
        help="record the run with observability enabled and append one JSONL "
        "row (commit, timestamp, events/s, lanes/s, cache hit ratio, "
        "per-task durations) to FILE for longitudinal regression tracking",
    )
    parser.add_argument(
        "--explain",
        action="store_true",
        help="print the per-task pipeline report (cache hit/miss, where and "
        "how long each task ran, prior-run duration and hit ratio from the "
        "artifact sidecars) after the results",
    )
    parser.add_argument(
        "--trace",
        type=Path,
        default=None,
        metavar="PATH",
        help="record the run with observability enabled and write a Chrome "
        "trace-event JSON (loadable in Perfetto / chrome://tracing) to PATH",
    )
    parser.add_argument(
        "--metrics",
        type=Path,
        default=None,
        metavar="PATH",
        help="record the run with observability enabled and write the "
        "machine-readable metrics sidecar JSON to PATH",
    )
    parser.add_argument(
        "--metrics-report",
        action="store_true",
        help="record the run with observability enabled and print the "
        "human-readable end-of-run report (task durations, cache hit ratio, "
        "events/s, lanes/s)",
    )
    parser.add_argument(
        "--backend",
        choices=backend_names(),
        default="auto",
        help="simulation backend for the circuit sweeps (auto picks by arrival "
        "model: ndarray for settle/transition, the batched event engine for "
        "event); results are bit-identical for any value",
    )
    parser.add_argument(
        "--scenario",
        choices=SCENARIO_KINDS,
        default=None,
        help="aging-scenario family of the Fig. 1a error sweep: 'uniform' "
        "(paper baseline, one scalar dVth per level), 'mission' (years x "
        "temperature x duty cycle through the BTI kinetics, see --years), "
        "'per_cell_type' (heterogeneous per-cell-family stress) or "
        "'variation' (seeded per-gate dVth jitter); this is statistical "
        "configuration and keys the pipeline artifact cache",
    )
    parser.add_argument(
        "--years",
        type=float,
        nargs="+",
        default=None,
        metavar="YEARS",
        help="mission-profile stress years to sweep (implies --scenario "
        "mission unless another family is selected explicitly)",
    )
    arguments = parser.parse_args(argv)

    if arguments.all or arguments.experiments is None:
        names = list(EXPERIMENTS)
    else:
        names = arguments.experiments
    settings_factory = ExperimentSettings.full if arguments.profile == "full" else ExperimentSettings.fast
    overrides = dict(
        seed=arguments.seed,
        workers=arguments.workers,
        sim_backend=arguments.backend,
        pipeline_cache=not arguments.no_cache,
    )
    if arguments.cache_dir is not None:
        overrides["cache_dir"] = arguments.cache_dir
    if arguments.cache_max_bytes is not None:
        overrides["cache_max_bytes"] = arguments.cache_max_bytes
    if arguments.years is not None:
        if any(years < 0 for years in arguments.years):
            parser.error("--years values must be non-negative")
        overrides["mission_years"] = tuple(arguments.years)
    if arguments.scenario is not None:
        overrides["scenario"] = arguments.scenario
    elif arguments.years is not None:
        # Asking for stress years without naming a family means the mission
        # axis; an explicit --scenario always wins.
        overrides["scenario"] = "mission"
    settings = settings_factory(**overrides)

    if arguments.list:
        print(_list_registry(settings, use_cache=not arguments.no_cache))
        return 0

    from repro.pipeline import run_pipeline

    observe = (
        arguments.trace is not None
        or arguments.metrics is not None
        or arguments.metrics_report
        or arguments.append_history is not None
    )
    if observe:
        import repro.observability as observability

        observability.enable()

    run = run_pipeline(names, settings=settings, output_dir=arguments.output)
    for name in run.requested:
        print(run.results[name].to_table())
        print()
    if arguments.explain:
        print(run.explain())
    if observe:
        from repro.observability.export import write_chrome_trace, write_metrics_sidecar

        if arguments.metrics_report:
            print(run.run_report())
        if arguments.trace is not None:
            path = write_chrome_trace(arguments.trace, run.observability)
            print(f"trace written to {path}")
        if arguments.metrics is not None:
            path = write_metrics_sidecar(arguments.metrics, run)
            print(f"metrics written to {path}")
        elif arguments.output is not None:
            # Observed runs with an output directory always leave a sidecar
            # next to the result JSONs, so dashboards can scrape them later.
            write_metrics_sidecar(Path(arguments.output) / "run.metrics.json", run)
        if arguments.append_history is not None:
            from repro.observability.export import metrics_sidecar
            from repro.observability.history import append_history

            row = append_history(arguments.append_history, metrics_sidecar(run))
            print(
                f"history row appended to {arguments.append_history} "
                f"(commit {row['commit'] or 'unknown'})"
            )
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI glue
    raise SystemExit(main())
