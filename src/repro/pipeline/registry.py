"""The experiment task graph of the paper's tables and figures.

This is where the harness's implicit dependency web becomes explicit::

    dataset ──► model:<net> ──► table1 ──► fig4b
       │              │            │
       │              └──► fig1b   └ (also: ablations)
    mac ─┬──► pipeline ──► fig2 / table2 / fig4a / fig5
    multiplier ──► fig1a ◄── library_set ─┘

Notably the old runner's hard-coded ``table1``-before-``fig4b`` special case
is now just the ``fig4b -> table1`` edge: requesting ``fig4b`` alone pulls
``table1`` through the scheduler (and through the cache) automatically.

The graph is *settings-dependent* — the model tasks and the experiment →
model edges follow the network lists in the settings — and deterministic:
parent and worker processes rebuild the identical graph from the same
settings.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.experiments.ablation_precision_scaling import run_precision_scaling_ablation
from repro.experiments.ablation_surrogate import run_surrogate_ablation
from repro.experiments.fig1a_multiplier_errors import run_fig1a
from repro.experiments.fig1b_error_injection import run_fig1b
from repro.experiments.fig2_mac_delay import run_fig2
from repro.experiments.fig4_delay_accuracy import run_fig4a, run_fig4b
from repro.experiments.fig5_energy import run_fig5
from repro.experiments.scenario_study import (
    scenario_point_row,
    scenario_token,
    sweep_result,
    unique_scenarios,
)
from repro.experiments.settings import ExperimentSettings
from repro.experiments.table1_accuracy import run_table1
from repro.experiments.table2_compression import run_table2
from repro.pipeline.graph import TaskGraph
from repro.pipeline.task import EXPERIMENT, PICKLE_FORMAT, PRODUCT, Task, TaskContext

#: Experiment identifiers in the paper's canonical presentation order.
EXPERIMENT_NAMES: tuple[str, ...] = (
    "fig1a",
    "fig1b",
    "fig2",
    "table2",
    "table1",
    "fig4a",
    "fig4b",
    "fig5",
    "scenario_sweep",
    "ablation_surrogate",
    "ablation_precision_scaling",
)


def _model_tasks(settings: ExperimentSettings) -> tuple[str, ...]:
    """Every network any experiment of this settings object may train."""
    networks = (
        set(settings.table1_networks)
        | set(settings.fig1b_networks)
        | set(settings.ablation_networks)
    )
    return tuple(sorted(networks))


def _models_of(networks: Sequence[str]) -> tuple[str, ...]:
    return tuple(f"model:{name}" for name in sorted(set(networks)))


def build_experiment_graph(settings: ExperimentSettings) -> TaskGraph:
    """Build (and validate) the full task graph for ``settings``."""
    graph = TaskGraph()

    # ------------------------------------------------- workspace products
    graph.add(
        Task(
            "dataset",
            lambda ctx: ctx.workspace.dataset,
            settings_fields=("seed", "num_classes", "image_size", "train_per_class", "test_per_class"),
            kind=PRODUCT,
            heavy=False,
            serializer=PICKLE_FORMAT,
        )
    )
    graph.add(
        Task(
            "mac",
            lambda ctx: ctx.workspace.mac,
            kind=PRODUCT,
            heavy=False,
            cacheable=False,
            serializer=PICKLE_FORMAT,
        )
    )
    graph.add(
        Task(
            "multiplier",
            lambda ctx: ctx.workspace.multiplier,
            kind=PRODUCT,
            heavy=False,
            cacheable=False,
            serializer=PICKLE_FORMAT,
        )
    )
    graph.add(
        Task(
            "library_set",
            lambda ctx: ctx.workspace.library_set,
            settings_fields=("aging_levels_mv",),
            kind=PRODUCT,
            heavy=False,
            serializer=PICKLE_FORMAT,
        )
    )
    # The device-to-system pipeline object is a cheap aggregate of the MAC
    # and the libraries; rebuilding beats persisting it (its lazy internal
    # state would make the stored bytes unstable).
    graph.add(
        Task(
            "pipeline",
            lambda ctx: ctx.workspace.pipeline,
            depends=("mac", "library_set"),
            settings_fields=("aging_levels_mv", "max_alpha", "max_beta"),
            kind=PRODUCT,
            heavy=False,
            cacheable=False,
            serializer=PICKLE_FORMAT,
        )
    )
    for network in _model_tasks(settings):
        graph.add(
            Task(
                f"model:{network}",
                # Bind the loop variable; ctx.workspace.model() consumes the
                # injected dataset artifact and the zoo's own weight cache.
                lambda ctx, name=network: ctx.workspace.model(name),
                depends=("dataset",),
                settings_fields=("seed", "training_epochs", "training_batch_size"),
                kind=PRODUCT,
                serializer=PICKLE_FORMAT,
            )
        )

    # ------------------------------------------------------- experiments
    graph.add(
        Task(
            "fig1a",
            lambda ctx: run_fig1a(workspace=ctx.workspace),
            depends=("multiplier", "library_set"),
            # The scenario fields are how scenario key fields participate in
            # the artifact key: they fully determine the scenario axis
            # (settings.aging_scenarios()), so switching the family or any
            # of its knobs invalidates fig1a — while the default uniform
            # axis keeps serving the byte-identical uniform result.
            settings_fields=(
                "seed",
                "aging_levels_mv",
                "error_samples",
                "error_arrival_model",
                "scenario",
                "mission_years",
                "mission_temperature_c",
                "mission_duty_cycle",
                "percell_stress",
                "percell_default_fraction",
                "variation_sigma_mv",
            ),
        )
    )
    graph.add(
        Task(
            "fig1b",
            lambda ctx: run_fig1b(workspace=ctx.workspace),
            depends=("dataset", *_models_of(settings.fig1b_networks)),
            settings_fields=(
                "seed",
                "fig1b_networks",
                "flip_probabilities",
                "fault_repetitions",
                "calibration_samples",
                "test_subset",
            ),
        )
    )
    graph.add(
        Task(
            "fig2",
            lambda ctx: run_fig2(workspace=ctx.workspace),
            depends=("pipeline",),
            settings_fields=("fig2_max_compression",),
        )
    )
    graph.add(
        Task(
            "table2",
            lambda ctx: run_table2(workspace=ctx.workspace),
            depends=("pipeline",),
            settings_fields=("aging_levels_mv",),
        )
    )
    graph.add(
        Task(
            "table1",
            lambda ctx: run_table1(workspace=ctx.workspace),
            depends=("pipeline", "dataset", *_models_of(settings.table1_networks)),
            settings_fields=(
                "seed",
                "aging_levels_mv",
                "table1_networks",
                "calibration_samples",
                "test_subset",
            ),
        )
    )
    graph.add(
        Task(
            "fig4a",
            lambda ctx: run_fig4a(workspace=ctx.workspace),
            depends=("pipeline",),
            settings_fields=("aging_levels_mv",),
        )
    )
    # The old runner special-cased table1 -> fig4b by hand; here it is just
    # an edge, so requesting fig4b alone runs (and caches) table1 too.
    graph.add(
        Task(
            "fig4b",
            lambda ctx: run_fig4b(workspace=ctx.workspace, table1=ctx.artifact("table1")),
            depends=("table1",),
        )
    )
    graph.add(
        Task(
            "fig5",
            lambda ctx: run_fig5(workspace=ctx.workspace),
            depends=("pipeline",),
            settings_fields=("seed", "aging_levels_mv", "energy_transitions"),
        )
    )
    # -------------------------------------------- scenario-sweep task family
    # One task per point of the settings' scenario axis.  The scenario's key
    # fields live in the task *name* (a fingerprint of its cache token), so
    # they participate in the artifact cache key: extending or reordering
    # the axis invalidates only the aggregate, never a finished point, and a
    # fully warm rerun of ``scenario_sweep`` prunes the whole family.
    axis = unique_scenarios(settings.aging_scenarios())
    point_names = tuple(f"scenario_point:{scenario_token(scenario)}" for scenario in axis)
    for point_name, scenario in zip(point_names, axis):
        graph.add(
            Task(
                point_name,
                # Bind the loop variable; the row helper binds the (unbound)
                # scenario to the workspace library set's fresh library.
                lambda ctx, s=scenario: scenario_point_row(ctx.workspace, s),
                depends=("pipeline",),
                settings_fields=("max_alpha", "max_beta"),
                kind=PRODUCT,
                serializer=PICKLE_FORMAT,
            )
        )
    graph.add(
        Task(
            "scenario_sweep",
            lambda ctx, names=point_names: sweep_result(
                [ctx.artifact(name) for name in names], ctx.settings
            ),
            depends=point_names,
            settings_fields=("scenario",),
        )
    )

    graph.add(
        Task(
            "ablation_surrogate",
            lambda ctx: run_surrogate_ablation(workspace=ctx.workspace),
            depends=("dataset", *_models_of(settings.ablation_networks)),
            settings_fields=(
                "seed",
                "ablation_networks",
                "ablation_max_compression",
                "ablation_methods",
                "calibration_samples",
                "test_subset",
            ),
        )
    )
    graph.add(
        Task(
            "ablation_precision_scaling",
            lambda ctx: run_precision_scaling_ablation(workspace=ctx.workspace),
            depends=("pipeline", "dataset", *_models_of(settings.ablation_networks)),
            settings_fields=("seed", "ablation_networks", "calibration_samples", "test_subset"),
        )
    )

    graph.validate()
    return graph
