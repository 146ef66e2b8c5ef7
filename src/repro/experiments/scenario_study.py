"""Scenario sweep — the timing phase + guardband study over a scenario axis.

For every point of the settings' aging-scenario axis (uniform ΔVth levels,
mission profiles, per-cell-type stress or per-gate variation draws — see
:meth:`~repro.experiments.settings.ExperimentSettings.aging_scenarios`) the
sweep runs Algorithm 1's timing phase through
:meth:`~repro.core.pipeline.DeviceToSystemPipeline.plan_level` — the same
planner Table 2 and Fig. 4a use: all (α, β, padding) compression corners in
one levelized STA pass, the minimal feasible compression, and the guardband
an unprotected baseline would need at that scenario.

The sweep is registered twice:

* :func:`run_scenario_sweep` — the direct entry point (one shared planner
  for the whole axis);
* a pipeline task *family* in :mod:`repro.pipeline.registry` — one
  ``scenario_point:<token>`` task per axis point (the token fingerprints the
  scenario's :meth:`~repro.aging.scenarios.AgingScenario.cache_token`, so
  scenario key fields participate in the artifact key) plus a
  ``scenario_sweep`` aggregate that assembles the identical rows.  Point
  tasks schedule, overlap and warm-cache independently: extending the axis
  reruns only the new points.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable, Sequence

from repro.aging.scenarios.base import AgingScenario
from repro.core.pipeline import LevelPlan
from repro.experiments.reporting import ExperimentResult
from repro.experiments.settings import ExperimentSettings
from repro.experiments.workspace import ExperimentWorkspace

#: Table columns of the sweep, in presentation order.  Row dicts may carry
#: extra keys (e.g. ``fresh_delay_ps``); only these become table cells.
SCENARIO_SWEEP_COLUMNS: tuple[str, ...] = (
    "scenario",
    "kind",
    "nominal_delta_vth_mv",
    "alpha",
    "beta",
    "padding",
    "baseline_delay_ps",
    "normalized_baseline_delay",
    "normalized_compensated_delay",
    "guardband_percent",
    "feasible_count",
)


def scenario_token(scenario: AgingScenario) -> str:
    """Short stable fingerprint of a scenario's cache token.

    Used as the suffix of ``scenario_point:<token>`` pipeline task names, so
    the scenario's key fields (family, level, mission knobs, variation seed,
    …) participate in the task's artifact cache key through its name.
    """
    digest = hashlib.sha256(scenario.cache_token().encode("utf-8")).hexdigest()
    return digest[:12]


def unique_scenarios(scenarios: Iterable[AgingScenario]) -> tuple[AgingScenario, ...]:
    """Drop duplicate axis points (same cache token), keeping first-seen order.

    A duplicated ``aging_levels_mv`` entry would otherwise produce two
    identical rows — and two identically-named pipeline tasks.
    """
    seen: set[str] = set()
    unique: list[AgingScenario] = []
    for scenario in scenarios:
        token = scenario.cache_token()
        if token in seen:
            continue
        seen.add(token)
        unique.append(scenario)
    return tuple(unique)


def plan_row(plan: LevelPlan) -> dict[str, object]:
    """Flatten one :class:`~repro.core.pipeline.LevelPlan` to a row dict."""
    return {
        "scenario": plan.label(),
        "kind": plan.scenario.kind,
        "nominal_delta_vth_mv": plan.delta_vth_mv,
        "alpha": plan.compression.alpha,
        "beta": plan.compression.beta,
        "padding": plan.compression.padding.name,
        "baseline_delay_ps": plan.baseline_delay_ps,
        "normalized_baseline_delay": plan.normalized_baseline_delay,
        "normalized_compensated_delay": plan.normalized_compensated_delay,
        "guardband_percent": plan.guardband_percent,
        "feasible_count": plan.feasible_count,
        "fresh_delay_ps": plan.fresh_delay_ps,
    }


def scenario_point_row(
    workspace: ExperimentWorkspace, scenario: AgingScenario
) -> dict[str, object]:
    """Timing phase + guardband at one scenario, as a plain row dict.

    The body of every ``scenario_point:<token>`` pipeline task.  The
    workspace pipeline caches per-scenario STA engines, corner delays and
    plans, so the direct sweep and the task family run the identical float
    operations.
    """
    return plan_row(workspace.pipeline.plan_level(scenario))


def sweep_result(
    rows: Sequence[dict[str, object]], settings: ExperimentSettings
) -> ExperimentResult:
    """Assemble point rows (direct or from cached artifacts) into the result."""
    return ExperimentResult(
        experiment_id="scenario_sweep",
        title=(
            f"Scenario sweep ({settings.scenario}): minimal feasible compression "
            "and baseline guardband per aging scenario"
        ),
        columns=list(SCENARIO_SWEEP_COLUMNS),
        rows=[[row[column] for column in SCENARIO_SWEEP_COLUMNS] for row in rows],
        metadata={
            "scenario_family": settings.scenario,
            "max_alpha": settings.max_alpha,
            "max_beta": settings.max_beta,
            "fresh_delay_ps": rows[0]["fresh_delay_ps"] if rows else None,
            "paper_reference": "Fig. 4a reports ~23% baseline guardband at the "
            "50 mV end-of-life level; the compensated delay stays at or below "
            "1.0 x the fresh clock at every feasible scenario",
        },
    )


def run_scenario_sweep(
    settings: ExperimentSettings | None = None,
    workspace: ExperimentWorkspace | None = None,
) -> ExperimentResult:
    """Run the scenario sweep directly (no pipeline), one shared planner."""
    workspace = workspace or ExperimentWorkspace.create(settings)
    scenarios = unique_scenarios(workspace.scenarios)
    rows = [scenario_point_row(workspace, scenario) for scenario in scenarios]
    return sweep_result(rows, workspace.settings)
