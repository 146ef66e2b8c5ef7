"""Fig. 4 — lifetime delay trajectories (a) and accuracy box plots (b).

Fig. 4a compares the normalized delay of the unprotected baseline MAC (which
degrades with aging and would need a guardband) against the compressed MAC
selected by Algorithm 1 (which stays at or below the fresh delay).
Fig. 4b aggregates the per-network accuracy losses of the Table 1 study into
box-plot statistics per aging level.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.reporting import ExperimentResult
from repro.experiments.settings import ExperimentSettings
from repro.experiments.table1_accuracy import run_table1
from repro.experiments.workspace import ExperimentWorkspace


def run_fig4a(
    settings: ExperimentSettings | None = None,
    workspace: ExperimentWorkspace | None = None,
) -> ExperimentResult:
    """Regenerate the Fig. 4a data (normalized delay, baseline vs ours)."""
    workspace = workspace or ExperimentWorkspace.create(settings)
    settings = workspace.settings
    pipeline = workspace.pipeline

    rows = []
    for level in settings.aging_levels_mv:
        if level == 0:
            rows.append([level, 1.0, 1.0, "(0,0)/MSB"])
            continue
        plan = pipeline.plan_level(level)
        rows.append(
            [
                level,
                plan.normalized_baseline_delay,
                plan.normalized_compensated_delay,
                plan.compression.label(),
            ]
        )
    guardband = pipeline.guardband()
    return ExperimentResult(
        experiment_id="fig4a",
        title="Fig. 4a: normalized MAC delay over lifetime (baseline vs aging-aware quantization)",
        columns=["delta_vth_mv", "baseline_normalized_delay", "ours_normalized_delay", "compression"],
        rows=rows,
        metadata={
            "guardband_percent": guardband.guardband_percent,
            "performance_gain_percent": guardband.performance_gain_percent,
            "paper_reference": "the baseline degrades by ~23% at 10 years while ours stays <= 1.0, "
            "so the 23% guardband can be removed",
        },
    )


def run_fig4b(
    settings: ExperimentSettings | None = None,
    workspace: ExperimentWorkspace | None = None,
    table1: ExperimentResult | None = None,
) -> ExperimentResult:
    """Regenerate the Fig. 4b data (accuracy-loss box plots per aging level).

    Accepts a precomputed Table 1 result so the expensive quantization study
    is not repeated when both are generated together.
    """
    workspace = workspace or ExperimentWorkspace.create(settings)
    settings = workspace.settings
    table1 = table1 or run_table1(workspace=workspace)

    level_index = table1.columns.index("delta_vth_mv")
    loss_index = table1.columns.index("accuracy_loss_percent")
    losses_per_level: dict[float, list[float]] = {}
    for row in table1.rows:
        losses_per_level.setdefault(float(row[level_index]), []).append(float(row[loss_index]))

    rows = []
    for level in sorted(losses_per_level):
        losses = np.array(losses_per_level[level])
        rows.append(
            [
                level,
                float(losses.mean()),
                float(np.median(losses)),
                float(losses.min()),
                float(np.percentile(losses, 25)),
                float(np.percentile(losses, 75)),
                float(losses.max()),
            ]
        )
    return ExperimentResult(
        experiment_id="fig4b",
        title="Fig. 4b: accuracy-loss distribution over the NN zoo per aging level",
        columns=["delta_vth_mv", "mean", "median", "min", "q25", "q75", "max"],
        rows=rows,
        metadata={
            "paper_average_loss_per_level": {10.0: 0.24, 20.0: 0.45, 30.0: 1.11, 40.0: 1.80, 50.0: 2.96},
            "paper_reference": "graceful, monotone accuracy degradation concentrated around the median",
        },
    )
