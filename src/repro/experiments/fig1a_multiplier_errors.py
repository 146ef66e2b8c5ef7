"""Fig. 1a — error characteristics of an aged 8-bit multiplier.

The multiplier is clocked at the critical-path delay of the *fresh* circuit
(no guardband), its cells are degraded by each point of the configured
aging-scenario axis, and random input transitions are simulated with the
two-vector timing simulator.  The experiment reports the Mean Error
Distance (MED) and the probability that one of the two most significant
product bits is wrong — the two curves of the paper's Fig. 1a.

The sweep axis is ``settings.scenario``: the default ``"uniform"`` axis is
the paper's one-ΔVth-per-level contract (bit-identical to the pre-scenario
implementation); ``"mission"`` sweeps years × temperature × duty cycle
through the BTI kinetics, ``"per_cell_type"`` stresses selected cell
families harder than the rest, and ``"variation"`` adds seeded per-gate
ΔVth jitter.  Each row is annotated with the equivalent stress years from
the inverse BTI kinetics, so ΔVth levels read as calendar age.

The sweep runs with the ``"transition"`` arrival model by default
(``settings.error_arrival_model``) on the bit-parallel backend the sweep's
``"auto"`` selection picks for it; backend choice never changes the
statistics.
"""

from __future__ import annotations

from repro.aging.bti import BTIModel
from repro.experiments.reporting import ExperimentResult
from repro.experiments.settings import ExperimentSettings
from repro.experiments.workspace import ExperimentWorkspace
from repro.timing.error_model import sweep_timing_errors


def equivalent_stress_years(levels_mv, bti: BTIModel | None = None) -> dict[str, float]:
    """Calendar years matching each ΔVth level under reference conditions.

    The inverse BTI kinetics (:meth:`BTIModel.years_for_delta_vth`) at the
    model's reference operating point; keys are ``"%g"``-formatted mV levels
    so the mapping survives a JSON round-trip unchanged.
    """
    bti = bti or BTIModel()
    return {f"{float(level):g}": bti.years_for_delta_vth(float(level)) for level in levels_mv}


def run_fig1a(
    settings: ExperimentSettings | None = None,
    workspace: ExperimentWorkspace | None = None,
) -> ExperimentResult:
    """Regenerate the Fig. 1a data (MED and MSB flip probability per scenario)."""
    workspace = workspace or ExperimentWorkspace.create(settings)
    settings = workspace.settings
    scenarios = workspace.scenarios

    statistics = sweep_timing_errors(
        workspace.multiplier,
        workspace.library_set,
        scenarios=scenarios,
        num_samples=settings.error_samples,
        rng=settings.seed,
        effective_output_width=16,
        msb_count=2,
        arrival_model=settings.error_arrival_model,
        workers=settings.workers,
    )
    rows = [
        [
            stat.delta_vth_mv,
            stat.mean_error_distance,
            stat.msb_flip_probability,
            stat.error_rate,
        ]
        for stat in statistics
    ]
    return ExperimentResult(
        experiment_id="fig1a",
        title="Fig. 1a: aged 8-bit multiplier clocked at the fresh period",
        columns=["delta_vth_mv", "mean_error_distance", "msb_flip_probability", "error_rate"],
        rows=rows,
        metadata={
            # Only the statistical configuration is recorded: the worker
            # count never changes the rows, and keeping it out of the
            # artifact is what lets the pipeline cache serve one result
            # for every worker count.
            "num_samples": settings.error_samples,
            "arrival_model": settings.error_arrival_model,
            "clock_period_ps": statistics[0].clock_period_ps if statistics else None,
            # The scenario axis: family, per-point identity (the same key
            # fields that enter the pipeline cache key), and the calendar
            # age each point's nominal ΔVth corresponds to under the
            # reference BTI conditions (inverse kinetics).
            "scenario": settings.scenario,
            "scenario_points": [scenario.key_fields() for scenario in scenarios],
            "equivalent_stress_years": equivalent_stress_years(
                [stat.delta_vth_mv for stat in statistics]
            ),
            "paper_reference": "MED and MSB flip probability rise monotonically with aging; "
            "errors are negligible when fresh and unacceptable towards 50 mV",
        },
    )
