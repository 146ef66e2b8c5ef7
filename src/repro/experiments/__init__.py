"""Experiment harness: one module per table/figure of the paper.

========================  =====================================================
Module                    Paper artefact
========================  =====================================================
fig1a_multiplier_errors   Fig. 1a — aged multiplier MED / MSB flip probability
fig1b_error_injection     Fig. 1b — NN accuracy under MSB bit-flip injection
fig2_mac_delay            Fig. 2 — MAC delay under (α, β) compression
table2_compression        Table 2 — selected compression per aging level
table1_accuracy           Table 1 — accuracy loss / method per network & level
fig4_delay_accuracy       Fig. 4a/4b — lifetime delay and accuracy box plots
fig5_energy               Fig. 5 — normalized energy vs the guardbanded baseline
ablation_surrogate        Sec. VI-B — surrogate-ranking Pearson correlation
ablation_precision_scaling Sec. VII — LSB-masking (precision scaling) comparison
========================  =====================================================
"""

from repro.experiments.ablation_precision_scaling import run_precision_scaling_ablation
from repro.experiments.ablation_surrogate import run_surrogate_ablation
from repro.experiments.fig1a_multiplier_errors import run_fig1a
from repro.experiments.fig1b_error_injection import run_fig1b
from repro.experiments.fig2_mac_delay import run_fig2
from repro.experiments.fig4_delay_accuracy import run_fig4a, run_fig4b
from repro.experiments.fig5_energy import run_fig5
from repro.experiments.reporting import ExperimentResult, summarize
from repro.experiments.settings import ExperimentSettings
from repro.experiments.table1_accuracy import run_table1
from repro.experiments.table2_compression import run_table2
from repro.experiments.workspace import ExperimentWorkspace

__all__ = [
    "run_precision_scaling_ablation",
    "run_surrogate_ablation",
    "run_fig1a",
    "run_fig1b",
    "run_fig2",
    "run_fig4a",
    "run_fig4b",
    "run_fig5",
    "ExperimentResult",
    "summarize",
    "EXPERIMENTS",
    "run_experiments",
    "ExperimentSettings",
    "run_table1",
    "run_table2",
    "ExperimentWorkspace",
]


def __getattr__(name):
    # Lazy bridge to the runner (an eager import would load
    # repro.experiments.runner before ``python -m repro.experiments.runner``
    # executes it as __main__, running the module twice) and to the pipeline
    # layer (a module-level import would be circular: repro.pipeline
    # imports the experiment modules).
    if name in ("EXPERIMENTS", "run_experiments"):
        import repro.experiments.runner

        return getattr(repro.experiments.runner, name)
    if name in ("run_pipeline", "PipelineRun"):
        import repro.pipeline

        return getattr(repro.pipeline, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
