"""Device-to-system lifetime study (the flow of the paper's Fig. 3).

The pipeline strings the substrates together for a whole aging scenario:

1. for every aging point (a ΔVth level or any aging scenario), run the
   timing phase of Algorithm 1 and record the selected compression, the
   baseline/compensated MAC delays and the baseline's guardband (Table 2,
   Fig. 4a and the scenario sweep),
2. quantize any number of networks at each level's compression with the best
   method from the library (Table 1 and Fig. 4b),
3. estimate the per-operation MAC energy under the compressed operand
   traffic against the guardbanded baseline (Fig. 5).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.aging.bti import AgingTimeline
from repro.aging.cell_library import AgingAwareLibrarySet
from repro.aging.scenarios.base import AgingScenario
from repro.circuits.mac import ArithmeticUnit
from repro.core.algorithm import AgingAwareQuantizationResult, AgingAwareQuantizer
from repro.core.compression import CompressionChoice
from repro.core.guardband import GuardbandAnalysis, analyze_guardband
from repro.core.padding import Padding, compressed_input_sampler
from repro.core.timing_analysis import CompressionTiming
from repro.nn.model import Model
from repro.nn.quantized import record_calibration
from repro.power.energy import EnergyModel, EnergyReport
from repro.quantization.base import QuantizationMethod


@dataclass(frozen=True)
class LevelPlan:
    """Timing phase of Algorithm 1 and guardband sizing at one aging point.

    Attributes:
        scenario: the aging scenario planned for.
        timing: STA record of the selected (minimal feasible) compression.
        baseline_delay_ps: delay of the *uncompressed* MAC at this point
            (what an unprotected NPU would need to clock at).
        feasible_count: number of feasible (α, β, padding) corners — how
            much slack the compression space still has at this point.
    """

    scenario: AgingScenario
    timing: CompressionTiming
    baseline_delay_ps: float
    feasible_count: int

    @property
    def delta_vth_mv(self) -> float:
        """Headline ΔVth of the aging point (a scenario's nominal level)."""
        return self.scenario.nominal_delta_vth_mv

    @property
    def compression(self) -> CompressionChoice:
        return self.timing.choice

    @property
    def fresh_delay_ps(self) -> float:
        """The timing target: fresh uncompressed critical-path delay."""
        return self.timing.target_period_ps

    @property
    def normalized_baseline_delay(self) -> float:
        return self.baseline_delay_ps / self.fresh_delay_ps

    @property
    def normalized_compensated_delay(self) -> float:
        return self.timing.normalized_delay

    @property
    def guardband(self) -> GuardbandAnalysis:
        """Guardband the unprotected baseline needs at this point."""
        return GuardbandAnalysis(
            fresh_delay_ps=self.fresh_delay_ps,
            end_of_life_delay_ps=self.baseline_delay_ps,
            end_of_life_mv=self.delta_vth_mv,
            scenario=self.scenario,
        )

    @property
    def guardband_percent(self) -> float:
        return self.guardband.guardband_percent

    def label(self) -> str:
        return self.scenario.label()


@dataclass(frozen=True)
class LevelEnergy:
    """Energy comparison for one aging level (Fig. 5)."""

    delta_vth_mv: float
    baseline: EnergyReport
    compressed: EnergyReport

    @property
    def normalized_energy(self) -> float:
        """Energy of our technique relative to the guardbanded baseline."""
        baseline = self.baseline.energy_per_operation_fj
        if baseline == 0:
            return 1.0
        return self.compressed.energy_per_operation_fj / baseline


class DeviceToSystemPipeline:
    """End-to-end lifetime study over an aging timeline."""

    def __init__(
        self,
        mac: ArithmeticUnit | None = None,
        library_set: AgingAwareLibrarySet | None = None,
        timeline: AgingTimeline | None = None,
        methods: list[QuantizationMethod] | None = None,
        max_alpha: int | None = None,
        max_beta: int | None = None,
    ) -> None:
        self.timeline = timeline or AgingTimeline()
        self.library_set = library_set or AgingAwareLibrarySet.generate(self.timeline.levels_mv)
        self.quantizer = AgingAwareQuantizer(
            mac=mac,
            library_set=self.library_set,
            methods=methods,
            max_alpha=max_alpha,
            max_beta=max_beta,
        )
        # Plans key on the scenario cache token (canonical string), so a
        # ΔVth float, its int twin and -0.0 all share one plan and any
        # AgingScenario can be planned through the same cache.
        self._plans: dict[str, LevelPlan] = {}

    # --------------------------------------------------------------- aliases
    @property
    def mac(self) -> ArithmeticUnit:
        return self.quantizer.timing_analyzer.mac

    @property
    def timing_analyzer(self):
        return self.quantizer.timing_analyzer

    # ------------------------------------------------------------------ plan
    def plan_level(self, delta_vth_mv: "float | AgingScenario") -> LevelPlan:
        """Timing phase of Algorithm 1 and guardband sizing at one aging point.

        All (α, β, padding) corners of the quantizer's search space run in
        one levelized STA pass; the selection is the quantizer's, and the
        feasible count and baseline delay are read back from the analyzer's
        corner-delay cache.  Plans are cached per scenario.
        """
        scenario = self.timing_analyzer.scenario(delta_vth_mv)
        key = scenario.cache_token()
        if key not in self._plans:
            quantizer = self.quantizer
            timing = quantizer.select_compression(scenario)
            feasible = self.timing_analyzer.feasible_compressions(
                scenario,
                max_alpha=quantizer.max_alpha,
                max_beta=quantizer.max_beta,
                paddings=quantizer.paddings,
            )
            self._plans[key] = LevelPlan(
                scenario=scenario,
                timing=timing,
                baseline_delay_ps=self.timing_analyzer.delay_ps(scenario, None),
                feasible_count=len(feasible),
            )
        return self._plans[key]

    def plan(
        self, levels_mv: "tuple[float | AgingScenario, ...] | None" = None
    ) -> list[LevelPlan]:
        """Timing plan for every point of the scenario (Table 2 / Fig. 4a)."""
        levels = levels_mv if levels_mv is not None else self.timeline.levels_mv
        return [self.plan_level(level) for level in levels]

    def guardband(self) -> GuardbandAnalysis:
        """Guardband the unprotected baseline would need for the scenario."""
        return analyze_guardband(
            end_of_life_mv=self.timeline.end_of_life_mv, analyzer=self.timing_analyzer
        )

    # --------------------------------------------------------------- networks
    def evaluate_network(
        self,
        model: Model,
        calibration_data: np.ndarray,
        x_test: np.ndarray,
        y_test: np.ndarray,
        levels_mv: tuple[float, ...] | None = None,
        accuracy_loss_threshold_percent: float | None = None,
    ) -> list[AgingAwareQuantizationResult]:
        """Run Algorithm 1 for one network over the (aged) scenario levels.

        The FP32 calibration recording depends on neither the level nor the
        method, so it is recorded once here and shared by every level.
        """
        levels = levels_mv if levels_mv is not None else self.timeline.aged_levels_mv()
        fp32_accuracy = model.accuracy(x_test, y_test)
        recording = record_calibration(model, calibration_data)
        results = []
        for level in levels:
            plan = self.plan_level(level)
            selected, evaluation, per_method, satisfied = self.quantizer.quantize_model(
                model,
                plan.compression,
                recording,
                x_test,
                y_test,
                accuracy_loss_threshold_percent=accuracy_loss_threshold_percent,
                fp32_accuracy=fp32_accuracy,
            )
            results.append(
                AgingAwareQuantizationResult(
                    delta_vth_mv=level,
                    timing=plan.timing,
                    selected_method=selected,
                    evaluation=evaluation,
                    per_method=per_method,
                    threshold_satisfied=satisfied,
                )
            )
        return results

    # ----------------------------------------------------------------- energy
    def energy_study(
        self,
        levels_mv: tuple[float, ...] | None = None,
        num_transitions: int = 400,
        rng: int = 0,
        activity_mode: str = "event",
    ) -> list[LevelEnergy]:
        """Per-operation MAC energy: ours vs the guardbanded baseline (Fig. 5).

        The baseline runs uncompressed 8-bit traffic at the guardbanded
        (end-of-life) clock period; our technique runs the compressed
        operand traffic of each level at the fresh clock period.

        ``activity_mode`` selects the toggle-counting engine: the default
        ``"event"`` simulates each level's aged delays with the batched
        event-driven time wheel, so glitch activity — which grows with the
        level's delay skew — is priced into the dynamic energy of both
        curves; ``"zero-delay"`` restores the glitch-free functional
        baseline.
        """
        levels = levels_mv if levels_mv is not None else self.timeline.levels_mv
        guardband = self.guardband()
        fresh_period = self.timing_analyzer.fresh_period_ps()
        baseline_period = guardband.end_of_life_delay_ps

        results = []
        for index, level in enumerate(levels):
            library = self.library_set.library(level)
            energy_model = EnergyModel(library)
            # Both curves share one random stream per level (common random
            # numbers), and the baseline draws through the same sampler
            # family at (alpha=0, beta=0) — uncompressed traffic, the same
            # distribution as the default sampler.  The normalized ratio
            # then compares the samplers, not two independent Monte-Carlo
            # draws; at the fresh level (whose plan is uncompressed) the
            # two streams coincide exactly and the ratio is noise-free.
            # Glitch-aware counts are noticeably noisier than functional
            # toggle counts, so unpaired streams would need far more
            # transitions for a stable Fig. 5.
            baseline = energy_model.estimate_operation_energy(
                self.mac,
                clock_period_ps=baseline_period,
                num_transitions=num_transitions,
                rng=rng + index,
                input_sampler=compressed_input_sampler(
                    self.mac, 0, 0, Padding.MSB
                ),
                activity_mode=activity_mode,
            )
            # Every level routes through the planner — the fresh (level-0)
            # plan selects the uncompressed point anyway, and hard-coding it
            # here let the Fig. 5 curve silently diverge from the planner.
            choice = self.plan_level(level).compression
            sampler = compressed_input_sampler(self.mac, choice.alpha, choice.beta, choice.padding)
            compressed = energy_model.estimate_operation_energy(
                self.mac,
                clock_period_ps=fresh_period,
                num_transitions=num_transitions,
                rng=rng + index,
                input_sampler=sampler,
                activity_mode=activity_mode,
            )
            results.append(
                LevelEnergy(delta_vth_mv=level, baseline=baseline, compressed=compressed)
            )
        return results
