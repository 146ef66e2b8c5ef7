"""Delay analysis of the (aged, compressed) MAC unit.

This is the STA phase of Algorithm 1 (lines 2-4): for every candidate
compression and padding, run static timing analysis of the MAC with the
aging-aware library of the target ΔVth level while tying the padded operand
bits to zero, and keep the candidates whose delay meets the timing
constraint (the fresh, uncompressed critical-path delay — i.e. zero
guardband).

Every aging argument is ``float | AgingScenario``: a plain ΔVth float is the
paper's uniform contract and normalises to
:class:`~repro.aging.scenarios.UniformAging` through
:func:`~repro.aging.scenarios.as_scenario`, so the scalar path resolves the
bit-identical per-gate delay tables it always did while mission profiles,
per-cell-type stress and per-gate variation plug into the same feasible-
compression search.  STA engines and delay results are cached by the
scenario's :meth:`~repro.aging.scenarios.AgingScenario.cache_token` — a
canonical string, so ``0``, ``0.0`` and ``-0.0`` share one engine instead of
aliasing distinct float keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable, Sequence

from repro.aging.cell_library import AgingAwareLibrarySet
from repro.aging.scenarios.base import AgingScenario, as_scenario
from repro.circuits.mac import ArithmeticUnit, build_mac
from repro.core.compression import (
    CompressionChoice,
    enumerate_compressions,
    select_minimal_compression,
)
from repro.core.padding import Padding, mac_case_analysis
from repro.timing.sta import StaticTimingAnalyzer


@dataclass(frozen=True)
class CompressionTiming:
    """STA result of one compression candidate at one aging point.

    Attributes:
        choice: the (α, β, padding) compression analysed.
        delta_vth_mv: headline ΔVth of the aging point (a scenario reports
            its nominal level here).
        delay_ps: critical-path delay under the compression's case analysis.
        target_period_ps: the timing target (fresh uncompressed delay).
        scenario: the aging scenario analysed; ``None`` only for records
            built by hand without one.
    """

    choice: CompressionChoice
    delta_vth_mv: float
    delay_ps: float
    target_period_ps: float
    scenario: AgingScenario | None = None

    @property
    def slack_ps(self) -> float:
        return self.target_period_ps - self.delay_ps

    @property
    def meets_timing(self) -> bool:
        return self.slack_ps >= 0.0

    @property
    def normalized_delay(self) -> float:
        """Delay normalized to the timing target (fresh uncompressed MAC)."""
        return self.delay_ps / self.target_period_ps


class CompressionTimingAnalyzer:
    """Caches per-scenario STA engines and evaluates compression candidates."""

    def __init__(
        self,
        mac: ArithmeticUnit | None = None,
        library_set: AgingAwareLibrarySet | None = None,
    ) -> None:
        self.mac = mac or build_mac()
        self.library_set = library_set or AgingAwareLibrarySet.generate()
        # Engines and delays key on the scenario cache token — a canonical
        # string — never on raw floats (-0.0 aliases 0.0, ints mix with
        # floats) and never on scenario objects (bound libraries are
        # excluded from equality but not from identity).
        self._analyzers: dict[str, StaticTimingAnalyzer] = {}
        self._delay_cache: dict[tuple[str, int, int, Padding], float] = {}

    # ------------------------------------------------------------------ setup
    def scenario(self, delta_vth_mv: float | AgingScenario) -> AgingScenario:
        """Normalise a ΔVth float or scenario against this analyzer's library."""
        return as_scenario(delta_vth_mv, library=self.library_set.fresh)

    def _analyzer(self, delta_vth_mv: float | AgingScenario) -> StaticTimingAnalyzer:
        scenario = self.scenario(delta_vth_mv)
        token = scenario.cache_token()
        if token not in self._analyzers:
            self._analyzers[token] = StaticTimingAnalyzer(self.mac, scenario)
        return self._analyzers[token]

    def fresh_period_ps(self) -> float:
        """Timing target: critical path of the fresh, uncompressed MAC."""
        return self.delay_ps(0.0)

    @property
    def sta_pass_count(self) -> int:
        """Levelized arrival traversals run so far, summed over all scenarios."""
        return sum(analyzer.levelized_passes for analyzer in self._analyzers.values())

    def _case_analysis(self, choice: CompressionChoice) -> dict[str, int]:
        multiplier_width = int(self.mac.input_widths.get("a", 8))
        accumulator_width = int(self.mac.input_widths.get("c", 22))
        return mac_case_analysis(
            choice.alpha,
            choice.beta,
            choice.padding,
            multiplier_width=multiplier_width,
            accumulator_width=accumulator_width,
        )

    # ------------------------------------------------------------------ delay
    def delays_ps(
        self,
        delta_vth_mv: float | AgingScenario,
        choices: Sequence[CompressionChoice],
    ) -> list[float]:
        """Critical-path delays of many compression corners at one aging point.

        All corners not already cached are evaluated through
        :meth:`~repro.timing.sta.StaticTimingAnalyzer.case_analysis_delays`
        in **one** levelized STA pass over the netlist (the per-gate delay
        tables are shared between corners), instead of one pass per corner.
        The pass runs corner-batched on the ndarray simulation backend's
        :class:`~repro.circuits.backends.LevelizedGraph` schedule — one
        arrival-vector element per corner — and is bit-identical to
        per-corner STA.
        """
        token = self.scenario(delta_vth_mv).cache_token()
        keys = [
            (token, choice.alpha, choice.beta, choice.padding) for choice in choices
        ]
        missing_indices = []
        seen_keys = set()
        for index, key in enumerate(keys):
            if key not in self._delay_cache and key not in seen_keys:
                missing_indices.append(index)
                seen_keys.add(key)
        if missing_indices:
            cases = [self._case_analysis(choices[index]) for index in missing_indices]
            delays = self._analyzer(delta_vth_mv).case_analysis_delays(cases)
            for index, delay in zip(missing_indices, delays):
                self._delay_cache[keys[index]] = delay
        return [self._delay_cache[key] for key in keys]

    def delay_ps(
        self,
        delta_vth_mv: float | AgingScenario,
        choice: CompressionChoice | None = None,
    ) -> float:
        """Critical-path delay of the MAC at an aging point and compression.

        ``None`` is the uncompressed MAC.  One corner of :meth:`delays_ps`,
        so a delay is cached once whichever method asked for it first.
        """
        choice = CompressionChoice(0, 0) if choice is None else choice
        return self.delays_ps(delta_vth_mv, [choice])[0]

    def timing(
        self, delta_vth_mv: float | AgingScenario, choice: CompressionChoice
    ) -> CompressionTiming:
        """Full timing record of one candidate compression."""
        scenario = self.scenario(delta_vth_mv)
        return CompressionTiming(
            choice=choice,
            delta_vth_mv=scenario.nominal_delta_vth_mv,
            delay_ps=self.delay_ps(scenario, choice),
            target_period_ps=self.fresh_period_ps(),
            scenario=scenario,
        )

    # ----------------------------------------------------------------- search
    def feasible_compressions(
        self,
        delta_vth_mv: float | AgingScenario,
        max_alpha: int | None = None,
        max_beta: int | None = None,
        paddings: Iterable[Padding] = (Padding.MSB, Padding.LSB),
        target_period_ps: float | None = None,
    ) -> list[CompressionTiming]:
        """Candidates meeting the timing target at the aging point.

        The search space defaults to α, β ∈ [0, 8] as in Algorithm 1; tests
        and quick studies can restrict it for speed.
        """
        scenario = self.scenario(delta_vth_mv)
        nominal = scenario.nominal_delta_vth_mv
        multiplier_width = int(self.mac.input_widths.get("a", 8))
        max_alpha = multiplier_width if max_alpha is None else max_alpha
        max_beta = multiplier_width if max_beta is None else max_beta
        target = target_period_ps if target_period_ps is not None else self.fresh_period_ps()
        choices = [
            choice
            for choice in enumerate_compressions(max_alpha, max_beta, paddings)
            # Removing all operand bits is not a meaningful design point.
            if choice.alpha < multiplier_width and choice.beta < multiplier_width
        ]
        # One levelized STA pass evaluates every remaining corner at once.
        delays = self.delays_ps(scenario, choices)
        feasible = []
        for choice, delay in zip(choices, delays):
            timing = CompressionTiming(
                choice=choice,
                delta_vth_mv=nominal,
                delay_ps=delay,
                target_period_ps=target,
                scenario=scenario,
            )
            if timing.meets_timing:
                feasible.append(timing)
        return feasible

    def select_timing(
        self,
        delta_vth_mv: float | AgingScenario,
        max_alpha: int | None = None,
        max_beta: int | None = None,
        paddings: Iterable[Padding] = (Padding.MSB, Padding.LSB),
    ) -> CompressionTiming:
        """Minimal feasible compression at the aging point (Algorithm 1 line 5).

        Selects by the Euclidean surrogate √(α²+β²), tie-broken towards
        activation precision, over the feasible set; raises ``RuntimeError``
        when no compression can compensate the aging point.
        """
        feasible = self.feasible_compressions(
            delta_vth_mv, max_alpha=max_alpha, max_beta=max_beta, paddings=paddings
        )
        if not feasible:
            scenario = self.scenario(delta_vth_mv)
            raise RuntimeError(
                f"no (alpha, beta) compression meets the fresh timing target at "
                f"{scenario.label()}; the aging point exceeds what input "
                "compression can compensate for this MAC"
            )
        by_choice = {timing.choice: timing for timing in feasible}
        selected = select_minimal_compression(list(by_choice))
        return by_choice[selected]
