"""Guardband analysis: the clock margin an unprotected baseline needs.

The unprotected baseline must be clocked at the end-of-life critical-path
delay (fresh delay × aging degradation), i.e. it carries a timing guardband
from day one.  The paper's technique instead keeps the fresh clock and
compensates aging with input compression, so its effective delay stays at or
below 1.0× the fresh delay for the whole lifetime.

End of life is an aging point — a ΔVth float (the paper's 50 mV) or any
:class:`~repro.aging.scenarios.AgingScenario`, so the guardband of a mission
("7 years at 105 °C") or a variation corner sizes through the same STA path
as the uniform contract, bit-identically for uniform scenarios.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.aging.cell_library import AgingAwareLibrarySet
from repro.aging.scenarios.base import AgingScenario
from repro.circuits.mac import ArithmeticUnit
from repro.core.timing_analysis import CompressionTimingAnalyzer


@dataclass(frozen=True)
class GuardbandAnalysis:
    """Guardband sizing for a projected lifetime.

    Attributes:
        fresh_delay_ps: critical-path delay of the fresh, uncompressed MAC.
        end_of_life_delay_ps: critical-path delay at the end-of-life point.
        end_of_life_mv: headline ΔVth of the end-of-life point (a scenario
            reports its nominal level here).
        scenario: the end-of-life aging scenario; ``None`` only for records
            built by hand without one.
    """

    fresh_delay_ps: float
    end_of_life_delay_ps: float
    end_of_life_mv: float
    scenario: AgingScenario | None = None

    @property
    def guardband_fraction(self) -> float:
        """Relative guardband the baseline needs (≈ 0.23 for 10 years)."""
        return self.end_of_life_delay_ps / self.fresh_delay_ps - 1.0

    @property
    def guardband_percent(self) -> float:
        return self.guardband_fraction * 100.0

    @property
    def performance_gain_percent(self) -> float:
        """Performance gained by removing the guardband (the paper's 23 %)."""
        return self.guardband_percent


def analyze_guardband(
    mac: ArithmeticUnit | None = None,
    library_set: AgingAwareLibrarySet | None = None,
    end_of_life_mv: "float | AgingScenario" = 50.0,
    analyzer: CompressionTimingAnalyzer | None = None,
) -> GuardbandAnalysis:
    """Size the aging guardband of the uncompressed MAC.

    Pass either the building blocks (``mac``/``library_set``) or an existing
    ``analyzer`` — never both: an analyzer carries its own MAC and library
    set, so extra building blocks would be silently ignored.
    """
    if analyzer is not None and (mac is not None or library_set is not None):
        raise ValueError(
            "pass mac/library_set or analyzer, not both: an analyzer already "
            "carries its own MAC and library set"
        )
    analyzer = analyzer or CompressionTimingAnalyzer(mac, library_set)
    scenario = analyzer.scenario(end_of_life_mv)
    fresh = analyzer.fresh_period_ps()
    end_of_life = analyzer.delay_ps(scenario, None)
    return GuardbandAnalysis(
        fresh_delay_ps=fresh,
        end_of_life_delay_ps=end_of_life,
        end_of_life_mv=scenario.nominal_delta_vth_mv,
        scenario=scenario,
    )
