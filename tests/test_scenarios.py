"""Tests of the per-gate aging-scenario API (repro.aging.scenarios).

The two load-bearing properties:

* **Legacy equivalence** — ``UniformAging(x)`` resolves the bit-identical
  per-gate delay table (and therefore bit-identical STA delays and
  Monte-Carlo statistics) to the legacy ``library.aged(x)`` contract, for
  every registered backend × arrival model.
* **Determinism** — scenario resolution is a pure function of (scenario
  fields, netlist structure): pickle round-trips, worker fan-out and chunk
  sizes can never change a sweep's statistics.
"""

from __future__ import annotations

import json
import pickle

import pytest

from repro.aging.bti import BTIModel
from repro.aging.cell_library import AgingAwareLibrarySet, fresh_library
from repro.aging.scenarios import (
    SCENARIO_KINDS,
    AgingScenario,
    MissionProfile,
    PerCellTypeAging,
    UniformAging,
    VariationAging,
    resolve_gate_delays,
)
from repro.circuits.backends import backend_names, get_backend
from repro.circuits.mac import build_multiplier
from repro.timing.error_model import characterize_timing_errors, sweep_timing_errors
from repro.timing.sta import StaticTimingAnalyzer

LEVELS = (0.0, 20.0, 50.0)


@pytest.fixture(scope="module")
def multiplier6():
    return build_multiplier(6, "array")


def _delay_vector(netlist, table):
    """Delay table as a list aligned with the topological gate order."""
    return [table[gate] for gate in netlist.topological_gates()]


# =====================================================================
# Legacy equivalence: UniformAging == library.aged
# =====================================================================
class TestUniformLegacyEquivalence:
    @pytest.mark.parametrize("level", LEVELS)
    def test_gate_delay_tables_bit_identical(self, multiplier6, library_set, level):
        legacy = resolve_gate_delays(multiplier6.netlist, library_set.library(level))
        scenario = resolve_gate_delays(
            multiplier6.netlist, UniformAging(level, library=library_set.fresh)
        )
        assert _delay_vector(multiplier6.netlist, legacy) == _delay_vector(
            multiplier6.netlist, scenario
        )

    @pytest.mark.parametrize("level", LEVELS)
    def test_sta_delays_bit_identical(self, multiplier6, library_set, level):
        legacy = StaticTimingAnalyzer(multiplier6, library_set.library(level))
        scenario = StaticTimingAnalyzer(
            multiplier6, UniformAging(level, library=library_set.fresh)
        )
        assert legacy.critical_path_delay() == scenario.critical_path_delay()

    @pytest.mark.parametrize("backend_name", backend_names(include_auto=False))
    def test_simulator_delay_tables_per_backend(self, multiplier6, library_set, backend_name):
        backend = get_backend(backend_name)
        for arrival_model in backend.arrival_models:
            legacy = backend.timing_simulator(
                multiplier6.netlist, library_set.library(50.0), arrival_model
            )
            scenario = backend.timing_simulator(
                multiplier6.netlist,
                UniformAging(50.0, library=library_set.fresh),
                arrival_model,
            )
            if hasattr(legacy, "_gate_delay_ps"):
                assert legacy._gate_delay_ps == scenario._gate_delay_ps
            elif hasattr(legacy, "_gate_delay"):
                # The batched event engine keeps one float per gate in
                # topological order.
                assert legacy._gate_delay == scenario._gate_delay
            else:  # the lane simulator carries per-level delay vectors
                for left, right in zip(legacy._level_delays, scenario._level_delays):
                    assert (left == right).all()

    @pytest.mark.parametrize("backend_name", backend_names(include_auto=False))
    def test_statistics_bit_identical_per_backend_and_arrival_model(
        self, multiplier6, library_set, backend_name
    ):
        backend = get_backend(backend_name)
        for arrival_model in backend.arrival_models:
            kwargs = dict(
                num_samples=80,
                rng=0,
                effective_output_width=12,
                arrival_model=arrival_model,
                backend=backend_name,
                batch_size=32,
            )
            legacy = sweep_timing_errors(multiplier6, library_set, levels_mv=LEVELS, **kwargs)
            scenario = sweep_timing_errors(
                multiplier6,
                library_set,
                scenarios=[UniformAging(level) for level in LEVELS],
                **kwargs,
            )
            assert legacy == scenario

    def test_characterize_accepts_scenario_sources(self, multiplier6, library_set):
        period = StaticTimingAnalyzer(multiplier6, library_set.fresh).critical_path_delay()
        kwargs = dict(num_samples=60, rng=0, effective_output_width=12)
        legacy = characterize_timing_errors(
            multiplier6, library_set.library(50.0), period, **kwargs
        )
        scenario = characterize_timing_errors(
            multiplier6, UniformAging(50.0, library=library_set.fresh), period, **kwargs
        )
        assert legacy == scenario
        assert scenario.delta_vth_mv == 50.0


# =====================================================================
# Scenario semantics
# =====================================================================
class TestMissionProfile:
    def test_reference_mission_hits_the_eol_anchor(self):
        mission = MissionProfile(years=10.0, temperature_c=85.0, duty_cycle=1.0)
        assert mission.nominal_delta_vth_mv == pytest.approx(50.0, rel=1e-9)

    def test_matches_bti_kinetics(self):
        bti = BTIModel()
        mission = MissionProfile(years=3.0, temperature_c=60.0, duty_cycle=0.8)
        expected = bti.delta_vth_mv(3.0, temperature_k=60.0 + 273.15, duty_cycle=0.8)
        assert mission.nominal_delta_vth_mv == expected

    def test_delays_equal_equivalent_uniform_scenario(self, multiplier6):
        mission = MissionProfile(years=7.0)
        uniform = UniformAging(mission.nominal_delta_vth_mv)
        assert _delay_vector(
            multiplier6.netlist, mission.gate_delays_ps(multiplier6.netlist)
        ) == _delay_vector(multiplier6.netlist, uniform.gate_delays_ps(multiplier6.netlist))

    def test_cooler_missions_age_less(self, multiplier6):
        hot = MissionProfile(years=5.0, temperature_c=105.0)
        cool = MissionProfile(years=5.0, temperature_c=45.0)
        assert cool.nominal_delta_vth_mv < hot.nominal_delta_vth_mv
        hot_delay = StaticTimingAnalyzer(multiplier6, hot).critical_path_delay()
        cool_delay = StaticTimingAnalyzer(multiplier6, cool).critical_path_delay()
        assert cool_delay < hot_delay

    def test_invalid_missions_rejected(self):
        with pytest.raises(ValueError):
            MissionProfile(years=-1.0)
        with pytest.raises(ValueError):
            MissionProfile(years=1.0, duty_cycle=0.0)


class TestPerCellTypeAging:
    def test_only_listed_families_degrade(self, multiplier6, library_set):
        scenario = PerCellTypeAging({"XOR2": 50.0}, default_mv=0.0)
        table = scenario.gate_delays_ps(multiplier6.netlist, library_set.fresh)
        fresh = resolve_gate_delays(multiplier6.netlist, library_set.fresh)
        aged = resolve_gate_delays(multiplier6.netlist, library_set.library(50.0))
        for gate in multiplier6.netlist.topological_gates():
            expected = aged[gate] if gate.cell_name == "XOR2" else fresh[gate]
            assert table[gate] == expected

    def test_mapping_normalised_and_sorted(self):
        from_dict = PerCellTypeAging({"NAND2": 10.0, "AND2": 20.0})
        from_items = PerCellTypeAging((("NAND2", 10.0), ("AND2", 20.0)))
        assert from_dict == from_items
        assert from_dict.levels_mv == (("AND2", 20.0), ("NAND2", 10.0))
        assert from_dict.level_for("NAND2") == 10.0
        assert from_dict.level_for("XOR2") == 0.0

    def test_uniform_degenerate_case_matches_uniform(self, multiplier6):
        degenerate = PerCellTypeAging((), default_mv=30.0)
        uniform = UniformAging(30.0)
        assert _delay_vector(
            multiplier6.netlist, degenerate.gate_delays_ps(multiplier6.netlist)
        ) == _delay_vector(multiplier6.netlist, uniform.gate_delays_ps(multiplier6.netlist))

    def test_validation(self):
        with pytest.raises(ValueError):
            PerCellTypeAging({"INV": -1.0})
        with pytest.raises(ValueError):
            PerCellTypeAging((), default_mv=-2.0)
        with pytest.raises(ValueError):
            PerCellTypeAging((("INV", 1.0), ("INV", 2.0)))


class TestVariationAging:
    def test_sigma_zero_matches_uniform(self, multiplier6):
        variation = VariationAging(nominal_mv=40.0, sigma_mv=0.0, seed=5)
        uniform = UniformAging(40.0)
        assert _delay_vector(
            multiplier6.netlist, variation.gate_delays_ps(multiplier6.netlist)
        ) == _delay_vector(multiplier6.netlist, uniform.gate_delays_ps(multiplier6.netlist))

    def test_resolution_deterministic_and_pickle_stable(self, multiplier6):
        scenario = VariationAging(nominal_mv=30.0, sigma_mv=6.0, seed=11)
        clone = pickle.loads(pickle.dumps(scenario))
        original = _delay_vector(
            multiplier6.netlist, scenario.gate_delays_ps(multiplier6.netlist)
        )
        repeated = _delay_vector(
            multiplier6.netlist, scenario.gate_delays_ps(multiplier6.netlist)
        )
        round_tripped = _delay_vector(
            multiplier6.netlist, clone.gate_delays_ps(multiplier6.netlist)
        )
        assert original == repeated == round_tripped

    def test_pickled_netlist_resolves_identically(self, multiplier6):
        # Sweep workers receive the netlist through pickle; the draws are
        # keyed by topological gate index, so the reconstructed graph must
        # resolve the same per-gate deltas.
        scenario = VariationAging(nominal_mv=30.0, sigma_mv=6.0, seed=11)
        clone_unit = pickle.loads(pickle.dumps(multiplier6))
        original = scenario.gate_delta_vth_mv(multiplier6.netlist)
        reconstructed = scenario.gate_delta_vth_mv(clone_unit.netlist)
        assert (original == reconstructed).all()

    def test_different_seeds_differ(self, multiplier6):
        a = VariationAging(30.0, 6.0, seed=0).gate_delays_ps(multiplier6.netlist)
        b = VariationAging(30.0, 6.0, seed=1).gate_delays_ps(multiplier6.netlist)
        assert _delay_vector(multiplier6.netlist, a) != _delay_vector(multiplier6.netlist, b)

    def test_draws_clipped_non_negative(self, multiplier6):
        deltas = VariationAging(nominal_mv=0.0, sigma_mv=50.0, seed=2).gate_delta_vth_mv(
            multiplier6.netlist
        )
        assert (deltas >= 0.0).all()

    def test_validation(self):
        with pytest.raises(ValueError):
            VariationAging(nominal_mv=-1.0)
        with pytest.raises(ValueError):
            VariationAging(nominal_mv=1.0, sigma_mv=-1.0)
        with pytest.raises(ValueError):
            VariationAging(nominal_mv=1.0, seed=-1)

    def test_draws_are_absolute_even_against_an_aged_base(self, multiplier6, library_set):
        """Regression: like every other family, the per-gate ΔVth draws are
        absolute shifts — an aged base library must not compound its own
        degradation factor under the draw's."""
        scenario = VariationAging(nominal_mv=30.0, sigma_mv=6.0, seed=4)
        via_fresh = scenario.gate_delays_ps(multiplier6.netlist, library_set.fresh)
        via_aged = scenario.gate_delays_ps(multiplier6.netlist, library_set.library(50.0))
        assert _delay_vector(multiplier6.netlist, via_fresh) == _delay_vector(
            multiplier6.netlist, via_aged
        )


# =====================================================================
# Sweep determinism across workers / chunk sizes (the acceptance property)
# =====================================================================
class TestScenarioSweepDeterminism:
    @pytest.fixture(scope="class")
    def mixed_axis(self):
        return [
            MissionProfile(years=7.0),
            PerCellTypeAging({"XOR2": 50.0, "XNOR2": 50.0}, default_mv=25.0),
            VariationAging(nominal_mv=40.0, sigma_mv=8.0, seed=3),
        ]

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_workers_and_chunking_bit_identical(
        self, multiplier6, library_set, mixed_axis, workers
    ):
        kwargs = dict(
            scenarios=mixed_axis,
            num_samples=120,
            rng=0,
            effective_output_width=12,
            arrival_model="transition",
            samples_per_shard=30,
        )
        serial = sweep_timing_errors(multiplier6, library_set, **kwargs)
        parallel = sweep_timing_errors(multiplier6, library_set, workers=workers, **kwargs)
        assert serial == parallel

    def test_scenario_order_preserved(self, multiplier6, library_set, mixed_axis):
        results = sweep_timing_errors(
            multiplier6,
            library_set,
            scenarios=mixed_axis,
            num_samples=40,
            rng=0,
            effective_output_width=12,
            arrival_model="transition",
        )
        assert [stat.delta_vth_mv for stat in results] == [
            scenario.nominal_delta_vth_mv for scenario in mixed_axis
        ]

    def test_empty_scenarios_rejected(self, multiplier6, library_set):
        with pytest.raises(ValueError, match="scenarios"):
            sweep_timing_errors(multiplier6, library_set, scenarios=[], num_samples=4)

    def test_bound_scenario_library_sets_the_clock_reference(self, multiplier6):
        """Regression: with no library_set, the capture clock must come from
        the characterisation the bound scenarios resolve against — a slower
        custom library's fresh scenario is error-free at its own period."""
        from dataclasses import replace as dc_replace

        from repro.aging.cell_library import CellLibrary, fresh_library

        default = fresh_library()
        slow = CellLibrary(
            "slow",
            {
                name: dc_replace(
                    default.cell(name),
                    intrinsic_delay_ps=default.cell(name).intrinsic_delay_ps * 2.0,
                    load_delay_ps=default.cell(name).load_delay_ps * 2.0,
                )
                for name in default.cell_names()
            },
        )
        results = sweep_timing_errors(
            multiplier6,
            scenarios=[UniformAging(0.0, library=slow)],
            num_samples=30,
            rng=0,
            effective_output_width=12,
            arrival_model="transition",
        )
        expected_period = StaticTimingAnalyzer(multiplier6, slow).critical_path_delay()
        assert results[0].clock_period_ps == expected_period
        assert results[0].error_rate == 0.0

    def test_non_fresh_bound_scenarios_rejected_without_library_set(
        self, multiplier6, library_set
    ):
        aged_bound = UniformAging(10.0, library=library_set.library(50.0))
        with pytest.raises(ValueError, match="fresh"):
            sweep_timing_errors(multiplier6, scenarios=[aged_bound], num_samples=4)


# =====================================================================
# Cache-key fields and the scenario axis plumbing
# =====================================================================
class TestKeyFieldsAndAxis:
    def test_key_fields_json_stable(self):
        scenarios: list[AgingScenario] = [
            UniformAging(30.0),
            MissionProfile(years=7.0, temperature_c=85.0, duty_cycle=0.9),
            PerCellTypeAging({"XOR2": 50.0}, default_mv=10.0),
            VariationAging(30.0, 5.0, seed=7),
        ]
        for scenario in scenarios:
            token = scenario.cache_token()
            assert json.loads(token) == scenario.key_fields()
            assert scenario.cache_token() == token  # stable across calls
            assert scenario.key_fields()["kind"] == scenario.kind
            assert scenario.kind in SCENARIO_KINDS

    def test_key_fields_ignore_the_bound_library(self):
        bound = UniformAging(30.0, library=fresh_library())
        unbound = UniformAging(30.0)
        assert bound.key_fields() == unbound.key_fields()
        assert bound == unbound

    def test_library_set_scenario_bridge(self, library_set):
        single = library_set.scenario(20.0)
        assert isinstance(single, UniformAging)
        assert single.library is library_set.fresh

    def test_resolve_rejects_unknown_sources(self, multiplier6):
        with pytest.raises(TypeError, match="delay source"):
            resolve_gate_delays(multiplier6.netlist, object())  # type: ignore[arg-type]


# =====================================================================
# Settings-level scenario axes (what the CLI --scenario knob selects)
# =====================================================================
class TestSettingsScenarios:
    def test_every_kind_builds_an_axis(self):
        from repro.experiments.settings import ExperimentSettings

        for kind in SCENARIO_KINDS:
            settings = ExperimentSettings.fast(scenario=kind)
            axis = settings.aging_scenarios()
            assert axis, kind
            assert all(scenario.kind == kind for scenario in axis)

    def test_uniform_axis_mirrors_aging_levels(self):
        from repro.experiments.settings import ExperimentSettings

        settings = ExperimentSettings.fast(aging_levels_mv=(0.0, 25.0))
        axis = settings.aging_scenarios()
        assert [s.nominal_delta_vth_mv for s in axis] == [0.0, 25.0]

    def test_axes_sort_ascending_like_the_legacy_sweep(self):
        """Regression: the legacy levels_mv path sorted ascending, so the
        settings axes must too — unsorted tuples keep fig1a's row order
        bit-identical to the pre-scenario implementation."""
        from repro.experiments.settings import ExperimentSettings

        unsorted_levels = (50.0, 0.0, 30.0)
        for kind in ("uniform", "per_cell_type", "variation"):
            axis = ExperimentSettings.fast(
                scenario=kind, aging_levels_mv=unsorted_levels
            ).aging_scenarios()
            nominals = [s.nominal_delta_vth_mv for s in axis]
            assert nominals == sorted(nominals)
        mission = ExperimentSettings.fast(
            scenario="mission", mission_years=(10.0, 0.0, 3.0)
        ).aging_scenarios()
        assert [s.years for s in mission] == [0.0, 3.0, 10.0]

    def test_unknown_kind_rejected(self):
        from repro.experiments.settings import ExperimentSettings

        with pytest.raises(ValueError, match="scenario"):
            ExperimentSettings.fast(scenario="cosmic").aging_scenarios()
