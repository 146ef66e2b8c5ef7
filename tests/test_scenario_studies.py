"""Tests of the scenario-aware core and the accelerator-scale scenario studies.

Covers the PR's contracts:

* uniform scenarios are bit-identical to the legacy ΔVth-float path through
  planning, feasibility search and guardband sizing,
* mission-profile guardbands match the uniform guardband at the
  BTI-equivalent ΔVth level,
* timing caches normalise ``-0.0``/int/float aging points to one engine,
* ``plan_level`` — the one planner of Algorithm 1's timing phase — reports
  its corner search (selection, feasible count, baseline delay) on every
  scenario family, keeps the caller's axis order, and the scenario sweep
  built on it agrees with Table 2 and Fig. 4a,
* the analyzer's single-corner delay path equals the scalar STA reference,
* ``analyze_guardband`` rejects conflicting building blocks,
* ``energy_study`` routes every level (including the fresh one) through the
  planner,
* the scenario-aware energy model prices uniform scenarios identically to
  the aged library, and
* the per-PE array map and the ``scenario_sweep`` pipeline family are
  deterministic: bit-identical across worker counts, warm-cache reruns that
  execute zero task bodies, and axis extensions that run only new points.
"""

from __future__ import annotations

import json

import pytest

from repro.aging.bti import AgingTimeline
from repro.aging.scenarios import (
    MissionProfile,
    PerCellTypeAging,
    UniformAging,
    VariationAging,
)
from repro.core.compression import enumerate_compressions
from repro.core.guardband import analyze_guardband
from repro.core.padding import Padding, mac_case_analysis
from repro.core.pipeline import DeviceToSystemPipeline
from repro.core.timing_analysis import CompressionTimingAnalyzer
from repro.experiments.fig4_delay_accuracy import run_fig4a
from repro.experiments.reporting import _jsonify
from repro.experiments.runner import EXPERIMENTS
from repro.experiments.scenario_study import run_scenario_sweep
from repro.experiments.settings import ExperimentSettings
from repro.experiments.table2_compression import run_table2
from repro.npu.scenario_map import array_scenario_map, pe_seed
from repro.npu.systolic import SystolicArray
from repro.pipeline import EXPERIMENT_NAMES, build_experiment_graph, run_pipeline
from repro.power.energy import EnergyModel
from repro.power.switching import estimate_switching_activity
from repro.timing.sta import StaticTimingAnalyzer

LEVELS = (0.0, 10.0, 30.0, 50.0)

#: A few aging points of every scenario family.
FAMILY_AXES = {
    "uniform": [UniformAging(level) for level in LEVELS],
    "mission": [
        MissionProfile(years=3.0, temperature_c=85.0),
        MissionProfile(years=7.0, temperature_c=105.0),
    ],
    "per_cell_type": [
        PerCellTypeAging({"XOR2": 50.0}, default_mv=10.0),
        PerCellTypeAging({"AND2": 40.0, "NAND2": 20.0}, default_mv=0.0),
    ],
    "variation": [VariationAging(30.0, 5.0, seed=7), VariationAging(10.0, 8.0, seed=1)],
}

#: One point of each family for the STA reference check.
REFERENCE_POINTS = (
    UniformAging(30.0),
    MissionProfile(years=7.0, temperature_c=105.0),
    VariationAging(30.0, 5.0, seed=7),
    PerCellTypeAging({"XOR2": 50.0}, default_mv=10.0),
)


@pytest.fixture(scope="module")
def device_pipeline(small_mac, library_set) -> DeviceToSystemPipeline:
    return DeviceToSystemPipeline(
        mac=small_mac,
        library_set=library_set,
        timeline=AgingTimeline(levels_mv=LEVELS),
        max_alpha=3,
        max_beta=3,
    )


@pytest.fixture(scope="module")
def analyzer(device_pipeline) -> CompressionTimingAnalyzer:
    return device_pipeline.timing_analyzer


class TestPlanLevel:
    @pytest.mark.parametrize("family", sorted(FAMILY_AXES))
    def test_plan_reports_its_corner_search(self, device_pipeline, analyzer, family):
        for point in FAMILY_AXES[family]:
            plan = device_pipeline.plan_level(point)
            feasible = analyzer.feasible_compressions(point, max_alpha=3, max_beta=3)
            assert plan.feasible_count == len(feasible)
            assert plan.timing == analyzer.select_timing(point, max_alpha=3, max_beta=3)
            assert plan.baseline_delay_ps == analyzer.delay_ps(point, None)
            assert plan.delta_vth_mv == point.nominal_delta_vth_mv
            assert plan.label() == point.label()
            assert plan.guardband.end_of_life_delay_ps == plan.baseline_delay_ps
            assert plan.fresh_delay_ps == analyzer.fresh_period_ps()

    def test_uniform_scenario_and_float_share_one_plan(self, device_pipeline):
        for level in LEVELS:
            assert device_pipeline.plan_level(UniformAging(level)) is (
                device_pipeline.plan_level(level)
            )


class TestUniformScenarioBitIdentity:

    def test_feasible_compressions_bit_identical(self, analyzer):
        as_float = analyzer.feasible_compressions(30.0, max_alpha=3, max_beta=3)
        as_scenario = analyzer.feasible_compressions(
            UniformAging(30.0), max_alpha=3, max_beta=3
        )
        assert as_float == as_scenario

    def test_guardband_bit_identical(self, analyzer):
        as_float = analyze_guardband(end_of_life_mv=50.0, analyzer=analyzer)
        as_scenario = analyze_guardband(end_of_life_mv=UniformAging(50.0), analyzer=analyzer)
        assert as_float == as_scenario


class TestMissionGuardband:
    def test_matches_uniform_at_bti_equivalent_level(self, analyzer):
        mission = MissionProfile(years=7.0, temperature_c=105.0)
        at_mission = analyze_guardband(end_of_life_mv=mission, analyzer=analyzer)
        at_uniform = analyze_guardband(
            end_of_life_mv=mission.nominal_delta_vth_mv, analyzer=analyzer
        )
        assert at_mission.end_of_life_delay_ps == at_uniform.end_of_life_delay_ps
        assert at_mission.guardband_percent == at_uniform.guardband_percent
        assert at_mission.end_of_life_mv == mission.nominal_delta_vth_mv


class TestAgingPointNormalization:
    def test_minus_zero_int_and_float_share_one_engine(self, small_mac, library_set):
        analyzer = CompressionTimingAnalyzer(small_mac, library_set)
        delays = {analyzer.delay_ps(level, None) for level in (0.0, -0.0, 0)}
        assert len(delays) == 1
        assert len(analyzer._analyzers) == 1

    def test_plan_cache_shares_int_and_float_levels(self, small_mac, library_set):
        pipeline = DeviceToSystemPipeline(
            mac=small_mac, library_set=library_set, max_alpha=3, max_beta=3
        )
        assert pipeline.plan_level(10) == pipeline.plan_level(10.0)
        assert len(pipeline._plans) == 1


class TestConflictingBuildingBlocks:
    def test_analyze_guardband_rejects_analyzer_plus_parts(
        self, small_mac, library_set, analyzer
    ):
        with pytest.raises(ValueError, match="not both"):
            analyze_guardband(mac=small_mac, analyzer=analyzer)
        with pytest.raises(ValueError, match="not both"):
            analyze_guardband(library_set=library_set, analyzer=analyzer)



class TestTrajectoryAxisOrder:
    def test_shuffled_axis_keeps_both_curves_aligned(self, device_pipeline, analyzer):
        levels = [50.0, 0.0, 30.0]
        plans = device_pipeline.plan(tuple(levels))
        assert [plan.delta_vth_mv for plan in plans] == levels
        fresh = analyzer.fresh_period_ps()
        for level, plan in zip(levels, plans):
            assert plan.normalized_baseline_delay == analyzer.delay_ps(level, None) / fresh
            assert plan.normalized_compensated_delay == (
                analyzer.delay_ps(level, plan.compression) / fresh
            )


class TestSingleCornerDelayPath:
    @pytest.mark.parametrize("point", REFERENCE_POINTS, ids=lambda point: point.kind)
    def test_delay_ps_matches_scalar_sta(self, paper_mac, library_set, point):
        # A cold analyzer per point, so every delay_ps call runs its own
        # single-corner pass instead of reading a batch from the cache.
        analyzer = CompressionTimingAnalyzer(paper_mac, library_set)
        reference = StaticTimingAnalyzer(paper_mac, analyzer.scenario(point))
        for choice in enumerate_compressions(7, 7, (Padding.MSB, Padding.LSB)):
            case = mac_case_analysis(choice.alpha, choice.beta, choice.padding)
            assert analyzer.delay_ps(point, choice).hex() == (
                reference.critical_path_delay(case).hex()
            )
        assert analyzer.delay_ps(point, None).hex() == reference.critical_path_delay().hex()
        fresh = StaticTimingAnalyzer(paper_mac, library_set.fresh).critical_path_delay()
        assert analyzer.fresh_period_ps().hex() == fresh.hex()


class TestSweepAgreesWithTable2AndFig4a:
    def test_uniform_sweep_rows_match_table2_and_fig4a(self):
        settings = ExperimentSettings.fast()
        assert settings.scenario == "uniform"
        sweep = run_scenario_sweep(settings)
        table2 = run_table2(settings)
        fig4a = run_fig4a(settings)
        sweep_rows = [dict(zip(sweep.columns, row)) for row in sweep.rows]
        table2_rows = [dict(zip(table2.columns, row)) for row in table2.rows]
        # Table 2 lists the aged levels only; the sweep starts at 0 mV.
        assert [
            (
                row["nominal_delta_vth_mv"],
                row["alpha"],
                row["beta"],
                row["padding"],
                row["normalized_baseline_delay"],
                row["normalized_compensated_delay"],
            )
            for row in sweep_rows
            if row["nominal_delta_vth_mv"] > 0
        ] == [
            (
                row["delta_vth_mv"],
                row["alpha"],
                row["beta"],
                row["padding"],
                row["normalized_delay_baseline"],
                row["normalized_delay_ours"],
            )
            for row in table2_rows
        ]
        end_of_life = sweep_rows[-1]
        assert end_of_life["nominal_delta_vth_mv"] == 50.0
        assert end_of_life["guardband_percent"] == fig4a.metadata["guardband_percent"]


class TestEnergyStudyPlannerRouting:
    def test_every_level_routes_through_the_planner(self, device_pipeline, monkeypatch):
        planned = []
        original = device_pipeline.plan_level
        monkeypatch.setattr(
            device_pipeline,
            "plan_level",
            lambda level: planned.append(level) or original(level),
        )
        study = device_pipeline.energy_study(levels_mv=(0.0, 30.0), num_transitions=20)
        assert planned == [0.0, 30.0]
        # The fresh level still selects the uncompressed point, so routing it
        # through the planner preserved the old study's numbers.
        assert study[0].delta_vth_mv == 0.0
        assert original(0.0).compression.alpha == 0
        assert original(0.0).compression.beta == 0


class TestScenarioAwareEnergyModel:
    def test_uniform_scenario_prices_like_the_aged_library(self, small_mac, library_set):
        activity = estimate_switching_activity(small_mac, num_transitions=50, rng=3)
        from_library = EnergyModel(library_set.library(30.0)).energy_from_activity(
            small_mac, activity, clock_period_ps=500.0
        )
        from_scenario = EnergyModel(
            UniformAging(30.0, library=library_set.fresh)
        ).energy_from_activity(small_mac, activity, clock_period_ps=500.0)
        assert from_library == from_scenario

    def test_rejects_non_delay_sources(self):
        with pytest.raises(TypeError, match="CellLibrary or AgingScenario"):
            EnergyModel(42.0)


class TestArrayScenarioMap:
    def test_pe_seed_is_a_pure_position_function(self):
        assert pe_seed(0, 1, 2) == pe_seed(0, 1, 2)
        assert pe_seed(0, 1, 2) != pe_seed(0, 2, 1)
        assert pe_seed(0, 1, 2) != pe_seed(1, 1, 2)

    def test_batched_path_bit_identical_to_scalar(self, small_mac, fresh_cells):
        from repro.circuits.backends import levelized_graph

        array = SystolicArray(rows=3, cols=3)
        kwargs = dict(
            nominal_mv=25.0,
            sigma_mv=5.0,
            seed=3,
            mac=small_mac,
            library=fresh_cells,
            num_transitions=30,
        )
        scalar = array_scenario_map(array, batched=False, **kwargs)
        graph = levelized_graph(small_mac.netlist)
        before = graph.max_plus_passes
        batched = array_scenario_map(array, batched=True, **kwargs)
        # 9 PEs, one corner-batched max-plus traversal for the whole array.
        assert graph.max_plus_passes - before == 1
        assert batched.records == scalar.records
        for grid in (
            "delay_grid_ps",
            "energy_grid_fj",
            "margin_grid_mv",
            "lifetime_grid_years",
        ):
            assert getattr(batched, grid)().tobytes() == getattr(scalar, grid)().tobytes()

    def test_grids_margins_and_lifetimes(self, small_mac, fresh_cells):
        array = SystolicArray(rows=2, cols=2)
        tight = array_scenario_map(
            array, nominal_mv=30.0, seed=2, mac=small_mac, library=fresh_cells,
            num_transitions=30,
        )
        assert tight.delay_grid_ps().shape == (2, 2)
        assert tight.worst_pe.delay_ps == tight.delay_grid_ps().max()
        # The clock defaults to the fresh critical path, which cannot absorb
        # a 30 mV nominal shift: every PE violates and lifetimes collapse.
        assert tight.timing_yield == 0.0
        assert tight.array_lifetime_years == 0.0
        relaxed = array_scenario_map(
            array, nominal_mv=30.0, seed=2, mac=small_mac, library=fresh_cells,
            num_transitions=30, clock_period_ps=tight.fresh_delay_ps * 2.0,
        )
        assert relaxed.timing_yield == 1.0
        assert (relaxed.margin_grid_mv() > 0.0).all()
        assert relaxed.array_lifetime_years > 0.0


def sweep_settings(cache_dir, **overrides) -> ExperimentSettings:
    base = dict(
        scenario="mission",
        mission_years=(0.0, 3.0),
        max_alpha=3,
        max_beta=3,
        cache_dir=cache_dir,
    )
    base.update(overrides)
    return ExperimentSettings.fast(**base)


def canonical(result) -> str:
    return json.dumps(result.to_dict(), indent=2, default=_jsonify)


class TestScenarioSweepPipeline:
    def test_registered_as_experiment_and_pipeline_task(self):
        assert "scenario_sweep" in EXPERIMENTS
        assert "scenario_sweep" in EXPERIMENT_NAMES

    def test_point_family_follows_the_scenario_axis(self, tmp_path):
        settings = sweep_settings(tmp_path)
        graph = build_experiment_graph(settings)
        points = [name for name in graph.names if name.startswith("scenario_point:")]
        assert len(points) == 2
        assert set(graph["scenario_sweep"].depends) == set(points)

    def test_duplicate_axis_points_collapse(self, tmp_path):
        settings = ExperimentSettings.fast(
            aging_levels_mv=(0.0, 30.0, 30.0), max_alpha=3, max_beta=3,
            cache_dir=tmp_path,
        )
        graph = build_experiment_graph(settings)
        points = [name for name in graph.names if name.startswith("scenario_point:")]
        assert len(points) == 2
        assert len(run_scenario_sweep(settings).rows) == 2

    def test_pipeline_matches_direct_and_warm_rerun_executes_nothing(self, tmp_path):
        settings = sweep_settings(tmp_path)
        direct = run_scenario_sweep(settings)
        cold = run_pipeline(["scenario_sweep"], settings=settings)
        assert canonical(cold.results["scenario_sweep"]) == canonical(direct)
        assert "scenario_sweep" in cold.executed
        warm = run_pipeline(["scenario_sweep"], settings=settings)
        assert warm.executed == ()
        assert canonical(warm.results["scenario_sweep"]) == canonical(direct)

    def test_axis_extension_runs_only_the_new_points(self, tmp_path):
        settings = sweep_settings(tmp_path)
        run_pipeline(["scenario_sweep"], settings=settings)
        extended = sweep_settings(tmp_path, mission_years=(0.0, 3.0, 7.0))
        run = run_pipeline(["scenario_sweep"], settings=extended)
        executed_points = [
            name for name in run.executed if name.startswith("scenario_point:")
        ]
        assert len(executed_points) == 1
        assert len(run.results["scenario_sweep"].rows) == 3
