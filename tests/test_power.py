"""Tests of switching-activity and energy estimation (Fig. 5 engine)."""

import numpy as np
import pytest

from repro.core.padding import Padding, compressed_input_sampler
from repro.power.energy import EnergyModel
from repro.power.switching import estimate_switching_activity


class TestSwitchingActivity:
    def test_activity_is_positive_for_random_traffic(self, small_mac, rng):
        activity = estimate_switching_activity(small_mac, num_transitions=50, rng=0)
        assert activity.total_internal_toggles > 0
        assert activity.input_toggles > 0
        assert activity.average_toggles_per_transition > 0

    def test_constant_traffic_produces_no_toggles(self, small_mac):
        sampler = lambda _rng: {"a": 5, "b": 5, "c": 100}
        activity = estimate_switching_activity(
            small_mac, num_transitions=20, rng=0, input_sampler=sampler
        )
        assert activity.total_internal_toggles == 0
        assert activity.input_toggles == 0

    def test_toggle_bookkeeping_consistent(self, small_mac):
        activity = estimate_switching_activity(small_mac, num_transitions=30, rng=1)
        assert sum(activity.toggles_per_cell.values()) == activity.total_internal_toggles
        assert set(activity.toggles_per_gate) == {gate.name for gate in small_mac.netlist.gates}

    def test_invalid_transition_count(self, small_mac):
        with pytest.raises(ValueError):
            estimate_switching_activity(small_mac, num_transitions=0)


class TestActivityModes:
    """The glitch-aware event mode against the zero-delay baseline."""

    def test_event_mode_dominates_zero_delay_per_gate(self, small_mac, fresh_cells):
        # Same rng and shard plan -> both modes simulate the identical
        # vector chains, so every functional toggle the zero-delay count
        # sees must also commit in the event simulation; the surplus is
        # glitch activity.
        zero_delay = estimate_switching_activity(small_mac, num_transitions=200, rng=9)
        event = estimate_switching_activity(
            small_mac, num_transitions=200, rng=9, mode="event", delay_source=fresh_cells
        )
        for gate in small_mac.netlist.gates:
            assert (
                event.toggles_per_gate[gate.name]
                >= zero_delay.toggles_per_gate[gate.name]
            )
        assert event.total_internal_toggles > zero_delay.total_internal_toggles
        assert event.input_toggles == zero_delay.input_toggles
        assert zero_delay.mode == "zero-delay" and not zero_delay.is_glitch_aware
        assert event.mode == "event" and event.is_glitch_aware

    def test_zero_delay_matches_scalar_functional_toggles(self, small_mac):
        # Replay the first shard's chain with the scalar zero-delay
        # simulator and count functional changes per gate output.
        from repro.circuits.simulator import LogicSimulator
        from repro.parallel import spawn_seed_sequences

        transitions = 60
        activity = estimate_switching_activity(
            small_mac, num_transitions=transitions, rng=21
        )
        generator = np.random.default_rng(spawn_seed_sequences(21, 1)[0])
        vectors = {
            name: generator.integers(
                0, 1 << len(nets), size=transitions + 1, dtype=np.uint64
            ).tolist()
            for name, nets in small_mac.netlist.input_buses.items()
        }
        simulator = LogicSimulator(small_mac.netlist)
        reference: dict[str, int] = {}
        previous = None
        for index in range(transitions + 1):
            bits = simulator.evaluate_bits(
                {name: values[index] for name, values in vectors.items()}
            )
            if previous is not None:
                for net, value in bits.items():
                    if previous[net] != value:
                        reference[net.name] = reference.get(net.name, 0) + 1
            previous = bits
        for gate in small_mac.netlist.gates:
            assert activity.toggles_per_gate[gate.name] == reference.get(
                gate.output.name, 0
            )

    @pytest.mark.parametrize("mode", ["zero-delay", "event"])
    def test_bit_identical_for_any_workers_and_chunking(
        self, small_mac, fresh_cells, mode
    ):
        kwargs = dict(
            num_transitions=120,
            rng=5,
            mode=mode,
            delay_source=fresh_cells if mode == "event" else None,
            transitions_per_shard=25,
        )
        serial = estimate_switching_activity(small_mac, **kwargs)
        for workers in (2, 3, -1):
            parallel = estimate_switching_activity(small_mac, workers=workers, **kwargs)
            assert parallel == serial

    def test_closure_sampler_parallelises_or_degrades_serially(self, small_mac):
        # A local lambda cannot be pickled; under fork the workers inherit
        # it, on spawn platforms the executor degrades to serial — either
        # way the counts are those of the constant chain: zero toggles.
        import warnings

        sampler = lambda _rng: {"a": 5, "b": 5, "c": 100}  # noqa: E731
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            activity = estimate_switching_activity(
                small_mac, num_transitions=40, rng=0,
                input_sampler=sampler, workers=2, transitions_per_shard=10,
            )
        assert activity.total_internal_toggles == 0

    def test_constant_traffic_produces_no_event_toggles(self, small_mac, fresh_cells):
        sampler = lambda _rng: {"a": 5, "b": 5, "c": 100}  # noqa: E731
        activity = estimate_switching_activity(
            small_mac, num_transitions=20, rng=0,
            input_sampler=sampler, mode="event", delay_source=fresh_cells,
        )
        assert activity.total_internal_toggles == 0
        assert activity.input_toggles == 0

    def test_event_mode_requires_a_delay_source(self, small_mac):
        with pytest.raises(ValueError, match="delay_source"):
            estimate_switching_activity(small_mac, num_transitions=10, mode="event")

    def test_unknown_mode_rejected(self, small_mac):
        with pytest.raises(ValueError, match="mode"):
            estimate_switching_activity(small_mac, num_transitions=10, mode="exact")

    def test_invalid_shard_size_rejected(self, small_mac):
        with pytest.raises(ValueError, match="transitions_per_shard"):
            estimate_switching_activity(
                small_mac, num_transitions=10, transitions_per_shard=0
            )

    def test_energy_model_prices_glitches_with_its_own_delay_source(
        self, small_mac, fresh_cells
    ):
        model = EnergyModel(fresh_cells)
        zero_delay = model.estimate_operation_energy(
            small_mac, clock_period_ps=500.0, num_transitions=80, rng=4
        )
        event = model.estimate_operation_energy(
            small_mac, clock_period_ps=500.0, num_transitions=80, rng=4,
            activity_mode="event",
        )
        # Identical chains, so the glitch surplus strictly raises the
        # dynamic term while leakage (activity-independent) is unchanged.
        assert event.dynamic_energy_fj > zero_delay.dynamic_energy_fj
        assert event.leakage_energy_fj == zero_delay.leakage_energy_fj


class TestEnergyModel:
    def test_energy_report_totals(self, small_mac, fresh_cells):
        model = EnergyModel(fresh_cells)
        report = model.estimate_operation_energy(small_mac, clock_period_ps=500.0, num_transitions=40, rng=0)
        assert report.dynamic_energy_fj > 0
        assert report.leakage_energy_fj > 0
        assert report.total_energy_fj == pytest.approx(
            report.dynamic_energy_fj + report.leakage_energy_fj
        )
        assert report.energy_per_operation_fj > 0

    def test_compressed_traffic_uses_less_energy(self, paper_mac, fresh_cells):
        model = EnergyModel(fresh_cells)
        baseline = model.estimate_operation_energy(
            paper_mac, clock_period_ps=900.0, num_transitions=60, rng=0
        )
        sampler = compressed_input_sampler(paper_mac, 4, 4, Padding.MSB)
        compressed = model.estimate_operation_energy(
            paper_mac, clock_period_ps=900.0, num_transitions=60, rng=0, input_sampler=sampler
        )
        assert compressed.energy_per_operation_fj < baseline.energy_per_operation_fj

    def test_longer_period_increases_leakage_energy(self, small_mac, fresh_cells):
        model = EnergyModel(fresh_cells)
        short = model.estimate_operation_energy(small_mac, clock_period_ps=200.0, num_transitions=30, rng=0)
        long = model.estimate_operation_energy(small_mac, clock_period_ps=800.0, num_transitions=30, rng=0)
        assert long.leakage_energy_fj > short.leakage_energy_fj

    def test_invalid_period(self, small_mac, fresh_cells):
        with pytest.raises(ValueError):
            EnergyModel(fresh_cells).estimate_operation_energy(small_mac, clock_period_ps=0.0)


class TestCompressedInputSampler:
    def test_msb_padding_keeps_values_in_low_range(self, paper_mac):
        sampler = compressed_input_sampler(paper_mac, 3, 2, Padding.MSB)
        generator = np.random.default_rng(0)
        for _ in range(50):
            inputs = sampler(generator)
            assert 0 <= inputs["a"] < (1 << 5)
            assert 0 <= inputs["b"] < (1 << 6)
            assert 0 <= inputs["c"] < (1 << 17)

    def test_lsb_padding_shifts_values_up(self, paper_mac):
        sampler = compressed_input_sampler(paper_mac, 3, 2, Padding.LSB)
        generator = np.random.default_rng(0)
        saw_nonzero = False
        for _ in range(50):
            inputs = sampler(generator)
            assert inputs["a"] % (1 << 3) == 0
            assert inputs["b"] % (1 << 2) == 0
            assert inputs["c"] % (1 << 5) == 0
            saw_nonzero = saw_nonzero or inputs["a"] > 0
        assert saw_nonzero

    def test_out_of_range_compression_rejected(self, paper_mac):
        with pytest.raises(ValueError):
            compressed_input_sampler(paper_mac, 9, 0, Padding.MSB)


class TestVectorisedLeakage:
    """The NumPy energy reductions against the original per-gate Python loops."""

    def _scenarios(self, fresh_cells):
        from repro.aging.scenarios import (
            MissionProfile,
            PerCellTypeAging,
            UniformAging,
            VariationAging,
        )

        return [
            UniformAging(0.0, library=fresh_cells),
            UniformAging(30.0, library=fresh_cells),
            MissionProfile(
                years=5.0, temperature_c=85.0, duty_cycle=0.8, library=fresh_cells
            ),
            PerCellTypeAging(
                levels_mv={"NAND2": 40.0, "INV": 10.0},
                default_mv=20.0,
                library=fresh_cells,
            ),
            VariationAging(25.0, 6.0, seed=7, library=fresh_cells),
        ]

    def _loop_report(self, model, target, activity, clock_period_ps):
        # The pre-vectorisation implementation, kept verbatim as the
        # bit-identity reference.
        netlist = target.netlist
        gate_leakage = model._gate_leakage_nw(netlist)
        dynamic_fj = 0.0
        leakage_nw = 0.0
        for gate in netlist.gates:
            toggles = activity.toggles_per_gate.get(gate.name, 0)
            dynamic_fj += toggles * model.library.switching_energy_fj(gate.cell_name)
            leakage_nw += gate_leakage[gate]
        leakage_fj = leakage_nw * clock_period_ps * activity.num_transitions * 1e-6
        return dynamic_fj, leakage_fj

    def test_scenario_paths_bit_identical_to_the_loop(self, small_mac, fresh_cells):
        activity = estimate_switching_activity(small_mac, num_transitions=40, rng=2)
        for scenario in self._scenarios(fresh_cells):
            model = EnergyModel(scenario)
            report = model.energy_from_activity(small_mac, activity, 500.0)
            dynamic_fj, leakage_fj = self._loop_report(model, small_mac, activity, 500.0)
            assert report.dynamic_energy_fj == dynamic_fj  # bit-identical, not approx
            assert report.leakage_energy_fj == leakage_fj

    def test_library_path_bit_identical_to_the_loop(self, small_mac, library_set):
        activity = estimate_switching_activity(small_mac, num_transitions=40, rng=2)
        for level in (0.0, 30.0, 50.0):
            model = EnergyModel(library_set.library(level))
            report = model.energy_from_activity(small_mac, activity, 500.0)
            dynamic_fj, leakage_fj = self._loop_report(model, small_mac, activity, 500.0)
            assert report.dynamic_energy_fj == dynamic_fj
            assert report.leakage_energy_fj == leakage_fj

    def test_delta_columns_match_per_scenario_reports(self, small_mac, fresh_cells):
        import numpy as np

        from repro.power.energy import delta_leakage_nw, scenario_energy_reports

        scenarios = self._scenarios(fresh_cells)
        activity = estimate_switching_activity(small_mac, num_transitions=40, rng=2)
        deltas = np.stack(
            [s.gate_delta_vth_mv(small_mac.netlist, fresh_cells) for s in scenarios],
            axis=1,
        )
        reports = scenario_energy_reports(small_mac, deltas, activity, 500.0, fresh_cells)
        columns = delta_leakage_nw(small_mac.netlist, deltas, fresh_cells)
        assert len(reports) == len(scenarios) == columns.shape[0]
        for scenario, report, column in zip(scenarios, reports, columns):
            reference = EnergyModel(scenario).energy_from_activity(
                small_mac, activity, 500.0
            )
            assert report == reference
            single = delta_leakage_nw(
                small_mac.netlist,
                scenario.gate_delta_vth_mv(small_mac.netlist, fresh_cells),
                fresh_cells,
            )
            assert float(single) == float(column)

    def test_delta_columns_validate_shape_and_period(self, small_mac, fresh_cells):
        import numpy as np

        from repro.power.energy import delta_leakage_nw, scenario_energy_reports

        activity = estimate_switching_activity(small_mac, num_transitions=10, rng=0)
        bad = np.zeros((3, 2))
        with pytest.raises(ValueError, match="row per gate"):
            delta_leakage_nw(small_mac.netlist, bad, fresh_cells)
        gates = len(small_mac.netlist.topological_gates())
        with pytest.raises(ValueError, match="gates, scenarios"):
            scenario_energy_reports(
                small_mac, np.zeros(gates), activity, 500.0, fresh_cells
            )
        with pytest.raises(ValueError, match="clock_period_ps"):
            scenario_energy_reports(
                small_mac, np.zeros((gates, 1)), activity, 0.0, fresh_cells
            )
