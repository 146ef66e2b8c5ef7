"""Equivalence and unit tests of the batched levelized (lane) engine.

The ndarray lane engine must be bit-for-bit equivalent to running the scalar
simulators once per lane — on the arithmetic circuits the experiments use,
and on randomized netlists, vectors, batch sizes and ΔVth levels.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.aging.cell_library import AgingAwareLibrarySet
from repro.circuits.backends import LaneTimedEvaluation, LaneTimingSimulator, levelized_graph
from repro.circuits.gates import CELL_FUNCTIONS, CELL_INPUT_COUNTS, WORD_CELL_FUNCTIONS
from repro.circuits.mac import build_mac, build_multiplier
from repro.circuits.netlist import Netlist
from repro.circuits.simulator import (
    BATCH_ARRIVAL_MODELS,
    LogicSimulator,
    TimingSimulator,
)
from repro.timing.error_model import characterize_timing_errors
from repro.timing.sta import StaticTimingAnalyzer
from repro.utils.bitops import UINT64_MASK, bits_to_lane_array, lane_array_to_bits

# Shared circuits (building them inside @given bodies would dominate runtime).
_MULT5 = build_multiplier(5, "array")
_MAC = build_mac(multiplier_width=5, accumulator_width=12)
_LIBRARIES = AgingAwareLibrarySet.generate((0.0, 20.0, 50.0))

#: The batched two-vector timing engines held to the scalar reference.
TIMING_ENGINES = (LaneTimingSimulator,)


# ----------------------------------------------------------------- helpers
@st.composite
def random_netlists(draw):
    """A small random combinational netlist over every supported cell."""
    netlist = Netlist("random")
    pool = list(netlist.add_input_bus("in", draw(st.integers(2, 5))))
    if draw(st.booleans()):
        pool.append(netlist.constant(0))
    if draw(st.booleans()):
        pool.append(netlist.constant(1))
    cells = sorted(CELL_FUNCTIONS)
    num_gates = draw(st.integers(1, 20))
    for _ in range(num_gates):
        cell = draw(st.sampled_from(cells))
        inputs = [
            pool[draw(st.integers(0, len(pool) - 1))]
            for _ in range(CELL_INPUT_COUNTS[cell])
        ]
        pool.append(netlist.add_gate(cell, inputs))
    width = draw(st.integers(1, min(4, num_gates)))
    netlist.add_output_bus("out", pool[-width:])
    return netlist


def _lane_inputs(netlist, rng, lanes):
    return {
        bus: [int(rng.integers(0, 1 << len(nets))) for _ in range(lanes)]
        for bus, nets in netlist.input_buses.items()
    }


def _lane_slice(batch, lane):
    return {bus: values[lane] for bus, values in batch.items()}


def _lane_logic(netlist, inputs):
    """Per-lane output bus values of one zero-delay lane pass."""
    graph = levelized_graph(netlist)
    values, lanes = graph.pack_inputs(inputs)
    graph.evaluate(values)
    result = {}
    for bus, rows in graph.output_bus_rows.items():
        bits = lane_array_to_bits(values[rows], lanes)
        result[bus] = [
            sum(int(bit) << index for index, bit in enumerate(bits[:, lane]))
            for lane in range(lanes)
        ]
    return result


# ---------------------------------------------------------- input packing
class TestInputPacking:
    def test_bus_packing_round_trip(self):
        rng = np.random.default_rng(1)
        graph = levelized_graph(_MULT5.netlist)
        values = {
            bus: [int(rng.integers(0, 32)) for _ in range(77)] for bus in graph.input_bus_rows
        }
        packed, lanes = graph.pack_inputs(values)
        assert lanes == 77
        rows = {bus: packed[bus_rows] for bus, bus_rows in graph.input_bus_rows.items()}
        evaluation = LaneTimedEvaluation(
            lanes=lanes,
            final_output_words=rows,
            previous_output_words=rows,
            output_arrivals_ps={},
            worst_arrival_ps=np.zeros(lanes),
        )
        assert evaluation.final_outputs() == values

    def test_bus_packing_validation(self):
        graph = levelized_graph(_MULT5.netlist)
        with pytest.raises(KeyError, match="missing values for input bus 'b'"):
            graph.pack_inputs({"a": [1]})
        with pytest.raises(ValueError, match="at least one lane"):
            graph.pack_inputs({"a": [], "b": []})
        with pytest.raises(ValueError, match="bus 'b' has 1 lanes, expected 2"):
            graph.pack_inputs({"a": [1, 2], "b": [3]})
        with pytest.raises(ValueError, match="value 32 does not fit in 5-bit bus 'a'"):
            graph.pack_inputs({"a": [32], "b": [0]})
        with pytest.raises(ValueError, match="value -1 does not fit in 5-bit bus 'a'"):
            graph.pack_inputs({"a": [-1], "b": [0]})


class TestWordCellFunctions:
    def test_tables_cover_the_same_cells(self):
        assert set(WORD_CELL_FUNCTIONS) == set(CELL_FUNCTIONS)

    @given(seed=st.integers(0, 2**32 - 1), lanes=st.integers(1, 130))
    @settings(max_examples=30, deadline=None)
    def test_word_functions_match_scalar_per_lane(self, seed, lanes):
        rng = np.random.default_rng(seed)
        for cell, arity in CELL_INPUT_COUNTS.items():
            bits = rng.integers(0, 2, size=(arity, lanes)).astype(bool)
            rows = bits_to_lane_array(bits)
            result = lane_array_to_bits(WORD_CELL_FUNCTIONS[cell](UINT64_MASK, *rows), lanes)
            scalar = CELL_FUNCTIONS[cell]
            for lane in range(lanes):
                expected = scalar(*(int(pin) for pin in bits[:, lane]))
                assert int(result[lane]) == expected


# -------------------------------------------------------- logic equivalence
class TestBatchLogicSimulator:
    @given(seed=st.integers(0, 2**32 - 1), lanes=st.integers(1, 80))
    @settings(max_examples=25, deadline=None)
    def test_matches_scalar_on_mac(self, seed, lanes):
        rng = np.random.default_rng(seed)
        inputs = _lane_inputs(_MAC.netlist, rng, lanes)
        batch = _lane_logic(_MAC.netlist, inputs)
        scalar = LogicSimulator(_MAC.netlist)
        for lane in range(lanes):
            assert _lane_slice(batch, lane) == scalar.evaluate(_lane_slice(inputs, lane))

    @given(netlist=random_netlists(), seed=st.integers(0, 2**32 - 1), lanes=st.integers(1, 70))
    @settings(max_examples=40, deadline=None)
    def test_matches_scalar_on_random_netlists(self, netlist, seed, lanes):
        rng = np.random.default_rng(seed)
        inputs = _lane_inputs(netlist, rng, lanes)
        batch = _lane_logic(netlist, inputs)
        scalar = LogicSimulator(netlist)
        for lane in range(lanes):
            assert _lane_slice(batch, lane) == scalar.evaluate(_lane_slice(inputs, lane))

    def test_single_lane_matches_multiplication(self):
        batch = _lane_logic(_MULT5.netlist, {"a": [7], "b": [9]})
        assert batch["out"] == [63]


# ------------------------------------------------------- timing equivalence
class TestBatchTimingSimulator:
    """Timing properties every batched engine of :data:`TIMING_ENGINES` keeps."""

    @pytest.mark.parametrize("model", BATCH_ARRIVAL_MODELS)
    @pytest.mark.parametrize("level", [0.0, 50.0])
    def test_matches_scalar_on_mac(self, model, level):
        rng = np.random.default_rng(7)
        library = _LIBRARIES.library(level)
        lanes = 65
        previous = _lane_inputs(_MAC.netlist, rng, lanes)
        current = _lane_inputs(_MAC.netlist, rng, lanes)
        scalar_sim = TimingSimulator(_MAC.netlist, library, arrival_model=model)
        references = [
            scalar_sim.propagate(_lane_slice(previous, lane), _lane_slice(current, lane))
            for lane in range(lanes)
        ]
        for engine in TIMING_ENGINES:
            evaluation = engine(_MAC.netlist, library, model).propagate_batch(
                previous, current
            )
            finals = evaluation.final_outputs()
            previous_outputs = evaluation.previous_outputs()
            clock = float(np.quantile(evaluation.worst_arrival_ps, 0.5)) or 10.0
            captured = evaluation.captured_outputs(clock)
            for lane, reference in enumerate(references):
                assert _lane_slice(finals, lane) == reference.final_outputs
                assert _lane_slice(previous_outputs, lane) == reference.previous_outputs
                assert _lane_slice(captured, lane) == reference.captured_outputs(clock)
                assert evaluation.worst_arrival_ps[lane] == pytest.approx(
                    reference.worst_arrival_ps, abs=1e-9
                )
                for bus, arrivals in evaluation.output_arrivals_ps.items():
                    assert np.allclose(arrivals[:, lane], reference.output_arrivals_ps[bus])

    @given(
        netlist=random_netlists(),
        seed=st.integers(0, 2**32 - 1),
        lanes=st.integers(1, 40),
        model=st.sampled_from(BATCH_ARRIVAL_MODELS),
        level=st.sampled_from([0.0, 20.0, 50.0]),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_scalar_on_random_netlists(self, netlist, seed, lanes, model, level):
        rng = np.random.default_rng(seed)
        library = _LIBRARIES.library(level)
        previous = _lane_inputs(netlist, rng, lanes)
        current = _lane_inputs(netlist, rng, lanes)
        scalar_sim = TimingSimulator(netlist, library, arrival_model=model)
        references = [
            scalar_sim.propagate(_lane_slice(previous, lane), _lane_slice(current, lane))
            for lane in range(lanes)
        ]
        for engine in TIMING_ENGINES:
            evaluation = engine(netlist, library, model).propagate_batch(previous, current)
            finals = evaluation.final_outputs()
            clock = max(float(evaluation.worst_arrival_ps.max()) / 2, 1e-3)
            captured = evaluation.captured_outputs(clock)
            for lane, reference in enumerate(references):
                assert _lane_slice(finals, lane) == reference.final_outputs
                assert _lane_slice(captured, lane) == reference.captured_outputs(clock)
                assert evaluation.worst_arrival_ps[lane] == pytest.approx(
                    reference.worst_arrival_ps, abs=1e-9
                )

    def test_no_transition_means_no_activity(self, fresh_cells):
        inputs = {"a": [5, 6], "b": [5, 6]}
        for engine in TIMING_ENGINES:
            evaluation = engine(_MULT5.netlist, fresh_cells).propagate_batch(inputs, inputs)
            assert (evaluation.worst_arrival_ps == 0.0).all()
            assert not evaluation.has_timing_violation(1.0).any()

    def test_settle_never_exceeds_sta_critical_path(self, fresh_cells):
        critical = StaticTimingAnalyzer(_MAC, fresh_cells).critical_path_delay()
        rng = np.random.default_rng(3)
        previous = _lane_inputs(_MAC.netlist, rng, 120)
        current = _lane_inputs(_MAC.netlist, rng, 120)
        for engine in TIMING_ENGINES:
            simulator = engine(_MAC.netlist, fresh_cells, "settle")
            evaluation = simulator.propagate_batch(previous, current)
            assert (evaluation.worst_arrival_ps <= critical + 1e-9).all()

    def test_event_model_rejected(self, fresh_cells):
        for engine in TIMING_ENGINES:
            with pytest.raises(ValueError, match="arrival_model"):
                engine(_MULT5.netlist, fresh_cells, "event")

    def test_lane_count_mismatch_rejected(self, fresh_cells):
        for engine in TIMING_ENGINES:
            simulator = engine(_MULT5.netlist, fresh_cells)
            with pytest.raises(ValueError, match="lanes"):
                simulator.propagate_batch({"a": [1, 2], "b": [3, 4]}, {"a": [1], "b": [3]})

    def test_invalid_clock_period_rejected(self, fresh_cells):
        for engine in TIMING_ENGINES:
            simulator = engine(_MULT5.netlist, fresh_cells)
            evaluation = simulator.propagate_batch({"a": [0], "b": [0]}, {"a": [3], "b": [3]})
            with pytest.raises(ValueError):
                evaluation.captured_outputs(0.0)


# --------------------------------------------------- error-model equivalence
class TestErrorModelEngines:
    @pytest.mark.parametrize("model", BATCH_ARRIVAL_MODELS)
    def test_batch_and_scalar_statistics_are_identical(self, model):
        unit = build_multiplier(6, "array")
        library = _LIBRARIES.library(50.0)
        period = StaticTimingAnalyzer(unit, _LIBRARIES.fresh).critical_path_delay()
        kwargs = dict(
            num_samples=150,
            rng=0,
            effective_output_width=12,
            arrival_model=model,
        )
        scalar = characterize_timing_errors(
            unit, library, period, backend="scalar", **kwargs
        )
        # A batch size smaller than the sample count exercises chunking.
        batch = characterize_timing_errors(
            unit, library, period, backend="ndarray", batch_size=64, **kwargs
        )
        assert scalar == batch
        assert batch.error_rate > 0.0

    def test_auto_engine_picks_batch_for_levelized_models(self):
        unit = build_multiplier(4, "array")
        period = StaticTimingAnalyzer(unit, _LIBRARIES.fresh).critical_path_delay()
        stats = characterize_timing_errors(
            unit,
            _LIBRARIES.fresh,
            period,
            num_samples=16,
            rng=0,
            arrival_model="settle",
        )
        assert stats.error_rate == 0.0  # fresh circuit at the fresh period

    def test_engine_validation(self):
        unit = build_multiplier(4, "array")
        library = _LIBRARIES.fresh
        with pytest.raises(ValueError, match="engine"):
            characterize_timing_errors(unit, library, 100.0, num_samples=4, backend="gpu")
        with pytest.raises(ValueError, match="arrival_model"):
            characterize_timing_errors(
                unit, library, 100.0, num_samples=4, arrival_model="exact"
            )
        with pytest.raises(ValueError, match="batched engine"):
            characterize_timing_errors(
                unit, library, 100.0, num_samples=4, arrival_model="event", backend="ndarray"
            )
        with pytest.raises(ValueError, match="batch_size"):
            characterize_timing_errors(
                unit,
                library,
                100.0,
                num_samples=4,
                arrival_model="settle",
                batch_size=0,
            )
