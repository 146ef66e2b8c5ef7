"""Property-based tests (hypothesis) of the circuit substrate invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.circuits.backends import levelized_graph
from repro.circuits.constants import case_assignments, propagate_constants
from repro.circuits.gates import CELL_FUNCTIONS, CELL_INPUT_COUNTS
from repro.circuits.mac import build_adder, build_mac, build_multiplier
from repro.circuits.netlist import Netlist
from repro.circuits.simulator import (
    BatchLogicSimulator,
    BatchTimingSimulator,
    LogicSimulator,
    TimingSimulator,
)
from repro.core.padding import Padding, mac_case_analysis
from repro.timing.sta import StaticTimingAnalyzer
from repro.aging.cell_library import fresh_library
from repro.utils import bitops

# Shared circuit instances (building them inside @given bodies would dominate runtime).
_ADDER6 = build_adder(6, "ripple")
_ADDER6_SIM = LogicSimulator(_ADDER6.netlist)
_MULT5 = build_multiplier(5, "array")
_MULT5_SIM = LogicSimulator(_MULT5.netlist)
_MULT5_WALLACE = build_multiplier(5, "wallace")
_MULT5_WALLACE_SIM = LogicSimulator(_MULT5_WALLACE.netlist)
_MAC = build_mac(multiplier_width=5, accumulator_width=12)
_MAC_SIM = LogicSimulator(_MAC.netlist)
_FRESH = fresh_library()
_MAC8 = build_mac()
_MAC8_STA = StaticTimingAnalyzer(_MAC8, _FRESH)
_MAC8_FRESH_DELAY = _MAC8_STA.critical_path_delay()


class TestArithmeticProperties:
    @given(a=st.integers(0, 63), b=st.integers(0, 63))
    @settings(max_examples=60, deadline=None)
    def test_adder_matches_python_addition(self, a, b):
        assert _ADDER6_SIM.evaluate({"a": a, "b": b})["out"] == a + b

    @given(a=st.integers(0, 31), b=st.integers(0, 31))
    @settings(max_examples=60, deadline=None)
    def test_multiplier_matches_python_multiplication(self, a, b):
        assert _MULT5_SIM.evaluate({"a": a, "b": b})["out"] == a * b

    @given(a=st.integers(0, 31), b=st.integers(0, 31))
    @settings(max_examples=60, deadline=None)
    def test_array_and_wallace_architectures_agree(self, a, b):
        assert (
            _MULT5_SIM.evaluate({"a": a, "b": b})["out"]
            == _MULT5_WALLACE_SIM.evaluate({"a": a, "b": b})["out"]
        )

    @given(a=st.integers(0, 31), b=st.integers(0, 31), c=st.integers(0, 4095))
    @settings(max_examples=60, deadline=None)
    def test_mac_matches_python_mac(self, a, b, c):
        assert _MAC_SIM.evaluate({"a": a, "b": b, "c": c})["out"] == a * b + c

    @given(a=st.integers(0, 31), b=st.integers(0, 31))
    @settings(max_examples=40, deadline=None)
    def test_multiplication_is_commutative_in_the_circuit(self, a, b):
        assert (
            _MULT5_SIM.evaluate({"a": a, "b": b})["out"]
            == _MULT5_SIM.evaluate({"a": b, "b": a})["out"]
        )


class TestTimingProperties:
    @given(alpha=st.integers(0, 6), beta=st.integers(0, 6), padding=st.sampled_from(list(Padding)))
    @settings(max_examples=25, deadline=None)
    def test_compression_never_increases_delay(self, alpha, beta, padding):
        case = mac_case_analysis(alpha, beta, padding)
        assert _MAC8_STA.critical_path_delay(case) <= _MAC8_FRESH_DELAY + 1e-9

    @given(
        alpha=st.integers(0, 5),
        beta=st.integers(0, 5),
        extra=st.integers(1, 3),
        padding=st.sampled_from(list(Padding)),
    )
    @settings(max_examples=20, deadline=None)
    def test_delay_is_monotone_in_alpha(self, alpha, beta, extra, padding):
        smaller = _MAC8_STA.critical_path_delay(mac_case_analysis(alpha, beta, padding))
        larger = _MAC8_STA.critical_path_delay(mac_case_analysis(min(alpha + extra, 8), beta, padding))
        assert larger <= smaller + 1e-9


@st.composite
def all_cell_netlists(draw):
    """A small random netlist instantiating every cell, with partial case analyses.

    Returns the netlist and a list of corners (net name -> 0/1) that tie
    random primary inputs, constant nets and internal gate outputs.
    """
    netlist = Netlist("all_cells")
    pool = list(netlist.add_input_bus("in", draw(st.integers(2, 5))))
    if draw(st.booleans()):
        pool.append(netlist.constant(0))
    if draw(st.booleans()):
        pool.append(netlist.constant(1))
    cells = draw(st.permutations(sorted(CELL_FUNCTIONS)))
    cells += draw(st.lists(st.sampled_from(sorted(CELL_FUNCTIONS)), max_size=12))
    for cell in cells:
        inputs = [
            pool[draw(st.integers(0, len(pool) - 1))]
            for _ in range(CELL_INPUT_COUNTS[cell])
        ]
        pool.append(netlist.add_gate(cell, inputs))
    netlist.add_output_bus("out", pool[-draw(st.integers(1, 4)) :])
    names = sorted(netlist.nets)
    corners = draw(
        st.lists(
            st.dictionaries(st.sampled_from(names), st.integers(0, 1), max_size=6),
            min_size=1,
            max_size=6,
        )
    )
    return netlist, corners


class TestCaseConstantProperties:
    """The vectorised constant pass against the scalar reference."""

    @given(case=all_cell_netlists())
    @settings(max_examples=60, deadline=None)
    def test_constant_mask_matches_propagate_constants(self, case):
        netlist, corners = case
        assert set(netlist.cell_histogram()) == set(CELL_FUNCTIONS)
        assignments = [case_assignments(netlist, corner) for corner in corners]
        graph = levelized_graph(netlist)
        mask = graph.constant_mask(assignments)
        for column, corner in enumerate(assignments):
            expected = np.zeros(graph.num_nets, dtype=bool)
            for net in propagate_constants(netlist, corner):
                expected[graph.net_row[net]] = True
            assert np.array_equal(mask[:, column], expected)

    @given(case=all_cell_netlists())
    @settings(max_examples=30, deadline=None)
    def test_case_analysis_delays_match_critical_path_delay(self, case):
        netlist, corners = case
        analyzer = StaticTimingAnalyzer(netlist, _FRESH)
        batched = analyzer.case_analysis_delays(corners)
        assert batched == [analyzer.critical_path_delay(corner) for corner in corners]


class TestBatchEquivalenceProperties:
    """The bit-parallel engine must match the scalar engines lane by lane."""

    @given(
        lanes=st.lists(
            st.tuples(st.integers(0, 31), st.integers(0, 31)), min_size=1, max_size=80
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_batch_logic_matches_scalar_multiplier(self, lanes):
        batch = BatchLogicSimulator(_MULT5.netlist).evaluate_batch(
            {"a": [a for a, _ in lanes], "b": [b for _, b in lanes]}
        )
        for lane, (a, b) in enumerate(lanes):
            assert batch["out"][lane] == _MULT5_SIM.evaluate({"a": a, "b": b})["out"]
            assert batch["out"][lane] == a * b

    @given(
        pairs=st.lists(
            st.tuples(
                st.integers(0, 31), st.integers(0, 31),
                st.integers(0, 31), st.integers(0, 31),
            ),
            min_size=1,
            max_size=40,
        ),
        model=st.sampled_from(["settle", "transition"]),
        clock_fraction=st.floats(0.05, 1.2),
    )
    @settings(max_examples=20, deadline=None)
    def test_batch_timing_matches_scalar_lane_by_lane(self, pairs, model, clock_fraction):
        previous = {"a": [p[0] for p in pairs], "b": [p[1] for p in pairs]}
        current = {"a": [p[2] for p in pairs], "b": [p[3] for p in pairs]}
        batch_sim = BatchTimingSimulator(_MULT5.netlist, _FRESH, model)
        scalar_sim = TimingSimulator(_MULT5.netlist, _FRESH, arrival_model=model)
        evaluation = batch_sim.propagate_batch(previous, current)
        clock = max(clock_fraction * float(evaluation.worst_arrival_ps.max()), 1e-3)
        finals = evaluation.final_outputs()
        captured = evaluation.captured_outputs(clock)
        for lane, (pa, pb, ca, cb) in enumerate(pairs):
            reference = scalar_sim.propagate({"a": pa, "b": pb}, {"a": ca, "b": cb})
            assert finals["out"][lane] == reference.final_outputs["out"] == ca * cb
            assert captured["out"][lane] == reference.captured_outputs(clock)["out"]
            assert abs(
                evaluation.worst_arrival_ps[lane] - reference.worst_arrival_ps
            ) < 1e-9


class TestBitopsProperties:
    @given(value=st.integers(0, 2**16 - 1))
    @settings(max_examples=80, deadline=None)
    def test_bits_round_trip(self, value):
        assert bitops.bits_to_int(bitops.int_to_bits(value, 16)) == value

    @given(value=st.integers(0, 2**16 - 1), bit=st.integers(0, 15))
    @settings(max_examples=80, deadline=None)
    def test_double_flip_is_identity(self, value, bit):
        assert bitops.bit_flip(bitops.bit_flip(value, bit), bit) == value

    @given(value=st.integers(-(2**7), 2**7 - 1))
    @settings(max_examples=60, deadline=None)
    def test_twos_complement_round_trip(self, value):
        assert bitops.sign_extend(bitops.to_twos_complement(value, 8), 8) == value

    @given(a=st.integers(0, 2**12 - 1), b=st.integers(0, 2**12 - 1))
    @settings(max_examples=60, deadline=None)
    def test_hamming_distance_symmetry_and_bounds(self, a, b):
        distance = bitops.hamming_distance(a, b)
        assert distance == bitops.hamming_distance(b, a)
        assert 0 <= distance <= 12
        assert (distance == 0) == (a == b)
