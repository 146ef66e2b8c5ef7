"""Tests of the pluggable simulation-backend architecture.

Three invariants are enforced:

* **registry** — the three built-in engines resolve by name (one name
  each, plus the retired ``bigint`` name for the ndarray engine), validation
  lives in one place, and ``"auto"`` selects by arrival model (and, for
  ``"event"``, batch width);
* **equivalence** — the scalar and ndarray backends produce bit-identical
  captured outputs, violation masks and Monte-Carlo error counters across
  random netlists, lane counts and clock periods (property-based);
* **orchestration** — the backend choice survives pickling into sweep
  worker processes, and the corner-batched STA pass reproduces the scalar
  per-corner delays bit-identically.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.observability as observability
from repro.aging.cell_library import AgingAwareLibrarySet
from repro.circuits.backends import (
    EVENT_BACKEND_MIN_LANES,
    LaneBackend,
    LaneTimingSimulator,
    LevelizedGraph,
    SimulationBackend,
    backend_names,
    corner_case_delays,
    get_backend,
    levelized_graph,
    resolve_backend,
)
from repro.circuits.mac import build_mac, build_multiplier
from repro.circuits.simulator import ARRIVAL_MODELS, BATCH_ARRIVAL_MODELS, TimingSimulator
from repro.timing.error_model import characterize_timing_errors, sweep_timing_errors
from repro.timing.sta import StaticTimingAnalyzer
from repro.utils.bitops import UINT64_MASK, lane_array_to_bits

from tests.test_batch_simulator import random_netlists

_MULT5 = build_multiplier(5, "array")
_MAC = build_mac(multiplier_width=5, accumulator_width=12)
_LIBRARIES = AgingAwareLibrarySet.generate((0.0, 20.0, 50.0))

ALL_BACKENDS = ("scalar", "ndarray")
BATCHED_BACKENDS = ("ndarray",)


def _lane_inputs(netlist, rng, lanes):
    return {
        bus: [int(rng.integers(0, 1 << len(nets))) for _ in range(lanes)]
        for bus, nets in netlist.input_buses.items()
    }


def _lane_slice(batch, lane):
    return {bus: values[lane] for bus, values in batch.items()}


# ---------------------------------------------------------------- registry
class TestRegistry:
    def test_builtin_backends_registered(self):
        assert backend_names() == ("auto", "bigint", "event", "ndarray", "scalar")
        for name in ALL_BACKENDS + ("event",):
            backend = get_backend(name)
            assert isinstance(backend, SimulationBackend)
            assert backend.name == name

    def test_aliases(self):
        with pytest.raises(ValueError, match="registered backends: .*'ndarray'"):
            get_backend("batch")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="engine"):
            get_backend("gpu")

    def test_auto_selects_scalar_for_narrow_event_batches(self):
        backend, _ = resolve_backend("auto", "event", EVENT_BACKEND_MIN_LANES - 1)
        assert backend.name == "scalar"

    def test_auto_selects_wheel_for_wide_event_batches(self):
        for batch_size in (EVENT_BACKEND_MIN_LANES, 10_000):
            backend, _ = resolve_backend("auto", "event", batch_size)
            assert backend.name == "event"

    def test_auto_selects_ndarray_at_every_width(self):
        # The lane engine is the only levelized engine; the retired bigint
        # name is reachable only when asked for.
        for model in BATCH_ARRIVAL_MODELS:
            for batch_size in (1, 31, 32, 8192, None):
                backend, resolved = resolve_backend("auto", model, batch_size)
                assert backend.name == "ndarray", (model, batch_size)
        assert resolved == 256

    def test_bigint_name_is_a_separate_lane_backend(self):
        bigint = get_backend("bigint")
        assert isinstance(bigint, LaneBackend)
        assert bigint is not get_backend("ndarray")
        assert bigint.name == "bigint"
        assert bigint.arrival_models == ("settle", "transition")
        assert not bigint.supports("event")
        with pytest.raises(ValueError, match="batched engine"):
            resolve_backend("bigint", "event", 64)

    @pytest.mark.parametrize("model", BATCH_ARRIVAL_MODELS)
    def test_bigint_name_statistics_equal_ndarray(self, model):
        unit = build_multiplier(6, "array")
        period = StaticTimingAnalyzer(unit, _LIBRARIES.fresh).critical_path_delay()
        results = [
            characterize_timing_errors(
                unit, _LIBRARIES.library(50.0), period, num_samples=150, rng=0,
                effective_output_width=12, arrival_model=model, backend=name,
                batch_size=64,
            )
            for name in ("bigint", "ndarray")
        ]
        assert results[0] == results[1]
        assert results[0].error_rate > 0.0

    def test_auto_never_returns_the_bigint_name(self):
        bigint = get_backend("bigint")
        for model in ARRIVAL_MODELS:
            for batch_size in (1, 31, 8192):
                backend, _ = resolve_backend("auto", model, batch_size)
                assert backend is not bigint, (model, batch_size)

    def test_batched_backends_reject_event_model(self):
        for name in BATCHED_BACKENDS:
            with pytest.raises(ValueError, match="batched engine"):
                resolve_backend(name, "event", 64)

    def test_invalid_arrival_model_and_batch_size(self):
        with pytest.raises(ValueError, match="arrival_model"):
            resolve_backend("auto", "exact", 64)
        with pytest.raises(ValueError, match="batch_size"):
            resolve_backend("auto", "settle", 0)

    def test_backends_pickle_by_identity(self):
        for name in ALL_BACKENDS:
            backend = get_backend(name)
            clone = pickle.loads(pickle.dumps(backend))
            assert clone.name == backend.name


# ------------------------------------------------------- simulator identity
class TestLaneSimulatorEquivalence:
    """The ndarray lane simulator against the scalar reference."""

    @pytest.mark.parametrize("model", BATCH_ARRIVAL_MODELS)
    @pytest.mark.parametrize("level", [0.0, 50.0])
    def test_matches_scalar_on_mac(self, model, level):
        rng = np.random.default_rng(11)
        library = _LIBRARIES.library(level)
        lanes = 130  # two full words + a partial tail word
        previous = _lane_inputs(_MAC.netlist, rng, lanes)
        current = _lane_inputs(_MAC.netlist, rng, lanes)
        lane_eval = LaneTimingSimulator(_MAC.netlist, library, model).propagate_batch(
            previous, current
        )
        scalar_sim = TimingSimulator(_MAC.netlist, library, arrival_model=model)
        references = [
            scalar_sim.propagate(_lane_slice(previous, lane), _lane_slice(current, lane))
            for lane in range(lanes)
        ]
        assert lane_eval.lanes == lanes
        clock = float(np.quantile(lane_eval.worst_arrival_ps, 0.5)) or 10.0
        finals = lane_eval.final_outputs()
        previous_outputs = lane_eval.previous_outputs()
        captured = lane_eval.captured_outputs(clock)
        violations = lane_eval.has_timing_violation(clock)
        for lane, reference in enumerate(references):
            assert lane_eval.worst_arrival_ps[lane] == reference.worst_arrival_ps
            assert _lane_slice(finals, lane) == reference.final_outputs
            assert _lane_slice(previous_outputs, lane) == reference.previous_outputs
            assert _lane_slice(captured, lane) == reference.captured_outputs(clock)
            assert bool(violations[lane]) == reference.has_timing_violation(clock)
            for bus, arrivals in lane_eval.output_arrivals_ps.items():
                assert arrivals[:, lane].tolist() == reference.output_arrivals_ps[bus]

    @given(
        netlist=random_netlists(),
        seed=st.integers(0, 2**32 - 1),
        lanes=st.integers(1, 90),
        model=st.sampled_from(BATCH_ARRIVAL_MODELS),
        level=st.sampled_from([0.0, 20.0, 50.0]),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_scalar_on_random_netlists(self, netlist, seed, lanes, model, level):
        rng = np.random.default_rng(seed)
        library = _LIBRARIES.library(level)
        previous = _lane_inputs(netlist, rng, lanes)
        current = _lane_inputs(netlist, rng, lanes)
        evaluation = LaneTimingSimulator(netlist, library, model).propagate_batch(
            previous, current
        )
        scalar_sim = TimingSimulator(netlist, library, arrival_model=model)
        finals = evaluation.final_outputs()
        clock = max(float(evaluation.worst_arrival_ps.max()) / 2, 1e-3)
        captured = evaluation.captured_outputs(clock)
        violations = evaluation.has_timing_violation(clock)
        for lane in range(lanes):
            reference = scalar_sim.propagate(
                _lane_slice(previous, lane), _lane_slice(current, lane)
            )
            assert _lane_slice(finals, lane) == reference.final_outputs
            assert _lane_slice(captured, lane) == reference.captured_outputs(clock)
            assert evaluation.worst_arrival_ps[lane] == reference.worst_arrival_ps
            assert bool(violations[lane]) == reference.has_timing_violation(clock)

    def test_event_model_rejected(self):
        with pytest.raises(ValueError, match="arrival_model"):
            LaneTimingSimulator(_MULT5.netlist, _LIBRARIES.fresh, "event")

    def test_lane_count_mismatch_rejected(self):
        simulator = LaneTimingSimulator(_MULT5.netlist, _LIBRARIES.fresh)
        with pytest.raises(ValueError, match="lanes"):
            simulator.propagate_batch({"a": [1, 2], "b": [3, 4]}, {"a": [1], "b": [3]})

    def test_input_validation_messages(self):
        simulator = LaneTimingSimulator(_MULT5.netlist, _LIBRARIES.fresh)
        with pytest.raises(KeyError, match="missing values for input bus 'b'"):
            simulator.propagate_batch({"a": [1]}, {"a": [1]})
        with pytest.raises(ValueError, match="batched evaluation needs at least one lane"):
            simulator.propagate_batch({"a": [], "b": []}, {"a": [], "b": []})
        with pytest.raises(ValueError, match="value 32 does not fit in 5-bit bus 'a'"):
            simulator.propagate_batch({"a": [32], "b": [0]}, {"a": [0], "b": [0]})

    def test_levelized_graph_is_cached_per_netlist(self):
        assert levelized_graph(_MULT5.netlist) is levelized_graph(_MULT5.netlist)

    def test_levelized_graph_cache_releases_dead_netlists(self):
        import gc
        import weakref

        from repro.circuits.mac import build_multiplier

        netlist = build_multiplier(3, "array").netlist
        levelized_graph(netlist)
        tracker = weakref.ref(netlist)
        del netlist
        gc.collect()
        assert tracker() is None  # the graph cache must not pin the netlist

    def test_wide_output_bus_counters_are_exact(self):
        # Output buses past 62 bits exceed int64 bit weights; the lane
        # backend must fall back to exact Python-int accumulation.
        from repro.circuits.mac import ArithmeticUnit
        from repro.circuits.netlist import Netlist

        netlist = Netlist("wide")
        ins = netlist.add_input_bus("in", 8)
        outs = []
        for i in range(70):
            outs.append(netlist.add_gate("BUF", [ins[i % 8]]))
        netlist.add_output_bus("out", outs)
        unit = ArithmeticUnit(
            netlist=netlist, input_widths={"in": 8}, output_widths={"out": 70}
        )
        library = _LIBRARIES.library(50.0)
        period = StaticTimingAnalyzer(netlist, library).critical_path_delay() / 2
        results = [
            characterize_timing_errors(
                unit, library, period, num_samples=30, rng=3,
                arrival_model="settle", backend=name, batch_size=8, msb_count=1,
            )
            for name in ALL_BACKENDS
        ]
        assert results[0] == results[1]
        assert results[0].error_rate > 0.0


# ------------------------------------------------------ lane kernel oracle
def _reference_lane_arrivals(simulator, previous, current):
    """Per-net arrivals of the lane kernel's two-branch form, as an oracle.

    Two functional passes; per level, the activity mask with an "every live
    lane active" fast path that skips the mask; "settle" on join-segment
    maxima, "transition" masking each input pin by its own value change.
    Returns ``(prev_values, curr_values, arrivals, lanes)``.
    """
    graph = simulator.graph
    prev_values, lanes = graph.pack_inputs(previous)
    graph.evaluate(prev_values)
    curr_values, _ = graph.pack_inputs(current)
    graph.evaluate(curr_values)
    settle = simulator.arrival_model == "settle"
    live = np.zeros(curr_values.shape[1], dtype=np.uint64)
    full, tail = divmod(lanes, 64)
    live[:full] = UINT64_MASK
    if tail:
        live[full] = np.uint64((1 << tail) - 1)
    perturbed = np.zeros_like(curr_values)
    for rows in graph.input_bus_rows.values():
        perturbed[rows] = curr_values[rows] ^ prev_values[rows]
    arrivals = np.zeros((graph.num_nets, lanes))
    for level, delays in zip(graph.levels, simulator._level_delays):
        in_rows = level.padded_input_rows
        out_slice = level.output_slice
        pert = perturbed[out_slice]
        pert[...] = np.bitwise_or.reduce(perturbed[in_rows], axis=0)
        pert[level.structural_outputs] = 0
        if settle:
            active = pert
        else:
            active = pert & (curr_values[out_slice] ^ prev_values[out_slice])
        if np.array_equal(active, np.broadcast_to(live, active.shape)):
            active = None

        out = arrivals[out_slice]
        if settle:
            for dst_start, dst_stop, src0, src1 in level.join_segments:
                size = dst_stop - dst_start
                np.maximum(
                    arrivals[src0 : src0 + size],
                    arrivals[src1 : src1 + size],
                    out=out[dst_start:dst_stop],
                )
            for rows in in_rows[2:]:
                np.maximum(out, arrivals[rows], out=out)
        else:
            in_changed = lane_array_to_bits(
                curr_values[in_rows] ^ prev_values[in_rows], lanes
            )
            out[...] = arrivals[in_rows[0]] * in_changed[0]
            for pin in range(1, len(in_rows)):
                np.maximum(out, arrivals[in_rows[pin]] * in_changed[pin], out=out)
        out += delays[:, None]
        if active is not None:
            out *= lane_array_to_bits(active, lanes)
    return prev_values, curr_values, arrivals, lanes


def _evaluation_bytes(evaluation):
    return (
        evaluation.lanes,
        evaluation.worst_arrival_ps.tobytes(),
        *(
            (bus, words.tobytes())
            for field in (
                evaluation.final_output_words,
                evaluation.previous_output_words,
                evaluation.output_arrivals_ps,
            )
            for bus, words in sorted(field.items())
        ),
    )


class TestLaneKernelOracle:
    """One functional pass and one phase-2 kernel, byte for byte."""

    @staticmethod
    def _check(netlist, library, model, previous, current):
        simulator = LaneTimingSimulator(netlist, library, model)
        evaluation = simulator.propagate_batch(previous, current)
        prev_values, curr_values, arrivals, lanes = _reference_lane_arrivals(
            simulator, previous, current
        )
        assert simulator._arrivals_buffer.tobytes() == arrivals.tobytes()
        reference = simulator._build_evaluation(prev_values, curr_values, arrivals, lanes)
        assert _evaluation_bytes(evaluation) == _evaluation_bytes(reference)
        if model == "transition":
            # Every gate-output arrival is 0.0 wherever its net's settled
            # value does not change: masking input pins by their own value
            # change is the identity, so transition shares settle's kernel.
            gate_rows = slice(simulator.graph.num_source_rows, None)
            unchanged = ~lane_array_to_bits(
                curr_values[gate_rows] ^ prev_values[gate_rows], lanes
            )
            assert not arrivals[gate_rows][unchanged].any()

    @given(
        netlist=random_netlists(),
        seed=st.integers(0, 2**32 - 1),
        lanes=st.integers(1, 130),
        model=st.sampled_from(BATCH_ARRIVAL_MODELS),
        aging=st.sampled_from(["fresh", "uniform", "variation"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_two_branch_oracle_on_random_netlists(
        self, netlist, seed, lanes, model, aging
    ):
        from repro.aging.scenarios import VariationAging

        rng = np.random.default_rng(seed)
        library = {
            "fresh": _LIBRARIES.fresh,
            "uniform": _LIBRARIES.library(50.0),
            "variation": VariationAging(25.0, 8.0, seed=5, library=_LIBRARIES.fresh),
        }[aging]
        previous = _lane_inputs(netlist, rng, lanes)
        current = _lane_inputs(netlist, rng, lanes)
        self._check(netlist, library, model, previous, current)

    @pytest.mark.parametrize("model", BATCH_ARRIVAL_MODELS)
    @pytest.mark.parametrize("lanes", [1, 63, 64, 65, 130])
    def test_matches_two_branch_oracle_on_mac(self, model, lanes):
        rng = np.random.default_rng(lanes)
        previous = _lane_inputs(_MAC.netlist, rng, lanes)
        current = _lane_inputs(_MAC.netlist, rng, lanes)
        self._check(_MAC.netlist, _LIBRARIES.library(20.0), model, previous, current)

    @pytest.mark.parametrize("model", BATCH_ARRIVAL_MODELS)
    def test_reused_buffers_match_fresh_simulators(self, model):
        # 208 lanes is the tail batch of a 2000-sample sweep at 256 lanes:
        # the lane buffers are keyed only on the lane count, so switching
        # widths and back must not leak state between calls.
        rng = np.random.default_rng(7)
        library = _LIBRARIES.library(50.0)
        reused = LaneTimingSimulator(_MAC.netlist, library, model)
        for lanes in (256, 208, 256):
            previous = _lane_inputs(_MAC.netlist, rng, lanes)
            current = _lane_inputs(_MAC.netlist, rng, lanes)
            fresh = LaneTimingSimulator(_MAC.netlist, library, model)
            assert _evaluation_bytes(
                reused.propagate_batch(previous, current)
            ) == _evaluation_bytes(fresh.propagate_batch(previous, current))


# ---------------------------------------------------- violation-type contract
class TestViolationTypes:
    """has_timing_violation: scalar -> bool, batched -> ndarray[bool]."""

    def test_scalar_returns_plain_bool(self):
        simulator = TimingSimulator(_MULT5.netlist, _LIBRARIES.library(50.0), "settle")
        evaluation = simulator.propagate({"a": 0, "b": 0}, {"a": 31, "b": 31})
        for clock in (1e-6, 1e6):
            result = evaluation.has_timing_violation(clock)
            assert type(result) is bool

    def test_batched_return_boolean_ndarray(self):
        simulator = LaneTimingSimulator(_MULT5.netlist, _LIBRARIES.library(50.0), "settle")
        evaluation = simulator.propagate_batch(
            {"a": [0, 3], "b": [0, 5]}, {"a": [31, 3], "b": [31, 5]}
        )
        for clock in (1e-6, 1e6):
            result = evaluation.has_timing_violation(clock)
            assert isinstance(result, np.ndarray)
            assert result.dtype == np.dtype(bool)
            assert result.shape == (2,)


# ------------------------------------------------------ error-model identity
class TestErrorModelBackendEquivalence:
    @pytest.mark.parametrize("model", BATCH_ARRIVAL_MODELS)
    def test_all_backends_identical_statistics(self, model):
        unit = build_multiplier(6, "array")
        library = _LIBRARIES.library(50.0)
        period = StaticTimingAnalyzer(unit, _LIBRARIES.fresh).critical_path_delay()
        kwargs = dict(
            num_samples=150,
            rng=0,
            effective_output_width=12,
            arrival_model=model,
        )
        results = {
            name: characterize_timing_errors(
                unit, library, period, backend=name, batch_size=64, **kwargs
            )
            for name in ALL_BACKENDS
        }
        assert results["scalar"] == results["ndarray"]
        assert results["scalar"].error_rate > 0.0

    @given(
        netlist=random_netlists(),
        seed=st.integers(0, 2**32 - 1),
        samples=st.integers(1, 40),
        batch_size=st.sampled_from([1, 7, 64, 100]),
        model=st.sampled_from(BATCH_ARRIVAL_MODELS),
        clock_scale=st.floats(0.2, 1.2),
    )
    @settings(max_examples=30, deadline=None)
    def test_property_identical_counters_on_random_netlists(
        self, netlist, seed, samples, batch_size, model, clock_scale
    ):
        from repro.circuits.mac import ArithmeticUnit

        unit = ArithmeticUnit(
            netlist=netlist,
            input_widths={name: len(nets) for name, nets in netlist.input_buses.items()},
            output_widths={name: len(nets) for name, nets in netlist.output_buses.items()},
        )
        library = _LIBRARIES.library(50.0)
        period = max(
            StaticTimingAnalyzer(netlist, library).critical_path_delay() * clock_scale,
            1e-3,
        )
        results = [
            characterize_timing_errors(
                unit,
                library,
                period,
                num_samples=samples,
                rng=seed,
                arrival_model=model,
                backend=name,
                batch_size=batch_size,
                msb_count=1,
            )
            for name in ALL_BACKENDS
        ]
        assert results[0] == results[1]

    def test_sweep_backend_choice_survives_worker_pickling(self):
        unit = build_multiplier(4, "array")
        kwargs = dict(
            levels_mv=(0.0, 50.0),
            num_samples=40,
            rng=7,
            arrival_model="settle",
            samples_per_shard=10,
        )
        serial = {
            name: sweep_timing_errors(unit, _LIBRARIES, backend=name, workers=0, **kwargs)
            for name in ALL_BACKENDS
        }
        assert serial["scalar"] == serial["ndarray"]
        parallel = sweep_timing_errors(
            unit, _LIBRARIES, backend="ndarray", workers=2, **kwargs
        )
        assert parallel == serial["ndarray"]

    @pytest.mark.parametrize("model", BATCH_ARRIVAL_MODELS + ("event",))
    def test_sweep_shards_run_as_one_batch_each(self, model):
        """1100 samples run as three one-batch shards (500/500/100 lanes),
        with statistics equal across every backend of the model."""
        if model == "event":
            names = ("scalar", "event", "auto")
        else:
            names = ("scalar", "ndarray", "auto")
        kwargs = dict(
            levels_mv=(0.0, 50.0),
            num_samples=1100,
            rng=3,
            effective_output_width=10,
            arrival_model=model,
        )
        results = {}
        for name in names:
            with observability.collecting() as snap:
                results[name] = sweep_timing_errors(_MULT5, _LIBRARIES, backend=name, **kwargs)
            assert snap.metrics.counter("sweep.shards") == 3 * 2
        for name in names[1:]:
            assert results[name] == results["scalar"], name
        assert results["scalar"][0].error_rate == 0.0
        assert results["scalar"][1].error_rate > 0.0

    def test_sweep_batch_widths_follow_the_shard_plan(self, monkeypatch):
        widths = []
        propagate = LaneTimingSimulator.propagate_batch

        def recording(self, previous, current):
            widths.append(len(next(iter(previous.values()))))
            return propagate(self, previous, current)

        monkeypatch.setattr(LaneTimingSimulator, "propagate_batch", recording)
        sweep_timing_errors(
            _MULT5, _LIBRARIES, levels_mv=(0.0, 50.0), num_samples=1100, rng=3,
            arrival_model="transition",
        )
        assert widths == [500, 500, 100] * 2

    def test_regrouping_batches_is_exact_on_the_mac(self):
        """Counters are integer sums, so the batch width never changes the
        statistics — the fact that lets a sweep run each shard as one batch."""
        mac = build_mac()
        # A clock well inside the fresh critical path, so that the full
        # 22-bit accumulator bus carries large error distances.
        period = 0.7 * StaticTimingAnalyzer(mac, _LIBRARIES.fresh).critical_path_delay()
        for model in BATCH_ARRIVAL_MODELS:
            results = [
                characterize_timing_errors(
                    mac, _LIBRARIES.library(50.0), period, num_samples=1100, rng=5,
                    arrival_model=model, backend="ndarray", batch_size=batch_size,
                )
                for batch_size in (7, 256, 500, 1100)
            ]
            assert results[0].error_rate > 0.0
            assert all(result == results[0] for result in results[1:]), model


# ----------------------------------------------------------- corner STA pass
class TestCornerStaPass:
    def test_reproduces_scalar_case_analysis_bit_identically(self):
        from repro.core.compression import enumerate_compressions
        from repro.core.padding import Padding, mac_case_analysis

        mac = build_mac()
        library = _LIBRARIES.library(50.0)
        analyzer = StaticTimingAnalyzer(mac, library)
        cases = [
            mac_case_analysis(
                choice.alpha, choice.beta, choice.padding,
                multiplier_width=8, accumulator_width=22,
            )
            for choice in enumerate_compressions(4, 4, (Padding.MSB, Padding.LSB))
        ]
        batched = analyzer.case_analysis_delays(cases)
        scalar = [analyzer.critical_path_delay(case) for case in cases]
        assert batched == scalar  # bit-identical floats, not approx

    def test_shared_pass_counts_once(self):
        analyzer = StaticTimingAnalyzer(_MAC, _LIBRARIES.fresh)
        before = analyzer.levelized_passes
        analyzer.case_analysis_delays([None, {"a[0]": 0}, {"a[1]": 1}])
        assert analyzer.levelized_passes == before + 1

    def test_corner_pass_direct_api(self):
        netlist = _MULT5.netlist
        library = _LIBRARIES.library(20.0)
        delays = {
            gate: library.delay_ps(gate.cell_name, fanout=gate.output.fanout)
            for gate in netlist.topological_gates()
        }
        cases = [{}, {"a[0]": 0, "a[1]": 0}]
        delays_out = corner_case_delays(netlist, delays, cases)
        assert len(delays_out) == 2
        assert delays_out[0] >= delays_out[1] > 0.0

    @pytest.mark.parametrize("multiplier", ["array", "wallace"])
    @pytest.mark.parametrize("adder", ["ripple", "carry_select"])
    def test_constant_mask_matches_scalar_propagation(self, multiplier, adder):
        from repro.circuits.constants import case_assignments, propagate_constants
        from repro.core.padding import Padding, mac_case_analysis

        netlist = build_mac(multiplier=multiplier, adder=adder).netlist
        cases = [
            mac_case_analysis(alpha, beta, padding)
            for alpha in range(8)
            for beta in range(8)
            for padding in (Padding.MSB, Padding.LSB)
        ]
        assignments = [case_assignments(netlist, case) for case in cases]
        graph = levelized_graph(netlist)
        mask = graph.constant_mask(assignments)
        assert mask.shape == (graph.num_nets, len(cases))
        for column, corner in enumerate(assignments):
            expected = np.zeros(graph.num_nets, dtype=bool)
            for net in propagate_constants(netlist, corner):
                expected[graph.net_row[net]] = True
            assert np.array_equal(mask[:, column], expected), cases[column]

    @pytest.mark.parametrize("multiplier", ["array", "wallace"])
    @pytest.mark.parametrize("adder", ["ripple", "carry_select"])
    def test_every_corner_matches_critical_path_delay(self, multiplier, adder):
        from repro.core.padding import Padding, mac_case_analysis

        analyzer = StaticTimingAnalyzer(
            build_mac(multiplier=multiplier, adder=adder), _LIBRARIES.library(50.0)
        )
        cases = [
            mac_case_analysis(alpha, beta, padding)
            for alpha in range(8)
            for beta in range(8)
            for padding in (Padding.MSB, Padding.LSB)
        ]
        batched = analyzer.case_analysis_delays(cases)
        assert batched == [analyzer.critical_path_delay(case) for case in cases]

    def test_case_validation_at_the_boundary(self):
        delays = {gate: 1.0 for gate in _MAC.netlist.topological_gates()}
        with pytest.raises(ValueError, match="0/1"):
            corner_case_delays(_MAC.netlist, delays, [{}, {"a[0]": 2}])
        with pytest.raises(KeyError, match="missing"):
            corner_case_delays(_MAC.netlist, delays, [{"missing": 0}])
        analyzer = StaticTimingAnalyzer(_MAC, _LIBRARIES.fresh)
        with pytest.raises(KeyError, match="missing"):
            analyzer.case_analysis_delays([{"missing": 0}])
        with pytest.raises(ValueError, match="0/1"):
            analyzer.critical_path_delay({"a[0]": -1})

    def test_constant_pass_is_observable_and_inert(self):
        import repro.observability as observability
        from repro.core.padding import Padding, mac_case_analysis

        analyzer = StaticTimingAnalyzer(_MAC, _LIBRARIES.library(20.0))
        cases = [
            mac_case_analysis(alpha, 1, Padding.LSB, multiplier_width=5, accumulator_width=12)
            for alpha in range(4)
        ]
        plain = analyzer.case_analysis_delays(cases)
        with observability.collecting() as snapshot:
            traced = analyzer.case_analysis_delays(cases)
            scenario_delays = corner_case_delays(
                _MAC.netlist, {gate: 1.0 for gate in _MAC.netlist.gates}, [None] * 3
            )
        assert traced == plain
        assert len(scenario_delays) == 3
        # Four distinct corners, then one shared (broadcast) column.
        assert snapshot.metrics.counter("sta.case_constants.corners") == 5
        assert sum(span.name == "sta.case_constants" for span in snapshot.spans) == 2

    def test_empty_corner_list(self):
        analyzer = StaticTimingAnalyzer(_MAC, _LIBRARIES.fresh)
        assert analyzer.case_analysis_delays([]) == []
        assert corner_case_delays(_MAC.netlist, {}, []) == []


# ------------------------------------------------------- level-ordered layout
class TestLevelOrderedLayout:
    """The level-ordered net numbering against the scalar engine."""

    def test_row_permutation_is_a_bijection(self):
        for netlist in (_MULT5.netlist, _MAC.netlist):
            graph = levelized_graph(netlist)
            assert np.array_equal(
                np.sort(graph.row_permutation), np.arange(graph.num_nets)
            )
            # Sources keep creation order at the front, so bus packing can
            # still write whole input buses as slices.
            assert graph.num_source_rows <= graph.num_nets

    @given(netlist=random_netlists())
    @settings(max_examples=30, deadline=None)
    def test_row_permutation_is_a_bijection_on_random_netlists(self, netlist):
        graph = LevelizedGraph(netlist)
        assert np.array_equal(np.sort(graph.row_permutation), np.arange(graph.num_nets))

    def test_bus_packing_round_trips_through_the_permutation(self):
        from repro.utils.bitops import lane_array_to_bits

        rng = np.random.default_rng(5)
        lanes = 70
        inputs = _lane_inputs(_MAC.netlist, rng, lanes)
        graph = levelized_graph(_MAC.netlist)
        packed, lanes_out = graph.pack_inputs(inputs)
        assert lanes_out == lanes
        # Each input-bus net's row holds that bus bit of every lane.
        for bus, nets in _MAC.netlist.input_buses.items():
            for bit, net in enumerate(nets):
                row_bits = lane_array_to_bits(packed[graph.net_row[net]][None], lanes)
                assert row_bits[0].tolist() == [
                    bool((value >> bit) & 1) for value in inputs[bus]
                ]
        # And each bus unpacks to exactly the ints that were packed.
        for bus, rows in graph.input_bus_rows.items():
            bits = lane_array_to_bits(packed[rows], lanes)
            recovered = [
                int(sum(1 << bit for bit in range(bits.shape[0]) if bits[bit, lane]))
                for lane in range(lanes)
            ]
            assert recovered == list(inputs[bus])

    @pytest.mark.parametrize("model", BATCH_ARRIVAL_MODELS)
    def test_layouts_bit_identical_across_scenario_families(self, model):
        from repro.aging.scenarios import (
            MissionProfile,
            PerCellTypeAging,
            UniformAging,
            VariationAging,
        )

        base = _LIBRARIES.fresh
        scenarios = [
            UniformAging(30.0, library=base),
            MissionProfile(years=5.0, temperature_c=85.0, duty_cycle=0.8, library=base),
            PerCellTypeAging(
                levels_mv={"NAND2": 40.0, "INV": 10.0}, default_mv=20.0, library=base
            ),
            VariationAging(25.0, 6.0, seed=11, library=base),
        ]
        rng = np.random.default_rng(23)
        lanes = 70
        previous = _lane_inputs(_MAC.netlist, rng, lanes)
        current = _lane_inputs(_MAC.netlist, rng, lanes)
        for scenario in scenarios:
            lane = LaneTimingSimulator(_MAC.netlist, scenario, model).propagate_batch(
                previous, current
            )
            clock = float(np.quantile(lane.worst_arrival_ps, 0.5)) or 10.0
            # Every lane against the scalar simulator, per family.
            scalar_sim = TimingSimulator(_MAC.netlist, scenario, arrival_model=model)
            finals = lane.final_outputs()
            captured = lane.captured_outputs(clock)
            for index in range(lanes):
                scalar_eval = scalar_sim.propagate(
                    _lane_slice(previous, index), _lane_slice(current, index)
                )
                assert _lane_slice(finals, index) == scalar_eval.final_outputs
                assert _lane_slice(captured, index) == scalar_eval.captured_outputs(clock)
                assert lane.worst_arrival_ps[index] == scalar_eval.worst_arrival_ps
                for bus, arrivals in lane.output_arrivals_ps.items():
                    assert arrivals[:, index].tolist() == scalar_eval.output_arrivals_ps[bus]

    def test_gather_locality_improves_under_level_layout(self):
        graph = levelized_graph(_MAC.netlist)
        level = graph.gather_locality()
        assert level["contiguous_input_buses"] == 1.0
        # The same gathers with rows numbered in net creation order.
        creation_of_row = np.argsort(graph.row_permutation)
        steps = [
            np.diff(creation_of_row[rows])
            for plan in graph.levels
            for rows in plan.padded_input_rows
        ]
        creation_fraction = sum(int(np.count_nonzero(d == 1)) for d in steps) / sum(
            d.size for d in steps
        )
        assert level["sequential_read_fraction"] > creation_fraction

    def test_max_plus_pass_counter_counts_whole_batches(self):
        graph = levelized_graph(_MAC.netlist)
        library = _LIBRARIES.library(20.0)
        delays = {
            gate: library.delay_ps(gate.cell_name, fanout=gate.output.fanout)
            for gate in _MAC.netlist.topological_gates()
        }
        before = graph.max_plus_passes
        corner_case_delays(_MAC.netlist, delays, [None] * 5)
        assert graph.max_plus_passes == before + 1  # 5 corners, one traversal


# ------------------------------------------------------------ graph memoising
class TestLevelizedGraphCache:
    def test_cache_hit_counter(self):
        from repro.circuits.backends import levelized_graph_cache_stats

        netlist = build_multiplier(3, "array").netlist
        before = levelized_graph_cache_stats()
        first = levelized_graph(netlist)
        warm = levelized_graph_cache_stats()
        assert warm["misses"] == before["misses"] + 1
        again = levelized_graph(netlist)
        after = levelized_graph_cache_stats()
        assert again is first
        assert after["hits"] == warm["hits"] + 1
        assert after["misses"] == warm["misses"]

    def test_simulators_share_the_memoised_graph(self):
        netlist = build_multiplier(3, "array").netlist
        sim_a = LaneTimingSimulator(netlist, _LIBRARIES.fresh, "settle")
        sim_b = LaneTimingSimulator(netlist, _LIBRARIES.fresh, "transition")
        assert sim_a.graph is sim_b.graph
