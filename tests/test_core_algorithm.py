"""Tests of Algorithm 1, the guardband analysis and the lifetime pipeline.

These tests exercise the full device-to-system flow on the paper's MAC but
with a reduced compression search space and the tiny model/dataset, so they
stay fast while covering every decision the algorithm makes.
"""

import pytest

import repro.core.algorithm as algorithm_module
import repro.core.pipeline as pipeline_module
from repro.aging.bti import AgingTimeline
from repro.core.algorithm import AgingAwareQuantizer
from repro.core.compression import CompressionChoice
from repro.core.guardband import analyze_guardband
from repro.core.pipeline import DeviceToSystemPipeline
from repro.core.timing_analysis import CompressionTimingAnalyzer
from repro.nn.quantized import record_calibration
from repro.quantization.registry import available_methods


@pytest.fixture(scope="module")
def timing_analyzer(paper_mac, library_set):
    return CompressionTimingAnalyzer(paper_mac, library_set)


@pytest.fixture(scope="module")
def quantizer(paper_mac, library_set):
    return AgingAwareQuantizer(
        mac=paper_mac,
        library_set=library_set,
        methods=available_methods(["M2", "M4"]),
        max_alpha=4,
        max_beta=4,
    )


class TestCompressionTimingAnalyzer:
    def test_fresh_period_is_uncompressed_delay(self, timing_analyzer):
        assert timing_analyzer.fresh_period_ps() == pytest.approx(
            timing_analyzer.delay_ps(0.0, None)
        )

    def test_compression_reduces_delay_at_every_level(self, timing_analyzer):
        for level in (0.0, 30.0, 50.0):
            uncompressed = timing_analyzer.delay_ps(level, None)
            compressed = timing_analyzer.delay_ps(level, CompressionChoice(4, 4))
            assert compressed < uncompressed

    def test_feasible_set_shrinks_with_aging(self, timing_analyzer):
        mild = timing_analyzer.feasible_compressions(10.0, max_alpha=3, max_beta=3)
        severe = timing_analyzer.feasible_compressions(50.0, max_alpha=3, max_beta=3)
        assert len(severe) <= len(mild)
        assert all(entry.meets_timing for entry in mild + severe)

    def test_uncompressed_feasible_only_when_fresh(self, timing_analyzer):
        fresh = timing_analyzer.feasible_compressions(0.0, max_alpha=1, max_beta=1)
        aged = timing_analyzer.feasible_compressions(50.0, max_alpha=4, max_beta=4)
        assert any(entry.choice.is_uncompressed for entry in fresh)
        assert not any(entry.choice.is_uncompressed for entry in aged)

    def test_timing_record_fields(self, timing_analyzer):
        record = timing_analyzer.timing(20.0, CompressionChoice(2, 2))
        assert record.delta_vth_mv == 20.0
        assert record.normalized_delay == pytest.approx(record.delay_ps / record.target_period_ps)
        assert record.meets_timing == (record.slack_ps >= 0)


class TestAlgorithmSelection:
    def test_selected_compression_meets_fresh_clock(self, quantizer):
        for level in (10.0, 30.0, 50.0):
            timing = quantizer.select_compression(level)
            assert timing.meets_timing
            assert timing.normalized_delay <= 1.0 + 1e-9

    def test_compression_severity_grows_with_aging(self, quantizer):
        mild = quantizer.select_compression(10.0).choice
        severe = quantizer.select_compression(50.0).choice
        assert severe.surrogate >= mild.surrogate

    def test_fresh_level_needs_no_compression(self, quantizer):
        assert quantizer.select_compression(0.0).choice.is_uncompressed

    def test_method_search_returns_best(self, quantizer, tiny_model, tiny_recording, tiny_dataset):
        compression = CompressionChoice(2, 2)
        selected, evaluation, per_method, satisfied = quantizer.quantize_model(
            tiny_model, compression, tiny_recording, tiny_dataset.x_test, tiny_dataset.y_test
        )
        assert selected in per_method
        assert satisfied is True
        assert evaluation.accuracy_loss_percent == min(
            entry.accuracy_loss_percent for entry in per_method.values()
        )

    def test_threshold_short_circuits_search(self, quantizer, tiny_model, tiny_recording, tiny_dataset):
        compression = CompressionChoice(0, 0)
        selected, _, per_method, satisfied = quantizer.quantize_model(
            tiny_model,
            compression,
            tiny_recording,
            tiny_dataset.x_test,
            tiny_dataset.y_test,
            accuracy_loss_threshold_percent=100.0,
        )
        assert satisfied is True
        assert len(per_method) == 1  # first method already met the generous threshold
        assert selected == list(per_method)[0]

    def test_run_produces_complete_result(self, quantizer, tiny_model, tiny_calibration, tiny_dataset):
        result = quantizer.run(
            tiny_model, 30.0, tiny_calibration, tiny_dataset.x_test, tiny_dataset.y_test
        )
        assert result.delta_vth_mv == 30.0
        assert result.compression == result.timing.choice
        assert result.selected_method in result.per_method
        assert result.accuracy_loss_percent == result.evaluation.accuracy_loss_percent

    def test_shared_calibration_matches_per_method_calibration(
        self, paper_mac, library_set, tiny_model, tiny_calibration, tiny_dataset
    ):
        import pickle

        import numpy as np

        from repro.nn.evaluate import quantize_and_evaluate
        from repro.nn.quantized import QuantizedModel

        methods = available_methods(["M1", "M2", "M3", "M4", "M5"])
        quantizer = AgingAwareQuantizer(
            mac=paper_mac, library_set=library_set, methods=methods
        )
        compression = CompressionChoice(2, 1)
        bits = (compression.activation_bits(8), compression.weight_bits(8))
        bias_bits = compression.bias_bits(8)
        x_test, y_test = tiny_dataset.x_test, tiny_dataset.y_test
        shared = record_calibration(tiny_model, tiny_calibration)
        observed = {name: samples.copy() for name, samples in shared.observations.items()}
        _, _, per_method, _ = quantizer.quantize_model(
            tiny_model, compression, shared, x_test, y_test
        )
        assert list(per_method) == [method.key for method in methods]
        for method in methods:
            fresh = record_calibration(tiny_model, tiny_calibration)
            assert per_method[method.key] == quantize_and_evaluate(
                tiny_model, method, *bits, fresh, x_test, y_test, bias_bits=bias_bits
            )
            # Accuracy is coarse; the layer parameters pin the recording bit for bit.
            from_shared, from_fresh = (
                pickle.dumps(
                    QuantizedModel.build(tiny_model, method, *bits, recording, bias_bits)
                    .context.layer_params
                )
                for recording in (shared, fresh)
            )
            assert from_shared == from_fresh
        # Building never modifies the observations it reads.
        assert list(shared.observations) == list(observed)
        for name, samples in observed.items():
            assert np.array_equal(shared.observations[name], samples)

    @pytest.fixture
    def recordings(self, monkeypatch):
        """The models ``record_calibration`` is called on, in call order."""
        calls = []

        def counting_record_calibration(model, calibration_data):
            calls.append(model)
            return record_calibration(model, calibration_data)

        monkeypatch.setattr(algorithm_module, "record_calibration", counting_record_calibration)
        return calls

    def test_run_records_once_across_levels(
        self, paper_mac, library_set, tiny_model, tiny_calibration, tiny_dataset, recordings
    ):
        quantizer = AgingAwareQuantizer(
            mac=paper_mac,
            library_set=library_set,
            methods=available_methods(["M3", "M4", "M5"]),
            max_alpha=4,
            max_beta=4,
        )
        x_test, y_test = tiny_dataset.x_test, tiny_dataset.y_test
        results = [
            quantizer.run(tiny_model, level, tiny_calibration, x_test, y_test)
            for level in (0.0, 30.0, 50.0, 30.0)
        ]
        assert len(recordings) == 1
        # Each level's result equals a search from a fresh recording.
        for result in results:
            fresh = record_calibration(tiny_model, tiny_calibration)
            selected, evaluation, per_method, satisfied = quantizer.quantize_model(
                tiny_model, result.compression, fresh, x_test, y_test
            )
            assert (selected, evaluation, per_method, satisfied) == (
                result.selected_method,
                result.evaluation,
                result.per_method,
                result.threshold_satisfied,
            )

    def test_run_records_again_when_model_or_data_change(
        self, paper_mac, library_set, tiny_model, tiny_calibration, tiny_dataset, recordings
    ):
        import copy

        quantizer = AgingAwareQuantizer(
            mac=paper_mac,
            library_set=library_set,
            methods=available_methods(["M2", "M4"]),
            max_alpha=4,
            max_beta=4,
        )
        model = copy.deepcopy(tiny_model)
        x_test, y_test = tiny_dataset.x_test, tiny_dataset.y_test

        def run(calibration_data=tiny_calibration):
            return quantizer.run(model, 50.0, calibration_data, x_test, y_test)

        run()
        run(tiny_calibration.copy())  # equal content, another array: kept
        assert len(recordings) == 1
        run(tiny_calibration[:-1])
        run(tiny_calibration[::-1].copy())
        run()
        assert len(recordings) == 4

        # An in-place weight edit records afresh, and nothing calibrated on
        # the old weights leaks into the new result.
        weight = model.layers[0].weight.value
        weight *= 0.5
        edited = run()
        assert len(recordings) == 5
        fresh = record_calibration(model, tiny_calibration)
        _, _, per_method, _ = quantizer.quantize_model(
            model, edited.compression, fresh, x_test, y_test
        )
        assert per_method == edited.per_method

        # Another model object records, even with equal weights.
        quantizer.run(copy.deepcopy(model), 50.0, tiny_calibration, x_test, y_test)
        assert len(recordings) == 6

    def test_new_quantizer_starts_cold(
        self, paper_mac, library_set, tiny_model, tiny_calibration, tiny_dataset, recordings
    ):
        for _ in range(2):
            quantizer = AgingAwareQuantizer(
                mac=paper_mac, library_set=library_set, methods=available_methods(["M2"]),
                max_alpha=2, max_beta=2,
            )
            quantizer.run(tiny_model, 0.0, tiny_calibration, tiny_dataset.x_test, tiny_dataset.y_test)
        assert len(recordings) == 2

    def test_empty_method_library_rejected(self, paper_mac, library_set):
        with pytest.raises(ValueError):
            AgingAwareQuantizer(mac=paper_mac, library_set=library_set, methods=[])


class TestGuardband:
    def test_guardband_matches_delay_model(self, paper_mac, library_set):
        analysis = analyze_guardband(paper_mac, library_set)
        expected = library_set.library(50.0).delay_degradation_factor - 1.0
        assert analysis.guardband_fraction == pytest.approx(expected, rel=1e-9)
        assert analysis.performance_gain_percent == pytest.approx(expected * 100.0)

    def test_trajectories(self, timing_analyzer):
        from repro.core.padding import Padding

        fresh = timing_analyzer.fresh_period_ps()
        baseline = {
            level: timing_analyzer.delay_ps(level, None) / fresh for level in (0.0, 30.0, 50.0)
        }
        assert baseline[0.0] == pytest.approx(1.0)
        assert baseline[50.0] > 1.2

        choice = CompressionChoice(4, 4, Padding.LSB)
        ours = {
            level: timing_analyzer.timing(level, choice).normalized_delay for level in (30.0, 50.0)
        }
        for level, normalized in ours.items():
            assert normalized < baseline[level]
        assert ours[50.0] <= 1.0 + 1e-9


class TestPipeline:
    @pytest.fixture(scope="class")
    def pipeline(self, paper_mac, library_set):
        return DeviceToSystemPipeline(
            mac=paper_mac,
            library_set=library_set,
            timeline=AgingTimeline(levels_mv=(0.0, 20.0, 50.0)),
            methods=available_methods(["M2", "M4"]),
            max_alpha=4,
            max_beta=4,
        )

    def test_plan_covers_every_level(self, pipeline):
        plans = pipeline.plan()
        assert [plan.delta_vth_mv for plan in plans] == [0.0, 20.0, 50.0]
        for plan in plans:
            assert plan.normalized_compensated_delay <= 1.0 + 1e-9
            assert plan.normalized_baseline_delay >= 1.0

    def test_plan_is_cached(self, pipeline):
        assert pipeline.plan_level(20.0) is pipeline.plan_level(20.0)

    def test_evaluate_network_over_lifetime(self, pipeline, tiny_model, tiny_calibration, tiny_dataset):
        results = pipeline.evaluate_network(
            tiny_model, tiny_calibration, tiny_dataset.x_test, tiny_dataset.y_test
        )
        assert [result.delta_vth_mv for result in results] == [20.0, 50.0]
        for result in results:
            assert result.timing.meets_timing
            assert result.selected_method in ("M2", "M4")

    def test_evaluate_network_records_calibration_once(
        self, pipeline, tiny_model, tiny_calibration, tiny_dataset, monkeypatch
    ):
        x_test, y_test = tiny_dataset.x_test, tiny_dataset.y_test
        calls = []

        def counting_record_calibration(*args, **kwargs):
            calls.append(args)
            return record_calibration(*args, **kwargs)

        for module in (algorithm_module, pipeline_module):
            monkeypatch.setattr(module, "record_calibration", counting_record_calibration)
        results = pipeline.evaluate_network(tiny_model, tiny_calibration, x_test, y_test)
        assert len(results) == 2 and len(calls) == 1
        # The shared recording reproduces a per-level calibration exactly.
        for result in results:
            fresh = record_calibration(tiny_model, tiny_calibration)
            selected, _, per_method, _ = pipeline.quantizer.quantize_model(
                tiny_model, result.timing.choice, fresh, x_test, y_test
            )
            assert selected == result.selected_method
            assert {key: e.quantized_accuracy for key, e in per_method.items()} == {
                key: e.quantized_accuracy for key, e in result.per_method.items()
            }

    def test_energy_study_shows_savings_when_aged(self, pipeline):
        study = pipeline.energy_study(num_transitions=120, rng=0)
        by_level = {entry.delta_vth_mv: entry for entry in study}
        # Fresh silicon sees no compression and the baseline shares its
        # random stream (common random numbers), so the fresh ratio is
        # noise-free: exactly the leakage gap between the two periods.
        assert by_level[0.0].normalized_energy == pytest.approx(1.0, abs=0.1)
        assert by_level[50.0].normalized_energy < by_level[0.0].normalized_energy
