"""Micro-benchmarks of the individual substrates.

These do not map to a paper figure; they track the throughput of the
building blocks the experiment harness leans on (STA, event-driven timed
simulation, quantized integer inference), which is useful when tuning the
reproduction or porting it to larger circuits/models.
"""

import numpy as np
import pytest

from repro.circuits.mac import build_mac
from repro.circuits.simulator import TimingSimulator
from repro.core.padding import Padding, mac_case_analysis
from repro.nn.quantized import QuantizedModel, record_calibration
from repro.quantization.registry import get_method
from repro.timing.sta import StaticTimingAnalyzer


@pytest.fixture(scope="module")
def mac_unit():
    return build_mac()


def test_bench_sta_uncompressed(benchmark, bench_workspace, mac_unit):
    analyzer = StaticTimingAnalyzer(mac_unit, bench_workspace.library_set.fresh)
    delay = benchmark(analyzer.critical_path_delay)
    assert delay > 0


def test_bench_sta_with_case_analysis(benchmark, bench_workspace, mac_unit):
    analyzer = StaticTimingAnalyzer(mac_unit, bench_workspace.library_set.library(50.0))
    case = mac_case_analysis(3, 4, Padding.LSB)
    delay = benchmark(analyzer.critical_path_delay, case)
    assert delay > 0


def test_bench_event_driven_timed_simulation(benchmark, bench_workspace, mac_unit):
    simulator = TimingSimulator(mac_unit.netlist, bench_workspace.library_set.library(50.0))
    rng = np.random.default_rng(0)

    def one_transition():
        previous = {
            "a": int(rng.integers(0, 256)),
            "b": int(rng.integers(0, 256)),
            "c": int(rng.integers(0, 1 << 22)),
        }
        current = {
            "a": int(rng.integers(0, 256)),
            "b": int(rng.integers(0, 256)),
            "c": int(rng.integers(0, 1 << 22)),
        }
        return simulator.propagate(previous, current)

    evaluation = benchmark(one_transition)
    assert evaluation.final_outputs["out"] >= 0


def test_bench_batched_error_sweep_speedup(benchmark, bench_workspace, mac_unit):
    """The bit-parallel engine must beat the scalar path by >= 10x.

    Both engines run the same Monte-Carlo error characterisation ("settle"
    arrival model, identical statistics); the benchmark records the batched
    run and the assertion compares per-sample wall-clock throughput.
    """
    import time

    from repro.timing.error_model import characterize_timing_errors

    library_set = bench_workspace.library_set
    library = library_set.library(50.0)
    period = StaticTimingAnalyzer(mac_unit, library_set.fresh).critical_path_delay()

    batch_samples = 2000
    scalar_samples = 200

    def batched():
        return characterize_timing_errors(
            mac_unit, library, period, num_samples=batch_samples, rng=0,
            arrival_model="settle", backend="bigint",
        )

    stats = benchmark.pedantic(batched, rounds=1, iterations=1)
    assert stats.error_rate > 0.0

    batch_elapsed = benchmark.stats.stats.mean
    start = time.perf_counter()
    characterize_timing_errors(
        mac_unit, library, period, num_samples=scalar_samples, rng=0,
        arrival_model="settle", backend="scalar",
    )
    scalar_elapsed = time.perf_counter() - start

    scalar_per_sample = scalar_elapsed / scalar_samples
    batch_per_sample = batch_elapsed / batch_samples
    speedup = scalar_per_sample / batch_per_sample
    benchmark.extra_info["speedup_vs_scalar"] = speedup
    assert speedup >= 10.0


def test_bench_quantized_inference(benchmark, bench_workspace):
    pretrained = bench_workspace.model(bench_workspace.settings.table1_networks[0])
    quantized = QuantizedModel.build(
        pretrained.model,
        get_method("M4"),
        6,
        6,
        record_calibration(pretrained.model, bench_workspace.calibration),
    )
    batch = bench_workspace.test_inputs[:64]

    predictions = benchmark(quantized.predict, batch)
    assert predictions.shape == (batch.shape[0],)


def test_bench_fp32_inference(benchmark, bench_workspace):
    pretrained = bench_workspace.model(bench_workspace.settings.table1_networks[0])
    batch = bench_workspace.test_inputs[:64]
    predictions = benchmark(pretrained.model.predict, batch)
    assert predictions.shape == (batch.shape[0],)
