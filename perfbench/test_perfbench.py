"""Tests of the benchmark itself, on its tiny size (seconds per workload).

Each test runs ``perfbench/run.py`` in a child process, as a user of the
benchmark would, so the traced run's patches never leak into this process.
"""

from __future__ import annotations

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
NN_WORKLOADS = ("fault_injection", "algorithm1_lifetime")


def run_bench(workload: str, trace: int, cwd: Path = ROOT, seed: int = 0):
    command = [
        sys.executable,
        str(cwd / SPEC["command"][1]),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", "0.5",
        "--trace", str(trace),
        "--size", "tiny",
    ]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(completed) -> dict:
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, completed.stderr
    assert result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("seed", [0, 7])
def test_end_to_end_metrics_and_checks(workload, seed):
    result = result_of(run_bench(workload, trace=0, seed=seed))
    expected = {metric["name"]: metric["unit"] for metric in SPEC["end_to_end"]}
    assert {name: value["unit"] for name, value in result["metrics"].items()} == expected
    assert all(value["value"] > 0 for value in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_and_the_bypasses(workload):
    completed = run_bench(workload, trace=1)
    result = result_of(completed)
    metrics = {name: value["value"] for name, value in result["metrics"].items()}
    assert set(metrics) == {metric["name"] for metric in SPEC["per_layer"]}

    if workload in NN_WORKLOADS:
        assert metrics["nn.forward_s"] > 0 and metrics["nn.macs"] > 0
        assert all(metrics[f"circuits.accumulate_s.{b}"] == 0 for b in ("scalar", "bigint", "ndarray", "event"))
        assert metrics["circuits.wheel_events"] == 0
    else:
        assert metrics["nn.forward_s"] == 0
        assert metrics["timing.characterize_s.transition"] > 0
        assert metrics["circuits.wheel_events"] > 0
    if workload == "fault_injection":
        assert metrics["nn.faults.calls"] > 0
        assert metrics["quantization.calibrate_s.M2"] > 0
    else:
        assert metrics["nn.faults.calls"] == 0
    if workload == "algorithm1_lifetime":
        assert all(metrics[f"quantization.calibrate_s.M{i}"] > 0 for i in range(1, 6))
        assert metrics["timing.sta_passes"] > 0

    trace_line = next(line for line in completed.stdout.splitlines() if line.startswith("trace: "))
    trace = json.loads((ROOT / trace_line.removeprefix("trace: ")).read_text())
    spans = [event for event in trace["traceEvents"] if event["ph"] == "X"]
    assert spans and all({"op", "span_id", "parent_id"} <= set(event["args"]) for event in spans)
    assert trace["otherData"]["machine"]["blas_threads"] in (1, None)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
    completed = run_bench(WORKLOADS[0], trace=0, cwd=tmp_path)
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout


def test_self_time_subtracts_direct_children():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", HERE / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    spans = [
        (1, 0, 1, "nn.linear", 0.0, 10.0),
        (2, 1, 1, "quantization.quantize.infer", 1.0, 3.0),
        (3, 1, 1, "nn.faults.deltas", 4.0, 8.0),
        (4, 3, 1, "inner", 5.0, 6.0),
    ]
    total, self_time = tracing.span_totals(spans)
    assert total["nn.linear"] == 10.0
    assert self_time["nn.linear"] == 4.0
    assert self_time["nn.faults.deltas"] == 3.0
