"""Benchmark of the reproduction's NN and circuit halves.

Run from the repository root::

    python3 perfbench/run.py --workload fault_injection --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one process each

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the traced
variant, prints the per-layer metrics and writes a Chrome trace-event file
under ``perfbench/out/``.  The last line of standard output is always one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  See
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

# One BLAS/OpenMP thread, fixed before numpy is imported: the benchmark then
# loads one CPU, whatever the host offers.
for _variable in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_variable] = "1"

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parent / "src"
WORKLOAD_NAMES = ("fault_injection", "algorithm1_lifetime", "circuit_timing")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size",
        choices=("full", "tiny"),
        default="full",
        help="'tiny' shrinks every workload to seconds (the benchmark's own tests)",
    )
    parser.add_argument(
        "--record-reference",
        action="store_true",
        help="write the reference-round digests of --seed 0 to reference_digests.json",
    )
    return parser.parse_args(argv)


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own child process, one after the other."""
    results = {}
    for name in WORKLOAD_NAMES:
        command = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--size", args.size,
        ]
        completed = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
        lines = completed.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if completed.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited with {completed.returncode}", file=sys.stderr)
            return completed.returncode or 1
        results[name] = json.loads(lines[-1])
    metrics = {
        f"{name}.{metric}": value
        for name, result in results.items()
        for metric, value in result["metrics"].items()
    }
    print(
        json.dumps(
            {
                "correct": all(result["correct"] for result in results.values()),
                "attempted": sum(result["attempted"] for result in results.values()),
                "failed": sum(result["failed"] for result in results.values()),
                "metrics": metrics,
            }
        )
    )
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.record_reference and (args.seed != 0 or args.workload == "all"):
        print("perfbench: --record-reference needs one workload and --seed 0", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program's sources are missing ({SOURCE / 'repro'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))

    import harness
    import tracing

    runner = harness.Runner(
        args.workload,
        args.seed,
        args.seconds,
        bool(args.trace),
        args.size,
        check_reference=not args.record_reference,
    )
    metrics = runner.run()
    machine = harness.machine_descriptor(args.seed)
    print("machine: " + json.dumps(machine, sort_keys=True))
    print(
        f"{args.workload}: {len(runner.rounds)} timed rounds, "
        f"{runner.attempted} ops, {runner.failed} failed"
    )
    for index, round_ in enumerate(runner.rounds):
        print(
            f"  round {index}{' (traced)' if round_.traced else ''}: "
            f"{round_.op_s:.3f} s of ops, {round_.host_items_per_s:.6g} host items/s, "
            f"cost {round_.ref_norm_cost:.6g}, "
            "ref kernel ms " + " ".join(f"{sample * 1e3:.1f}" for sample in round_.ref_s)
        )
    if args.trace:
        units = {name: tracing.unit_of(name) for name in metrics}
        path = HERE / "out" / f"trace-{args.workload}-seed{args.seed}.json"
        tracing.write_chrome_trace(
            path,
            runner.trace_spans,
            {"machine": machine, "workload": args.workload, "metrics": metrics},
        )
        print(f"trace: {path.relative_to(HERE.parent)}")
    else:
        units = harness.END_TO_END_UNITS
        print(f"  {'failed_ratio':<40} {runner.failed / runner.attempted:>16.6g} 1")
        print(f"  {'host_setup_s':<40} {runner.host_figures['host_setup_s']:>16.6g} s")
        print(f"  {'host_items_per_s':<40} {runner.host_figures['host_items_per_s']:>16.6g} 1/s")
    for name, value in metrics.items():
        print(f"  {name:<40} {value:>16.6g} {units[name]}")
    if args.record_reference:
        harness.record_reference(args.size, args.workload, runner.reference_digests)
    print(
        json.dumps(
            {
                "correct": runner.failed == 0,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]} for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
