"""The benchmark's three workloads, built from the seed alone.

Each workload has a set-up (the inputs: dataset, seeded zoo models,
netlists, aging libraries, fresh-clock STA) and a fixed list of ops, one
*round*.  Every op calls the same public function an experiment calls, and
returns a JSON-able result that the harness checks and digests.  The op
list is identical in every round, so per-round figures compare like with
like.

Models come from ``build_model(name, rng=seed)``: untrained, so host time
is representative but the accuracies are not the paper's numbers.

``size="tiny"`` shrinks every workload to a few seconds for the
benchmark's own tests; the op kinds and checks are the same.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import repro.nn.zoo as zoo
import repro.power.switching as switching
import repro.timing.error_model as error_model
from repro.aging.bti import STANDARD_DELTA_VTH_LEVELS_MV
from repro.aging.cell_library import AgingAwareLibrarySet
from repro.circuits.mac import build_mac, build_multiplier
from repro.core.algorithm import AgingAwareQuantizer
from repro.nn.datasets import SyntheticImageDataset
from repro.nn.evaluate import sweep_fault_injection
from repro.quantization.registry import get_method
from repro.timing.sta import StaticTimingAnalyzer

#: The fast profile's dataset (``ExperimentSettings.fast()``).
DATASET = {"num_classes": 10, "image_size": 16, "train_per_class": 80, "test_per_class": 30}
CALIBRATION_SAMPLES = 48


@dataclass(frozen=True)
class Op:
    """One unit of timed work.

    ``run(probe)`` returns the op's JSON-able result; ``probe.count`` lets
    an op report a count only it can see (a no-op when untraced).
    ``check(result)`` returns the invariant violations (empty when fine).
    """

    name: str
    items: int
    run: Callable[[Any], Any]
    check: Callable[[Any], list[str]]


def _in_unit_interval(label: str, values) -> list[str]:
    return [f"{label} {value!r} outside [0, 1]" for value in values if not 0.0 <= value <= 1.0]


def _dataset(seed: int, images: int):
    dataset = SyntheticImageDataset.generate(seed=seed, **DATASET)
    calibration = dataset.calibration_split(CALIBRATION_SAMPLES, seed=seed)
    return calibration, dataset.x_test[:images], dataset.y_test[:images]


class FaultInjection:
    """Fig. 1b: M2 8-bit inference under MSB flips, as ``run_fig1b`` calls it."""

    name = "fault_injection"
    # im2col copies and GEMMs: normalised by the array-copy reference kernel.
    array_bound = True
    networks = ("resnet20", "resnet32", "resnet44")
    probabilities = (0.0, 1e-4, 1e-3, 1e-2)
    repetitions = 2
    images = {"full": 64, "tiny": 8}

    def __init__(self, size: str) -> None:
        self.size = size

    def setup(self, seed: int) -> dict:
        calibration, x_test, y_test = _dataset(seed, self.images[self.size])
        models = {name: zoo.build_model(name, rng=seed) for name in self.networks}
        return {"calibration": calibration, "x": x_test, "y": y_test, "models": models}

    def ops(self, inputs: dict, seed: int) -> list[Op]:
        passes = sum(1 if p == 0.0 else self.repetitions for p in self.probabilities)
        images = len(inputs["x"])

        def sweep(network: str):
            def run(probe):
                result = sweep_fault_injection(
                    inputs["models"][network],
                    get_method("M2"),
                    inputs["calibration"],
                    inputs["x"],
                    inputs["y"],
                    flip_probabilities=self.probabilities,
                    repetitions=self.repetitions,
                    seed=seed,
                    workers=0,
                )
                return {repr(p): list(result[p]) for p in self.probabilities}

            return run

        def check(result) -> list[str]:
            problems = []
            for p, (mean, std) in result.items():
                problems += _in_unit_interval(f"accuracy at p={p}", (mean,))
                if std < 0.0:
                    problems.append(f"negative std {std!r} at p={p}")
            if result[repr(0.0)][1] != 0.0:
                problems.append("the fault-free pass is not deterministic")
            return problems

        return [Op(network, images * passes, sweep(network), check) for network in self.networks]


class Algorithm1Lifetime:
    """Algorithm 1 at every ΔVth level, all five methods, no threshold."""

    name = "algorithm1_lifetime"
    array_bound = False
    networks = ("squeezenet",)
    levels = {"full": STANDARD_DELTA_VTH_LEVELS_MV, "tiny": (0.0, 50.0)}
    images = {"full": 100, "tiny": 8}
    max_alpha = 6
    max_beta = 6

    def __init__(self, size: str) -> None:
        self.size = size

    def setup(self, seed: int) -> dict:
        calibration, x_test, y_test = _dataset(seed, self.images[self.size])
        return {
            "calibration": calibration,
            "x": x_test,
            "y": y_test,
            "models": {name: zoo.build_model(name, rng=seed) for name in self.networks},
            "mac": build_mac(),
            "library_set": AgingAwareLibrarySet.generate(STANDARD_DELTA_VTH_LEVELS_MV),
        }

    def ops(self, inputs: dict, seed: int) -> list[Op]:
        levels = self.levels[self.size]
        images = len(inputs["x"])

        def lifetime(network: str):
            def run(probe):
                # A fresh quantizer per network, so the STA delay cache
                # starts cold as it does in run_table1.
                quantizer = AgingAwareQuantizer(
                    mac=inputs["mac"],
                    library_set=inputs["library_set"],
                    max_alpha=self.max_alpha,
                    max_beta=self.max_beta,
                )
                model = inputs["models"][network]
                fp32 = model.accuracy(inputs["x"], inputs["y"])
                rows = []
                for level in levels:
                    result = quantizer.run(
                        model,
                        level,
                        inputs["calibration"],
                        inputs["x"],
                        inputs["y"],
                        fp32_accuracy=fp32,
                    )
                    rows.append(
                        {
                            "level": level,
                            "alpha": result.compression.alpha,
                            "beta": result.compression.beta,
                            "padding": result.compression.padding.value,
                            "delay_ps": result.timing.delay_ps,
                            "target_ps": result.timing.target_period_ps,
                            "selected": result.selected_method,
                            "fp32": fp32,
                            "accuracy": {
                                key: evaluation.quantized_accuracy
                                for key, evaluation in result.per_method.items()
                            },
                        }
                    )
                probe.count("timing.sta_passes", quantizer.timing_analyzer.sta_pass_count)
                return rows

            return run

        def check(rows) -> list[str]:
            problems = []
            for row in rows:
                problems += _in_unit_interval("accuracy", [row["fp32"], *row["accuracy"].values()])
                if row["delay_ps"] > row["target_ps"]:
                    problems.append(f"selected compression misses timing at {row['level']} mV")
                if row["level"] == 0.0 and (row["alpha"], row["beta"]) != (0, 0):
                    problems.append(f"fresh level picked ({row['alpha']}, {row['beta']})")
            return problems

        items = images * len(levels) * 5
        return [Op(network, items, lifetime(network), check) for network in self.networks]


class CircuitTiming:
    """Fig. 1a / Fig. 5 circuit half: lane engines, the wheel, switching."""

    name = "circuit_timing"
    array_bound = False
    batch_size = 256
    sizes = {
        "full": {
            "levels": STANDARD_DELTA_VTH_LEVELS_MV,
            "transition_samples": 2048,
            "event_samples": 64,
            "mac_event_levels": (0.0, 50.0),
            "switching_transitions": 200,
        },
        "tiny": {
            "levels": (0.0, 50.0),
            "transition_samples": 64,
            "event_samples": 16,
            "mac_event_levels": (0.0, 50.0),
            "switching_transitions": 20,
        },
    }

    def __init__(self, size: str) -> None:
        self.size = size

    def setup(self, seed: int) -> dict:
        library_set = AgingAwareLibrarySet.generate(STANDARD_DELTA_VTH_LEVELS_MV)
        units = {"multiplier": build_multiplier(8, "array"), "mac": build_mac()}
        clocks = {
            name: StaticTimingAnalyzer(unit, library_set.fresh).critical_path_delay()
            for name, unit in units.items()
        }
        return {"library_set": library_set, "units": units, "clocks": clocks}

    def ops(self, inputs: dict, seed: int) -> list[Op]:
        size = self.sizes[self.size]
        library_set = inputs["library_set"]
        plan = []
        for unit in ("multiplier", "mac"):
            plan += [(unit, "transition", level) for level in size["levels"]]
        plan += [("multiplier", "event", level) for level in size["levels"]]
        plan += [("mac", "event", level) for level in size["mac_event_levels"]]

        def characterize(index: int, unit_name: str, arrival_model: str, level: float):
            samples = size[f"{arrival_model}_samples"]

            def run(probe):
                statistics = error_model.characterize_timing_errors(
                    inputs["units"][unit_name],
                    library_set.library(level),
                    inputs["clocks"][unit_name],
                    num_samples=samples,
                    rng=seed * 1000 + index,
                    msb_count=2,
                    effective_output_width=16 if unit_name == "multiplier" else None,
                    arrival_model=arrival_model,
                    # "auto" keeps a change of the lane-backend choice visible.
                    backend="auto" if arrival_model == "transition" else "event",
                    batch_size=self.batch_size,
                )
                return [
                    statistics.error_rate,
                    statistics.msb_flip_probability,
                    statistics.mean_error_distance,
                    list(statistics.bit_flip_probabilities),
                ]

            def check(result) -> list[str]:
                error_rate, msb_rate, distance, bit_rates = result
                problems = _in_unit_interval("rate", [error_rate, msb_rate, *bit_rates])
                if level == 0.0 and (error_rate, msb_rate, distance) != (0.0, 0.0, 0.0):
                    problems.append(f"{arrival_model} timing errors on the fresh {unit_name}")
                return problems

            name = f"{unit_name}.{arrival_model}.{level:g}mV"
            return Op(name, samples, run, check)

        ops = [characterize(index, *entry) for index, entry in enumerate(plan)]

        end_of_life = max(size["levels"])
        transitions = size["switching_transitions"]

        def activity(probe):
            result = switching.estimate_switching_activity(
                inputs["units"]["mac"],
                num_transitions=transitions,
                rng=seed * 1000 + len(plan),
                mode="event",
                delay_source=library_set.library(end_of_life),
                workers=0,
            )
            return {
                "input_toggles": result.input_toggles,
                "toggles_per_cell": dict(sorted(result.toggles_per_cell.items())),
            }

        def check_activity(result) -> list[str]:
            if sum(result["toggles_per_cell"].values()) <= 0:
                return ["no internal toggles"]
            return []

        ops.append(Op(f"mac.switching.{end_of_life:g}mV", transitions, activity, check_activity))
        return ops


WORKLOADS = {
    workload.name: workload for workload in (FaultInjection, Algorithm1Lifetime, CircuitTiming)
}
