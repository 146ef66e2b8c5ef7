"""Scalar reference backend: one vector pair per gate evaluation.

This wraps :class:`~repro.circuits.simulator.TimingSimulator`, which
supports every arrival model (the glitch-accurate ``"event"`` model too,
which the batched ``event`` backend also runs), and is the semantic
reference the batched backends are tested against.
"""

from __future__ import annotations

import numpy as np

from repro.circuits.backends.base import ErrorCounters, SimulationBackend
from repro.circuits.simulator import ARRIVAL_MODELS, TimingSimulator


class ScalarBackend(SimulationBackend):
    """Per-vector simulation on Python ints (supports every arrival model)."""

    name = "scalar"
    arrival_models = ARRIVAL_MODELS
    batched = False

    def timing_simulator(self, netlist, library, arrival_model):
        return TimingSimulator(netlist, library, arrival_model=arrival_model)

    def accumulate_errors(
        self,
        unit,
        simulator: TimingSimulator,
        vectors,
        clock_period_ps,
        output_bus,
        msb_count,
        width,
        batch_size,
    ) -> ErrorCounters:
        num_samples = len(vectors) - 1
        bit_flip_counts = np.zeros(width, dtype=np.int64)
        msb_flip_count = 0
        error_count = 0
        total_error_distance = 0.0

        for index in range(num_samples):
            evaluation = simulator.propagate(vectors[index], vectors[index + 1])
            exact = evaluation.final_outputs[output_bus]
            captured = evaluation.captured_outputs(clock_period_ps)[output_bus]
            mask = (1 << width) - 1
            exact &= mask
            captured &= mask
            if exact != captured:
                error_count += 1
                total_error_distance += abs(exact - captured)
                difference = exact ^ captured
                for bit in range(width):
                    if (difference >> bit) & 1:
                        bit_flip_counts[bit] += 1
                msb_mask = ((1 << msb_count) - 1) << (width - msb_count)
                if difference & msb_mask:
                    msb_flip_count += 1
        return ErrorCounters(bit_flip_counts, msb_flip_count, error_count, total_error_distance)
