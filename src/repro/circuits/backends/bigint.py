"""Bigint backend: word-packed lanes on arbitrary-precision Python ints.

This wraps :class:`~repro.circuits.simulator.BatchTimingSimulator`: one
Python integer per net, bit ``k`` holding the net's value in Monte-Carlo
lane ``k``, with the bit twiddling running in CPython's C long
implementation.  It is bit-identical to the ndarray backend, which ties it
on single-vector transition batches and beats it everywhere else (the
measured table is in :mod:`repro.circuits.backends.registry`), so
``"auto"`` never picks it; it runs only when named explicitly.
"""

from __future__ import annotations

import numpy as np

from repro.circuits.backends.base import BatchedSimulationBackend, ErrorCounters
from repro.circuits.simulator import (
    BATCH_ARRIVAL_MODELS,
    BatchTimedEvaluation,
    BatchTimingSimulator,
)
from repro.utils.bitops import word_to_lane_bits


class BigintBackend(BatchedSimulationBackend):
    """Bit-parallel lanes packed into arbitrary-precision Python ints."""

    name = "bigint"
    arrival_models = BATCH_ARRIVAL_MODELS

    def timing_simulator(self, netlist, library, arrival_model):
        return BatchTimingSimulator(netlist, library, arrival_model=arrival_model)

    def _batch_counters(
        self,
        evaluation: BatchTimedEvaluation,
        clock_period_ps,
        output_bus,
        msb_count,
        width,
    ) -> ErrorCounters:
        lanes = evaluation.lanes
        exact_words = evaluation.final_output_words[output_bus][:width]
        captured_words = evaluation.captured_output_words(clock_period_ps)[output_bus][:width]

        bit_flip_counts = np.zeros(width, dtype=np.int64)
        error_lanes = 0
        msb_lanes = 0
        # int64 accumulators overflow from bit 63 up; wide buses fall back
        # to exact Python ints on an object array.
        value_dtype = np.int64 if width <= 62 else object
        exact_values = np.zeros(lanes, dtype=value_dtype)
        captured_values = np.zeros(lanes, dtype=value_dtype)
        for bit, (exact, captured) in enumerate(zip(exact_words, captured_words)):
            difference = exact ^ captured
            if difference:
                bit_flip_counts[bit] += difference.bit_count()
                error_lanes |= difference
                if bit >= width - msb_count:
                    msb_lanes |= difference
            exact_values += word_to_lane_bits(exact, lanes).astype(value_dtype) << bit
            captured_values += word_to_lane_bits(captured, lanes).astype(value_dtype) << bit
        return ErrorCounters(
            bit_flip_counts,
            msb_lanes.bit_count(),
            error_lanes.bit_count(),
            float(np.abs(exact_values - captured_values).sum()),
        )
