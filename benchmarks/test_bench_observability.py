"""Benchmark: overhead of the enabled observability path on the Fig. 1a sweep.

The disabled path is free by construction (one boolean check per
instrumentation point); this benchmark pins down the *enabled* path, which
records per-shard counters, per-propagation event summaries and a handful of
spans.  All of that is O(shards + propagations), not O(events), so recording
a full Fig. 1a error sweep must cost at most a few percent of its runtime.
"""

from __future__ import annotations

import statistics
import time

import repro.observability as observability
from repro.circuits.mac import build_multiplier
from repro.timing.error_model import sweep_timing_errors

#: Maximum tolerated enabled-path overhead on the Fig. 1a sweep.
MAX_OVERHEAD = 0.05

#: The Fig. 1a sweep's ΔVth levels (1000 samples each).
LEVELS_MV = (0.0, 30.0, 50.0)

#: Rounds over the levels.  Every (round, level) is one interleaved
#: disabled/enabled pair, 21 in all, and the bound is checked on the median
#: of the per-pair ratios.  On a shared 2-CPU host one ~1 s level sweep
#: swings by up to ±30%; over ten runs there this median stayed within
#: -1.6% .. +2.2%, while the median of 7 whole-sweep pairs ranged from
#: -5.6% to +7.9%.
ROUNDS = 7


def _sweep(unit, observe: bool, levels_mv=LEVELS_MV):
    def run():
        return sweep_timing_errors(
            unit,
            levels_mv=levels_mv,
            num_samples=1000,
            rng=0,
            effective_output_width=16,
        )

    if not observe:
        return run()
    with observability.collecting():
        return run()


def test_bench_observability_overhead(benchmark):
    unit = build_multiplier(8, "array")
    _sweep(unit, False)  # warm caches (levelized schedules, delay tables)
    _sweep(unit, True)

    off_s, on_s = [], []
    # Each pair runs one level with recording off and on back to back,
    # alternating which goes first, so host drift hits both alike.
    for round_index in range(ROUNDS):
        for level_index, level in enumerate(LEVELS_MV):
            results = {}
            seconds = {}
            order = (False, True) if (round_index + level_index) % 2 == 0 else (True, False)
            for observe in order:
                start = time.perf_counter()
                results[observe] = _sweep(unit, observe, (level,))
                seconds[observe] = time.perf_counter() - start
            # Recording never changes the statistics.
            assert results[True] == results[False]
            off_s.append(seconds[False])
            on_s.append(seconds[True])

    overhead = statistics.median(on / off for on, off in zip(on_s, off_s)) - 1.0
    print(
        f"\nfig1a sweep ({len(off_s)} level pairs): disabled {sum(off_s) * 1e3:.1f} ms, "
        f"enabled {sum(on_s) * 1e3:.1f} ms in all, "
        f"median per-pair overhead {overhead * 100:+.2f}%"
    )
    benchmark.extra_info["disabled_s"] = sum(off_s)
    benchmark.extra_info["enabled_s"] = sum(on_s)
    benchmark.extra_info["overhead"] = overhead
    benchmark.pedantic(_sweep, args=(unit, True), rounds=1, iterations=1)
    assert overhead <= MAX_OVERHEAD, (
        f"enabled observability costs {overhead * 100:.1f}% on the fig1a sweep "
        f"(budget: {MAX_OVERHEAD * 100:.0f}%)"
    )
