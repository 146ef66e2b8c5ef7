"""Round loop, host-drift reference kernel, output checks and metrics.

One run of one workload:

1. **Set-up**, :data:`SETUP_REPEATS` fresh times, and once more at every
   reference-kernel point of the untraced rounds (below), so the samples
   span the run.  ``setup_s`` is the median of their times at the
   reference speed (:data:`REF_NOMINAL_S`).
2. **Reference round**, untimed: every op once.  Its result digests are
   what every later round must reproduce exactly (and, for the default
   seed, must equal the digests committed in ``reference_digests.json``).
3. **Timed rounds** until ``seconds`` have passed.  Between ops, once at
   least :data:`REF_INTERVAL_S` of op time has gone by, the fixed reference
   kernel runs.  Each such chunk of op time is divided by the mean of the
   two kernel times around it; a round's ``ref_norm_cost`` is the sum, so
   host-speed drift cancels where it happens.

End-to-end figures are medians over the timed rounds.  In a traced run
the timed rounds alternate traced and untraced; per-layer metrics come
from the traced ones and ``bench.trace_overhead`` compares the two kinds.
"""

from __future__ import annotations

import ctypes
import functools
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import repro.observability as observability
import tracing
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
REFERENCE_DIGESTS = HERE / "reference_digests.json"
DEFAULT_SEED = 0

#: Nominal times of the reference kernel, without and with its array
#: copies: about what it takes on a quiet 2-CPU host of the class this
#: benchmark was tuned on.  ``setup_s`` and ``items_per_s`` are reported at
#: this reference speed: measured seconds × nominal ÷ the kernel time
#: measured around them, so a slower moment of the host scales both sides
#: alike.  Set-ups are always corrected by the kernel without copies.
REF_NOMINAL_S = {False: 0.010, True: 0.025}

#: Fresh set-ups before the first round (the traced run's set-up metrics
#: are their mean).
SETUP_REPEATS = 3

#: Op time between two runs of the reference kernel.  The kernel takes
#: ~10 ms (~28 ms with copies), so it costs ~1-4 % of a run.  Short chunks
#: track the host's drift more closely than long ones.
REF_INTERVAL_S = 0.25

END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "ref_norm_cost": "1",
    "peak_rss_mb": "MB",
}


# ---------------------------------------------------------------- reference
_REF_RNG = np.random.default_rng(12345)
_REF_MATRIX = _REF_RNG.standard_normal((128, 128))
_REF_VALUES = _REF_RNG.standard_normal(50_000)
_REF_IMAGES = _REF_RNG.standard_normal((64, 12, 18, 18))


def reference_kernel(array_copies: bool = False) -> float:
    """Time one fixed unit of host work: a Python loop, a matmul, a sort.

    ``array_copies`` adds an im2col-shaped strided copy (~18 ms).  The host's
    busy states slow interpreter-bound code far more than array-bound code,
    so an array-bound workload is normalised by a kernel that does its kind
    of work too.
    """
    start = perf_counter()
    total = 0
    for i in range(80_000):
        total += (i * i) % 7
    product = _REF_MATRIX
    for _ in range(10):
        product = np.tanh(product @ _REF_MATRIX)
    ordered = np.sort(_REF_VALUES)
    if array_copies:
        columns = np.empty((64, 12, 3, 3, 16, 16))
        for i in range(3):
            for j in range(3):
                columns[:, :, i, j] = _REF_IMAGES[:, :, i : i + 16, j : j + 16]
        columns.transpose(0, 4, 5, 1, 2, 3).reshape(-1, 108).copy()
    elapsed = perf_counter() - start
    if total != 159_999 or not ordered[0] <= ordered[-1] or not np.isfinite(product).all():
        raise RuntimeError("reference kernel computed a wrong result")
    return elapsed


# ------------------------------------------------------------------ machine
def blas_threads() -> "int | None":
    """Thread count the loaded OpenBLAS reports, when it can be asked."""
    try:
        with open("/proc/self/maps") as maps:
            libraries = {line.split()[-1] for line in maps if "openblas" in line}
    except OSError:
        return None
    for library in sorted(libraries):
        handle = ctypes.CDLL(library)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            function = getattr(handle, symbol, None)
            if function is not None:
                function.argtypes = []
                function.restype = ctypes.c_int
                return int(function())
    return None


def machine_descriptor(seed: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        "seed": seed,
    }


# ------------------------------------------------------------------- checks
def digest(result) -> str:
    text = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_reference(size: str, workload: str) -> dict[str, str]:
    return json.loads(REFERENCE_DIGESTS.read_text()).get(size, {}).get(workload, {})


def record_reference(size: str, workload: str, digests: dict[str, str]) -> None:
    """Store the default seed's reference-round digests of one workload."""
    table = json.loads(REFERENCE_DIGESTS.read_text()) if REFERENCE_DIGESTS.exists() else {}
    table.setdefault(size, {})[workload] = digests
    REFERENCE_DIGESTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")


@dataclass
class Round:
    """Figures of one pass over a workload's ops.

    ``chunks`` holds ``(op_s, ref_before_s, ref_after_s)``: op time between
    two reference-kernel runs, and those two runs' times.
    """

    traced: bool
    op_s: float = 0.0
    items: int = 0
    ref_s: list[float] = field(default_factory=list)
    chunks: list[tuple[float, float, float]] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)

    @property
    def ref_norm_cost(self) -> float:
        """Op time in units of the reference kernel timed around it."""
        return sum(op_s / ((before + after) / 2) for op_s, before, after in self.chunks)

    def items_per_s(self, nominal_s: float) -> float:
        """Items per second at the reference speed (``nominal_s`` per kernel)."""
        return self.items / (self.ref_norm_cost * nominal_s)

    @property
    def host_items_per_s(self) -> float:
        """Items per second of this host as it ran (drift included)."""
        return self.items / self.op_s


class Runner:
    """Runs one workload in this process and assembles its metrics."""

    def __init__(
        self,
        workload: str,
        seed: int,
        seconds: float,
        trace: bool,
        size: str,
        check_reference: bool = True,
    ) -> None:
        self.workload = WORKLOADS[workload](size)
        self.kernel = functools.partial(reference_kernel, self.workload.array_bound)
        self.check_reference = check_reference
        self.seed = seed
        self.seconds = seconds
        self.size = size
        self.tracer = tracing.Tracer() if trace else None
        self.attempted = 0
        self.failed = 0
        self.expected: dict[str, str] = {}
        self.setup_times: list[float] = []
        self.host_setup_times: list[float] = []

    # ------------------------------------------------------------- plumbing
    def _fail(self, op_name: str, problems: list[str]) -> None:
        """Count one failed op and report each of its problems on stderr."""
        self.failed += 1
        for problem in problems:
            print(f"perfbench: {self.workload.name}/{op_name}: {problem}", file=sys.stderr)

    def _traced(self, traced: bool):
        """Context manager that records spans (or does nothing) for a block."""
        if traced:
            return self.tracer.installed()
        return nullcontext()

    # ---------------------------------------------------------------- phases
    def setup(self, repeats: int) -> dict:
        """``repeats`` fresh set-ups, each between two reference-kernel runs.

        Raw times join :attr:`host_setup_times`; times at the reference
        speed join :attr:`setup_times`.
        """
        inputs = None
        for _ in range(repeats):
            inputs = None
            before = reference_kernel()
            with self._traced(self.tracer is not None):
                if self.tracer is not None:
                    self.tracer.begin_op()
                start = perf_counter()
                inputs = self.workload.setup(self.seed)
                elapsed = perf_counter() - start
            after = reference_kernel()
            self.host_setup_times.append(elapsed)
            self.setup_times.append(elapsed * REF_NOMINAL_S[False] / ((before + after) / 2))
        return inputs

    def run_round(self, ops, traced: bool) -> Round:
        result = Round(traced=traced)
        probe = self.tracer if traced else _NULL_PROBE
        if traced:
            observability.reset()
            observability.enable()
        gc.collect()
        result.ref_s.append(self.kernel())
        chunk_s = 0.0
        with self._traced(traced):
            for op in ops:
                self.attempted += 1
                if traced:
                    self.tracer.begin_op()
                start = perf_counter()
                try:
                    if traced:
                        with self.tracer.span(f"op.{op.name}"):
                            output = op.run(probe)
                    else:
                        output = op.run(probe)
                except Exception:  # an op that raises is counted, not fatal
                    elapsed = perf_counter() - start
                    self._fail(op.name, ["raised\n" + traceback.format_exc()])
                    output = None
                else:
                    elapsed = perf_counter() - start
                result.op_s += elapsed
                result.items += op.items
                chunk_s += elapsed
                if output is not None:
                    self._check(op, output, result)
                if chunk_s >= REF_INTERVAL_S or op is ops[-1]:
                    result.ref_s.append(self.kernel())
                    result.chunks.append((chunk_s, result.ref_s[-2], result.ref_s[-1]))
                    chunk_s = 0.0
                    if self.tracer is None:
                        # A fresh set-up at every kernel point: setup_s then
                        # samples the host across the run, as the ops do.
                        self.setup(1)
                        result.ref_s.append(self.kernel())
        if traced:
            events = observability.snapshot().metrics.counter("sim.events.popped")
            self.tracer.count("circuits.wheel_events", events)
            observability.disable()
            observability.reset()
        return result

    def _check(self, op, output, round_: Round) -> None:
        problems = op.check(output)
        value = digest(output)
        round_.digests[op.name] = value
        expected = self.expected.get(op.name)
        if expected is not None and value != expected:
            problems.append(f"output digest {value} differs from the reference {expected}")
        if problems:
            self._fail(op.name, problems)

    # ------------------------------------------------------------------ run
    def run(self) -> dict:
        repeats = SETUP_REPEATS
        inputs = self.setup(repeats)
        setup_trace = self.tracer.take() if self.tracer is not None else None
        ops = self.workload.ops(inputs, self.seed)
        if self.seed == DEFAULT_SEED and self.check_reference:
            self.expected = load_reference(self.size, self.workload.name)
        reference = self.run_round(ops, traced=False)
        # Later rounds (traced ones included) must reproduce the reference
        # round exactly; missing committed digests are filled from it.
        self.expected = {**reference.digests, **self.expected}
        self.reference_digests = reference.digests

        rounds: list[Round] = []
        start = perf_counter()
        while perf_counter() - start < self.seconds or not self._enough(rounds):
            traced = self.tracer is not None and len(rounds) % 2 == 0
            rounds.append(self.run_round(ops, traced))

        self.rounds = rounds
        if self.tracer is None:
            return self.end_to_end(rounds)
        return self.per_layer(setup_trace, repeats, rounds)

    def _enough(self, rounds: list[Round]) -> bool:
        if self.tracer is None:
            return bool(rounds)
        return any(r.traced for r in rounds) and any(not r.traced for r in rounds)

    # -------------------------------------------------------------- metrics
    def end_to_end(self, rounds: list[Round]) -> dict:
        self.host_figures = {
            "host_setup_s": statistics.median(self.host_setup_times),
            "host_items_per_s": statistics.median(r.host_items_per_s for r in rounds),
        }
        return {
            "setup_s": statistics.median(self.setup_times),
            "items_per_s": statistics.median(
                r.items_per_s(REF_NOMINAL_S[self.workload.array_bound]) for r in rounds
            ),
            "ref_norm_cost": statistics.median(r.ref_norm_cost for r in rounds),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    def per_layer(self, setup_trace, setups: int, rounds: list[Round]) -> dict:
        spans, counts = self.tracer.take()
        traced = [r for r in rounds if r.traced]
        untraced = [r for r in rounds if not r.traced]
        metrics = tracing.layer_metrics(spans, counts, len(traced))
        metrics.update(tracing.setup_metrics(setup_trace[0], setups))
        metrics["bench.ref_kernel_s"] = statistics.median(s for r in rounds for s in r.ref_s)
        metrics["bench.trace_overhead"] = statistics.median(
            r.ref_norm_cost for r in untraced
        ) / statistics.median(r.ref_norm_cost for r in traced)
        self.trace_spans = setup_trace[0] + spans
        return metrics


class _NullProbe:
    def count(self, name: str, amount: float = 1) -> None:
        pass


_NULL_PROBE = _NullProbe()
