"""Span tracing and counters wrapped around the program's public functions.

The traced run patches the public entry points of each layer (see
:func:`install`) with wrappers that record one span per call — name, start,
end, parent span and the op it belongs to — plus the work counts the
per-layer metrics need.  Spans stay in memory and are written once, at
exit, as Chrome trace-event JSON (:func:`write_chrome_trace`).

Untraced runs never install the wrappers, so they pay nothing.  A layer's
self time is its span time minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import os
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

_MISSING = object()

#: Registered simulation backends; the first two are the levelized lane
#: engines that ``circuits.ns_per_gate_lane`` covers.
BACKENDS = ("scalar", "bigint", "ndarray", "event")
LEVELIZED_BACKENDS = ("bigint", "ndarray")
METHODS = ("M1", "M2", "M3", "M4", "M5")

#: (C, H, W) of one input image: the benchmark's datasets use the zoo defaults.
INPUT_SHAPE = (3, 16, 16)


class Tracer:
    """In-memory span recorder; one per traced benchmark process.

    Spans are tuples ``(span_id, parent_id, op_id, name, start_s, end_s)``
    with ``perf_counter`` times.  :meth:`take` hands over everything
    recorded since the previous call, so the harness can attribute spans
    and counts to set-up and to each timed round.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.op_id = 0
        self._next_id = 1
        self._stack: list[int] = []
        self._calibrating = 0
        self._patches: list[tuple[object, str, object]] = []
        self._macs_per_image: dict[int, int] = {}

    # -------------------------------------------------------------- recording
    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    @contextmanager
    def span(self, name: str):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else 0
        self._stack.append(span_id)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append((span_id, parent, self.op_id, name, start, end))

    def begin_op(self) -> int:
        self.op_id += 1
        return self.op_id

    def take(self) -> tuple[list, dict[str, float]]:
        """Spans and counts recorded since the previous call (and reset)."""
        spans, counts = self.spans, dict(self.counts)
        self.spans = []
        self.counts = defaultdict(float)
        return spans, counts

    # --------------------------------------------------------------- patching
    def _patch(self, owner: object, attribute: str, replacement: object) -> None:
        self._patches.append((owner, attribute, vars(owner).get(attribute, _MISSING)))
        setattr(owner, attribute, replacement)

    def _wrap(self, fn, name, before=None):
        """``fn`` timed as span ``name`` (a string or ``(args, kwargs) -> str``).

        ``before(args, kwargs)`` records the call's work counts; it runs
        outside the span so counting never inflates a layer's time.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            span_name = name if isinstance(name, str) else name(args, kwargs)
            with tracer.span(span_name):
                return fn(*args, **kwargs)

        return wrapper

    def _wrap_classmethod(self, owner, attribute, name, before=None):
        function = vars(owner)[attribute].__func__
        self._patch(owner, attribute, classmethod(self._wrap(function, name, before)))

    def _wrap_method(self, owner, attribute, name, before=None):
        self._patch(owner, attribute, self._wrap(getattr(owner, attribute), name, before))

    @contextmanager
    def installed(self):
        """Patch every measured public function for the block, then restore."""
        install(self)
        try:
            yield self
        finally:
            while self._patches:
                owner, attribute, original = self._patches.pop()
                if original is _MISSING:
                    delattr(owner, attribute)
                else:
                    setattr(owner, attribute, original)

    def macs_per_image(self, model) -> int:
        """Multiply-accumulates of one inference of ``model`` (cached per model)."""
        key = id(model)
        if key not in self._macs_per_image:
            from repro.npu.systolic import model_workloads

            self._macs_per_image[key] = sum(
                workload.rows * workload.inner * workload.cols
                for workload in model_workloads(model, INPUT_SHAPE)
            )
        return self._macs_per_image[key]


def _argument(args, kwargs, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


def install(tracer: Tracer) -> None:
    """Wrap the public function of every measured layer (restored by the caller)."""
    import repro.nn.layers as nn_layers
    import repro.nn.zoo as zoo
    import repro.power.switching as switching
    import repro.timing.error_model as error_model
    from repro.aging.cell_library import AgingAwareLibrarySet
    from repro.circuits.backends import get_backend
    from repro.core.algorithm import AgingAwareQuantizer
    from repro.nn.datasets import SyntheticImageDataset
    from repro.nn.faults import MsbBitFlipInjector
    from repro.nn.quantized import QuantizationContext, QuantizedModel
    from repro.quantization.base import QuantParams
    from repro.timing.sta import StaticTimingAnalyzer

    # nn: inference (images and MACs per call), im2col, the integer linear
    # layer and the fault deltas inside it.
    def count_forward(args, kwargs):
        images = len(_argument(args, kwargs, 1, "x"))
        tracer.count("nn.images", images)
        tracer.count("nn.macs", images * tracer.macs_per_image(args[0].model))

    tracer._wrap_method(QuantizedModel, "accuracy", "nn.forward", count_forward)
    tracer._patch(nn_layers, "im2col", tracer._wrap(nn_layers.im2col, "nn.im2col"))
    tracer._wrap_method(QuantizationContext, "linear", "nn.linear")
    tracer._wrap_method(
        MsbBitFlipInjector,
        "accumulation_deltas",
        "nn.faults.deltas",
        lambda args, kwargs: tracer.count("nn.faults.calls"),
    )

    # quantization: the codec, split by whether a calibration is open, and
    # each method's calibration (QuantizedModel.build).
    def quantize_name(args, kwargs):
        phase = "calib" if tracer._calibrating else "infer"
        tracer.count(f"quantization.quantize_calls.{phase}")
        return f"quantization.quantize.{phase}"

    tracer._wrap_method(QuantParams, "quantize", quantize_name)

    build = vars(QuantizedModel)["build"].__func__

    def calibrate(cls, *args, **kwargs):
        method = _argument(args, kwargs, 1, "method")
        tracer._calibrating += 1
        try:
            with tracer.span(f"quantization.calibrate.{method.key}"):
                return build(cls, *args, **kwargs)
        finally:
            tracer._calibrating -= 1

    tracer._patch(QuantizedModel, "build", classmethod(functools.wraps(build)(calibrate)))

    # core: Algorithm 1's two phases.
    tracer._wrap_method(AgingAwareQuantizer, "select_compression", "core.select_compression")
    tracer._wrap_method(AgingAwareQuantizer, "quantize_model", "core.quantize_model")

    # timing: corner-batched STA and the error characterisation by model.
    tracer._wrap_method(StaticTimingAnalyzer, "case_analysis_delays", "timing.case_analysis_delays")
    tracer._patch(
        error_model,
        "characterize_timing_errors",
        tracer._wrap(
            error_model.characterize_timing_errors,
            lambda args, kwargs: "timing.characterize."
            + kwargs.get("arrival_model", "event"),
        ),
    )

    # circuits: the accumulate_errors of every registered backend singleton
    # (whichever resolve_backend returns is the one that runs).
    for backend_name in BACKENDS:
        backend = get_backend(backend_name)

        def count_lanes(args, kwargs, backend_name=backend_name):
            unit, vectors = args[0], args[2]
            lanes = len(vectors) - 1
            tracer.count(f"circuits.lanes.{backend_name}", lanes)
            if backend_name in LEVELIZED_BACKENDS:
                tracer.count("circuits.gate_lanes", lanes * len(unit.netlist.gates))

        tracer._patch(
            backend,
            "accumulate_errors",
            tracer._wrap(backend.accumulate_errors, f"circuits.accumulate.{backend_name}", count_lanes),
        )

    # power: glitch-aware switching activity.
    tracer._patch(
        switching,
        "estimate_switching_activity",
        tracer._wrap(switching.estimate_switching_activity, "power.switching"),
    )

    # set-up products.
    tracer._wrap_classmethod(AgingAwareLibrarySet, "generate", "aging.library")
    tracer._wrap_classmethod(SyntheticImageDataset, "generate", "nn.dataset")
    tracer._patch(zoo, "build_model", tracer._wrap(zoo.build_model, "nn.build_model"))


# ------------------------------------------------------------------ analysis
def span_totals(spans) -> tuple[dict[str, float], dict[str, float]]:
    """Total and self time per span name.

    Self time is a span's duration minus the durations of its direct
    children; children never outlive their parent, so this is exactly the
    part of the span no child covers.
    """
    total: defaultdict[str, float] = defaultdict(float)
    child_time: defaultdict[int, float] = defaultdict(float)
    for span_id, parent, _, name, start, end in spans:
        total[name] += end - start
        if parent:
            child_time[parent] += end - start
    self_time: defaultdict[str, float] = defaultdict(float)
    for span_id, _, _, name, start, end in spans:
        self_time[name] += (end - start) - child_time.get(span_id, 0.0)
    return dict(total), dict(self_time)


def layer_metrics(spans, counts: dict[str, float], rounds: int) -> dict[str, float]:
    """Per-layer metrics of the traced timed rounds, per round."""
    total, self_time = span_totals(spans)
    per_round = 1.0 / rounds

    def seconds(name: str) -> float:
        return total.get(name, 0.0) * per_round

    def counted(name: str) -> float:
        return counts.get(name, 0.0) * per_round

    metrics = {
        "nn.forward_s": seconds("nn.forward"),
        "nn.images": counted("nn.images"),
        "nn.macs": counted("nn.macs"),
        "nn.im2col_s": seconds("nn.im2col"),
        "nn.linear_s": seconds("nn.linear"),
        "nn.gemm_self_s": self_time.get("nn.linear", 0.0) * per_round,
        "nn.faults.deltas_s": seconds("nn.faults.deltas"),
        "nn.faults.calls": counted("nn.faults.calls"),
    }
    metrics["nn.ns_per_mac"] = _ratio(metrics["nn.forward_s"] * 1e9, metrics["nn.macs"])
    for phase in ("infer", "calib"):
        metrics[f"quantization.quantize_s.{phase}"] = seconds(f"quantization.quantize.{phase}")
        metrics[f"quantization.quantize_calls.{phase}"] = counted(
            f"quantization.quantize_calls.{phase}"
        )
    for method in METHODS:
        metrics[f"quantization.calibrate_s.{method}"] = seconds(f"quantization.calibrate.{method}")
    metrics["core.select_compression_s"] = seconds("core.select_compression")
    metrics["core.quantize_model_s"] = seconds("core.quantize_model")
    metrics["timing.case_analysis_delays_s"] = seconds("timing.case_analysis_delays")
    metrics["timing.sta_passes"] = counted("timing.sta_passes")
    metrics["timing.characterize_s.transition"] = seconds("timing.characterize.transition")
    metrics["timing.characterize_s.event"] = seconds("timing.characterize.event")
    for backend in BACKENDS:
        metrics[f"circuits.accumulate_s.{backend}"] = seconds(f"circuits.accumulate.{backend}")
        metrics[f"circuits.lanes.{backend}"] = counted(f"circuits.lanes.{backend}")
    levelized_s = sum(metrics[f"circuits.accumulate_s.{name}"] for name in LEVELIZED_BACKENDS)
    metrics["circuits.ns_per_gate_lane"] = _ratio(levelized_s * 1e9, counted("circuits.gate_lanes"))
    metrics["circuits.wheel_events"] = counted("circuits.wheel_events")
    wheel_s = metrics["circuits.accumulate_s.event"] + seconds("power.switching")
    metrics["circuits.wheel_events_per_s"] = _ratio(metrics["circuits.wheel_events"], wheel_s)
    metrics["power.switching_s"] = seconds("power.switching")
    return metrics


def setup_metrics(spans, setups: int) -> dict[str, float]:
    """Per-set-up time of the set-up products' builders."""
    total, _ = span_totals(spans)
    return {
        name: total.get(span, 0.0) / setups
        for name, span in (
            ("aging.library_s", "aging.library"),
            ("nn.dataset_s", "nn.dataset"),
            ("nn.build_model_s", "nn.build_model"),
        )
    }


def unit_of(name: str) -> str:
    """A per-layer metric's unit, from the naming convention of :func:`layer_metrics`."""
    if name.endswith("_per_s"):
        return "1/s"
    if ".ns_per_" in name:
        return "ns"
    if name == "bench.trace_overhead":
        return "1"
    if any(part.endswith("_s") for part in name.split(".")):
        return "s"
    return "count"


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# -------------------------------------------------------------------- export
def write_chrome_trace(path: Path, spans, other: dict) -> None:
    """Write ``spans`` as Chrome trace-event JSON (loadable in Perfetto)."""
    origin = min((span[4] for span in spans), default=0.0)
    pid = os.getpid()
    events = [
        {"name": "process_name", "ph": "M", "pid": pid, "tid": 1, "args": {"name": "perfbench"}}
    ]
    for span_id, parent, op_id, name, start, end in sorted(spans, key=lambda span: span[4]):
        events.append(
            {
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "X",
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": pid,
                "tid": 1,
                "args": {"op": op_id, "span_id": span_id, "parent_id": parent},
            }
        )
    path.parent.mkdir(parents=True, exist_ok=True)
    temporary = path.with_suffix(".tmp")
    temporary.write_text(
        json.dumps({"traceEvents": events, "displayTimeUnit": "ms", "otherData": other})
    )
    temporary.replace(path)
