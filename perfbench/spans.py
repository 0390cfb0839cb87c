"""Span recording for the traced benchmark run, and the per-layer analysis.

The traced run wraps the public entry points of each ``repro`` layer
(module or class attributes) for the duration of the traced passes only.
Every call becomes one span: name, start, end and the span that was open
when it began.  Spans live in flat arrays in memory and are written once,
at the end of the run, to one ``.npz`` file; :func:`layer_metrics`
derives every per-layer number from that file alone.

A layer's time is its *self* time: the span's duration minus the
durations of its child spans.  Self times therefore partition each traced
pass: the layer times plus ``other_s`` (the self time of the pass root,
which no layer span covers) add up to the traced pass's wall time.
"""

from __future__ import annotations

import contextlib
import inspect
import json
from array import array
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Tuple

import numpy as np

#: Root span of one pass run without layer wrappers.
UNTRACED_PASS = "pass.untraced"
#: Root span of one pass run with every layer wrapped.
TRACED_PASS = "pass.traced"


class Tracer:
    """Flat in-memory span store with a single open-span stack.

    One stack is correct here because every workload runs in one thread,
    and the only coroutine that holds a span open across an ``await`` is
    the single fleet producer: worker batches that run while it waits are
    recorded as its children, which is where their time went.
    """

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self._name = array("H")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        #: Event counts gathered by wrappers (e.g. untouched frames).
        self.counts: Dict[str, int] = {}
        #: Per-pass program counters, attached by the runner.
        self.pass_counters: List[Dict[str, float]] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, nid: int) -> int:
        idx = len(self._name)
        self._name.append(nid)
        self._parent.append(self._stack[-1])
        self._end.append(0.0)
        self._stack.append(idx)
        self._start.append(perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self._end[idx] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        idx = self.begin(self.name_id(name))
        try:
            yield
        finally:
            self.finish(idx)

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------

    def wrap(self, name: str, func: Callable) -> Callable:
        """``func`` recording one span per call (coroutines included)."""
        nid = self.name_id(name)
        begin, finish = self.begin, self.finish
        if inspect.iscoroutinefunction(func):

            async def traced_async(*args, **kwargs):
                idx = begin(nid)
                try:
                    return await func(*args, **kwargs)
                finally:
                    finish(idx)

            return traced_async

        def traced(*args, **kwargs):
            idx = begin(nid)
            try:
                return func(*args, **kwargs)
            finally:
                finish(idx)

        return traced

    def wrap_iterator(self, name: str, func: Callable) -> Callable:
        """``func`` returning an iterator whose every ``next`` is a span.

        Lazy producers (the fleet's ``heapq.merge``) do their work when
        iterated, not when called, so each step is timed instead.
        """
        nid = self.name_id(name)
        begin, finish = self.begin, self.finish

        def traced(*args, **kwargs):
            iterator = iter(func(*args, **kwargs))
            while True:
                idx = begin(nid)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    finish(idx)
                yield item

        return traced

    def wrap_tap(self, name: str, func: Callable) -> Callable:
        """A CAN frame tap wrapper that also counts untouched payloads."""
        nid = self.name_id(name)
        begin, finish, counts = self.begin, self.finish, self.counts
        counts.setdefault("tap.calls", 0)
        counts.setdefault("tap.untouched", 0)

        def traced(harness, message, data, timestamp):
            idx = begin(nid)
            try:
                out = func(harness, message, data, timestamp)
            finally:
                finish(idx)
            counts["tap.calls"] += 1
            if out == data:
                counts["tap.untouched"] += 1
            return out

        return traced

    # ------------------------------------------------------------------

    def write(self, path: str) -> None:
        """Write every span and count to ``path`` (an ``.npz`` file)."""
        n = len(self._name)
        np.savez(
            path,
            name=np.frombuffer(self._name, dtype=np.uint16, count=n),
            start=np.frombuffer(self._start, dtype=np.float64, count=n),
            end=np.frombuffer(self._end, dtype=np.float64, count=n),
            parent=np.frombuffer(self._parent, dtype=np.int32, count=n),
            workload=np.zeros(n, dtype=np.uint8),
            names=np.array(self.names),
            workloads=np.array([self.workload]),
            meta=np.array(
                json.dumps(
                    {"counts": self.counts, "pass_counters": self.pass_counters}
                )
            ),
        )


# ----------------------------------------------------------------------
# Layer wrapping
# ----------------------------------------------------------------------


def _layer_targets() -> List[Tuple[object, str, str, str]]:
    """(owner, attribute, span name, wrapper kind) for every wrapped entry.

    Module attributes are patched where they are *looked up*: the
    monitor and the online monitor import the evaluator's entry points by
    name, so patching them there times top-level rule evaluations only,
    not the evaluator's own recursion.
    """
    import repro.core.monitor as monitor_mod
    import repro.core.online as online_mod
    import repro.fleet.replay as replay_mod
    import repro.fleet.service as service_mod
    from repro.acc.controller import FsraccController
    from repro.can.bus import CanBus
    from repro.can.database import CanDatabase
    from repro.fleet.service import FleetService
    from repro.fleet.shard import StreamShard
    from repro.hil.injection import InjectionHarness
    from repro.hil.simulator import HilSimulator
    from repro.hil.tracing import TraceRecorder
    from repro.logs.store import StoredTrace, TraceStore
    from repro.logs.trace import StreamTrace, Trace
    from repro.vehicle.driver import DriverScript
    from repro.vehicle.dynamics import LongitudinalCar
    from repro.vehicle.lead import LeadVehicle
    from repro.vehicle.sensors import RangeSensor

    return [
        (LongitudinalCar, "step", "vehicle.step", "call"),
        (LeadVehicle, "step", "vehicle.step", "call"),
        (DriverScript, "step", "vehicle.step", "call"),
        (RangeSensor, "measure", "vehicle.step", "call"),
        (FsraccController, "step", "acc.step", "call"),
        (CanDatabase, "encode", "can.encode", "call"),
        (CanDatabase, "decode", "can.decode", "call"),
        (CanBus, "step", "can.bus", "call"),
        (InjectionHarness, "tap", "hil.tap", "tap"),
        (TraceRecorder, "on_frame", "hil.record", "call"),
        (HilSimulator, "step", "hil.step", "call"),
        (InjectionHarness, "inject_value", "testing.inject", "call"),
        (InjectionHarness, "inject_bitflips", "testing.inject", "call"),
        (monitor_mod.Monitor, "check", "testing.check", "call"),
        (TraceStore, "open", "logs.store_open", "call"),
        (Trace, "to_view", "logs.resample", "call"),
        (StreamTrace, "to_view", "logs.resample", "call"),
        (StoredTrace, "to_view", "logs.resample", "call"),
        (monitor_mod, "evaluate_formula", "core.eval", "call"),
        (monitor_mod, "evaluate_robustness", "core.robustness", "call"),
        (monitor_mod, "extract_violations", "core.postprocess", "call"),
        (monitor_mod, "apply_filters", "core.postprocess", "call"),
        (monitor_mod, "annotate_margins", "core.postprocess", "call"),
        (monitor_mod.Monitor, "check_batch", "core.check_batch", "call"),
        (replay_mod, "interleave", "fleet.merge", "iterator"),
        (FleetService, "submit", "fleet.submit", "call"),
        (StreamShard, "feed_batch", "fleet.feed_batch", "call"),
        (online_mod, "evaluate_formula", "fleet.chunk_eval", "call"),
        (online_mod, "evaluate_robustness", "fleet.chunk_eval", "call"),
        (FleetService, "close", "fleet.close", "call"),
        (service_mod, "fleet_rollup", "fleet.rollup", "call"),
    ]


@contextlib.contextmanager
def patched(owner: object, attribute: str, replace: Callable[[Callable], Callable]) -> Iterator[None]:
    """Replace ``owner.attribute`` with ``replace(original)`` for the block.

    Class-level ``classmethod``/``staticmethod`` descriptors are
    unwrapped, wrapped and re-wrapped so the replacement binds the same
    way the original did.
    """
    raw = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
    if isinstance(raw, classmethod):
        new: object = classmethod(replace(raw.__func__))
    elif isinstance(raw, staticmethod):
        new = staticmethod(replace(raw.__func__))
    else:
        new = replace(raw)
    setattr(owner, attribute, new)
    try:
        yield
    finally:
        setattr(owner, attribute, raw)


@contextlib.contextmanager
def layers_wrapped(tracer: Tracer) -> Iterator[None]:
    """Wrap every layer entry point in ``tracer`` spans for the block."""
    kinds = {
        "call": tracer.wrap,
        "iterator": tracer.wrap_iterator,
        "tap": tracer.wrap_tap,
    }
    with contextlib.ExitStack() as stack:
        for owner, attribute, name, kind in _layer_targets():
            factory = kinds[kind]
            stack.enter_context(
                patched(owner, attribute, lambda f, n=name, k=factory: k(n, f))
            )
        yield


# ----------------------------------------------------------------------
# Analysis — everything below reads the span file only
# ----------------------------------------------------------------------

#: Per-layer self-time metrics: metric name -> the span names it sums.
SELF_TIME_METRICS: Dict[str, Tuple[str, ...]] = {
    "vehicle.step_s": ("vehicle.step",),
    "acc.step_s": ("acc.step",),
    "can.encode_s": ("can.encode",),
    "can.decode_s": ("can.decode",),
    "can.bus_self_s": ("can.bus",),
    "hil.tap_s": ("hil.tap",),
    "hil.record_s": ("hil.record",),
    "hil.step_self_s": ("hil.step",),
    "testing.inject_s": ("testing.inject",),
    "testing.check_s": ("testing.check",),
    "logs.store_open_s": ("logs.store_open",),
    "logs.resample_s": ("logs.resample",),
    "core.eval_s": ("core.eval",),
    "core.robustness_s": ("core.robustness",),
    "core.postprocess_s": ("core.postprocess",),
    "core.check_self_s": ("core.check_batch",),
    "fleet.merge_s": ("fleet.merge",),
    "fleet.submit_self_s": ("fleet.submit",),
    "fleet.buffer_s": ("fleet.feed_batch",),
    "fleet.chunk_eval_s": ("fleet.chunk_eval",),
    "fleet.rollup_s": ("fleet.close", "fleet.rollup"),
    "other_s": (TRACED_PASS,),
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(path: str) -> Dict[str, float]:
    """Every per-layer metric, per traced pass, from one span file."""
    with np.load(path) as data:
        names = [str(name) for name in data["names"]]
        name = data["name"]
        duration = data["end"] - data["start"]
        parent = data["parent"]
        meta = json.loads(str(data["meta"]))
    has_parent = parent >= 0
    child_time = np.bincount(
        parent[has_parent], weights=duration[has_parent], minlength=len(name)
    )
    self_time = duration - child_time
    self_by_name = np.bincount(name, weights=self_time, minlength=len(names))
    calls_by_name = np.bincount(name, minlength=len(names))

    def total(span_name: str) -> float:
        return float(self_by_name[names.index(span_name)]) if span_name in names else 0.0

    def durations(span_name: str) -> np.ndarray:
        if span_name not in names:
            return np.empty(0)
        return duration[name == names.index(span_name)]

    traced = durations(TRACED_PASS)
    untraced = durations(UNTRACED_PASS)
    if traced.size == 0 or untraced.size == 0:
        raise ValueError("span file %s lacks traced or untraced passes" % path)
    passes = traced.size
    metrics = {
        metric: sum(total(span) for span in spans) / passes
        for metric, spans in SELF_TIME_METRICS.items()
    }
    steps = calls_by_name[names.index("hil.step")] if "hil.step" in names else 0
    metrics["hil.steps"] = steps / passes

    counters: Dict[str, float] = {}
    for per_pass in meta["pass_counters"]:
        for key, value in per_pass.items():
            counters[key] = counters.get(key, 0) + value
    counters = {key: value / passes for key, value in counters.items()}
    counts = meta["counts"]

    def counter(key: str) -> float:
        return counters.get(key, 0.0)

    metrics["can.frames"] = counter("frames_sent")
    metrics["can.untouched_frac"] = _ratio(
        counts.get("tap.untouched", 0), counts.get("tap.calls", 0)
    )
    metrics["core.stacked_frac"] = _ratio(
        counter("batch_traces") - counter("monitor.batch.fallback_traces"),
        counter("monitor.checks"),
    )
    metrics["core.violations"] = counter("monitor.violations")
    metrics["core.dismissed"] = counter("monitor.dismissed")
    metrics["fleet.blocked_frac"] = _ratio(
        counter("fleet.backpressure_blocked"), counter("fleet.events_submitted")
    )
    metrics["fleet.batches"] = counter("fleet.batches")
    metrics["fleet.batch_events_mean"] = _ratio(
        counter("fleet.events_submitted"), counter("fleet.batches")
    )
    metrics["core.online_chunks"] = counter("online.chunks")
    metrics["trace_overhead_frac"] = float(
        np.median(traced) / np.median(untraced) - 1.0
    )
    return metrics


def span_file_summary(path: str) -> str:
    """A one-line description of a span file, for the run's log."""
    with np.load(path) as data:
        return "%d spans of %s in %s" % (
            data["name"].size,
            ", ".join(str(w) for w in data["workloads"]),
            path,
        )
