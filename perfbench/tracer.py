"""Span recorder for the traced run, installed from outside the program.

The program under test carries no instrumentation.  :class:`Tracer`
wraps the public entry points of each layer — class methods and the
envelope kernels at every module that imported them — records one span
per call (name, start, end, parent span, request id, work size), and
restores the originals on :meth:`Tracer.uninstall`.  Spans stay in
memory until the run ends; :func:`layer_metrics` turns them, together
with the program's own counters, into the per-layer metrics.

Request ids: the outermost admit or release call (the controller's
``request``/``release``, the service's ``submit_*`` or the front-end's
``handle_request``) names its request ``admit:<conn_id>`` or
``release:<conn_id>``; every span nested under it inherits that id.
"""

from __future__ import annotations

import asyncio
import functools
import json
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.cac import AdmissionController
from repro.core.delay import DelayAnalyzer
from repro.core.incremental import IncrementalDelayEngine
from repro.envelopes.curve import Curve, sum_curves
from repro.envelopes.operations import busy_interval, deconvolve, horizontal_deviation
from repro.envelopes.staircase import ceiling_quantize
from repro.fddi.mac_server import FDDIMacServer
from repro.interface_device.cell_frame import CellFrameConversionServer
from repro.interface_device.frame_cell import FrameCellConversionServer
from repro.service import frontend
from repro.service.journal import JournalStore
from repro.service.server import AdmissionService

from stats import median, percentile, ratio

perf_counter = time.perf_counter
MS = 1000.0

#: Envelope kernels, wrapped wherever a ``repro`` module bound them.
KERNELS: Dict[str, Callable[..., Any]] = {
    "sum_curves": sum_curves,
    "busy_interval": busy_interval,
    "horizontal_deviation": horizontal_deviation,
    "deconvolve": deconvolve,
    "ceiling_quantize": ceiling_quantize,
}

#: (class, method, span name) of the synchronous layer boundaries.
METHODS: Tuple[Tuple[type, str, str], ...] = (
    (AdmissionController, "request", "cac.request"),
    (AdmissionController, "release", "cac.release"),
    (AdmissionController, "refresh_bounds", "cac.refresh_bounds"),
    (AdmissionController, "check_feasible", "policies.probe"),
    (IncrementalDelayEngine, "compute_with_resources", "incremental"),
    (DelayAnalyzer, "compute_with_resources", "delay"),
    (FDDIMacServer, "analyze", "fddi.mac_server"),
    (FrameCellConversionServer, "analyze", "interface_device.frame_cell"),
    (CellFrameConversionServer, "analyze", "interface_device.cell_frame"),
    (JournalStore, "append", "service.journal.append"),
    (JournalStore, "write_snapshot", "service.snapshot"),
)

#: Span name -> how the outermost call names its request.
_REQUEST_IDS: Dict[str, Callable[[tuple], str]] = {
    "cac.request": lambda args: f"admit:{args[1].conn_id}",
    "cac.release": lambda args: f"release:{args[1]}",
}


def _segments(curve: Any) -> int:
    return len(curve.xs) if isinstance(curve, Curve) else 0


def _work(name: str, args: tuple, result: Any) -> Any:
    """The work size a span records: input breakpoints for a kernel,
    loads for an analysis, (probes, admitted) for a decision and
    feasibility for a probe."""
    if name == "sum_curves":
        return float(sum(_segments(c) for c in args[0]))
    if name in KERNELS:
        return float(sum(_segments(a) for a in args))
    if name in ("delay", "incremental"):
        return float(len(args[1]))
    if name == "cac.request":
        return (result.n_probes, result.admitted)
    if name == "policies.probe":
        return result is not None
    return None


class _TimedJson:
    """Stand-in for the front-end's ``json`` module that times the codec."""

    def __init__(self, tracer: "Tracer") -> None:
        self._tracer = tracer

    def _timed(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            task = asyncio.current_task()
            self._tracer.codec[id(task)].append(perf_counter() - t0)

    def loads(self, *args: Any, **kwargs: Any) -> Any:
        return self._timed(json.loads, *args, **kwargs)

    def dumps(self, *args: Any, **kwargs: Any) -> Any:
        return self._timed(json.dumps, *args, **kwargs)


class Tracer:
    """In-memory span recorder over the program's layer boundaries."""

    def __init__(self) -> None:
        #: [name, start, end, parent index, request id, work]
        self.spans: List[List[Any]] = []
        #: Spans of coroutines (they interleave, so they carry no parent).
        self.async_spans: List[List[Any]] = []
        #: Per front-end task: json codec durations, in call order.
        self.codec: Dict[int, List[float]] = defaultdict(list)
        #: Per front-end task: (handle_request span, request id), in order.
        self.handled: Dict[int, List[Tuple[float, str]]] = defaultdict(list)
        self._stack: List[int] = []
        self._rid: Optional[str] = None
        self._undo: List[Tuple[Any, str, Any]] = []

    # -- installation ----------------------------------------------------

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        for cls, method, name in METHODS:
            self._patch(cls, method, self._wrap(name, getattr(cls, method)))
        for name, original in KERNELS.items():
            wrapped = self._wrap(name, original)
            for mod_name, module in list(sys.modules.items()):
                if not mod_name.startswith("repro") or module is None:
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapped)
        for method in ("submit_admit", "submit_release"):
            self._patch(
                AdmissionService,
                method,
                self._wrap_async(
                    f"service.{method}", getattr(AdmissionService, method)
                ),
            )
        self._patch(frontend, "handle_request", self._wrap_handler(frontend.handle_request))
        self._patch(frontend, "json", _TimedJson(self))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- wrappers --------------------------------------------------------

    def _wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        tracer = self
        spans = self.spans
        stack = self._stack
        request_id = _REQUEST_IDS.get(name)

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if name == "sum_curves":
                args = (list(args[0]),) + args[1:]
            idx = len(spans)
            parent = stack[-1] if stack else -1
            owns_rid = request_id is not None and parent == -1
            if owns_rid:
                tracer._rid = request_id(args)
            span = [name, 0.0, 0.0, parent, tracer._rid, None]
            spans.append(span)
            stack.append(idx)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
                if owns_rid:
                    tracer._rid = None
            span[5] = _work(name, args, result)
            return result

        return wrapper

    def _wrap_async(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        kind = "admit" if name.endswith("admit") else "release"
        spans = self.async_spans

        @functools.wraps(fn)
        async def wrapper(service: Any, target: Any, *args: Any, **kwargs: Any) -> Any:
            conn_id = target if kind == "release" else target.conn_id
            t0 = perf_counter()
            try:
                return await fn(service, target, *args, **kwargs)
            finally:
                spans.append([name, t0, perf_counter(), -1, f"{kind}:{conn_id}", None])

        return wrapper

    def _wrap_handler(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        handled = self.handled

        @functools.wraps(fn)
        async def wrapper(service: Any, payload: Dict[str, Any]) -> Any:
            t0 = perf_counter()
            try:
                return await fn(service, payload)
            finally:
                rid = f"{payload.get('op')}:{payload.get('conn_id', '')}"
                handled[id(asyncio.current_task())].append((perf_counter() - t0, rid))

        return wrapper

    def write(self, path: str) -> None:
        """Write every span as one JSON line (run end only)."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            for span in self.async_spans:
                fh.write(json.dumps(span) + "\n")


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------


def _p50_ms(values: List[float]) -> float:
    return median(values) * MS if values else 0.0


def layer_metrics(
    tracer: Tracer,
    counters: Dict[str, float],
    timed_wall_s: float,
) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics from the spans plus the program's own counters.

    ``counters`` holds the deltas over the traced phase of the program's
    counters (``cache_stats()``, the engine's ``stats()``, the simulator's
    event count, the service's metrics) as gathered by the workload.
    """
    spans = tracer.spans
    by_name: Dict[str, List[List[Any]]] = defaultdict(list)
    for span in spans:
        by_name[span[0]].append(span)
    child_time: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span[3] >= 0:
            child_time[span[3]] += span[2] - span[1]

    def durations(name: str) -> List[float]:
        return [s[2] - s[1] for s in by_name[name]]

    def self_times(name: str) -> List[float]:
        return [
            s[2] - s[1] - child_time[i]
            for i, s in enumerate(spans)
            if s[0] == name
        ]

    out: Dict[str, Tuple[float, str]] = {}
    requests = by_name["cac.request"]
    releases = by_name["cac.release"]
    top_cac = sum(
        s[2] - s[1] for s in requests + releases if s[3] == -1
    )
    out["sim.events"] = (counters.get("sim.events", 0.0), "count")
    out["sim.harness_s"] = (timed_wall_s - top_cac, "s")
    out["sim.timed_s"] = (timed_wall_s, "s")
    out["sim.harness_share"] = (ratio(timed_wall_s - top_cac, timed_wall_s), "fraction")

    out["cac.request.calls"] = (float(len(requests)), "count")
    out["cac.request.self_ms_p50"] = (_p50_ms(self_times("cac.request")), "ms")
    out["cac.release.calls"] = (float(len(releases)), "count")
    out["cac.release.ms_p50"] = (_p50_ms(durations("cac.release")), "ms")
    out["cac.refresh_bounds.ms_p50"] = (_p50_ms(durations("cac.refresh_bounds")), "ms")

    decided = [s[5] for s in requests if s[5] is not None]
    admitted_probes = [n for n, admitted in decided if admitted]
    probes_all = [n for n, _ in decided]
    probe_spans = by_name["policies.probe"]
    feasible = sum(1 for s in probe_spans if s[5] is True)
    early = sum(1 for p in probes_all if p <= 1)
    out["policies.probes_per_admit_p50"] = (
        float(median(admitted_probes)) if admitted_probes else 0.0,
        "count",
    )
    out["policies.probes"] = (float(sum(probes_all)), "count")
    out["policies.requests"] = (float(len(probes_all)), "count")
    out["policies.probes_per_request"] = (ratio(sum(probes_all), len(probes_all)), "count")
    out["policies.early_rejects"] = (float(early), "count")
    out["policies.early_reject_fraction"] = (ratio(early, len(probes_all)), "fraction")
    out["policies.feasible_probes"] = (float(feasible), "count")
    out["policies.probe_calls"] = (float(len(probe_spans)), "count")
    out["policies.feasible_probe_fraction"] = (ratio(feasible, len(probe_spans)), "fraction")
    out["policies.probe_ms_p50"] = (_p50_ms(durations("policies.probe")), "ms")

    out["incremental.calls"] = (float(len(by_name["incremental"])), "count")
    out["incremental.self_ms_p50"] = (_p50_ms(self_times("incremental")), "ms")
    reused = counters.get("incremental.loads_reused", 0.0)
    computed = counters.get("incremental.loads_computed", 0.0)
    out["incremental.loads_reused"] = (reused, "count")
    out["incremental.loads_total"] = (reused + computed, "count")
    out["incremental.reuse_fraction"] = (ratio(reused, reused + computed), "fraction")
    out["incremental.partial_computations"] = (
        counters.get("incremental.partial_computations", 0.0),
        "count",
    )
    out["incremental.full_computations"] = (
        counters.get("incremental.full_computations", 0.0),
        "count",
    )

    delay = by_name["delay"]
    loads = sum(s[5] or 0.0 for s in delay)
    out["delay.calls"] = (float(len(delay)), "count")
    out["delay.ms_p50"] = (_p50_ms(durations("delay")), "ms")
    out["delay.loads"] = (loads, "count")
    out["delay.loads_per_call"] = (ratio(loads, len(delay)), "count")
    for cache in ("stage", "envelope", "segment", "chain"):
        hits = counters.get(f"delay.cache.{cache}.hits", 0.0)
        lookups = hits + counters.get(f"delay.cache.{cache}.misses", 0.0)
        out[f"delay.cache.{cache}.hits"] = (hits, "count")
        out[f"delay.cache.{cache}.lookups"] = (lookups, "count")
        out[f"delay.cache.{cache}.hit_rate"] = (ratio(hits, lookups), "fraction")
        out[f"delay.cache.{cache}.size"] = (
            counters.get(f"delay.cache.{cache}.size", 0.0),
            "count",
        )

    for name in (
        "fddi.mac_server",
        "interface_device.frame_cell",
        "interface_device.cell_frame",
    ) + tuple(f"envelopes.{k}" for k in KERNELS):
        key = name.split(".", 1)[1] if name.startswith("envelopes.") else name
        durs = durations(key)
        out[f"{name}.calls"] = (float(len(durs)), "count")
        out[f"{name}.ms_total"] = (sum(durs) * MS, "ms")
    segments = [s[5] for k in KERNELS for s in by_name[k] if s[5] is not None]
    out["envelopes.segments_in_p50"] = (median(segments) if segments else 0.0, "count")

    out.update(_service_metrics(tracer, counters))
    return out


def _service_metrics(
    tracer: Tracer, counters: Dict[str, float]
) -> Dict[str, Tuple[float, str]]:
    submits = {s[4]: s for s in tracer.async_spans}
    decision_start: Dict[str, float] = {}
    for span in tracer.spans:
        if span[0] in ("cac.request", "cac.release") and span[3] == -1:
            decision_start.setdefault(span[4], span[1])
    waits = [
        decision_start[rid] - s[1]
        for rid, s in submits.items()
        if rid in decision_start
    ]
    codec: List[float] = []
    for task, handled in tracer.handled.items():
        json_times = tracer.codec.get(task, [])
        for i, (handle_s, rid) in enumerate(handled):
            submit = submits.get(rid)
            inner = submit[2] - submit[1] if submit is not None else 0.0
            # handle_connection: json.loads -> handle_request -> json.dumps.
            around = sum(json_times[2 * i : 2 * i + 2])
            codec.append(handle_s - inner + around)
    appends = [s[2] - s[1] for s in tracer.spans if s[0] == "service.journal.append"]
    snapshots = [s[2] - s[1] for s in tracer.spans if s[0] == "service.snapshot"]
    journal_bytes = counters.get("service.journal.bytes", 0.0)
    out: Dict[str, Tuple[float, str]] = {
        "service.decide_ms_p50": (counters.get("service.decide_ms_p50", 0.0), "ms"),
        "service.queue_wait_ms_p50": (_p50_ms(waits), "ms"),
        "service.queue_wait_ms_p90": (
            percentile(waits, 0.9) * MS if len(waits) >= 100 else 0.0,
            "ms",
        ),
        "service.codec_ms_p50": (_p50_ms(codec), "ms"),
        "service.journal.append.calls": (float(len(appends)), "count"),
        "service.journal.append.ms_p50": (_p50_ms(appends), "ms"),
        "service.journal.bytes": (journal_bytes, "bytes"),
        "service.journal.append.bytes_per_op": (ratio(journal_bytes, len(appends)), "bytes"),
        "service.snapshot.calls": (float(len(snapshots)), "count"),
        "service.snapshot.ms_total": (sum(snapshots) * MS, "ms"),
    }
    for key in ("shards", "merges", "queue_high_water", "ladder_transitions"):
        out[f"service.{key}"] = (counters.get(f"service.{key}", 0.0), "count")
    return out
