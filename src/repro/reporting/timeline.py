"""Chrome-trace export of cold-start schedules and whole cluster runs.

The paper inspects stage overlap with NVIDIA Nsight Systems (§7.3); the
closest open equivalent for this reproduction is the Chrome trace-event
format (``chrome://tracing`` / Perfetto).  Each strategy's scheduled
LoadPlan timeline becomes one track of complete events per resource lane,
so the async overlap, the bubble, and Medusa's warm-up/restore split are
visually inspectable.

Since the cluster simulators run on the :mod:`repro.sim` event kernel,
their :class:`repro.sim.TraceRecorder` log renders the same way: one
unified trace of a whole simulated run — arrivals, per-stage cold starts,
serving steps, ladder-rung events, cancellations, retirements — with one
thread row per instance (:func:`simulation_trace_events`).
"""

from __future__ import annotations

import json
from typing import Dict, List, Sequence

from repro.engine.engine import ColdStartReport
from repro.engine.lanes import Lane
from repro.sim import TraceRecorder

#: Track rows: stages on the same resource lane share a thread id.
_LANE_TRACKS = {
    Lane.CPU.value: 1,
    Lane.PCIE.value: 2,
    Lane.DISK.value: 2,     # IO (SSD -> host -> device) shares the PCIe row
    Lane.GPU_COMPUTE.value: 3,
}

_MICRO = 1_000_000

#: Placement-layer marks describe node cache traffic, not one instance's
#: lifecycle: render them process-scoped (the vertical line spans every
#: thread row) and color-coded so hits, misses, and evictions are
#: tellable apart at a glance in Perfetto.
_PLACEMENT_CNAMES = {
    "artifact_promoted": "good",
    "artifact_evicted": "terrible",
}


def _placement_style(label: str, args: Dict) -> Dict:
    """Scope/color overrides for artifact placement instant events."""
    if label == "artifact_fetch":
        return {"s": "p", "cname": "good" if args.get("hit") else "bad"}
    if label in _PLACEMENT_CNAMES:
        return {"s": "p", "cname": _PLACEMENT_CNAMES[label]}
    return {}


def to_trace_events(report: ColdStartReport,
                    pid: int = 0) -> List[Dict]:
    """The report's timeline as Chrome 'X' (complete) events.

    Each event's ``args`` carries the stage's resource lane and whether
    the scheduler placed it on the cold start's critical path, so the
    Perfetto view answers "what would shrinking this stage buy?" directly.
    """
    events: List[Dict] = [{
        "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
        "args": {"name": f"{report.model} / {report.strategy.label}"},
    }]
    for stage in report.timeline.stages:
        if stage.duration <= 0:
            continue
        events.append({
            "name": stage.name,
            "ph": "X",
            "pid": pid,
            "tid": _LANE_TRACKS[stage.lane],
            "ts": stage.start * _MICRO,
            "dur": stage.duration * _MICRO,
            "args": {"seconds": round(stage.duration, 6),
                     "lane": stage.lane,
                     "critical": stage.critical},
        })
    return events


def export_chrome_trace(reports: Sequence[ColdStartReport]) -> str:
    """A complete Chrome trace JSON for one or more cold starts."""
    events: List[Dict] = []
    for pid, report in enumerate(reports):
        events.extend(to_trace_events(report, pid=pid))
    return json.dumps({"traceEvents": events,
                       "displayTimeUnit": "ms"})


def save_chrome_trace(reports: Sequence[ColdStartReport], path) -> int:
    """Write the Chrome trace to ``path``; returns its byte size."""
    text = export_chrome_trace(reports)
    with open(path, "w") as handle:
        handle.write(text)
    return len(text)


def simulation_trace_events(trace: TraceRecorder,
                            name: str = "cluster") -> List[Dict]:
    """One simulated cluster run's event-kernel trace as Chrome events.

    Every span (cold-start stage, serving step) becomes a complete 'X'
    event and every mark (arrival, readiness, ladder rung, cancellation,
    retirement) an instant 'i' event; tracks (one per instance, plus the
    router) map to thread rows in first-appearance order, named via
    metadata events so Perfetto labels them.
    """
    tids: Dict[str, int] = {}
    events: List[Dict] = [{
        "name": "process_name", "ph": "M", "pid": 0, "tid": 0,
        "args": {"name": name},
    }]

    def _tid(track: str) -> int:
        if track not in tids:
            tids[track] = len(tids) + 1
            events.append({
                "name": "thread_name", "ph": "M", "pid": 0,
                "tid": tids[track], "args": {"name": track or "events"},
            })
        return tids[track]

    for span, track, args in zip(trace.spans, trace.tracks, trace.args):
        if span.duration <= 0:
            continue
        events.append({
            "name": span.label,
            "ph": "X",
            "pid": 0,
            "tid": _tid(track),
            "ts": span.start * _MICRO,
            "dur": span.duration * _MICRO,
            "args": dict(args, seconds=round(span.duration, 6)),
        })
    for label, time, track, args in trace.marks:
        event = {
            "name": label,
            "ph": "i",
            "s": "t",
            "pid": 0,
            "tid": _tid(track),
            "ts": time * _MICRO,
            "args": dict(args),
        }
        event.update(_placement_style(label, event["args"]))
        events.append(event)
    return events


def export_simulation_trace(trace: TraceRecorder,
                            name: str = "cluster") -> str:
    """A complete Chrome trace JSON for one simulated cluster run."""
    return json.dumps({"traceEvents": simulation_trace_events(trace,
                                                              name=name),
                       "displayTimeUnit": "ms"})


def save_simulation_trace(trace: TraceRecorder, path,
                          name: str = "cluster") -> int:
    """Write a cluster run's unified trace to ``path``; returns its size."""
    text = export_simulation_trace(trace, name=name)
    with open(path, "w") as handle:
        handle.write(text)
    return len(text)
