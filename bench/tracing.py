"""Wall-clock spans around the program's layer entry points (``--trace 1``).

The benchmark never edits ``src/``.  A traced op installs wrappers over
public entry points (module functions and class methods), records one
frame per wrapped call while the op runs, and puts every original back
before the next op.

Low-frequency calls are kept as spans ``{name, start, end, parent, op}``.
Per-event and per-chunk calls (event handlers, serving steps, the chunk
codec, fetch retiming) would be hundreds of thousands of spans per op, so
those "hot" frames are folded into per-name totals instead.  Both kinds
count toward their parent's covered time, so a frame's self time is its
duration minus the time its children cover.
"""

from __future__ import annotations

import functools
import json
import re
import threading
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

#: Name of the root frame the runner opens around every traced op.
OP = "op"


class Span(NamedTuple):
    """One recorded call: wall-clock interval, parent span index, op id."""

    name: str
    start: float
    end: float
    parent: int      # index into Recorder.spans; -1 for an op root
    op: int
    self_s: float


class _Frame:
    __slots__ = ("name", "start", "covered", "index")

    def __init__(self, name: str, start: float, index: int):
        self.name = name
        self.start = start
        self.covered = 0.0   # seconds covered by direct children
        self.index = index   # reserved span slot, -1 for hot frames


class Recorder:
    """Frames of one traced run, held in memory until the run ends."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Optional[Span]] = []
        self.total: Dict[str, float] = defaultdict(float)
        self.self_total: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Dict[str, float] = defaultdict(float)
        self.op: Optional[int] = None
        self._stack: List[_Frame] = []
        self._op_frame: Optional[_Frame] = None
        self._thread = threading.get_ident()

    @property
    def active(self) -> bool:
        """Whether calls on this thread are being recorded now."""
        return self.op is not None and threading.get_ident() == self._thread

    def _parent_index(self) -> int:
        for frame in reversed(self._stack):
            if frame.index >= 0:
                return frame.index
        return -1

    def enter(self, name: str, hot: bool = False) -> _Frame:
        """Open a frame; a non-hot frame reserves its span slot now so
        that its children can name it as their parent."""
        index = -1
        if not hot:
            index = len(self.spans)
            self.spans.append(None)
        frame = _Frame(name, self.clock(), index)
        self._stack.append(frame)
        return frame

    def exit(self, frame: _Frame, name: Optional[str] = None) -> None:
        """Close the innermost frame, optionally renaming it."""
        end = self.clock()
        if not self._stack or self._stack[-1] is not frame:
            raise RuntimeError(f"frame {frame.name!r} closed out of order")
        self._stack.pop()
        name = name or frame.name
        duration = end - frame.start
        self_s = duration - frame.covered
        self.total[name] += duration
        self.self_total[name] += self_s
        self.calls[name] += 1
        if self._stack:
            self._stack[-1].covered += duration
        if frame.index >= 0:
            self.spans[frame.index] = Span(name, frame.start, end,
                                           self._parent_index(),
                                           -1 if self.op is None else self.op,
                                           self_s)

    def begin_op(self, op: int) -> None:
        """Start recording one op under a root frame."""
        self.op = op
        self._op_frame = self.enter(OP)

    def end_op(self) -> None:
        """Close the op's root frame and stop recording."""
        self.exit(self._op_frame)
        self.op = None

    def timed(self, fn: Callable, name, hot: bool = False,
              before: Optional[Callable] = None,
              after: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped in a frame while the recorder is active.

        ``name`` is a string or ``name(parent, args, kwargs, result)``,
        resolved when the call returns.  ``before(counts, args, kwargs)``
        runs first and its return value reaches
        ``after(counts, args, kwargs, result, token)``.
        """
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not recorder.active:
                return fn(*args, **kwargs)
            token = before(recorder.counts, args, kwargs) if before else None
            frame = recorder.enter(name if isinstance(name, str) else "?",
                                   hot)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                resolved = None
                if not isinstance(name, str):
                    parent = recorder._stack[-2].name \
                        if len(recorder._stack) > 1 else ""
                    resolved = name(parent, args, kwargs, result)
                recorder.exit(frame, resolved)
                if after is not None:
                    after(recorder.counts, args, kwargs, result, token)
        return wrapper

    # -- reporting ----------------------------------------------------------

    def layers(self) -> Dict[str, Dict[str, float]]:
        """Per-name call count, inclusive seconds and self seconds."""
        return {name: {"calls": self.calls[name],
                       "total_s": self.total[name],
                       "self_s": self.self_total[name]}
                for name in sorted(self.calls)}

    def unattributed_share(self) -> float:
        """Share of op wall time no layer frame covers."""
        total = self.total.get(OP, 0.0)
        return self.self_total.get(OP, 0.0) / total if total > 0 else 0.0

    def chrome_trace(self) -> dict:
        """The spans as a Chrome trace with one wall-clock lane."""
        spans = [span for span in self.spans if span is not None]
        origin = min((span.start for span in spans), default=0.0)
        events = [{"name": "process_name", "ph": "M", "pid": 1,
                   "args": {"name": "wall clock"}},
                  {"name": "thread_name", "ph": "M", "pid": 1, "tid": 1,
                   "args": {"name": "benchmark ops"}}]
        for span in spans:
            events.append({
                "name": span.name, "ph": "X", "pid": 1, "tid": 1,
                "ts": (span.start - origin) * 1e6,
                "dur": (span.end - span.start) * 1e6,
                "args": {"op": span.op, "parent": span.parent,
                         "self_ms": span.self_s * 1e3}})
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write(self, layers_path, chrome_path, extra: dict) -> None:
        """Write ``layers.json`` (layers, counters, spans) and the trace."""
        payload = dict(extra)
        payload["layers"] = self.layers()
        payload["counters"] = dict(sorted(self.counts.items()))
        payload["spans"] = [list(span) for span in self.spans
                            if span is not None]
        with open(layers_path, "w") as handle:
            json.dump(payload, handle)
        with open(chrome_path, "w") as handle:
            json.dump(self.chrome_trace(), handle)


# ---------------------------------------------------------------------------
# The layer entry points a traced op wraps
# ---------------------------------------------------------------------------

_INDEXED = re.compile(r"\[.*\]$")


def _cold_start_name(parent: str, args, kwargs, result) -> str:
    restorer = kwargs.get("restorer", args[1] if len(args) > 1 else None)
    kind = type(restorer).__name__
    if kind == "VectorizedRestorer":
        return "core.fastpath.cold_start"
    if kind == "OnlineRestorer":
        return "core.online.cold_start"
    return "core.offline.capture" if parent == "core.offline.run" \
        else "engine.cold_start"


def _prepare_name(parent: str, args, kwargs, result) -> str:
    restorer = result[1] if result is not None else None
    if type(restorer).__name__ == "VectorizedRestorer":
        return "core.fastpath.prepare"
    return "core.online.prepare"


def _count_artifact(counts, args, kwargs, result, token) -> None:
    if result is not None:
        artifact = result[0]
        counts["core.offline.graph_nodes"] += artifact.total_nodes
        counts["core.offline.replay_events"] += artifact.total_replay_events


def _count_bytes_written(counts, args, kwargs, result, token) -> None:
    if result is not None:
        counts["core.binfmt.bytes_written"] += result


_STORE_COUNTERS = ("chunks_written", "chunks_deduped", "index_reads",
                   "manifest_reads")


def _store_before(counts, args, kwargs) -> Tuple[int, ...]:
    return tuple(getattr(args[0], field) for field in _STORE_COUNTERS)


def _store_after(counts, args, kwargs, result, token) -> None:
    for field, start in zip(_STORE_COUNTERS, token):
        counts[f"core.store.{field}"] += getattr(args[0], field) - start


def _count_bytes_read(counts, args, kwargs) -> None:
    counts["core.chunks.bytes_read"] += len(args[0])


def _loop_before(counts, args, kwargs) -> int:
    return len(args[0].trace.spans)


def _loop_after(counts, args, kwargs, result, token) -> None:
    counts["sim.kernel.events"] += result or 0
    counts["sim.kernel.trace_spans"] += len(args[0].trace.spans) - token


def _count_batch(counts, args, kwargs) -> None:
    instance = args[0]
    counts["serverless.seqs"] += min(
        len(instance.running) + len(instance.waiting),
        instance.config.max_running)


def _count_pool(counts, args, kwargs, result, token) -> None:
    if result is None:
        return
    for metrics in (result.values() if isinstance(result, dict)
                    else (result,)):
        counts["serverless.cold_starts"] += metrics.cold_starts
        counts["serverless.cancelled_cold_starts"] += \
            metrics.cancelled_cold_starts
        counts["serverless.tier_hits"] += sum(metrics.tier_hits.values())
        counts["serverless.tier_misses"] += metrics.tier_misses
        counts["serverless.autoscale_decisions"] += \
            sum(metrics.autoscale_decisions.values())


def _stage_actions(prefix: str):
    """Wrap every callable a restorer's ``stage_actions`` returns, one
    frame name per stage-action family (``restore_graph[8]`` →
    ``restore_graph``)."""
    def make(recorder: Recorder, original: Callable) -> Callable:
        @functools.wraps(original)
        def stage_actions(self, engine):
            actions = original(self, engine)
            return {name: recorder.timed(
                        action, f"{prefix}.{_INDEXED.sub('', name)}")
                    for name, action in actions.items()}
        return stage_actions
    return make


def _event_handlers(recorder: Recorder, original: Callable) -> Callable:
    @functools.wraps(original)
    def on(self, kind, handler, priority=None):
        return original(self, kind,
                        recorder.timed(handler, f"sim.kernel.handler.{kind}",
                                       hot=True),
                        priority)
    return on


def _timed(name, **options):
    return lambda recorder, original: recorder.timed(original, name,
                                                     **options)


def hook_table() -> List[Tuple[object, str, Callable]]:
    """``(owner, attribute, make_wrapper)`` for every wrapped entry point."""
    from repro import analysis, cli
    from repro.core import binfmt, chunks, fastpath, offline, online
    from repro.core.store import ArtifactStore
    from repro.engine import loadplan
    from repro.engine.engine import LLMEngine
    from repro.serverless.cluster import MultiModelCluster
    from repro.serverless.instance import Instance
    from repro.serverless.metrics import SimulationMetrics
    from repro.serverless.simulator import ClusterSimulator
    from repro.sim.kernel import EventLoop

    store = dict(before=_store_before, after=_store_after)
    return [
        (cli, "main", _timed("cli.main")),
        (offline.OfflinePhase, "run",
         _timed("core.offline.run", after=_count_artifact)),
        (LLMEngine, "cold_start", _timed(_cold_start_name)),
        (offline, "analyze_graph_params",
         _timed("core.offline.pointer_analysis")),
        (offline, "classify_buffers", _timed("core.offline.classify")),
        (analysis, "lint_artifact", _timed("analysis.lint")),
        (binfmt, "save_binary",
         _timed("core.binfmt.save", after=_count_bytes_written)),
        (ArtifactStore, "put", _timed("core.store.put", **store)),
        (ArtifactStore, "get_lazy", _timed("core.store.get_lazy", **store)),
        (chunks, "pack_chunk", _timed("core.chunks.pack", hot=True)),
        (chunks, "unpack_chunk",
         _timed("core.chunks.unpack", hot=True, before=_count_bytes_read)),
        (chunks, "chunk_digest", _timed("core.chunks.digest", hot=True)),
        (online, "prepare_medusa_cold_start", _timed(_prepare_name)),
        (online, "resolve_kernel_addresses",
         _timed("core.online.resolve_kernels")),
        (fastpath, "resolve_kernel_addresses",
         _timed("core.fastpath.resolve_kernels")),
        (online.OnlineRestorer, "stage_actions",
         _stage_actions("core.online.stage")),
        (fastpath.VectorizedRestorer, "stage_actions",
         _stage_actions("core.fastpath.stage")),
        (loadplan.LoadPlan, "schedule", _timed("engine.loadplan.schedule")),
        (loadplan, "retime_stages",
         _timed("engine.loadplan.retime", hot=True)),
        (EventLoop, "run",
         _timed("sim.kernel.run", before=_loop_before, after=_loop_after)),
        (EventLoop, "on", _event_handlers),
        (ClusterSimulator, "run", _timed("serverless.run", after=_count_pool)),
        (MultiModelCluster, "run",
         _timed("serverless.run", after=_count_pool)),
        (Instance, "run_step",
         _timed("serverless.step", hot=True, before=_count_batch)),
        (SimulationMetrics, "summary", _timed("serverless.summary")),
    ]


class Hooks:
    """Installs the layer wrappers and puts the originals back."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self._saved: List[Tuple[object, str, object]] = []

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("layer hooks are already installed")
        for owner, attribute, make in hook_table():
            original = vars(owner)[attribute]
            self._saved.append((owner, attribute, original))
            setattr(owner, attribute, make(self.recorder, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)


# ---------------------------------------------------------------------------
# Per-layer metrics (the ``per_layer`` block of BENCHMARK.json)
# ---------------------------------------------------------------------------

def _ms(name):
    return "ms/op", lambda r, ops: r.total.get(name, 0.0) * 1e3 / ops


def _self_ms(name):
    return "ms/op", lambda r, ops: r.self_total.get(name, 0.0) * 1e3 / ops


def _calls(name):
    return "count/op", lambda r, ops: r.calls.get(name, 0) / ops


def _count(name, unit="count/op"):
    return unit, lambda r, ops: r.counts.get(name, 0.0) / ops


def _per(numerator, denominator, unit):
    def value(r, ops):
        below = denominator(r)
        return numerator(r) / below if below else 0.0
    return unit, value


_FASTPATH_STAGES = ("fetch_chunk", "restore_kv", "replay_alloc",
                    "restore_warmup", "restore_graph")
_ONLINE_STAGES = ("restore_kv", "restore_warmup", "restore_tail")
EVENT_KINDS = ("arrival", "cold_stage_done", "instance_ready", "step_done",
               "idle_tick")

#: ``name -> (unit, value(recorder, traced_ops))``, in report order.  Every
#: workload's traced run reports all of them; a layer the workload
#: bypasses reads 0.
LAYER_METRICS: Dict[str, Tuple[str, Callable]] = {
    "core.offline.run_ms": _ms("core.offline.run"),
    "core.offline.capture_ms": _ms("core.offline.capture"),
    "core.offline.pointer_analysis_ms":
        _ms("core.offline.pointer_analysis"),
    "core.offline.classify_ms": _ms("core.offline.classify"),
    "core.offline.self_ms": _self_ms("core.offline.run"),
    "core.offline.graph_nodes": _count("core.offline.graph_nodes"),
    "core.offline.replay_events": _count("core.offline.replay_events"),
    "analysis.lint_ms": _ms("analysis.lint"),
    "core.binfmt.save_ms": _ms("core.binfmt.save"),
    "core.binfmt.bytes_written": _count("core.binfmt.bytes_written", "B/op"),
    "core.store.put_ms": _ms("core.store.put"),
    "core.store.chunks_written": _count("core.store.chunks_written"),
    "core.store.chunks_deduped": _count("core.store.chunks_deduped"),
    "core.store.dedup_ratio": _per(
        lambda r: r.counts.get("core.store.chunks_written", 0.0)
        + r.counts.get("core.store.chunks_deduped", 0.0),
        lambda r: r.counts.get("core.store.chunks_written", 0.0), "ratio"),
    "core.store.get_lazy_ms": _ms("core.store.get_lazy"),
    "core.store.index_reads": _count("core.store.index_reads"),
    "core.store.manifest_reads": _count("core.store.manifest_reads"),
    "core.chunks.pack_ms": _ms("core.chunks.pack"),
    "core.chunks.pack_calls": _calls("core.chunks.pack"),
    "core.chunks.unpack_ms": _ms("core.chunks.unpack"),
    "core.chunks.unpack_calls": _calls("core.chunks.unpack"),
    "core.chunks.digest_ms": _ms("core.chunks.digest"),
    "core.chunks.digest_calls": _calls("core.chunks.digest"),
    "core.chunks.bytes_read": _count("core.chunks.bytes_read", "B/op"),
    "core.fastpath.cold_start_ms": _ms("core.fastpath.cold_start"),
    "core.fastpath.prepare_ms": _ms("core.fastpath.prepare"),
    "core.fastpath.resolve_kernels_ms": _ms("core.fastpath.resolve_kernels"),
    **{f"core.fastpath.stage_ms.{stage}": _ms(f"core.fastpath.stage.{stage}")
       for stage in _FASTPATH_STAGES},
    "core.online.cold_start_ms": _ms("core.online.cold_start"),
    "core.online.prepare_ms": _ms("core.online.prepare"),
    "core.online.resolve_kernels_ms": _ms("core.online.resolve_kernels"),
    **{f"core.online.stage_ms.{stage}": _ms(f"core.online.stage.{stage}")
       for stage in _ONLINE_STAGES},
    "engine.loadplan.schedule_ms": _ms("engine.loadplan.schedule"),
    "engine.loadplan.schedule_calls": _calls("engine.loadplan.schedule"),
    "engine.loadplan.retime_ms": _ms("engine.loadplan.retime"),
    "engine.loadplan.retime_calls": _calls("engine.loadplan.retime"),
    "sim.kernel.run_ms": _ms("sim.kernel.run"),
    "sim.kernel.events": _count("sim.kernel.events"),
    "sim.kernel.events_per_s": _per(
        lambda r: r.counts.get("sim.kernel.events", 0.0),
        lambda r: r.total.get("sim.kernel.run", 0.0), "1/s"),
    "sim.kernel.trace_spans": _count("sim.kernel.trace_spans"),
    **{f"sim.kernel.events.{kind}": _calls(f"sim.kernel.handler.{kind}")
       for kind in EVENT_KINDS},
    **{f"sim.kernel.handler_ms.{kind}": _ms(f"sim.kernel.handler.{kind}")
       for kind in EVENT_KINDS},
    "serverless.run_ms": _ms("serverless.run"),
    "serverless.steps": _calls("serverless.step"),
    "serverless.step_ms": _ms("serverless.step"),
    "serverless.seqs_per_step": _per(
        lambda r: r.counts.get("serverless.seqs", 0.0),
        lambda r: r.calls.get("serverless.step", 0), "count/step"),
    "serverless.cold_starts": _count("serverless.cold_starts"),
    "serverless.cancelled_cold_starts":
        _count("serverless.cancelled_cold_starts"),
    "serverless.tier_hit_ratio": _per(
        lambda r: r.counts.get("serverless.tier_hits", 0.0),
        lambda r: r.counts.get("serverless.tier_hits", 0.0)
        + r.counts.get("serverless.tier_misses", 0.0), "ratio"),
    "serverless.autoscale_decisions":
        _count("serverless.autoscale_decisions"),
    "serverless.summary_ms": _ms("serverless.summary"),
    "cli.main_ms": _ms("cli.main"),
    "cli.self_ms": _self_ms("cli.main"),
}


def layer_metrics(recorder: Recorder, traced_ops: int,
                  overhead_pct: float) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric, normalised per traced op."""
    ops = max(traced_ops, 1)
    metrics = {name: (float(value(recorder, ops)), unit)
               for name, (unit, value) in LAYER_METRICS.items()}
    metrics["trace.overhead_pct"] = (overhead_pct, "%")
    metrics["trace.unattributed_pct"] = (
        recorder.unattributed_share() * 100.0, "%")
    return metrics
