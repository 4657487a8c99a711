"""The discrete-event simulation kernel shared by every timing substrate.

Before this module existed the repository kept three ad-hoc notions of
simulated time: the engine's :class:`repro.simgpu.clock.SimClock`, and one
hand-rolled ``heapq`` loop each in ``repro.serverless.simulator`` and
``repro.serverless.cluster``.  This kernel unifies them:

- :class:`Event` — a typed, immutable occurrence at one instant, carrying a
  string ``kind`` and an opaque payload;
- :class:`EventLoop` — a priority queue with **stable tie-breaking**
  (``(time, kind priority, tie, insertion sequence)``), so two runs over
  the same inputs dispatch identical event streams: determinism is
  structural, not accidental.  ``tie`` defaults to 0, so kinds that do
  not pass one keep insertion order; a caller that gives co-timed events
  of one kind a key of their own (the pool passes the instance id for
  step completions) makes their order independent of when they were
  scheduled.  Scheduling into the past raises
  :class:`repro.errors.InvalidValueError` via the same monotonicity check
  (:func:`check_advance`) the engine clock uses;
- :class:`TraceRecorder` — labelled span *and* instant-mark recording
  subsuming the clock's span log, so a whole cluster run (arrivals,
  per-stage cold starts, serving steps, retirements) can be exported as
  one Chrome trace by :mod:`repro.reporting.timeline`.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.errors import InvalidValueError, SchedulingError


def check_advance(now: float, delta: float) -> float:
    """The kernel's one time-monotonicity check.

    Returns ``now + delta``; a negative ``delta`` (an attempt to move
    simulated time backwards) raises
    :class:`repro.errors.InvalidValueError`.  Both the event loop's
    scheduler and :meth:`repro.simgpu.clock.SimClock.advance` route
    through this function, so every timing substrate rejects time travel
    with the same error type.
    """
    if delta < 0:
        raise InvalidValueError(
            f"cannot advance simulated time by negative delta {delta}")
    return now + delta


@dataclass
class Span:
    """A labelled, closed interval of simulated time."""

    label: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        """Length of the interval in simulated seconds."""
        return self.end - self.start


@dataclass
class TraceRecorder:
    """Labelled span/mark log for one simulation run.

    Superset of the engine clock's span log: ``spans`` are closed
    intervals (a cold-start stage, one serving step), ``marks`` are
    instants (an arrival, a retirement, a degraded-rung event).  Each
    entry carries a ``track`` (e.g. ``instance-3``) and free-form
    ``args`` so the Chrome-trace exporter can place it without guessing.
    """

    spans: List[Span] = field(default_factory=list)
    tracks: List[str] = field(default_factory=list)
    args: List[Dict[str, object]] = field(default_factory=list)
    marks: List[Tuple[str, float, str, Dict[str, object]]] = \
        field(default_factory=list)
    #: False makes :meth:`span` and :meth:`mark` no-ops, so an untraced
    #: run keeps every list empty and pays for no records.  Set by the
    #: simulator that owns the loop (``MultiModelCluster(trace=...)``).
    enabled: bool = field(default=True, init=False)

    def span(self, label: str, start: float, end: float,
             track: str = "", **extra: object) -> Optional[Span]:
        """Record one closed interval on ``track``; returns the span
        (None when recording is disabled)."""
        if not self.enabled:
            return None
        record = Span(label=label, start=start, end=end)
        self.spans.append(record)
        self.tracks.append(track)
        self.args.append(dict(extra))
        return record

    def mark(self, label: str, time: float, track: str = "",
             **extra: object) -> None:
        """Record one instantaneous event on ``track``."""
        if self.enabled:
            self.marks.append((label, time, track, dict(extra)))

    def spans_named(self, label: str) -> List[Span]:
        """Every recorded span carrying ``label``, in record order."""
        return [s for s in self.spans if s.label == label]

    def total(self, label: str) -> float:
        """Summed duration of every span named ``label``."""
        return sum(s.duration for s in self.spans_named(label))

    def last(self, label: str) -> Optional[Span]:
        """The most recently recorded span named ``label``, if any."""
        named = self.spans_named(label)
        return named[-1] if named else None


class Event(NamedTuple):
    """One typed occurrence at one simulated instant.

    ``seq`` is the loop-local insertion sequence number — together with
    the kind's registered priority and the caller's ``tie`` it makes
    dispatch order a pure function of the schedule calls, independent of
    heap internals.  A named tuple: immutable, slotted, and cheap to
    build on the hot path.
    """

    time: float
    kind: str
    seq: int
    payload: object = None


class EventLoop:
    """A deterministic discrete-event loop with typed handlers.

    Handlers are registered per event kind with :meth:`on`; each
    registration assigns the kind a tie-break priority (defaulting to
    registration order), so simultaneous events dispatch in a declared,
    stable order: ``(time, priority, tie, insertion seq)``, where ``tie``
    is the caller's key from :meth:`schedule` (0 unless given).  While a
    handler runs, ``_dispatching`` holds the heap entry
    ``(time, priority, tie, seq, event)`` of its event, so the pool can
    tell whether an event it never scheduled would already have
    dispatched.  ``seed`` is carried for consumers that derive randomness
    per run; the loop itself is deterministic by construction and never
    consumes entropy.
    """

    def __init__(self, start: float = 0.0, seed: int = 0):
        self.now = start
        self.seed = seed
        self.dispatched = 0
        self.trace = TraceRecorder()
        self._heap: List[Tuple[float, int, int, int, Event]] = []
        self._dispatching: Optional[Tuple[float, int, int, int, Event]] = \
            None
        self._seq = itertools.count()
        self._priorities: Dict[str, int] = {}
        self._handlers: Dict[str, Callable[[Event], None]] = {}
        self._cancelled: set = set()

    # -- wiring --------------------------------------------------------------

    def on(self, kind: str, handler: Callable[[Event], None],
           priority: Optional[int] = None) -> None:
        """Register ``handler`` for ``kind`` with a tie-break priority."""
        if kind in self._handlers:
            raise SchedulingError(f"handler for {kind!r} already registered")
        self._handlers[kind] = handler
        self._priorities[kind] = (priority if priority is not None
                                  else len(self._priorities))

    def close(self) -> None:
        """Unregister every handler; the loop schedules nothing after this.

        Handlers are usually bound methods of the object that owns the
        loop, so owner and loop form a reference cycle until the handlers
        go.  Closing a drained loop lets refcounting free both; its
        counters and trace stay readable.
        """
        self._handlers.clear()
        self._priorities.clear()

    # -- scheduling ----------------------------------------------------------

    def schedule(self, time: float, kind: str, payload: object = None,
                 tie: int = 0) -> Event:
        """Enqueue an event at absolute ``time`` (>= now); returns it.

        Co-timed events of equal priority dispatch in ascending ``tie``,
        then in insertion order.
        """
        priority = self._priorities.get(kind)
        if priority is None:
            raise SchedulingError(
                f"cannot schedule unregistered event kind {kind!r}; "
                f"registered: {sorted(self._handlers) or '<none>'}")
        if time < self.now:
            check_advance(self.now, time - self.now)   # raises
        seq = next(self._seq)
        event = Event(time, kind, seq, payload)
        heapq.heappush(self._heap, (time, priority, tie, seq, event))
        return event

    def cancel(self, event: Event) -> None:
        """Annul a pending event; a no-op if it already dispatched."""
        self._cancelled.add(event.seq)

    # -- dispatch ------------------------------------------------------------

    def step(self) -> Optional[Event]:
        """Dispatch the next event to its handler; None when drained."""
        heap = self._heap
        cancelled = self._cancelled
        while heap:
            entry = heapq.heappop(heap)
            time, _priority, _tie, seq, event = entry
            if cancelled and seq in cancelled:
                cancelled.discard(seq)
                continue
            self.now = time
            self._dispatching = entry
            self.dispatched += 1
            self._handlers[event.kind](event)
            return event
        return None

    def run(self) -> int:
        """Dispatch until the queue drains; returns the dispatch count."""
        count = 0
        while self.step() is not None:
            count += 1
        return count
