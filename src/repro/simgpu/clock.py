"""Simulated wall clock.

All latencies in this reproduction are *simulated* seconds advanced through
this clock; nothing sleeps.  The clock also keeps a labelled span log so the
engine can report per-stage breakdowns (Figures 1, 2, 8) without re-deriving
them from constants.

The clock is a thin veneer over the discrete-event kernel's timing
primitives: its :class:`Span` type *is* :class:`repro.sim.Span`, and
:meth:`SimClock.advance` routes through the kernel's shared
time-monotonicity check (:func:`repro.sim.kernel.check_advance`), so an
attempt to move time backwards raises the repository's
:class:`repro.errors.InvalidValueError` — not a bare ``ValueError`` — from
every timing substrate alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional
import contextlib

from repro.sim.kernel import Span, check_advance

__all__ = ["Span", "SimClock"]


@dataclass
class SimClock:
    """Monotonically advancing simulated clock with span recording."""

    now: float = 0.0
    spans: List[Span] = field(default_factory=list)

    def advance(self, seconds: float) -> float:
        """Advance simulated time by ``seconds`` (must be non-negative)."""
        self.now = check_advance(self.now, seconds)
        return self.now

    def advance_each(self, seconds: float, times: int) -> float:
        """Advance by ``seconds`` ``times`` times: the same float adds,
        in the same order, as that many :meth:`advance` calls."""
        now = check_advance(self.now, seconds) if times > 0 else self.now
        for _ in range(times - 1):
            now += seconds
        self.now = now
        return now

    def advance_to(self, deadline: float) -> float:
        """Advance to an absolute time, never moving backwards."""
        if deadline > self.now:
            self.now = deadline
        return self.now

    @contextlib.contextmanager
    def span(self, label: str) -> Iterator[Span]:
        """Record the simulated time spent inside the context as a span."""
        record = Span(label=label, start=self.now, end=self.now)
        yield record
        record.end = self.now
        self.spans.append(record)

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
