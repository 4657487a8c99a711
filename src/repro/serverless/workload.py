"""Request workloads: Poisson arrivals with ShareGPT-like shapes.

The paper replays the ShareGPT dataset with Poisson arrivals (§7.5) and
reports its average prompt/output lengths as 161 and 338 tokens (§2.2).  The
dataset itself is not redistributable here, so we sample from lognormal
length distributions matched to those means — the only properties the
evaluation depends on.

Homogeneous Poisson is the *calm* case; autoscaling policies only
differentiate under bursty traffic.  :class:`RateSchedule` describes an
inhomogeneous arrival rate as a composition of constant-rate
:class:`RateSegment` primitives (overlapping segments add), and
:func:`make_schedule` provides the named shapes the benchmarks sweep:
``poisson``, ``burst``, ``diurnal``, ``spike_train``, ``ramp``.
Composition is tuple concatenation, so ``(a + b) + c`` and ``a + (b +
c)`` are *identical* schedules — same segment order, same float
summation order, same generated trace.  A :class:`ShareGPTWorkload`
picks its shape by name, and refuses more than
:data:`MAX_EXPECTED_ARRIVALS` expected arrivals (``rps * duration``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.errors import InvalidValueError
from repro.utils.rng import SeedSequence

#: ShareGPT average lengths reported by the paper (§2.2).
SHAREGPT_MEAN_PROMPT_TOKENS = 161
SHAREGPT_MEAN_OUTPUT_TOKENS = 338
#: Log-space spread of the lognormal prompt and output lengths.
LENGTH_SIGMA = 0.8
#: The most arrivals one workload may expect (``rps * duration``):
#: generation loops once per arrival, so a larger product would exhaust
#: time and memory before the simulation starts.
MAX_EXPECTED_ARRIVALS = 1_000_000


@dataclass(frozen=True)
class RateSegment:
    """A constant arrival rate over one half-open interval ``[start, end)``."""

    start: float
    end: float
    rate: float

    def __post_init__(self) -> None:
        """Validate the interval and rate."""
        if self.end <= self.start:
            raise InvalidValueError(
                f"segment end must exceed start, got [{self.start}, "
                f"{self.end})")
        if self.rate < 0:
            raise InvalidValueError(
                f"segment rate must be non-negative, got {self.rate}")


@dataclass(frozen=True)
class RateSchedule:
    """A piecewise-constant inhomogeneous arrival-rate function.

    The instantaneous rate at time ``t`` is the sum of every segment
    covering ``t`` — segments may overlap, so a bursty shape composes a
    base rate with spike segments instead of re-deriving the union.
    ``a + b`` concatenates segment tuples, which makes composition
    exactly associative (the generated arrival trace is a deterministic
    function of the segment tuple and the RNG stream).
    """

    segments: Tuple[RateSegment, ...]

    def __post_init__(self) -> None:
        """A schedule must carry at least one segment."""
        if not self.segments:
            raise InvalidValueError("a RateSchedule needs >= 1 segment")

    @property
    def duration(self) -> float:
        """The last instant any segment is active."""
        return max(segment.end for segment in self.segments)

    def rate_at(self, t: float) -> float:
        """The instantaneous arrival rate at time ``t``."""
        return sum(segment.rate for segment in self.segments
                   if segment.start <= t < segment.end)

    def integral(self, t0: float, t1: float) -> float:
        """Expected arrivals in ``[t0, t1)`` (the cumulative hazard)."""
        total = 0.0
        for segment in self.segments:
            overlap = min(t1, segment.end) - max(t0, segment.start)
            if overlap > 0:
                total += segment.rate * overlap
        return total

    def shift(self, dt: float) -> "RateSchedule":
        """This schedule translated ``dt`` seconds later (earlier if < 0)."""
        return RateSchedule(tuple(
            RateSegment(segment.start + dt, segment.end + dt, segment.rate)
            for segment in self.segments))

    def compose(self, other: "RateSchedule") -> "RateSchedule":
        """The superposed schedule (rates add; segments concatenate)."""
        return RateSchedule(self.segments + other.segments)

    def __add__(self, other: "RateSchedule") -> "RateSchedule":
        """``+`` is :meth:`compose`."""
        return self.compose(other)

    def arrival_times(self, rng, horizon: Optional[float] = None
                      ) -> List[float]:
        """Sample one inhomogeneous-Poisson arrival trace.

        Exact inversion sampling: unit-rate exponential targets are
        accumulated and inverted through the piecewise-linear cumulative
        hazard, interval by interval between segment breakpoints (zero
        -rate plateaus are skipped in O(1)).  Deterministic given
        ``rng``; times are strictly sorted within ``[0, horizon)``.
        """
        horizon = self.duration if horizon is None else horizon
        breakpoints = sorted(
            {0.0, horizon}
            | {s.start for s in self.segments if 0.0 < s.start < horizon}
            | {s.end for s in self.segments if 0.0 < s.end < horizon})
        times: List[float] = []
        hazard = 0.0
        target = rng.exponential(1.0)
        for left, right in zip(breakpoints, breakpoints[1:]):
            rate = self.rate_at((left + right) / 2.0)
            if rate <= 0.0:
                continue
            t = left
            while True:
                dt = (target - hazard) / rate
                if t + dt >= right:
                    hazard += rate * (right - t)
                    break
                t += dt
                hazard = target
                times.append(t)
                target += rng.exponential(1.0)
        return times


def _burst_schedule(rps: float, duration: float) -> RateSchedule:
    """On/off bursts: 10 s at 4x the nominal rate every 40 s."""
    period, on, factor = 40.0, 10.0, 4.0
    segments = []
    start = 0.0
    while start < duration:
        segments.append(RateSegment(start, min(start + on, duration),
                                    factor * rps))
        start += period
    return RateSchedule(tuple(segments))


def _diurnal_schedule(rps: float, duration: float) -> RateSchedule:
    """A sinusoidal day compressed into ``duration``: 24 stepped slots."""
    slots = 24
    width = duration / slots
    segments = []
    for k in range(slots):
        midpoint = (k + 0.5) / slots
        rate = rps * max(0.0, 1.0 + 0.8 * math.sin(2.0 * math.pi * midpoint))
        segments.append(RateSegment(k * width, (k + 1) * width, rate))
    return RateSchedule(tuple(segments))


def _spike_train_schedule(rps: float, duration: float) -> RateSchedule:
    """A quiet base rate punctured by 1 s spikes every 30 s."""
    base = RateSchedule((RateSegment(0.0, duration, 0.5 * rps),))
    start = 10.0
    while start + 1.0 <= duration:
        base = base + RateSchedule((RateSegment(start, start + 1.0,
                                                8.0 * rps),))
        start += 30.0
    return base


def _ramp_schedule(rps: float, duration: float) -> RateSchedule:
    """A linear ramp from 0.2x to 1.8x the nominal rate in 16 steps."""
    steps = 16
    width = duration / steps
    segments = []
    for k in range(steps):
        fraction = (k + 0.5) / steps
        rate = rps * (0.2 + 1.6 * fraction)
        segments.append(RateSegment(k * width, (k + 1) * width, rate))
    return RateSchedule(tuple(segments))


#: Registered arrival shapes.  ``poisson`` is special-cased by
#: :class:`ShareGPTWorkload` to the legacy homogeneous generator (the
#: golden-pinned RNG stream); it is registered here so schedule-level
#: tooling can still build its flat-rate equivalent.
SHAPES = {
    "poisson": lambda rps, duration: RateSchedule(
        (RateSegment(0.0, duration, rps),)),
    "burst": _burst_schedule,
    "diurnal": _diurnal_schedule,
    "spike_train": _spike_train_schedule,
    "ramp": _ramp_schedule,
}


def shape_names() -> Tuple[str, ...]:
    """The registered arrival-shape names, alphabetical."""
    return tuple(sorted(SHAPES))


def make_schedule(shape: str, rps: float, duration: float) -> RateSchedule:
    """Build the named arrival shape at nominal rate ``rps``."""
    if shape not in SHAPES:
        raise InvalidValueError(
            f"unknown arrival shape {shape!r}; "
            f"registered: {', '.join(shape_names())}")
    _check_rate(rps, duration)
    return SHAPES[shape](rps, duration)


def _check_rate(rps: float, duration: float) -> None:
    """Refuse a rate or duration that is not positive and finite (a NaN
    or infinite one would make the arrival loop never end), and more
    expected arrivals than :data:`MAX_EXPECTED_ARRIVALS`."""
    for name, value in (("rps", rps), ("duration", duration)):
        if not (math.isfinite(value) and value > 0):
            raise InvalidValueError(
                f"{name} must be positive and finite, got {value}")
    if rps * duration > MAX_EXPECTED_ARRIVALS:
        raise InvalidValueError(
            f"rps x duration must be at most {MAX_EXPECTED_ARRIVALS:,} "
            f"expected arrivals, got {rps} x {duration} = "
            f"{rps * duration:,.2f}")


def _lognormal_mu(mean: float) -> float:
    """The lognormal location whose distribution has mean ``mean``."""
    return math.log(mean) - LENGTH_SIGMA**2 / 2.0


_MU_PROMPT = _lognormal_mu(SHAREGPT_MEAN_PROMPT_TOKENS)
_MU_OUTPUT = _lognormal_mu(SHAREGPT_MEAN_OUTPUT_TOKENS)


@dataclass(frozen=True)
class Request:
    """One inference request."""

    request_id: int
    arrival_time: float
    prompt_tokens: int
    output_tokens: int


class ShareGPTWorkload:
    """Poisson arrivals; lognormal prompt/output lengths (ShareGPT means).

    With ``shape`` left unset (or ``"poisson"``), the generator is the
    original homogeneous-Poisson loop, byte-identical to the
    golden-pinned traces.  Another named ``shape`` (see
    :func:`make_schedule`) switches to the inhomogeneous sampler: same
    lognormal length model, arrivals drawn from the shape's schedule,
    and a distinct seed-derivation path so the two modes never share an
    RNG stream.
    """

    def __init__(self, rps: float, duration: float, seed: int = 0,
                 shape: Optional[str] = None):
        _check_rate(rps, duration)
        if shape is not None and shape not in SHAPES:
            raise InvalidValueError(
                f"unknown arrival shape {shape!r}; "
                f"registered: {', '.join(shape_names())}")
        self.rps = rps
        self.duration = duration
        self.seed = seed
        self.shape = shape

    def _resolved_schedule(self) -> Optional[RateSchedule]:
        """The effective schedule; None means the legacy Poisson path.

        A named non-Poisson ``shape`` builds its schedule at the
        workload's nominal rate.  ``"poisson"`` stays on the legacy
        generator so its golden-pinned RNG stream survives the shape
        flag's introduction.
        """
        if self.shape is not None and self.shape != "poisson":
            return make_schedule(self.shape, self.rps, self.duration)
        return None

    def generate(self) -> List[Request]:
        """The full request trace for one simulation run (deterministic)."""
        schedule = self._resolved_schedule()
        if schedule is not None:
            return self._generate_shaped(schedule)
        seeds = SeedSequence(self.seed).child("workload", self.rps,
                                              self.duration)
        arrival_rng = seeds.generator("arrivals")
        length_rng = seeds.generator("lengths")
        requests: List[Request] = []
        now = 0.0
        request_id = 0
        while True:
            now += arrival_rng.exponential(1.0 / self.rps)
            if now >= self.duration:
                break
            prompt = max(1, int(length_rng.lognormal(_MU_PROMPT,
                                                     LENGTH_SIGMA)))
            output = max(1, int(length_rng.lognormal(_MU_OUTPUT,
                                                     LENGTH_SIGMA)))
            requests.append(Request(
                request_id=request_id,
                arrival_time=now,
                prompt_tokens=prompt,
                output_tokens=output,
            ))
            request_id += 1
        return requests

    def _generate_shaped(self, schedule: RateSchedule) -> List[Request]:
        """The inhomogeneous trace for one schedule (deterministic).

        Seeds derive from ``("workload-shaped", seed, rps, duration)``
        plus the shape name — the legacy stream keys on ``("workload",
        rps, duration)``, so the two modes can never collide.  Arrivals
        are capped at the workload's ``duration`` even when the schedule
        extends past it.
        """
        seeds = SeedSequence(self.seed).child("workload-shaped", self.rps,
                                              self.duration, self.shape)
        arrival_rng = seeds.generator("arrivals")
        length_rng = seeds.generator("lengths")
        requests: List[Request] = []
        arrivals = schedule.arrival_times(arrival_rng,
                                          horizon=self.duration)
        for request_id, now in enumerate(arrivals):
            prompt = max(1, int(length_rng.lognormal(_MU_PROMPT,
                                                     LENGTH_SIGMA)))
            output = max(1, int(length_rng.lognormal(_MU_OUTPUT,
                                                     LENGTH_SIGMA)))
            requests.append(Request(
                request_id=request_id,
                arrival_time=now,
                prompt_tokens=prompt,
                output_tokens=output,
            ))
        return requests
