"""Pluggable autoscaling policies for the serverless pool simulator.

The simulator used to hard-code one scale-down rule: a fixed
``keep_alive`` idle window evaluated only when a serving step completed
(``serverless/cluster.py``).  This module turns that inline branch into a
policy layer — :class:`AutoscalePolicy` exposes the decision points the
pool consults (``on_arrival``, ``target_instances`` plus the
``should_retire`` / ``idle_check_delay`` retirement pair), and four
concrete policies, built by name with :func:`make_autoscaler` and tuned
by class constants, cover the design space the serverless literature
argues about:

- :class:`KeepAlivePolicy` — the fixed idle window, bit-identical to the
  pre-policy simulators (the 8 golden snapshots pin it);
- :class:`HistogramPolicy` — Serverless-in-the-Wild-style idle-window
  prediction from the observed inter-arrival histogram;
- :class:`ColdCostAwarePolicy` — keeps an instance warm only while the
  expected cold-start cost (from its tier-resolved
  :class:`~repro.serverless.instance.ColdStartProfile`) exceeds the
  expected idle cost, so Medusa-fast models scale down sooner;
- :class:`TargetQueueDelayPolicy` — proactive scale-up when the
  predicted queue delay exceeds a TTFT SLO budget.

Policies are duck-typed against the pool (they see the simulator via the
hooks' ``pool`` argument) and must stay deterministic: every decision is
a pure function of observed simulation state, never of wall-clock time
or unseeded randomness.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.errors import InvalidValueError

#: Slack for "the idle window has elapsed" checks on re-derived tick
#: times (the tick instant is computed as ``now + (window - idle)``, so
#: re-checking at the tick may be a few ulps short of the window).
_TICK_TOL = 1e-9


class AutoscalePolicy:
    """Decision interface the pool consults for scaling up and down.

    The pool calls the hooks; a policy answers from its own observed
    state.  All hooks have safe defaults (observe nothing, never retire,
    no proactive target), so a subclass only overrides the decisions it
    cares about.  ``decisions`` counts every choice the policy made, for
    the per-run metrics and the Chrome trace.
    """

    #: Registry/reporting name of the policy.
    name = "autoscale"

    def __init__(self) -> None:
        self.decisions: Dict[str, int] = {}

    def _decide(self, kind: str) -> None:
        """Count one policy decision of ``kind``."""
        self.decisions[kind] = self.decisions.get(kind, 0) + 1

    # -- observation hooks ---------------------------------------------------

    def on_arrival(self, pool, model: Optional[str], now: float) -> None:
        """One request arrived for deployment ``model``."""

    # -- scale-down ----------------------------------------------------------

    def should_retire(self, pool, instance, now: float) -> bool:
        """Whether the idle ``instance`` should retire at ``now``."""
        return False

    def idle_check_delay(self, pool, instance, now: float
                         ) -> Optional[float]:
        """Seconds until the pool should re-check an idle instance.

        ``None`` disables idle ticks entirely: retirement is then only
        evaluated when a serving step completes — the legacy behaviour
        :class:`KeepAlivePolicy` preserves bit-exactly.
        """
        return None

    # -- scale-up ------------------------------------------------------------

    def target_instances(self, pool, model: Optional[str],
                         now: float) -> int:
        """Desired live-instance count for ``model``; 0 = no opinion.

        Consulted after each arrival is routed; the pool launches cold
        instances (capacity permitting) until the scope reaches the
        target.
        """
        return 0


class KeepAlivePolicy(AutoscalePolicy):
    """The fixed idle window the pre-policy simulators hard-coded.

    ``should_retire`` is the exact legacy comparison
    (``now - last_busy_at >= keep_alive``) and ``idle_check_delay``
    stays ``None``, so a pool running this policy schedules not a single
    extra event and reproduces the 8 golden snapshots bit for bit.
    """

    name = "keep-alive"

    def __init__(self, keep_alive: float = 20.0) -> None:
        super().__init__()
        if keep_alive < 0:
            raise InvalidValueError(
                f"keep_alive must be non-negative, got {keep_alive}")
        self.keep_alive = keep_alive

    def should_retire(self, pool, instance, now: float) -> bool:
        """The legacy predicate, unchanged to the last ulp."""
        return now - instance.last_busy_at >= self.keep_alive


class _WindowedRetirePolicy(AutoscalePolicy):
    """Shared scale-down mechanics for policies with a computed window.

    Subclasses implement :meth:`_window`; retirement fires once the
    instance has idled past it.  Unlike :class:`KeepAlivePolicy`, the
    window is actually *enforced*: the policy asks the pool for an idle
    tick at the window's expiry, so an instance retires on schedule even
    when no further serving step ever completes on it.
    """

    def _window(self, pool, instance, now: float) -> float:
        """Idle seconds after which ``instance`` should retire."""
        raise NotImplementedError

    def should_retire(self, pool, instance, now: float) -> bool:
        """True once the instance idled past its computed window."""
        idle = now - instance.last_busy_at
        return idle + _TICK_TOL >= self._window(pool, instance, now)

    def idle_check_delay(self, pool, instance, now: float
                         ) -> Optional[float]:
        """Re-check exactly when the current window would expire."""
        idle = now - instance.last_busy_at
        return max(0.0, self._window(pool, instance, now) - idle)


class HistogramPolicy(_WindowedRetirePolicy):
    """Idle-window prediction from the observed inter-arrival histogram.

    The Serverless-in-the-Wild insight: the right keep-alive for a
    function is a high quantile of its inter-arrival distribution — keep
    the instance warm just long enough to catch the next arrival with
    probability ``quantile``, then stop paying for it.  Arrivals feed a
    bucketed histogram per policy instance (one per model in the
    multi-model cluster); until ``warmup`` gaps are observed the policy
    falls back to the default window.
    """

    name = "histogram"

    #: Histogram bucket width, seconds.
    bucket = 1.0
    #: Clamp on the predicted window, seconds.
    min_window = 0.5
    max_window = 120.0
    #: Fraction of observed gaps the window must cover.
    quantile = 0.95
    #: Multiplier on the covering bucket's upper edge.
    margin = 1.25
    #: Gaps observed before the prediction replaces the default window.
    warmup = 8

    def __init__(self, default_keep_alive: float = 20.0) -> None:
        super().__init__()
        self.default_keep_alive = default_keep_alive
        self._last_arrival: Optional[float] = None
        self._buckets: Dict[int, int] = {}
        self._observed = 0

    def on_arrival(self, pool, model: Optional[str], now: float) -> None:
        """Record the gap since the previous arrival into the histogram."""
        if self._last_arrival is not None:
            gap = now - self._last_arrival
            index = min(int(gap / self.bucket),
                        int(self.max_window / self.bucket))
            self._buckets[index] = self._buckets.get(index, 0) + 1
            self._observed += 1
        self._last_arrival = now

    def predicted_window(self) -> float:
        """The idle window covering ``quantile`` of observed gaps."""
        if self._observed < self.warmup:
            return self.default_keep_alive
        target = self.quantile * self._observed
        seen = 0
        window = self.max_window
        for index in sorted(self._buckets):
            seen += self._buckets[index]
            if seen >= target:
                window = (index + 1) * self.bucket
                break
        window *= self.margin
        return min(self.max_window, max(self.min_window, window))

    def _window(self, pool, instance, now: float) -> float:
        return self.predicted_window()


class ColdCostAwarePolicy(_WindowedRetirePolicy):
    """Keep an instance warm only while re-warming would cost more.

    The idle window is the instance's *observed* cold-start cost — its
    ``ready_at - launched_at``, which already reflects the tier-resolved
    :class:`~repro.serverless.instance.ColdStartProfile` the placement
    layer rewrote at launch — scaled by ``cost_ratio`` (how many seconds
    of idle GPU one second of cold-start latency is worth).  A model
    Medusa restores in 0.3 s keeps a ~1 s window; a 10 s eager reload
    earns a long one: exactly the paper's economics, as a scale-down
    rule.
    """

    name = "cold-cost"

    #: Idle GPU seconds one second of cold-start latency is worth.
    cost_ratio = 3.0
    #: Clamp on the window, seconds.
    min_window = 0.25
    max_window = 60.0
    #: Cold-start seconds assumed for an instance with no observed cost
    #: and no profile.
    default_cold_cost = 3.0

    def cold_cost(self, instance) -> float:
        """Expected seconds to re-provision this instance from cold."""
        observed = instance.ready_at - instance.launched_at
        if observed > 0:
            return observed
        profile = getattr(instance, "profile", None)
        if profile is not None:
            return profile.serving_ready_time
        return self.default_cold_cost

    def _window(self, pool, instance, now: float) -> float:
        window = self.cold_cost(instance) * self.cost_ratio
        return min(self.max_window, max(self.min_window, window))


class TargetQueueDelayPolicy(_WindowedRetirePolicy):
    """Proactive scale-up when predicted queue delay breaches the SLO.

    On every arrival the policy predicts the queueing delay a request
    would see (queued work divided by ready capacity, plus the wait for
    the first cold start to finish when nothing is ready) and raises the
    instance target while the prediction exceeds ``slo_ttft``.  Scale
    -down is a plain enforced keep-alive window, so the extra capacity
    drains once the backlog does.
    """

    name = "queue-slo"

    #: Seconds of service one queued request is predicted to need.
    service_estimate = 0.08

    def __init__(self, slo_ttft: float = 1.0,
                 keep_alive: float = 20.0) -> None:
        super().__init__()
        if slo_ttft <= 0:
            raise InvalidValueError(
                f"slo_ttft must be positive, got {slo_ttft}")
        self.slo_ttft = slo_ttft
        self.keep_alive = keep_alive

    def predicted_delay(self, pool, model: Optional[str],
                        now: float) -> float:
        """Estimated queueing delay for the scope's next admission."""
        live = pool._live_instances(model)
        if not live:
            return 0.0
        ready = [inst for inst in live if now >= inst.ready_at]
        queued = sum(len(inst.waiting) for inst in live)
        delay = queued * self.service_estimate / max(1, len(ready))
        if not ready:
            delay += min(inst.ready_at for inst in live) - now
        return delay

    def target_instances(self, pool, model: Optional[str],
                         now: float) -> int:
        """One extra instance whenever the predicted delay breaches SLO."""
        live = pool._live_instances(model)
        if not live:
            return 0
        if self.predicted_delay(pool, model, now) > self.slo_ttft:
            self._decide("slo_breach_predicted")
            return len(live) + 1
        return 0

    def _window(self, pool, instance, now: float) -> float:
        return self.keep_alive


_AUTOSCALERS = {
    KeepAlivePolicy.name: KeepAlivePolicy,
    HistogramPolicy.name: HistogramPolicy,
    ColdCostAwarePolicy.name: ColdCostAwarePolicy,
    TargetQueueDelayPolicy.name: TargetQueueDelayPolicy,
}


def autoscaler_names() -> Tuple[str, ...]:
    """The registered autoscale-policy names, alphabetical."""
    return tuple(sorted(_AUTOSCALERS))


def make_autoscaler(spec: str, keep_alive: float = 20.0,
                    slo_ttft: float = 0.0) -> AutoscalePolicy:
    """Build a fresh autoscale policy for one simulation run.

    ``spec`` is a registered name (``"keep-alive"``, ``"histogram"``,
    ``"cold-cost"``, ``"queue-slo"``).  ``keep_alive`` seeds the
    fixed/default windows and ``slo_ttft`` the queue-delay budget,
    mirroring the scenario configuration.
    """
    if spec not in _AUTOSCALERS:
        raise InvalidValueError(
            f"unknown autoscale policy {spec!r}; "
            f"registered: {', '.join(autoscaler_names())}")
    if spec == KeepAlivePolicy.name:
        return KeepAlivePolicy(keep_alive)
    if spec == HistogramPolicy.name:
        return HistogramPolicy(default_keep_alive=keep_alive)
    if spec == ColdCostAwarePolicy.name:
        return ColdCostAwarePolicy()
    return TargetQueueDelayPolicy(
        slo_ttft=slo_ttft if slo_ttft > 0 else 1.0,
        keep_alive=keep_alive)

