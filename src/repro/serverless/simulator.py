"""The single-model cluster simulator (paper §7.5).

Requests arrive (Poisson, ShareGPT-like shapes) at a router over a pool of
GPUs.  The router sends each request to the least-loaded live instance; when
every instance is saturated and a GPU is free, the autoscaling policy
launches a new instance, which becomes ready after the *strategy-specific
cold-start latency* — the quantity Medusa shrinks.  Runtime initialization
is assumed warm-pooled (as in the paper: "the time required to launch an
inference serving instance is equal to the duration of the loading phase").

The pool itself is :class:`repro.serverless.cluster.MultiModelCluster`;
:class:`ClusterSimulator` runs one :class:`SimulationConfig` on it as a
single :class:`~repro.serverless.cluster.ModelDeployment`.  The
deployment-level fields of the config (``initial_instances``, the artifact
store, ``chunks``, the serving flags) go to the deployment, the pool-level
ones (``num_gpus``, ``keep_alive``, ``drain``, ``abort_cold_starts``,
placement and autoscaling) to the pool.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.errors import InvalidValueError
from repro.serverless.cluster import (
    ModelDeployment,
    MultiModelCluster,
    TaggedRequest,
)
from repro.serverless.costs import ServingCostModel
from repro.serverless.instance import ColdStartProfile
from repro.serverless.metrics import SimulationMetrics
from repro.serverless.placement import TierSpec
from repro.serverless.workload import Request


@dataclass(frozen=True)
class SimulationConfig:
    """One single-model cluster-simulation scenario.

    Pool-level fields are documented on
    :class:`~repro.serverless.cluster.MultiModelCluster`, deployment-level
    ones on :class:`~repro.serverless.cluster.ModelDeployment`.
    """

    num_gpus: int = 4
    cold_start_latency: float = 3.0       # loading-phase time of the strategy
    use_cuda_graphs: bool = True
    deferred_capture: bool = False        # §2.4: capture lazily while serving
    max_running: int = 14                 # per-instance concurrent sequences
    initial_instances: int = 0            # serverless: scale from zero
    hot_spares: int = 0                   # §2.4: always-on warm instances
    keep_alive: float = 20.0              # idle seconds before retiring
    drain: bool = True                    # serve queued work past the horizon
    profile: Optional[ColdStartProfile] = None   # plan trace, if derived
    abort_cold_starts: bool = False       # cancel redundant cold starts
    artifact_store: Optional[object] = None   # store every cold start reads
    artifact_key: Optional[Tuple[str, str]] = None   # (gpu_name, model_name)
    placement: object = "locality"        # "flat" / "locality" / "affinity"
    tiers: Optional[Tuple[TierSpec, ...]] = None   # None: DEFAULT_TIERS
    chunks: Optional[Tuple[object, ...]] = None    # chunk-streamed fetch
    autoscale: object = "keep-alive"      # autoscale policy name or object
    slo_ttft: float = 0.0                 # TTFT SLO budget (0.0 = none)

    def __post_init__(self) -> None:
        if self.num_gpus <= 0:
            raise InvalidValueError("num_gpus must be positive")
        if self.initial_instances + self.hot_spares > self.num_gpus:
            raise InvalidValueError(
                "initial_instances + hot_spares cannot exceed num_gpus")

    @classmethod
    def from_report(cls, report, **overrides) -> "SimulationConfig":
        """Derive the strategy-dependent fields from one cold start.

        Routes every consumer (the CLI, benchmarks, tooling) through the
        scheduled LoadPlan's :class:`ColdStartProfile` instead of
        hand-copying per-strategy flags; ``overrides`` set the remaining
        scenario fields (``num_gpus``, ``hot_spares``, ...).
        """
        profile = ColdStartProfile.from_report(report)
        return cls(cold_start_latency=profile.serving_ready_time,
                   use_cuda_graphs=profile.use_cuda_graphs,
                   deferred_capture=profile.deferred_capture,
                   profile=profile, **overrides)


class ClusterSimulator(MultiModelCluster):
    """Runs one single-model scenario: a pool with one deployment.

    ``model`` names that deployment (the cost model's model name);
    ``instances[model]`` and ``metrics[model]`` hold its instances and
    metrics, and :meth:`run` returns the latter.
    """

    def __init__(self, costs: ServingCostModel, config: SimulationConfig):
        self.costs = costs
        self.config = config
        self.model = costs.config.name
        deployment = ModelDeployment(
            name=self.model, costs=costs,
            cold_start_latency=config.cold_start_latency,
            use_cuda_graphs=config.use_cuda_graphs,
            deferred_capture=config.deferred_capture,
            hot_spares=config.hot_spares, max_running=config.max_running,
            profile=config.profile,
            initial_instances=config.initial_instances,
            artifact_store=config.artifact_store,
            artifact_key=config.artifact_key, chunks=config.chunks)
        super().__init__(
            [deployment], num_gpus=config.num_gpus,
            keep_alive=config.keep_alive, placement=config.placement,
            tiers=config.tiers, autoscale=config.autoscale,
            slo_ttft=config.slo_ttft, drain=config.drain,
            abort_cold_starts=config.abort_cold_starts)

    def run(self, requests: List[Request],
            horizon: float) -> SimulationMetrics:
        """Simulate the full trace; returns the run's metrics."""
        tagged = [TaggedRequest(self.model, request) for request in requests]
        return self._simulate(tagged, horizon)[self.model]
