"""Serverless serving platform simulation (paper §7.5).

A discrete-event simulator of a GPU pool serving LLM inference functions:
Poisson arrivals with ShareGPT-like request shapes, a router + autoscaler
that launches new serving instances on demand (paying the strategy-specific
cold-start latency), and iteration-level continuous batching on each
instance.  Produces the TTFT tail and throughput curves of Figures 10/11.
"""

from repro.serverless.autoscale import (
    AutoscalePolicy,
    ColdCostAwarePolicy,
    HistogramPolicy,
    KeepAlivePolicy,
    TargetQueueDelayPolicy,
    autoscaler_names,
    make_autoscaler,
)
from repro.serverless.cluster import (
    ModelDeployment,
    MultiModelCluster,
    TaggedRequest,
    tag_workloads,
)
from repro.serverless.costs import ServingCostModel
from repro.serverless.instance import ColdStartProfile, Instance
from repro.serverless.metrics import SimulationMetrics
from repro.serverless.placement import (
    DEFAULT_TIERS,
    AffinityPlacement,
    FetchResolution,
    FlatPlacement,
    LocalityPlacement,
    NodeCache,
    PlacementPolicy,
    TierSpec,
    make_policy,
    policy_names,
)
from repro.serverless.simulator import ClusterSimulator
from repro.serverless.workload import (
    RateSchedule,
    RateSegment,
    Request,
    ShareGPTWorkload,
    make_schedule,
    shape_names,
)

__all__ = [
    "AffinityPlacement",
    "AutoscalePolicy",
    "ColdCostAwarePolicy",
    "HistogramPolicy",
    "KeepAlivePolicy",
    "TargetQueueDelayPolicy",
    "autoscaler_names",
    "make_autoscaler",
    "RateSchedule",
    "RateSegment",
    "make_schedule",
    "shape_names",
    "ClusterSimulator",
    "ColdStartProfile",
    "DEFAULT_TIERS",
    "FetchResolution",
    "FlatPlacement",
    "LocalityPlacement",
    "ModelDeployment",
    "MultiModelCluster",
    "NodeCache",
    "PlacementPolicy",
    "TaggedRequest",
    "TierSpec",
    "tag_workloads",
    "make_policy",
    "policy_names",
    "Instance",
    "Request",
    "ServingCostModel",
    "ShareGPTWorkload",
    "SimulationMetrics",
]
