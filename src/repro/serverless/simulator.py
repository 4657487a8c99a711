"""The single-model cluster simulator (paper §7.5).

Requests arrive (Poisson, ShareGPT-like shapes) at a router over a pool of
GPUs.  The router sends each request to the least-loaded live instance; when
every instance is saturated and a GPU is free, the autoscaling policy
launches a new instance, which becomes ready after the *strategy-specific
cold-start latency* — the quantity Medusa shrinks.  Runtime initialization
is assumed warm-pooled (as in the paper: "the time required to launch an
inference serving instance is equal to the duration of the loading phase").

The pool itself is :class:`repro.serverless.cluster.MultiModelCluster`;
:class:`ClusterSimulator` is that pool with one
:class:`~repro.serverless.cluster.ModelDeployment`, fed untagged requests.
"""

from __future__ import annotations

from typing import List

from repro.serverless.cluster import (
    ModelDeployment,
    MultiModelCluster,
    TaggedRequest,
)
from repro.serverless.metrics import SimulationMetrics
from repro.serverless.workload import Request


class ClusterSimulator(MultiModelCluster):
    """Runs one single-model scenario: a pool with one deployment.

    ``pool_kwargs`` are :class:`MultiModelCluster`'s own options
    (``placement``, ``autoscale``, ``slo_ttft``, ``trace``, ...).
    ``model`` names the deployment; ``instances[model]`` and
    ``metrics[model]`` hold its instances and metrics, and :meth:`run`
    returns the latter.
    """

    def __init__(self, deployment: ModelDeployment, num_gpus: int,
                 **pool_kwargs):
        super().__init__([deployment], num_gpus, **pool_kwargs)
        self.model = deployment.name

    def run(self, requests: List[Request],
            horizon: float) -> SimulationMetrics:
        """Simulate the full trace; returns the run's metrics."""
        tagged = [TaggedRequest(self.model, request) for request in requests]
        return self._simulate(tagged, horizon)[self.model]
