"""Tensor-parallel engines and per-rank Medusa materialization (§8).

Sharding model: tensor parallelism splits every weight matrix across ranks,
so each rank holds ``param_bytes / tp_degree`` and runs the same layer-
structured forwarding; an allreduce follows the attention and MLP blocks.
Per-rank engines therefore reuse the single-GPU machinery on a *rank
config* (same architecture, sharded bytes), and the cross-rank effects are
the cold-start barrier (every stage completes when the slowest rank does),
the one-off distributed-communicator initialization, and the per-step
allreduce latency during serving.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core.binfmt import LazyArtifact
from repro.core.fastpath import VectorizedRestorer
from repro.core.offline import OfflinePhase, OfflineReport
from repro.core.online import check_artifact_key
from repro.engine import ColdStartReport, LLMEngine, Strategy
from repro.errors import InvalidValueError, RestorationError
from repro.models.config import ModelConfig
from repro.models.zoo import get_model_config
from repro.simgpu.costmodel import CostModel
from repro.simgpu.process import ExecutionMode

#: One-off cost of bringing up the NCCL-style communicator group.  Paid by
#: every strategy — materialization does not (and cannot) remove it.
DIST_INIT_TIME = 0.95

#: Per-decode-step allreduce latency components (ring allreduce over NVLink).
ALLREDUCE_BASE = 12e-6          # per collective launch
ALLREDUCE_PER_BYTE = 1 / 250e9  # effective NVLink allreduce bandwidth


def rank_config(config, tp_degree: int, rank: int) -> ModelConfig:
    """The per-rank view of a model: same structure, sharded weights."""
    if isinstance(config, str):
        config = get_model_config(config)
    if tp_degree < 1:
        raise InvalidValueError(f"tp_degree must be >= 1, got {tp_degree}")
    if not 0 <= rank < tp_degree:
        raise InvalidValueError(f"rank {rank} outside tp_degree {tp_degree}")
    if tp_degree == 1:
        return config
    shard_bytes = config.param_bytes // tp_degree
    return dataclasses.replace(
        config,
        name=f"{config.name}-tp{tp_degree}r{rank}",
        param_bytes=shard_bytes,
    )


def allreduce_time(hidden_size: int, batch_size: int,
                   tp_degree: int) -> float:
    """Per-decode-step allreduce cost added by tensor parallelism: two
    collectives per step (after attention and after the MLP)."""
    if tp_degree <= 1:
        return 0.0
    payload = batch_size * hidden_size * 2          # fp16 activations
    ring_factor = 2.0 * (tp_degree - 1) / tp_degree
    per_collective = ALLREDUCE_BASE + payload * ring_factor * ALLREDUCE_PER_BYTE
    return 2 * per_collective


@dataclass
class TensorParallelColdStart:
    """The composed multi-rank cold start."""

    model: str
    tp_degree: int
    strategy: Strategy
    rank_reports: List[ColdStartReport]
    dist_init_time: float = DIST_INIT_TIME

    @property
    def loading_time(self) -> float:
        """Barrier semantics: the slowest rank gates readiness."""
        return (max(r.loading_time for r in self.rank_reports)
                + self.dist_init_time)

    @property
    def cold_start_time(self) -> float:
        return (max(r.cold_start_time for r in self.rank_reports)
                + self.dist_init_time)


class TensorParallelEngine:
    """N per-rank engines behind one cold-start/serving facade."""

    def __init__(self, config, tp_degree: int,
                 strategy: Strategy = Strategy.VLLM, seed: int = 0,
                 mode: ExecutionMode = ExecutionMode.TIMING,
                 cost_model: Optional[CostModel] = None):
        if isinstance(config, str):
            config = get_model_config(config)
        self.config = config
        self.tp_degree = tp_degree
        self.strategy = strategy
        self.engines = [
            LLMEngine(rank_config(config, tp_degree, rank), strategy,
                      seed=seed * 131 + rank, mode=mode,
                      cost_model=cost_model)
            for rank in range(tp_degree)
        ]

    def cold_start(self, restorers: Optional[List] = None
                   ) -> TensorParallelColdStart:
        reports = []
        for rank, engine in enumerate(self.engines):
            restorer = restorers[rank] if restorers else None
            reports.append(engine.cold_start(restorer=restorer))
        return TensorParallelColdStart(
            model=self.config.name, tp_degree=self.tp_degree,
            strategy=self.strategy, rank_reports=reports,
            dist_init_time=DIST_INIT_TIME if self.tp_degree > 1 else 0.0)

    def decode_step(self, batch_size: int, use_graphs: bool = True) -> float:
        """One TP decode iteration: slowest rank + the allreduces."""
        rank_times = [engine.decode_step(batch_size, use_graphs=use_graphs)
                      for engine in self.engines]
        return max(rank_times) + allreduce_time(
            self.config.hidden_size, batch_size, self.tp_degree)


class TensorParallelMedusa:
    """Per-rank offline materialization + online restore (§8 future work)."""

    def __init__(self, config, tp_degree: int, seed: int = 0,
                 mode: ExecutionMode = ExecutionMode.TIMING,
                 cost_model: Optional[CostModel] = None):
        if isinstance(config, str):
            config = get_model_config(config)
        self.config = config
        self.tp_degree = tp_degree
        self.seed = seed
        self.mode = mode
        self.cost_model = cost_model

    # -- offline ----------------------------------------------------------

    def run_offline(self) -> Tuple[List[LazyArtifact],
                                   List[OfflineReport]]:
        """Materialize every rank; verifies the ranks agree structurally."""
        artifacts: List[LazyArtifact] = []
        reports: List[OfflineReport] = []
        for rank in range(self.tp_degree):
            phase = OfflinePhase(
                rank_config(self.config, self.tp_degree, rank),
                seed=self.seed * 977 + rank, mode=self.mode,
                cost_model=self.cost_model)
            artifact, report = phase.run()
            artifacts.append(artifact)
            reports.append(report)
        self._verify_rank_consistency(artifacts)
        return artifacts, reports

    @staticmethod
    def _verify_rank_consistency(artifacts: List[LazyArtifact]) -> None:
        """All ranks must capture the same graph structure.

        Tensor parallelism shards the weights, not the program: rank
        artifacts differ only in kernel symbols (per-rank model names) and
        sizes, never in node counts, batch coverage, or edge structure.
        """
        reference = artifacts[0]
        for rank, artifact in enumerate(artifacts[1:], start=1):
            if artifact.batches != reference.batches:
                raise RestorationError(
                    f"rank {rank} captured batch sizes "
                    f"{artifact.batches} != rank 0's {reference.batches}")
            for batch in artifact.batches:
                graph = artifact.graph_table(batch)
                ref_graph = reference.graph_table(batch)
                if graph.num_nodes != ref_graph.num_nodes:
                    raise RestorationError(
                        f"rank {rank} batch {batch}: {graph.num_nodes} nodes"
                        f" != rank 0's {ref_graph.num_nodes}")
                # The offline phase stores each graph's edges sorted.
                if not np.array_equal(graph.edges, ref_graph.edges):
                    raise RestorationError(
                        f"rank {rank} batch {batch}: edge structure diverged")

    # -- online ---------------------------------------------------------------

    def cold_start(self, artifacts: List[LazyArtifact], seed: int = 1
                   ) -> Tuple[TensorParallelEngine, TensorParallelColdStart]:
        if len(artifacts) != self.tp_degree:
            raise RestorationError(
                f"need {self.tp_degree} rank artifacts, got {len(artifacts)}")
        engine = TensorParallelEngine(
            self.config, self.tp_degree, Strategy.MEDUSA, seed=seed,
            mode=self.mode, cost_model=self.cost_model)
        for artifact, rank_engine in zip(artifacts, engine.engines):
            check_artifact_key(artifact, rank_engine)
        restorers = [VectorizedRestorer(artifact) for artifact in artifacts]
        report = engine.cold_start(restorers=restorers)
        return engine, report
