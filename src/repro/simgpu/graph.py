"""CUDA graphs: columns, instantiation, and self-replaying.

A captured graph is *low-level and ready-to-execute* (paper §2.5): each node
is a raw kernel address, a flat parameter array whose entries are known only
by byte size, and launch dimensions.  A :class:`CudaGraph` holds exactly
that, as columns (:class:`GraphColumns`) — a capture and a restore both
build one, and nothing builds per-node objects.  Replay executes straight
through those raw values — via
:meth:`repro.simgpu.driver.CudaDriver.resolve_executable` and the live
allocation table — so a stale pointer or an unloaded module fails exactly the
way it would on real hardware.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional

import numpy as np

from repro.errors import InvalidValueError
from repro.simgpu.executor import ExecutionMode, execute_params
from repro.simgpu.kernels import KernelParam


class GraphColumns(NamedTuple):
    """A captured or restored graph's nodes and edges as arrays.

    Node ``i`` launches ``kernel_addresses[i]`` with ``launch_dims``
    ``{"batch_size": batch_dims[i]}`` and owns parameter slots
    ``param_offsets[i]:param_offsets[i+1]`` of ``param_sizes`` /
    ``param_values``; ``edges`` is the ``(n, 2)`` dependency array (a
    capture's is sorted and holds each edge once).
    """

    kernel_addresses: np.ndarray
    param_sizes: np.ndarray
    param_values: np.ndarray
    param_offsets: np.ndarray
    batch_dims: np.ndarray
    edges: np.ndarray


@dataclass
class GraphExecMeta:
    """Timing metadata attached at capture (not part of the CUDA ABI)."""

    param_bytes: int = 0        # model weight bytes read per forwarding
    num_tokens: int = 1         # batched tokens of the captured forwarding
    batch_size: int = 1


class CudaGraph:
    """A captured (or restored) graph: its :class:`GraphColumns` and
    :class:`GraphExecMeta`."""

    def __init__(self, columns: GraphColumns, exec_meta: GraphExecMeta):
        self.columns = columns
        self.exec_meta = exec_meta

    @property
    def num_nodes(self) -> int:
        return int(self.columns.kernel_addresses.shape[0])

    def topological_order(self) -> List[int]:
        """Kahn's algorithm with node-index tie-breaking (deterministic)."""
        count = self.num_nodes
        edges = self.columns.edges
        if edges.size and (edges.min() < 0 or edges.max() >= count):
            raise InvalidValueError(
                f"graph edge out of node range 0..{count - 1}")
        indegree = [0] * count
        successors: Dict[int, List[int]] = {}
        for src, dst in edges.tolist():
            indegree[dst] += 1
            successors.setdefault(src, []).append(dst)
        ready = [i for i, d in enumerate(indegree) if d == 0]
        heapq.heapify(ready)
        order: List[int] = []
        while ready:
            node = heapq.heappop(ready)
            order.append(node)
            for succ in successors.get(node, ()):
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    heapq.heappush(ready, succ)
        if len(order) != count:
            raise InvalidValueError("graph dependencies contain a cycle")
        return order

    def instantiate(self, process) -> "CudaGraphExec":
        """``cudaGraphInstantiate``: build the executable form (costs time)."""
        process.clock.advance(
            process.cost_model.instantiate_time(self.num_nodes))
        return CudaGraphExec(graph=self, process=process)


class CudaGraphExec:
    """The instantiated, launchable form of a graph ("self-replaying", §2.2)."""

    def __init__(self, graph: CudaGraph, process):
        self.graph = graph
        self._process = process
        self._order: Optional[List[int]] = None

    def replay(self) -> None:
        """Launch the whole graph with a single CPU submission.

        Advances simulated time by the graph-step cost; in COMPUTE mode also
        executes every node's kernel through its *recorded raw addresses*.
        """
        process = self._process
        meta = self.graph.exec_meta
        if meta.param_bytes:
            step = process.cost_model.graph_step_time(
                meta.param_bytes, meta.num_tokens)
        else:
            step = (process.cost_model.graph_launch_overhead
                    + self.graph.num_nodes * process.cost_model.kernel_min_time)
        process.clock.advance(step)

        if process.mode is ExecutionMode.COMPUTE:
            if self._order is None:
                self._order = self.graph.topological_order()
            columns = self.graph.columns
            addresses = columns.kernel_addresses.tolist()
            offsets = columns.param_offsets.tolist()
            sizes = columns.param_sizes.tolist()
            values = columns.param_values.tolist()
            resolve = process.driver.resolve_executable
            for index in self._order:
                start, stop = offsets[index], offsets[index + 1]
                execute_params(process, resolve(addresses[index]), list(map(
                    KernelParam, sizes[start:stop], values[start:stop])))
