"""CUDA graphs: nodes, edges, instantiation, and self-replaying.

A captured graph is *low-level and ready-to-execute* (paper §2.5): each node
stores the raw kernel address and a flat parameter array whose entries are
known only by byte size.  Replay executes straight through those raw values —
via :meth:`repro.simgpu.driver.CudaDriver.resolve_executable` and the live
allocation table — so a stale pointer or an unloaded module fails exactly the
way it would on real hardware.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import InvalidValueError
from repro.simgpu.kernels import KernelParam


@dataclass
class CudaGraphNode:
    """One kernel node: address + parameter array + launch dimensions.

    Mirrors Figure 4(d): the kernel address, the parameter array (with each
    entry's size), and the launch configuration recorded at capture.  Both
    the address and the parameters are mutable, as with
    ``cudaGraphExecKernelNodeSetParams`` — restoration rewrites them in place.
    """

    kernel_address: int
    params: List[KernelParam]
    launch_dims: Dict[str, int] = field(default_factory=dict)

    def param_sizes(self) -> Tuple[int, ...]:
        return tuple([p.size for p in self.params])

    def set_param(self, index: int, value: int) -> None:
        old = self.params[index]
        self.params[index] = KernelParam(size=old.size, value=value)


@dataclass
class GraphExecMeta:
    """Timing metadata attached at capture (not part of the CUDA ABI)."""

    param_bytes: int = 0        # model weight bytes read per forwarding
    num_tokens: int = 1         # batched tokens of the captured forwarding
    batch_size: int = 1


class CudaGraph:
    """A captured (or restored) graph of kernel nodes with dependency edges."""

    def __init__(self, nodes: Optional[List[CudaGraphNode]] = None,
                 edges: Optional[Set[Tuple[int, int]]] = None,
                 exec_meta: Optional[GraphExecMeta] = None):
        self.nodes: List[CudaGraphNode] = nodes if nodes is not None else []
        self.edges: Set[Tuple[int, int]] = edges if edges is not None else set()
        self.exec_meta = exec_meta or GraphExecMeta()

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    def add_node(self, node: CudaGraphNode) -> int:
        self.nodes.append(node)
        return len(self.nodes) - 1

    def add_edge(self, src: int, dst: int) -> None:
        if not (0 <= src < len(self.nodes) and 0 <= dst < len(self.nodes)):
            raise InvalidValueError(f"edge ({src}, {dst}) out of node range")
        if src == dst:
            raise InvalidValueError(f"self-edge on node {src}")
        self.edges.add((src, dst))

    def topological_order(self) -> List[int]:
        """Kahn's algorithm with node-index tie-breaking (deterministic)."""
        indegree = [0] * len(self.nodes)
        successors: Dict[int, List[int]] = {}
        for src, dst in sorted(self.edges):
            indegree[dst] += 1
            successors.setdefault(src, []).append(dst)
        import heapq
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
        if len(order) != len(self.nodes):
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
        from repro.simgpu.executor import execute_node  # local: avoid cycle
        from repro.simgpu.process import ExecutionMode

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
            for index in self._order:
                execute_node(process, self.graph.nodes[index])
