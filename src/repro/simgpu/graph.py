"""CUDA graphs: nodes, edges, instantiation, and self-replaying.

A captured graph is *low-level and ready-to-execute* (paper §2.5): each node
stores the raw kernel address and a flat parameter array whose entries are
known only by byte size.  Replay executes straight through those raw values —
via :meth:`repro.simgpu.driver.CudaDriver.resolve_executable` and the live
allocation table — so a stale pointer or an unloaded module fails exactly the
way it would on real hardware.

A captured or restored graph holds its content as columns
(:class:`GraphColumns`) and builds the node objects only when something
reads :attr:`CudaGraph.nodes`.  A graph made from node objects (the
checkpoint baseline, tests) holds those.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, NamedTuple, Optional, Set, Tuple

import numpy as np

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


class PackedParams:
    """A node's parameter array as a view into the resolved flat arrays.

    Quacks like the ``List[KernelParam]`` a :class:`CudaGraphNode` stores —
    ``len``, indexing, iteration, and item assignment (what
    ``CudaGraphNode.set_param`` uses) all work — but holds only two array
    references and a slot range.  A 16k-node graph therefore restores
    without creating ~112k ``KernelParam`` objects; they materialize lazily
    when COMPUTE-mode execution iterates the node.
    """

    __slots__ = ("sizes", "values", "start", "stop")

    def __init__(self, sizes: np.ndarray, values: np.ndarray,
                 start: int, stop: int):
        self.sizes = sizes          # flat per-slot byte sizes (shared)
        self.values = values        # flat resolved values (shared, mutable)
        self.start = start
        self.stop = stop

    def __len__(self) -> int:
        return self.stop - self.start

    def _position(self, index: int) -> int:
        length = self.stop - self.start
        if index < 0:
            index += length
        if not 0 <= index < length:
            raise IndexError(f"param index {index} out of range "
                             f"for {length} slots")
        return self.start + index

    def __getitem__(self, index: int) -> KernelParam:
        position = self._position(index)
        return KernelParam(int(self.sizes[position]),
                           int(self.values[position]))

    def __setitem__(self, index: int, param: KernelParam) -> None:
        # Slot sizes are fixed by the kernel ABI; only the value moves.
        self.values[self._position(index)] = param.value

    def __iter__(self) -> Iterator[KernelParam]:
        sizes = self.sizes[self.start:self.stop].tolist()
        values = self.values[self.start:self.stop].tolist()
        for size, value in zip(sizes, values):
            yield KernelParam(size, value)


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
    """A captured (or restored) graph of kernel nodes with dependency edges.

    A graph made by :meth:`from_columns` (a captured or restored one)
    keeps its content as :class:`GraphColumns`: ``num_nodes``,
    ``exec_meta``, ``columns`` and instantiation read no node object, so
    a TIMING-mode capture, restore and replay build none.  ``nodes`` and
    ``edges`` are built on first access and cached — the same list and
    set on every access — and each node's :class:`PackedParams` views the
    shared ``param_values`` column, so ``set_param`` writes through.
    """

    def __init__(self, nodes: Optional[List[CudaGraphNode]] = None,
                 edges: Optional[Set[Tuple[int, int]]] = None,
                 exec_meta: Optional[GraphExecMeta] = None):
        self._nodes: Optional[List[CudaGraphNode]] = \
            nodes if nodes is not None else []
        self._edges: Optional[Set[Tuple[int, int]]] = \
            edges if edges is not None else set()
        self._columns: Optional[GraphColumns] = None
        self.exec_meta = exec_meta or GraphExecMeta()
        #: node objects this graph has built from its columns (a work
        #: count: 0 until something reads ``nodes``)
        self.nodes_built = 0

    @classmethod
    def from_columns(cls, columns: GraphColumns,
                     exec_meta: GraphExecMeta) -> "CudaGraph":
        """A graph whose nodes and edges stay columns until first read."""
        graph = cls(exec_meta=exec_meta)
        graph._nodes = graph._edges = None
        graph._columns = columns
        return graph

    @property
    def nodes(self) -> List[CudaGraphNode]:
        if self._nodes is None:
            columns = self._columns
            sizes, values = columns.param_sizes, columns.param_values
            offsets = columns.param_offsets.tolist()
            dims = columns.batch_dims.tolist()
            self._nodes = [
                CudaGraphNode(
                    kernel_address=address,
                    params=PackedParams(sizes, values,
                                        offsets[index], offsets[index + 1]),
                    launch_dims={"batch_size": dims[index]},
                )
                for index, address
                in enumerate(columns.kernel_addresses.tolist())
            ]
            self.nodes_built += len(self._nodes)
        return self._nodes

    @property
    def edges(self) -> Set[Tuple[int, int]]:
        if self._edges is None:
            self._edges = {tuple(edge)
                           for edge in self._columns.edges.tolist()}
        return self._edges

    @property
    def num_nodes(self) -> int:
        if self._nodes is None:
            return int(self._columns.kernel_addresses.shape[0])
        return len(self._nodes)

    @property
    def columns(self) -> Optional[GraphColumns]:
        """The columns of a graph made by :meth:`from_columns`; None once
        ``add_node`` or ``add_edge`` changed it, and for a graph made from
        node objects."""
        return self._columns

    def _edit(self) -> None:
        """Build the node objects and edge set: an edit goes to them, and
        the columns stop describing the graph."""
        if self._columns is not None:
            self.nodes, self.edges
            self._columns = None

    def add_node(self, node: CudaGraphNode) -> int:
        self._edit()
        self._nodes.append(node)
        return len(self._nodes) - 1

    def add_edge(self, src: int, dst: int) -> None:
        count = self.num_nodes
        if not (0 <= src < count and 0 <= dst < count):
            raise InvalidValueError(f"edge ({src}, {dst}) out of node range")
        if src == dst:
            raise InvalidValueError(f"self-edge on node {src}")
        self._edit()
        self._edges.add((src, dst))

    def topological_order(self) -> List[int]:
        """Kahn's algorithm with node-index tie-breaking (deterministic)."""
        indegree = [0] * self.num_nodes
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
        if len(order) != self.num_nodes:
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
