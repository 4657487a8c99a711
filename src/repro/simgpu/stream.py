"""Streams, kernel launching, and stream capture.

Stream capture reproduces the real driver's behaviour and restrictions
(paper §2.2–2.3):

- while capturing, launched kernels are *recorded, not executed*;
- device/stream synchronization during capture is a capture violation;
- the first use of a library, the first launch of a kernel's module, and a
  cuBLAS-style kernel's one-time workspace setup all imply synchronization —
  so capture fails unless a warm-up forwarding ran first;
- dependencies are recorded from stream order plus producer→consumer buffer
  relationships, yielding the edge set Medusa materializes.
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from repro.errors import CaptureViolationError, InvalidValueError
from repro.simgpu.executor import ExecutionMode, execute_params
from repro.simgpu.graph import CudaGraph, GraphColumns, GraphExecMeta
from repro.simgpu.kernels import KernelParam, KernelSpec
from repro.utils.columns import IntColumn


class LaunchRecord(NamedTuple):
    """One intercepted ``cudaLaunchKernel`` (Medusa's offline trace unit).

    ``params`` and ``launch_dims`` are the launch's own objects, not
    copies: interceptors read them during the notification and keep
    nothing mutable.
    """

    kernel_name: str
    library: str
    params: Sequence[KernelParam]
    launch_dims: Mapping[str, int]
    captured: bool      # True if this launch was recorded into a graph


class CudaEvent:
    """A CUDA event: the fork/join primitive of multi-stream capture.

    Recording an event on a capturing stream remembers the stream's last
    node; a second stream that waits on that event *joins* the capture and
    its subsequent launches depend on the recorded node — how real stream
    capture propagates across streams (cudaStreamWaitEvent).
    """

    def __init__(self, name: str = "event"):
        self.name = name
        self.recorded = False
        self.capture: Optional["_CaptureBuilder"] = None
        self.capture_node: Optional[int] = None


class CaptureMark(NamedTuple):
    """A single-stream capture's state after one forwarding layer."""

    nodes: int                    # nodes recorded so far
    edges: int                    # edge rows recorded so far
    last_writer: Dict[int, int]   # a copy of buffer base -> writer node


class _CaptureBuilder:
    """Accumulates a graph's columns between begin_capture and end_capture.

    A node appends its kernel address, batch dim, parameter sizes and
    values; an edge appends one (source, target) row, possibly twice.
    Each column is an :class:`IntColumn`: a recorded node appends to its
    pending lists, a stamped block its arrays.  ``graph`` turns them into
    a :class:`CudaGraph`, each edge once and sorted.
    """

    def __init__(self, meta: GraphExecMeta, origin: "Stream"):
        self.meta = meta
        self.origin = origin
        self.joined: List["Stream"] = [origin]
        self._last_stream_node: Dict[str, Optional[int]] = {origin.name: None}
        self._pending_deps: Dict[str, List[int]] = {}
        self._last_writer: Dict[int, int] = {}   # buffer base addr -> node idx
        self._addresses = IntColumn()
        self._dims = IntColumn()
        self._counts = IntColumn()
        self._sizes = IntColumn()
        self._values = IntColumn()
        self._sources = IntColumn()
        self._targets = IntColumn()

    def join(self, stream: "Stream", dependency_node: Optional[int]) -> None:
        """A stream enters the capture via cudaStreamWaitEvent."""
        if stream not in self.joined:
            self.joined.append(stream)
            self._last_stream_node[stream.name] = None
        if dependency_node is not None:
            self._pending_deps.setdefault(stream.name, []).append(
                dependency_node)

    def last_node(self, stream: "Stream") -> Optional[int]:
        return self._last_stream_node.get(stream.name)

    def graph(self) -> CudaGraph:
        """The graph's columns, int64 copies of the builder's (a value
        that does not fit raises ``OverflowError``)."""
        def int64(column: IntColumn) -> np.ndarray:
            return column.array().astype(np.int64)

        count = max(len(self._addresses), 1)
        edges = np.unique(int64(self._sources) * count + int64(self._targets))
        offsets = np.zeros(len(self._counts) + 1, dtype=np.int64)
        np.cumsum(self._counts.array(), out=offsets[1:])
        return CudaGraph(GraphColumns(
            kernel_addresses=int64(self._addresses),
            param_sizes=int64(self._sizes),
            param_values=int64(self._values),
            param_offsets=offsets,
            batch_dims=int64(self._dims),
            edges=np.stack(np.divmod(edges, count), axis=1),
        ), self.meta)

    def record(self, process, spec: KernelSpec, address: int,
               params: Sequence[KernelParam],
               launch_dims: Mapping[str, int],
               stream: Optional["Stream"] = None) -> None:
        stream = stream or self.origin
        index = len(self._addresses)
        self._addresses.pending.append(address)
        self._dims.pending.append(launch_dims.get("batch_size", 0))
        self._counts.pending.append(len(params))
        self._sizes.pending.extend([p.size for p in params])
        self._values.pending.extend([p.value for p in params])
        sources = self._sources.pending
        edges = len(sources)
        previous = self._last_stream_node.get(stream.name)
        if previous is not None:
            sources.append(previous)
        for dependency in self._pending_deps.pop(stream.name, ()):
            if dependency != index:
                sources.append(dependency)
        reads: List[int] = []
        writes: List[int] = []
        resolve = process.allocator.resolve
        count = len(params)
        for slot_index, role in spec.pointer_slots:
            if slot_index >= count:
                break
            base = resolve(params[slot_index].value).address
            if role == "output":
                writes.append(base)
            elif role == "kv":
                reads.append(base)
                writes.append(base)
            else:
                reads.append(base)
        for base in reads:
            writer = self._last_writer.get(base)
            if writer is not None and writer != index:
                sources.append(writer)
        self._targets.pending.extend([index] * (len(sources) - edges))
        for base in writes:
            self._last_writer[base] = index
        self._last_stream_node[stream.name] = index

    # -- stamped layers (see repro.models.model) ---------------------------

    def mark(self) -> Optional[CaptureMark]:
        """The state a layer leaves, or None when another stream joined
        (its nodes and pending edges do not repeat with the layers)."""
        if len(self.joined) > 1 or self._pending_deps:
            return None
        return CaptureMark(len(self._addresses), len(self._sources),
                           dict(self._last_writer))

    def repeats(self, first: CaptureMark, third: CaptureMark) -> bool:
        """Whether the layer pair between ``first`` and ``third`` repeats
        the pair before ``first`` node-shifted: the buffers that pair
        wrote, their writer nodes moved on by the pair's node count, are
        exactly the buffers the later pair wrote last, and no edge
        recorded since ``first`` reaches back before the earlier pair."""
        if first is None or third is None:
            return False
        shift = third.nodes - first.nodes
        start = first.nodes - shift
        window = {base: node + shift
                  for base, node in first.last_writer.items()
                  if node >= start}
        recent = {base: node for base, node in third.last_writer.items()
                  if node >= third.nodes - shift}
        sources = self._sources.array()[first.edges:third.edges]
        return window == recent and (sources.size == 0
                                     or sources.min() >= start)

    def stamp(self, block, marks: Sequence[CaptureMark]) -> None:
        """Append ``block``'s launches as nodes, the layer after the third
        of ``marks`` and on; the layers repeat the last two of ``marks``
        in turn, shifted, as :meth:`repeats` found."""
        first, second, third = marks
        per_layer = third.nodes - second.nodes
        layers = block.layers
        launches = len(block.param_counts)
        if launches != layers * per_layer:
            raise InvalidValueError(
                f"{launches} launches for {layers} layers "
                f"of {per_layer} nodes")
        self._addresses.add(block.kernel_addresses)
        self._dims.add(np.full(launches,
                               block.launch_dims.get("batch_size", 0)))
        self._counts.add(block.param_counts)
        self._sizes.add(block.param_sizes)
        self._values.add(block.param_values)
        # Layers 2p and 2p + 1 of the block repeat the template pair
        # shifted by 2(p + 1) layers' nodes; a trailing odd layer repeats
        # the pair's first layer.
        pairs, odd = divmod(layers, 2)
        shifts = 2 * per_layer * np.arange(1, pairs + 2)[:, None]
        for column in (self._sources, self._targets):
            pair = column.array()[first.edges:third.edges]
            column.add((pair + shifts[:pairs]).reshape(-1))
            if odd:
                column.add(pair[:second.edges - first.edges]
                           + shifts[pairs])
        # The writers left: the last pair's (a trailing odd layer repeats
        # the first template, written after the pair before it).
        writers = self._last_writer
        writers.update({base: node + 2 * pairs * per_layer
                        for base, node in writers.items()
                        if node >= third.nodes - 2 * per_layer})
        if odd:
            writers.update({base: node + (layers + 1) * per_layer
                            for base, node in second.last_writer.items()
                            if node >= second.nodes - per_layer})
        self._last_stream_node[self.origin.name] = len(self._addresses) - 1


class Stream:
    """A CUDA stream bound to one simulated process.

    The stream refers to its process weakly: the process owns its default
    stream, so a strong back-reference would make every dropped process
    (and the engine around it) one reference cycle that only the cyclic
    collector could free.
    """

    def __init__(self, process, name: str = "stream0"):
        self._process = weakref.ref(process)
        self.name = name
        self._capture: Optional[_CaptureBuilder] = None

    # -- capture lifecycle ------------------------------------------------

    @property
    def is_capturing(self) -> bool:
        return self._capture is not None

    def begin_capture(self, meta: Optional[GraphExecMeta] = None) -> None:
        if self._capture is not None:
            raise CaptureViolationError(
                f"stream {self.name} is already capturing; graphs must be "
                f"captured one by one (§2.2)")
        self._capture = _CaptureBuilder(meta or GraphExecMeta(), origin=self)

    def end_capture(self) -> CudaGraph:
        if self._capture is None:
            raise CaptureViolationError(
                f"end_capture on stream {self.name} without begin_capture")
        if self._capture.origin is not self:
            raise CaptureViolationError(
                f"stream {self.name} joined the capture via an event; only "
                f"the originating stream {self._capture.origin.name} may end "
                f"it")
        graph = self._capture.graph()
        for stream in self._capture.joined:
            stream._capture = None
        process = self._process()
        process.clock.advance(
            process.cost_model.capture_forward_time(graph.num_nodes))
        return graph

    def abort_capture(self) -> None:
        """Drop an in-flight capture after a violation."""
        if self._capture is not None:
            for stream in self._capture.joined:
                stream._capture = None
        self._capture = None

    # -- events (fork/join across streams) ------------------------------

    def record_event(self, event: CudaEvent) -> None:
        """``cudaEventRecord``: snapshot this stream's position."""
        event.recorded = True
        if self._capture is not None:
            event.capture = self._capture
            event.capture_node = self._capture.last_node(self)
        else:
            event.capture = None
            event.capture_node = None

    def wait_event(self, event: CudaEvent) -> None:
        """``cudaStreamWaitEvent``: order after the event; joins captures."""
        if not event.recorded:
            raise InvalidValueError(
                f"stream {self.name} waits on unrecorded event {event.name}")
        if event.capture is not None:
            if self._capture is not None and self._capture is not event.capture:
                self.abort_capture()
                raise CaptureViolationError(
                    f"stream {self.name} is capturing a different graph "
                    f"than event {event.name} belongs to")
            self._capture = event.capture
            event.capture.join(self, event.capture_node)
        elif self._capture is not None:
            self.abort_capture()
            raise CaptureViolationError(
                f"waiting on a non-captured event during capture "
                f"(synchronization, §2.3)")

    # -- synchronization ----------------------------------------------------

    def synchronize(self) -> None:
        if self._capture is not None:
            self.abort_capture()
            raise CaptureViolationError(
                "stream synchronization is prohibited during capture")
        self._process().clock.advance(5e-6)

    # -- launching ------------------------------------------------------------

    def launch_kernel(self, spec: KernelSpec,
                      params: Sequence[KernelParam],
                      launch_dims: Optional[Dict[str, int]] = None,
                      preset_magic: bool = False) -> Sequence[KernelParam]:
        """Launch one kernel (eagerly, or recorded into an ongoing capture).

        ``preset_magic``: the caller guarantees the magic workspace buffers
        referenced by ``params`` already exist (the restoration/plan-launch
        path); first-touch workspace setup is skipped.  Returns the
        parameters launched (with the magic workspace addresses patched
        in).
        """
        process = self._process()
        ready = process.driver.launch_ready.get(spec.name)
        if ready is not None and ready[0] == spec.library:
            address = ready[1]
        else:
            address = self._prepare_first_launch(spec)

        if spec.needs_magic and not preset_magic:
            if not process.has_magic(spec.name):
                if self._capture is not None:
                    self.abort_capture()
                    raise CaptureViolationError(
                        f"one-time workspace setup of {spec.name} during "
                        f"capture — warm up first")
                process.setup_magic(spec)
            params = process.patch_magic_params(spec, params)

        capturing = self._capture is not None
        if process.intercepted:
            process.notify_launch(LaunchRecord(
                spec.name, spec.library, params, launch_dims or {},
                capturing))

        if capturing:
            self._capture.record(process, spec, address, params,
                                 launch_dims or {}, stream=self)
        elif process.mode is ExecutionMode.COMPUTE:
            execute_params(process, spec, params)
        return params

    def _prepare_first_launch(self, spec: KernelSpec) -> int:
        """Map, initialize and load what ``spec`` needs; return its address.

        Runs until the driver has seen one launch of ``spec`` with its
        library initialized and its module loaded; from then on
        ``launch_kernel`` takes the address from ``driver.launch_ready``.
        """
        process = self._process()
        driver = process.driver
        driver.dlopen(spec.library)

        library = driver.catalog.library(spec.library)
        if library.requires_init and not driver.library_initialized(spec.library):
            if self._capture is not None:
                self.abort_capture()
                raise CaptureViolationError(
                    f"first call into {spec.library} initializes the library "
                    f"(implicit synchronization) during capture — warm up first")
            process.clock.advance(process.cost_model.library_init_time)
            driver.mark_library_initialized(spec.library)

        module = library.module_of(spec.name)
        if not driver.module_loaded(spec.library, module.name):
            if self._capture is not None:
                self.abort_capture()
                raise CaptureViolationError(
                    f"first launch of module {spec.library}/{module.name} "
                    f"loads it (implicit synchronization) during capture — "
                    f"warm up first")
            driver.load_module_for(spec)

        address = driver.kernel_address(spec.name)
        driver.launch_ready[spec.name] = (spec.library, address)
        return address
