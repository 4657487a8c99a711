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

from repro.errors import CaptureViolationError, InvalidValueError
from repro.simgpu.executor import ExecutionMode, execute_params
from repro.simgpu.graph import CudaGraph, CudaGraphNode, GraphExecMeta
from repro.simgpu.kernels import KernelParam, KernelSpec


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


class _CaptureBuilder:
    """Accumulates nodes/edges between begin_capture and end_capture."""

    def __init__(self, meta: GraphExecMeta, origin: "Stream"):
        self.graph = CudaGraph(exec_meta=meta)
        self.origin = origin
        self.joined: List["Stream"] = [origin]
        self._last_stream_node: Dict[str, Optional[int]] = {origin.name: None}
        self._pending_deps: Dict[str, List[int]] = {}
        self._last_writer: Dict[int, int] = {}   # buffer base addr -> node idx

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

    def record(self, process, spec: KernelSpec, address: int,
               params: Sequence[KernelParam],
               launch_dims: Dict[str, int],
               stream: Optional["Stream"] = None) -> None:
        stream = stream or self.origin
        node = CudaGraphNode(kernel_address=address,
                             params=list(params),
                             launch_dims=dict(launch_dims))
        index = self.graph.add_node(node)
        previous = self._last_stream_node.get(stream.name)
        if previous is not None:
            self.graph.add_edge(previous, index)
        for dependency in self._pending_deps.pop(stream.name, ()):
            if dependency != index:
                self.graph.add_edge(dependency, index)
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
                self.graph.add_edge(writer, index)
        for base in writes:
            self._last_writer[base] = index
        self._last_stream_node[stream.name] = index


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
        graph = self._capture.graph
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
                      preset_magic: bool = False) -> None:
        """Launch one kernel (eagerly, or recorded into an ongoing capture).

        ``preset_magic``: the caller guarantees the magic workspace buffers
        referenced by ``params`` already exist (the restoration/plan-launch
        path); first-touch workspace setup is skipped.
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
            return
        if process.mode is ExecutionMode.COMPUTE:
            execute_params(process, spec, params)

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
