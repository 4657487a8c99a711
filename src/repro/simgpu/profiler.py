"""Kernel-level launch profiling (the per-kernel Nsight view).

Attach a :class:`KernelProfiler` to a process to count every kernel launch
— eager vs captured, per kernel, per library — and summarize where a cold
start's launches go.  Used by tests to assert launch counts and available
to users debugging their own model definitions.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List

from repro.simgpu.process import CudaProcess, Interceptor
from repro.simgpu.stream import LaunchRecord


@dataclass
class LaunchSample:
    """One observed launch."""

    time: float
    kernel_name: str
    library: str
    captured: bool
    batch_size: int


class KernelProfiler(Interceptor):
    """Counts and timestamps kernel launches on one process."""

    adds_overhead = False   # a passive observer: no interception cost

    def __init__(self, process: CudaProcess, keep_samples: bool = False):
        self._process = process
        self._keep_samples = keep_samples
        self.samples: List[LaunchSample] = []
        self.per_kernel: Counter = Counter()
        self.per_library: Counter = Counter()
        self.eager_launches = 0
        self.captured_launches = 0

    # NOTE: the profiler deliberately does NOT advance the clock; unlike
    # Medusa's offline interception it models a zero-overhead observer.

    def on_launch(self, record: LaunchRecord) -> None:
        self.per_kernel[record.kernel_name] += 1
        self.per_library[record.library] += 1
        if record.captured:
            self.captured_launches += 1
        else:
            self.eager_launches += 1
        if self._keep_samples:
            self.samples.append(LaunchSample(
                time=self._process.clock.now,
                kernel_name=record.kernel_name,
                library=record.library,
                captured=record.captured,
                batch_size=record.launch_dims.get("batch_size", 0),
            ))

    # -- reporting ---------------------------------------------------------

    @property
    def total_launches(self) -> int:
        return self.eager_launches + self.captured_launches

    def summary(self) -> Dict[str, float]:
        return {
            "total_launches": float(self.total_launches),
            "eager_launches": float(self.eager_launches),
            "captured_launches": float(self.captured_launches),
            "distinct_kernels": float(len(self.per_kernel)),
            "libraries": float(len(self.per_library)),
        }


def profile(process: CudaProcess, keep_samples: bool = False) -> KernelProfiler:
    """Attach a profiler to ``process`` and return it."""
    profiler = KernelProfiler(process, keep_samples=keep_samples)
    process.add_interceptor(profiler)
    return profiler
