"""Copy-free buffer contents classification (paper §4.3).

Of all buffers referenced by CUDA graph node pointers, only a tiny
"permanent" subset needs its *contents* materialized:

- buffers allocated **before** the capture stage began (model weights, the
  KV region, the persistent graph I/O buffers) are prepared by the normal
  loading stages and skipped;
- buffers allocated during the capture stage but **freed** afterwards
  (warm-up scratch, graph intermediates returned to the caching pool) are
  temporary: the graph's own kernels write them before reading, so their
  contents need no restoration;
- what remains is permanent: in practice the cuBLAS-style kernels' magic
  workspace buffers — two 4-byte values per such kernel (the paper measures
  9.0% of kernels needing them).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Set

import numpy as np

from repro.core.trace import Trace

@dataclass
class ContentPlan:
    """Which referenced allocations fall into which restoration class."""

    pre_capture: Set[int] = field(default_factory=set)
    temporary: Set[int] = field(default_factory=set)
    permanent: Set[int] = field(default_factory=set)


def classify_buffers(trace: Trace, capture_marker: int,
                     referenced: Iterable[int]) -> ContentPlan:
    """Split graph-referenced allocation indexes into the three classes.

    ``capture_marker`` is the process allocation count when the capture
    stage began (before the first warm-up forwarding).
    """
    referenced = np.fromiter(referenced, dtype=np.int64)
    pre_capture = referenced < capture_marker
    freed = np.isin(referenced, trace.free_columns().alloc_index)
    return ContentPlan(
        pre_capture=set(referenced[pre_capture].tolist()),
        temporary=set(referenced[~pre_capture & freed].tolist()),
        permanent=set(referenced[~pre_capture & ~freed].tolist()))
