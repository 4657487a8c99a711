"""Medusa: state materialization for serverless LLM cold starts.

The paper's contribution.  The *offline phase* (:mod:`repro.core.offline`)
runs one intercepted cold start per <GPU type, model type>, capturing the
CUDA graphs, the buffer (de)allocation sequence, the kernel-launch trace,
and the profiled KV memory; the *analysis stage* turns raw node parameters
into indirect index pointers (§4.1), classifies buffer contents for
copy-free restoration (§4.3), and materializes kernel names (§5).  The
*online phase* (:mod:`repro.core.online`) replays the allocation sequence,
fills pointers and kernel addresses back into the nodes — using first-layer
triggering-kernels for hidden cuBLAS symbols — and hands the engine
ready-to-execute graphs plus the materialized KV size (§6), skipping both
the profiling forwarding and 34/35ths of the capture work.
"""

from repro.core.binfmt import LazyArtifact, save_binary
from repro.core.fastpath import VectorizedRestorer
from repro.core.offline import OfflinePhase, OfflineReport, run_offline
from repro.core.online import (cold_start_for, medusa_cold_start,
                               prepare_medusa_cold_start)
from repro.core.store import ArtifactStore

__all__ = [
    "ArtifactStore",
    "LazyArtifact",
    "OfflinePhase",
    "OfflineReport",
    "VectorizedRestorer",
    "cold_start_for",
    "medusa_cold_start",
    "prepare_medusa_cold_start",
    "run_offline",
    "save_binary",
]
