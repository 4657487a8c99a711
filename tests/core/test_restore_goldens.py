"""Restore-timeline goldens: every input kind, with and without the ladder.

One restorer serves in-memory artifacts (the ``eager`` rows: the offline
output as it is), single-file artifacts opened lazily, and chunk-backed
artifacts from an :class:`~repro.core.store.ArtifactStore`.  Each input
kind keeps the plan it has always run (``medusa``, ``medusa-pipelined``,
``medusa-chunked``), with or without a policy, so the simulated loading
time and every scheduled stage must stay bit-exact.
``golden_restore_timelines.json`` pins ``loading_time`` and each stage's
``(name, start, end, lane, background)`` as exact float reprs for Tiny-2L
(tiny cost model) and Qwen1.5-0.5B, each with and without a default
:class:`~repro.faults.DegradationPolicy`.

``golden_restore_allocators.json`` pins, for the same rows, a digest of
the online allocator once the restore is done: every buffer it ever
handed out (offset from the heap base, size, alloc index, tag, pool,
liveness), ``bytes_in_use``, ``peak_bytes`` and the free lists.  The
allocation replay must land every buffer where it always has.

``golden_restore_graphs.json`` pins, for the same rows, a digest of every
restored graph: per batch size, each node's kernel address, every param
slot's ``(size, value)`` (pointer values as offsets from the heap base),
``launch_dims``, the sorted edges and ``exec_meta``.

``golden_work_counts.json`` is the work-count ledger: per fixed input,
the counts that bound a layer's wall clock (see docs/MECHANISM.md).  It
is edited by hand, in the commit that changes a count.

Regenerate the other three (only when a timeline change is intended)::

    PYTHONPATH=src:. python tests/core/test_restore_goldens.py
"""

from __future__ import annotations

import functools
import hashlib
import json
import pathlib
import tempfile

import numpy as np
import pytest

from repro.core.binfmt import POINTER_CODE, save_binary
from repro.core.chunks import open_binary
from repro.core.online import medusa_cold_start
from repro.core.store import ArtifactStore
from repro.faults import DegradationPolicy
from repro.simgpu.process import ExecutionMode

from tests.conftest import unchunked
from tests.serverless.reference_step import total_steps

GOLDEN_PATH = pathlib.Path(__file__).with_name(
    "golden_restore_timelines.json")
ALLOCATOR_GOLDEN_PATH = pathlib.Path(__file__).with_name(
    "golden_restore_allocators.json")
GRAPH_GOLDEN_PATH = pathlib.Path(__file__).with_name(
    "golden_restore_graphs.json")
WORK_COUNTS_PATH = pathlib.Path(__file__).with_name("golden_work_counts.json")
INPUT_KINDS = ("eager", "lazy", "chunked")
POLICIES = ("strict", "ladder")
#: (model, offline seed, cold-start seed, restore mode, tiny cost model?)
MODELS = (
    ("Tiny-2L", 1101, 7, ExecutionMode.COMPUTE, True),
    ("Qwen1.5-0.5B", 9600, 9601, ExecutionMode.TIMING, False),
)


def _cost_model(tiny: bool):
    if not tiny:
        return None
    from tests.conftest import tiny_cost_model
    return tiny_cost_model()


@functools.lru_cache(maxsize=None)
def _materialize(model: str, seed: int, tiny: bool):
    from repro.core.offline import run_offline
    mode = ExecutionMode.COMPUTE if tiny else ExecutionMode.TIMING
    artifact, _ = run_offline(model, seed=seed, mode=mode,
                              cost_model=_cost_model(tiny))
    return artifact


def _open(artifact, kind: str, workdir: pathlib.Path):
    if kind == "eager":
        return artifact
    if kind == "lazy":
        path = workdir / f"{artifact.model_name}.medusa"
        save_binary(artifact, path)
        return open_binary(path)
    store = ArtifactStore(workdir / "store")
    store.put(artifact)
    return store.get_lazy(artifact.gpu_name, artifact.model_name)


def _snapshot(report) -> dict:
    return {
        "plan": report.timeline.plan,
        "loading_time": repr(report.loading_time),
        "stages": [[stage.name, repr(stage.start), repr(stage.end),
                    stage.lane, stage.background]
                   for stage in report.timeline.stages],
    }


def allocator_digest(allocator) -> str:
    """SHA-256 of the allocator's layout, relative to its heap base."""
    base = allocator.base
    state = {
        "history": [[buffer.address - base, buffer.size, buffer.alloc_index,
                     buffer.tag, buffer.pool, buffer.live]
                    for buffer in allocator.history],
        "bytes_in_use": allocator.bytes_in_use,
        "peak_bytes": allocator.peak_bytes,
        "free_lists": [[pool, size, [[address - base, pooled]
                                     for address, pooled, _payload in entries]]
                       for (pool, size), entries
                       in allocator._free_lists.items()],
    }
    return hashlib.sha256(json.dumps(state).encode()).hexdigest()


def graph_digest(engine, artifact) -> str:
    """SHA-256 of every restored graph, pointers relative to the heap base.

    ``artifact``'s graph tables say which param slots are pointers.
    """
    base = engine.process.allocator.base
    graphs = []
    for batch_size, graph in sorted(engine.capture_artifacts.graphs.items()):
        columns = graph.columns
        pointers = artifact.graph_table(batch_size).param_kinds == POINTER_CODE
        assert pointers.shape == columns.param_values.shape, batch_size
        values = np.where(pointers, columns.param_values - base,
                          columns.param_values).tolist()
        sizes = columns.param_sizes.tolist()
        offsets = columns.param_offsets.tolist()
        nodes = [[address,
                  [[size, value] for size, value
                   in zip(sizes[start:stop], values[start:stop])],
                  [["batch_size", dim]]]
                 for address, dim, start, stop
                 in zip(columns.kernel_addresses.tolist(),
                        columns.batch_dims.tolist(), offsets, offsets[1:])]
        edges = np.unique(columns.edges.reshape(-1, 2), axis=0).tolist()
        meta = graph.exec_meta
        graphs.append([batch_size, nodes, edges,
                       [meta.param_bytes, meta.num_tokens, meta.batch_size]])
    return hashlib.sha256(json.dumps(graphs).encode()).hexdigest()


def model_restores(model: str, artifact, seed: int, mode,
                   tiny: bool) -> dict:
    """``{"<model>/<input>/<policy>": (timeline, allocator digest, graph
    digest)}`` for one materialized model."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for kind in INPUT_KINDS:
            for policy in POLICIES:
                workdir = pathlib.Path(tmp) / f"{kind}-{policy}"
                workdir.mkdir()
                _engine, report = medusa_cold_start(
                    model, _open(artifact, kind, workdir), seed=seed,
                    mode=mode, cost_model=_cost_model(tiny),
                    policy=DegradationPolicy() if policy == "ladder"
                    else None)
                out[f"{model}/{kind}/{policy}"] = (
                    _snapshot(report),
                    allocator_digest(_engine.process.allocator),
                    graph_digest(_engine, artifact))
    return out


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def allocator_golden():
    return json.loads(ALLOCATOR_GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def graph_golden():
    return json.loads(GRAPH_GOLDEN_PATH.read_text())


@pytest.mark.parametrize("model,offline_seed,seed,mode,tiny", MODELS,
                         ids=[m[0] for m in MODELS])
def test_restore_timelines_match_golden(golden, allocator_golden,
                                        graph_golden, tiny2l_artifact, model,
                                        offline_seed, seed, mode, tiny):
    if model == "Tiny-2L":
        artifact, _ = tiny2l_artifact
    else:
        artifact = _materialize(model, offline_seed, tiny)
    actual = model_restores(model, artifact, seed, mode, tiny)
    expected = {key: value for key, value in golden.items()
                if key.startswith(f"{model}/")}
    assert sorted(actual) == sorted(expected)
    for key in sorted(expected):
        timeline, digest, graphs = actual[key]
        assert timeline == expected[key], key
        assert digest == allocator_golden[key], key
        assert graphs == graph_golden[key], key


@pytest.fixture(scope="module")
def chunked_qwen_restore(tmp_path_factory):
    """One TIMING-mode Qwen1.5-0.5B restore from a chunked store, and the
    ``unpack_chunk`` calls it made."""
    from unittest import mock

    from repro.core import chunks
    model, offline_seed, seed, mode, tiny = MODELS[1]
    artifact = _open(_materialize(model, offline_seed, tiny), "chunked",
                     tmp_path_factory.mktemp("chunked"))
    with mock.patch.object(chunks, "unpack_chunk",
                           wraps=chunks.unpack_chunk) as unpack:
        engine, report = medusa_cold_start(model, artifact, seed=seed,
                                           mode=mode)
    return engine, report, unpack.call_count


@pytest.fixture(scope="module")
def default_qwen_offline():
    """A default Qwen1.5-0.5B offline run's trace, allocation index and
    lint liveness result."""
    from unittest import mock

    from repro.analysis import analyzer
    from repro.core import offline
    seen, linted = [], []

    class SpyIndex(offline.AllocationIndex):
        def __init__(self, trace):
            super().__init__(trace)
            seen.append((trace, self))

    def spy_liveness(artifact):
        linted.append(analyze_replay(artifact))
        return linted[-1]

    analyze_replay = analyzer.analyze_replay
    with mock.patch.object(offline, "AllocationIndex", SpyIndex), \
            mock.patch.object(analyzer, "analyze_replay", spy_liveness):
        offline.run_offline("Qwen1.5-0.5B")
    (trace, index), = seen
    liveness, = linted
    return trace, index, liveness


@pytest.fixture(scope="module")
def qwen_store_puts(tmp_path_factory):
    """Chunks compressed by Qwen1.5-0.5B writes, each of a copy with no
    chunk set yet: a first put into an empty store, a re-put of the same
    content, then (counting ``pack_chunk`` calls) a ``save_binary``
    followed by a first put, and a second ``save_binary`` over the same
    file followed by a re-put; then the ``chunk_digest`` calls of those
    two saves and puts."""
    from unittest import mock

    from repro.core import chunks
    model, offline_seed, _seed, _mode, tiny = MODELS[1]
    artifact = _materialize(model, offline_seed, tiny)
    store = ArtifactStore(tmp_path_factory.mktemp("puts"))
    compressed = []
    for _ in range(2):
        before = store.chunks_compressed
        store.put(unchunked(artifact))
        compressed.append(store.chunks_compressed - before)
    workdir = tmp_path_factory.mktemp("saves")
    store = ArtifactStore(workdir / "store")
    digests = []
    for _ in range(2):
        copy = unchunked(artifact)
        with mock.patch.object(chunks, "pack_chunk",
                               wraps=chunks.pack_chunk) as pack, \
                mock.patch.object(chunks, "chunk_digest",
                                  wraps=chunks.chunk_digest) as digest:
            save_binary(copy, workdir / f"{model}.medusa")
            store.put(copy)
        compressed.append(pack.call_count)
        digests.append(digest.call_count)
    return compressed + digests


@pytest.fixture(scope="module")
def tail_contention_pool():
    """The ``stage/tail_contention`` pool run of the event-stream golden
    (a 40-request burst on a pipelined plan whose background tail
    contends with early serving), and its per-kind dispatch counts."""
    from tests.serverless.test_event_stream_golden import (
        run_stage_tail_contention,
        tapped_loops,
    )
    with tapped_loops() as taps:
        pool = run_stage_tail_contention()
    return pool, taps[id(pool.loop)].kinds


@pytest.fixture(scope="module")
def spike_train_pool():
    """Four staged deployments on an eight-GPU pool under seeded
    spike-train arrivals (1 rps each for 300 s), untraced, with silent
    runs on, its per-kind dispatch counts and its retime calls."""
    from unittest import mock

    from repro.engine import loadplan
    from tests.serverless.test_event_stream_golden import tapped_loops
    from tests.serverless.test_fold_parity import run_spike_train
    with tapped_loops() as taps, \
            mock.patch.object(loadplan, "retime_stages",
                              wraps=loadplan.retime_stages) as retime:
        pool = run_spike_train()
    return pool, taps[id(pool.loop)].kinds, retime.call_count


def test_work_counts_match_ledger(chunked_qwen_restore,
                                  default_qwen_offline, qwen_store_puts,
                                  tail_contention_pool, spike_train_pool):
    """Work counts, no clock: ``golden_work_counts.json`` is the ledger of
    the counts that bound a layer's wall clock, per fixed input
    (docs/MECHANISM.md gives each one's meaning).  A change that lowers a
    count updates the ledger in the same commit; one that raises a count
    says why."""
    engine, report, chunks_decoded = chunked_qwen_restore
    allocator = engine.process.allocator
    graphs = engine.capture_artifacts.graphs
    trace, index, liveness = default_qwen_offline
    (first_put, reput, first_save, resave, first_save_digests,
     resave_digests) = qwen_store_puts
    pool, dispatched = tail_contention_pool
    spike_pool, spike_dispatched, spike_retimes = spike_train_pool
    # The inputs the counts are taken on: the row-by-row replay built one
    # Buffer per allocation (18,583), the object-building assembly one
    # node per graph node (9,118), the row-based trace one row per event
    # (55,512), the per-query analysis answered all 27,581 pointer
    # parameters, lint's scalar liveness walk visited every one of the
    # 36,868 replay rows, the capture made all 18,583 allocations and
    # 18,497 launches one hook call each, a store re-put compressed
    # all 75 chunks again, and a save wrote a separate ``.npz`` whose
    # deflate compressed the same tables a second time (150 deflates
    # with the put's 75 chunks), on every re-save too.
    assert report.timeline.plan == "medusa-chunked"
    assert allocator.num_allocations == 18583
    assert len(allocator.live_buffers) == allocator.buffers_built
    assert sum(graph.num_nodes for graph in graphs.values()) == 9118
    assert trace.num_events == 55512
    assert liveness.num_events == 36868
    assert {
        "Qwen1.5-0.5B chunked restore": {
            "DeviceAllocator.buffers_built": allocator.buffers_built,
            "chunks decoded": chunks_decoded,
        },
        "Qwen1.5-0.5B offline": {
            "Trace.rows_built": trace.rows_built,
            "AllocationIndex.queries": index.queries,
        },
        "Qwen1.5-0.5B lint": {
            "LivenessResult.rows_visited": liveness.rows_visited,
        },
        "Qwen1.5-0.5B capture": {
            "per-call allocations": (len(trace.alloc_data.seq)
                                     - trace.stamped_allocations),
            "per-call launches": (len(trace.launch_data.seq)
                                  - trace.stamped_launches),
        },
        "Qwen1.5-0.5B store put": {
            "chunks compressed by a first put": first_put,
            "chunks compressed by a re-put": reput,
        },
        "Qwen1.5-0.5B save + put": {
            "chunks compressed by a first save and put": first_save,
            "chunks compressed by a re-save and re-put": resave,
            "chunk digests by a first save and put": first_save_digests,
            "chunk digests by a re-save and re-put": resave_digests,
        },
        "stage/tail_contention": {
            "step_done dispatched": dispatched["step_done"],
            "events dispatched": pool.loop.dispatched,
            "steps run": total_steps(pool),
            "contended steps": pool.aggregate().background_contended_steps,
        },
        "multimodel/spike_train": {
            "events dispatched": spike_pool.loop.dispatched,
            **{f"{kind} dispatched": spike_dispatched[kind]
               for kind in ("arrival", "instance_ready", "step_done",
                            "idle_tick")},
            "cold starts": spike_pool.aggregate().cold_starts,
            "decode tables built": sum(
                d.costs.decode_tables.built
                for d in spike_pool.deployments.values()),
            "decode table entries priced": sum(
                d.costs.decode_tables.priced
                for d in spike_pool.deployments.values()),
            "profiles retimed": spike_retimes,
            "cold stages folded": sum(
                spike_pool.aggregate().cold_stage_counts.values()),
        },
    } == json.loads(WORK_COUNTS_PATH.read_text())


def record() -> None:
    """Rewrite the three golden files from the current code."""
    restores = {}
    for model, offline_seed, seed, mode, tiny in MODELS:
        artifact = _materialize(model, offline_seed, tiny)
        restores.update(model_restores(model, artifact, seed, mode, tiny))
    paths = (GOLDEN_PATH, ALLOCATOR_GOLDEN_PATH, GRAPH_GOLDEN_PATH)
    for column, path in enumerate(paths):
        path.write_text(json.dumps(
            {key: row[column] for key, row in restores.items()},
            indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(restores)} restores to "
          f"{', '.join(str(path) for path in paths)}")


if __name__ == "__main__":
    record()
