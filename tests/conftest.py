"""Shared fixtures: a small hand-built library catalog and processes."""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.simgpu.kernels import KernelSpec, ParamKind, ParamSpec
from repro.simgpu.libraries import DynamicLibrary, LibraryCatalog
from repro.simgpu.modules import CudaModule
from repro.simgpu.process import CudaProcess, ExecutionMode

PTR = ParamKind.POINTER
C32 = ParamKind.CONST32
C64 = ParamKind.CONST64


def make_small_catalog() -> LibraryCatalog:
    """Two libraries: a visible 'torch-like' one and a hidden 'cublas-like' one."""
    norm = KernelSpec(
        name="_Z9layernormPfS_S_i", library="libtorch_sim",
        module="mod_norm", op="layernorm",
        params=(
            ParamSpec(PTR, "input"),
            ParamSpec(PTR, "weight"),
            ParamSpec(PTR, "output"),
            ParamSpec(C32, "n"),
        ))
    add = KernelSpec(
        name="_Z12residual_addPfS_S_", library="libtorch_sim",
        module="mod_elementwise", op="residual_add",
        params=(
            ParamSpec(PTR, "input"),
            ParamSpec(PTR, "input_b"),
            ParamSpec(PTR, "output"),
        ))
    copy = KernelSpec(
        name="_Z11copy_kernelPfS_", library="libtorch_sim",
        module="mod_elementwise", op="copy",
        params=(
            ParamSpec(PTR, "input"),
            ParamSpec(PTR, "output"),
        ))
    libtorch = DynamicLibrary(
        name="libtorch_sim",
        modules=(
            CudaModule("mod_norm", "libtorch_sim", (norm,)),
            CudaModule("mod_elementwise", "libtorch_sim", (add, copy)),
        ),
        requires_init=False)

    gemm_hidden = KernelSpec(
        name="_ZN7cublas_sim4gemmEv", library="libcublas_sim",
        module="mod_gemm", op="gemm_magic", hidden=True,
        host_entry="cublasGemmEx",
        needs_magic=True,
        params=(
            ParamSpec(PTR, "input"),
            ParamSpec(PTR, "weight"),
            ParamSpec(PTR, "output"),
            ParamSpec(PTR, "magic_a"),
            ParamSpec(PTR, "magic_b"),
            ParamSpec(C32, "magic_a_expected"),
            ParamSpec(C32, "magic_b_expected"),
            ParamSpec(C64, "seed"),
        ))
    gemm_plain = KernelSpec(
        name="_ZN7cublas_sim10gemm_plainEv", library="libcublas_sim",
        module="mod_gemm", op="gemm", hidden=True,
        host_entry="cublasGemmEx",
        params=(
            ParamSpec(PTR, "input"),
            ParamSpec(PTR, "weight"),
            ParamSpec(PTR, "output"),
        ))
    libcublas = DynamicLibrary(
        name="libcublas_sim",
        modules=(CudaModule("mod_gemm", "libcublas_sim",
                            (gemm_hidden, gemm_plain)),),
        requires_init=True)
    return LibraryCatalog((libtorch, libcublas))


@pytest.fixture
def catalog() -> LibraryCatalog:
    return make_small_catalog()


@pytest.fixture
def process(catalog) -> CudaProcess:
    return CudaProcess(seed=1234, catalog=catalog, mode=ExecutionMode.COMPUTE)


@pytest.fixture
def process_factory(catalog):
    def factory(seed: int, mode: ExecutionMode = ExecutionMode.COMPUTE,
                name: str = "proc") -> CudaProcess:
        return CudaProcess(seed=seed, catalog=catalog, mode=mode, name=name)
    return factory


def artifact_payload(**fields) -> dict:
    """A hand-built artifact written in the JSON export's schema: every
    top-level field at its empty default, overridden by ``fields``.
    :func:`pack_payload` packs it."""
    from repro.core.artifact import ARTIFACT_FORMAT_VERSION
    return dict({
        "model_name": "", "gpu_name": "",
        "format_version": ARTIFACT_FORMAT_VERSION, "kv_bytes": 0,
        "kv_num_blocks": 0, "kv_layer_stride": 0, "kv_alloc_index": -1,
        "structure_prefix": [], "replay_events": [],
        "graph_input_alloc_index": -1, "graph_output_alloc_index": -1,
        "capture_marker": -1, "kernel_libraries": {},
        "permanent_contents": {}, "graphs": {}, "first_layer_nodes": 0,
        "trigger_plans": [], "stats": {},
    }, **fields)


def pack_payload(payload: dict):
    """The hand-built ``payload`` (:func:`artifact_payload`) packed by the
    offline phase's packer, :func:`repro.core.binfmt.pack_artifact`.

    A record may leave out keys: an event's ``alloc_index`` is then -1,
    its ``size`` 0, ``tag`` "", ``pooled`` False and ``pool``
    "default"; a restore rule's ``value`` 0, ``alloc_index`` -1 and
    ``offset`` 0; a node's batch dim 0.  An event's ``kind`` may be a
    packed code instead of a name, and a graph's batch size is its key.
    """
    from repro.core.binfmt import (
        EVENT_NAMES,
        GraphRows,
        ReplayTable,
        pack_artifact,
    )
    from repro.core.pointer_analysis import ParamColumns
    codes = {name: code for code, name in EVENT_NAMES.items()}
    events = payload["replay_events"]
    tags, pools = {}, {}
    replay = ReplayTable(
        [codes.get(event["kind"], event["kind"]) for event in events],
        [event.get("alloc_index", -1) for event in events],
        [event.get("size", 0) for event in events],
        [event.get("pooled", False) for event in events],
        [tags.setdefault(event.get("tag", ""), len(tags))
         for event in events],
        [pools.setdefault(event.get("pool", "default"), len(pools))
         for event in events],
        list(tags), list(pools))
    graphs = {}
    for key, graph in payload["graphs"].items():
        nodes = graph["nodes"]
        rules = [rule for node in nodes for rule in node["param_restores"]]
        pointer = [rule["kind"] == "ptr" for rule in rules]
        graphs[int(key)] = GraphRows(
            [node["kernel_name"] for node in nodes],
            [node["launch_dims"].get("batch_size", 0) for node in nodes],
            [len(node["param_sizes"]) for node in nodes],
            [size for node in nodes for size in node["param_sizes"]],
            ParamColumns(
                pointer,
                [rule.get("alloc_index", -1) if is_pointer
                 else rule.get("value", 0)
                 for rule, is_pointer in zip(rules, pointer)],
                [rule.get("offset", 0) if is_pointer else 0
                 for rule, is_pointer in zip(rules, pointer)]),
            graph["edges"], graph["param_bytes"], graph["num_tokens"])
    return pack_artifact(dict(payload, trigger_plans=[
        [plan["kernel_name"], list(plan["node_ref"])]
        for plan in payload["trigger_plans"]]), replay, graphs)


def unchunked(artifact, **fields):
    """An in-memory copy of the packed ``artifact`` with metadata
    ``fields`` replaced, and without a cached chunk set: the next save
    or put chunks it anew."""
    from repro.core.binfmt import LazyArtifact
    return LazyArtifact(None, data=artifact.members(),
                        meta=dict(artifact.metadata(), **fields))


replaced = unchunked


def resaved(source, out, edit) -> str:
    """Write the binary artifact file ``source`` (or a packed artifact)
    to the binary file ``out``, edited; returns ``out`` as a string.

    ``edit(members, metadata)`` changes copies of every whole member and
    of the metadata in place; :func:`repro.core.binfmt.save_binary` then
    cuts the chunks anew, so, unlike :func:`rewrite_binary`, an edit may
    add, drop or rename members and change their lengths.
    """
    import json

    from repro.core.binfmt import LazyArtifact, save_binary
    from repro.core.chunks import open_binary
    artifact = source if isinstance(source, LazyArtifact) \
        else open_binary(source)
    members = {name: column.copy()
               for name, column in artifact.members().items()}
    metadata = json.loads(json.dumps(artifact.metadata()))
    edit(members, metadata)
    save_binary(LazyArtifact(None, data=members, meta=metadata), out)
    return str(out)


def rewrite_binary(source, out, members=None, metadata=None):
    """Copy the binary artifact file ``source`` to ``out``, edited; returns
    ``out``.

    ``members`` maps a member name to a function applied to each chunk's
    part of that member: it returns the new array, or ``bytes`` to store
    as the member's raw ``.npy`` payload.  ``metadata`` edits the
    manifest's metadata dict in place.  Each edited chunk is re-packed
    under its new digest, so the copy passes the content-hash check and
    the edit reaches the decoder.
    """
    import dataclasses
    import io
    import json
    import zlib

    import numpy as np

    from repro.core import chunks
    manifest, load = chunks.file_chunk_set(source)
    refs, blobs = [], {}
    for ref in manifest.chunks:
        blob = load(ref)
        parts = chunks.unpack_chunk(blob)
        edits = {name: edit for name, edit in (members or {}).items()
                 if name in parts}
        if edits:
            raw = io.BytesIO()
            raw.write(chunks._CHUNK_MAGIC)
            for name in sorted(parts):
                data = edits[name](parts[name]) if name in edits \
                    else parts[name]
                if not isinstance(data, bytes):
                    payload = io.BytesIO()
                    np.save(payload, data, allow_pickle=False)
                    data = payload.getvalue()
                encoded = name.encode("utf-8")
                raw.write(len(encoded).to_bytes(4, "little") + encoded)
                raw.write(len(data).to_bytes(8, "little") + data)
            blob = zlib.compress(raw.getvalue(), 6)
            ref = dataclasses.replace(ref, digest=chunks.chunk_digest(blob),
                                      nbytes=len(blob))
        blobs[ref.digest] = blob
        refs.append(ref)
    meta = json.loads(json.dumps(manifest.metadata))
    if metadata is not None:
        metadata(meta)
    manifest = chunks.ChunkManifest(metadata=meta, chunks=tuple(refs))
    pathlib.Path(out).write_bytes(
        chunks.file_bytes(manifest, lambda ref: blobs[ref.digest]))
    return out


def rewrite_manifest(source, out, edit):
    """Copy the binary artifact file ``source`` to ``out`` with its
    manifest JSON edited as it is parsed, unchecked: ``edit(payload)``
    may change anything but the number of chunks.  The blob offsets
    shift with the manifest's length."""
    import json
    import struct

    from repro.core.chunks import FILE_MAGIC
    data = pathlib.Path(source).read_bytes()
    start = len(FILE_MAGIC) + 8
    length = int.from_bytes(data[len(FILE_MAGIC):start], "little")
    payload = json.loads(data[start:start + length])
    count = len(payload["chunks"])
    offsets = struct.unpack_from(f"<{count}Q", data, start + length)
    edit(payload)
    text = json.dumps(payload, sort_keys=True).encode("utf-8")
    shift = len(text) - length
    pathlib.Path(out).write_bytes(
        data[:len(FILE_MAGIC)] + len(text).to_bytes(8, "little") + text
        + struct.pack(f"<{count}Q", *[offset + shift for offset in offsets])
        + data[start + length + 8 * count:])
    return out


# ---------------------------------------------------------------------------
# Tiny-model engine/artifact fixtures (shared, expensive ones session-scoped)
# ---------------------------------------------------------------------------

from repro.simgpu.costmodel import CostModel, GpuProperties  # noqa: E402


def tiny_cost_model() -> CostModel:
    """A small simulated GPU so tiny-model KV block counts stay small."""
    return CostModel(gpu=GpuProperties(name="Tiny-GPU",
                                       total_memory_bytes=256 * 1024**2))


@pytest.fixture
def tiny_cm() -> CostModel:
    return tiny_cost_model()


@pytest.fixture(scope="session")
def chaos_seed() -> int:
    """The fault plans' seed: ``MEDUSA_CHAOS_SEED``, 7 when unset.

    CI runs every test that injects once per entry of its seed matrix by
    exporting it; everything downstream derives fault targets from this
    one seed, so a CI failure reproduces locally with
    ``MEDUSA_CHAOS_SEED=<seed> pytest <node id>``.
    """
    return int(os.environ.get("MEDUSA_CHAOS_SEED", "7"))


@pytest.fixture(scope="session")
def tiny2l_artifact():
    """Offline artifact for Tiny-2L, materialized once per test session."""
    from repro.core.offline import run_offline
    from repro.simgpu.process import ExecutionMode
    artifact, report = run_offline("Tiny-2L", seed=1101,
                                   mode=ExecutionMode.COMPUTE,
                                   cost_model=tiny_cost_model())
    return artifact, report


@pytest.fixture(scope="session")
def tiny4l_artifact():
    from repro.core.offline import run_offline
    from repro.simgpu.process import ExecutionMode
    artifact, report = run_offline("Tiny-4L", seed=1102,
                                   mode=ExecutionMode.COMPUTE,
                                   cost_model=tiny_cost_model())
    return artifact, report
