"""Binary artifact format (.npz): the bulk arrays out of JSON.

A paper-scale artifact holds ~16k nodes x ~7 parameter restores plus ~65k
replay events; as JSON that is ~10 MiB of digits.  This module packs the
bulky parts into numpy arrays (one ``.npz`` per artifact) while keeping the
small metadata as an embedded JSON string — typically ~6x smaller and much
faster to load, which matters because artifact deserialization sits on the
online critical path (§7.3).

One reader, :class:`LazyArtifact`, opens the npz and parses only the
embedded JSON metadata; the bulk replay/parameter tables stay numpy arrays
(:class:`ReplayTable`, :class:`GraphTable`), decompressed per graph on first
access, and :mod:`repro.core.fastpath` restores from them array-at-a-time
without ever building per-node Python objects.  An eager
:class:`~repro.core.artifact.MaterializedModel` becomes the same view in
memory through :func:`as_lazy`; :func:`load_binary` goes the other way
(``LazyArtifact(path).materialize()``) for lint and JSON conversion.

Every ``.npy`` member, of an npz (:class:`NpzMembers`) or of a chunk
(:func:`repro.core.chunks.unpack_chunk`), is read by one decoder,
:func:`_decode_npy`, with one set of :class:`ArtifactError` checks.
"""

from __future__ import annotations

import ast
import functools
import io
import json
import math
import zipfile
import zlib
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.artifact import (
    ARTIFACT_FORMAT_VERSION,
    MaterializedGraph,
    MaterializedModel,
    MaterializedNode,
    ReplayEvent,
    TriggerPlan,
)
from repro.core.pointer_analysis import CONST, POINTER, ParamRestore
from repro.errors import ArtifactError
from repro.utils.files import write_if_changed

_KIND_CODES = {CONST: 0, POINTER: 1}
#: On-disk code of pointer-kind parameter slots (``GraphTable.param_kinds``).
POINTER_CODE = _KIND_CODES[POINTER]
_EVENT_CODES = {"alloc": 0, "free": 1, "empty_cache": 2}
_EVENT_NAMES = {0: "alloc", 1: "free", 2: "empty_cache"}


def artifact_arrays(
        artifact: MaterializedModel) -> Tuple[Dict[str, np.ndarray], dict]:
    """Flatten ``artifact`` into its on-disk arrays and metadata dict.

    Shared by :func:`save_binary` (which packs everything into one .npz)
    and :mod:`repro.core.chunks` (which splits the same arrays into
    content-addressed chunks).  The metadata dict is the exact object
    :func:`save_binary` embeds as the ``metadata`` member.
    """
    kernel_names = sorted({node.kernel_name
                           for graph in artifact.graphs.values()
                           for node in graph.nodes})
    name_index = {name: i for i, name in enumerate(kernel_names)}
    pools = sorted({event.pool for event in artifact.replay_events})
    pool_index = {pool: i for i, pool in enumerate(pools)}
    tags = sorted({event.tag for event in artifact.replay_events})
    tag_index = {tag: i for i, tag in enumerate(tags)}

    arrays: Dict[str, np.ndarray] = {
        "kernel_names": np.array(kernel_names),
        "pools": np.array(pools),
        "tags": np.array(tags),
    }

    # Replay events: one row each.
    events = artifact.replay_events
    arrays["ev_kind"] = np.array(
        [_EVENT_CODES[e.kind] for e in events], dtype=np.int8)
    arrays["ev_alloc_index"] = np.array(
        [e.alloc_index for e in events], dtype=np.int64)
    arrays["ev_size"] = np.array([e.size for e in events], dtype=np.int64)
    arrays["ev_pooled"] = np.array([e.pooled for e in events], dtype=np.int8)
    arrays["ev_tag"] = np.array(
        [tag_index[e.tag] for e in events], dtype=np.int16)
    arrays["ev_pool"] = np.array(
        [pool_index[e.pool] for e in events], dtype=np.int8)

    # Graphs: per batch, flattened node/param/edge arrays.
    for batch, graph in artifact.graphs.items():
        prefix = f"g{batch}_"
        arrays[prefix + "kernel"] = np.array(
            [name_index[n.kernel_name] for n in graph.nodes], dtype=np.int32)
        arrays[prefix + "batchdim"] = np.array(
            [n.launch_dims.get("batch_size", 0) for n in graph.nodes],
            dtype=np.int32)
        offsets = [0]
        sizes: List[int] = []
        kinds: List[int] = []
        values: List[int] = []
        byte_offsets: List[int] = []
        for node in graph.nodes:
            for size, restore in zip(node.param_sizes, node.param_restores):
                sizes.append(size)
                kinds.append(_KIND_CODES[restore.kind])
                if restore.kind == POINTER:
                    values.append(restore.alloc_index)
                    byte_offsets.append(restore.offset)
                else:
                    values.append(restore.value)
                    byte_offsets.append(0)
            offsets.append(len(sizes))
        arrays[prefix + "param_offsets"] = np.array(offsets, dtype=np.int64)
        arrays[prefix + "param_sizes"] = np.array(sizes, dtype=np.int8)
        arrays[prefix + "param_kinds"] = np.array(kinds, dtype=np.int8)
        arrays[prefix + "param_values"] = np.array(values, dtype=np.int64)
        arrays[prefix + "param_byte_offsets"] = np.array(byte_offsets,
                                                         dtype=np.int64)
        arrays[prefix + "edges"] = np.array(sorted(graph.edges),
                                            dtype=np.int64).reshape(-1, 2)

    metadata = {
        "model_name": artifact.model_name,
        "gpu_name": artifact.gpu_name,
        "format_version": artifact.format_version,
        "kv_bytes": artifact.kv_bytes,
        "kv_num_blocks": artifact.kv_num_blocks,
        "kv_layer_stride": artifact.kv_layer_stride,
        "kv_alloc_index": artifact.kv_alloc_index,
        "structure_prefix": list(artifact.structure_prefix),
        "graph_input_alloc_index": artifact.graph_input_alloc_index,
        "graph_output_alloc_index": artifact.graph_output_alloc_index,
        "capture_marker": artifact.capture_marker,
        "kernel_libraries": artifact.kernel_libraries,
        "permanent_contents": {str(k): v for k, v
                               in artifact.permanent_contents.items()},
        "batches": sorted(artifact.graphs),
        # [param_bytes, num_tokens, num_nodes] — the node count lets a
        # lazy reader report totals without decompressing any graph array.
        "graph_meta": {str(b): [g.param_bytes, g.num_tokens, g.num_nodes]
                       for b, g in artifact.graphs.items()},
        "first_layer_nodes": artifact.first_layer_nodes,
        "trigger_plans": [[t.kernel_name, list(t.node_ref)]
                          for t in artifact.trigger_plans],
        "stats": artifact.stats,
    }
    return arrays, metadata


def save_binary(artifact: MaterializedModel, path) -> int:
    """Write ``artifact`` as .npz; returns the byte size on disk.

    The archive's bytes depend only on the artifact (every zip member
    carries the same fixed timestamp), so a file that already holds them
    is left as it is.
    """
    arrays, metadata = artifact_arrays(artifact)
    arrays["metadata"] = np.array([json.dumps(metadata)])
    buffer = io.BytesIO()
    np.savez_compressed(buffer, **arrays)
    payload = buffer.getvalue()
    write_if_changed(path, payload)
    return len(payload)


def load_binary(path) -> MaterializedModel:
    """Read an artifact written by :func:`save_binary` as an eager model.

    Goes through :class:`LazyArtifact`, so both readers share one format
    version and metadata check.
    """
    return LazyArtifact(path).materialize()


def as_lazy(artifact) -> "LazyArtifact":
    """``artifact`` as a :class:`LazyArtifact`.

    An eager :class:`~repro.core.artifact.MaterializedModel` is packed once
    with :func:`artifact_arrays` into an in-memory view; a lazy artifact
    (``.npz`` or chunk-backed) is returned as is.
    """
    if isinstance(artifact, LazyArtifact):
        return artifact
    arrays, metadata = artifact_arrays(artifact)
    return LazyArtifact(None, data=arrays, meta=metadata)


# ---------------------------------------------------------------------------
# ``.npy`` member decoder, shared by the npz reader and the chunk codec
# ---------------------------------------------------------------------------

#: Magic and version of the ``.npy`` v1.0 payloads ``np.save`` writes here.
_NPY_MAGIC = b"\x93NUMPY"
_NPY_VERSION = b"\x01\x00"
_NPY_PREAMBLE = len(_NPY_MAGIC) + len(_NPY_VERSION) + 2   # + <H header len
_NPY_KEYS = frozenset({"descr", "fortran_order", "shape"})


@functools.lru_cache(maxsize=4096)
def _npy_header(header: bytes) -> Tuple[np.dtype, Tuple[int, ...], bool]:
    """``(dtype, shape, fortran_order)`` of one ``.npy`` v1.0 header.

    Cached by the header bytes: the same members, and so the same
    headers, come back on every restore of a model.  A round-robin of
    Qwen1.5-0.5B, Qwen1.5-1.8B and Llama2-7B restores looks up ~690
    headers per restore, and only 101 distinct ones in all.
    """
    try:
        fields = ast.literal_eval(header.decode("latin1"))
        if not isinstance(fields, dict) or set(fields) != _NPY_KEYS:
            raise ValueError(f"unexpected header {fields!r}")
        dtype = np.lib.format.descr_to_dtype(fields["descr"])
        shape = fields["shape"]
        fortran_order = fields["fortran_order"]
        if not isinstance(shape, tuple) or not all(
                isinstance(n, int) and n >= 0 for n in shape) \
                or not isinstance(fortran_order, bool):
            raise ValueError(f"unexpected header {fields!r}")
    except (SyntaxError, ValueError, TypeError, MemoryError,
            RecursionError) as exc:
        raise ArtifactError(f"corrupt .npy member header: {exc}") from exc
    if dtype.hasobject:
        raise ArtifactError(
            f"member has object dtype {dtype}; artifacts hold plain arrays "
            f"only")
    return dtype, shape, fortran_order


def _decode_npy(raw: bytes, start: int, end: int, name: str) -> np.ndarray:
    """Decode the ``.npy`` payload ``raw[start:end]`` into a fresh,
    writable array equal to what ``np.load`` returns for it.

    Any malformed payload raises :class:`ArtifactError`.
    """
    if raw[start:start + len(_NPY_MAGIC)] != _NPY_MAGIC:
        raise ArtifactError(f"member {name!r} is not a .npy payload")
    version = raw[start + len(_NPY_MAGIC):start + len(_NPY_MAGIC) + 2]
    if version != _NPY_VERSION:
        raise ArtifactError(
            f"member {name!r} has unsupported .npy version "
            f"{tuple(version)}")
    header_start = start + _NPY_PREAMBLE
    data_start = header_start + int.from_bytes(
        raw[header_start - 2:header_start], "little")
    if data_start > end:
        raise ArtifactError(f"member {name!r} is truncated")
    dtype, shape, fortran_order = _npy_header(raw[header_start:data_start])
    count = math.prod(shape)
    if end - data_start != count * dtype.itemsize:
        raise ArtifactError(
            f"member {name!r} holds {end - data_start} data bytes, "
            f"its header declares {count * dtype.itemsize}")
    if count == 0 or dtype.itemsize == 0:
        flat = np.empty(count, dtype=dtype)
    else:
        flat = np.frombuffer(raw, dtype=dtype, count=count,
                             offset=data_start).copy()
    if fortran_order:
        return flat.reshape(shape[::-1]).transpose()
    return flat.reshape(shape)


class NpzMembers:
    """The arrays of a ``.npz`` file by member name, read on demand.

    ``members[name]`` inflates the zip entry ``name.npy`` and decodes it
    with :func:`_decode_npy`, which is what ``np.load``'s ``NpzFile`` does
    minus re-parsing every header.  A missing member raises ``KeyError``;
    an unreadable one :class:`ArtifactError`.
    """

    def __init__(self, path):
        self.path = path
        self._zip = zipfile.ZipFile(path)

    def __getitem__(self, member: str) -> np.ndarray:
        entry = member + ".npy"
        try:
            raw = self._zip.read(entry)
        except KeyError:
            raise KeyError(member) from None
        except (zipfile.BadZipFile, zlib.error, OSError, EOFError) as exc:
            raise ArtifactError(
                f"unreadable member {member!r} of {self.path}: {exc}"
            ) from exc
        return _decode_npy(raw, 0, len(raw), member)


# ---------------------------------------------------------------------------
# Lazy reader: header + metadata up front, bulk arrays on demand
# ---------------------------------------------------------------------------

class ReplayTable:
    """The replay-event sequence as a struct of numpy arrays.

    Instead of ~65k :class:`ReplayEvent` objects, this table keeps the six
    columns the events decompose into (kind code, allocation index, size,
    pooled flag, tag id, pool id) plus the two string tables.
    :meth:`rows` yields plain-int tuples for the replay loop (converted from
    the arrays once, not per access), and :meth:`event` rehydrates a single
    :class:`ReplayEvent` for the fault injector's per-event hook.
    """

    def __init__(self, kind: np.ndarray, alloc_index: np.ndarray,
                 size: np.ndarray, pooled: np.ndarray, tag_id: np.ndarray,
                 pool_id: np.ndarray, tags: List[str], pools: List[str]):
        self.kind = kind
        self.alloc_index = alloc_index
        self.size = size
        self.pooled = pooled
        self.tag_id = tag_id
        self.pool_id = pool_id
        self.tags = tags
        self.pools = pools
        self._rows: Optional[List[Tuple[int, int, int, int, str, str]]] = None

    def __len__(self) -> int:
        return int(self.kind.shape[0])

    def rows(self) -> List[Tuple[int, int, int, int, str, str]]:
        """All events as ``(kind, alloc_index, size, pooled, tag, pool)``
        plain-Python tuples, converted once and cached."""
        if self._rows is None:
            tags, pools = self.tags, self.pools
            self._rows = [
                (kind, alloc_index, size, pooled,
                 tags[tag] if tags else "",
                 pools[pool] if pools else "default")
                for kind, alloc_index, size, pooled, tag, pool in zip(
                    self.kind.tolist(), self.alloc_index.tolist(),
                    self.size.tolist(), self.pooled.tolist(),
                    self.tag_id.tolist(), self.pool_id.tolist())
            ]
        return self._rows

    def event(self, position: int) -> ReplayEvent:
        """Rehydrate the one event at ``position`` (object fallback)."""
        kind, alloc_index, size, pooled, tag, pool = self.rows()[position]
        return ReplayEvent(kind=_EVENT_NAMES[kind], alloc_index=alloc_index,
                           size=size, tag=tag, pooled=bool(pooled), pool=pool)

    def events(self) -> List[ReplayEvent]:
        """Every event as an object list (the eager equivalent)."""
        return [self.event(i) for i in range(len(self))]


class GraphTable:
    """One captured batch size's graph as flat numpy arrays.

    The CSR layout mirrors the on-disk format: node ``i`` owns parameter
    slots ``param_offsets[i]:param_offsets[i+1]`` of the flat
    ``param_sizes``/``param_kinds``/``param_values``/``param_byte_offsets``
    arrays.  ``param_kinds`` uses the on-disk codes (0 = constant,
    1 = pointer); for pointers ``param_values`` holds the allocation index
    and ``param_byte_offsets`` the interior offset, exactly the gather the
    vectorized restorer performs in one shot.
    """

    def __init__(self, batch_size: int, kernel_ids: np.ndarray,
                 kernel_names: List[str], batch_dims: np.ndarray,
                 param_offsets: np.ndarray, param_sizes: np.ndarray,
                 param_kinds: np.ndarray, param_values: np.ndarray,
                 param_byte_offsets: np.ndarray, edges: np.ndarray,
                 param_bytes: int, num_tokens: int):
        self.batch_size = batch_size
        self.kernel_ids = kernel_ids
        self.kernel_names = kernel_names       # shared global name table
        self.batch_dims = batch_dims
        self.param_offsets = param_offsets
        self.param_sizes = param_sizes
        self.param_kinds = param_kinds
        self.param_values = param_values
        self.param_byte_offsets = param_byte_offsets
        self.edges = edges
        self.param_bytes = param_bytes
        self.num_tokens = num_tokens

    @property
    def num_nodes(self) -> int:
        """Node count of this graph."""
        return int(self.kernel_ids.shape[0])

    def node_kernel_names(self) -> List[str]:
        """Per-node kernel names (resolved through the shared table)."""
        names = self.kernel_names
        return [names[k] for k in self.kernel_ids.tolist()]

    def node(self, index: int) -> MaterializedNode:
        """Rehydrate node ``index`` as an object (eager equivalent)."""
        start = int(self.param_offsets[index])
        end = int(self.param_offsets[index + 1])
        restores: List[ParamRestore] = []
        for position in range(start, end):
            if int(self.param_kinds[position]) == POINTER_CODE:
                restores.append(ParamRestore.pointer(
                    int(self.param_values[position]),
                    int(self.param_byte_offsets[position])))
            else:
                restores.append(ParamRestore.const(
                    int(self.param_values[position])))
        return MaterializedNode(
            kernel_name=self.kernel_names[int(self.kernel_ids[index])],
            param_sizes=[int(s) for s in self.param_sizes[start:end]],
            param_restores=restores,
            launch_dims={"batch_size": int(self.batch_dims[index])},
        )

    def to_graph(self) -> MaterializedGraph:
        """Rehydrate the whole graph into objects (eager equivalent)."""
        return MaterializedGraph(
            batch_size=self.batch_size,
            nodes=[self.node(i) for i in range(self.num_nodes)],
            edges=[tuple(int(v) for v in edge) for edge in self.edges],
            param_bytes=self.param_bytes,
            num_tokens=self.num_tokens,
        )


class LazyArtifact:
    """Header-and-metadata-only view of a binary artifact.

    Opening one reads the npz directory and decompresses a single member —
    the embedded JSON metadata.  Everything bulky (the replay-event columns
    and each graph's parameter arrays) stays on disk until first use:
    :meth:`replay_table` and :meth:`graph_table` decompress their arrays on
    demand and cache the result, so restoring only the first-request batch
    size never pays for the others.  The metadata properties mirror
    :class:`~repro.core.artifact.MaterializedModel`, and
    :meth:`materialize` rehydrates the full eager artifact for static lint
    and :func:`load_binary`.
    """

    def __init__(self, path, data=None, meta=None):
        self.path = path
        if data is None:
            try:
                data = NpzMembers(path)
            except FileNotFoundError as exc:
                raise ArtifactError(f"no binary artifact at {path}") from exc
            except Exception as exc:
                raise ArtifactError(
                    f"unreadable binary artifact {path}: {exc}") from exc
            try:
                meta = json.loads(str(data["metadata"][0]))
            except KeyError as exc:
                raise ArtifactError(
                    f"binary artifact {path} has no metadata member — not a "
                    f"Medusa artifact") from exc
            except (ValueError, IndexError) as exc:
                raise ArtifactError(
                    f"binary artifact {path} has corrupt metadata: {exc}"
                ) from exc
            if not isinstance(meta, dict):
                raise ArtifactError(
                    f"binary artifact {path} has corrupt metadata")
        elif meta is None:
            raise ArtifactError(
                "LazyArtifact needs parsed metadata when opened from an "
                "external member source")
        self._data = data
        self._meta = meta
        version = self._meta.get("format_version")
        if version != ARTIFACT_FORMAT_VERSION:
            raise ArtifactError(
                f"artifact has format version {version!r} but this code "
                f"reads version {ARTIFACT_FORMAT_VERSION}; re-run the "
                f"offline phase to re-materialize it")
        self._replay_table: Optional[ReplayTable] = None
        self._graph_tables: Dict[int, GraphTable] = {}
        self._kernel_names: Optional[List[str]] = None

    # -- metadata mirror ----------------------------------------------------

    @property
    def model_name(self) -> str:
        """The materialized model's name (artifact key half, §3)."""
        return self._meta["model_name"]

    @property
    def gpu_name(self) -> str:
        """The GPU type the artifact was materialized on (§3)."""
        return self._meta["gpu_name"]

    @property
    def format_version(self) -> int:
        """On-disk artifact format version."""
        return self._meta["format_version"]

    @property
    def kv_bytes(self) -> int:
        """Materialized KV-cache size in bytes (§6)."""
        return self._meta["kv_bytes"]

    @property
    def kv_num_blocks(self) -> int:
        """Materialized KV block count (§6)."""
        return self._meta["kv_num_blocks"]

    @property
    def kv_layer_stride(self) -> int:
        """Per-layer stride inside the KV region."""
        return self._meta["kv_layer_stride"]

    @property
    def kv_alloc_index(self) -> int:
        """Allocation index of the KV region in the replay sequence."""
        return self._meta["kv_alloc_index"]

    @property
    def structure_prefix(self) -> List[Tuple[int, str]]:
        """The structure-init allocation prefix to verify against (§2.5)."""
        return [tuple(p) for p in self._meta["structure_prefix"]]

    @property
    def graph_input_alloc_index(self) -> int:
        """Allocation index of the shared graph input buffer."""
        return self._meta["graph_input_alloc_index"]

    @property
    def graph_output_alloc_index(self) -> int:
        """Allocation index of the shared graph output buffer."""
        return self._meta["graph_output_alloc_index"]

    @property
    def capture_marker(self) -> int:
        """Allocation index marking the capture boundary."""
        return self._meta["capture_marker"]

    @property
    def kernel_libraries(self) -> Dict[str, str]:
        """Kernel name -> owning library (§5)."""
        return self._meta["kernel_libraries"]

    @property
    def permanent_contents(self) -> Dict[int, List[List[float]]]:
        """Alloc index -> dumped payload rows (§4.3)."""
        return {int(k): v
                for k, v in self._meta["permanent_contents"].items()}

    @property
    def first_layer_nodes(self) -> int:
        """Prologue + first-layer node count (§5.2 triggering)."""
        return self._meta["first_layer_nodes"]

    @property
    def trigger_plans(self) -> List[TriggerPlan]:
        """Handwritten triggering-kernel launches (§5.1)."""
        return [TriggerPlan(name, tuple(ref))
                for name, ref in self._meta["trigger_plans"]]

    @property
    def stats(self) -> Dict[str, float]:
        """Offline statistics carried along for reports."""
        return self._meta["stats"]

    @property
    def batches(self) -> List[int]:
        """Captured batch sizes, ascending."""
        return [int(b) for b in self._meta["batches"]]

    @property
    def graphs(self) -> Dict[int, int]:
        """batch size -> node count, from metadata alone.

        Shaped like ``MaterializedModel.graphs`` for key-iteration
        consumers (``sorted(artifact.graphs)``, ``len``, ``in``) without
        touching any graph array.
        """
        return {batch: self.graph_nodes(batch) for batch in self.batches}

    def graph_nodes(self, batch: int) -> int:
        """Node count of one graph without decompressing it."""
        meta = self._meta["graph_meta"].get(str(batch))
        if meta is None:
            raise ArtifactError(
                f"artifact for {self.model_name} has no graph for batch "
                f"{batch} (has: {self.batches})")
        if len(meta) >= 3:          # written by the lazy-aware format
            return int(meta[2])
        return self.graph_table(batch).num_nodes   # legacy: count the array

    @property
    def total_nodes(self) -> int:
        """Total node count across all graphs (metadata only)."""
        return sum(self.graph_nodes(batch) for batch in self.batches)

    @property
    def total_replay_events(self) -> int:
        """Replay-event count (decompresses one int8 column)."""
        return len(self.replay_table())

    def permanent_payload(self, alloc_index: int) -> np.ndarray:
        """The dumped payload of one permanent buffer as float64 rows."""
        rows = self._meta["permanent_contents"].get(str(alloc_index))
        if rows is None:
            raise ArtifactError(
                f"no dumped contents for allocation {alloc_index}")
        return np.array(rows, dtype=np.float64)

    # -- bulk tables (decompressed on demand, cached) -----------------------

    def kernel_name_table(self) -> List[str]:
        """The shared kernel-name string table."""
        if self._kernel_names is None:
            self._kernel_names = [str(n) for n in self._data["kernel_names"]]
        return self._kernel_names

    def replay_table(self) -> ReplayTable:
        """The replay-event columns (first call decompresses them)."""
        if self._replay_table is None:
            data = self._data
            self._replay_table = ReplayTable(
                kind=data["ev_kind"],
                alloc_index=data["ev_alloc_index"],
                size=data["ev_size"],
                pooled=data["ev_pooled"],
                tag_id=data["ev_tag"],
                pool_id=data["ev_pool"],
                tags=[str(t) for t in data["tags"]],
                pools=[str(p) for p in data["pools"]],
            )
        return self._replay_table

    def graph_table(self, batch: int) -> GraphTable:
        """One batch size's graph arrays (first call decompresses them)."""
        table = self._graph_tables.get(batch)
        if table is None:
            if batch not in self.batches:
                raise ArtifactError(
                    f"artifact for {self.model_name} has no graph for "
                    f"batch {batch} (has: {self.batches})")
            data = self._data
            prefix = f"g{batch}_"
            meta = self._meta["graph_meta"][str(batch)]
            table = GraphTable(
                batch_size=batch,
                kernel_ids=data[prefix + "kernel"],
                kernel_names=self.kernel_name_table(),
                batch_dims=data[prefix + "batchdim"],
                param_offsets=data[prefix + "param_offsets"],
                param_sizes=data[prefix + "param_sizes"],
                param_kinds=data[prefix + "param_kinds"],
                param_values=data[prefix + "param_values"],
                param_byte_offsets=data[prefix + "param_byte_offsets"],
                edges=data[prefix + "edges"],
                param_bytes=int(meta[0]),
                num_tokens=int(meta[1]),
            )
            self._graph_tables[batch] = table
        return table

    def first_layer_table(self, batch: int) -> GraphTable:
        """The graph-table prefix :mod:`repro.core.fastpath` warms up with.

        The restorer only launches ``min(first_layer_nodes, num_nodes)``
        nodes per batch during warmup; a monolithic npz cannot load less
        than the whole graph, so this base implementation returns
        :meth:`graph_table`.  Chunk-backed artifacts override it to
        decompress only the head chunk (see
        :class:`repro.core.chunks.ChunkedLazyArtifact`).
        """
        return self.graph_table(batch)

    # -- eager conversion ---------------------------------------------------

    def materialize(self) -> MaterializedModel:
        """Rehydrate the full eager artifact (what :func:`load_binary`
        returns); static lint reads this form, restores never do."""
        meta = self._meta
        artifact = MaterializedModel(
            model_name=meta["model_name"],
            gpu_name=meta["gpu_name"],
            kv_bytes=meta["kv_bytes"],
            kv_num_blocks=meta["kv_num_blocks"],
            kv_layer_stride=meta["kv_layer_stride"],
            kv_alloc_index=meta["kv_alloc_index"],
            structure_prefix=self.structure_prefix,
            graph_input_alloc_index=meta["graph_input_alloc_index"],
            graph_output_alloc_index=meta["graph_output_alloc_index"],
            capture_marker=meta["capture_marker"],
            kernel_libraries=meta["kernel_libraries"],
            permanent_contents=self.permanent_contents,
            first_layer_nodes=meta["first_layer_nodes"],
            trigger_plans=self.trigger_plans,
            stats=meta["stats"],
        )
        artifact.replay_events = self.replay_table().events()
        for batch in self.batches:
            artifact.graphs[batch] = self.graph_table(batch).to_graph()
        return artifact
