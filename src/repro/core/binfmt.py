"""The packed artifact: the one in-memory form, and its binary file.

A paper-scale artifact holds ~16k nodes x ~7 parameter restores plus ~65k
replay events, so it lives as numpy columns plus a small metadata dict
(:class:`LazyArtifact`, with the bulk :class:`ReplayTable` and
:class:`GraphTable`).  The restorer and lint read those tables
array-at-a-time.  The offline phase builds the columns with the one
packer, :func:`pack_artifact`.  :func:`save_binary` writes the artifact as
one file holding its chunk set (:mod:`repro.core.chunks`, the store's
encoding too), and :func:`repro.core.chunks.open_binary` reads it back
chunk-backed: the manifest up front, each table decompressed on first
access and checked once (dtype, shape, lengths, CSR offsets, string ids,
parameter kind codes).
That file (or a store) is the only artifact input; the JSON export
(:meth:`LazyArtifact.to_json`) writes straight from the tables, for
reading by eye, and is never read back.  Every ``.npy``
member is read by one decoder, :func:`_decode_npy`; any failed check
raises :class:`ArtifactError`.
"""

from __future__ import annotations

import ast
import functools
import json
import math
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core.artifact import (
    ARTIFACT_FORMAT_VERSION,
    CONST,
    POINTER,
    TriggerPlan,
    check_batch_size,
    check_dumps,
    check_fields,
    check_index_key,
    check_tuple,
    check_type,
)
from repro.core.pointer_analysis import CONST_CODE, POINTER_CODE, ParamColumns
from repro.errors import ArtifactError
from repro.utils.files import write_if_changed

#: Replay-event kind names by packed code; lint reports any other code.
EVENT_NAMES = {0: "alloc", 1: "free", 2: "empty_cache"}

#: The metadata's keys, in the order a chunk manifest records them.
_META_KEYS = ("model_name", "gpu_name", "format_version", "kv_bytes",
              "kv_num_blocks", "kv_layer_stride", "kv_alloc_index",
              "structure_prefix", "graph_input_alloc_index",
              "graph_output_alloc_index", "capture_marker",
              "kernel_libraries", "permanent_contents", "batches",
              "graph_meta", "first_layer_nodes", "trigger_plans", "stats")

#: The JSON export's keys, in the order ``LazyArtifact.to_json`` writes
#: them.
_JSON_KEYS = ("model_name", "gpu_name", "format_version", "kv_bytes",
              "kv_num_blocks", "kv_layer_stride", "kv_alloc_index",
              "structure_prefix", "replay_events", "graph_input_alloc_index",
              "graph_output_alloc_index", "capture_marker",
              "kernel_libraries", "permanent_contents", "graphs",
              "first_layer_nodes", "trigger_plans", "stats")

#: Bulk members of one graph, without the ``g<batch>_`` prefix.
GRAPH_MEMBERS = ("kernel", "batchdim", "param_offsets", "param_sizes",
                 "param_kinds", "param_values", "param_byte_offsets", "edges")


class GraphRows(NamedTuple):
    """One graph as :func:`pack_artifact` takes it: per-node kernel names,
    batch dims and parameter counts, and the flat parameter slots (node
    ``i`` owns the next ``param_counts[i]``)."""
    kernel_names: Sequence[str]
    batch_dims: Sequence[int]
    param_counts: Sequence[int]
    param_sizes: Sequence[int]
    params: ParamColumns
    edges: Sequence[Sequence[int]]
    param_bytes: int
    num_tokens: int


def pack_artifact(fields: dict, replay: "ReplayTable",
                  graphs: Dict[int, GraphRows]) -> "LazyArtifact":
    """The one packer: the in-memory artifact's arrays and metadata.

    ``fields`` holds every metadata entry but the derived ``batches`` and
    ``graph_meta``; its dicts and lists are kept, so a caller may fill one
    in after packing.  ``replay``'s string tables may hold unused or
    repeated strings: the packed tables are the sorted strings its events
    use.  ``graphs`` is in member order.
    """
    kernel_names = sorted({name for graph in graphs.values()
                           for name in graph.kernel_names})
    name_index = {name: i for i, name in enumerate(kernel_names)}
    try:
        tags, tag_ids = _string_ids(replay.tag_id, replay.tags)
        pools, pool_ids = _string_ids(replay.pool_id, replay.pools)
        arrays: Dict[str, np.ndarray] = {
            "kernel_names": np.array(kernel_names),
            "pools": np.array(pools),
            "tags": np.array(tags),
            "ev_kind": np.array(replay.kind, dtype=np.int8),
            "ev_alloc_index": np.array(replay.alloc_index, dtype=np.int64),
            "ev_size": np.array(replay.size, dtype=np.int64),
            "ev_pooled": np.array(replay.pooled, dtype=np.int8),
            "ev_tag": np.array(tag_ids, dtype=np.int16),
            "ev_pool": np.array(pool_ids, dtype=np.int8),
        }
        for batch, graph in graphs.items():
            columns = (
                [name_index[name] for name in graph.kernel_names],
                graph.batch_dims,
                np.concatenate(([0], np.cumsum(graph.param_counts,
                                               dtype=np.int64))),
                graph.param_sizes, *graph.params)
            for name, column, dtype in zip(GRAPH_MEMBERS, columns, (
                    np.int32, np.int32, np.int64, np.int8, np.int8,
                    np.int64, np.int64)):
                arrays[f"g{batch}_{name}"] = np.array(column, dtype=dtype)
            arrays[f"g{batch}_edges"] = np.array(
                graph.edges, dtype=np.int64).reshape(-1, 2)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ArtifactError(f"artifact does not pack: {exc}") from exc
    # graph_meta rows are [param_bytes, num_tokens, num_nodes]: the node
    # count lets a reader report totals without decompressing any graph.
    fields = dict(fields, batches=sorted(graphs), graph_meta={
        str(b): [g.param_bytes, g.num_tokens, len(g.kernel_names)]
        for b, g in graphs.items()})
    return LazyArtifact(None, data=arrays,
                        meta={key: fields[key] for key in _META_KEYS})


def _string_ids(ids, table: Sequence[str]) -> Tuple[List[str], np.ndarray]:
    """The sorted strings ``ids`` use from ``table``, and ``ids`` re-coded
    to index them."""
    used = np.unique(np.asarray(ids, dtype=np.int64))
    names = [table[i] for i in used.tolist()]
    packed = sorted(set(names))
    code = np.zeros(len(table), dtype=np.int64)
    code[used] = [packed.index(name) for name in names]
    return packed, code[np.asarray(ids, dtype=np.int64)]


def save_binary(artifact: "LazyArtifact", path) -> int:
    """Write ``artifact`` as one file holding its chunk set
    (:func:`repro.core.chunks.file_bytes`); returns the byte size.

    A chunk the file already at ``path`` holds is not compressed again
    (:class:`~repro.core.chunks.BlobReuse`), and a file that already
    holds the same bytes is left as it is."""
    from repro.core import chunks       # the chunk codec builds on this
    reuse = chunks.BlobReuse(lambda: chunks.file_chunk_set(path))
    payload = chunks.file_bytes(*chunks.chunk_set(artifact, reuse))
    write_if_changed(path, payload)
    return len(payload)


# ---------------------------------------------------------------------------
# ``.npy`` member decoder of the chunk codec
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


# ---------------------------------------------------------------------------
# The packed tables and the artifact: metadata up front, each bulk table
# checked and cached on first use
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class ReplayTable:
    """The replay-event sequence as a struct of numpy arrays.

    The six columns the events decompose into (kind code, allocation
    index, size, pooled flag, tag id, pool id) plus the two string tables.
    The restore hands the columns to one allocator call
    (:meth:`repro.simgpu.memory.DeviceAllocator.replay`), and lint's
    liveness pass checks them as masks before replaying a cleaned copy
    through the same array solver.
    """

    kind: np.ndarray
    alloc_index: np.ndarray
    size: np.ndarray
    pooled: np.ndarray
    tag_id: np.ndarray
    pool_id: np.ndarray
    tags: List[str]
    pools: List[str]

    def __len__(self) -> int:
        return int(self.kind.shape[0])

    def to_payload(self) -> List[dict]:
        """The events as the JSON export's ``replay_events`` records."""
        tags, pools = self.tags, self.pools
        return [{"kind": EVENT_NAMES[kind], "alloc_index": alloc_index,
                 "size": size, "tag": tags[tag], "pooled": bool(pooled),
                 "pool": pools[pool]}
                for kind, alloc_index, size, pooled, tag, pool in zip(
                    self.kind.tolist(), self.alloc_index.tolist(),
                    self.size.tolist(), self.pooled.tolist(),
                    self.tag_id.tolist(), self.pool_id.tolist())]


@dataclass(eq=False)
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

    batch_size: int
    kernel_ids: np.ndarray
    kernel_names: List[str]        # the artifact's shared name table
    batch_dims: np.ndarray
    param_offsets: np.ndarray
    param_sizes: np.ndarray
    param_kinds: np.ndarray
    param_values: np.ndarray
    param_byte_offsets: np.ndarray
    edges: np.ndarray
    param_bytes: int
    num_tokens: int

    @property
    def num_nodes(self) -> int:
        """Node count of this graph."""
        return int(self.kernel_ids.shape[0])

    def node_kernel_names(self) -> List[str]:
        """Per-node kernel names (resolved through the shared table)."""
        names = self.kernel_names
        return [names[k] for k in self.kernel_ids.tolist()]

    def to_payload(self) -> dict:
        """The graph as the JSON export's ``graphs`` record."""
        restores = [{"kind": POINTER, "value": 0, "alloc_index": value,
                     "offset": offset} if kind == POINTER_CODE else
                    {"kind": CONST, "value": value, "alloc_index": -1,
                     "offset": 0}
                    for kind, value, offset in zip(
                        self.param_kinds.tolist(), self.param_values.tolist(),
                        self.param_byte_offsets.tolist())]
        sizes = self.param_sizes.tolist()
        offsets = self.param_offsets.tolist()
        names = self.kernel_names
        return {
            "batch_size": self.batch_size,
            "param_bytes": self.param_bytes,
            "num_tokens": self.num_tokens,
            "edges": self.edges.tolist(),
            "nodes": [{"kernel_name": names[kernel_id],
                       "param_sizes": sizes[start:stop],
                       "launch_dims": {"batch_size": batch_dim},
                       "param_restores": restores[start:stop]}
                      for kernel_id, batch_dim, start, stop in zip(
                          self.kernel_ids.tolist(), self.batch_dims.tolist(),
                          offsets, offsets[1:])],
        }


def _meta_field(key: str, doc: str) -> property:
    """A read-only :class:`LazyArtifact` property for one metadata entry."""
    return property(lambda self: self._meta[key], doc=doc)


class LazyArtifact:
    """The packed artifact: metadata up front, bulk tables on demand.

    ``data`` maps member names to arrays; :meth:`replay_table` and
    :meth:`graph_table` check and cache their arrays on first use.
    ``LazyArtifact(None, data=arrays, meta=meta)`` is the in-memory
    artifact :func:`pack_artifact` returns (``path is None`` exactly for
    those); a chunk-backed one (:class:`repro.core.chunks.
    ChunkedLazyArtifact`) reads each member from its chunks on first use.
    """

    def __init__(self, path, data, meta):
        self.path = path
        self._data = data
        self._meta = meta
        _check_version(meta)
        if path is not None:        # read back: check what the file says
            _check_meta(meta)
        #: An in-memory artifact's chunk set, once chunks.chunk_set built it.
        self.cached_chunks = None
        self._replay_table: Optional[ReplayTable] = None
        self._graph_tables: Dict[int, GraphTable] = {}
        self._kernel_names: Optional[List[str]] = None

    # -- metadata mirror ----------------------------------------------------

    model_name = _meta_field("model_name", "Model half of the key (§3).")
    gpu_name = _meta_field("gpu_name", "GPU half of the key (§3).")
    format_version = _meta_field("format_version", "Artifact format version.")
    kv_bytes = _meta_field("kv_bytes", "Materialized KV-cache bytes (§6).")
    kv_num_blocks = _meta_field("kv_num_blocks", "KV block count (§6).")
    kv_layer_stride = _meta_field("kv_layer_stride", "Per-layer KV stride.")
    kv_alloc_index = _meta_field("kv_alloc_index", "The KV region's index.")
    graph_input_alloc_index = _meta_field("graph_input_alloc_index",
                                          "The graph input's index.")
    graph_output_alloc_index = _meta_field("graph_output_alloc_index",
                                           "The graph output's index.")
    capture_marker = _meta_field("capture_marker", "Capture boundary index.")
    kernel_libraries = _meta_field("kernel_libraries",
                                   "Kernel name -> owning library (§5).")
    first_layer_nodes = _meta_field("first_layer_nodes",
                                    "Prologue + first-layer nodes (§5.2).")
    stats = _meta_field("stats", "Offline statistics carried for reports.")

    @property
    def structure_prefix(self) -> List[Tuple[int, str]]:
        """The structure-init allocation prefix to verify against (§2.5)."""
        return [tuple(p) for p in self._meta["structure_prefix"]]

    @property
    def permanent_contents(self) -> Dict[int, List[List[float]]]:
        """Alloc index -> dumped payload rows (§4.3)."""
        return {int(k): v for k, v in self._dumps().items()}

    @property
    def trigger_plans(self) -> List[TriggerPlan]:
        """Handwritten triggering-kernel launches (§5.1)."""
        return [TriggerPlan(name, tuple(ref))
                for name, ref in self._meta["trigger_plans"]]

    @property
    def batches(self) -> List[int]:
        """Captured batch sizes, ascending."""
        return [int(b) for b in self._meta["batches"]]

    def _graph_meta(self, batch: int) -> list:
        """``[param_bytes, num_tokens, num_nodes]`` of one graph."""
        meta = self._meta["graph_meta"].get(str(batch))
        if meta is None:
            raise ArtifactError(
                f"artifact for {self.model_name} has no graph for batch "
                f"{batch} (has: {self.batches})")
        return meta

    def graph_nodes(self, batch: int) -> int:
        """Node count of one graph without decompressing it."""
        return int(self._graph_meta(batch)[2])

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
        rows = self._dumps().get(str(alloc_index))
        if rows is None:
            raise ArtifactError(
                f"no dumped contents for allocation {alloc_index}")
        return np.array(rows, dtype=np.float64)

    # -- bulk tables (decompressed on demand, cached) -----------------------

    def kernel_name_table(self) -> List[str]:
        """The shared kernel-name string table."""
        if self._kernel_names is None:
            self._kernel_names = _strings(self._data, "kernel_names")
        return self._kernel_names

    def replay_table(self) -> ReplayTable:
        """The replay-event columns (first call decompresses and checks
        them)."""
        if self._replay_table is None:
            data = self._data
            columns = [_column(data, name) for name in REPLAY_MEMBERS]
            if len({len(column) for column in columns}) > 1:
                raise ArtifactError(
                    f"replay columns have unequal lengths "
                    f"{[len(column) for column in columns]}")
            tags = _strings(data, "tags")
            pools = _strings(data, "pools")
            _check_ids(columns[4], tags, "ev_tag")
            _check_ids(columns[5], pools, "ev_pool")
            self._replay_table = ReplayTable(*columns, tags, pools)
        return self._replay_table

    def graph_table(self, batch: int) -> GraphTable:
        """One batch size's graph arrays (first call decompresses and
        checks them)."""
        table = self._graph_tables.get(batch)
        if table is None:
            table = self._graph_table(batch, self._data)
            self._graph_tables[batch] = table
        return table

    def _graph_table(self, batch: int, source,
                     edges: Optional[np.ndarray] = None) -> GraphTable:
        """Build and check batch ``batch``'s table from the members in
        ``source`` (``edges`` stands in for a source without them)."""
        meta = self._graph_meta(batch)
        prefix = f"g{batch}_"
        kernel_ids, batch_dims, offsets, *params = [
            _column(source, prefix + name) for name in GRAPH_MEMBERS[:-1]]
        if edges is None:
            edges = _member(source, prefix + "edges")
        # CSR: one offset per node plus one, non-decreasing from 0 to the
        # length of every parameter column.
        lengths = [len(column) for column in
                   (kernel_ids, batch_dims, offsets, *params)]
        if lengths[:3] != [lengths[0]] * 2 + [lengths[0] + 1]:
            raise ArtifactError(
                f"graph {batch} has inconsistent CSR columns (lengths "
                f"{lengths}; {lengths[0]} nodes need {lengths[0] + 1} "
                f"offsets)")
        if lengths[3:] != [lengths[3]] * 4 \
                or offsets[0] != 0 or offsets[-1] != lengths[3] \
                or (np.diff(offsets) < 0).any():
            raise ArtifactError(
                f"graph {batch} has inconsistent CSR columns (lengths "
                f"{lengths}, offsets {offsets[0]}..{offsets[-1]})")
        if edges.ndim != 2 or edges.shape[1] != 2 \
                or edges.dtype.kind not in "iu":
            raise ArtifactError(
                f"graph {batch} has an edge member of shape {edges.shape} "
                f"and dtype {edges.dtype}; expected (n, 2) integers")
        kinds = params[1]
        if len(kinds) and not CONST_CODE <= kinds.min() \
                <= kinds.max() <= POINTER_CODE:
            code = kinds.min() if kinds.min() < CONST_CODE else kinds.max()
            raise ArtifactError(
                f"graph {batch} has a parameter restore of kind code "
                f"{code}; expected {CONST_CODE} ({CONST}) or "
                f"{POINTER_CODE} ({POINTER})")
        kernel_names = self.kernel_name_table()
        _check_ids(kernel_ids, kernel_names, prefix + "kernel")
        return GraphTable(batch, kernel_ids, kernel_names, batch_dims,
                          offsets, *params, edges, int(meta[0]),
                          int(meta[1]))

    def first_layer_table(self, batch: int) -> GraphTable:
        """The table the warm-up reads its first-layer nodes from: the
        whole graph here; chunk-backed artifacts load only the head."""
        return self.graph_table(batch)

    # -- members and the JSON export ----------------------------------------

    def members(self) -> Dict[str, np.ndarray]:
        """Every bulk member by name: string tables, replay columns, then
        each graph's."""
        names = list(KERNEL_MEMBERS + REPLAY_MEMBERS)
        for batch in self._meta["graph_meta"]:
            names.extend(f"g{batch}_{name}" for name in GRAPH_MEMBERS)
        return {name: _member(self._data, name) for name in names}

    def _dumps(self) -> Dict[str, list]:
        """The permanent contents, keyed as the metadata stores them."""
        return self._meta["permanent_contents"]

    def metadata(self) -> dict:
        """The metadata dict, permanent contents included."""
        return dict(self._meta, permanent_contents=self._dumps())

    def to_payload(self) -> dict:
        """The artifact as a fresh JSON payload dict (the export's
        schema), built from the packed tables."""
        meta = json.loads(json.dumps(self.metadata()))     # the caller's own
        meta.update(
            replay_events=self.replay_table().to_payload(),
            graphs={batch: self.graph_table(int(batch)).to_payload()
                    for batch in meta["graph_meta"]},      # member order
            trigger_plans=[{"kernel_name": name, "node_ref": ref}
                           for name, ref in meta["trigger_plans"]])
        return {key: meta[key] for key in _JSON_KEYS}

    def to_json(self) -> str:
        """The artifact as JSON text (:meth:`to_payload`)."""
        return json.dumps(self.to_payload())

    def save_json(self, path) -> int:
        """Write :meth:`to_json` to ``path``; returns its size."""
        text = self.to_json()
        with open(path, "w") as handle:
            handle.write(text)
        return len(text)


def _check_version(fields: dict) -> None:
    """An artifact of another format version is refused by name."""
    version = fields.get("format_version")
    if version != ARTIFACT_FORMAT_VERSION:
        raise ArtifactError(
            f"artifact has format version {version!r} but this code "
            f"reads version {ARTIFACT_FORMAT_VERSION}; re-run the "
            f"offline phase to re-materialize it")


#: The metadata's fields by JSON type.
_META_FIELDS = {
    "model_name": str, "gpu_name": str, "kv_bytes": int,
    "kv_num_blocks": int, "kv_layer_stride": int, "kv_alloc_index": int,
    "structure_prefix": list, "graph_input_alloc_index": int,
    "graph_output_alloc_index": int, "capture_marker": int,
    "kernel_libraries": dict, "permanent_contents": dict,
    "first_layer_nodes": int, "trigger_plans": list, "stats": dict,
    "batches": list, "graph_meta": dict,
}


def _check_meta(meta: dict) -> None:
    """Field types of a read-back metadata dict: a wrong one raises
    :class:`ArtifactError` naming it."""
    check_fields(meta, _META_FIELDS)
    for position, entry in enumerate(meta["structure_prefix"]):
        check_tuple(entry, (int, str), f"structure_prefix[{position}]")
    for name, library in meta["kernel_libraries"].items():
        check_type(library, str, f"kernel_libraries[{name!r}]")
    check_dumps(meta["permanent_contents"])
    for position, batch in enumerate(meta["batches"]):
        where = f"batches[{position}]"
        check_batch_size(check_type(batch, int, where), where)
    for batch, row in meta["graph_meta"].items():
        check_batch_size(check_index_key(batch, "graph_meta"),
                         f"graph_meta[{batch!r}]")
        check_tuple(row, (int, int, int), f"graph_meta[{batch!r}]")
    for position, plan in enumerate(meta["trigger_plans"]):
        where = f"trigger_plans[{position}]"
        check_tuple(plan, (str, list), where)
        check_tuple(plan[1], (int, int), f"{where}[1]")


#: String-table members, replay columns: the members outside any graph.
KERNEL_MEMBERS = ("kernel_names", "pools", "tags")
REPLAY_MEMBERS = ("ev_kind", "ev_alloc_index", "ev_size", "ev_pooled",
                  "ev_tag", "ev_pool")


def _member(source, name: str) -> np.ndarray:
    try:
        return source[name]
    except KeyError:
        raise ArtifactError(f"artifact has no member {name!r}") from None


def _column(source, name: str, kinds: str = "iu") -> np.ndarray:
    """Member ``name``, checked to be 1-D and (with ``kinds``) of an
    integer dtype."""
    column = _member(source, name)
    if column.ndim != 1 or (kinds and column.dtype.kind not in kinds):
        raise ArtifactError(
            f"member {name!r} has shape {column.shape} and dtype "
            f"{column.dtype}; expected a 1-D column")
    return column


def _strings(source, name: str) -> List[str]:
    """String table ``name``: a 1-D array of distinct strings (an empty
    table may have any dtype, as ``np.array([])`` does)."""
    column = _column(source, name, "")
    strings = [str(s) for s in column]
    if column.size and column.dtype.kind != "U" \
            or len(set(strings)) != len(strings):
        raise ArtifactError(
            f"member {name!r} of dtype {column.dtype} is not a table of "
            f"distinct strings")
    return strings


def _check_ids(ids: np.ndarray, table: List[str], name: str) -> None:
    """Every id must index ``table``."""
    if len(ids) and not 0 <= ids.min() <= ids.max() < len(table):
        raise ArtifactError(
            f"member {name!r} holds ids outside its {len(table)}-entry "
            f"string table")
