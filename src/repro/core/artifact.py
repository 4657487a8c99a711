"""The artifact's object form, used only at the JSON boundary.

In memory the artifact is packed numpy tables
(:class:`repro.core.binfmt.LazyArtifact`); this module's
:class:`MaterializedModel` is what JSON import and export go through
(:func:`repro.core.binfmt.as_lazy` packs it, ``LazyArtifact.materialize``
builds it).  One artifact is produced per <GPU type, model type> by the
offline phase (§3) and contains:

- the materialized KV-cache initialization (the profiled free memory, §6);
- the replayable buffer (de)allocation event sequence (§4.2);
- every CUDA graph's nodes — kernel *names* (not addresses, §5), parameter
  restoration rules (indirect index pointers / plain constants, §4.1),
  launch dims — and dependency edges;
- the dumped contents of the few *permanent* buffers (§4.3);
- the first-layer node count (for first-layer triggering, §5.2) and any
  handwritten trigger plans (§5.1).

In this form the artifact round-trips through JSON files the way the real
system persists CUDA graph state to SSDs.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Tuple

from repro.errors import ArtifactError

ARTIFACT_FORMAT_VERSION = 2

#: The two kinds of parameter restoration rule.
CONST = "const"
POINTER = "ptr"

#: The fields both artifact forms carry (the JSON object and the packed
#: metadata), by JSON type.
SHARED_FIELDS = {
    "model_name": str, "gpu_name": str, "kv_bytes": int,
    "kv_num_blocks": int, "kv_layer_stride": int, "kv_alloc_index": int,
    "structure_prefix": list, "graph_input_alloc_index": int,
    "graph_output_alloc_index": int, "capture_marker": int,
    "kernel_libraries": dict, "permanent_contents": dict,
    "first_layer_nodes": int, "trigger_plans": list, "stats": dict,
}
_MODEL_FIELDS = dict(SHARED_FIELDS, replay_events=list, graphs=dict)
_EVENT_FIELDS = {"kind": str, "alloc_index": int, "size": int, "tag": str,
                 "pooled": bool, "pool": str}
_RESTORE_FIELDS = {"kind": str, "value": int, "alloc_index": int,
                   "offset": int}
_GRAPH_FIELDS = {"batch_size": int, "param_bytes": int, "num_tokens": int,
                 "edges": list, "nodes": list}
_NODE_FIELDS = {"kernel_name": str, "param_sizes": list,
                "launch_dims": dict, "param_restores": list}
_TRIGGER_FIELDS = {"kernel_name": str, "node_ref": list}
_JSON_NAMES = {bool: "a boolean", int: "an integer", float: "a number",
               str: "a string", list: "a list", dict: "an object",
               type(None): "null"}
_INT64_MIN, _INT64_MAX = -2 ** 63, 2 ** 63 - 1


def check_type(value, kind: type, where: str):
    """``value`` if it has JSON type ``kind`` (a boolean is no integer, a
    tuple is a list); otherwise an :class:`ArtifactError` naming the
    field ``where``."""
    if isinstance(value, (list, tuple) if kind is list else kind) and (
            kind is bool or not isinstance(value, bool)):
        if kind is int and not _INT64_MIN <= value <= _INT64_MAX:
            raise ArtifactError(
                f"artifact field {where} must fit in 64 bits, not {value}")
        return value
    raise ArtifactError(
        f"artifact field {where} must be {_JSON_NAMES[kind]}, not "
        f"{_JSON_NAMES.get(type(value), type(value).__name__)}")


def check_param_size(value, where: str) -> int:
    """A parameter's byte size: an integer that fits the packed int8."""
    check_type(value, int, where)
    if not -128 <= value <= 127:
        raise ArtifactError(
            f"artifact field {where} must fit in 8 bits, not {value}")
    return value


def check_fields(payload: dict, fields: Dict[str, type]) -> None:
    """Every field in ``fields`` is present with its JSON type."""
    for name, kind in fields.items():
        if name not in payload:
            raise ArtifactError(f"artifact has no field {name}")
        check_type(payload[name], kind, name)


def check_record(item, fields: Dict[str, type], where: str,
                 required: Tuple[str, ...] = ()) -> dict:
    """One JSON object whose keys are among ``fields``, with their types."""
    check_type(item, dict, where)
    for key, value in item.items():
        kind = fields.get(key)
        if kind is None:
            raise ArtifactError(
                f"artifact field {where} has an unknown key {key!r}")
        check_type(value, kind, f"{where}.{key}")
    for key in required:
        if key not in item:
            raise ArtifactError(f"artifact field {where} has no {key!r}")
    return item


def check_tuple(item, kinds: Tuple[type, ...], where: str) -> list:
    """One JSON list of ``len(kinds)`` entries with those types."""
    check_type(item, list, where)
    if len(item) != len(kinds):
        raise ArtifactError(f"artifact field {where} must have "
                            f"{len(kinds)} entries, not {len(item)}")
    for position, (value, kind) in enumerate(zip(item, kinds)):
        check_type(value, kind, f"{where}[{position}]")
    return item


def check_index_key(key: str, where: str) -> int:
    """A dict key that must spell an integer (a batch or alloc index)."""
    try:
        return int(key)
    except ValueError:
        raise ArtifactError(f"artifact field {where} has key {key!r}, "
                            f"expected an integer") from None


def check_shared(payload: dict) -> None:
    """The checks both artifact forms share (:data:`SHARED_FIELDS`)."""
    for position, entry in enumerate(payload["structure_prefix"]):
        check_tuple(entry, (int, str), f"structure_prefix[{position}]")
    for name, library in payload["kernel_libraries"].items():
        check_type(library, str, f"kernel_libraries[{name!r}]")
    check_dumps(payload["permanent_contents"])


def check_dumps(dumps: dict) -> None:
    """Permanent contents: alloc index -> rows of numbers."""
    for key, rows in dumps.items():
        where = f"permanent_contents[{key!r}]"
        check_index_key(key, "permanent_contents")
        for row in check_type(rows, list, where):
            for value in check_type(row, list, where):
                if isinstance(value, bool) \
                        or not isinstance(value, (int, float)):
                    check_type(value, float, where)


@dataclass
class ReplayEvent:
    """One replayable allocator event (suffix after structure init)."""

    kind: str                    # "alloc" | "free" | "empty_cache"
    alloc_index: int = -1        # alloc: its index; free: index being freed
    size: int = 0
    tag: str = ""
    pooled: bool = False         # free events: caching-pool free vs cudaFree
    pool: str = "default"        # alloc events: target memory pool


@dataclass(frozen=True)
class ParamRestore:
    """Restoration rule for one node parameter (the analysis emits them
    as :class:`repro.core.pointer_analysis.ParamColumns`)."""

    kind: str                     # CONST or POINTER
    value: int = 0                # CONST: the plain value to restore
    alloc_index: int = -1         # POINTER: index in the allocation sequence
    offset: int = 0               # POINTER: byte offset inside that buffer

    @staticmethod
    def const(value: int) -> "ParamRestore":
        return ParamRestore(kind=CONST, value=value)

    @staticmethod
    def pointer(alloc_index: int, offset: int) -> "ParamRestore":
        return ParamRestore(kind=POINTER, alloc_index=alloc_index, offset=offset)


@dataclass
class MaterializedNode:
    """One CUDA graph node, with addresses abstracted away."""

    kernel_name: str
    param_sizes: List[int]
    param_restores: List[ParamRestore]
    launch_dims: Dict[str, int] = field(default_factory=dict)


@dataclass
class MaterializedGraph:
    """One captured batch size's graph."""

    batch_size: int
    nodes: List[MaterializedNode]
    edges: List[Tuple[int, int]]
    param_bytes: int
    num_tokens: int

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)


@dataclass
class TriggerPlan:
    """A handwritten triggering-kernel launch (§5.1): forces a module load."""

    kernel_name: str
    node_ref: Tuple[int, int]    # (batch_size, node_index) whose params to reuse


@dataclass
class MaterializedModel:
    """The complete offline artifact for one <GPU type, model type>."""

    model_name: str
    gpu_name: str
    format_version: int = ARTIFACT_FORMAT_VERSION
    # KV cache initialization materialization (§6).
    kv_bytes: int = 0
    kv_num_blocks: int = 0
    kv_layer_stride: int = 0
    kv_alloc_index: int = -1
    # Allocation replay (§4.2).
    structure_prefix: List[Tuple[int, str]] = field(default_factory=list)
    replay_events: List[ReplayEvent] = field(default_factory=list)
    graph_input_alloc_index: int = -1
    graph_output_alloc_index: int = -1
    capture_marker: int = -1
    # Kernel name table (§5): kernel name -> owning library.
    kernel_libraries: Dict[str, str] = field(default_factory=dict)
    # Copy-free contents restoration (§4.3): alloc index -> payload rows.
    permanent_contents: Dict[int, List[List[float]]] = field(default_factory=dict)
    # The graphs themselves.
    graphs: Dict[int, MaterializedGraph] = field(default_factory=dict)
    # First-layer triggering (§5.2): prologue + first layer node count.
    first_layer_nodes: int = 0
    trigger_plans: List[TriggerPlan] = field(default_factory=list)
    # Offline statistics carried for reports/ablations.
    stats: Dict[str, float] = field(default_factory=dict)

    # -- (de)serialization ------------------------------------------------

    def to_json(self) -> str:
        payload = {
            "model_name": self.model_name,
            "gpu_name": self.gpu_name,
            "format_version": self.format_version,
            "kv_bytes": self.kv_bytes,
            "kv_num_blocks": self.kv_num_blocks,
            "kv_layer_stride": self.kv_layer_stride,
            "kv_alloc_index": self.kv_alloc_index,
            "structure_prefix": list(self.structure_prefix),
            "replay_events": [asdict(e) for e in self.replay_events],
            "graph_input_alloc_index": self.graph_input_alloc_index,
            "graph_output_alloc_index": self.graph_output_alloc_index,
            "capture_marker": self.capture_marker,
            "kernel_libraries": self.kernel_libraries,
            "permanent_contents": {
                str(k): v for k, v in self.permanent_contents.items()},
            "graphs": {
                str(batch): {
                    "batch_size": graph.batch_size,
                    "param_bytes": graph.param_bytes,
                    "num_tokens": graph.num_tokens,
                    "edges": [list(edge) for edge in graph.edges],
                    "nodes": [
                        {
                            "kernel_name": node.kernel_name,
                            "param_sizes": node.param_sizes,
                            "launch_dims": node.launch_dims,
                            "param_restores": [asdict(r)
                                               for r in node.param_restores],
                        }
                        for node in graph.nodes
                    ],
                }
                for batch, graph in self.graphs.items()
            },
            "first_layer_nodes": self.first_layer_nodes,
            "trigger_plans": [
                {"kernel_name": t.kernel_name, "node_ref": list(t.node_ref)}
                for t in self.trigger_plans],
            "stats": self.stats,
        }
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text: str) -> "MaterializedModel":
        return cls.from_payload(parse_artifact_json(text))

    @classmethod
    def from_payload(cls, payload: dict) -> "MaterializedModel":
        """The model a parsed JSON artifact describes."""
        version = payload.get("format_version")
        if version != ARTIFACT_FORMAT_VERSION:
            raise ArtifactError(
                f"artifact has format version {version!r} but this code "
                f"reads version {ARTIFACT_FORMAT_VERSION}; re-run the "
                f"offline phase to re-materialize it")
        _check_payload(payload)
        artifact = cls(
            model_name=payload["model_name"],
            gpu_name=payload["gpu_name"],
            kv_bytes=payload["kv_bytes"],
            kv_num_blocks=payload["kv_num_blocks"],
            kv_layer_stride=payload["kv_layer_stride"],
            kv_alloc_index=payload["kv_alloc_index"],
            structure_prefix=[tuple(p) for p in payload["structure_prefix"]],
            replay_events=[ReplayEvent(**e) for e in payload["replay_events"]],
            graph_input_alloc_index=payload["graph_input_alloc_index"],
            graph_output_alloc_index=payload["graph_output_alloc_index"],
            capture_marker=payload["capture_marker"],
            kernel_libraries=payload["kernel_libraries"],
            permanent_contents={
                int(k): v for k, v in payload["permanent_contents"].items()},
            first_layer_nodes=payload["first_layer_nodes"],
            trigger_plans=[
                TriggerPlan(kernel_name=t["kernel_name"],
                            node_ref=tuple(t["node_ref"]))
                for t in payload["trigger_plans"]],
            stats=payload["stats"],
        )
        for batch_text, graph_payload in payload["graphs"].items():
            nodes = [
                MaterializedNode(
                    kernel_name=n["kernel_name"],
                    param_sizes=list(n["param_sizes"]),
                    launch_dims=dict(n["launch_dims"]),
                    param_restores=[ParamRestore(**r)
                                    for r in n["param_restores"]],
                )
                for n in graph_payload["nodes"]
            ]
            artifact.graphs[int(batch_text)] = MaterializedGraph(
                batch_size=graph_payload["batch_size"],
                nodes=nodes,
                edges=[tuple(e) for e in graph_payload["edges"]],
                param_bytes=graph_payload["param_bytes"],
                num_tokens=graph_payload["num_tokens"],
            )
        return artifact

    def save(self, path) -> int:
        """Write to ``path``; returns the byte size (ablation metric)."""
        text = self.to_json()
        with open(path, "w") as handle:
            handle.write(text)
        return len(text)

    @classmethod
    def load(cls, path) -> "MaterializedModel":
        return cls.from_json(read_artifact_text(path))


def _check_payload(payload: dict) -> None:
    """Field types of a JSON artifact, checked before any object is built
    from it: a wrong one raises :class:`ArtifactError` naming it."""
    check_fields(payload, _MODEL_FIELDS)
    check_shared(payload)
    for position, event in enumerate(payload["replay_events"]):
        check_record(event, _EVENT_FIELDS, f"replay_events[{position}]",
                     ("kind",))
    for position, plan in enumerate(payload["trigger_plans"]):
        where = f"trigger_plans[{position}]"
        check_record(plan, _TRIGGER_FIELDS, where, tuple(_TRIGGER_FIELDS))
        check_tuple(plan["node_ref"], (int, int), f"{where}.node_ref")
    node_keys = tuple(_NODE_FIELDS)
    for batch, graph in payload["graphs"].items():
        where = f"graphs[{batch!r}]"
        check_index_key(batch, "graphs")
        check_record(graph, _GRAPH_FIELDS, where, tuple(_GRAPH_FIELDS))
        for position, edge in enumerate(graph["edges"]):
            check_tuple(edge, (int, int), f"{where}.edges[{position}]")
        for position, node in enumerate(graph["nodes"]):
            at = f"{where}.nodes[{position}]"
            check_record(node, _NODE_FIELDS, at, node_keys)
            for slot, size in enumerate(node["param_sizes"]):
                check_param_size(size, f"{at}.param_sizes[{slot}]")
            for name, value in node["launch_dims"].items():
                check_type(value, int, f"{at}.launch_dims[{name!r}]")
            for slot, rule in enumerate(node["param_restores"]):
                check_record(rule, _RESTORE_FIELDS,
                             f"{at}.param_restores[{slot}]", ("kind",))


def parse_artifact_json(text: str) -> dict:
    """Parse artifact JSON; anything but a JSON object is an ArtifactError."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ArtifactError(f"artifact is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ArtifactError(f"artifact payload is a {type(payload).__name__}"
                            f", expected an object")
    return payload


def read_artifact_text(path) -> str:
    """A JSON artifact file's text, read as bytes and decoded here: a
    missing, unreadable or non-UTF-8 file raises :class:`ArtifactError`."""
    try:
        with open(path, "rb") as handle:
            return handle.read().decode("utf-8")
    except FileNotFoundError as exc:
        raise ArtifactError(f"no artifact at {path}") from exc
    except UnicodeDecodeError as exc:
        raise ArtifactError(f"artifact at {path} is not UTF-8 text: {exc}"
                            ) from exc
    except OSError as exc:
        raise ArtifactError(f"cannot read artifact at {path}: {exc}") from exc
