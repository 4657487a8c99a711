"""The JSON artifact's schema: its fields, their checks and the file read.

In memory the artifact is packed numpy tables
(:class:`repro.core.binfmt.LazyArtifact`), which JSON import
(``LazyArtifact.from_payload``) and export (``LazyArtifact.to_json``)
read and write directly.  One artifact is produced per <GPU type, model
type> by the offline phase (§3) and contains:

- the materialized KV-cache initialization (the profiled free memory, §6);
- the replayable buffer (de)allocation event sequence (§4.2);
- every CUDA graph's nodes — kernel *names* (not addresses, §5), parameter
  restoration rules (indirect index pointers / plain constants, §4.1),
  launch dims — and dependency edges;
- the dumped contents of the few *permanent* buffers (§4.3);
- the first-layer node count (for first-layer triggering, §5.2) and any
  handwritten trigger plans (§5.1).

As JSON the artifact round-trips through files the way the real system
persists CUDA graph state to SSDs.  Every field's type is checked here
(:func:`_check_payload`) before anything is packed from it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Tuple

from repro.errors import ArtifactError

ARTIFACT_FORMAT_VERSION = 2

#: The two kinds of parameter restoration rule.
CONST = "const"
POINTER = "ptr"

#: The fields both artifact layouts carry (the JSON object and the packed
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


def check_batch_size(batch: int, where: str) -> int:
    """A graph's batch size, which must be positive."""
    if batch < 1:
        raise ArtifactError(f"artifact field {where} must be a positive "
                            f"batch size, not {batch}")
    return batch


def check_shared(payload: dict) -> None:
    """The checks both artifact layouts share (:data:`SHARED_FIELDS`)."""
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
class TriggerPlan:
    """A handwritten triggering-kernel launch (§5.1): forces a module load."""

    kernel_name: str
    node_ref: Tuple[int, int]    # (batch_size, node_index) whose params to reuse


def _check_payload(payload: dict) -> None:
    """Field types of a JSON artifact, checked before anything is packed
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
        check_batch_size(check_index_key(batch, "graphs"), where)
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
    missing, unreadable or non-UTF-8 file raises :class:`ArtifactError`.
    Callers read a file here when it lacks the binary form's magic, so a
    non-UTF-8 file is named as neither form."""
    try:
        with open(path, "rb") as handle:
            return handle.read().decode("utf-8")
    except FileNotFoundError as exc:
        raise ArtifactError(f"no artifact at {path}") from exc
    except UnicodeDecodeError as exc:
        from repro.core.chunks import FILE_MAGIC
        raise ArtifactError(
            f"artifact at {path} is neither a binary artifact (no "
            f"{FILE_MAGIC!r} magic) nor UTF-8 JSON text: {exc}") from exc
    except OSError as exc:
        raise ArtifactError(f"cannot read artifact at {path}: {exc}") from exc
