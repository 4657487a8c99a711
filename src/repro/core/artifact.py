"""The artifact's contents and the type checks its metadata passes.

In memory and on disk the artifact is packed numpy tables
(:class:`repro.core.binfmt.LazyArtifact`), persisted as one binary chunk
set (:mod:`repro.core.chunks`); ``LazyArtifact.to_json`` exports it as
JSON for reading by eye, which nothing reads back.  One artifact is
produced per <GPU type, model type> by the offline phase (§3) and
contains:

- the materialized KV-cache initialization (the profiled free memory, §6);
- the replayable buffer (de)allocation event sequence (§4.2);
- every CUDA graph's nodes — kernel *names* (not addresses, §5), parameter
  restoration rules (indirect index pointers / plain constants, §4.1),
  launch dims — and dependency edges;
- the dumped contents of the few *permanent* buffers (§4.3);
- the first-layer node count (for first-layer triggering, §5.2) and any
  handwritten trigger plans (§5.1).

The checks here type a read-back manifest's metadata and chunk entries
(``binfmt._check_meta``, :class:`repro.core.chunks.ChunkRef`): a wrong
field raises :class:`ArtifactError` naming it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.errors import ArtifactError

ARTIFACT_FORMAT_VERSION = 2

#: The two kinds of parameter restoration rule.
CONST = "const"
POINTER = "ptr"

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
