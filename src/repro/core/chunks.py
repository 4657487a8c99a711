"""Chunk-granular, content-addressed artifact format (§7.4 fetch path).

The one persisted binary form.  A monolithic blob forces a cold remote
fetch to pay for every byte before ``restore_graph[0]`` can begin, and
two structurally identical artifacts (the same model on two nodes, or a
fine-tune sibling) share zero bytes on the wire.  This module splits the
packed artifact's arrays into **fixed-policy chunks**, each addressed by
the sha256 of its (deterministic) serialized bytes:

- ``kernels`` — the shared kernel-name/pool/tag string tables;
- ``replay[j]`` — the six replay-event columns, sharded every
  :data:`REPLAY_SHARD_EVENTS` rows;
- ``dumps`` — the permanent-buffer contents (§4.3), pulled out of the
  metadata so the manifest stays small;
- ``graph[b].head`` — the first ``min(first_layer_nodes, num_nodes)``
  nodes of batch ``b``'s graph table (everything ``restore_warmup``
  touches);
- ``graph[b].tail`` — the remaining nodes plus the edge list.

The *manifest* (:class:`ChunkManifest`) is the small JSON that remains:
artifact metadata plus the ordered chunk list with digests and sizes.
Identical content ⇒ identical digest ⇒ one stored blob, however many
manifests reference it — that is the whole dedup story, and it is why
:func:`pack_chunk` is a hand-rolled deterministic container instead of
``np.savez`` (zip entries embed wall-clock timestamps, which would give
identical arrays different digests).

An artifact's *chunk set* (:func:`chunk_set`) is persisted with the same
bytes in an :class:`~repro.core.store.ArtifactStore` or as one file
(:func:`file_bytes`).  :class:`ChunkedLazyArtifact`, the lazy reader of
both, reads the packed tables through a :class:`ChunkReader`, loading
only the chunks a consumer touches.
"""

from __future__ import annotations

import hashlib
import io
import json
import re
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.artifact import check_dumps, check_record, check_type
from repro.core.binfmt import (
    GRAPH_MEMBERS,
    KERNEL_MEMBERS,
    REPLAY_MEMBERS,
    GraphTable,
    LazyArtifact,
    _decode_npy,
)
from repro.errors import ArtifactError

#: Version byte of the chunk container + manifest schema.
CHUNK_FORMAT_VERSION = 1

#: Replay shard granularity: one chunk per this many replay events.  ~65k
#: events (paper scale) become four shards, so a tier cache can keep the
#: hot prefix without the whole event log.
REPLAY_SHARD_EVENTS = 16384

#: A chunk digest as a manifest records it: a sha256 in lowercase hex,
#: which is also the blob's file name in a store.
_DIGEST = re.compile(r"[0-9a-f]{64}")

#: Magic prefix of a packed chunk blob (before zlib).
_CHUNK_MAGIC = b"MCHK\x01"

#: Magic of a single-file artifact; the head adds the manifest's length.
FILE_MAGIC = b"\x93MEDUSA1"
_FILE_HEAD = len(FILE_MAGIC) + 8

#: Single member of the ``dumps`` chunk: the permanent-contents mapping as
#: one JSON string (kept out of the manifest metadata).
DUMPS_MEMBER = "permanent_contents_json"

KIND_KERNELS = "kernels"
KIND_REPLAY = "replay"
KIND_DUMPS = "dumps"
KIND_GRAPH_HEAD = "graph_head"
KIND_GRAPH_TAIL = "graph_tail"


def replay_chunk_name(shard: int) -> str:
    """Canonical name of replay shard ``shard``."""
    return f"replay[{shard}]"


def graph_head_chunk_name(batch: int) -> str:
    """Canonical name of batch ``batch``'s first-layer head chunk."""
    return f"graph[{batch}].head"


def graph_tail_chunk_name(batch: int) -> str:
    """Canonical name of batch ``batch``'s tail chunk."""
    return f"graph[{batch}].tail"


# ---------------------------------------------------------------------------
# Deterministic chunk container
# ---------------------------------------------------------------------------

_NAME_LEN = struct.Struct("<I")
_DATA_LEN = struct.Struct("<Q")


def chunk_container(members: Dict[str, np.ndarray]) -> bytes:
    """The uncompressed container :func:`pack_chunk` compresses.

    Layout: magic, then for each member in sorted name order a
    ``<I``-length-prefixed UTF-8 name followed by a ``<Q``-length-prefixed
    ``np.save`` payload.  Nothing in it depends on when it was written,
    so equal arrays always produce equal bytes — the property content
    addressing needs.
    """
    raw = io.BytesIO()
    raw.write(_CHUNK_MAGIC)
    for name in sorted(members):
        payload = io.BytesIO()
        np.save(payload, members[name], allow_pickle=False)
        encoded = name.encode("utf-8")
        raw.write(_NAME_LEN.pack(len(encoded)))
        raw.write(encoded)
        data = payload.getvalue()
        raw.write(_DATA_LEN.pack(len(data)))
        raw.write(data)
    return raw.getvalue()


def pack_chunk(members: Dict[str, np.ndarray],
               raw: Optional[bytes] = None) -> bytes:
    """Serialize ``members`` with :func:`chunk_container` and compress
    with zlib.  A caller that already built the container passes it as
    ``raw``, which is then compressed as it is."""
    if raw is None:
        raw = chunk_container(members)
    return zlib.compress(raw, 6)


def unpack_chunk(blob: bytes) -> Dict[str, np.ndarray]:
    """Invert :func:`pack_chunk`.

    Members are decoded by :func:`_decode_npy`, not ``np.load``: a restore
    unpacks hundreds of small members, and ``np.load`` parses every header
    anew.  Any malformed blob raises :class:`ArtifactError`.
    """
    try:
        raw = zlib.decompress(blob)
    except zlib.error as exc:
        raise ArtifactError(f"corrupt chunk blob: {exc}") from exc
    if not raw.startswith(_CHUNK_MAGIC):
        raise ArtifactError("corrupt chunk blob: bad magic")
    members: Dict[str, np.ndarray] = {}
    offset = len(_CHUNK_MAGIC)
    total = len(raw)
    try:
        while offset < total:
            (name_len,) = _NAME_LEN.unpack_from(raw, offset)
            offset += 4
            name = raw[offset:offset + name_len].decode("utf-8")
            offset += name_len
            (data_len,) = _DATA_LEN.unpack_from(raw, offset)
            offset += 8
            end = offset + data_len
            if end > total:
                raise ArtifactError(
                    f"corrupt chunk blob: member {name!r} is truncated")
            members[name] = _decode_npy(raw, offset, end, name)
            offset = end
    except (struct.error, UnicodeDecodeError) as exc:
        raise ArtifactError(f"corrupt chunk blob: {exc}") from exc
    return members


def chunk_digest(blob: bytes) -> str:
    """Content address of a packed chunk blob."""
    return hashlib.sha256(blob).hexdigest()


# ---------------------------------------------------------------------------
# Manifest
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChunkRef:
    """One chunk as the manifest records it."""
    name: str
    digest: str
    nbytes: int
    kind: str
    members: Tuple[str, ...]
    batch: Optional[int] = None

    def to_dict(self) -> dict:
        entry = {"name": self.name, "digest": self.digest,
                 "nbytes": self.nbytes, "kind": self.kind,
                 "members": list(self.members)}
        if self.batch is not None:
            entry["batch"] = self.batch
        return entry

    @classmethod
    def from_dict(cls, entry: dict, where: str) -> "ChunkRef":
        """One manifest entry, type-checked: a wrong field raises
        :class:`ArtifactError` naming it."""
        digest = check_type(entry, dict, where).get("digest")
        if not isinstance(digest, str) or not _DIGEST.fullmatch(digest):
            raise ArtifactError(f"{where} digest {digest!r} is not a sha256")
        check_record(entry, {"name": str, "digest": str, "nbytes": int,
                             "kind": str, "members": list, "batch": int},
                     where, required=("name", "nbytes", "kind", "members"))
        for position, member in enumerate(entry["members"]):
            check_type(member, str, f"{where}.members[{position}]")
        if entry["nbytes"] < 0:
            raise ArtifactError(f"{where} has negative size")
        return cls(name=entry["name"], digest=digest,
                   nbytes=entry["nbytes"], kind=entry["kind"],
                   members=tuple(entry["members"]),
                   batch=entry.get("batch"))


@dataclass(frozen=True)
class ChunkMeta:
    """What the cluster simulator needs to know about one chunk."""
    name: str
    digest: str
    nbytes: int
    foreground: bool = True


@dataclass(frozen=True)
class ChunkManifest:
    """The small JSON that lists an artifact's chunks.

    ``metadata`` is the artifact's metadata dict with
    ``permanent_contents`` hollowed out (it lives in the ``dumps`` chunk);
    ``chunks`` is the canonical fetch order — kernels,
    replay shards, dumps, graph heads (batches descending), graph tails
    (batches descending).  Serialization sorts keys, so equal manifests
    are equal bytes and the store's content-hash LRU keeps working.
    """
    metadata: dict
    chunks: Tuple[ChunkRef, ...]

    @property
    def batches(self) -> List[int]:
        return [int(b) for b in self.metadata["batches"]]

    @property
    def total_bytes(self) -> int:
        """Sum of all chunk sizes (compressed, as stored)."""
        return sum(ref.nbytes for ref in self.chunks)

    @property
    def foreground_bytes(self) -> int:
        """Bytes a cold start must fetch before it can serve."""
        return sum(ref.nbytes for ref in self.foreground_chunks())

    def foreground_chunks(self) -> Tuple[ChunkRef, ...]:
        """Chunks ``restore_graph[0]`` needs: everything except the tails
        of the non-largest batches (which stream in the background, like
        PR 4's background ``restore_graph`` stages)."""
        largest = max(self.batches) if self.batches else None
        return tuple(
            ref for ref in self.chunks
            if ref.kind != KIND_GRAPH_TAIL or ref.batch == largest)

    def to_json(self) -> str:
        # The metadata dict is embedded pre-serialized: sort_keys on the
        # envelope keeps equal manifests byte-equal, while the embedded
        # string preserves the artifact's own key order — materializing
        # from a round-tripped manifest stays byte-identical.
        return json.dumps({
            "chunk_format_version": CHUNK_FORMAT_VERSION,
            "metadata": json.dumps(self.metadata),
            "chunks": [ref.to_dict() for ref in self.chunks],
        }, sort_keys=True)

    @classmethod
    def from_json(cls, text) -> "ChunkManifest":
        """Parse and check a manifest (``str`` or UTF-8 ``bytes``)."""
        try:
            payload = json.loads(text)
        except ValueError as exc:
            raise ArtifactError(f"unreadable chunk manifest: {exc}") from exc
        version = (payload.get("chunk_format_version")
                   if isinstance(payload, dict) else None)
        if version != CHUNK_FORMAT_VERSION:
            raise ArtifactError(
                f"chunk manifest has format version {version!r} but this "
                f"code reads version {CHUNK_FORMAT_VERSION}")
        metadata = payload.get("metadata")
        try:
            if isinstance(metadata, str):
                metadata = json.loads(metadata)
        except ValueError as exc:
            raise ArtifactError(
                f"chunk manifest has corrupt metadata: {exc}") from exc
        if not isinstance(metadata, dict):
            raise ArtifactError("chunk manifest has corrupt metadata: no "
                                "metadata object — not a Medusa artifact")
        refs = tuple(ChunkRef.from_dict(entry, f"chunks[{position}]")
                     for position, entry in enumerate(
                         check_type(payload.get("chunks"), list, "chunks")))
        if len({ref.name for ref in refs}) != len(refs):
            raise ArtifactError("chunk manifest names a chunk twice")
        return cls(metadata=metadata, chunks=refs)


def simulation_chunks(manifest: ChunkManifest) -> Tuple[ChunkMeta, ...]:
    """The manifest's chunks as the duck-typed records a
    :class:`repro.serverless.cluster.ModelDeployment`'s ``chunks`` take."""
    foreground = {ref.name for ref in manifest.foreground_chunks()}
    return tuple(ChunkMeta(name=ref.name, digest=ref.digest,
                           nbytes=ref.nbytes,
                           foreground=ref.name in foreground)
                 for ref in manifest.chunks)


# ---------------------------------------------------------------------------
# Chunking policy: arrays -> (manifest, blobs)
# ---------------------------------------------------------------------------

def chunk_model(artifact, replay_shard_events: int = REPLAY_SHARD_EVENTS,
                reuse: Optional[Callable[[str, bytes],
                                         Optional[Tuple[str, bytes]]]] = None,
                ) -> Tuple[ChunkManifest, Dict[str, bytes]]:
    """Split the packed ``artifact``'s own members into content-addressed
    chunks.

    Returns the manifest plus ``digest -> packed blob`` for every chunk it
    references.  Chunks with equal content collapse to one dict entry, so
    ``len(blobs)`` can be smaller than ``len(manifest.chunks)`` even for a
    single artifact.

    ``reuse`` (a :class:`BlobReuse`) gets each chunk's name and
    :func:`chunk_container` bytes and may return a stored ``(digest,
    blob)`` holding them; otherwise the container is compressed.
    """
    if replay_shard_events < 1:
        raise ArtifactError("replay_shard_events must be >= 1")
    arrays = artifact.members()
    metadata = artifact.metadata()
    refs: List[ChunkRef] = []
    blobs: Dict[str, bytes] = {}

    def emit(name: str, kind: str, members: Dict[str, np.ndarray],
             batch: Optional[int] = None) -> None:
        raw = reused = None
        if reuse is not None:
            raw = chunk_container(members)
            reused = reuse(name, raw)
        if reused is None:
            blob = pack_chunk(members, raw)
            digest = chunk_digest(blob)
        else:
            digest, blob = reused
        blobs[digest] = blob
        refs.append(ChunkRef(name=name, digest=digest, nbytes=len(blob),
                             kind=kind, members=tuple(sorted(members)),
                             batch=batch))

    emit(KIND_KERNELS, KIND_KERNELS,
         {member: arrays[member] for member in KERNEL_MEMBERS})

    num_events = int(arrays["ev_kind"].shape[0])
    shards = max(1, -(-num_events // replay_shard_events))
    for shard in range(shards):
        lo = shard * replay_shard_events
        hi = min(num_events, lo + replay_shard_events)
        emit(replay_chunk_name(shard), KIND_REPLAY,
             {member: arrays[member][lo:hi] for member in REPLAY_MEMBERS})

    dumps_json = json.dumps(metadata["permanent_contents"], sort_keys=True)
    emit(KIND_DUMPS, KIND_DUMPS, {DUMPS_MEMBER: np.array([dumps_json])})

    batches = sorted(metadata["batches"], reverse=True)
    first_layer = int(metadata["first_layer_nodes"])
    halves = {}
    for batch in batches:
        prefix = f"g{batch}_"
        count = min(first_layer, len(arrays[prefix + "kernel"]))
        pstop = int(arrays[prefix + "param_offsets"][count])
        # Node columns split after ``count`` nodes, parameter columns after
        # their ``pstop`` slots; offsets stay absolute, edges go in the tail.
        splits = {"kernel": count, "batchdim": count,
                  "param_offsets": count + 1}
        splits.update((name, pstop) for name in GRAPH_MEMBERS[3:-1])
        head = {prefix + name: arrays[prefix + name][:at]
                for name, at in splits.items()}
        tail = {prefix + name: arrays[prefix + name][at:]
                for name, at in splits.items()}
        tail[prefix + "edges"] = arrays[prefix + "edges"]
        halves[batch] = head, tail
    for batch in batches:
        emit(graph_head_chunk_name(batch), KIND_GRAPH_HEAD, halves[batch][0],
             batch=batch)
    for batch in batches:
        emit(graph_tail_chunk_name(batch), KIND_GRAPH_TAIL, halves[batch][1],
             batch=batch)

    metadata = dict(metadata)
    metadata["permanent_contents"] = {}
    manifest = ChunkManifest(metadata=metadata, chunks=tuple(refs))
    return manifest, blobs


# ---------------------------------------------------------------------------
# Readers
# ---------------------------------------------------------------------------

def directory_loader(chunk_dir) -> Callable[[ChunkRef], bytes]:
    """A loader reading blobs from ``chunk_dir/<digest>`` files."""
    root = Path(chunk_dir)

    def load(ref: ChunkRef) -> bytes:
        path = root / ref.digest
        try:
            return path.read_bytes()
        except FileNotFoundError as exc:
            raise ArtifactError(
                f"chunk {ref.name} ({ref.digest[:12]}…) missing from "
                f"{root}") from exc
    return load


class ChunkReader:
    """Present manifest + loader as the member mapping ``np.load`` returns.

    ``reader[member]`` locates the chunk(s) owning ``member`` in manifest
    order, decompresses them on first touch (verifying each blob against
    its content address), and concatenates multi-chunk members — replay
    columns across shards, graph arrays across head and tail.  Only the
    chunks a member actually lives in are loaded, which is what keeps
    :meth:`ChunkedLazyArtifact.first_layer_table` from paying for tails.
    """

    def __init__(self, manifest: ChunkManifest,
                 loader: Callable[[ChunkRef], bytes]):
        self.manifest = manifest
        self._loader = loader
        self._chunks: Dict[str, Dict[str, np.ndarray]] = {}
        self._refs: Dict[str, ChunkRef] = {}
        self._sources: Dict[str, List[str]] = {}
        for ref in manifest.chunks:
            self._refs[ref.name] = ref
            for member in ref.members:
                self._sources.setdefault(member, []).append(ref.name)

    def blob(self, ref: ChunkRef) -> bytes:
        """Chunk ``ref``'s blob, checked against its content address."""
        blob = self._loader(ref)
        if chunk_digest(blob) != ref.digest:
            raise ArtifactError(
                f"chunk {ref.name} failed content-hash verification "
                f"(expected {ref.digest[:12]}…)")
        return blob

    def chunk(self, name: str) -> Dict[str, np.ndarray]:
        """The decompressed member dict of one chunk (cached)."""
        members = self._chunks.get(name)
        if members is None:
            ref = self._refs.get(name)
            if ref is None:
                raise ArtifactError(f"manifest has no chunk named {name!r}")
            members = unpack_chunk(self.blob(ref))
            self._chunks[name] = members
        return members

    def __getitem__(self, member: str) -> np.ndarray:
        sources = self._sources.get(member)
        if not sources:
            raise KeyError(member)
        parts = [self.chunk(name)[member] for name in sources]
        if len(parts) == 1:
            return parts[0]
        try:
            return np.concatenate(parts)
        except ValueError as exc:
            raise ArtifactError(f"member {member!r} has chunk parts that "
                                f"do not join: {exc}") from exc


class ChunkedLazyArtifact(LazyArtifact):
    """A :class:`~repro.core.binfmt.LazyArtifact` backed by chunks: the
    one lazy reader, of a single file and of a store alike.

    Its :class:`ChunkReader` is the member mapping; the permanent
    contents come from the ``dumps`` chunk, and :meth:`first_layer_table`
    decompresses only the head chunk, keeping graph tails off a chunked
    plan's foreground fetch path.  ``fetch_per_chunk`` is what the opener
    knows: True for a store's separate blobs (the ``medusa-chunked``
    plan), False for one file (``medusa-pipelined``).
    """

    def __init__(self, manifest: ChunkManifest,
                 loader: Callable[[ChunkRef], bytes], path="<chunks>",
                 fetch_per_chunk: bool = True):
        reader = ChunkReader(manifest, loader)
        super().__init__(path, data=reader, meta=dict(manifest.metadata))
        self.chunk_manifest = manifest
        self.reader = reader
        self.fetch_per_chunk = fetch_per_chunk
        self._dump_rows: Optional[dict] = None
        self._head_tables: Dict[int, GraphTable] = {}

    def _dumps(self) -> dict:
        """The permanent contents, from the dumps chunk (the manifest's
        metadata holds an empty placeholder)."""
        if self._dump_rows is None:
            try:
                rows = json.loads(str(
                    self.reader.chunk(KIND_DUMPS)[DUMPS_MEMBER][0]))
            except (KeyError, IndexError, ValueError) as exc:
                raise ArtifactError(
                    f"chunk {KIND_DUMPS} holds no permanent contents: "
                    f"{exc!r}") from exc
            check_dumps(check_type(rows, dict, "permanent_contents"))
            self._dump_rows = rows
        return self._dump_rows

    def first_layer_table(self, batch: int) -> GraphTable:
        """Batch ``batch``'s warmup prefix from the head chunk alone."""
        table = self._head_tables.get(batch)
        if table is None:
            self._graph_meta(batch)       # an unknown batch raises here
            table = self._graph_table(
                batch, self.reader.chunk(graph_head_chunk_name(batch)),
                edges=np.empty((0, 2), dtype=np.int64))
            self._head_tables[batch] = table
        return table


#: An artifact's chunks: its manifest and a loader for each blob.
ChunkSet = Tuple[ChunkManifest, Callable[[ChunkRef], bytes]]


def chunk_set(artifact, reuse: Optional["BlobReuse"] = None) -> ChunkSet:
    """What :func:`~repro.core.binfmt.save_binary` and
    :meth:`~repro.core.store.ArtifactStore.put` persist: a chunk-backed
    artifact's own manifest and digest-checked blobs, or an in-memory
    one's :func:`chunk_model` output (with ``reuse``), cached on it by
    the first call so later calls compress nothing."""
    if isinstance(artifact, ChunkedLazyArtifact):
        return artifact.chunk_manifest, artifact.reader.blob
    if artifact.cached_chunks is None:
        manifest, blobs = chunk_model(artifact, reuse=reuse)
        artifact.cached_chunks = manifest, lambda ref: blobs[ref.digest]
    return artifact.cached_chunks


class BlobReuse:
    """:func:`chunk_model`'s ``reuse`` over the earlier chunk set
    ``previous()`` returns (none without ``previous`` or when it raises
    :class:`ArtifactError`): a chunk is taken from its blobs when the set
    names it, the blob's sha256 is the recorded digest and it decompresses
    to exactly the chunk's container.  ``verified`` maps each digest taken
    to its blob; ``offered - taken`` chunks were compressed.
    """

    def __init__(self, previous: Optional[Callable[[], ChunkSet]] = None):
        self._refs: Dict[str, ChunkRef] = {}
        self.verified: Dict[str, bytes] = {}
        self.offered = self.taken = 0
        try:
            if previous is not None:
                manifest, self._load = previous()
                self._refs = {ref.name: ref for ref in manifest.chunks}
        except ArtifactError:
            pass

    def __call__(self, name: str, raw: bytes) -> Optional[Tuple[str, bytes]]:
        self.offered += 1
        ref = self._refs.get(name)
        if ref is None:
            return None
        blob = self.verified.get(ref.digest)
        try:
            if blob is None:
                blob = self._load(ref)
                if chunk_digest(blob) != ref.digest:
                    return None
            if zlib.decompress(blob) != raw:
                return None
        except (ArtifactError, OSError, zlib.error):
            return None
        self.verified[ref.digest] = blob
        self.taken += 1
        return ref.digest, blob


def file_bytes(manifest: ChunkManifest,
               load: Callable[[ChunkRef], bytes]) -> bytes:
    """One file holding a chunk set: :data:`FILE_MAGIC`, the ``<Q`` length
    of the manifest JSON and the JSON (a store's manifest file), one
    ``<Q`` file offset per manifest chunk, then each distinct blob once,
    in manifest order."""
    text = manifest.to_json().encode("utf-8")
    end = _FILE_HEAD + len(text) + _DATA_LEN.size * len(manifest.chunks)
    offsets: Dict[str, int] = {}
    blobs: List[bytes] = []
    for ref in manifest.chunks:
        if ref.digest not in offsets:
            offsets[ref.digest] = end
            blobs.append(load(ref))
            end += len(blobs[-1])
    table = struct.pack(f"<{len(manifest.chunks)}Q",
                        *[offsets[ref.digest] for ref in manifest.chunks])
    return b"".join([FILE_MAGIC, _DATA_LEN.pack(len(text)), text, table,
                     *blobs])


def file_chunk_set(path) -> ChunkSet:
    """The chunk set of a file :func:`file_bytes` wrote.  A missing file,
    another magic (a JSON export among them) or a manifest past the end
    raises :class:`ArtifactError`; a blob past the end raises it when
    loaded."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ArtifactError(f"no readable binary artifact at {path}: "
                            f"{exc}") from exc
    if not data.startswith(FILE_MAGIC) or len(data) < _FILE_HEAD:
        raise ArtifactError(
            f"{path} is not a binary Medusa artifact (bad magic, expected "
            f"{FILE_MAGIC!r}); artifacts are read only in the binary form "
            f"`repro offline --output <name>.medusa` writes, and JSON is "
            f"export-only")
    (length,) = _DATA_LEN.unpack_from(data, len(FILE_MAGIC))
    if _FILE_HEAD + length > len(data):
        raise ArtifactError(
            f"binary artifact {path}: its manifest of {length} bytes runs "
            f"past the end of the file ({len(data)} bytes)")
    manifest = ChunkManifest.from_json(data[_FILE_HEAD:_FILE_HEAD + length])
    count = len(manifest.chunks)
    table = data[_FILE_HEAD + length:_FILE_HEAD + length + 8 * count]
    # A table cut short reads as offsets past the end of the file.
    offsets = dict(zip([ref.name for ref in manifest.chunks], struct.unpack(
        f"<{count}Q", table.ljust(8 * count, b"\xff"))))

    def load(ref: ChunkRef) -> bytes:
        start = offsets[ref.name]
        if start + ref.nbytes > len(data):
            raise ArtifactError(
                f"chunk {ref.name} at offset {start} runs past the end of "
                f"{path} ({len(data)} bytes)")
        return data[start:start + ref.nbytes]
    return manifest, load


def open_binary(path) -> ChunkedLazyArtifact:
    """Open a single-file artifact: the file is read and its manifest
    parsed now, each chunk digest-checked and decoded on first access."""
    manifest, load = file_chunk_set(path)
    return ChunkedLazyArtifact(manifest, load, path=path,
                               fetch_per_chunk=False)

