"""Content-addressed chunk store, keyed by <GPU type, model type> (§3).

The original artifact persists materialized graphs to the SSDs once per
model and reuses them across cold starts.  This store is that layer, now
chunk-granular: :meth:`ArtifactStore.put` splits an artifact with
:func:`repro.core.chunks.chunk_model` into sha256-addressed blobs under
``root/chunks/`` plus a small per-model **manifest** file, and
:meth:`ArtifactStore.get` opens it chunk-backed from the manifest
(a :class:`~repro.core.chunks.ChunkedLazyArtifact`; chunks decompress
on first access).  Because blobs are addressed by content, two models
(or the same model re-materialized for two GPUs) that share structurally
identical graph, replay, or kernel-table chunks store those bytes
**once** — :meth:`stats` reports the resulting dedup ratio.

A put compresses each chunk at most once (see :meth:`ArtifactStore.put`),
and a re-put only the chunks that changed.  A blob file that fails its
sha256 is rewritten, not counted as deduped.

Three caches keep repeated cold starts on one node off the
deserialization path:

- the **parsed index** is cached against the index file's
  ``(mtime_ns, size)`` stamp, so a hundred lookups parse ``index.json``
  once (``index_reads`` counts actual parses);
- each **parsed manifest** is stamp-cached the same way
  (``manifest_reads`` counts actual parses), so manifest-granular gets
  keep the same "100 gets ⇒ 1 parse" behavior;
- opened artifacts land in a small in-memory **LRU keyed by the
  manifest file's content hash** (:attr:`ArtifactStore.CACHE_SIZE`
  entries).  The manifest lists every chunk digest, so its hash is a
  content address for the whole artifact.  A hit returns the same
  artifact object and its already-decompressed chunks; treat it as
  read-only.

An index or manifest that cannot be read (a directory, bytes that are
not UTF-8, malformed JSON) raises :class:`~repro.errors.ArtifactError`,
and so does an index entry that is not a bare manifest file name: the
store reads nothing outside its root.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import re
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.core import chunks
from repro.core.chunks import (
    ChunkManifest,
    ChunkedLazyArtifact,
    directory_loader,
)
from repro.errors import ArtifactError
from repro.utils.files import write_if_changed

_INDEX_NAME = "index.json"
_CHUNK_DIR = "chunks"
_MANIFEST_SUFFIX = ".medusa.manifest.json"


def _slug(text: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "_", text)


def _is_manifest_name(name: object) -> bool:
    """Whether an index value is a bare manifest file name."""
    return (isinstance(name, str) and name.endswith(_MANIFEST_SUFFIX)
            and "/" not in name and "\\" not in name)


class ArtifactStore:
    """Materialization artifacts for many models on one storage path."""

    #: In-memory LRU capacity, in artifacts (content-hash keyed).
    CACHE_SIZE = 4

    def __init__(self, root):
        """Opening a store creates nothing: the first :meth:`put` makes
        ``root``."""
        self.root = pathlib.Path(root)
        self.cache_hits = 0
        self.cache_misses = 0
        self.index_reads = 0
        self.manifest_reads = 0
        self.chunks_compressed = 0
        self.chunks_written = 0
        self.chunks_deduped = 0
        self.bytes_deduped = 0
        self._index_path = self.root / _INDEX_NAME
        self._chunk_dir = self.root / _CHUNK_DIR
        self._index_cache: Optional[
            Tuple[Tuple[int, int], Dict[str, str]]] = None
        self._manifest_cache: Dict[
            str, Tuple[Tuple[int, int], ChunkManifest, str]] = {}
        self._cache: "OrderedDict[str, ChunkedLazyArtifact]" = OrderedDict()

    # -- index ------------------------------------------------------------

    def _read_index(self) -> Dict[str, str]:
        if not self._index_path.exists():
            return {}
        stat = self._index_path.stat()
        stamp = (stat.st_mtime_ns, stat.st_size)
        if self._index_cache is not None and self._index_cache[0] == stamp:
            return dict(self._index_cache[1])
        self.index_reads += 1
        try:
            parsed = json.loads(self._index_path.read_bytes())
        except (OSError, ValueError) as exc:
            raise ArtifactError(
                f"artifact store index at {self._index_path} is "
                f"unreadable: {exc}") from exc
        if not isinstance(parsed, dict) or not all(
                _is_manifest_name(name) for name in parsed.values()):
            raise ArtifactError(
                f"artifact store index at {self._index_path} is not a "
                f"key -> manifest-file-name object (each name a bare "
                f"file name ending in {_MANIFEST_SUFFIX})")
        self._index_cache = (stamp, parsed)
        return dict(parsed)

    def _write_index(self, index: Dict[str, str]) -> None:
        self._index_path.write_text(json.dumps(index, indent=2, sort_keys=True))
        stat = self._index_path.stat()
        self._index_cache = ((stat.st_mtime_ns, stat.st_size), dict(index))

    @staticmethod
    def _key(gpu_name: str, model_name: str) -> str:
        return f"{gpu_name}::{model_name}"

    # -- manifests ---------------------------------------------------------

    def _load_manifest(self, filename: str) -> Tuple[ChunkManifest, str]:
        """Parse one manifest file, stamp-cached; returns it plus the
        sha256 of its bytes (the artifact's content address)."""
        path = self.root / filename
        try:
            stat = path.stat()
        except FileNotFoundError as exc:
            raise ArtifactError(
                f"indexed artifact file {filename} is missing from "
                f"{self.root}") from exc
        except OSError as exc:
            raise ArtifactError(
                f"indexed artifact file {filename} is unreadable: "
                f"{exc}") from exc
        stamp = (stat.st_mtime_ns, stat.st_size)
        cached = self._manifest_cache.get(filename)
        if cached is not None and cached[0] == stamp:
            return cached[1], cached[2]
        self.manifest_reads += 1
        try:
            payload = path.read_bytes()
        except OSError as exc:
            raise ArtifactError(
                f"indexed artifact file {filename} is unreadable: "
                f"{exc}") from exc
        digest = hashlib.sha256(payload).hexdigest()
        manifest = ChunkManifest.from_json(payload)
        self._manifest_cache[filename] = (stamp, manifest, digest)
        return manifest, digest

    def _lookup(self, gpu_name: str, model_name: str) -> str:
        filename = self._read_index().get(self._key(gpu_name, model_name))
        if filename is None:
            raise ArtifactError(
                f"no materialization for <{gpu_name}, {model_name}> in "
                f"{self.root}; run the offline phase first")
        return filename

    def _open_chunked(self, manifest: ChunkManifest,
                      filename: str) -> ChunkedLazyArtifact:
        return ChunkedLazyArtifact(manifest, directory_loader(self._chunk_dir),
                                   path=self.root / filename)

    # -- operations ----------------------------------------------------------

    def put(self, artifact) -> pathlib.Path:
        """Persist an artifact's chunk set as blobs + manifest; returns
        the manifest path.

        An artifact whose chunk set exists (:func:`repro.core.chunks.
        chunk_set`: saved or put before, or chunk-backed, whose blobs are
        copied after their digest check) is not compressed again.
        Otherwise a chunk this key's previous manifest names is taken
        from its stored blob when that verifies (:class:`~repro.core.
        chunks.BlobReuse`), even where this build's zlib would compress
        the same content to other bytes.  ``chunks_compressed`` counts
        the chunks that were compressed.

        A blob file already present (from any model/GPU) counts as
        deduped — ``chunks_deduped``/``bytes_deduped`` — only when its
        sha256 matches its name; a corrupt one is rewritten and counts
        as written.  A manifest or an index entry that already holds the
        same bytes is not rewritten.  A previous manifest that is missing
        or unreadable reuses nothing.
        """
        index = self._read_index()
        key = self._key(artifact.gpu_name, artifact.model_name)
        previous = index.get(key)
        reuse = chunks.BlobReuse(
            (lambda: (self._load_manifest(previous)[0],
                      directory_loader(self._chunk_dir)))
            if previous is not None else None)
        manifest, load = chunks.chunk_set(artifact, reuse)
        self.chunks_compressed += reuse.offered - reuse.taken
        self._chunk_dir.mkdir(parents=True, exist_ok=True)
        refs = {ref.digest: ref for ref in manifest.chunks}
        for digest in sorted(refs):
            if digest in reuse.verified or not write_if_changed(
                    self._chunk_dir / digest, load(refs[digest])):
                self.chunks_deduped += 1
                self.bytes_deduped += refs[digest].nbytes
            else:
                self.chunks_written += 1
        filename = (f"{_slug(artifact.gpu_name)}__"
                    f"{_slug(artifact.model_name)}{_MANIFEST_SUFFIX}")
        path = self.root / filename
        # A re-put of the same artifact leaves both files untouched.
        write_if_changed(path, manifest.to_json().encode("utf-8"))
        if index.get(key) != filename:
            index[key] = filename
            self._write_index(index)
        return path

    def get(self, gpu_name: str, model_name: str) -> ChunkedLazyArtifact:
        """Open one artifact chunk-backed, through the LRU.

        A miss reads only the (stamp-cached) manifest.  A hit returns the
        same object, decompressed chunks included.
        """
        filename = self._lookup(gpu_name, model_name)
        manifest, digest = self._load_manifest(filename)
        cached = self._cache.get(digest)
        if cached is not None:
            self._cache.move_to_end(digest)
            self.cache_hits += 1
            return cached
        self.cache_misses += 1
        lazy = self._open_chunked(manifest, filename)
        self._cache[digest] = lazy
        if len(self._cache) > self.CACHE_SIZE:
            self._cache.popitem(last=False)
        return lazy

    def get_lazy(self, gpu_name: str, model_name: str) -> ChunkedLazyArtifact:
        """Open one artifact chunk-backed, bypassing the LRU.

        The chunked-plan entry: chunks decompress on first access (the
        restorer's foreground stages touch heads and replay shards only),
        so nothing is read here beyond the manifest.  Each call returns a
        fresh reader the caller owns.
        """
        filename = self._lookup(gpu_name, model_name)
        manifest, _ = self._load_manifest(filename)
        return self._open_chunked(manifest, filename)

    def manifest(self, gpu_name: str, model_name: str) -> ChunkManifest:
        """The stored manifest for one <GPU, model> pair."""
        return self._load_manifest(self._lookup(gpu_name, model_name))[0]

    def stats(self) -> Dict[str, object]:
        """Per-model chunk counts plus store-wide dedup accounting.

        ``total_bytes`` sums every manifest's chunks as if stored
        separately; ``unique_bytes`` is what the content-addressed blob
        directory actually holds; ``dedup_ratio`` is their quotient
        (1.0 = no sharing).  A root that is no directory raises
        :class:`ArtifactError`: it holds no store, not an empty one.
        """
        if not self.root.is_dir():
            raise ArtifactError(f"no artifact store at {self.root}")
        index = self._read_index()
        models: Dict[str, Dict[str, int]] = {}
        unique: Dict[str, int] = {}
        total_bytes = 0
        total_chunks = 0
        for key in sorted(index):
            manifest, _ = self._load_manifest(index[key])
            size = manifest.total_bytes
            models[key] = {
                "chunks": len(manifest.chunks),
                "bytes": size,
                "foreground_bytes": manifest.foreground_bytes,
            }
            total_bytes += size
            total_chunks += len(manifest.chunks)
            for ref in manifest.chunks:
                unique[ref.digest] = ref.nbytes
        unique_bytes = sum(unique.values())
        return {
            "models": models,
            "total_chunks": total_chunks,
            "unique_chunks": len(unique),
            "total_bytes": total_bytes,
            "unique_bytes": unique_bytes,
            "dedup_ratio": (total_bytes / unique_bytes
                            if unique_bytes else 1.0),
        }

    def has(self, gpu_name: str, model_name: str) -> bool:
        """Whether an artifact for the pair is indexed."""
        return self._key(gpu_name, model_name) in self._read_index()

    def list(self) -> List[Tuple[str, str]]:
        """All (gpu_name, model_name) pairs in the store."""
        pairs = []
        for key in sorted(self._read_index()):
            gpu_name, _, model_name = key.partition("::")
            pairs.append((gpu_name, model_name))
        return pairs
