"""Content-addressed chunk store, keyed by <GPU type, model type> (§3).

The original artifact persists materialized graphs to the SSDs once per
model and reuses them across cold starts.  This store is that layer, now
chunk-granular: :meth:`ArtifactStore.put` splits an artifact with
:func:`repro.core.chunks.chunk_model` into sha256-addressed blobs under
``root/chunks/`` plus a small per-model **manifest** file, and
:meth:`ArtifactStore.get` reassembles the artifact from the manifest.
Because blobs are addressed by content, two models (or the same model
re-materialized for two GPUs) that share structurally identical graph,
replay, or kernel-table chunks store those bytes **once** —
:meth:`stats` reports the resulting dedup ratio.

Three caches keep repeated cold starts on one node off the
deserialization path:

- the **parsed index** is cached against the index file's
  ``(mtime_ns, size)`` stamp, so a hundred lookups parse ``index.json``
  once (``index_reads`` counts actual parses);
- each **parsed manifest** is stamp-cached the same way
  (``manifest_reads`` counts actual parses), so manifest-granular gets
  keep the same "100 gets ⇒ 1 parse" behavior;
- fetched artifacts land in a small in-memory **LRU keyed by the
  manifest file's content hash** (``cache_size`` entries, 0 disables).
  The manifest lists every chunk digest, so its hash is a content
  address for the whole artifact.  A hit returns the already-
  deserialized — and, with ``lint_on_load``, already-verified —
  artifact; treat it as read-only.  The cache is bypassed entirely while
  a :class:`~repro.faults.FaultInjector` is active, so chaos runs always
  see freshly corrupted copies.

``parallel_workers > 1`` decompresses independent chunks on a
:class:`~concurrent.futures.ThreadPoolExecutor` during :meth:`get` /
:meth:`get_lazy` prefetch (measured in ``benchmarks/bench_wallclock.py``).
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import re
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.core.artifact import MaterializedModel
from repro.core.chunks import (
    ChunkManifest,
    ChunkedLazyArtifact,
    chunk_model,
    directory_loader,
)
from repro.errors import ArtifactError, LintError

_INDEX_NAME = "index.json"
_CHUNK_DIR = "chunks"
_MANIFEST_SUFFIX = ".medusa.manifest.json"


def _slug(text: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "_", text)


class ArtifactStore:
    """Materialization artifacts for many models on one storage path."""

    def __init__(self, root, lint_on_load: bool = False, injector=None,
                 cache_size: int = 4, parallel_workers: int = 0):
        """``lint_on_load``: statically verify every artifact fetched with
        :meth:`get` (see :mod:`repro.analysis`) and raise
        :class:`~repro.errors.LintError` on error-severity diagnostics —
        the SSD copy may be corrupt, hand-edited, or version-skewed even
        when the index entry looks fine.  With the LRU enabled the check
        runs once per distinct content (lint-once): a cache hit is by
        definition the artifact that already passed.

        ``injector``: optional :class:`repro.faults.FaultInjector`; its
        ARTIFACT_CORRUPTION faults mutate artifacts as they come off the
        store, simulating a stale/bit-rotted SSD copy whose index entry
        still looks fine.

        ``cache_size``: in-memory LRU capacity in artifacts (content-hash
        keyed); 0 disables caching entirely.

        ``parallel_workers``: decompress this many chunks concurrently on
        reads (0/1 = serial)."""
        self.root = pathlib.Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.lint_on_load = lint_on_load
        self.injector = injector
        self.cache_size = cache_size
        self.parallel_workers = parallel_workers
        self.cache_hits = 0
        self.cache_misses = 0
        self.index_reads = 0
        self.manifest_reads = 0
        self.chunks_written = 0
        self.chunks_deduped = 0
        self.bytes_deduped = 0
        self._index_path = self.root / _INDEX_NAME
        self._chunk_dir = self.root / _CHUNK_DIR
        self._index_cache: Optional[
            Tuple[Tuple[int, int], Dict[str, str]]] = None
        self._manifest_cache: Dict[
            str, Tuple[Tuple[int, int], ChunkManifest, str]] = {}
        self._cache: "OrderedDict[str, MaterializedModel]" = OrderedDict()

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
            parsed = json.loads(self._index_path.read_text())
        except json.JSONDecodeError as exc:
            raise ArtifactError(
                f"artifact store index at {self._index_path} is corrupt: "
                f"{exc}") from exc
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
        stamp = (stat.st_mtime_ns, stat.st_size)
        cached = self._manifest_cache.get(filename)
        if cached is not None and cached[0] == stamp:
            return cached[1], cached[2]
        self.manifest_reads += 1
        payload = path.read_bytes()
        digest = hashlib.sha256(payload).hexdigest()
        manifest = ChunkManifest.from_json(payload.decode("utf-8"))
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

    def put(self, artifact: MaterializedModel) -> pathlib.Path:
        """Persist an artifact as chunks + manifest; returns the manifest
        path.  Chunk blobs already present (from any model/GPU) are not
        rewritten — ``chunks_deduped``/``bytes_deduped`` count them."""
        manifest, blobs = chunk_model(artifact)
        self._chunk_dir.mkdir(exist_ok=True)
        for digest in sorted(blobs):
            blob_path = self._chunk_dir / digest
            if blob_path.exists():
                self.chunks_deduped += 1
                self.bytes_deduped += len(blobs[digest])
            else:
                blob_path.write_bytes(blobs[digest])
                self.chunks_written += 1
        filename = (f"{_slug(artifact.gpu_name)}__"
                    f"{_slug(artifact.model_name)}{_MANIFEST_SUFFIX}")
        path = self.root / filename
        path.write_text(manifest.to_json())
        index = self._read_index()
        index[self._key(artifact.gpu_name, artifact.model_name)] = filename
        self._write_index(index)
        return path

    def get(self, gpu_name: str, model_name: str) -> MaterializedModel:
        """Fetch one artifact (through the LRU unless an injector is live),
        reassembled from its manifest's chunks."""
        filename = self._lookup(gpu_name, model_name)
        manifest, digest = self._load_manifest(filename)
        caching = self.cache_size > 0 and not (
            self.injector is not None and self.injector.active)
        if caching:
            cached = self._cache.get(digest)
            if cached is not None:
                self._cache.move_to_end(digest)
                self.cache_hits += 1
                return cached
            self.cache_misses += 1
        lazy = self._open_chunked(manifest, filename)
        lazy.reader.prefetch(workers=self.parallel_workers)
        artifact = lazy.materialize()
        if self.injector is not None and self.injector.active:
            for batch, table in self.injector.corrupted_tables(lazy).items():
                artifact.graphs[batch] = table.to_graph()
        if self.lint_on_load:
            from repro.analysis import lint_artifact
            report = lint_artifact(artifact)
            if report.errors:
                raise LintError(
                    f"stored artifact {filename} failed static "
                    f"verification with {len(report.errors)} error(s): "
                    f"{', '.join(report.codes())}", report=report)
        if caching:
            self._cache[digest] = artifact
            while len(self._cache) > self.cache_size:
                self._cache.popitem(last=False)
        return artifact

    def get_lazy(self, gpu_name: str, model_name: str) -> ChunkedLazyArtifact:
        """Open one artifact chunk-backed, without materializing.

        The chunked-plan entry: chunks decompress on first access (the
        restorer's foreground stages touch heads and replay shards only),
        so nothing is read here beyond the manifest.  Bypasses the LRU,
        lint, and injector hooks — each call returns a fresh reader the
        caller owns.
        """
        filename = self._lookup(gpu_name, model_name)
        manifest, _ = self._load_manifest(filename)
        return self._open_chunked(manifest, filename)

    def manifest(self, gpu_name: str, model_name: str) -> ChunkManifest:
        """The stored manifest for one <GPU, model> pair."""
        return self._load_manifest(self._lookup(gpu_name, model_name))[0]

    def cache_info(self) -> Dict[str, int]:
        """Counters for the artifact LRU and the parsed-index/manifest
        caches."""
        return {
            "hits": self.cache_hits,
            "misses": self.cache_misses,
            "entries": len(self._cache),
            "capacity": self.cache_size,
            "index_reads": self.index_reads,
            "manifest_reads": self.manifest_reads,
        }

    def stats(self) -> Dict[str, object]:
        """Per-model chunk counts plus store-wide dedup accounting.

        ``total_bytes`` sums every manifest's chunks as if stored
        separately; ``unique_bytes`` is what the content-addressed blob
        directory actually holds; ``dedup_ratio`` is their quotient
        (1.0 = no sharing).
        """
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

    def delete(self, gpu_name: str, model_name: str) -> None:
        """Remove an artifact's manifest and garbage-collect any chunk
        blobs no remaining manifest references."""
        index = self._read_index()
        filename = index.pop(self._key(gpu_name, model_name), None)
        if filename is None:
            raise ArtifactError(
                f"no materialization for <{gpu_name}, {model_name}>")
        path = self.root / filename
        if path.exists():
            path.unlink()
        self._manifest_cache.pop(filename, None)
        self._write_index(index)
        referenced = set()
        for remaining in index.values():
            try:
                manifest, _ = self._load_manifest(remaining)
            except ArtifactError:
                continue
            referenced.update(ref.digest for ref in manifest.chunks)
        if self._chunk_dir.exists():
            for blob_path in self._chunk_dir.iterdir():
                if blob_path.name not in referenced:
                    blob_path.unlink()
