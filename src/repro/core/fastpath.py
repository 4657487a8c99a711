"""The online restore (paper §4.2, §4.3, §5, §6): one vectorized restorer.

:class:`VectorizedRestorer` restores one materialized model into a fresh
process, reading the artifact as packed numpy arrays
(:class:`repro.core.binfmt.LazyArtifact`).  An eager
:class:`~repro.core.artifact.MaterializedModel` is packed once on entry
(:func:`repro.core.binfmt.as_lazy`), so every input kind runs the same code:

- **KV restore (§6)** — verifies the engine's structure-init allocation
  prefix (the deterministic-control-flow assumption, checked rather than
  assumed), replays the recorded (de)allocations up to the KV region, and
  adopts the materialized block count — no profiling forwarding.
- **Allocation replay (§4.2)** — the rest of the recorded sequence, from
  plain-tuple rows; the replayed buffers become two dense
  ``alloc_index -> (base address, size)`` lookup tables.
- **Warm-up (§4.3, §5.1, §5.2)** — restores the permanent buffer contents,
  then warms up and captures only the *first layer* per batch size: its
  kernels are the triggering-kernels that load every hidden module, plus
  any handwritten trigger plans for modules the first layer misses.
- **Graph restore (§4.2, §5)** — resolves every kernel name to this
  process's address (first-layer graph nodes → dlsym →
  cuModuleEnumerateFunctions) and substitutes pointers in one gather per
  graph: the flat ``param_values`` column is copied once and its pointer
  slots become ``fresh base + byte offset``, with the bounds checks as
  vector comparisons.  Restored nodes keep their parameters packed
  (:class:`PackedParams`).

The restorer binds the actions of all three Medusa plans; which one runs is
picked by :func:`repro.core.online.prepare_medusa_cold_start`:

================================== ===================== ==================
input                              plan                  restore actions
================================== ===================== ==================
eager artifact, or any active hook ``medusa``            ``restore_kv``,
                                                         ``restore_warmup``,
                                                         ``restore_tail``
``.npz`` :class:`LazyArtifact`     ``medusa-pipelined``  ``fetch_artifact``,
                                                         ``replay_alloc``,
                                                         ``restore_graph[bs]``
chunk-backed artifact              ``medusa-chunked``    ``fetch_chunk[i]``,
                                                         ``replay_alloc``,
                                                         ``restore_graph[bs]``
================================== ===================== ==================

With a :class:`~repro.faults.FaultInjector` its faults fire at the array
sites (one graph's corrupted ``param_byte_offsets`` copy, per-row replay
hooks, permanent-dump bit-flips, trigger timeouts in the warm-up); with a
:class:`~repro.faults.DegradationPolicy` restore failures walk the
degradation ladder (partial → recapture → eager) instead of propagating.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set, Tuple

import numpy as np

from repro.core.binfmt import POINTER_CODE, GraphTable, as_lazy
from repro.engine.capture_runner import (
    CaptureArtifacts,
    capture_one,
    prepare_capture_stage,
    run_capture_stage,
)
from repro.engine.kvcache import BlockManager, KVCacheRegion
from repro.engine.loadplan import FETCH_ARTIFACT, REPLAY_ALLOC, \
    fetch_chunk_stage, restore_graph_stage
from repro.errors import (
    CudaError,
    MaterializationError,
    ModuleNotLoadedError,
    RestorationError,
    SymbolNotFoundError,
    TriggerTimeoutError,
)
from repro.faults.ladder import (
    DEGRADE_EAGER,
    DEGRADE_KV_PROFILE,
    DEGRADE_PARTIAL,
    DEGRADE_RECAPTURE,
    RESTORE_VERIFY,
    DegradationPolicy,
    DegradationReport,
    LadderStep,
    Rung,
)
from repro.simgpu.graph import CudaGraph, CudaGraphNode, GraphExecMeta
from repro.simgpu.kernels import PAYLOAD_DIM, KernelParam
from repro.simgpu.memory import Buffer
from repro.simgpu.process import ExecutionMode

#: What the degradation ladder may catch and recover from: Medusa-level
#: restore failures and realistic driver/runtime errors.  Engine-level
#: errors (mis-wired plans, exhausted KV budgets) still propagate.
_LADDER_ERRORS = (MaterializationError, CudaError)


class PackedParams:
    """A node's parameter array as a view into the resolved flat arrays.

    Quacks like the ``List[KernelParam]`` a :class:`CudaGraphNode` stores —
    ``len``, indexing, iteration, and item assignment (what
    ``CudaGraphNode.set_param`` uses) all work — but holds only two array
    references and a slot range.  A 16k-node graph therefore restores
    without creating ~112k ``KernelParam`` objects; they materialize lazily
    when COMPUTE-mode execution iterates the node.
    """

    __slots__ = ("sizes", "values", "start", "stop")

    def __init__(self, sizes: np.ndarray, values: np.ndarray,
                 start: int, stop: int):
        self.sizes = sizes          # flat per-slot byte sizes (shared)
        self.values = values        # flat resolved values (shared, mutable)
        self.start = start
        self.stop = stop

    def __len__(self) -> int:
        return self.stop - self.start

    def _position(self, index: int) -> int:
        length = self.stop - self.start
        if index < 0:
            index += length
        if not 0 <= index < length:
            raise IndexError(f"param index {index} out of range "
                             f"for {length} slots")
        return self.start + index

    def __getitem__(self, index: int) -> KernelParam:
        position = self._position(index)
        return KernelParam(int(self.sizes[position]),
                           int(self.values[position]))

    def __setitem__(self, index: int, param: KernelParam) -> None:
        # Slot sizes are fixed by the kernel ABI; only the value moves.
        self.values[self._position(index)] = param.value

    def __iter__(self) -> Iterator[KernelParam]:
        sizes = self.sizes[self.start:self.stop].tolist()
        values = self.values[self.start:self.stop].tolist()
        for size, value in zip(sizes, values):
            yield KernelParam(size, value)


# ---------------------------------------------------------------------------
# Kernel address resolution (§5)
# ---------------------------------------------------------------------------

def resolve_kernel_addresses(engine, first_layer_graph: CudaGraph,
                             needed_names, kernel_libraries: Dict[str, str],
                             table: Dict[str, int],
                             tolerate: bool = False) -> set:
    """Resolve materialized kernel names to this process's addresses (§5).

    Fills ``table`` in place from three sources, in order: the captured
    first-layer graph nodes (they carry fresh addresses), ``dlsym`` ->
    ``cudaGetFuncBySymbol`` for visible kernels, and
    ``cuModuleEnumerateFunctions`` over already-loaded modules for the
    hidden remainder (their modules were loaded by the triggering kernels).
    With ``tolerate=True`` unresolvable kernels are collected and returned
    instead of raising (the degradation ladder poisons only the graphs
    referencing them); strict mode always returns an empty set.
    """
    driver = engine.process.driver
    cm = engine.cost_model
    for node in first_layer_graph.nodes:
        table[driver.cu_func_get_name(node.kernel_address)] = \
            node.kernel_address
    needed = sorted(set(needed_names) - set(table))
    enumerated: Dict[Tuple[str, str], Dict[str, int]] = {}
    unresolved: set = set()
    for kernel_name in needed:
        library = kernel_libraries.get(kernel_name)
        if library is None:
            if tolerate:
                unresolved.add(kernel_name)
                continue
            raise RestorationError(
                f"artifact has no library mapping for {kernel_name}")
        try:
            symbol = driver.dlsym(library, kernel_name)
        except SymbolNotFoundError:
            try:
                address = _enumerate_modules(engine, library, kernel_name,
                                             enumerated)
            except (RestorationError, ModuleNotLoadedError):
                if tolerate:
                    unresolved.add(kernel_name)
                    continue
                raise
        else:
            address = driver.cuda_get_func_by_symbol(symbol)
        table[kernel_name] = address
    total_enumerated = sum(len(v) for v in enumerated.values())
    engine.process.clock.advance(
        cm.module_enumerate_per_kernel * total_enumerated)
    return unresolved


def _enumerate_modules(engine, library: str, kernel_name: str,
                       enumerated) -> int:
    """cuModuleEnumerateFunctions over loaded modules of ``library``."""
    driver = engine.process.driver
    for lib_name, module_name in driver.loaded_modules():
        if lib_name != library:
            continue
        key = (lib_name, module_name)
        if key not in enumerated:
            names: Dict[str, int] = {}
            for address in driver.cu_module_enumerate_functions(
                    lib_name, module_name):
                names[driver.cu_func_get_name(address)] = address
            enumerated[key] = names
        address = enumerated[key].get(kernel_name)
        if address is not None:
            return address
    raise RestorationError(
        f"kernel {kernel_name} is hidden and its module was never "
        f"loaded — no triggering kernel covered it (§5)")


# ---------------------------------------------------------------------------
# The restorer
# ---------------------------------------------------------------------------

class VectorizedRestorer:
    """Restores one materialized model into a fresh process.

    ``artifact``: a :class:`~repro.core.binfmt.LazyArtifact` (``.npz`` or
    chunk-backed), or an eager ``MaterializedModel``, packed on entry.
    ``injector``: optional :class:`repro.faults.FaultInjector` whose faults
    fire at this restorer's injection sites (chaos testing).
    ``policy``: optional :class:`repro.faults.DegradationPolicy`.  When set,
    restore failures walk the degradation ladder instead of killing the
    cold start; when ``None`` every failure propagates.
    ``verify_dumps`` turns on the permanent-dump readback check (a policy
    turns it on by itself whenever an injector is active).
    """

    def __init__(self, artifact, injector=None,
                 policy: Optional[DegradationPolicy] = None,
                 verify_dumps: bool = False):
        artifact = as_lazy(artifact)
        active = injector is not None and injector.active
        #: batch -> the graph table the restore reads when it is not the
        #: artifact's own (a fault-corrupted copy).
        self._tables: Dict[int, GraphTable] = {}
        if active:
            injector.prepare(artifact)
            self._tables = injector.corrupted_tables(artifact)
        self.artifact = artifact
        self.injector = injector if active else None
        self.policy = policy
        self.degradation = DegradationReport()
        self._verify_dumps = verify_dumps or (policy is not None and (
            policy.verify_dumps if policy.verify_dumps is not None
            else active))
        self._verify_outputs = policy is not None and (
            policy.verify_outputs if policy.verify_outputs is not None
            else active)
        self._buffers: Dict[int, Buffer] = {}
        self._replay_allocated: List[Buffer] = []
        self._replay_cursor = 0
        self._name_to_address: Dict[str, int] = {}
        self._addr_by_alloc: Optional[np.ndarray] = None
        self._size_by_alloc: Optional[np.ndarray] = None
        self._capture: Optional[CaptureArtifacts] = None
        self._warm: Optional[Tuple[Buffer, Buffer, CudaGraph]] = None
        self._kv_broken = False
        self._warmup_ok = False

    # -- stage actions ------------------------------------------------------

    def stage_action_names(self) -> Tuple[str, ...]:
        """The action names :meth:`stage_actions` will register.

        Static (no engine needed), so the plan verifier
        (`repro.analysis.planlint`) can resolve PLN004 bindings before a
        restore binds anything.
        """
        manifest = getattr(self.artifact, "chunk_manifest", None)
        chunk_names = () if manifest is None else tuple(
            fetch_chunk_stage(position)
            for position in range(len(manifest.chunks)))
        return (FETCH_ARTIFACT, "restore_kv", REPLAY_ALLOC,
                "restore_warmup", "restore_tail") + chunk_names + tuple(
                    restore_graph_stage(batch)
                    for batch in sorted(self.artifact.batches, reverse=True))

    def stage_actions(self, engine) -> Dict[str, object]:
        """The actions every Medusa plan binds its stages to.

        ``restore_kv`` replaces the profiling-based KV init and
        ``restore_warmup`` finishes the allocation replay (a no-op after
        ``replay_alloc``) and runs the warm-up window.  The monolithic
        plan then runs ``restore_tail`` (every graph, largest first); the
        pipelined and chunked plans run one ``restore_graph[bs]`` per batch
        size instead, the first of which builds the kernel address table
        and publishes ``engine.capture_artifacts``, so the instance serves
        as soon as its foreground stage ends.

        With a :class:`DegradationPolicy`, the monolithic actions catch
        restore faults and record ladder steps; ``restore_tail`` finishes
        by resolving the ladder (drop / recapture / eager capture) so the
        engine always leaves the cold start able to serve.
        """
        artifact = self.artifact
        process = engine.process
        clock = process.clock
        cm = engine.cost_model

        def fetch_artifact() -> float:
            start = clock.now
            clock.advance(cm.artifact_load_base)
            # The real I/O: decompress the replay columns + name table.
            artifact.replay_table().rows()
            artifact.kernel_name_table()
            return clock.now - start

        def restore_kv() -> float:
            start = clock.now
            try:
                self._restore_kv(engine)
            except _LADDER_ERRORS as exc:
                if self.policy is None:
                    raise
                base = clock.now - start
                self._degrade_kv(engine, exc)
                return base
            return clock.now - start

        def replay_alloc() -> float:
            start = clock.now
            self._replay_rest(engine)
            return clock.now - start

        def restore_warmup() -> float:
            if self._kv_broken:
                return 0.0
            start = clock.now
            try:
                self._replay_rest(engine)
                self._warm = self._warm_up(engine)
                self._warmup_ok = True
            except _LADDER_ERRORS as exc:
                if self.policy is None:
                    raise
                self.degradation.note_failure("warmup", exc)
                stream = process.default_stream
                if stream.is_capturing:
                    stream.end_capture()   # abandon the half-built capture
            return clock.now - start

        def restore_tail() -> float:
            start = clock.now
            if self.policy is None:
                if self._warm is None:
                    raise RestorationError(
                        "restore tail scheduled before the warm-up ran — "
                        "the plan must order medusa_warmup before "
                        "medusa_restore")
                self._restore_tail(engine, tolerate=False)
                return clock.now - start
            capture: Optional[CaptureArtifacts] = None
            poisoned: Set[int] = set()
            if self._warmup_ok:
                try:
                    capture, poisoned = self._restore_tail(engine,
                                                           tolerate=True)
                except _LADDER_ERRORS as exc:
                    self.degradation.note_failure("restore_tail", exc)
                    capture, poisoned = None, set(artifact.batches)
            base = clock.now - start
            poisoned |= self._verify_restored(engine, capture)
            self._resolve_ladder(engine, capture, poisoned)
            return base

        actions: Dict[str, object] = {
            FETCH_ARTIFACT: fetch_artifact,
            "restore_kv": restore_kv,
            REPLAY_ALLOC: replay_alloc,
            "restore_warmup": restore_warmup,
            "restore_tail": restore_tail,
        }
        manifest = getattr(artifact, "chunk_manifest", None)
        if manifest is not None:
            # Chunk-backed artifact: one fetch action per manifest chunk.
            # The simulated cost splits ``artifact_load_base`` by chunk
            # size (the whole stream still sums to one monolithic fetch);
            # the real I/O decompresses exactly this chunk into the
            # reader's cache.
            total_bytes = float(manifest.total_bytes) or 1.0
            for position, ref in enumerate(manifest.chunks):
                actions[fetch_chunk_stage(position)] = \
                    self._make_fetch_chunk(engine, ref, total_bytes)
        batches = sorted(artifact.batches, reverse=True)
        for position, batch_size in enumerate(batches):
            actions[restore_graph_stage(batch_size)] = \
                self._make_restore_graph(engine, batch_size,
                                         first=position == 0)
        return actions

    def _make_fetch_chunk(self, engine, ref, total_bytes: float):
        def fetch_chunk() -> float:
            clock = engine.process.clock
            start = clock.now
            clock.advance(engine.cost_model.artifact_load_base
                          * (ref.nbytes / total_bytes))
            self.artifact.reader.chunk(ref.name)
            return clock.now - start
        return fetch_chunk

    def _make_restore_graph(self, engine, batch_size: int, first: bool):
        def restore_graph() -> float:
            clock = engine.process.clock
            cm = engine.cost_model
            start = clock.now
            table = self._graph_table(batch_size)
            clock.advance(cm.artifact_deserialize_per_node * table.num_nodes)
            if first:
                if self._warm is None:
                    raise RestorationError(
                        "restore_graph scheduled before the warm-up ran — "
                        "the plan must order medusa_warmup before the first "
                        "restore_graph stage")
                self._capture = self._resolve_addresses(engine,
                                                        tolerate=False)[0]
                # Published before the background graphs restore: the
                # engine serves (by padding to this batch size) while the
                # rest finish behind the ready instant.
                engine.capture_artifacts = self._capture
            if self._capture is None:
                raise RestorationError(
                    "restore_graph for a non-first batch size ran before "
                    "the first one — the plan must chain them")
            self._install_graph(engine, self._capture, batch_size, table)
            clock.advance(cm.restore_fill_per_node * table.num_nodes)
            return clock.now - start
        return restore_graph

    # -- KV restore (§6) and the allocation replay (§4.2) -------------------

    def _restore_kv(self, engine) -> None:
        artifact = self.artifact
        process = engine.process
        process.clock.advance(engine.cost_model.kv_restore_time)
        self._verify_structure_prefix(engine)
        consumed = self._replay_until(
            process, stop_alloc_index=artifact.kv_alloc_index)
        process.clock.advance(
            engine.cost_model.alloc_replay_per_event * consumed)
        kv_buffer = self._buffer(artifact.kv_alloc_index)
        kv_buffer.write(np.zeros((PAYLOAD_DIM, PAYLOAD_DIM)))
        engine.kv_bytes = artifact.kv_bytes
        engine.kv_region = KVCacheRegion(
            buffer=kv_buffer,
            num_blocks=artifact.kv_num_blocks,
            block_bytes=engine.kv_config.block_bytes(engine.config),
            layer_stride=artifact.kv_layer_stride,
        )
        engine.block_manager = BlockManager(
            artifact.kv_num_blocks, engine.kv_config.block_size_tokens)

    def _degrade_kv(self, engine, exc: BaseException) -> None:
        """Ladder mode: the replay broke before the KV region — re-profile."""
        clock = engine.process.clock
        self.degradation.note_failure("kv_restore", exc)
        self._kv_broken = True
        fallback_start = clock.now
        # The aborted replay leaked whatever it had allocated so far
        # (possibly the near-full KV region): release it and collapse the
        # allocator's high-water mark, or the re-profiling below sees a
        # peak it cannot size under.
        self._rollback_replay(engine.process)
        engine.adopt_kv_bytes(engine.profile_available_kv_bytes())
        self.degradation.record(LadderStep(
            rung=Rung.EAGER, stage=DEGRADE_KV_PROFILE,
            reason="allocation replay broke before the KV region; "
                   "re-profiled KV sizing eagerly",
            duration=clock.now - fallback_start))

    def _verify_structure_prefix(self, engine) -> None:
        """Check the deterministic-control-flow assumption (§2.5) holds."""
        history = engine.process.allocator.history
        expected = self.artifact.structure_prefix
        if len(history) < len(expected):
            raise RestorationError(
                f"online process made {len(history)} allocations before "
                f"restore; artifact expects a {len(expected)}-allocation "
                f"structure-init prefix")
        for position, (size, tag) in enumerate(expected):
            buffer = history[position]
            if (buffer.size, buffer.tag) != (size, tag):
                raise RestorationError(
                    f"allocation {position} diverged from the offline run: "
                    f"got ({buffer.size}, {buffer.tag!r}), artifact has "
                    f"({size}, {tag!r}) — control flow is not deterministic")
            self._buffers[buffer.alloc_index] = buffer

    def _replay_rest(self, engine) -> None:
        """Replay every remaining event, then build the lookup tables."""
        consumed = self._replay_until(engine.process, stop_alloc_index=None)
        engine.process.clock.advance(
            engine.cost_model.alloc_replay_per_event * consumed)
        if self._addr_by_alloc is None:
            self._build_alloc_tables()

    def _replay_until(self, process, stop_alloc_index: Optional[int]) -> int:
        """Replay recorded events from plain-tuple rows (no event objects).

        With an active injector each row first passes its hook, which may
        raise (REPLAY_OOM) or shift the allocation index
        (REPLAY_DIVERGENCE).
        """
        replay = self.artifact.replay_table()
        rows = replay.rows()
        buffers = self._buffers
        injector = self.injector
        cursor = self._replay_cursor
        consumed = 0
        total = len(rows)
        while cursor < total:
            kind, alloc_index, size, pooled, tag, pool = rows[cursor]
            if injector is not None:
                alloc_index = injector.on_replay_event(
                    cursor, replay.event(cursor)).alloc_index
            cursor += 1
            consumed += 1
            if kind == 0:            # alloc
                buffer = process.malloc(size, tag=tag, pool=pool)
                self._replay_allocated.append(buffer)
                if buffer.alloc_index != alloc_index:
                    raise RestorationError(
                        f"replay drift: allocation came back as index "
                        f"{buffer.alloc_index}, artifact expects "
                        f"{alloc_index}")
                buffers[alloc_index] = buffer
                if stop_alloc_index is not None \
                        and alloc_index == stop_alloc_index:
                    break
            elif kind == 1:          # free
                buffer = self._buffer(alloc_index)
                if pooled:
                    process.pool_free(buffer.address)
                else:
                    process.free(buffer.address)
            else:                    # empty_cache
                process.empty_cache()
        self._replay_cursor = cursor
        return consumed

    def _rollback_replay(self, process) -> None:
        """Undo an aborted allocation replay before degrading to profiling.

        Frees every buffer the replay allocated that is still live, flushes
        the caching allocator's free lists, and resets the peak watermark —
        the fallback ``profile_available_kv_bytes`` sizes against
        ``peak_bytes``, which must reflect the post-rollback state, not the
        replay's leak.  Structure-init allocations predate the replay and
        stay untouched.
        """
        allocator = process.allocator
        for buffer in reversed(self._replay_allocated):
            if allocator.is_live(buffer.address):
                process.free(buffer.address)
        process.empty_cache()
        allocator.reset_peak()
        self._replay_allocated.clear()

    def _buffer(self, alloc_index: int) -> Buffer:
        buffer = self._buffers.get(alloc_index)
        if buffer is None:
            raise RestorationError(
                f"indirect index {alloc_index} points outside the replayed "
                f"allocation sequence")
        return buffer

    def _build_alloc_tables(self) -> None:
        """Dense alloc-index -> (base address, size) lookup tables.

        Freed buffers keep their entries (pointers into them restore the
        recorded base), and never-allocated indices translate to -1,
        caught by the gather's bounds check.
        """
        buffers = self._buffers
        limit = max(buffers) + 1 if buffers else 0
        addresses = np.full(limit, -1, dtype=np.int64)
        sizes = np.zeros(limit, dtype=np.int64)
        for alloc_index, buffer in buffers.items():
            addresses[alloc_index] = buffer.address
            sizes[alloc_index] = buffer.size
        self._addr_by_alloc = addresses
        self._size_by_alloc = sizes

    # -- warm-up window: permanent dumps (§4.3) and triggering (§5) ---------

    def _warm_up(self, engine) -> Tuple[Buffer, Buffer, CudaGraph]:
        """Restore permanent contents, warm up + capture the first layer."""
        artifact = self.artifact
        self._restore_permanent_contents()
        graph_input = self._buffer(artifact.graph_input_alloc_index)
        graph_output = self._buffer(artifact.graph_output_alloc_index)
        zeros = np.zeros((PAYLOAD_DIM, PAYLOAD_DIM))
        graph_input.write(zeros)
        graph_output.write(zeros)
        batch_order = sorted(artifact.batches, reverse=True)
        for batch_size in batch_order:
            self._launch_first_layer(engine, batch_size)
        self._run_trigger_plans(engine)
        first_layer_graph = self._capture_first_layer(engine, batch_order[0])
        return graph_input, graph_output, first_layer_graph

    def _restore_permanent_contents(self) -> None:
        artifact = self.artifact
        for alloc_index in sorted(artifact.permanent_contents):
            expected = artifact.permanent_payload(alloc_index)
            payload = expected if self.injector is None else \
                self.injector.permanent_payload(alloc_index, expected)
            buffer = self._buffer(alloc_index)
            buffer.write(payload)
            if self._verify_dumps \
                    and not np.array_equal(buffer.read(), expected):
                raise RestorationError(
                    f"permanent dump readback mismatch at alloc "
                    f"{alloc_index} — the stored dump is corrupt (§4.3)")

    def _check_trigger(self, engine, kernel_name: str) -> None:
        """Watchdog on a triggering-kernel launch (fault-injection site).

        A wedged trigger launch charges its full watchdog budget to the
        clock and raises, instead of hanging the warm-up window forever.
        """
        if self.injector is None \
                or not self.injector.trigger_times_out(kernel_name):
            return
        budget = engine.cost_model.trigger_timeout_seconds
        engine.process.clock.advance(budget)
        raise TriggerTimeoutError(
            f"triggering kernel {kernel_name} exceeded its {budget}s "
            f"watchdog budget during warm-up")

    def _first_layer_plan(self, engine, batch_size: int):
        """The prologue + first-layer launches as (name, spec, params, dims)."""
        artifact = self.artifact
        # A chunk-backed artifact serves just the head chunk here, so the
        # warm-up never forces a tail decompress.
        table = self._tables.get(batch_size) \
            or artifact.first_layer_table(batch_size)
        count = min(artifact.first_layer_nodes, table.num_nodes)
        stop = int(table.param_offsets[count])
        resolved = self._resolved_values(table, stop=stop)
        names = table.kernel_names
        kernel_ids = table.kernel_ids[:count].tolist()
        offsets = table.param_offsets[:count + 1].tolist()
        dims = table.batch_dims[:count].tolist()
        plan = []
        for position, kernel_id in enumerate(kernel_ids):
            name = names[kernel_id]
            params = PackedParams(table.param_sizes, resolved,
                                  offsets[position], offsets[position + 1])
            plan.append((name, engine.catalog.kernel(name), params,
                         {"batch_size": dims[position]}))
        return plan

    def _launch_first_layer(self, engine, batch_size: int) -> None:
        """Warm up the prologue + first layer eagerly (restored params)."""
        process = engine.process
        plan = self._first_layer_plan(engine, batch_size)
        for name, spec, params, launch_dims in plan:
            self._check_trigger(engine, name)
            process.launch(spec, params, launch_dims=launch_dims,
                           preset_magic=True)
        cm = engine.cost_model
        layer_gpu = (cm.forward_gpu_time(engine.config.param_bytes,
                                         batch_size)
                     / max(1, engine.config.num_layers))
        process.clock.advance(layer_gpu + len(plan) * cm.launch_gap)

    def _run_trigger_plans(self, engine) -> None:
        """Handwritten trigger launches for modules the first layer misses."""
        for plan in self.artifact.trigger_plans:
            self._check_trigger(engine, plan.kernel_name)
            batch_size, node_index = plan.node_ref
            table = self._graph_table(batch_size)
            start = int(table.param_offsets[node_index])
            end = int(table.param_offsets[node_index + 1])
            resolved = self._resolved_values(table, start=start, stop=end)
            params = PackedParams(table.param_sizes[start:end], resolved,
                                  0, end - start)
            engine.process.launch(
                engine.catalog.kernel(plan.kernel_name), params,
                launch_dims={"batch_size": int(table.batch_dims[node_index])},
                preset_magic=True)
            engine.process.clock.advance(engine.cost_model.launch_gap)

    def _capture_first_layer(self, engine, batch_size: int) -> CudaGraph:
        """Capture the warmed-up first layer; its nodes expose addresses."""
        process = engine.process
        stream = process.default_stream
        plan = self._first_layer_plan(engine, batch_size)
        stream.begin_capture(GraphExecMeta(
            param_bytes=0, num_tokens=batch_size, batch_size=batch_size))
        for _name, spec, params, launch_dims in plan:
            process.launch(spec, params, launch_dims=launch_dims,
                           preset_magic=True)
        return stream.end_capture()

    # -- graph restore: addresses (§5), the gather (§4.2), assembly ---------

    def _graph_table(self, batch_size: int) -> GraphTable:
        table = self._tables.get(batch_size)
        return table if table is not None \
            else self.artifact.graph_table(batch_size)

    def _resolve_addresses(self, engine, tolerate: bool
                           ) -> Tuple[CaptureArtifacts, set]:
        """Build the kernel address table; open the capture artifacts.

        Returns ``(capture artifacts, unresolved kernel names)``; with
        ``tolerate`` the unresolved names are a ladder failure, not an
        error.
        """
        artifact = self.artifact
        graph_input, graph_output, first_layer_graph = self._warm
        unresolved = resolve_kernel_addresses(
            engine, first_layer_graph, artifact.kernel_name_table(),
            artifact.kernel_libraries, self._name_to_address,
            tolerate=tolerate)
        if unresolved:
            self.degradation.note_failure(
                "address_table",
                RestorationError(f"unresolved kernel address(es): "
                                 f"{sorted(unresolved)}"))
        capture = CaptureArtifacts(
            graph_input=graph_input,
            graph_output=graph_output,
            capture_marker=artifact.capture_marker,
        )
        return capture, unresolved

    def _restore_tail(self, engine, tolerate: bool
                      ) -> Tuple[CaptureArtifacts, set]:
        """The monolithic tail: address table, then every graph.

        With ``tolerate`` (ladder mode) unresolvable kernels and per-graph
        assembly failures poison only the batch sizes they touch; every
        other graph restores normally.  Returns ``(capture artifacts,
        poisoned batch sizes)``.
        """
        artifact = self.artifact
        cm = engine.cost_model
        clock = engine.process.clock
        clock.advance(cm.artifact_load_base
                      + cm.artifact_deserialize_per_node * artifact.total_nodes)
        capture, unresolved = self._resolve_addresses(engine, tolerate)
        poisoned: Set[int] = set()
        for batch_size in sorted(artifact.batches, reverse=True):
            table = self._graph_table(batch_size)
            if unresolved & set(table.node_kernel_names()):
                poisoned.add(batch_size)
                continue
            try:
                self._install_graph(engine, capture, batch_size, table)
            except _LADDER_ERRORS as exc:
                if not tolerate:
                    raise
                self.degradation.note_failure(
                    f"assemble batch {batch_size}", exc)
                capture.graphs.pop(batch_size, None)
                capture.execs.pop(batch_size, None)
                poisoned.add(batch_size)
        clock.advance(cm.restore_fill_per_node * artifact.total_nodes)
        engine.capture_artifacts = capture
        return capture, poisoned

    def _install_graph(self, engine, capture: CaptureArtifacts,
                       batch_size: int, table: GraphTable) -> None:
        graph = self._assemble_graph(table)
        capture.graphs[batch_size] = graph
        capture.execs[batch_size] = graph.instantiate(engine.process)

    def _resolved_values(self, table: GraphTable, start: int = 0,
                         stop: Optional[int] = None) -> np.ndarray:
        """Translate one graph's param slots ``[start:stop]`` in one gather.

        Returns an int64 copy of those ``param_values`` with every pointer
        slot rewritten to ``fresh base address + byte offset``; an unknown
        allocation index or an offset past the buffer end raises.
        """
        if self._addr_by_alloc is None or self._size_by_alloc is None:
            raise RestorationError(
                "pointer substitution before the allocation replay — the "
                "plan must order replay_alloc before graph restoration")
        end = int(table.param_offsets[-1]) if stop is None else stop
        values = table.param_values[start:end].astype(np.int64, copy=True)
        pointer_mask = table.param_kinds[start:end] == POINTER_CODE
        if not pointer_mask.any():
            return values
        alloc_indices = values[pointer_mask]
        offsets = table.param_byte_offsets[start:end][pointer_mask]
        known = self._addr_by_alloc.shape[0]
        bad = (alloc_indices < 0) | (alloc_indices >= known)
        if not bad.any():
            bases = self._addr_by_alloc[alloc_indices]
            bad = bases < 0
        if bad.any():
            raise RestorationError(
                f"indirect index {int(alloc_indices[bad][0])} points "
                f"outside the replayed allocation sequence")
        limits = self._size_by_alloc[alloc_indices]
        over = offsets >= limits
        if over.any():
            raise RestorationError(
                f"offset {int(offsets[over][0])} exceeds replayed buffer "
                f"size {int(limits[over][0])} "
                f"(alloc {int(alloc_indices[over][0])})")
        values[pointer_mask] = bases + offsets
        return values

    def _assemble_graph(self, table: GraphTable) -> CudaGraph:
        """Build one restored graph around the gathered parameter arrays."""
        resolved = self._resolved_values(table)
        name_table = self._name_to_address
        addresses = []
        for name in table.node_kernel_names():
            address = name_table.get(name)
            if address is None:
                raise RestorationError(
                    f"no restored address for kernel {name}")
            addresses.append(address)
        offsets = table.param_offsets.tolist()
        dims = table.batch_dims.tolist()
        sizes = table.param_sizes
        nodes = [
            CudaGraphNode(
                kernel_address=addresses[index],
                params=PackedParams(sizes, resolved,
                                    offsets[index], offsets[index + 1]),
                launch_dims={"batch_size": dims[index]},
            )
            for index in range(table.num_nodes)
        ]
        return CudaGraph(
            nodes=nodes,
            edges={tuple(edge) for edge in table.edges.tolist()},
            exec_meta=GraphExecMeta(
                param_bytes=table.param_bytes,
                num_tokens=table.num_tokens,
                batch_size=table.batch_size,
            ),
        )

    # -- the degradation ladder (policy set) --------------------------------

    def _verify_restored(self, engine,
                         artifacts: Optional[CaptureArtifacts]) -> set:
        """Output-oracle verification of every restored graph (§4).

        Replays each restored graph against an eager forwarding over
        identical inputs and KV state; mismatching batch sizes are poisoned
        and dropped.  COMPUTE mode only (the oracle is a real forwarding);
        recorded as its own ``restore_verify`` timeline stage.
        """
        if (not self._verify_outputs
                or engine.process.mode is not ExecutionMode.COMPUTE
                or artifacts is None or not artifacts.execs
                or engine.kv_region is None):
            return set()
        clock = engine.process.clock
        start = clock.now
        ctx = artifacts.context(engine.kv_region)
        bad: set = set()
        batches = sorted(artifacts.execs)
        # Settle one-time eager-path state (workspace setup) first, so the
        # reference forwarding and the replay see identical process state.
        ctx.input_buffer.write(_verify_input(batches[0]))
        engine.model.forward(batches[0], batches[0], ctx)
        for batch_size in batches:
            ctx.input_buffer.write(_verify_input(batch_size))
            engine.reset_kv_state()
            snapshot = engine.process.snapshot_payloads()
            engine.model.forward(batch_size, batch_size, ctx)
            expected = ctx.output_buffer.read().copy()
            engine.process.restore_payloads(snapshot)
            artifacts.execs[batch_size].replay()
            if not np.array_equal(ctx.output_buffer.read(), expected):
                bad.add(batch_size)
        for batch_size in bad:
            artifacts.graphs.pop(batch_size, None)
            artifacts.execs.pop(batch_size, None)
            self.degradation.note_failure(
                f"verify batch {batch_size}",
                RestorationError("restored graph output diverged from the "
                                 "eager oracle"))
        self.degradation.record(LadderStep(
            rung=Rung.FULL, stage=RESTORE_VERIFY,
            reason=f"output verification over batches {batches}",
            batches=tuple(sorted(bad)),
            duration=clock.now - start))
        return bad

    def _resolve_ladder(self, engine,
                        artifacts: Optional[CaptureArtifacts],
                        poisoned: set) -> None:
        """Walk the ladder until the engine can serve every batch size."""
        policy = self.policy
        clock = engine.process.clock
        all_batches = set(self.artifact.batches)
        if self._kv_broken:
            # No trustworthy replay at all: vanilla eager capture on the
            # re-profiled KV region (the bottom rung).
            start = clock.now
            engine.capture_artifacts = run_capture_stage(
                engine.process, engine.model, engine.kv_region)
            self.degradation.record(LadderStep(
                rung=Rung.EAGER, stage=DEGRADE_EAGER,
                reason="replay broken before the KV region; captured all "
                       "graphs eagerly",
                batches=tuple(sorted(all_batches)),
                duration=clock.now - start))
            return
        if self._warmup_ok and artifacts is not None and not poisoned:
            return   # full restore — stay on the top rung
        survivors = set(artifacts.execs) if artifacts is not None else set()
        missing = sorted(all_batches - survivors)
        if survivors and policy.allow_partial:
            self.degradation.record(LadderStep(
                rung=Rung.PARTIAL, stage=DEGRADE_PARTIAL,
                reason="dropped poisoned graphs; their batch sizes serve "
                       "through padding to a surviving graph",
                batches=tuple(missing)))
            return
        if policy.allow_recapture:
            start = clock.now
            if artifacts is None:
                artifacts = prepare_capture_stage(engine.process,
                                                  engine.model)
                engine.capture_artifacts = artifacts
            for batch_size in sorted(missing, reverse=True):
                capture_one(engine.process, engine.model, artifacts,
                            engine.kv_region, batch_size)
            self.degradation.record(LadderStep(
                rung=Rung.RECAPTURE, stage=DEGRADE_RECAPTURE,
                reason="re-captured poisoned graphs live (restored KV "
                       "region kept)",
                batches=tuple(missing),
                duration=clock.now - start))
            return
        start = clock.now
        engine.capture_artifacts = run_capture_stage(
            engine.process, engine.model, engine.kv_region)
        self.degradation.record(LadderStep(
            rung=Rung.EAGER, stage=DEGRADE_EAGER,
            reason="degradation policy forbids partial/recapture; captured "
                   "all graphs eagerly",
            batches=tuple(sorted(all_batches)),
            duration=clock.now - start))


def _verify_input(batch_size: int) -> np.ndarray:
    """Deterministic oracle input for restore-time output verification."""
    base = np.arange(PAYLOAD_DIM, dtype=np.float64)
    grid = np.outer(base + batch_size, np.ones(PAYLOAD_DIM))
    return grid / PAYLOAD_DIM
