"""The online restore (paper §4.2, §4.3, §5, §6): one vectorized restorer.

:class:`VectorizedRestorer` restores one materialized model into a fresh
process, reading the artifact as packed numpy arrays
(:class:`repro.core.binfmt.LazyArtifact`, what the offline phase emits
and a binary file or a store opens as), so every input kind runs the
same code:

- **KV restore (§6)** — verifies the engine's structure-init allocation
  prefix (the deterministic-control-flow assumption, checked rather than
  assumed), replays the recorded (de)allocations up to the KV region, and
  adopts the materialized block count — no profiling forwarding.
- **Allocation replay (§4.2)** — the rest of the recorded sequence, as
  one allocator call over the packed replay columns
  (:meth:`repro.simgpu.memory.DeviceAllocator.replay`), which returns the
  two dense ``alloc_index -> (base address, size)`` lookup tables.
- **Warm-up (§4.3, §5.1, §5.2)** — restores the permanent buffer contents,
  then warms up and captures only the *first layer* per batch size: its
  kernels are the triggering-kernels that load every hidden module, plus
  any handwritten trigger plans for modules the first layer misses.
- **Graph restore (§4.2, §5)** — resolves every kernel name to this
  process's address (first-layer graph nodes → dlsym →
  cuModuleEnumerateFunctions) and substitutes pointers in one gather per
  graph: the flat ``param_values`` column is copied once and its pointer
  slots become ``fresh base + byte offset``, with the bounds checks as
  vector comparisons.  A restored graph is those columns
  (:class:`repro.simgpu.graph.GraphColumns`) around the gathered array;
  no per-node object is built.

The restorer binds the actions of all three Medusa plans; which one runs is
picked from the input alone by
:func:`repro.core.online.prepare_medusa_cold_start`:

================================== ===================== ==================
input                              plan                  restore actions
================================== ===================== ==================
in-memory artifact                 ``medusa``            ``restore_kv``,
                                                         ``restore_warmup``,
                                                         ``restore_tail``
artifact file                      ``medusa-pipelined``  ``fetch_artifact``,
                                                         ``replay_alloc``,
                                                         ``restore_graph[bs]``
store artifact                     ``medusa-chunked``    ``fetch_chunk[i]``,
                                                         ``replay_alloc``,
                                                         ``restore_graph[bs]``
================================== ===================== ==================

With a :class:`~repro.faults.FaultInjector` in scope
(``repro.faults.injecting``) its faults fire at the array sites (one
graph's corrupted ``param_byte_offsets`` copy, a replay table with
shifted allocation indices, a replay range cut short by an OOM,
permanent-dump bit-flips, trigger timeouts in the warm-up); with a
:class:`~repro.faults.DegradationPolicy` restore failures walk the
degradation ladder (partial → recapture → eager) instead of propagating,
on every plan (see :meth:`VectorizedRestorer.stage_actions`).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.binfmt import POINTER_CODE, GraphTable, ReplayTable
from repro.engine.capture_runner import (
    CaptureArtifacts,
    capture_one,
    prepare_capture_stage,
    run_capture_stage,
)
from repro.engine.kvcache import KVCacheRegion
from repro.engine.loadplan import RESTORER_STAGE_ACTIONS, \
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
from repro.faultscope import active_injector
from repro.simgpu.graph import CudaGraph, GraphColumns, GraphExecMeta
from repro.simgpu.kernels import PAYLOAD_DIM, KernelParam
from repro.simgpu.memory import Buffer, Replayed
from repro.simgpu.process import ExecutionMode

#: What the degradation ladder may catch and recover from: Medusa-level
#: restore failures and realistic driver/runtime errors.  Engine-level
#: errors (mis-wired plans, exhausted KV budgets) still propagate.
_LADDER_ERRORS = (MaterializationError, CudaError)


# ---------------------------------------------------------------------------
# Kernel address resolution (§5)
# ---------------------------------------------------------------------------

def resolve_kernel_addresses(engine, first_layer_graph: CudaGraph,
                             needed_names, kernel_libraries: Dict[str, str],
                             table: Dict[str, int],
                             tolerate: bool = False) -> set:
    """Resolve materialized kernel names to this process's addresses (§5).

    Fills ``table`` in place from three sources, in order: the captured
    first-layer graph's kernel addresses (fresh ones), ``dlsym`` ->
    ``cudaGetFuncBySymbol`` for visible kernels, and
    ``cuModuleEnumerateFunctions`` over already-loaded modules for the
    hidden remainder (their modules were loaded by the triggering kernels).
    With ``tolerate=True`` unresolvable kernels are collected and returned
    instead of raising (the degradation ladder poisons only the graphs
    referencing them); strict mode always returns an empty set.
    """
    driver = engine.process.driver
    cm = engine.cost_model
    for address in first_layer_graph.columns.kernel_addresses.tolist():
        table[driver.cu_func_get_name(address)] = address
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

    ``artifact``: a :class:`~repro.core.binfmt.LazyArtifact` (in memory,
    or chunk-backed, from a file or a store).
    ``policy``: optional :class:`repro.faults.DegradationPolicy`.  When set,
    restore failures walk the degradation ladder instead of killing the
    cold start; when ``None`` every failure propagates.  Its
    ``verify_dumps`` turns on the permanent-dump readback check (on by
    itself whenever a fault plan is in scope).

    A restorer built inside ``with repro.faults.injecting(fi):`` fires
    ``fi``'s faults at its injection sites (chaos testing).
    """

    def __init__(self, artifact,
                 policy: Optional[DegradationPolicy] = None):
        injector = active_injector()
        active = injector is not None
        #: batch -> the graph table the restore reads when it is not the
        #: artifact's own (a fault-corrupted copy).
        self._tables: Dict[int, GraphTable] = {}
        #: the replay table when it is not the artifact's own (a copy
        #: with REPLAY_DIVERGENCE rows shifted).
        self._replay_table: Optional[ReplayTable] = None
        if active:
            injector.prepare(artifact)
            self._tables = injector.corrupted_tables(artifact)
            self._replay_table = injector.diverged_replay(artifact)
        self.artifact = artifact
        self.injector = injector
        self.policy = policy
        self.degradation = DegradationReport()
        self._verify_dumps = policy is not None and (
            policy.verify_dumps if policy.verify_dumps is not None
            else active)
        self._verify_outputs = policy is not None and (
            policy.verify_outputs if policy.verify_outputs is not None
            else active)
        #: replay progress: next row, first replayed alloc index, and
        #: the alloc indices the replay has made known so far
        self._replay_cursor = 0
        self._replay_first: Optional[int] = None
        self._known = 0
        self._replayed: Optional[Replayed] = None
        self._name_to_address: Dict[str, int] = {}
        self._addr_by_alloc: Optional[np.ndarray] = None
        self._size_by_alloc: Optional[np.ndarray] = None
        self._capture: Optional[CaptureArtifacts] = None
        self._warm: Optional[Tuple[Buffer, Buffer, CudaGraph]] = None
        #: ladder state: where the restore broke, and the batch sizes
        #: whose graphs did not restore
        self._kv_broken = False
        self._warm_broken = False
        self._poisoned: Set[int] = set()

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
        return RESTORER_STAGE_ACTIONS + chunk_names + tuple(
            restore_graph_stage(batch)
            for batch in sorted(self.artifact.batches, reverse=True))

    def stage_actions(self, engine) -> Dict[str, object]:
        """The actions every Medusa plan binds its stages to.

        ``restore_kv`` replaces the profiling-based KV init and
        ``restore_warmup`` finishes the allocation replay (a no-op after
        ``replay_alloc``) and runs the warm-up window.  The monolithic
        plan then runs ``restore_tail`` (every graph, largest first); the
        pipelined and chunked plans run one ``restore_graph[bs]`` per batch
        size instead.  Both restore each graph through
        :meth:`_restore_graph`, whose first call builds the kernel address
        table and publishes ``engine.capture_artifacts``, so a pipelined
        instance serves as soon as its foreground stage ends.

        With a :class:`DegradationPolicy` every action records restore
        faults instead of raising; the last graph action in execution
        order (``restore_tail``, or the smallest batch's
        ``restore_graph``) then verifies the graphs and resolves the
        ladder, so the engine always leaves the cold start able to serve.
        """
        artifact = self.artifact
        clock = engine.process.clock
        cm = engine.cost_model

        def fetch_artifact() -> float:
            start = clock.now
            clock.advance(cm.artifact_load_base)
            # The real I/O: decompress the replay columns + name table.
            artifact.replay_table()
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
            self._warm_step(engine, warm_up=False)
            return clock.now - start

        def restore_warmup() -> float:
            start = clock.now
            self._warm_step(engine, warm_up=True)
            return clock.now - start

        # The monolithic tail also pays the artifact load.
        restore_tail = self._make_restore_graphs(
            engine, sorted(artifact.batches, reverse=True),
            cm.artifact_load_base, last=True)
        actions: Dict[str, object] = dict(zip(
            RESTORER_STAGE_ACTIONS,
            (fetch_artifact, restore_kv, replay_alloc, restore_warmup,
             restore_tail), strict=True))
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
        smallest = min(artifact.batches)
        for batch_size in artifact.batches:
            actions[restore_graph_stage(batch_size)] = \
                self._make_restore_graphs(engine, [batch_size], 0.0,
                                          last=batch_size == smallest)
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

    def _make_restore_graphs(self, engine, batches, load_base: float,
                             last: bool):
        """A graph action: restore ``batches`` in order, one graph at a
        time; the ``last`` graph action also finishes the ladder."""
        def restore_graphs() -> float:
            clock = engine.process.clock
            cm = engine.cost_model
            start = clock.now
            if self._graphs_restorable():
                tables = [self._graph_table(batch) for batch in batches]
                nodes = sum(table.num_nodes for table in tables)
                clock.advance(load_base
                              + cm.artifact_deserialize_per_node * nodes)
                for batch_size, table in zip(batches, tables):
                    self._restore_graph(engine, batch_size, table)
                clock.advance(cm.restore_fill_per_node * nodes)
            base = clock.now - start
            if last:
                self._finish_ladder(engine)
            return base
        return restore_graphs

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
        kv_buffer = self._buffer(process, artifact.kv_alloc_index)
        kv_buffer.write(np.zeros((PAYLOAD_DIM, PAYLOAD_DIM)))
        block_bytes = engine.kv_config.block_bytes(engine.config)
        if artifact.kv_num_blocks * block_bytes > kv_buffer.size:
            raise RestorationError(
                f"artifact's {artifact.kv_num_blocks} KV blocks of "
                f"{block_bytes} bytes overflow the restored "
                f"{kv_buffer.size}-byte KV buffer")
        engine.kv_bytes = artifact.kv_bytes
        engine.kv_region = KVCacheRegion(
            buffer=kv_buffer,
            num_blocks=artifact.kv_num_blocks,
            block_bytes=block_bytes,
            layer_stride=artifact.kv_layer_stride,
        )

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
        allocator = engine.process.allocator
        expected = self.artifact.structure_prefix
        made = allocator.num_allocations
        if made < len(expected):
            raise RestorationError(
                f"online process made {made} allocations before "
                f"restore; artifact expects a {len(expected)}-allocation "
                f"structure-init prefix")
        for position, (size, tag) in enumerate(expected):
            buffer = allocator.buffer_by_alloc_index(position)
            if (buffer.size, buffer.tag) != (size, tag):
                raise RestorationError(
                    f"allocation {position} diverged from the offline run: "
                    f"got ({buffer.size}, {buffer.tag!r}), artifact has "
                    f"({size}, {tag!r}) — control flow is not deterministic")

    def _replay_rest(self, engine) -> None:
        """Replay every remaining row; the first call publishes the
        alloc-index lookup tables.

        Freed buffers keep their entries (pointers into them restore the
        recorded base); an index past the tables is caught by the
        gather's bounds check.
        """
        consumed = self._replay_until(engine.process, stop_alloc_index=None)
        engine.process.clock.advance(
            engine.cost_model.alloc_replay_per_event * consumed)
        if self._addr_by_alloc is None:
            self._addr_by_alloc = self._replayed.addresses
            self._size_by_alloc = self._replayed.sizes

    def _replay_until(self, process, stop_alloc_index: Optional[int]) -> int:
        """Replay the recorded rows from the cursor in one allocator call;
        returns how many it replayed.

        With an active injector, a REPLAY_OOM row ends the range and fails
        once the replay reaches it, and REPLAY_DIVERGENCE rows replay from
        the injector's shifted copy of the table.
        """
        table = self._replay_table or self.artifact.replay_table()
        start = self._replay_cursor
        injector = self.injector
        oom = None if injector is None else injector.replay_oom(start,
                                                                len(table))
        if self._replay_first is None:
            self._replay_first = process.allocator.num_allocations
        end = start
        try:
            replayed = process.replay(table, start, oom, stop_alloc_index)
            end = replayed.end
        except _LADDER_ERRORS as exc:
            end = getattr(exc, "replay_row", start - 1) + 1
            raise
        finally:
            if injector is not None:
                injector.replay_reached(self.artifact.replay_table(), start,
                                        end)
        if oom == end and not replayed.stopped:
            injector.fail_replay(oom)
        self._replay_cursor = end
        self._replayed = replayed
        self._known = process.allocator.num_allocations
        return end - start

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
        first = self._replay_first
        if first is not None:
            held = [buffer for buffer in allocator.live_buffers
                    if buffer.alloc_index >= first
                    and allocator.is_live(buffer.address)]
            for buffer in sorted(held, reverse=True,
                                 key=lambda buffer: buffer.alloc_index):
                process.free(buffer.address)
        process.empty_cache()
        allocator.reset_peak()
        self._replay_first = None

    def _warm_step(self, engine, warm_up: bool) -> None:
        """Finish the allocation replay and, with ``warm_up``, run the
        warm-up window; under a policy, skipped once either broke."""
        if self._kv_broken or self._warm_broken:
            return
        try:
            self._replay_rest(engine)
            if warm_up:
                self._warm = self._warm_up(engine)
        except _LADDER_ERRORS as exc:
            if self.policy is None:
                raise
            self._warm_broken = True
            self.degradation.note_failure("warmup", exc)
            stream = engine.process.default_stream
            if stream.is_capturing:
                stream.end_capture()   # abandon the half-built capture

    def _buffer(self, process, alloc_index: int) -> Buffer:
        if not 0 <= alloc_index < self._known:
            raise RestorationError(
                f"indirect index {alloc_index} points outside the replayed "
                f"allocation sequence")
        return process.allocator.buffer_by_alloc_index(alloc_index)

    # -- warm-up window: permanent dumps (§4.3) and triggering (§5) ---------

    def _warm_up(self, engine) -> Tuple[Buffer, Buffer, CudaGraph]:
        """Restore permanent contents, warm up + capture the first layer."""
        artifact = self.artifact
        process = engine.process
        self._restore_permanent_contents(process)
        graph_input = self._buffer(process, artifact.graph_input_alloc_index)
        graph_output = self._buffer(process,
                                    artifact.graph_output_alloc_index)
        zeros = np.zeros((PAYLOAD_DIM, PAYLOAD_DIM))
        graph_input.write(zeros)
        graph_output.write(zeros)
        batch_order = sorted(artifact.batches, reverse=True)
        for batch_size in batch_order:
            self._launch_first_layer(engine, batch_size)
        self._run_trigger_plans(engine)
        first_layer_graph = self._capture_first_layer(engine, batch_order[0])
        return graph_input, graph_output, first_layer_graph

    def _restore_permanent_contents(self, process) -> None:
        artifact = self.artifact
        for alloc_index in sorted(artifact.permanent_contents):
            expected = artifact.permanent_payload(alloc_index)
            payload = expected if self.injector is None else \
                self.injector.permanent_payload(alloc_index, expected)
            buffer = self._buffer(process, alloc_index)
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
        count = max(0, min(artifact.first_layer_nodes, table.num_nodes))
        stop = int(table.param_offsets[count])
        sizes = table.param_sizes[:stop].tolist()
        values = self._resolved_values(table, stop=stop).tolist()
        names = table.kernel_names
        kernel_ids = table.kernel_ids[:count].tolist()
        offsets = table.param_offsets[:count + 1].tolist()
        dims = table.batch_dims[:count].tolist()
        plan = []
        for position, kernel_id in enumerate(kernel_ids):
            name = names[kernel_id]
            start, end = offsets[position], offsets[position + 1]
            params = list(map(KernelParam, sizes[start:end],
                              values[start:end]))
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
        artifact = self.artifact
        for position, plan in enumerate(artifact.trigger_plans):
            self._check_trigger(engine, plan.kernel_name)
            batch_size, node_index = plan.node_ref
            table = self._graph_table(batch_size) \
                if batch_size in artifact.batches else None
            if table is None or not 0 <= node_index < table.num_nodes:
                raise RestorationError(
                    f"trigger_plans[{position}] launches "
                    f"{plan.kernel_name} with the parameters of node "
                    f"({batch_size}, {node_index}), which the artifact "
                    f"does not contain")
            start = int(table.param_offsets[node_index])
            end = int(table.param_offsets[node_index + 1])
            params = list(map(
                KernelParam, table.param_sizes[start:end].tolist(),
                self._resolved_values(table, start=start, stop=end).tolist()))
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

    def _graphs_restorable(self) -> bool:
        """Whether a warm-up ran; under a policy, if not, every batch size
        is poisoned (without one the plan is mis-ordered)."""
        if self._warm is not None:
            return True
        if self.policy is None:
            raise RestorationError(
                "graph restore scheduled before the warm-up ran — the plan "
                "must order restore_warmup before every graph stage")
        self._poisoned.update(self.artifact.batches)
        return False

    def _restore_graph(self, engine, batch_size: int,
                       table: GraphTable) -> None:
        """Install one graph; the first call builds the kernel address
        table and publishes ``engine.capture_artifacts``.

        Under a policy a failed install, such as one of a graph that
        launches an unresolved kernel, poisons only this batch size; a
        table that cannot be built poisons every one.
        """
        if batch_size in self._poisoned:
            return
        try:
            if self._capture is None:
                self._capture = self._resolve_addresses(engine)
                engine.capture_artifacts = self._capture
            graph = self._assemble_graph(table)
            self._capture.graphs[batch_size] = graph
            self._capture.execs[batch_size] = graph.instantiate(
                engine.process)
        except _LADDER_ERRORS as exc:
            if self.policy is None:
                raise
            if self._capture is None:
                self.degradation.note_failure("address_table", exc)
                self._poisoned.update(self.artifact.batches)
                return
            self.degradation.note_failure(f"assemble batch {batch_size}",
                                          exc)
            self._capture.graphs.pop(batch_size, None)
            self._capture.execs.pop(batch_size, None)
            self._poisoned.add(batch_size)

    def _resolve_addresses(self, engine) -> CaptureArtifacts:
        """Build the kernel address table; open the capture artifacts.

        Under a policy, kernels no source resolves are a ladder failure,
        not an error: they stay out of the table, so every graph that
        launches one fails its install.
        """
        artifact = self.artifact
        graph_input, graph_output, first_layer_graph = self._warm
        unresolved = resolve_kernel_addresses(
            engine, first_layer_graph, artifact.kernel_name_table(),
            artifact.kernel_libraries, self._name_to_address,
            tolerate=self.policy is not None)
        if unresolved:
            self.degradation.note_failure(
                "address_table",
                RestorationError(f"unresolved kernel address(es): "
                                 f"{sorted(unresolved)}"))
        return CaptureArtifacts(
            graph_input=graph_input,
            graph_output=graph_output,
            capture_marker=artifact.capture_marker,
        )

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

    def _kernel_addresses(self, table: GraphTable) -> np.ndarray:
        """Per-node kernel addresses: one lookup per distinct kernel id,
        then one ``np.take``; names the first node without an address."""
        kernel_ids = table.kernel_ids
        names = table.kernel_names
        name_table = self._name_to_address
        by_id = np.zeros(len(names), dtype=np.int64)
        missing = []
        for kernel_id in np.unique(kernel_ids).tolist():
            address = name_table.get(names[kernel_id])
            if address is None:
                missing.append(kernel_id)
            else:
                by_id[kernel_id] = address
        if missing:
            first = int(np.isin(kernel_ids, missing).argmax())
            raise RestorationError(
                f"no restored address for kernel "
                f"{names[int(kernel_ids[first])]}")
        return np.take(by_id, kernel_ids)

    def _assemble_graph(self, table: GraphTable) -> CudaGraph:
        """Build one restored graph as columns around the gathered params.

        The pointer gather and every check run here.
        """
        resolved = self._resolved_values(table)
        return CudaGraph(
            GraphColumns(
                kernel_addresses=self._kernel_addresses(table),
                param_sizes=table.param_sizes,
                param_values=resolved,
                param_offsets=table.param_offsets,
                batch_dims=table.batch_dims,
                edges=table.edges,
            ),
            exec_meta=GraphExecMeta(
                param_bytes=table.param_bytes,
                num_tokens=table.num_tokens,
                batch_size=table.batch_size,
            ),
        )

    # -- the degradation ladder (policy set) --------------------------------

    def _finish_ladder(self, engine) -> None:
        """After the last graph action: verify the restored graphs, then
        walk the ladder until the engine can serve every batch size."""
        if self.policy is None:
            return
        self._verify_restored(engine)
        self._resolve_ladder(engine)

    def _verify_restored(self, engine) -> None:
        """Output-oracle verification of every restored graph (§4).

        Replays each restored graph against an eager forwarding over
        identical inputs and KV state (:func:`eager_vs_replay`);
        mismatching batch sizes are poisoned and dropped.  COMPUTE mode
        only (the oracle is a real forwarding); recorded as its own
        ``restore_verify`` timeline stage.
        """
        artifacts = self._capture
        if (not self._verify_outputs
                or engine.process.mode is not ExecutionMode.COMPUTE
                or artifacts is None or not artifacts.execs
                or engine.kv_region is None):
            return
        clock = engine.process.clock
        start = clock.now
        batches = sorted(artifacts.execs)
        bad = [batch_size for batch_size, actual, expected in eager_vs_replay(
                   engine, batches, _verify_input, _verify_input(batches[0]))
               if not np.array_equal(actual, expected)]
        for batch_size in bad:
            artifacts.graphs.pop(batch_size, None)
            artifacts.execs.pop(batch_size, None)
            self.degradation.note_failure(
                f"verify batch {batch_size}",
                RestorationError("restored graph output diverged from the "
                                 "eager oracle"))
        self._poisoned.update(bad)
        self.degradation.record(LadderStep(
            rung=Rung.FULL, stage=RESTORE_VERIFY,
            reason=f"output verification over batches {batches}",
            batches=tuple(bad),
            duration=clock.now - start))

    def _resolve_ladder(self, engine) -> None:
        """Walk the ladder until the engine can serve every batch size."""
        policy = self.policy
        artifacts = self._capture
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
        if artifacts is not None and not self._poisoned:
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


def eager_vs_replay(engine, batches: Sequence[int],
                    inputs: Callable[[int], np.ndarray],
                    settle: np.ndarray) -> Iterator[
                        Tuple[int, np.ndarray, np.ndarray]]:
    """The output oracle (§4): each restored graph against an eager
    forwarding over identical inputs and KV state.

    A forwarding of ``settle`` at the smallest batch size first settles
    one-time eager-path state (workspace setup).  Then, per batch size,
    ``inputs(batch size)`` is forwarded eagerly under a payload snapshot,
    which is restored before the graph replays.  Yields ``(batch size,
    replayed output, eager output)``.
    """
    ctx = engine.serving_context()
    execs = engine.capture_artifacts.execs
    ctx.input_buffer.write(settle)
    engine.model.forward(min(batches), min(batches), ctx)
    for batch_size in batches:
        ctx.input_buffer.write(inputs(batch_size))
        engine.reset_kv_state()
        snapshot = engine.process.snapshot_payloads()
        engine.model.forward(batch_size, batch_size, ctx)
        expected = ctx.output_buffer.read().copy()
        engine.process.restore_payloads(snapshot)
        execs[batch_size].replay()
        yield batch_size, ctx.output_buffer.read(), expected


def _verify_input(batch_size: int) -> np.ndarray:
    """Deterministic oracle input for restore-time output verification."""
    base = np.arange(PAYLOAD_DIM, dtype=np.float64)
    grid = np.outer(base + batch_size, np.ones(PAYLOAD_DIM))
    return grid / PAYLOAD_DIM
