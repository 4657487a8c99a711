"""Effect annotations for cold-start plan stages (plan-level dataflow).

The loading-phase stages of a :class:`repro.engine.loadplan.LoadPlan`
mutate shared engine state: the weight buffers, the KV region, the
replayed allocation map, the kernel address table, per-batch CUDA graphs.
The lane scheduler only knows *dependencies* and *lanes* — nothing stops a
plan from racing two stages on the same state, which is exactly where
overlap-heavy loading pipelines hide bugs (§7.3).  This module is the
shared vocabulary the plan verifier (:mod:`repro.analysis.planlint`)
reasons over:

- **resources** — stable names for the pieces of engine state a stage may
  touch (``"weights"``, ``"kv"``, ``"graph[8]"``, ...);
- **effects** — per-stage declared ``reads``/``writes`` sets over those
  resources (:class:`repro.engine.loadplan.PlanStage` carries them);
- **defaults** — the effect sets of every built-in engine action,
  restorer action, and degradation-ladder stage, so dynamically built
  stages (``append_stages`` fallbacks, ``restore_graph[bs]``) are covered
  without per-plan declarations.

The action/effect tables here are the lint-side mirror of the runtime
registries (``LLMEngine._stage_actions``, ``OnlineRestorer``/
``VectorizedRestorer.stage_actions``, ``repro.faults.ladder``); sync
tests in ``tests/analysis/test_planlint.py`` keep them honest.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Optional

# ---------------------------------------------------------------------------
# Resource names
# ---------------------------------------------------------------------------

#: The materialized artifact (opened/indexed/decompressed in memory).
ARTIFACT = "artifact"
#: The initialized model structure (module tree, parameter shells).
STRUCTURE_STATE = "structure"
#: The weight buffers' contents (H2D-streamed checkpoint tensors).
WEIGHTS_STATE = "weights"
#: The loaded tokenizer.
TOKENIZER_STATE = "tokenizer"
#: The KV cache region.
KV_STATE = "kv"
#: The replayed allocation map (alloc_index -> live buffer).
ALLOC_MAP = "alloc_map"
#: Restored permanent buffer contents / packed kernel parameters (§4.3).
PARAMS = "params"
#: The kernel name -> address table (dlsym / module enumeration, §5).
DRIVER_SYMBOLS = "driver_symbols"
#: The full captured/restored graph set, as one aggregate (eager capture,
#: the monolithic restore tail, ladder recapture).
GRAPHS = "graphs"


def graph_resource(batch_size: int) -> str:
    """The per-batch graph resource (pipelined ``restore_graph`` stages)."""
    return f"graph[{batch_size}]"


def chunk_resource(index: int) -> str:
    """The per-chunk fetched-bytes resource (chunk-streamed fetch stages).

    ``index`` is the chunk's position in its manifest's canonical order
    (see :class:`repro.core.chunks.ChunkManifest`).
    """
    return f"chunk[{index}]"


_GRAPH_ACTION = re.compile(r"^restore_graph\[(\d+)\]$")
_CHUNK_ACTION = re.compile(r"^fetch_chunk\[(\d+)\]$")


# ---------------------------------------------------------------------------
# Effects
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Effects:
    """One stage's declared dataflow over named resources."""

    reads: FrozenSet[str] = frozenset()
    writes: FrozenSet[str] = frozenset()

    @property
    def empty(self) -> bool:
        return not self.reads and not self.writes


def effects(reads: Iterable[str] = (), writes: Iterable[str] = ()) -> Effects:
    """Shorthand constructor used by the default tables below."""
    return Effects(reads=frozenset(reads), writes=frozenset(writes))


# ---------------------------------------------------------------------------
# Default effect tables, keyed by action name
# ---------------------------------------------------------------------------

#: The engine-builtin stage actions (mirrors ``LLMEngine._stage_actions``).
ENGINE_ACTION_EFFECTS: Dict[str, Effects] = {
    "structure_init": effects(writes=(STRUCTURE_STATE,)),
    "load_weights": effects(reads=(STRUCTURE_STATE,),
                            writes=(WEIGHTS_STATE,)),
    "load_tokenizer": effects(writes=(TOKENIZER_STATE,)),
    # The profiling forwarding only needs shapes, not trained weights —
    # vLLM+ASYNC legitimately overlaps it with the weight stream, so it
    # must NOT read ``weights``.
    "kv_init": effects(reads=(STRUCTURE_STATE,), writes=(KV_STATE,)),
    "capture": effects(reads=(STRUCTURE_STATE, WEIGHTS_STATE, KV_STATE),
                       writes=(GRAPHS,)),
}

#: The restorer-contributed actions (``OnlineRestorer`` /
#: ``VectorizedRestorer.stage_actions``).
RESTORE_ACTION_EFFECTS: Dict[str, Effects] = {
    "fetch_artifact": effects(writes=(ARTIFACT,)),
    "restore_kv": effects(reads=(ARTIFACT, STRUCTURE_STATE),
                          writes=(KV_STATE, ALLOC_MAP)),
    "replay_alloc": effects(reads=(ARTIFACT, ALLOC_MAP),
                            writes=(ALLOC_MAP,)),
    "restore_warmup": effects(reads=(ARTIFACT, KV_STATE, ALLOC_MAP),
                              writes=(ALLOC_MAP, PARAMS, DRIVER_SYMBOLS)),
    "restore_tail": effects(
        reads=(ARTIFACT, WEIGHTS_STATE, TOKENIZER_STATE, ALLOC_MAP, PARAMS),
        writes=(DRIVER_SYMBOLS, GRAPHS)),
}

#: Degradation-ladder fallback stages (``repro.faults.ladder`` constants;
#: injected by ``append_stages`` after the ready frontier).
LADDER_STAGES = ("degrade_kv_profile", "restore_verify", "degrade_partial",
                 "degrade_recapture", "degrade_eager_capture")

LADDER_ACTION_EFFECTS: Dict[str, Effects] = {
    "degrade_kv_profile": effects(reads=(STRUCTURE_STATE,),
                                  writes=(KV_STATE,)),
    "restore_verify": effects(reads=(KV_STATE, WEIGHTS_STATE, GRAPHS),
                              writes=(GRAPHS,)),
    "degrade_partial": effects(reads=(GRAPHS,), writes=(GRAPHS,)),
    "degrade_recapture": effects(
        reads=(STRUCTURE_STATE, WEIGHTS_STATE, KV_STATE), writes=(GRAPHS,)),
    "degrade_eager_capture": effects(
        reads=(STRUCTURE_STATE, WEIGHTS_STATE, KV_STATE), writes=(GRAPHS,)),
}

DEFAULT_EFFECTS: Dict[str, Effects] = {
    **ENGINE_ACTION_EFFECTS,
    **RESTORE_ACTION_EFFECTS,
    **LADDER_ACTION_EFFECTS,
}

#: Every statically-known action name.  ``restore_graph[<batch>]`` stages
#: are parameterized and matched by pattern instead (``is_known_action``).
KNOWN_ACTIONS: FrozenSet[str] = frozenset(DEFAULT_EFFECTS)


def is_known_action(action_name: str,
                    known: Optional[Iterable[str]] = None) -> bool:
    """Whether ``action_name`` resolves against the action registry.

    ``known`` overrides the default universe (e.g. a live restorer's
    ``stage_actions`` keys); the ``restore_graph[<batch>]`` and
    ``fetch_chunk[<index>]`` patterns are always accepted, mirroring
    ``VectorizedRestorer.stage_action_names``.
    """
    universe = KNOWN_ACTIONS if known is None else frozenset(known)
    if action_name in universe:
        return True
    if _GRAPH_ACTION.match(action_name) is not None:
        return True
    return _CHUNK_ACTION.match(action_name) is not None


def default_effects(action_name: str) -> Optional[Effects]:
    """The default effect set for one action name (None when unknown)."""
    found = DEFAULT_EFFECTS.get(action_name)
    if found is not None:
        return found
    match = _GRAPH_ACTION.match(action_name)
    if match is not None:
        # A per-batch pipelined restore stage: consumes the replayed
        # allocations, packed params, and resolved addresses; produces
        # exactly its own graph.
        return effects(reads=(ARTIFACT, ALLOC_MAP, PARAMS, DRIVER_SYMBOLS),
                       writes=(graph_resource(int(match.group(1))),))
    match = _CHUNK_ACTION.match(action_name)
    if match is not None:
        # A chunk-streamed fetch stage: lands exactly its own chunk's
        # bytes; consumers declare reads on the chunk resources they
        # decompress.
        return effects(writes=(chunk_resource(int(match.group(1))),))
    return None


def resolve_effects(stage) -> Effects:
    """The effect set of one ``PlanStage``.

    Explicit ``reads``/``writes`` declarations win; stages without any
    fall back to the default table keyed by their ``action_name``.  A
    stage with neither resolves to the empty effect set (the analyzer
    then treats it as conflict-free, which is the conservative choice for
    *advisories* but means races on undeclared state go unseen — hence
    every plan in ``repro.engine.strategies`` declares explicitly).
    """
    reads = tuple(getattr(stage, "reads", ()) or ())
    writes = tuple(getattr(stage, "writes", ()) or ())
    if reads or writes:
        return Effects(reads=frozenset(reads), writes=frozenset(writes))
    found = default_effects(stage.action_name)
    return found if found is not None else Effects()
