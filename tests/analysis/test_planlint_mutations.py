"""Mutation testing for the static plan verifier (PLN0xx codes).

Mirrors ``tests/core/test_lint_mutations.py``: each mutation breaks one
invariant of a *golden* (known-clean) pipelined Medusa plan and asserts
the analyzer flags it with exactly the right stable PLN0xx code — no
false negatives on the injected defect, no collateral findings.  The
registered plan zoo (including the degraded-ladder variants) must stay
silent throughout.
"""

import dataclasses

import pytest

from repro.analysis.planlint import lint_plan, lint_registered_plans
from repro.engine.lanes import CPU, Contention
from repro.engine.loadplan import (
    ALLOC_MAP,
    ARTIFACT,
    FETCH_ARTIFACT,
    KV_INIT,
    KV_STATE,
    MEDUSA_WARMUP,
    PARAMS,
    REPLAY_ALLOC,
    STRUCTURE,
    STRUCTURE_STATE,
    TOKENIZER,
    TOKENIZER_STATE,
    WEIGHTS,
    WEIGHTS_STATE,
    LoadPlan,
    PlanStage,
    graph_resource,
    restore_graph_stage,
)
from repro.engine.strategies import pipelined_medusa_plan

RG8 = restore_graph_stage(8)
RG4 = restore_graph_stage(4)
RG2 = restore_graph_stage(2)
RG1 = restore_graph_stage(1)


@pytest.fixture
def golden_plan():
    return pipelined_medusa_plan((1, 2, 4, 8), name="golden-pipelined")


def _rebuild(plan, mapper):
    """Apply ``mapper`` (stage -> stage | None | list) to every stage."""
    out = []
    for stage in plan.stages:
        mapped = mapper(stage)
        if mapped is None:
            continue
        out.extend(mapped if isinstance(mapped, list) else [mapped])
    return LoadPlan(plan.name, tuple(out), description=plan.description)


def _replace(plan, name, **changes):
    return _rebuild(plan, lambda s: dataclasses.replace(s, **changes)
                    if s.name == name else s)


def _append(plan, stage):
    return LoadPlan(plan.name, plan.stages + (stage,),
                    description=plan.description)


# -- the mutations ---------------------------------------------------------
# Each takes the golden plan and returns a corrupted copy; the test
# asserts the paired code fires, and *only* it.  One invariant per
# mutation.

def mutate_tokenizer_also_writes_weights(plan):
    """Two unordered writers of the weight buffers."""
    return _replace(plan, TOKENIZER,
                    writes=(TOKENIZER_STATE, WEIGHTS_STATE))


def mutate_fetch_also_writes_tokenizer(plan):
    """The artifact fetch clobbering tokenizer state it never owned."""
    return _replace(plan, FETCH_ARTIFACT,
                    writes=(ARTIFACT, TOKENIZER_STATE))


def mutate_kv_restore_also_writes_tokenizer(plan):
    return _replace(plan, KV_INIT,
                    writes=(KV_STATE, ALLOC_MAP, TOKENIZER_STATE))


def mutate_tokenizer_reads_streaming_weights(plan):
    """A reader overlapping the in-flight weight stream."""
    return _replace(plan, TOKENIZER, reads=(WEIGHTS_STATE,))


def mutate_warmup_reads_streaming_weights(plan):
    return _replace(plan, MEDUSA_WARMUP,
                    reads=(ARTIFACT, KV_STATE, ALLOC_MAP, WEIGHTS_STATE))


def mutate_first_graph_drops_weights_dep(plan):
    """The foreground graph restore still reads weights but no longer
    waits for the stream to finish."""
    return _replace(plan, RG8, deps=(MEDUSA_WARMUP, TOKENIZER))


def mutate_background_publishes_under_foreground_read(plan):
    """A foreground stage reading a graph a *background* stage is still
    writing: ``Timeline.ready`` would claim the read was covered."""
    plan = _replace(plan, RG8, deps=(MEDUSA_WARMUP, TOKENIZER),
                    reads=(ARTIFACT, TOKENIZER_STATE, ALLOC_MAP, PARAMS))
    return _replace(plan, WEIGHTS,
                    reads=(STRUCTURE_STATE, graph_resource(4)))


def mutate_unknown_action(plan):
    return _replace(plan, KV_INIT, action="restore_kvv")


def mutate_malformed_graph_stage_name(plan):
    """``restore_graph[two]`` matches neither the registry nor the
    per-batch pattern."""
    def mapper(stage):
        if stage.name == RG2:
            return dataclasses.replace(stage, name="restore_graph[two]")
        if stage.name == RG1:
            return dataclasses.replace(stage,
                                       deps=("restore_graph[two]",))
        return stage
    return _rebuild(plan, mapper)


def mutate_malformed_chunk_fetch_action(plan):
    """``fetch_chunk[one]`` matches neither the registry nor the
    chunk-stream pattern (``fetch_chunk[<index>]`` needs an integer)."""
    return _replace(plan, FETCH_ARTIFACT, action="fetch_chunk[one]")


def mutate_phantom_contention_partner(plan):
    return _replace(plan, WEIGHTS,
                    contention=Contention(("phantom",),
                                          "weight_kv_interference"))


def mutate_unresolvable_penalty_key(plan):
    return _replace(plan, WEIGHTS,
                    contention=Contention((KV_INIT,),
                                          "weight_kv_interference_typo"))


def mutate_dead_probe_stage(plan):
    """Writes nothing, nothing depends on it: cannot affect the restore."""
    return _append(plan, PlanStage("probe", CPU, deps=(TOKENIZER,),
                                   action="load_tokenizer",
                                   reads=(TOKENIZER_STATE,)))


def mutate_redundant_fetch_dep(plan):
    """KV restore already waited on the artifact fetch."""
    return _replace(plan, REPLAY_ALLOC,
                    deps=(KV_INIT, FETCH_ARTIFACT))


def mutate_lane_bubble(plan):
    """Ready at depth 1, declared behind the depth-2 allocation replay on
    the CPU lane with no dependency forcing the order."""
    return _append(plan, PlanStage("late_probe", CPU, deps=(STRUCTURE,),
                                   action="structure_init",
                                   writes=("scratch",)))


MUTATIONS = [
    (mutate_tokenizer_also_writes_weights, "PLN001"),
    (mutate_fetch_also_writes_tokenizer, "PLN001"),
    (mutate_kv_restore_also_writes_tokenizer, "PLN001"),
    (mutate_tokenizer_reads_streaming_weights, "PLN002"),
    (mutate_warmup_reads_streaming_weights, "PLN002"),
    (mutate_first_graph_drops_weights_dep, "PLN002"),
    (mutate_background_publishes_under_foreground_read, "PLN003"),
    (mutate_unknown_action, "PLN004"),
    (mutate_malformed_graph_stage_name, "PLN004"),
    (mutate_malformed_chunk_fetch_action, "PLN004"),
    (mutate_phantom_contention_partner, "PLN005"),
    (mutate_unresolvable_penalty_key, "PLN006"),
    (mutate_dead_probe_stage, "PLN007"),
    (mutate_redundant_fetch_dep, "PLN008"),
    (mutate_lane_bubble, "PLN009"),
]


def test_golden_plan_is_clean(golden_plan):
    report = lint_plan(golden_plan)
    assert report.clean, report.format_text()


@pytest.mark.parametrize(
    "mutate,expected_code", MUTATIONS,
    ids=[f"{code}-{fn.__name__}" for fn, code in MUTATIONS])
def test_mutation_is_flagged_with_exactly_its_code(golden_plan, mutate,
                                                   expected_code):
    report = lint_plan(mutate(golden_plan))
    assert report.codes() == [expected_code], (
        f"{mutate.__name__} expected exactly {expected_code}, got "
        f"{report.codes() or 'a clean report'}\n{report.format_text()}")
    assert report.exit_code == 1


def test_mutations_cover_every_pln_code():
    assert {code for _, code in MUTATIONS} == {
        f"PLN00{i}" for i in range(1, 10)}


def test_registered_zoo_sweep_stays_silent():
    for name, report in lint_registered_plans().items():
        assert report.clean, f"{name}: {report.format_text()}"
