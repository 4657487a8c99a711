"""Unit tests of the static plan verifier (PLN0xx codes).

Each pass is exercised on minimal hand-built plans, the registered plan
zoo must sweep clean, ``register_plan`` must reject races and warn on
advisories, and the effect tables in ``repro.analysis.effects`` are kept
honest against the runtime action registries they mirror.
"""

import dataclasses
import json

import pytest

from repro.analysis.effects import (
    ENGINE_ACTION_EFFECTS,
    KNOWN_ACTIONS,
    LADDER_ACTION_EFFECTS,
    LADDER_STAGES,
    RESTORE_ACTION_EFFECTS,
    STRUCTURE_STATE,
    TOKENIZER_STATE,
    WEIGHTS_STATE,
    default_effects,
    graph_resource,
    is_known_action,
    resolve_effects,
)
from repro.analysis.planlint import (
    concurrent_pairs,
    happens_before,
    lint_plan,
    lint_registered_plans,
)
from repro.engine.lanes import CPU, DISK, GPU_COMPUTE, PCIE, Contention, Lane
from repro.engine.loadplan import (
    STRUCTURE,
    TOKENIZER,
    WEIGHTS,
    LoadPlan,
    PlanStage,
    restore_graph_stage,
)
from repro.engine.strategies import (
    Strategy,
    pipelined_medusa_plan,
    plan_for,
    register_plan,
)
from repro.errors import EngineError
from repro.simgpu.process import ExecutionMode

from tests.conftest import tiny_cost_model


def _plan(*stages):
    return LoadPlan("unit", tuple(stages))


def _lint(plan, **kwargs):
    """Lint with every stage name accepted as an action, so binding noise
    (PLN004) never leaks into tests about other passes."""
    kwargs.setdefault("known_actions",
                      [stage.name for stage in plan.stages])
    kwargs.setdefault("cost_model", {"weight_kv_interference": 0.08})
    return lint_plan(plan, **kwargs)


def replace_stage(plan, name, **changes):
    """A copy of ``plan`` with one stage's fields replaced."""
    stages = tuple(
        dataclasses.replace(stage, **changes) if stage.name == name
        else stage for stage in plan.stages)
    return LoadPlan(plan.name, stages, description=plan.description)


def _isolate_registry(monkeypatch):
    from repro.engine import strategies
    monkeypatch.setattr(strategies, "_PLANS", dict(strategies._PLANS))
    monkeypatch.setattr(strategies, "_STRATEGY_PLANS",
                        dict(strategies._STRATEGY_PLANS))


# ---------------------------------------------------------------------------
# Ordering relations
# ---------------------------------------------------------------------------

class TestHappensBefore:
    def test_deps_and_lane_adjacency_both_order(self):
        plan = _plan(
            PlanStage("a", CPU, writes=("x",)),
            PlanStage("b", DISK, deps=("a",), writes=("y",)),
            PlanStage("c", CPU, writes=("z",)),
        )
        before = happens_before(plan)
        assert before["b"] == frozenset({"a"})
        # c has no declared dep, but shares the CPU lane with a.
        assert before["c"] == frozenset({"a"})

    def test_closure_is_transitive(self):
        plan = _plan(
            PlanStage("a", CPU, writes=("x",)),
            PlanStage("b", DISK, deps=("a",), writes=("y",)),
            PlanStage("c", PCIE, deps=("b",), writes=("z",)),
        )
        assert happens_before(plan)["c"] == frozenset({"a", "b"})

    def test_concurrent_pairs_are_cross_lane_and_unordered(self):
        plan = _plan(
            PlanStage("a", CPU, writes=("x",)),
            PlanStage("b", DISK, deps=("a",), writes=("y",)),
            PlanStage("c", CPU, writes=("z",)),
        )
        # a-c same lane (ordered); a-b dep-ordered; b-c is the only
        # genuinely unordered pair.
        assert concurrent_pairs(plan) == [("b", "c")]


# ---------------------------------------------------------------------------
# Race detection (PLN001/002/003)
# ---------------------------------------------------------------------------

class TestRaces:
    def test_concurrent_writers_are_pln001(self):
        plan = _plan(
            PlanStage("a", CPU, writes=("x",)),
            PlanStage("b", DISK, writes=("x",)),
        )
        report = _lint(plan)
        assert report.codes() == ["PLN001"]
        message = report.diagnostics[0].message
        assert "'a'" in message and "'b'" in message and "'x'" in message

    def test_concurrent_reader_writer_is_pln002(self):
        plan = _plan(
            PlanStage("a", CPU, writes=("x",)),
            PlanStage("b", DISK, reads=("x",), writes=("y",)),
        )
        assert _lint(plan).codes() == ["PLN002"]

    def test_background_writer_foreground_reader_is_pln003(self):
        plan = _plan(
            PlanStage("a", CPU, reads=("x",), writes=("y",)),
            PlanStage("b", DISK, background=True, writes=("x",)),
        )
        assert _lint(plan).codes() == ["PLN003"]

    def test_background_reader_background_writer_is_plain_pln002(self):
        # Both behind the ready instant: no publication lie, a plain race.
        plan = _plan(
            PlanStage("a", CPU, background=True, reads=("x",),
                      writes=("y",)),
            PlanStage("b", DISK, background=True, writes=("x",)),
        )
        assert _lint(plan).codes() == ["PLN002"]

    def test_ordered_conflict_is_silent(self):
        plan = _plan(
            PlanStage("a", CPU, writes=("x",)),
            PlanStage("b", DISK, deps=("a",), reads=("x",), writes=("y",)),
        )
        assert _lint(plan).clean


# ---------------------------------------------------------------------------
# Bindings (PLN004/005/006)
# ---------------------------------------------------------------------------

class TestBindings:
    def test_unknown_action_is_pln004(self):
        plan = _plan(PlanStage("a", CPU, action="frobnicate",
                               writes=("x",)))
        report = lint_plan(plan)
        assert report.codes() == ["PLN004"]
        assert "frobnicate" in report.diagnostics[0].message

    def test_restore_graph_pattern_is_always_known(self):
        plan = _plan(PlanStage("restore_graph[16]", GPU_COMPUTE))
        assert not lint_plan(plan).has("PLN004")
        assert is_known_action("restore_graph[16]")
        assert is_known_action("restore_graph[16]", known=("other",))
        assert not is_known_action("restore_graph[sixteen]")

    def test_fetch_chunk_pattern_is_always_known(self):
        plan = _plan(PlanStage("fetch_chunk[3]", CPU))
        assert not lint_plan(plan).has("PLN004")
        assert is_known_action("fetch_chunk[3]")
        assert is_known_action("fetch_chunk[0]", known=("other",))
        assert not is_known_action("fetch_chunk[one]")
        assert not is_known_action("fetch_chunk[]")

    def test_known_actions_override(self):
        plan = _plan(PlanStage("a", CPU, action="custom", writes=("x",)))
        assert lint_plan(plan, known_actions=("custom",)).clean
        assert lint_plan(plan).has("PLN004")

    def test_missing_contention_partner_is_pln005(self):
        plan = _plan(
            PlanStage("a", CPU, writes=("x",),
                      contention=Contention(("phantom",),
                                            "weight_kv_interference")))
        assert _lint(plan).codes() == ["PLN005"]

    def test_unresolvable_penalty_key_is_pln006(self):
        plan = _plan(
            PlanStage("a", CPU, writes=("x",)),
            PlanStage("b", CPU, deps=("a",), reads=("x",), writes=("y",),
                      contention=Contention(("a",), "no_such_penalty")))
        assert _lint(plan).codes() == ["PLN006"]

    def test_penalty_resolves_against_real_cost_model(self):
        plan = _plan(
            PlanStage("a", CPU, writes=("x",)),
            PlanStage("b", CPU, deps=("a",), reads=("x",), writes=("y",),
                      contention=Contention(("a",),
                                            "weight_kv_interference")))
        report = lint_plan(plan,
                           known_actions=("a", "b"), cost_model=None)
        assert not report.has("PLN006")


# ---------------------------------------------------------------------------
# Structure and lanes (PLN007/008/009)
# ---------------------------------------------------------------------------

class TestStructureAndLanes:
    def test_dead_stage_is_pln007(self):
        plan = _plan(
            PlanStage("a", CPU, writes=("x",)),
            PlanStage("b", DISK, deps=("a",), reads=("x",)),
        )
        assert _lint(plan).codes() == ["PLN007"]

    def test_writing_stage_nobody_awaits_is_not_dead(self):
        plan = _plan(PlanStage("a", CPU, writes=("x",)))
        assert _lint(plan).clean

    def test_redundant_dep_is_pln008(self):
        plan = _plan(
            PlanStage("a", CPU, writes=("x",)),
            PlanStage("b", DISK, deps=("a",), reads=("x",), writes=("y",)),
            PlanStage("c", PCIE, deps=("a", "b"), reads=("x", "y"),
                      writes=("z",)),
        )
        report = _lint(plan)
        assert report.codes() == ["PLN008"]
        assert "'a'" in report.diagnostics[0].message

    def test_lane_bubble_is_pln009(self):
        plan = _plan(
            PlanStage("d1", DISK, writes=("d",)),
            PlanStage("g1", GPU_COMPUTE, deps=("d1",), reads=("d",),
                      writes=("g",)),
            PlanStage("g2", GPU_COMPUTE, writes=("h",)),
        )
        # g2 is ready at depth 0 but queued behind g1 (depth 1).
        assert _lint(plan).codes() == ["PLN009"]

    def test_background_deferral_is_not_a_bubble(self):
        plan = _plan(
            PlanStage("d1", DISK, writes=("d",)),
            PlanStage("g1", GPU_COMPUTE, deps=("d1",), reads=("d",),
                      writes=("g",)),
            PlanStage("g2", GPU_COMPUTE, background=True, writes=("h",)),
        )
        assert _lint(plan).clean


# ---------------------------------------------------------------------------
# Entry points: lint_plan stats, the registered-plan sweep, register_plan
# ---------------------------------------------------------------------------

class TestEntryPoints:
    def test_lint_plan_stats(self):
        plan = pipelined_medusa_plan((1, 2, 4, 8), name="stats-pipelined")
        report = lint_plan(plan)
        assert report.clean
        assert report.stats["stages"] == float(len(plan.stages))
        assert report.stats["background_stages"] == 3.0
        assert report.stats["concurrent_pairs"] > 0

    def test_registered_sweep_is_clean_including_degraded(self):
        reports = lint_registered_plans()
        assert "medusa-pipelined" in reports
        assert "medusa-pipelined+degraded" in reports
        assert len(reports) >= 14
        for name, report in reports.items():
            assert report.clean, f"{name}: {report.format_text()}"

    def test_register_plan_rejects_conflicting_effects(self, monkeypatch):
        _isolate_registry(monkeypatch)
        base = pipelined_medusa_plan((1, 2, 4, 8),
                                     name="injected-pipelined")
        racy = replace_stage(base, TOKENIZER,
                             writes=(TOKENIZER_STATE, WEIGHTS_STATE))
        with pytest.raises(EngineError) as err:
            register_plan(racy)
        message = str(err.value)
        assert "PLN001" in message
        assert f"{WEIGHTS!r}" in message and f"{TOKENIZER!r}" in message
        assert f"{WEIGHTS_STATE!r}" in message

    def test_register_plan_warns_on_advisories(self, monkeypatch):
        _isolate_registry(monkeypatch)
        plan = LoadPlan("advisory-plan", (
            PlanStage(STRUCTURE, CPU, writes=(STRUCTURE_STATE,)),
            PlanStage(WEIGHTS, PCIE, deps=(STRUCTURE,),
                      reads=(STRUCTURE_STATE,), writes=(WEIGHTS_STATE,)),
            PlanStage(TOKENIZER, CPU, deps=(STRUCTURE, WEIGHTS),
                      writes=(TOKENIZER_STATE,)),
        ))
        with pytest.warns(UserWarning, match="PLN008"):
            registered = register_plan(plan)
        assert plan_for("advisory-plan") is registered


# ---------------------------------------------------------------------------
# Effect-table <-> runtime-registry sync
# ---------------------------------------------------------------------------

class TestRegistrySync:
    def test_engine_action_table_matches_engine_registry(self):
        from repro.engine.engine import ENGINE_STAGE_ACTIONS
        assert set(ENGINE_ACTION_EFFECTS) == set(ENGINE_STAGE_ACTIONS)
        assert set(ENGINE_STAGE_ACTIONS) <= KNOWN_ACTIONS

    def test_ladder_table_matches_ladder_constants(self):
        from repro.faults.ladder import DEGRADED_LADDER_STAGES
        assert LADDER_STAGES == DEGRADED_LADDER_STAGES
        assert set(LADDER_ACTION_EFFECTS) == set(LADDER_STAGES)

    def test_online_restorer_names_match_runtime(self, tiny2l_artifact):
        from repro.analysis.effects import default_effects
        from repro.core.online import prepare_medusa_cold_start
        artifact, _ = tiny2l_artifact
        engine, restorer = prepare_medusa_cold_start(
            "Tiny-2L", artifact, mode=ExecutionMode.COMPUTE,
            cost_model=tiny_cost_model())
        names = restorer.stage_action_names()
        # Every registered action has a default effect set: the fixed
        # names are RESTORE_ACTION_EFFECTS keys, the rest its patterns.
        assert {"restore_kv", "restore_warmup", "restore_tail"} \
            <= set(names)
        assert all(default_effects(name) is not None for name in names)
        assert set(names) - set(RESTORE_ACTION_EFFECTS) == {
            restore_graph_stage(batch) for batch in artifact.graphs}
        assert set(restorer.stage_actions(engine)) == set(names)

    def test_ladder_restorer_names_match_runtime(self, tiny2l_artifact):
        from repro.core.online import prepare_medusa_cold_start
        from repro.engine.engine import ENGINE_STAGE_ACTIONS
        from repro.faults import DegradationPolicy
        artifact, _ = tiny2l_artifact
        engine, restorer = prepare_medusa_cold_start(
            "Tiny-2L", artifact, mode=ExecutionMode.COMPUTE,
            cost_model=tiny_cost_model(), policy=DegradationPolicy())
        names = restorer.stage_action_names()
        assert set(restorer.stage_actions(engine)) == set(names)
        # The plan a hooked restore runs lints clean against exactly the
        # actions the engine + this restorer register.
        assert engine.plan is None      # the registered monolithic plan
        report = lint_plan(plan_for(Strategy.MEDUSA),
                           known_actions=tuple(ENGINE_STAGE_ACTIONS) + names)
        assert report.clean, report.format_text()

    def test_vectorized_restorer_names_match_runtime(self, tiny2l_artifact,
                                                     tmp_path):
        from repro.core.binfmt import LazyArtifact, save_binary
        from repro.core.online import prepare_medusa_cold_start
        from repro.engine.engine import ENGINE_STAGE_ACTIONS
        artifact, _ = tiny2l_artifact
        path = str(tmp_path / "tiny2l.npz")
        save_binary(artifact, path)
        lazy = LazyArtifact(path)
        engine, restorer = prepare_medusa_cold_start(
            "Tiny-2L", lazy, mode=ExecutionMode.COMPUTE,
            cost_model=tiny_cost_model())
        names = restorer.stage_action_names()
        assert set(restorer.stage_actions(engine)) == set(names)
        # The per-artifact pipelined plan lints clean against exactly the
        # actions the engine + this restorer register.
        plan = pipelined_medusa_plan(lazy.batches, name="sync-pipelined")
        report = lint_plan(plan,
                           known_actions=tuple(ENGINE_STAGE_ACTIONS) + names)
        assert report.clean, report.format_text()

    def test_chunked_restorer_names_match_runtime(self, tiny2l_artifact,
                                                  tmp_path):
        from repro.core.online import prepare_medusa_cold_start
        from repro.core.store import ArtifactStore
        from repro.engine.engine import ENGINE_STAGE_ACTIONS
        from repro.engine.strategies import chunked_medusa_plan
        artifact, _ = tiny2l_artifact
        store = ArtifactStore(tmp_path / "store")
        store.put(artifact)
        lazy = store.get_lazy(artifact.gpu_name, artifact.model_name)
        engine, restorer = prepare_medusa_cold_start(
            "Tiny-2L", lazy, mode=ExecutionMode.COMPUTE,
            cost_model=tiny_cost_model())
        names = restorer.stage_action_names()
        # One fetch_chunk action per manifest chunk, all registered.
        manifest = lazy.chunk_manifest
        expected = {f"fetch_chunk[{i}]"
                    for i in range(len(manifest.chunks))}
        assert expected <= set(names)
        assert set(restorer.stage_actions(engine)) == set(names)
        # The per-manifest chunked plan lints clean against exactly the
        # actions the engine + this restorer register.
        plan = chunked_medusa_plan(manifest, name="sync-chunked")
        report = lint_plan(plan,
                           known_actions=tuple(ENGINE_STAGE_ACTIONS) + names)
        assert report.clean, report.format_text()


# ---------------------------------------------------------------------------
# Effect resolution
# ---------------------------------------------------------------------------

class TestEffectResolution:
    def test_declared_effects_win_over_action_defaults(self):
        stage = PlanStage("kv_init", GPU_COMPUTE, action="restore_kv",
                          reads=("only",))
        fx = resolve_effects(stage)
        assert fx.reads == frozenset({"only"})
        assert fx.writes == frozenset()

    def test_undeclared_falls_back_to_action_default(self):
        stage = PlanStage("kv_init", GPU_COMPUTE, action="restore_kv")
        assert resolve_effects(stage) == default_effects("restore_kv")

    def test_unknown_action_resolves_empty(self):
        stage = PlanStage("mystery", CPU)
        assert resolve_effects(stage).empty

    def test_graph_pattern_default_effects(self):
        fx = default_effects("restore_graph[4]")
        assert fx.writes == frozenset({graph_resource(4)})
        assert "alloc_map" in fx.reads

    def test_chunk_pattern_default_effects(self):
        from repro.analysis.effects import chunk_resource
        fx = default_effects("fetch_chunk[7]")
        assert fx.writes == frozenset({chunk_resource(7)})
        assert fx.reads == frozenset()
        assert default_effects("fetch_chunk[seven]") is None
        assert default_effects("restore_graph[oops]") is None


# ---------------------------------------------------------------------------
# Wiring: the validate prepass and the lint-plan CLI
# ---------------------------------------------------------------------------

class TestWiring:
    def test_validate_prepass_rejects_racy_plan(self, monkeypatch,
                                                tiny2l_artifact):
        from repro.core.validation import validate_restoration
        from repro.errors import ValidationError
        artifact, _ = tiny2l_artifact
        racy = replace_stage(plan_for(Strategy.MEDUSA), TOKENIZER,
                             writes=(TOKENIZER_STATE, WEIGHTS_STATE))
        monkeypatch.setattr("repro.engine.strategies.plan_for",
                            lambda key: racy)
        with pytest.raises(ValidationError, match="PLN001"):
            validate_restoration("Tiny-2L", artifact,
                                 cost_model=tiny_cost_model())

    def test_cli_lints_single_plan(self, capsys):
        from repro.cli import main
        assert main(["lint-plan", "medusa-pipelined"]) == 0
        out = capsys.readouterr().out
        assert "0 error(s), 0 warning(s)" in out

    def test_cli_lints_all_plans_as_json(self, capsys):
        from repro.cli import main
        assert main(["lint-plan", "--all", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) >= 14
        assert payload["medusa-pipelined"]["clean"]
        assert payload["medusa-pipelined+degraded"]["clean"]
        assert "PLN" not in json.dumps(payload)

    def test_cli_rejects_unknown_plan(self, capsys):
        from repro.cli import main
        assert main(["lint-plan", "no-such-plan"]) == 2
        assert "no registered plan" in capsys.readouterr().err

    def test_cli_requires_a_target(self, capsys):
        from repro.cli import main
        assert main(["lint-plan"]) == 2
        assert "--all" in capsys.readouterr().err
