"""Unit tests of the static plan verifier (PLN0xx codes).

Each pass is exercised on minimal hand-built plans, the registered plan
zoo must sweep clean, ``register_plan`` must reject races and warn on
advisories, the restorers' plans must lint clean against the actions
they really register, and every shipped stage must declare its effects.
"""

import dataclasses
import json

import pytest

from repro.analysis.planlint import (
    concurrent_pairs,
    happens_before,
    lint_plan,
    lint_registered_plans,
)
from repro.engine.lanes import CPU, DISK, GPU_COMPUTE, PCIE, Contention
from repro.engine.loadplan import (
    ENGINE_STAGE_ACTIONS,
    FETCH_CHUNK_PATTERN,
    RESTORE_GRAPH_PATTERN,
    RESTORER_STAGE_ACTIONS,
    STRUCTURE,
    STRUCTURE_STATE,
    TOKENIZER,
    TOKENIZER_STATE,
    WEIGHTS,
    WEIGHTS_STATE,
    LoadPlan,
    PlanStage,
    append_stages,
)
from repro.engine.strategies import (
    Strategy,
    chunked_medusa_plan,
    pipelined_medusa_plan,
    plan_for,
    register_plan,
    registered_plans,
)
from repro.errors import EngineError
from repro.faults.ladder import DEGRADED_LADDER_STAGES
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
        assert not lint_plan(plan, known_actions=("other",)).has("PLN004")
        assert RESTORE_GRAPH_PATTERN.match("restore_graph[16]")
        assert not RESTORE_GRAPH_PATTERN.match("restore_graph[sixteen]")
        odd = _plan(PlanStage("restore_graph[sixteen]", GPU_COMPUTE))
        assert lint_plan(odd).has("PLN004")

    def test_fetch_chunk_pattern_is_always_known(self):
        plan = _plan(PlanStage("fetch_chunk[3]", CPU))
        assert not lint_plan(plan).has("PLN004")
        assert not lint_plan(plan, known_actions=("other",)).has("PLN004")
        assert FETCH_CHUNK_PATTERN.match("fetch_chunk[0]")
        assert not FETCH_CHUNK_PATTERN.match("fetch_chunk[one]")
        assert not FETCH_CHUNK_PATTERN.match("fetch_chunk[]")

    def test_default_universe_is_the_runtime_registries(self):
        for action in ENGINE_STAGE_ACTIONS + RESTORER_STAGE_ACTIONS:
            plan = _plan(PlanStage("a", CPU, action=action, writes=("x",)))
            assert lint_plan(plan).clean, action
        ladder = _plan(PlanStage(DEGRADED_LADDER_STAGES[0].name, CPU,
                                 writes=("x",)))
        assert lint_plan(ladder).codes() == ["PLN004"]

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
        plan = pipelined_medusa_plan((1, 2, 4, 8))
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
        base = dataclasses.replace(pipelined_medusa_plan((1, 2, 4, 8)),
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
    def test_online_restorer_names_match_runtime(self, tiny2l_artifact):
        from repro.core.online import prepare_medusa_cold_start
        artifact, _ = tiny2l_artifact
        engine, restorer = prepare_medusa_cold_start(
            "Tiny-2L", artifact, mode=ExecutionMode.COMPUTE,
            cost_model=tiny_cost_model())
        names = restorer.stage_action_names()
        assert set(restorer.stage_actions(engine)) == set(names)

    @pytest.mark.parametrize("plan_name", ["medusa", "medusa-pipelined"])
    def test_ladder_restorer_names_match_runtime(self, tiny2l_artifact,
                                                 tmp_path, plan_name):
        from repro.core.binfmt import save_binary
        from repro.core.chunks import open_binary
        from repro.core.online import prepare_medusa_cold_start
        from repro.faults import DegradationPolicy
        artifact, _ = tiny2l_artifact
        if plan_name == "medusa-pipelined":
            path = str(tmp_path / "tiny2l.medusa")
            save_binary(artifact, path)
            artifact = open_binary(path)
        engine, restorer = prepare_medusa_cold_start(
            "Tiny-2L", artifact, mode=ExecutionMode.COMPUTE,
            cost_model=tiny_cost_model(), policy=DegradationPolicy())
        names = restorer.stage_action_names()
        assert set(restorer.stage_actions(engine)) == set(names)
        # A ladder restore runs its input's plan (the registered monolithic
        # one in memory, the pipelined one from a file), which lints clean
        # against exactly the actions the engine + this restorer register.
        plan = engine.plan or plan_for(Strategy.MEDUSA)
        assert plan.name == plan_name
        report = lint_plan(plan,
                           known_actions=ENGINE_STAGE_ACTIONS + names)
        assert report.clean, report.format_text()

    def test_vectorized_restorer_names_match_runtime(self, tiny2l_artifact,
                                                     tmp_path):
        from repro.core.binfmt import save_binary
        from repro.core.chunks import open_binary
        from repro.core.online import prepare_medusa_cold_start
        artifact, _ = tiny2l_artifact
        path = str(tmp_path / "tiny2l.medusa")
        save_binary(artifact, path)
        lazy = open_binary(path)
        engine, restorer = prepare_medusa_cold_start(
            "Tiny-2L", lazy, mode=ExecutionMode.COMPUTE,
            cost_model=tiny_cost_model())
        names = restorer.stage_action_names()
        assert set(restorer.stage_actions(engine)) == set(names)
        # The per-artifact pipelined plan lints clean against exactly the
        # actions the engine + this restorer register.
        plan = pipelined_medusa_plan(lazy.batches)
        report = lint_plan(plan,
                           known_actions=ENGINE_STAGE_ACTIONS + names)
        assert report.clean, report.format_text()

    def test_chunked_restorer_names_match_runtime(self, tiny2l_artifact,
                                                  tmp_path):
        from repro.core.online import prepare_medusa_cold_start
        from repro.core.store import ArtifactStore
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
        plan = chunked_medusa_plan(manifest)
        report = lint_plan(plan,
                           known_actions=ENGINE_STAGE_ACTIONS + names)
        assert report.clean, report.format_text()


# ---------------------------------------------------------------------------
# Declared effects: the verifier reads nothing but ``reads``/``writes``
# ---------------------------------------------------------------------------

def _undeclared(plan):
    return [stage.name for stage in plan.stages
            if not stage.reads and not stage.writes]


def _registered_and_degraded():
    for plan in sorted(registered_plans().values(), key=lambda p: p.name):
        yield plan
        yield append_stages(plan, DEGRADED_LADDER_STAGES)


@pytest.mark.parametrize("plan", list(_registered_and_degraded()),
                         ids=lambda plan: plan.name)
def test_every_registered_stage_declares_its_effects(plan):
    assert _undeclared(plan) == []


@pytest.mark.parametrize("kind", ["pipelined", "chunked"])
def test_every_per_artifact_stage_declares_its_effects(tiny2l_artifact,
                                                       tmp_path, kind):
    from repro.core.store import ArtifactStore
    artifact, _ = tiny2l_artifact
    if kind == "pipelined":
        plan = pipelined_medusa_plan(artifact.batches)
    else:
        store = ArtifactStore(tmp_path / "store")
        store.put(artifact)
        lazy = store.get_lazy(artifact.gpu_name, artifact.model_name)
        plan = chunked_medusa_plan(lazy.chunk_manifest)
    assert len(plan.stages) > len(artifact.batches)
    assert _undeclared(plan) == []


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
