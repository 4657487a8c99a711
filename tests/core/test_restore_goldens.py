"""Restore-timeline goldens: every input kind, with and without the ladder.

One restorer serves eager artifacts (packed on entry), monolithic ``.npz``
lazy artifacts, and chunk-backed artifacts from an
:class:`~repro.core.store.ArtifactStore`.  Each input kind keeps the plan
it has always run (``medusa``, ``medusa-pipelined``, ``medusa-chunked``), so
the simulated loading time and every scheduled stage must stay bit-exact.
``golden_restore_timelines.json`` pins ``loading_time`` and each stage's
``(name, start, end, lane, background)`` as exact float reprs for Tiny-2L
(tiny cost model) and Qwen1.5-0.5B, each with and without a default
:class:`~repro.faults.DegradationPolicy`.

Regenerate (only when a timeline change is intended)::

    PYTHONPATH=src:. python tests/core/test_restore_goldens.py
"""

from __future__ import annotations

import json
import pathlib
import tempfile

import pytest

from repro.core.binfmt import LazyArtifact, save_binary
from repro.core.online import medusa_cold_start
from repro.core.store import ArtifactStore
from repro.faults import DegradationPolicy
from repro.simgpu.process import ExecutionMode

GOLDEN_PATH = pathlib.Path(__file__).with_name(
    "golden_restore_timelines.json")
INPUT_KINDS = ("eager", "lazy", "chunked")
POLICIES = ("strict", "ladder")
#: (model, offline seed, cold-start seed, restore mode, tiny cost model?)
MODELS = (
    ("Tiny-2L", 1101, 7, ExecutionMode.COMPUTE, True),
    ("Qwen1.5-0.5B", 9600, 9601, ExecutionMode.TIMING, False),
)


def _cost_model(tiny: bool):
    if not tiny:
        return None
    from tests.conftest import tiny_cost_model
    return tiny_cost_model()


def _materialize(model: str, seed: int, tiny: bool):
    from repro.core.offline import run_offline
    mode = ExecutionMode.COMPUTE if tiny else ExecutionMode.TIMING
    artifact, _ = run_offline(model, seed=seed, mode=mode,
                              cost_model=_cost_model(tiny))
    return artifact


def _open(artifact, kind: str, workdir: pathlib.Path):
    if kind == "eager":
        return artifact
    if kind == "lazy":
        path = workdir / f"{artifact.model_name}.medusa.npz"
        save_binary(artifact, path)
        return LazyArtifact(path)
    store = ArtifactStore(workdir / "store")
    store.put(artifact)
    return store.get_lazy(artifact.gpu_name, artifact.model_name)


def _snapshot(report) -> dict:
    return {
        "plan": report.timeline.plan,
        "loading_time": repr(report.loading_time),
        "stages": [[stage.name, repr(stage.start), repr(stage.end),
                    stage.lane, stage.background]
                   for stage in report.timeline.stages],
    }


def model_timelines(model: str, artifact, seed: int, mode,
                    tiny: bool) -> dict:
    """``{"<model>/<input>/<policy>": snapshot}`` for one materialized model."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for kind in INPUT_KINDS:
            for policy in POLICIES:
                workdir = pathlib.Path(tmp) / f"{kind}-{policy}"
                workdir.mkdir()
                _engine, report = medusa_cold_start(
                    model, _open(artifact, kind, workdir), seed=seed,
                    mode=mode, cost_model=_cost_model(tiny),
                    policy=DegradationPolicy() if policy == "ladder"
                    else None)
                out[f"{model}/{kind}/{policy}"] = _snapshot(report)
    return out


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("model,offline_seed,seed,mode,tiny", MODELS,
                         ids=[m[0] for m in MODELS])
def test_restore_timelines_match_golden(golden, tiny2l_artifact, model,
                                        offline_seed, seed, mode, tiny):
    if model == "Tiny-2L":
        artifact, _ = tiny2l_artifact
    else:
        artifact = _materialize(model, offline_seed, tiny)
    actual = model_timelines(model, artifact, seed, mode, tiny)
    expected = {key: value for key, value in golden.items()
                if key.startswith(f"{model}/")}
    assert sorted(actual) == sorted(expected)
    for key in sorted(expected):
        assert actual[key] == expected[key], key


def record() -> None:
    """Rewrite the golden file from the current code."""
    snapshots = {}
    for model, offline_seed, seed, mode, tiny in MODELS:
        artifact = _materialize(model, offline_seed, tiny)
        snapshots.update(model_timelines(model, artifact, seed, mode, tiny))
    GOLDEN_PATH.write_text(json.dumps(snapshots, indent=1, sort_keys=True)
                           + "\n")
    print(f"wrote {len(snapshots)} timelines to {GOLDEN_PATH}")


if __name__ == "__main__":
    record()
