"""Offline-phase goldens: the materialized artifact must stay byte-identical.

``golden_offline_artifacts.json`` pins, per model at the default offline
seed and cost model:

- the sha256 of the :func:`~repro.core.binfmt.save_binary` output (the
  single-file chunk set);
- the sha256 of the JSON export (``to_json()``, UTF-8);
- the ``repr`` of ``capture_stage_time`` and ``analysis_time``;
- every :class:`~repro.core.offline.OfflineReport` ``stats`` value (repr);
- the capture trace's per-kind event counts.

Any change to how capture, trace analysis or lint run must leave all of
these untouched.

``golden_offline_liveness.json`` pins, for the same artifacts, what lint's
liveness pass concludes: one sha256 over every allocation index's
(aligned size, end state, freed row, pooled flag, end row when unmapped,
tag), plus lint's ``allocations`` and ``replay_events`` stats.

Regenerate both (only when an artifact change is intended)::

    PYTHONPATH=src:. python tests/core/test_offline_golden.py
"""

from __future__ import annotations

import functools
import hashlib
import json
import pathlib
import tempfile
from unittest import mock

import pytest

from repro.analysis import (
    MAPPED,
    SUPERSEDED,
    UNMAPPED,
    analyze_replay,
    lint_artifact,
)
from repro.core import offline
from repro.core.binfmt import save_binary
from repro.core.trace import (
    AllocTraceEvent,
    EmptyCacheTraceEvent,
    FreeTraceEvent,
    LaunchTraceEvent,
)

GOLDEN_PATH = pathlib.Path(__file__).with_name(
    "golden_offline_artifacts.json")
LIVENESS_GOLDEN_PATH = pathlib.Path(__file__).with_name(
    "golden_offline_liveness.json")
MODELS = ("Tiny-2L", "Tiny-4L", "Qwen1.5-0.5B", "Qwen1.5-4B", "Llama2-7B")
#: The artifact golden also pins Qwen1.5-1.8B (in the ``materialize``
#: benchmark mix) and Falcon-7B (the one paper model whose layer ends in
#: ``attn_output_scale``).
ARTIFACT_MODELS = MODELS + ("Qwen1.5-1.8B", "Falcon-7B")


def _event_counts(trace) -> dict:
    counts = {"alloc": 0, "free": 0, "free_pooled": 0, "empty_cache": 0,
              "launch": 0, "launch_captured": 0}
    for event in trace.events:
        if isinstance(event, AllocTraceEvent):
            counts["alloc"] += 1
        elif isinstance(event, FreeTraceEvent):
            counts["free"] += 1
            counts["free_pooled"] += event.pooled
        elif isinstance(event, EmptyCacheTraceEvent):
            counts["empty_cache"] += 1
        elif isinstance(event, LaunchTraceEvent):
            counts["launch"] += 1
            counts["launch_captured"] += event.captured
    return counts


def materialize(model: str):
    """Materialize ``model`` with defaults: (artifact, report, trace)."""
    traces = []
    real_detach = offline.detach

    def spy(process, interceptor):
        trace = real_detach(process, interceptor)
        traces.append(trace)
        return trace

    with mock.patch.object(offline, "detach", spy):
        artifact, report = offline.run_offline(model)
    assert len(traces) == 1
    return artifact, report, traces[0]


def snapshot(model: str, run=materialize) -> dict:
    """Summarize what materializing ``model`` (through ``run``)
    produced."""
    artifact, report, trace = run(model)
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "artifact.medusa"
        save_binary(artifact, path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
    return {
        "save_binary_sha256": digest,
        "to_json_sha256": hashlib.sha256(
            artifact.to_json().encode("utf-8")).hexdigest(),
        "capture_stage_time": repr(report.capture_stage_time),
        "analysis_time": repr(report.analysis_time),
        "stats": {key: repr(value)
                  for key, value in sorted(report.stats.items())},
        "trace_event_counts": _event_counts(trace),
    }


STATE_NAMES = {MAPPED: "mapped", SUPERSEDED: "superseded",
               UNMAPPED: "unmapped"}


def liveness_rows(liveness):
    """Per allocation index, ascending: (index, aligned size, end state,
    freed row or -1, pooled flag, end row when unmapped or -1, tag)."""
    return zip(liveness.alloc_index.tolist(), liveness.size.tolist(),
               [STATE_NAMES[state] for state in liveness.end_state.tolist()],
               liveness.freed_row.tolist(), liveness.pooled_free.tolist(),
               liveness.end_row.tolist(), liveness.tag.tolist())


def liveness_snapshot(model: str, run=materialize) -> dict:
    """What lint's liveness pass concludes on ``model``'s artifact."""
    artifact = run(model)[0]
    digest = hashlib.sha256()
    for row in liveness_rows(analyze_replay(artifact)):
        digest.update(("%d %d %s %d %d %d %s\n" % row).encode("utf-8"))
    stats = lint_artifact(artifact).stats
    return {"liveness_sha256": digest.hexdigest(),
            "allocations": stats["allocations"],
            "replay_events": stats["replay_events"]}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def materialized():
    """Each model materialized once for this module's goldens."""
    return functools.lru_cache(maxsize=None)(materialize)


def test_golden_covers_the_pinned_models(golden):
    assert sorted(golden) == sorted(ARTIFACT_MODELS)
    assert sorted(json.loads(LIVENESS_GOLDEN_PATH.read_text())) \
        == sorted(MODELS)


@pytest.mark.parametrize("model", ARTIFACT_MODELS)
def test_offline_artifact_matches_golden(golden, materialized, model):
    actual = snapshot(model, materialized)
    expected = golden[model]
    for key in sorted(expected):
        assert actual[key] == expected[key], f"{model}: {key}"
    assert sorted(actual) == sorted(expected)


def test_golden_holds_after_another_model_in_process(golden):
    """No cache of one materialization reaches the next: a model
    materialized after a different one in the same process still matches
    its golden (runs depend only on their inputs)."""
    offline.run_offline("Tiny-4L")
    assert snapshot("Tiny-2L") == golden["Tiny-2L"]


@pytest.mark.parametrize("model", MODELS)
def test_liveness_matches_golden(materialized, model):
    """Lint's liveness table on each pinned artifact: every allocation's
    size, end state, free and release row, byte for byte."""
    expected = json.loads(LIVENESS_GOLDEN_PATH.read_text())[model]
    assert liveness_snapshot(model, materialized) == expected


def record() -> None:
    """Rewrite both golden files from the current code."""
    run = functools.lru_cache(maxsize=None)(materialize)
    for path, summarize, models in (
            (GOLDEN_PATH, snapshot, ARTIFACT_MODELS),
            (LIVENESS_GOLDEN_PATH, liveness_snapshot, MODELS)):
        snapshots = {model: summarize(model, run) for model in models}
        path.write_text(json.dumps(snapshots, indent=1, sort_keys=True)
                        + "\n")
        print(f"wrote {len(snapshots)} snapshots to {path}")


if __name__ == "__main__":
    record()
