"""Offline-phase goldens: the materialized artifact must stay byte-identical.

``golden_offline_artifacts.json`` pins, per model at the default offline
seed and cost model:

- the sha256 of the :func:`~repro.core.binfmt.save_binary` output;
- the sha256 of the JSON export (``to_json()``, UTF-8);
- the ``repr`` of ``capture_stage_time`` and ``analysis_time``;
- every :class:`~repro.core.offline.OfflineReport` ``stats`` value (repr);
- the capture trace's per-kind event counts.

Any change to how capture, trace analysis or lint run must leave all of
these untouched.

Regenerate (only when an artifact change is intended)::

    PYTHONPATH=src:. python tests/core/test_offline_golden.py
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import tempfile
from unittest import mock

import pytest

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
MODELS = ("Tiny-2L", "Tiny-4L", "Qwen1.5-0.5B", "Qwen1.5-4B", "Llama2-7B")


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


def snapshot(model: str) -> dict:
    """Materialize ``model`` with defaults and summarize what it produced."""
    traces = []
    real_detach = offline.detach

    def spy(process, interceptor):
        trace = real_detach(process, interceptor)
        traces.append(trace)
        return trace

    with mock.patch.object(offline, "detach", spy):
        artifact, report = offline.run_offline(model)
    assert len(traces) == 1
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "artifact.npz"
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
        "trace_event_counts": _event_counts(traces[0]),
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_the_pinned_models(golden):
    assert sorted(golden) == sorted(MODELS)


@pytest.mark.parametrize("model", MODELS)
def test_offline_artifact_matches_golden(golden, model):
    actual = snapshot(model)
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


def record() -> None:
    """Rewrite the golden file from the current code."""
    snapshots = {model: snapshot(model) for model in MODELS}
    GOLDEN_PATH.write_text(json.dumps(snapshots, indent=1, sort_keys=True)
                           + "\n")
    print(f"wrote {len(snapshots)} offline snapshots to {GOLDEN_PATH}")


if __name__ == "__main__":
    record()
