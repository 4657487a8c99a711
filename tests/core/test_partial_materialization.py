"""Partial materialization: fewer captured batch sizes, coarser padding."""

import pytest

from repro.core.offline import OfflinePhase
from repro.core.online import medusa_cold_start
from repro.core.validation import validate_restoration
from repro.errors import MaterializationError
from repro.simgpu.process import ExecutionMode

from tests.conftest import tiny_cost_model


@pytest.fixture(scope="module")
def partial_artifact():
    artifact, report = OfflinePhase(
        "Tiny-4L", seed=301, mode=ExecutionMode.COMPUTE,
        cost_model=tiny_cost_model(), batch_subset=(1, 8)).run()
    return artifact, report


class TestPartialOffline:
    def test_artifact_holds_only_the_subset(self, partial_artifact):
        artifact, _ = partial_artifact
        assert artifact.batches == [1, 8]

    def test_subset_outside_capture_list_rejected(self):
        with pytest.raises(MaterializationError):
            OfflinePhase("Tiny-4L", batch_subset=(1, 3),
                         cost_model=tiny_cost_model())

    def test_partial_offline_is_cheaper(self, partial_artifact,
                                        tiny4l_artifact):
        _partial, partial_report = partial_artifact
        _full, full_report = tiny4l_artifact
        assert partial_report.analysis_time < full_report.analysis_time


class TestPartialOnline:
    def test_restores_and_validates(self, partial_artifact):
        artifact, _ = partial_artifact
        report = validate_restoration("Tiny-4L", artifact, batches=[1, 8],
                                      seed=302, cost_model=tiny_cost_model())
        assert report.passed

    def test_uncovered_batch_pads_to_next_available(self, partial_artifact):
        artifact, _ = partial_artifact
        engine, _report = medusa_cold_start(
            "Tiny-4L", artifact, seed=303, cost_model=tiny_cost_model())
        assert engine.padded_batch(2) == 8      # 2 and 4 were not captured
        assert engine.padded_batch(1) == 1
        before = engine.process.clock.now
        engine.decode_step(2)                    # replays the batch-8 graph
        assert engine.process.clock.now > before
