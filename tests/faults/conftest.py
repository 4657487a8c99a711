"""Chaos-suite oracle helpers (the ``chaos_seed`` fixture is in
``tests/conftest.py``)."""

from __future__ import annotations

import numpy as np

from repro.core.fastpath import eager_vs_replay
from repro.core.validation import make_input_ids


def assert_serves_correctly(engine, artifact) -> None:
    """The eager oracle: every batch size must serve, and every graph the
    engine holds must replay to the exact output of an eager forwarding."""
    execs = engine.capture_artifacts.execs
    assert execs, "engine left the cold start with no executable graphs"
    for batch_size in artifact.batches:
        padded = engine.padded_batch(batch_size)
        assert padded in execs, (
            f"batch {batch_size} pads to {padded}, which has no graph "
            f"(available: {sorted(execs)})")
    for _batch, actual, expected in eager_vs_replay(
            engine, sorted(execs), make_input_ids, make_input_ids(0)):
        np.testing.assert_array_equal(actual, expected)
