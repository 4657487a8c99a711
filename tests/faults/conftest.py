"""Chaos-suite fixtures: the seed matrix entry and oracle helpers.

CI runs this suite once per entry of its seed matrix by exporting
``MEDUSA_CHAOS_SEED``; locally the suite runs with the default seed 7.
Everything downstream derives fault targets from this one seed, so a CI
failure reproduces locally with ``MEDUSA_CHAOS_SEED=<seed> pytest
tests/faults``.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core.validation import make_input_ids


@pytest.fixture(scope="session")
def chaos_seed() -> int:
    return int(os.environ.get("MEDUSA_CHAOS_SEED", "7"))


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
    ctx = engine.serving_context()
    batches = sorted(execs)
    # Settle one-time eager-path state before the first snapshot.
    ctx.input_buffer.write(make_input_ids(0))
    engine.model.forward(batches[0], batches[0], ctx)
    for batch_size in batches:
        ctx.input_buffer.write(make_input_ids(batch_size))
        engine.reset_kv_state()
        snapshot = engine.process.snapshot_payloads()
        engine.model.forward(batch_size, batch_size, ctx)
        expected = ctx.output_buffer.read().copy()
        engine.process.restore_payloads(snapshot)
        execs[batch_size].replay()
        np.testing.assert_array_equal(ctx.output_buffer.read(), expected)
