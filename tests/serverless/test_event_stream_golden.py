"""Event-stream golden of the pool simulator.

``golden_event_streams.json`` pins, per scenario, the exact stream of
events the kernel dispatches: ``loop.dispatched``, the per-kind dispatch
counts, and a sha256 over every dispatched ``(time.hex(), kind)`` pair in
dispatch order.  The scenarios are the 6 single-model and 2 multi-model
``golden_sim_metrics.json`` runs plus the stage-granular tail-contention
and preemption runs of ``test_stage_coldstart.py``.  A toy ``repro
simulate --trace`` call pins the sha256 of its stdout and of the Chrome
trace it writes, and a paper-scale ``repro simulate`` call (Llama2-7B, 20
rps burst over 16 GPUs for 300 s) pins the sha256 of its table: its
silent runs are long enough to exercise the array-priced decode runs that
the toy call's short runs never reach.

The metric goldens show that the *numbers* survive a change to the
simulator's hot path; this one shows that the *event order* does, to the
last bit of every timestamp.  Handlers are tapped through
:meth:`repro.sim.EventLoop.on`, the same registration point every pool
uses.  The streams are those of the per-step path, where every serving
step completes with its own event; the same scenarios with silent runs
(``Instance.run_ahead``) must produce the same outcome and step count
from at least 4x fewer dispatches on each metric-golden scenario, and at
least 2x fewer on ``stage/tail_contention``, whose every step contends
with the restore tail.  The CLI hashes are those of the real path.  To
re-record after an intended change to the event stream::

    PYTHONPATH=src python -m tests.serverless.test_event_stream_golden
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from collections import Counter
from pathlib import Path
from typing import Dict, Iterator

import pytest

from repro import cli
from repro.serverless import (
    ClusterSimulator,
    MultiModelCluster,
    tag_workloads,
)
from repro.sim import EventLoop
from tests.serverless.reference_step import (
    per_step_path,
    pool_outcome,
    total_steps,
)
from tests.serverless.test_golden_equivalence import (
    MULTI_SCENARIOS,
    SINGLE_SCENARIOS,
    _deployments,
    _multi_workloads,
    single_run,
)
from tests.serverless.test_stage_coldstart import (
    PREEMPTION_REQUESTS,
    burst,
    llama_deployment,
    pipelined_profile,
    preemption_cluster,
)

GOLDEN_PATH = Path(__file__).parent / "golden_event_streams.json"

#: The toy CLI call; ``--trace`` names a file in the working directory so
#: the printed path (and therefore stdout) does not depend on it.
CLI_ARGV = ["simulate", "--model", "Tiny-2L", "--strategy", "medusa",
            "--rps", "2", "--duration", "20", "--gpus", "2",
            "--shape", "burst", "--seed", "7", "--trace", "trace.json"]

#: The paper-scale CLI call: the ``simulate_burst`` benchmark op's command.
PAPER_CLI_ARGV = ["simulate", "--model", "Llama2-7B", "--strategy",
                  "medusa", "--rps", "20", "--duration", "300", "--gpus",
                  "16", "--shape", "burst", "--seed", "1"]


class _Tap:
    """Per-loop dispatch log: a running sha256 and per-kind counts."""

    def __init__(self) -> None:
        self.digest = hashlib.sha256()
        self.kinds: Counter = Counter()

    def wrap(self, handler):
        def tapped(event):
            self.digest.update(
                f"{float(event.time).hex()} {event.kind}\n".encode())
            self.kinds[event.kind] += 1
            return handler(event)
        return tapped


@contextlib.contextmanager
def tapped_loops() -> Iterator[Dict[int, _Tap]]:
    """Tap every handler registered while the context is open.

    Yields ``{id(loop): tap}``; a pool registers its handlers on a fresh
    loop per run, so the last registered loop's tap is the run's.
    """
    taps: Dict[int, _Tap] = {}
    original = EventLoop.on

    def on(self, kind, handler, priority=None):
        tap = taps.setdefault(id(self), _Tap())
        return original(self, kind, tap.wrap(handler), priority)

    EventLoop.on = on
    try:
        yield taps
    finally:
        EventLoop.on = original


def _stream(pool, taps: Dict[int, _Tap]) -> dict:
    tap = taps[id(pool.loop)]
    assert sum(tap.kinds.values()) == pool.loop.dispatched
    return {"dispatched": pool.loop.dispatched,
            "kinds": dict(sorted(tap.kinds.items())),
            "sha256": tap.digest.hexdigest()}


def run_single(name: str):
    return single_run(name)[0]


def run_multi(name: str):
    cluster = MultiModelCluster(_deployments(), num_gpus=4)
    cluster.run(tag_workloads(_multi_workloads(MULTI_SCENARIOS[name])),
                horizon=60.0)
    return cluster


def run_stage_tail_contention():
    """The staged burst of ``test_pipelined_plan_beats_scalar_ttft_under_
    burst``: 40 arrivals on a pipelined plan whose background tail
    contends with early serving."""
    simulator = ClusterSimulator(
        llama_deployment(profile=pipelined_profile(), max_running=8), 4)
    simulator.run(burst(40), horizon=30.0)
    return simulator


def run_stage_preemption():
    """``TestMultiModelPreemption``: a zero-capacity model cancels another
    model's in-flight staged cold start at a stage boundary."""
    cluster = preemption_cluster()
    cluster.run(PREEMPTION_REQUESTS, horizon=30.0)
    return cluster


#: Scenario name -> a function running it and returning the pool.
SCENARIOS = {
    **{f"single/{name}": (lambda name=name: run_single(name))
       for name in sorted(SINGLE_SCENARIOS)},
    **{f"multi/{name}": (lambda name=name: run_multi(name))
       for name in sorted(MULTI_SCENARIOS)},
    "stage/tail_contention": run_stage_tail_contention,
    "stage/preemption": run_stage_preemption,
}

#: The ``golden_sim_metrics.json`` scenarios.
METRIC_GOLDEN = [name for name in SCENARIOS
                 if not name.startswith("stage/")]


def per_step_stream(name: str) -> dict:
    """The scenario's event stream, one event per serving step."""
    with per_step_path(), tapped_loops() as taps:
        pool = SCENARIOS[name]()
    return _stream(pool, taps)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _call_cli(argv) -> str:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert cli.main(argv) == 0
    return buffer.getvalue()


def run_cli(workdir: Path) -> dict:
    """The toy ``repro simulate`` call, with and without ``--trace``, run
    in ``workdir``."""
    previous = os.getcwd()
    os.chdir(workdir)
    try:
        traced = _call_cli(CLI_ARGV)
        trace = (workdir / "trace.json").read_bytes()
        untraced = _call_cli(CLI_ARGV[:-2])
    finally:
        os.chdir(previous)
    return {"stdout_sha256": _sha256(traced.encode()),
            "trace_sha256": _sha256(trace),
            "untraced_stdout_sha256": _sha256(untraced.encode())}


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_event_stream_matches_golden(golden, name):
    assert per_step_stream(name) == golden["streams"][name]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_silent_runs_match_the_per_step_path(name):
    with per_step_path():
        reference = SCENARIOS[name]()
    pool = SCENARIOS[name]()
    assert pool_outcome(pool) == pool_outcome(reference)
    assert total_steps(pool) == total_steps(reference)
    if name in METRIC_GOLDEN:
        assert 4 * pool.loop.dispatched <= reference.loop.dispatched
    if name == "stage/tail_contention":
        # Every step of this run pays restore-tail contention.
        assert 2 * pool.loop.dispatched <= reference.loop.dispatched


def test_cli_trace_matches_golden(golden, tmp_path):
    assert run_cli(tmp_path) == golden["cli"]


def run_paper_cli() -> dict:
    """The paper-scale ``repro simulate`` call's printed table."""
    return {"stdout_sha256": _sha256(_call_cli(PAPER_CLI_ARGV).encode())}


def test_paper_scale_cli_matches_golden(golden):
    assert run_paper_cli() == golden["paper_cli"]


def test_cli_trace_does_not_depend_on_earlier_pools(tmp_path):
    """Two toy ``repro simulate --trace`` calls in one process, after
    another pool has launched instances, write the same bytes."""
    pool = SCENARIOS[METRIC_GOLDEN[0]]()
    assert sum(len(launched) for launched in pool.instances.values()) > 0
    first, second = tmp_path / "first", tmp_path / "second"
    first.mkdir()
    second.mkdir()
    assert run_cli(first) == run_cli(second)


def _record(workdir: Path) -> dict:
    return {"streams": {name: per_step_stream(name)
                        for name in sorted(SCENARIOS)},
            "cli": run_cli(workdir),
            "paper_cli": run_paper_cli()}


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as workdir:
        recorded = _record(Path(workdir))
    with open(GOLDEN_PATH, "w") as out:
        json.dump(recorded, out, indent=2, sort_keys=True)
        out.write("\n")
