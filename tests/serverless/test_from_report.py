"""A cold start's report is the whole deployment description.

``ModelDeployment.from_report`` derives the cold-start latency from the
report's scheduled plan and the serving flags from its strategy, for
every strategy; ``repro simulate`` is that deployment on a
``ClusterSimulator``, nothing more.
"""

import contextlib
import io

import pytest

from repro.cli import main
from repro.core.offline import run_offline
from repro.core.online import cold_start_for
from repro.engine import Strategy
from repro.reporting import format_table
from repro.serverless import (
    ClusterSimulator,
    ColdStartProfile,
    ModelDeployment,
    ServingCostModel,
    ShareGPTWorkload,
)

MODEL = "Tiny-2L"
SEED = 7

#: ``repro simulate --strategy`` names.
STRATEGIES = {
    "vllm": Strategy.VLLM,
    "vllm-async": Strategy.VLLM_ASYNC,
    "no-cuda-graph": Strategy.NO_CUDA_GRAPH,
    "deferred": Strategy.DEFERRED,
    "medusa": Strategy.MEDUSA,
}


@pytest.fixture(scope="module")
def reports():
    """One Tiny-2L cold-start report per strategy, as the CLI makes them."""
    artifact, _ = run_offline(MODEL, seed=SEED)
    reports = {}
    for strategy in Strategy:
        _engine, reports[strategy] = cold_start_for(
            MODEL, strategy,
            artifact=artifact if strategy is Strategy.MEDUSA else None,
            seed=SEED)
    return reports


def test_every_strategy_is_covered():
    assert set(STRATEGIES.values()) == set(Strategy)


@pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.name)
def test_from_report_derives_flags_and_latency(reports, strategy):
    report = reports[strategy]
    costs = ServingCostModel(MODEL)
    deployment = ModelDeployment.from_report(costs, report)
    assert deployment.use_cuda_graphs == strategy.uses_cuda_graphs
    assert deployment.deferred_capture == (strategy is Strategy.DEFERRED)
    assert deployment.cold_start_latency == report.ready_time
    assert deployment.name == MODEL
    assert deployment.costs is costs
    assert deployment.profile == ColdStartProfile.from_report(report)


def test_overrides_set_the_other_fields(reports):
    report = reports[Strategy.MEDUSA]
    deployment = ModelDeployment.from_report(
        ServingCostModel(MODEL), report, name="m", hot_spares=1,
        max_running=3)
    assert (deployment.name, deployment.hot_spares,
            deployment.max_running) == ("m", 1, 3)
    assert deployment.cold_start_latency == report.ready_time


@pytest.mark.parametrize("name", sorted(STRATEGIES))
def test_cli_prints_the_hand_built_pool_table(reports, name):
    strategy = STRATEGIES[name]
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert main(["simulate", "--model", MODEL, "--strategy", name,
                     "--rps", "2", "--duration", "30", "--gpus", "2",
                     "--shape", "burst", "--seed", str(SEED)]) == 0
    simulator = ClusterSimulator(
        ModelDeployment.from_report(ServingCostModel(MODEL),
                                    reports[strategy]), 2)
    # Floats, as the CLI parses them: the workload's seeds derive from
    # the printed rate and duration.
    workload = ShareGPTWorkload(rps=2.0, duration=30.0, seed=SEED,
                                shape="burst")
    metrics = simulator.run(workload.generate(), horizon=30.0)
    expected = format_table(
        f"Trace simulation: {MODEL}, {strategy.label}, RPS 2, 2 GPUs, "
        f"locality placement, keep-alive autoscale, burst arrivals",
        ["metric", "value"],
        [[key, value] for key, value in sorted(metrics.summary().items())])
    assert buffer.getvalue() == expected + "\n"
