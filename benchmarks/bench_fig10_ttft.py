"""Figure 10: p99 TTFT under real-world traces at RPS 2 and 10.

ShareGPT-shaped requests, Poisson arrivals, warm execution-environment pool
(runtime init eliminated; cold start = loading phase), 4 GPUs.  Paper:
Medusa cuts the p99 TTFT by ~50.5% (Llama2-7B, RPS 2) and ~53.0% (RPS 10)
vs vLLM, and also beats w/o-CUDA-GRAPH (shorter cold start *and* faster
serving).
"""

import pytest

from repro.engine import Strategy
from repro.reporting import format_table
from repro.serverless import (
    ClusterSimulator,
    ModelDeployment,
    ServingCostModel,
    ShareGPTWorkload,
)

MODELS = ["Llama2-7B", "Qwen1.5-4B"]
STRATEGIES = [Strategy.VLLM, Strategy.VLLM_ASYNC, Strategy.NO_CUDA_GRAPH,
              Strategy.MEDUSA]
DURATION = 300.0


def run_scenario(costs, cold_start, use_graphs, rps, seed=42,
                 duration=DURATION):
    workload = ShareGPTWorkload(rps=rps, duration=duration, seed=seed)
    simulator = ClusterSimulator(ModelDeployment(
        name=costs.config.name, costs=costs, cold_start_latency=cold_start,
        use_cuda_graphs=use_graphs), 4)
    return simulator.run(workload.generate(), horizon=duration)


def _figure10(coldstarts):
    rows = []
    summary_lines = []
    for model in MODELS:
        costs = ServingCostModel(model)
        for rps in (2, 10):
            p99 = {}
            for strategy in STRATEGIES:
                loading = coldstarts.loading_time(model, strategy)
                metrics = run_scenario(
                    costs, cold_start=loading,
                    use_graphs=strategy.uses_cuda_graphs, rps=rps)
                p99[strategy] = metrics.p99_ttft
                rows.append([model, rps, strategy.label, loading,
                             metrics.p99_ttft, metrics.p50_ttft,
                             metrics.cold_starts])
            reduction = 100 * (1 - p99[Strategy.MEDUSA] / p99[Strategy.VLLM])
            summary_lines.append(
                f"{model} RPS {rps}: Medusa p99 reduction vs vLLM = "
                f"{reduction:.1f}%")
    text = format_table(
        "Figure 10: p99 TTFT under ShareGPT traces (4 GPUs, warm pool)",
        ["model", "RPS", "strategy", "cold start (s)", "p99 TTFT (s)",
         "p50 TTFT (s)", "cold starts"], rows)
    text += "\n" + "\n".join(summary_lines)
    text += "\n(paper: -50.5% at RPS 2 and -53.0% at RPS 10 for Llama2-7B)"
    return text


@pytest.mark.benchmark(group="fig10")
def test_fig10_ttft_tail_latency(benchmark, emit, coldstarts):
    text = benchmark.pedantic(_figure10, args=(coldstarts,),
                              rounds=1, iterations=1)
    emit("Figure10", text)
