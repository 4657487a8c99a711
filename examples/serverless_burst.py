#!/usr/bin/env python
"""Serverless burst scenario: how cold starts shape the TTFT tail.

The motivation in the paper's introduction: LLM request rates are bursty,
so serverless deployments scale instances up and down, and every scale-up
pays a cold start that lands straight on some requests' time-to-first-token.

This example serves a ShareGPT-like Poisson trace on a 4-GPU pool under all
four strategies and reports the p50/p99 TTFT and the number of cold starts —
Figure 10's experiment as a script.
"""

from repro import (
    ClusterSimulator,
    LLMEngine,
    ModelDeployment,
    ServingCostModel,
    ShareGPTWorkload,
    Strategy,
    medusa_cold_start,
    run_offline,
)

MODEL = "Llama2-7B"
RPS = 10.0
DURATION = 300.0


def cold_start_latency(strategy: Strategy, artifact) -> float:
    """The loading-phase time of one cold start under ``strategy``."""
    if strategy is Strategy.MEDUSA:
        _engine, report = medusa_cold_start(MODEL, artifact, seed=7)
    else:
        report = LLMEngine(MODEL, strategy, seed=7).cold_start()
    return report.loading_time


def main() -> None:
    print(f"Materializing {MODEL} offline...")
    artifact, _ = run_offline(MODEL, seed=11)
    costs = ServingCostModel(MODEL)
    workload = ShareGPTWorkload(rps=RPS, duration=DURATION, seed=99)
    requests = workload.generate()
    print(f"Trace: {len(requests)} requests over {DURATION:.0f} s "
          f"(Poisson, RPS {RPS}; ShareGPT-like lengths)\n")

    print(f"{'strategy':14s} {'cold start':>10s} {'p50 TTFT':>9s} "
          f"{'p99 TTFT':>9s} {'cold starts':>11s}")
    baseline_p99 = None
    for strategy in (Strategy.VLLM, Strategy.VLLM_ASYNC,
                     Strategy.NO_CUDA_GRAPH, Strategy.MEDUSA):
        latency = cold_start_latency(strategy, artifact)
        simulator = ClusterSimulator(ModelDeployment(
            name=MODEL, costs=costs, cold_start_latency=latency,
            use_cuda_graphs=strategy.uses_cuda_graphs), 4)
        metrics = simulator.run(requests, horizon=DURATION)
        if baseline_p99 is None:
            baseline_p99 = metrics.p99_ttft
        print(f"{strategy.label:14s} {latency:9.2f}s {metrics.p50_ttft:8.3f}s "
              f"{metrics.p99_ttft:8.3f}s {metrics.cold_starts:11d}")
    print("\nMedusa's shorter loading phase pulls the whole scale-up path "
          "out of the TTFT tail (paper: ~53% lower p99 at RPS 10).")


if __name__ == "__main__":
    main()
