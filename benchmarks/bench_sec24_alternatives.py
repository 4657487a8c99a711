"""The §2.4 / §9 alternatives, quantified.

The paper argues three alternatives to materialization fall short:

- **hot spares** keep ready instances provisioned — low tail latency but
  wasted GPU time during low request rates (§2.4);
- **deferred capture** moves the capture latency out of the cold start but
  merely disperses it across serving requests (§2.4);
- **checkpoint/restore** works but snapshots the full instance state,
  orders of magnitude heavier than Medusa's artifact (§9).

This bench puts numbers on all three against Medusa on Llama2-7B.
"""

import pytest

from repro.engine import LLMEngine, Strategy
from repro.reporting import format_table
from repro.serverless import ServingCostModel

from benchmarks.bench_fig10_ttft import DURATION
from repro.serverless import ClusterSimulator, ModelDeployment, ShareGPTWorkload

MODEL = "Llama2-7B"


def _simulate(costs, cold, rps, use_graphs=True, deferred=False,
              hot_spares=0):
    workload = ShareGPTWorkload(rps=rps, duration=DURATION, seed=42)
    simulator = ClusterSimulator(ModelDeployment(
        name=costs.config.name, costs=costs, cold_start_latency=cold,
        use_cuda_graphs=use_graphs, deferred_capture=deferred,
        hot_spares=hot_spares), 4)
    return simulator.run(workload.generate(), horizon=DURATION)


@pytest.mark.benchmark(group="sec24")
def test_sec24_alternatives(benchmark, emit, coldstarts):
    def run():
        costs = ServingCostModel(MODEL)
        vllm_loading = coldstarts.loading_time(MODEL, Strategy.VLLM)
        medusa_loading = coldstarts.loading_time(MODEL, Strategy.MEDUSA)
        deferred_loading = LLMEngine(
            MODEL, Strategy.DEFERRED, seed=9100).cold_start().loading_time

        rows = []
        for rps in (2.0, 10.0):
            for label, cold, kwargs in (
                ("vLLM", vllm_loading, {}),
                ("hot spares (2 warm)", vllm_loading, {"hot_spares": 2}),
                ("deferred capture", deferred_loading, {"deferred": True}),
                ("Medusa", medusa_loading, {}),
            ):
                metrics = _simulate(costs, cold, rps, **kwargs)
                rows.append([rps, label, cold, metrics.p99_ttft,
                             f"{100 * metrics.gpu_utilization:.0f}%",
                             metrics.wasted_gpu_seconds])
        text = format_table(
            f"Alternatives to materialization ({MODEL})",
            ["RPS", "approach", "cold start (s)", "p99 TTFT (s)",
             "GPU utilization", "wasted GPU-s"], rows)
        text += ("\nhot spares buy tail latency with idle GPU time at low "
                 "rates (§2.4: 'resource wastage during periods of low "
                 "request rates'); deferred capture disperses the capture "
                 "latency into serving (§2.4: 'merely delays and disperses "
                 "it').")

        artifact, _ = coldstarts.offline(MODEL)
        # The checkpoint/restore baseline, run mechanically: snapshot a
        # cold-started instance and restore it at identical addresses.
        from repro.core.checkpoint import checkpoint_engine, restore_engine
        source = LLMEngine(MODEL, Strategy.VLLM, seed=9200)
        source.cold_start()
        checkpoint = checkpoint_engine(source)
        _restored, ckpt_latency = restore_engine(checkpoint)
        artifact_bytes = len(artifact.to_json())
        text += (
            f"\n\ncheckpoint/restore (mechanical): snapshot "
            f"{checkpoint.total_bytes / 1024**3:.1f} GiB, restore "
            f"{ckpt_latency:.2f} s (vs Medusa loading "
            f"{medusa_loading:.2f} s incl. weights)"
            f"\nMedusa artifact: {artifact_bytes / 1024**2:.1f} MiB "
            f"({checkpoint.total_bytes / artifact_bytes:.0f}x smaller; §9: "
            f"'more lightweight and could be combined with these previous "
            f"works')")
        return text
    emit("Sec24_alternatives", benchmark.pedantic(run, rounds=1, iterations=1))
