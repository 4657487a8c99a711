#!/usr/bin/env python
"""Bring your own model: define a config, materialize it, measure the win.

Medusa's offline phase runs once per <GPU type, model type>.  This example
registers a custom 28-layer model (not in the paper's zoo), runs the three
cold-start strategies on it, and saves/loads the materialization artifact
through a file — the workflow a deployment would automate per model.
"""

import tempfile
from pathlib import Path

from repro import LLMEngine, Strategy, save_binary
from repro.core.chunks import open_binary
from repro.core.offline import OfflinePhase
from repro.core.online import medusa_cold_start
from repro.models.config import ModelConfig

# A custom model: 6.1 GB of weights, 28 layers, node totals of your choice
# (nodes(batch) = layers * kernels_per_layer + epilogue; here 28*11+12 = 320
# per graph, 35 graphs, plus 10 large-batch reduce kernels).
CUSTOM = ModelConfig(
    name="Custom-3B",
    family="llama",
    param_bytes=int(6.1 * 1024**3),
    num_layers=28,
    hidden_size=3072,
    vocab_size=48000,
    total_graph_nodes=35 * (28 * 11 + 12) + 10,
    checkpoint_seed=12345,
)


def main() -> None:
    template = CUSTOM.kernel_template()
    print(f"{CUSTOM.name}: {CUSTOM.num_layers} layers x "
          f"{len(template.layer_kernels)} kernels + "
          f"{template.fixed_kernels} prologue/epilogue kernels "
          f"= {CUSTOM.nodes_for_batch(1)} nodes per decode graph")

    print("\n== Baseline strategies")
    results = {}
    for strategy in (Strategy.VLLM, Strategy.VLLM_ASYNC,
                     Strategy.NO_CUDA_GRAPH):
        report = LLMEngine(CUSTOM, strategy, seed=5).cold_start()
        results[strategy] = report.loading_time
        print(f"   {strategy.label:14s} loading phase "
              f"{report.loading_time:6.3f} s")

    print("\n== Offline materialization (+ artifact file round trip)")
    artifact, offline_report = OfflinePhase(CUSTOM, seed=6).run()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "custom-3b.medusa"
        size = save_binary(artifact, path)
        print(f"   artifact: {size / 1024:.0f} KiB at {path.name}, offline "
              f"took {offline_report.total_time:.1f} s (simulated)")
        loaded = open_binary(path)

    print("\n== Medusa cold start from the loaded artifact")
    _engine, medusa_report = medusa_cold_start(CUSTOM, loaded, seed=7)
    print(f"   Medusa         loading phase {medusa_report.loading_time:6.3f} s")
    reduction = 1 - medusa_report.loading_time / results[Strategy.VLLM]
    print(f"\nLoading-phase reduction vs vLLM: {100 * reduction:.1f}%")


if __name__ == "__main__":
    main()
