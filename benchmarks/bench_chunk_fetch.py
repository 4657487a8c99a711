"""Chunk-streamed fetch benchmark: monolithic blob vs content-addressed
chunk stream.

Two cases, both fully deterministic (simulated seconds and byte counts
only — the CI determinism job diffs two runs byte for byte):

``cold-remote``
    One Medusa cold start of Tiny-2L from a remote store, monolithic
    (one ``fetch_artifact`` blob gating the restore) vs chunk-streamed
    (``fetch_chunk[i]`` stages on the DISK lane, where only the chunks
    ``restore_graph[0]`` needs are foreground and the large graph tails
    stream in a background tail).  The foreground fetch — both seconds
    and bytes — must strictly decrease: that is the whole point of the
    chunk-granular path.

``warm-sibling``
    A cluster node that previously cold-started a *sibling* model whose
    manifest shares every chunk digest (same content, different
    identity).  Chunk-level residency makes the sibling's cold start
    land on mostly-warm bytes: the foreground bytes actually fetched
    must drop by at least 30% against a cold node.

Run it directly::

    PYTHONPATH=src python benchmarks/bench_chunk_fetch.py --quick
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import tempfile
from typing import Dict, List, Tuple

from repro.core.binfmt import LazyArtifact
from repro.core.chunks import simulation_chunks
from repro.core.offline import run_offline
from repro.core.online import medusa_cold_start
from repro.core.store import ArtifactStore
from repro.reporting import format_table
from repro.serverless import (
    ClusterSimulator,
    ModelDeployment,
    ServingCostModel,
)
from repro.serverless.instance import ColdStartProfile
from repro.serverless.placement import LocalityPlacement
from repro.serverless.workload import Request
from repro.simgpu.costmodel import CostModel, GpuProperties
from repro.simgpu.process import ExecutionMode

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

MODEL = "Tiny-2L"
SIBLING = "Tiny-2L-sibling"


def tiny_cost_model() -> CostModel:
    """The small simulated GPU the tier-1 tests use for tiny models."""
    return CostModel(gpu=GpuProperties(name="Tiny-GPU",
                                       total_memory_bytes=256 * 1024**2))


def cold_remote_case(store: ArtifactStore, artifact,
                     cost_model: CostModel) -> Dict[str, float]:
    """Monolithic vs chunk-streamed cold start, engine-level timings."""
    import numpy as np

    from repro.core.binfmt import save_binary
    from repro.core.chunks import open_binary

    key = (artifact.gpu_name, artifact.model_name)
    manifest = store.manifest(*key)

    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "monolithic.medusa"
        save_binary(artifact, path)
        _, mono_report = medusa_cold_start(
            MODEL, open_binary(path), mode=ExecutionMode.TIMING,
            cost_model=cost_model)
    _, chunk_report = medusa_cold_start(
        MODEL, store.get_lazy(*key), mode=ExecutionMode.TIMING,
        cost_model=cost_model)

    mono = ColdStartProfile.from_report(mono_report)
    chunked = ColdStartProfile.from_report(chunk_report)
    return {
        "mono_plan": mono_report.timeline.plan,
        "chunk_plan": chunk_report.timeline.plan,
        "mono_fetch_s": mono.fetch_duration,
        "chunk_fetch_s": chunked.fetch_duration,
        "mono_fg_bytes": float(manifest.total_bytes),
        "chunk_fg_bytes": float(manifest.foreground_bytes),
        "mono_ready_s": mono.serving_ready_time,
        "chunk_ready_s": chunked.serving_ready_time,
    }


def _one_cold_start(policy, report, chunks, key: Tuple[str, str],
                    costs: ServingCostModel) -> "SimulationMetrics":
    """Run one single-request simulation (exactly one cold start)."""
    deployment = ModelDeployment.from_report(costs, report, chunks=chunks,
                                             artifact_key=key)
    simulator = ClusterSimulator(deployment, 1, placement=policy)
    requests = [Request(request_id=0, arrival_time=0.0,
                        prompt_tokens=32, output_tokens=4)]
    return simulator.run(requests, horizon=60.0)


def warm_sibling_case(store: ArtifactStore, artifact,
                      cost_model: CostModel) -> Dict[str, float]:
    """Cold node vs a node warmed by a chunk-sharing sibling model."""
    sibling = LazyArtifact(None, data=artifact.members(),
                           meta=dict(artifact.metadata(), model_name=SIBLING))
    store.put(sibling)

    key = (artifact.gpu_name, artifact.model_name)
    sibling_key = (sibling.gpu_name, sibling.model_name)
    chunks = simulation_chunks(store.manifest(*key))
    sibling_chunks = simulation_chunks(store.manifest(*sibling_key))

    _, report = medusa_cold_start(MODEL, store.get_lazy(*key),
                                  mode=ExecutionMode.TIMING,
                                  cost_model=cost_model)
    costs = ServingCostModel(MODEL)
    # One shared policy instance: the first run's chunk residency is the
    # second run's warmth (make_policy reuses instances as-is).
    policy = LocalityPlacement(num_nodes=1)
    cold = _one_cold_start(policy, report, chunks, key, costs)
    warm = _one_cold_start(policy, report, sibling_chunks, sibling_key,
                           costs)

    stats = store.stats()
    return {
        "cold_fg_bytes": cold.fetch_bytes_foreground,
        "warm_fg_bytes": warm.fetch_bytes_foreground,
        "warm_chunk_hits": float(warm.chunk_hits),
        "warm_bytes_deduped": warm.bytes_deduped,
        "total_chunks": float(len(sibling_chunks)),
        "store_dedup_ratio": float(stats["dedup_ratio"]),
    }


def run_bench(output: pathlib.Path) -> Tuple[Dict[str, float],
                                             Dict[str, float]]:
    """Both cases; writes the comparison tables to ``output``."""
    cost_model = tiny_cost_model()
    artifact, _ = run_offline(MODEL, seed=1101, mode=ExecutionMode.COMPUTE,
                              cost_model=cost_model)
    with tempfile.TemporaryDirectory() as tmp:
        store = ArtifactStore(tmp)
        store.put(artifact)
        cold = cold_remote_case(store, artifact, cost_model)
        warm = warm_sibling_case(store, artifact, cost_model)

    rows: List[List[str]] = [
        ["plan", str(cold["mono_plan"]), str(cold["chunk_plan"])],
        ["foreground fetch (s)", f"{cold['mono_fetch_s']:.6f}",
         f"{cold['chunk_fetch_s']:.6f}"],
        ["bytes fetched before ready", f"{cold['mono_fg_bytes']:.0f}",
         f"{cold['chunk_fg_bytes']:.0f}"],
        ["serving-ready (s)", f"{cold['mono_ready_s']:.6f}",
         f"{cold['chunk_ready_s']:.6f}"],
    ]
    text = format_table(
        f"Cold-remote fetch: {MODEL}, monolithic blob vs chunk stream",
        ["metric", "monolithic", "chunk-streamed"], rows)
    text += ("\ngraph tails past the first restore stream in a "
             "background tail, so only the head/replay/kernel chunks "
             "gate readiness.\n\n")
    saved = (1.0 - warm["warm_fg_bytes"] / warm["cold_fg_bytes"]
             if warm["cold_fg_bytes"] else 0.0)
    rows = [
        ["foreground bytes fetched", f"{warm['cold_fg_bytes']:.0f}",
         f"{warm['warm_fg_bytes']:.0f}"],
        ["chunk hits", "0", f"{warm['warm_chunk_hits']:.0f}"],
        ["bytes deduped", "0", f"{warm['warm_bytes_deduped']:.0f}"],
    ]
    text += format_table(
        f"Warm-sibling dedup: cold node vs node hosting {SIBLING} "
        f"({warm['total_chunks']:.0f} shared chunks, store dedup "
        f"{warm['store_dedup_ratio']:.2f}x)",
        ["metric", "cold node", "sibling-warm node"], rows)
    text += (f"\ncontent-addressed residency lets the sibling's cold "
             f"start skip {saved:.0%} of its foreground fetch bytes.\n")
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(text)
    print(text)
    print(f"[written to {output}]")
    return cold, warm


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        description="chunk-streamed fetch benchmark "
                    "(writes results/BenchChunkFetch.txt)")
    parser.add_argument("--output",
                        default=str(REPO_ROOT / "results"
                                    / "BenchChunkFetch.txt"))
    parser.add_argument("--quick", action="store_true",
                        help="CI mode: enforce the improvement gates")
    parser.add_argument("--assert-improvement", action="store_true",
                        help="exit 1 unless chunk streaming strictly "
                             "shrinks the foreground fetch and the "
                             "warm sibling saves >= 30%% of its bytes")
    args = parser.parse_args(argv)
    check = args.quick or args.assert_improvement

    cold, warm = run_bench(pathlib.Path(args.output))

    failures: List[str] = []
    if not cold["chunk_fetch_s"] < cold["mono_fetch_s"]:
        failures.append(
            f"foreground fetch seconds did not strictly decrease: "
            f"chunked {cold['chunk_fetch_s']:.6f} vs monolithic "
            f"{cold['mono_fetch_s']:.6f}")
    if not cold["chunk_fg_bytes"] < cold["mono_fg_bytes"]:
        failures.append(
            f"foreground fetch bytes did not strictly decrease: "
            f"chunked {cold['chunk_fg_bytes']:.0f} vs monolithic "
            f"{cold['mono_fg_bytes']:.0f}")
    if not warm["warm_fg_bytes"] <= 0.7 * warm["cold_fg_bytes"]:
        failures.append(
            f"warm-sibling fetch bytes saved under 30%: "
            f"{warm['warm_fg_bytes']:.0f} vs cold "
            f"{warm['cold_fg_bytes']:.0f}")
    if check and failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
