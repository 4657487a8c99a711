"""Placement-policy benchmark: flat vs locality vs affinity.

A multi-model burst workload over a small shared GPU pool: four models
take turns bursting, so the pool churns continuously — every wave has to
evict another model's idle instance and cold-start on the freed node.
That is exactly the regime where artifact *placement* matters: under the
flat policy every cold start re-fetches the artifact at the remote
baseline; the locality policy lands each launch on the node whose cache
still holds the model's artifact (DRAM or warmer after the first touch),
so the ``fetch_artifact`` stage of the LoadPlan collapses to the tier's
fetch time and the TTFT tail follows.

Everything is deterministic — the wave trace is arithmetic, the policies
consult no randomness — so repeated runs emit byte-identical tables (the
CI determinism job diffs two runs of ``--quick``).

Run it directly::

    PYTHONPATH=src python benchmarks/bench_locality.py --quick
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import Dict, List, Tuple

from repro.engine.lanes import Lane
from repro.engine.loadplan import LoadPlan, PlanStage
from repro.reporting import format_table
from repro.serverless import (
    ColdStartProfile,
    ModelDeployment,
    MultiModelCluster,
    ServingCostModel,
    SimulationMetrics,
    TaggedRequest,
)
from repro.serverless.workload import Request

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

MODELS = ["Llama2-7B", "Qwen1.5-4B", "Qwen1.5-1.8B", "Qwen1.5-0.5B"]
NUM_GPUS = 2
WAVE_GAP = 8.0
POLICIES = ("flat", "locality", "affinity")


def fetch_heavy_profile() -> ColdStartProfile:
    """A pipelined restore whose critical path is the artifact fetch.

    Mirrors the shape of the Medusa pipelined plan (fetch feeding replay
    feeding the first graph restore, larger graphs in the background) with
    the fetch dominating readiness — the §2.2 observation that loading is
    I/O-bound.  Placement rewrites only the fetch stage, so this is the
    profile on which tier residency moves the TTFT tail.
    """
    plan = LoadPlan("fetch-heavy", (
        PlanStage("fetch_artifact", Lane.DISK),
        PlanStage("replay_alloc", Lane.CPU, deps=("fetch_artifact",)),
        PlanStage("restore_graph[8]", Lane.GPU_COMPUTE,
                  deps=("replay_alloc",)),
        PlanStage("restore_graph[16]", Lane.GPU_COMPUTE,
                  deps=("restore_graph[8]",), background=True),
    ))
    # Stage boundaries at 2.0, 2.2, 2.8 (ready) and 3.6 s.
    timeline = plan.schedule({"fetch_artifact": 2.0,
                              "replay_alloc": 2.2 - 2.0,
                              "restore_graph[8]": 2.8 - 2.2,
                              "restore_graph[16]": 3.6 - 2.8})
    return ColdStartProfile(loading_time=timeline.total,
                            ready_time=timeline.ready, timeline=timeline)


def burst_trace(cycles: int, per_wave: int
                ) -> Tuple[List[TaggedRequest], float]:
    """Rotating model bursts: each wave exhausts the pool and must evict.

    With four models over two GPUs every burst finds its own instances
    evicted two waves ago, forcing a fresh cold start — the worst case
    for flat placement and the best case for residency reuse.
    """
    tagged: List[TaggedRequest] = []
    now = 0.0
    request_id = 0
    for _ in range(cycles):
        for model in MODELS:
            for k in range(per_wave):
                tagged.append(TaggedRequest(model, Request(
                    request_id=request_id, arrival_time=now + 0.01 * k,
                    prompt_tokens=128, output_tokens=32)))
                request_id += 1
            now += WAVE_GAP
    return tagged, now + 30.0


def run_policy(policy: str, cycles: int,
               per_wave: int) -> SimulationMetrics:
    """One full burst simulation under ``policy``; aggregate metrics."""
    profile = fetch_heavy_profile()
    deployments = [
        ModelDeployment(name=model, costs=ServingCostModel(model),
                        cold_start_latency=profile.serving_ready_time,
                        profile=profile)
        for model in MODELS
    ]
    cluster = MultiModelCluster(deployments, num_gpus=NUM_GPUS,
                                keep_alive=1e9, placement=policy)
    tagged, horizon = burst_trace(cycles, per_wave)
    cluster.run(tagged, horizon)
    return cluster.aggregate()


def run_bench(cycles: int, per_wave: int,
              output: pathlib.Path) -> Dict[str, SimulationMetrics]:
    """Run every policy and write the comparison table to ``output``."""
    results = {policy: run_policy(policy, cycles, per_wave)
               for policy in POLICIES}
    rows = []
    for policy, agg in results.items():
        hits = sum(agg.tier_hits.values())
        hit_rate = hits / agg.cold_starts if agg.cold_starts else 0.0
        rows.append([
            policy,
            f"{agg.p99_ttft:.4f}",
            f"{agg.p50_ttft:.4f}",
            agg.cold_starts,
            f"{hit_rate:.0%}",
            f"{agg.fetch_seconds_saved:.1f}",
        ])
    text = format_table(
        f"Placement policies: {len(MODELS)} models bursting over "
        f"{NUM_GPUS} GPUs ({cycles} cycles x {per_wave} requests)",
        ["policy", "p99 TTFT (s)", "p50 TTFT (s)", "cold starts",
         "tier hit rate", "fetch s saved"],
        rows)
    text += ("\nflat re-fetches every artifact at the remote baseline; "
             "locality lands each cold start on the node caching the "
             "model's artifact, so only first-touch fetches pay the "
             "remote cost.\n")
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(text)
    print(text)
    print(f"[written to {output}]")
    return results


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        description="placement-policy benchmark "
                    "(writes results/BenchLocality.txt)")
    parser.add_argument("--cycles", type=int, default=120,
                        help="burst cycles (each visits every model once)")
    parser.add_argument("--per-wave", type=int, default=5,
                        help="requests per model burst")
    parser.add_argument("--output",
                        default=str(REPO_ROOT / "results"
                                    / "BenchLocality.txt"))
    parser.add_argument("--quick", action="store_true",
                        help="CI mode: smaller bursts and exit 1 unless "
                             "locality strictly beats flat on p99 TTFT")
    parser.add_argument("--assert-improvement", action="store_true",
                        help="exit 1 unless locality p99 TTFT is strictly "
                             "below flat's")
    args = parser.parse_args(argv)
    cycles, per_wave = args.cycles, args.per_wave
    check = args.assert_improvement
    if args.quick:
        per_wave = min(per_wave, 3)
        check = True

    results = run_bench(cycles, per_wave, pathlib.Path(args.output))

    flat_p99 = results["flat"].p99_ttft
    locality_p99 = results["locality"].p99_ttft
    print(f"p99 TTFT: flat {flat_p99:.4f} s, locality {locality_p99:.4f} s")
    if check and not locality_p99 < flat_p99:
        print(f"FAIL: locality p99 TTFT ({locality_p99:.4f} s) does not "
              f"improve on flat ({flat_p99:.4f} s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
