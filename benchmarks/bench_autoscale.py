"""Autoscale-policy benchmark: the GPU-seconds vs TTFT-tail trade.

Two parts:

* A policy x shape grid — every registered autoscale policy against
  every named arrival shape on a single-model pool, tabulating the p99
  TTFT, SLO attainment, cold starts, provisioned GPU-seconds, and wasted
  warm seconds.  This is the observability surface: one table showing
  how each policy spends GPU time to buy tail latency under each
  traffic pattern.

* A gated comparison (``--quick`` / ``--assert-improvement``) on the
  regime the Medusa economics predict: four models take turns bursting
  over two GPUs with long quiet gaps.  A fixed keep-alive policy never
  retires between waves (its instances linger until another model's
  wave evicts them), while the cold-cost-aware policy retires as soon
  as the idle time exceeds the *observed* cold-start cost times a
  ratio.  Both pay the same per-wave cold starts — every wave finds its
  instance gone either way — so the p99 TTFT is equal, but the
  cold-cost policy provisions strictly fewer GPU-seconds.  The gate
  fails the build if that stops being true.

Everything is deterministic — seeded workloads, arithmetic wave traces,
no wall-clock reads — so repeated runs emit byte-identical tables (the
CI determinism job diffs two runs of ``--quick``).

Run it directly::

    PYTHONPATH=src python benchmarks/bench_autoscale.py --quick
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import Dict, List, Tuple

from repro.reporting import format_table
from repro.serverless import (
    ModelDeployment,
    MultiModelCluster,
    ServingCostModel,
    ShareGPTWorkload,
    ClusterSimulator,
    SimulationMetrics,
    TaggedRequest,
    autoscaler_names,
    shape_names,
)
from repro.serverless.workload import Request

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Grid fixtures: one mid-size model, a small pool, a 1 s TTFT budget.
GRID_MODEL = "Qwen1.5-4B"
GRID_GPUS = 4
GRID_SEED = 77
GRID_SLO = 1.0

#: Gate fixtures: rotating bursts, long quiet gaps, tight pool.
GATE_MODELS = ["Llama2-7B", "Qwen1.5-4B", "Qwen1.5-1.8B", "Qwen1.5-0.5B"]
GATE_GPUS = 2
GATE_WAVE_GAP = 12.0


def run_grid_cell(policy: str, shape: str, rps: float,
                  duration: float) -> SimulationMetrics:
    """One policy/shape combination on the single-model pool."""
    workload = ShareGPTWorkload(rps=rps, duration=duration,
                                seed=GRID_SEED, shape=shape)
    deployment = ModelDeployment(name=GRID_MODEL,
                                 costs=ServingCostModel(GRID_MODEL),
                                 cold_start_latency=2.0)
    simulator = ClusterSimulator(deployment, GRID_GPUS, placement="flat",
                                 autoscale=policy, slo_ttft=GRID_SLO)
    return simulator.run(workload.generate(), horizon=duration)


def run_grid(rps: float, duration: float, output: pathlib.Path) -> None:
    """Run the full policy x shape grid and write the table."""
    rows: List[List[object]] = []
    for policy in autoscaler_names():
        for shape in shape_names():
            metrics = run_grid_cell(policy, shape, rps, duration)
            rows.append([
                policy,
                shape,
                f"{metrics.p99_ttft:.4f}",
                f"{metrics.slo_attainment:.1%}",
                metrics.cold_starts,
                f"{metrics.provisioned_gpu_seconds:.1f}",
                f"{metrics.wasted_warm_seconds:.1f}",
            ])
    text = format_table(
        f"Autoscale policies x arrival shapes ({GRID_MODEL}, "
        f"{GRID_GPUS} GPUs, {rps:g} rps x {duration:g} s, "
        f"SLO {GRID_SLO:g} s TTFT)",
        ["policy", "shape", "p99 TTFT (s)", "SLO att.", "cold starts",
         "GPU s", "wasted s"],
        rows)
    text += ("\nSLO att. counts requests whose TTFT met the budget; "
             "wasted s is provisioned-minus-busy GPU time.  Windowed "
             "policies trade extra cold starts (TTFT tail) for fewer "
             "wasted warm seconds; keep-alive is the fixed-window "
             "baseline.\n")
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(text)
    print(text)
    print(f"[written to {output}]")


def gate_trace(cycles: int, per_wave: int
               ) -> Tuple[List[TaggedRequest], float]:
    """Rotating model bursts with quiet gaps between every wave.

    Each model bursts once per cycle; with four models over two GPUs a
    model's instance is idle for three full wave gaps before its next
    burst, far past any sane cold-cost window, so self-retirement always
    fires before the work returns.
    """
    tagged: List[TaggedRequest] = []
    now = 0.0
    request_id = 0
    for _ in range(cycles):
        for model in GATE_MODELS:
            for k in range(per_wave):
                tagged.append(TaggedRequest(model, Request(
                    request_id=request_id, arrival_time=now + 0.01 * k,
                    prompt_tokens=128, output_tokens=32)))
                request_id += 1
            now += GATE_WAVE_GAP
    return tagged, now + 30.0


def run_gate_policy(policy: str, cycles: int,
                    per_wave: int) -> SimulationMetrics:
    """One rotating-burst run; keep-alive uses an effectively-infinite
    window so it models the 'always warm until evicted' baseline."""
    deployments = [
        ModelDeployment(name=model, costs=ServingCostModel(model),
                        cold_start_latency=2.0)
        for model in GATE_MODELS
    ]
    keep_alive = 1e9 if policy == "keep-alive" else 20.0
    cluster = MultiModelCluster(deployments, num_gpus=GATE_GPUS,
                                keep_alive=keep_alive, placement="flat",
                                autoscale=policy, slo_ttft=GRID_SLO)
    tagged, horizon = gate_trace(cycles, per_wave)
    cluster.run(tagged, horizon)
    return cluster.aggregate()


def run_gate(cycles: int, per_wave: int) -> Tuple[str, bool]:
    """Compare keep-alive vs cold-cost on the rotating-burst trace.

    Returns the report text and whether the gate passed: the cold-cost
    policy must match the keep-alive p99 TTFT (identical per-wave cold
    starts) while provisioning strictly fewer GPU-seconds.
    """
    keep = run_gate_policy("keep-alive", cycles, per_wave)
    cost = run_gate_policy("cold-cost", cycles, per_wave)
    lines = [
        f"gate: {len(GATE_MODELS)} models rotating over {GATE_GPUS} GPUs "
        f"({cycles} cycles x {per_wave} requests, "
        f"{GATE_WAVE_GAP:g} s wave gap)",
        f"  keep-alive: p99 TTFT {keep.p99_ttft:.4f} s, "
        f"{keep.cold_starts} cold starts, "
        f"{keep.provisioned_gpu_seconds:.1f} GPU s "
        f"({keep.wasted_warm_seconds:.1f} wasted)",
        f"  cold-cost:  p99 TTFT {cost.p99_ttft:.4f} s, "
        f"{cost.cold_starts} cold starts, "
        f"{cost.provisioned_gpu_seconds:.1f} GPU s "
        f"({cost.wasted_warm_seconds:.1f} wasted)",
    ]
    ok = (cost.p99_ttft <= keep.p99_ttft + 1e-9
          and cost.provisioned_gpu_seconds < keep.provisioned_gpu_seconds)
    lines.append("  gate: PASS — cold-cost matches the tail and saves "
                 "GPU time" if ok else
                 "  gate: FAIL — cold-cost must hold p99 TTFT while "
                 "provisioning strictly fewer GPU-seconds")
    return "\n".join(lines) + "\n", ok


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        description="autoscale-policy benchmark "
                    "(writes results/BenchAutoscale.txt)")
    parser.add_argument("--rps", type=float, default=2.0,
                        help="nominal grid arrival rate")
    parser.add_argument("--duration", type=float, default=240.0,
                        help="grid workload duration (seconds)")
    parser.add_argument("--cycles", type=int, default=10,
                        help="gate burst cycles (each visits every model)")
    parser.add_argument("--per-wave", type=int, default=4,
                        help="gate requests per model burst")
    parser.add_argument("--output",
                        default=str(REPO_ROOT / "results"
                                    / "BenchAutoscale.txt"))
    parser.add_argument("--quick", action="store_true",
                        help="CI mode: shorter grid and enforce the "
                             "cold-cost-vs-keep-alive gate")
    parser.add_argument("--assert-improvement", action="store_true",
                        help="exit 1 unless cold-cost beats keep-alive "
                             "on GPU-seconds at equal-or-better p99 TTFT")
    args = parser.parse_args(argv)
    duration, cycles = args.duration, args.cycles
    check = args.assert_improvement
    if args.quick:
        duration = min(duration, 120.0)
        cycles = min(cycles, 6)
        check = True

    output = pathlib.Path(args.output)
    run_grid(args.rps, duration, output)
    report, ok = run_gate(cycles, args.per_wave)
    print(report)
    with open(output, "a") as handle:
        handle.write("\n" + report)
    if check and not ok:
        print("FAIL: the cold-cost-aware policy no longer beats fixed "
              "keep-alive on GPU-seconds at equal-or-better p99 TTFT",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
