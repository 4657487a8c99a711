#!/usr/bin/env python
"""Quickstart: materialize one model offline, then cold-start it with Medusa.

Runs the full pipeline on Qwen1.5-4B (the paper's running example):

1. a vanilla vLLM cold start, to see the baseline loading phase;
2. the Medusa *offline phase* (intercepted capture + analysis), producing a
   materialization artifact;
3. a Medusa *online* cold start in a fresh simulated process, restoring the
   KV-cache initialization and all 35 CUDA graphs instead of re-profiling
   and re-capturing them.

All times are simulated seconds on the modeled A100-40GB.
"""

from repro import LLMEngine, Strategy, medusa_cold_start, run_offline

MODEL = "Qwen1.5-4B"


def main() -> None:
    print(f"== Vanilla vLLM cold start ({MODEL})")
    vanilla = LLMEngine(MODEL, Strategy.VLLM, seed=1)
    vanilla_report = vanilla.cold_start()
    for stage, duration in vanilla_report.stage_durations.items():
        print(f"   {stage:18s} {duration:6.3f} s")
    print(f"   loading phase: {vanilla_report.loading_time:.3f} s, "
          f"cold start: {vanilla_report.cold_start_time:.3f} s")

    print("\n== Medusa offline phase (runs once per <GPU type, model type>)")
    artifact, offline_report = run_offline(MODEL, seed=2)
    print(f"   capturing stage: {offline_report.capture_stage_time:.1f} s, "
          f"analysis stage: {offline_report.analysis_time:.1f} s")
    print(f"   materialized {artifact.total_nodes} CUDA graph nodes across "
          f"{len(artifact.batches)} batch sizes, "
          f"{artifact.total_replay_events} replayable allocation events, "
          f"{len(artifact.permanent_contents)} permanent buffers dumped")

    print("\n== Medusa online cold start (fresh process, restore-based)")
    _engine, medusa_report = medusa_cold_start(MODEL, artifact, seed=3)
    for stage, duration in medusa_report.stage_durations.items():
        print(f"   {stage:18s} {duration:6.3f} s")
    print(f"   loading phase: {medusa_report.loading_time:.3f} s")

    reduction = 1 - medusa_report.loading_time / vanilla_report.loading_time
    print(f"\nLoading-phase reduction: {100 * reduction:.1f}% "
          f"(paper reports 42.5% on average across ten models)")


if __name__ == "__main__":
    main()
