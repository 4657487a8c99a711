"""Command-line interface: the paper's workflow as subcommands.

Mirrors the original artifact's scripts (`scripts/serverless_llm.py
--offline`, `scripts/overall.py`, ...) as one CLI::

    python -m repro models
    python -m repro coldstart --model Qwen1.5-4B --strategy vllm
    python -m repro offline   --model Qwen1.5-4B --output qwen4b.medusa.json
    python -m repro lint      qwen4b.medusa.json
    python -m repro lint-plan --all --format json
    python -m repro validate  --artifact qwen4b.medusa.json
    python -m repro restore   --model Qwen1.5-4B --artifact qwen4b.medusa.json --validate
    python -m repro simulate  --model Llama2-7B  --rps 10 --strategy medusa

Artifact paths ending in ``.npz`` select the binary format: ``offline``
writes via :func:`repro.core.binfmt.save_binary`, and the consuming
commands open them lazily (:class:`repro.core.binfmt.LazyArtifact`),
which puts ``coldstart --strategy medusa``/``restore``/``validate`` on
the pipelined plan (JSON artifacts restore on the monolithic one).

``lint``, ``lint-plan``, and ``validate`` share the CI-friendly
exit-code convention (``coldstart`` and ``restore`` share its 2):
0 = clean/passed, 1 = diagnostics found or outputs diverged, 2 = the
artifact could not be read at all.  With ``validate --degraded-ok`` a
restore that walked the degradation ladder but still serves correct
outputs exits 3 — distinguishable from both a clean pass and a hard
failure.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.core.artifact import MaterializedModel
from repro.core.binfmt import LazyArtifact, save_binary
from repro.core.offline import run_offline
from repro.core.online import cold_start_for
from repro.core.validation import validate_restoration
from repro.engine import Strategy
from repro.errors import ArtifactError
from repro.models.zoo import PAPER_MODELS, get_model_config
from repro.reporting import format_stage_breakdown, format_table
from repro.serverless import (
    ClusterSimulator,
    ServingCostModel,
    ShareGPTWorkload,
    SimulationConfig,
    autoscaler_names,
    policy_names,
    shape_names,
)

_STRATEGY_NAMES = {
    "vllm": Strategy.VLLM,
    "vllm-async": Strategy.VLLM_ASYNC,
    "medusa": Strategy.MEDUSA,
    "no-cuda-graph": Strategy.NO_CUDA_GRAPH,
    "deferred": Strategy.DEFERRED,
}


def _strategy(name: str) -> Strategy:
    strategy = _STRATEGY_NAMES.get(name.lower())
    if strategy is None:
        raise argparse.ArgumentTypeError(
            f"unknown strategy {name!r}; choose from "
            f"{', '.join(_STRATEGY_NAMES)}")
    return strategy


def _load_artifact(path: str):
    """Open an artifact path: ``.npz`` lazily, anything else as JSON.

    Binary artifacts come back as :class:`repro.core.binfmt.LazyArtifact`,
    which puts ``coldstart``/``restore``/``validate`` on the pipelined
    plan; an unreadable one raises
    :class:`~repro.errors.ArtifactError`, which each command reports as
    exit code 2.
    """
    if str(path).endswith(".npz"):
        return LazyArtifact(path)
    return MaterializedModel.load(path)


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree for every subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Medusa (ASPLOS '25) reproduction on a simulated GPU")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("models", help="list the model zoo (Table 1)")

    cold = sub.add_parser("coldstart", help="run one cold start")
    cold.add_argument("--model", required=True)
    cold.add_argument("--strategy", type=_strategy, default=Strategy.VLLM)
    cold.add_argument("--artifact", help="Medusa artifact path "
                                         "(required for --strategy medusa)")
    cold.add_argument("--seed", type=int, default=0)

    save_tensor = sub.add_parser(
        "save-tensor", help="write a model's weights to disk "
                            "(the artifact's --save_tensor step)")
    save_tensor.add_argument("--model", required=True)
    save_tensor.add_argument("--dir", required=True,
                             help="checkpoint directory")

    offline = sub.add_parser("offline", help="materialize a model (offline phase)")
    offline.add_argument("--model", required=True)
    offline.add_argument("--output", required=True,
                         help="artifact JSON output path")
    offline.add_argument("--seed", type=int, default=0)

    lint = sub.add_parser(
        "lint", help="statically verify an artifact (no execution)")
    lint.add_argument("artifact", help="artifact JSON path")
    lint.add_argument("--json", action="store_true",
                      help="emit the full report as JSON")

    lint_plan = sub.add_parser(
        "lint-plan",
        help="statically verify cold-start load plans (PLN0xx codes)")
    lint_plan.add_argument("plan", nargs="?",
                           help="a registered plan name (repro.engine."
                                "strategies); omit with --all")
    lint_plan.add_argument("--all", action="store_true",
                           help="lint every registered plan, including "
                                "degraded-ladder variants")
    lint_plan.add_argument("--format", choices=("text", "json"),
                           default="text", help="report format")

    validate = sub.add_parser(
        "validate", help="full restore + output validation of an artifact")
    validate.add_argument("--artifact", required=True)
    validate.add_argument("--model",
                          help="engine model (default: the artifact's)")
    validate.add_argument("--json", action="store_true",
                          help="emit the result as JSON")
    validate.add_argument("--seed", type=int, default=0)
    validate.add_argument("--degraded-ok", action="store_true",
                          help="tolerate restore faults via the degradation "
                               "ladder; exit 3 when the engine serves on a "
                               "lower rung instead of failing with 1")

    restore = sub.add_parser("restore", help="Medusa online cold start")
    restore.add_argument("--model", required=True)
    restore.add_argument("--artifact", required=True)
    restore.add_argument("--validate", action="store_true",
                         help="also run cross-process output validation "
                              "(COMPUTE mode; tiny models only in practice)")
    restore.add_argument("--seed", type=int, default=0)

    simulate = sub.add_parser("simulate", help="serverless trace simulation")
    simulate.add_argument("--model", required=True)
    simulate.add_argument("--strategy", type=_strategy, default=Strategy.VLLM)
    simulate.add_argument("--rps", type=float, default=2.0)
    simulate.add_argument("--duration", type=float, default=300.0)
    simulate.add_argument("--gpus", type=int, default=4)
    simulate.add_argument("--seed", type=int, default=42)
    simulate.add_argument(
        "--placement", choices=policy_names(), default="locality",
        help="artifact placement across nodes: 'flat' reproduces the "
             "pre-placement simulator; 'locality' routes cold starts to "
             "the node caching the artifact in the warmest tier; "
             "'affinity' adds residency-history fallback")
    simulate.add_argument(
        "--autoscale", choices=autoscaler_names(), default="keep-alive",
        help="autoscaling policy: 'keep-alive' is the fixed idle window "
             "(the pre-policy simulator, bit for bit); 'histogram' "
             "predicts the window from observed inter-arrival gaps; "
             "'cold-cost' keeps instances warm only while re-warming "
             "would cost more than idling; 'queue-slo' scales up "
             "proactively when predicted queue delay breaches the SLO")
    simulate.add_argument(
        "--shape", choices=shape_names(), default="poisson",
        help="arrival shape: 'poisson' is the paper's homogeneous "
             "process; 'burst', 'diurnal', 'spike_train', and 'ramp' "
             "are composable RateSchedule shapes at the same nominal "
             "--rps")
    simulate.add_argument(
        "--slo-ttft", type=float, default=0.0, metavar="SECONDS",
        help="TTFT SLO budget: enables slo_attainment accounting and "
             "feeds the queue-slo policy's scale-up threshold (0 = off)")
    simulate.add_argument(
        "--trace", metavar="PATH", default=None,
        help="write the whole run (arrivals, per-stage cold starts, "
             "serving steps, retirements) as one Chrome trace JSON")

    store_cmd = sub.add_parser(
        "store", help="inspect a content-addressed artifact store")
    store_sub = store_cmd.add_subparsers(dest="store_command", required=True)
    store_stats = store_sub.add_parser(
        "stats", help="per-model chunk counts and the cross-model "
                      "dedup ratio of one store directory")
    store_stats.add_argument("--dir", required=True,
                             help="artifact-store root directory")
    store_stats.add_argument("--format", choices=("text", "json"),
                             default="text", help="report format")
    return parser


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------

def _cmd_models(_args) -> int:
    rows = [[c.name, f"{c.param_bytes / 1024**3:.1f}GB", c.num_layers,
             c.vocab_size, c.total_graph_nodes] for c in PAPER_MODELS]
    print(format_table("Model zoo (paper Table 1)",
                       ["model", "params", "layers", "vocab", "graph nodes"],
                       rows))
    return 0


def _print_report(report) -> None:
    rows = [[stage, duration]
            for stage, duration in report.stage_durations.items()]
    rows.append(["loading phase (composed)", report.loading_time])
    rows.append(["cold start (incl. runtime init)", report.cold_start_time])
    print(format_table(
        f"Cold start: {report.model} under {report.strategy.label}",
        ["stage", "simulated seconds"], rows))
    degradation = getattr(report, "degradation", None)
    if degradation is not None:
        print(f"degraded cold start: rung {degradation.rung_name!r} — "
              f"{degradation.describe()}")
    print()
    print(format_stage_breakdown(
        f"Stage schedule (plan: {report.timeline.plan or 'legacy'})",
        report.timeline))


def _cmd_coldstart(args) -> int:
    if args.strategy is Strategy.MEDUSA and not args.artifact:
        print("error: --strategy medusa requires --artifact "
              "(run `repro offline` first)", file=sys.stderr)
        return 2
    try:
        artifact = _load_artifact(args.artifact) if args.artifact else None
    except ArtifactError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _engine, report = cold_start_for(args.model, args.strategy,
                                     artifact=artifact, seed=args.seed)
    _print_report(report)
    return 0


def _cmd_save_tensor(args) -> int:
    from repro.models.weights import FileCheckpointStore
    from repro.models.zoo import get_model_config
    config = get_model_config(args.model)
    store = FileCheckpointStore(args.dir)
    written = store.save_checkpoint(config)
    print(f"saved {config.weight_buffer_count()} weight tensors "
          f"({written / 1024:.0f} KiB of payloads, "
          f"{config.param_bytes / 1024**3:.1f} GiB declared) to {args.dir}")
    return 0


def _cmd_offline(args) -> int:
    artifact, report = run_offline(args.model, seed=args.seed)
    if str(args.output).endswith(".npz"):
        size = save_binary(artifact, args.output)
    else:
        size = artifact.save(args.output)
    print(f"capturing stage: {report.capture_stage_time:.1f} s (simulated)")
    print(f"analysis stage:  {report.analysis_time:.1f} s (simulated)")
    print(f"materialized {artifact.total_nodes} nodes / "
          f"{len(artifact.graphs)} graphs -> {args.output} "
          f"({size / 1024**2:.1f} MiB)")
    return 0


def _cmd_restore(args) -> int:
    try:
        artifact = _load_artifact(args.artifact)
    except ArtifactError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _engine, report = cold_start_for(args.model, Strategy.MEDUSA,
                                     artifact=artifact, seed=args.seed)
    _print_report(report)
    if args.validate:
        result = validate_restoration(args.model, artifact,
                                      seed=args.seed + 1)
        print(f"validation: PASSED on batches {result.batches_checked} "
              f"(max abs error {result.max_abs_error})")
    return 0


def _cmd_lint(args) -> int:
    from repro.analysis import lint_artifact, lint_file
    try:
        if str(args.artifact).endswith(".npz"):
            report = lint_artifact(LazyArtifact(args.artifact).materialize())
        else:
            report = lint_file(args.artifact)
    except ArtifactError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(report.to_json())
    else:
        print(report.format_text())
    return report.exit_code


def _cmd_lint_plan(args) -> int:
    import json as _json

    from repro.analysis.planlint import lint_plan, lint_registered_plans
    from repro.engine.strategies import registered_plans
    from repro.reporting import format_diagnostics

    if not args.all and not args.plan:
        print("error: name a registered plan or pass --all", file=sys.stderr)
        return 2
    if args.all:
        reports = lint_registered_plans()
    else:
        plans = registered_plans()
        if args.plan not in plans:
            print(f"error: no registered plan {args.plan!r}; available: "
                  f"{', '.join(sorted(plans))}", file=sys.stderr)
            return 2
        reports = {args.plan: lint_plan(plans[args.plan])}
    if args.format == "json":
        print(_json.dumps(
            {name: _json.loads(report.to_json())
             for name, report in sorted(reports.items())}, indent=2))
    else:
        for name, report in sorted(reports.items()):
            print(report.format_text())
        diagnostics = [d for _, report in sorted(reports.items())
                       for d in report.diagnostics]
        if diagnostics:
            print(format_diagnostics("Plan diagnostics", diagnostics))
    return max(report.exit_code for report in reports.values())


def _cmd_validate(args) -> int:
    import json as _json

    from repro.errors import MaterializationError
    from repro.reporting import format_diagnostics

    try:
        artifact = _load_artifact(args.artifact)
    except ArtifactError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    model = args.model or artifact.model_name
    policy = None
    if getattr(args, "degraded_ok", False):
        from repro.faults import DegradationPolicy
        policy = DegradationPolicy(verify_dumps=True, verify_outputs=True)
    try:
        result = validate_restoration(model, artifact, seed=args.seed + 1,
                                      policy=policy)
    except MaterializationError as exc:
        if args.json:
            print(_json.dumps({"model": model, "passed": False,
                               "error": str(exc)}, indent=2))
        else:
            print(f"validation: FAILED — {exc}", file=sys.stderr)
        return 1
    if args.json:
        payload = {
            "model": result.model,
            "passed": result.passed,
            "batches_checked": result.batches_checked,
            "max_abs_error": result.max_abs_error,
            "diagnostics": [d.to_dict() for d in result.diagnostics],
        }
        if result.degradation is not None:
            payload["degradation"] = result.degradation.to_dict()
        print(_json.dumps(payload, indent=2))
    else:
        print(f"validation: PASSED on batches {result.batches_checked} "
              f"(max abs error {result.max_abs_error})")
        if result.degraded:
            print(f"degradation: served on the "
                  f"{result.degradation.rung_name!r} rung — "
                  f"{result.degradation.describe()}")
        if result.diagnostics:
            print(format_diagnostics("Static diagnostics",
                                     result.diagnostics))
        cold = result.cold_report
        if cold is not None:
            print(format_stage_breakdown(
                f"Restore stage schedule "
                f"(plan: {cold.timeline.plan or 'legacy'})",
                cold.timeline))
    if not result.passed:
        return 1
    if policy is not None and (result.degraded or result.diagnostics):
        return 3   # degraded but serving (correct outputs on a lower rung)
    return 0 if not result.diagnostics else 1


def _cmd_simulate(args) -> int:
    strategy = args.strategy
    artifact = None
    if strategy is Strategy.MEDUSA:
        artifact, _ = run_offline(args.model, seed=args.seed)
    _engine, report = cold_start_for(args.model, strategy,
                                     artifact=artifact, seed=args.seed)
    workload = ShareGPTWorkload(rps=args.rps, duration=args.duration,
                                seed=args.seed, shape=args.shape)
    simulator = ClusterSimulator(
        ServingCostModel(args.model),
        SimulationConfig.from_report(report, num_gpus=args.gpus,
                                     placement=args.placement,
                                     autoscale=args.autoscale,
                                     slo_ttft=args.slo_ttft))
    metrics = simulator.run(workload.generate(), horizon=args.duration)
    summary = metrics.summary()
    rows = [[key, value] for key, value in sorted(summary.items())]
    print(format_table(
        f"Trace simulation: {args.model}, {strategy.label}, "
        f"RPS {args.rps:g}, {args.gpus} GPUs, {args.placement} placement, "
        f"{args.autoscale} autoscale, {args.shape} arrivals",
        ["metric", "value"], rows))
    if args.trace:
        from repro.reporting.timeline import save_simulation_trace
        size = save_simulation_trace(
            simulator.loop.trace, args.trace,
            name=f"{args.model} / {strategy.label} @ RPS {args.rps:g}")
        print(f"cluster trace: {args.trace} ({size} bytes, "
              f"{simulator.loop.dispatched} events)")
    return 0


def _cmd_store(args) -> int:
    """Dispatch ``repro store <subcommand>`` (currently only ``stats``)."""
    from repro.core.store import ArtifactStore

    store = ArtifactStore(args.dir)
    stats = store.stats()
    if args.format == "json":
        import json
        print(json.dumps(stats, indent=2, sort_keys=True))
        return 0
    rows = []
    for key, entry in stats["models"].items():
        gpu_name, _, model_name = key.partition("::")
        rows.append([gpu_name, model_name, entry["chunks"],
                     entry["bytes"], entry["foreground_bytes"]])
    print(format_table(
        f"Artifact store: {args.dir}",
        ["gpu", "model", "chunks", "bytes", "foreground bytes"], rows))
    print(f"chunks: {stats['total_chunks']} total, "
          f"{stats['unique_chunks']} unique")
    print(f"bytes: {stats['total_bytes']} total, "
          f"{stats['unique_bytes']} unique")
    print(f"dedup ratio: {stats['dedup_ratio']:.3f}x")
    return 0


_COMMANDS = {
    "models": _cmd_models,
    "save-tensor": _cmd_save_tensor,
    "coldstart": _cmd_coldstart,
    "offline": _cmd_offline,
    "lint": _cmd_lint,
    "lint-plan": _cmd_lint_plan,
    "validate": _cmd_validate,
    "restore": _cmd_restore,
    "simulate": _cmd_simulate,
    "store": _cmd_store,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
