"""Stage-granular cold starts at cluster scale (§7.5 meets §7.3).

The event kernel lets the cluster simulator execute each cold start's
scheduled LoadPlan stage by stage, so the pipelined restore's early
serving-ready instant (``Timeline.ready``) pays off at cluster level:
instances admit their first burst requests while the background graph
tail is still streaming.  This benchmark quantifies that gap on a real
materialized artifact — scalar vLLM, stage-blind Medusa (full loading
time charged up front), and stage-granular pipelined Medusa — and
exports the stage-granular run as one Chrome trace
(``results/ClusterTrace.json``) for Perfetto inspection.
"""

import pytest

from repro.core.binfmt import LazyArtifact, save_binary
from repro.core.offline import run_offline
from repro.core.online import medusa_cold_start
from repro.engine import LLMEngine, Strategy
from repro.reporting import format_table
from repro.reporting.timeline import save_simulation_trace
from repro.serverless import (
    ClusterSimulator,
    ServingCostModel,
    ShareGPTWorkload,
    SimulationConfig,
)

MODEL = "Llama2-7B"
RPS = 8.0
DURATION = 120.0
SEED = 42
NUM_GPUS = 4


@pytest.fixture(scope="module")
def pipelined_report(tmp_path_factory):
    """A Medusa cold-start report from the pipelined restore plan."""
    artifact, _ = run_offline(MODEL, seed=9000)
    path = tmp_path_factory.mktemp("staged") / f"{MODEL}.medusa.npz"
    save_binary(artifact, path)
    _engine, report = medusa_cold_start(MODEL, LazyArtifact(path),
                                        seed=9001)
    return report


def _simulate(config):
    workload = ShareGPTWorkload(rps=RPS, duration=DURATION, seed=SEED)
    simulator = ClusterSimulator(ServingCostModel(MODEL), config)
    metrics = simulator.run(workload.generate(), horizon=DURATION)
    return simulator, metrics


def _stage_coldstart(pipelined_report, results_dir):
    vllm = LLMEngine(MODEL, Strategy.VLLM, seed=9002).cold_start()
    scenarios = [
        ("vLLM (scalar)",
         SimulationConfig(num_gpus=NUM_GPUS,
                          cold_start_latency=vllm.loading_time)),
        ("Medusa (stage-blind)",
         SimulationConfig(num_gpus=NUM_GPUS,
                          cold_start_latency=pipelined_report.loading_time)),
        ("Medusa (stage-granular)",
         SimulationConfig.from_report(pipelined_report,
                                      num_gpus=NUM_GPUS)),
    ]
    rows = []
    staged_simulator = None
    for label, config in scenarios:
        simulator, metrics = _simulate(config)
        rows.append([label, config.cold_start_latency, metrics.p99_ttft,
                     metrics.p90_ttft, metrics.mean_ttft,
                     metrics.cold_starts, metrics.background_contended_steps,
                     metrics.background_contention_seconds])
        if label.endswith("stage-granular)"):
            staged_simulator = simulator
    text = format_table(
        f"Stage-granular cold starts under burst load "
        f"({MODEL}, RPS {RPS:g}, {NUM_GPUS} GPUs)",
        ["scenario", "ready (s)", "p99 TTFT (s)", "p90 TTFT (s)",
         "mean TTFT (s)", "cold starts", "contended steps",
         "contention (s)"], rows)
    text += ("\n(stage-granular: ready at Timeline.ready, background "
             "restore tail contends with early serving)")
    size = save_simulation_trace(
        staged_simulator.loop.trace, results_dir / "ClusterTrace.json",
        name=f"{MODEL} / medusa-pipelined @ RPS {RPS:g}")
    text += (f"\nChrome trace of the stage-granular run: "
             f"results/ClusterTrace.json ({size} bytes, "
             f"{staged_simulator.loop.dispatched} events)")
    return text


@pytest.mark.benchmark(group="stage-coldstart")
def test_stage_coldstart_cluster(benchmark, emit, pipelined_report,
                                 results_dir):
    """Regenerate the staged-vs-scalar cluster comparison table."""
    text = benchmark.pedantic(_stage_coldstart,
                              args=(pipelined_report, results_dir),
                              rounds=1, iterations=1)
    emit("StageColdStart", text)
