"""The four benchmark workloads.

Every workload is a closed loop with one client: a CLI user waits for each
command.  Sizes, models, durations and op counts are fixed here, so every
run of a workload does the same work however fast the machine is;
``--seed`` only picks the seeds of the generated inputs.  A workload runs
``round_count`` rounds, and has four steps:

- ``inputs`` makes what the loop consumes (stored artifacts, arrival
  traces from the seed).  It is not timed.  Stored artifacts are
  materialized once per version of ``src/`` into ``.bench_cache/``, in
  a child process so that their memory does not count toward the
  loop's peak RSS; the ``materialize`` workload times that work;
- ``setup`` readies the system for the loop (fresh stores, one warm-up
  op per model).  The runner times it ``setup_repeats`` times and
  reports the median as ``setup_s``; cheap set-ups repeat more often,
  so that their median is as steady as that of the costly ones;
- ``op`` is the timed unit of work; ``round_ops`` gives the ops of one
  round (one per model of the mix, or one trace or call);
- ``verify`` checks one op's output, untimed, and ``finish`` runs the
  run-level checks and collects the simulated (cost-model) quantities.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from bench import ROOT

PAPER_MIX = ("Qwen1.5-0.5B", "Qwen1.5-1.8B", "Qwen1.5-4B", "Llama2-7B")
RESTORE_MIX = ("Qwen1.5-0.5B", "Qwen1.5-1.8B", "Llama2-7B")
TINY_MODELS = ("Tiny-2L", "Tiny-4L", "Tiny-Wide")

#: The offline-phase seed is this plus ``--seed`` (5000 is the program's
#: own default).  Artifacts do not depend on it.
OFFLINE_SEED = 5000
#: The simulators' warm-up ops use this seed, not ``--seed``: how much
#: work a toy trace holds varies with its seed, and set-up should do the
#: same work on every run.
WARMUP_SEED = 0
CACHE = ROOT / ".bench_cache"

Checks = Dict[str, bool]
Simulated = Dict[str, Tuple[float, str]]


@dataclass
class Verified:
    """What ``verify`` found about one op."""

    items: float                      # work items the op processed
    errors: List[str] = field(default_factory=list)


def build_store(root: str, models: Sequence[str],
                baselines: Sequence[str]) -> dict:
    """Materialize ``models`` into an artifact store at ``root``.

    Runs in a child process (``python3 -m bench build-store``).  Returns
    the GPU name the artifacts are keyed by and, for each model in
    ``baselines``, the simulated loading times of a vLLM and a vLLM+ASYNC
    cold start.
    """
    from repro.core.offline import run_offline
    from repro.core.store import ArtifactStore
    from repro.engine import LLMEngine, Strategy

    store = ArtifactStore(root)
    gpu = ""
    for model in models:
        artifact, _ = run_offline(model, seed=OFFLINE_SEED)
        store.put(artifact)
        gpu = artifact.gpu_name
    loading = {model: {strategy.name:
                       LLMEngine(model, strategy).cold_start().loading_time
                       for strategy in (Strategy.VLLM, Strategy.VLLM_ASYNC)}
               for model in baselines}
    return {"gpu": gpu, "baselines": loading}


def _build_in_child(building: Path, models: Sequence[str],
                    baselines: Sequence[str]) -> None:
    """Run ``python3 -m bench build-store`` into ``building`` and wait
    for it.  A plain subprocess, not multiprocessing: that would leave
    its resource-tracker process running after the benchmark exits."""
    command = [sys.executable, "-m", "bench", "build-store", str(building),
               "--models", *models, "--baselines", *baselines]
    subprocess.run(command, cwd=ROOT, check=True)


def cached_store(models: Sequence[str], baselines: Sequence[str] = ()):
    """A store holding ``models``, built once per version of ``src/``.

    Returns ``(store_root, facts)`` with the facts :func:`build_store`
    reports.  Stores are only read after they are built.
    """
    digest = hashlib.sha256(json.dumps([list(models), list(baselines),
                                        OFFLINE_SEED]).encode())
    source = ROOT / "src"
    for path in sorted(source.rglob("*.py")):
        digest.update(str(path.relative_to(source)).encode())
        digest.update(path.read_bytes())
    entry = CACHE / digest.hexdigest()[:20]
    if not (entry / "facts.json").is_file():
        building = CACHE / f"{entry.name}.{os.getpid()}.tmp"
        shutil.rmtree(building, ignore_errors=True)
        _build_in_child(building, models, baselines)
        shutil.rmtree(entry, ignore_errors=True)
        building.rename(entry)
    return entry / "store", json.loads((entry / "facts.json").read_text())


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    return path


class Materialize:
    """Three passes of offline materialization over four models.

    A third pass gives each model three samples to take the fastest of,
    which the shared host's slow stretches need (see bench/README.md).
    """

    name = "materialize"
    why = ("Offline capture, pointer analysis, lint and serialization of "
           "four paper models; later passes dedup every chunk. "
           "No restore, no simulator.")
    round_count = 3
    setup_repeats = 9

    def inputs(self, seed: int, workdir: Path):
        return seed

    def setup(self, seed: int, workdir: Path):
        from repro.core.store import ArtifactStore
        state = _MaterializeState(
            seed=seed, workdir=workdir,
            store=ArtifactStore(_fresh(workdir / "store")))
        warmup = ArtifactStore(_fresh(workdir / "warmup"))
        self.op(state, (0, "Tiny-2L"), store=warmup)
        return state

    def round_ops(self, state, index: int):
        return [(index, model) for model in PAPER_MIX]

    def op(self, state, arg, store=None):
        from repro.core import binfmt, offline
        _round, model = arg
        store = store or state.store
        artifact, report = offline.run_offline(
            model, seed=OFFLINE_SEED + state.seed)
        binfmt.save_binary(artifact, state.workdir / f"{model}.npz")
        written = store.chunks_written
        store.put(artifact)
        return artifact, report, store.chunks_written - written

    def verify(self, state, arg, output) -> Verified:
        pass_index, model = arg
        artifact, report, written = output
        result = Verified(items=artifact.total_nodes)
        if report.stats.get("lint_diagnostics") != 0:
            result.errors.append(f"{model}: lint reported diagnostics")
        stored = state.store.get_lazy(artifact.gpu_name, model)
        if (stored.total_nodes, stored.total_replay_events) != \
                (artifact.total_nodes, artifact.total_replay_events):
            result.errors.append(f"{model}: stored manifest re-opens with "
                                 f"other node or replay counts")
        if pass_index > 0 and written:
            result.errors.append(f"{model}: pass {pass_index + 1} wrote "
                                 f"{written} chunks instead of deduping")
        return result

    def finish(self, state) -> Tuple[Checks, Simulated]:
        store = state.store
        offered = store.chunks_written + store.chunks_deduped
        ratio = offered / store.chunks_written if store.chunks_written else 0
        return ({f"write dedup ratio equals the {self.round_count} passes":
                 ratio == self.round_count}, {})


@dataclass
class _MaterializeState:
    seed: int
    workdir: Path
    store: object


class Restore:
    """Round-robin Medusa cold starts from a chunked artifact store."""

    name = "restore"
    why = ("Round-robin Medusa cold starts from a chunked store: chunk "
           "reads, digest checks, vectorized restore, LoadPlan scheduling. "
           "No offline work, no simulator.")
    round_count = 20
    setup_repeats = 5

    def inputs(self, seed: int, workdir: Path):
        root, facts = cached_store(RESTORE_MIX + TINY_MODELS, RESTORE_MIX)
        return _StoreInputs(seed=seed, root=root, facts=facts)

    def setup(self, inputs, workdir: Path):
        from repro.core.store import ArtifactStore
        state = _RestoreState(inputs=inputs,
                              store=ArtifactStore(inputs.root))
        for model in RESTORE_MIX:
            self.op(state, model)
        return state

    def round_ops(self, state, index: int):
        return list(RESTORE_MIX)

    def op(self, state, model: str):
        from repro.core import online
        lazy = state.store.get_lazy(state.inputs.facts["gpu"], model)
        _engine, report = online.medusa_cold_start(model, lazy,
                                                   seed=state.inputs.seed)
        return lazy.total_nodes, report

    def verify(self, state, model: str, output) -> Verified:
        nodes, report = output
        result = Verified(items=nodes)
        first = state.loading.setdefault(model, report.loading_time)
        if report.loading_time != first:
            result.errors.append(f"{model}: simulated loading time "
                                 f"{report.loading_time} != {first}")
        if report.timeline.plan != "medusa-chunked":
            result.errors.append(f"{model}: restored with plan "
                                 f"{report.timeline.plan!r}, not the "
                                 f"chunked fast path")
        return result

    def finish(self, state) -> Tuple[Checks, Simulated]:
        from repro.core.validation import validate_restoration
        facts = state.inputs.facts
        checks: Checks = {}
        for model in RESTORE_MIX:
            medusa = state.loading.get(model, float("inf"))
            baseline = facts["baselines"][model]
            checks[f"{model}: Medusa < vLLM+ASYNC < vLLM loading"] = \
                medusa < baseline["VLLM_ASYNC"] < baseline["VLLM"]
        for model in TINY_MODELS:
            report = validate_restoration(
                model, state.store.get_lazy(facts["gpu"], model))
            checks[f"{model}: validate_restoration from the store"] = \
                report.passed
        loading = [state.loading[model] for model in RESTORE_MIX
                   if model in state.loading]
        simulated = {}
        if loading:
            simulated["simulated.medusa_loading_s"] = (
                sum(loading) / len(loading), "s")
        return checks, simulated


@dataclass
class _StoreInputs:
    seed: int
    root: Path
    facts: dict


@dataclass
class _RestoreState:
    inputs: _StoreInputs
    store: object
    loading: Dict[str, float] = field(default_factory=dict)


def _simulate_argv(model: str, rps: str, duration: str, gpus: str,
                   seed: int) -> List[str]:
    return ["simulate", "--model", model, "--strategy", "medusa",
            "--rps", rps, "--duration", duration, "--gpus", gpus,
            "--shape", "burst", "--seed", str(seed)]


def parse_table(text: str) -> Dict[str, float]:
    """The numeric ``metric value`` rows of a ``repro simulate`` table."""
    rows = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) != 2:
            continue
        try:
            rows[parts[0]] = float(parts[1].replace(",", ""))
        except ValueError:
            continue
    return rows


class SimulateBurst:
    """The user's ``repro simulate`` command, called in-process."""

    name = "simulate_burst"
    why = ("The repro simulate command on a 20 rps burst over 16 GPUs: "
           "re-materialization, an object-path restore, then ~285k "
           "simulator events, nearly all decode steps.")
    round_count = 3
    setup_repeats = 9

    def inputs(self, seed: int, workdir: Path):
        return seed

    def setup(self, seed: int, workdir: Path):
        # The warm-up op: the same command at toy scale.
        output = self._call(_simulate_argv("Tiny-2L", "2", "20", "2",
                                           WARMUP_SEED))
        if output[0] != 0:
            raise RuntimeError("warm-up repro simulate call failed")
        return _SimulateState(
            argv=_simulate_argv("Llama2-7B", "20", "300", "16", seed))

    def round_ops(self, state, index: int):
        return [index]

    @staticmethod
    def _call(argv: List[str]):
        from repro import cli
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli.main(argv)
        return code, buffer.getvalue()

    def op(self, state, index: int):
        return self._call(state.argv)

    def verify(self, state, index: int, output) -> Verified:
        code, table = output
        rows = parse_table(table)
        result = Verified(items=rows.get("arrived", 0.0))
        if code != 0:
            result.errors.append(f"repro simulate exited {code}")
        if state.tables and table != state.tables[0]:
            result.errors.append("printed table differs from the first call")
        missing = rows.get("arrived", 0.0) - rows.get("ttft_count", 0.0)
        if missing:
            result.errors.append(f"{missing:.0f} requests got no first token")
        state.tables.append(table)
        return result

    def finish(self, state) -> Tuple[Checks, Simulated]:
        checks = {"every printed table is byte-identical":
                  len(set(state.tables)) == 1}
        rows = parse_table(state.tables[0]) if state.tables else {}
        simulated = {f"simulated.{key}_s": (rows[key], "s")
                     for key in ("ttft_p50", "ttft_p99") if key in rows}
        return checks, simulated


@dataclass
class _SimulateState:
    argv: List[str]
    tables: List[str] = field(default_factory=list)


def spike_trace(seed: int, index: int, duration: float = 300.0):
    """One merged spike-train arrival stream: every model at 1 rps."""
    from repro.serverless import ShareGPTWorkload, tag_workloads
    return tag_workloads({
        model: ShareGPTWorkload(rps=1.0, duration=duration,
                                seed=seed * 10_000 + index * 10 + position,
                                shape="spike_train")
        for position, model in enumerate(PAPER_MIX)})


class MultimodelSpike:
    """Four deployments on an eight-GPU pool under spike trains.

    On 4 GPUs the pool raised ``SchedulingError`` on one trace of 80 in a
    ten-run set: a spike lets models scale out over the whole pool, and
    an arrival for a model with no instance finds no idle instance and
    no cold start to preempt.  With an unbounded pool no trace of 235
    probed used more than 6 GPUs, so 8 leaves a margin.
    """

    name = "multimodel_spike"
    why = ("Four models share 8 GPUs under spike trains: many cold starts "
           "per request, locality placement, fetch retiming, idle ticks, "
           "small batches.")
    round_count = 8     # trace seeds
    setup_repeats = 3

    def inputs(self, seed: int, workdir: Path):
        root, facts = cached_store(PAPER_MIX)
        return _StoreInputs(seed=seed, root=root, facts=facts)

    def setup(self, inputs, workdir: Path):
        from repro.core import online
        from repro.core.store import ArtifactStore
        from repro.serverless import (
            ColdStartProfile,
            ModelDeployment,
            ServingCostModel,
        )
        store = ArtifactStore(inputs.root)
        deployments = []
        for model in PAPER_MIX:
            _engine, report = online.medusa_cold_start(
                model, store.get_lazy(inputs.facts["gpu"], model),
                seed=inputs.seed)
            profile = ColdStartProfile.from_report(report)
            deployments.append(ModelDeployment(
                name=model, costs=ServingCostModel(model),
                cold_start_latency=profile.serving_ready_time,
                profile=profile))
        state = _SpikeState(deployments=deployments, seed=inputs.seed)
        # The warm-up op: one spike on the same pool, from a trace index
        # the timed rounds never reach.
        self.op(state, (None, spike_trace(WARMUP_SEED, 999, duration=40.0)))
        return state

    def round_ops(self, state, index: int):
        return [(index, spike_trace(state.seed, index))]

    def op(self, state, arg):
        from repro.serverless import MultiModelCluster
        _index, trace = arg
        cluster = MultiModelCluster(state.deployments, num_gpus=8,
                                    placement="locality",
                                    autoscale="cold-cost", slo_ttft=1.0)
        per_model = cluster.run(trace, horizon=300.0)
        for metrics in per_model.values():
            metrics.summary()
        aggregate = cluster.aggregate()
        aggregate.summary()
        return aggregate

    def verify(self, state, arg, aggregate) -> Verified:
        index, trace = arg
        result = Verified(items=len(trace))
        if aggregate.arrived != len(trace) \
                or len(aggregate.ttfts) != len(trace):
            result.errors.append(
                f"trace {index}: {len(trace)} requests, {aggregate.arrived} "
                f"arrived, {len(aggregate.ttfts)} served")
        state.aggregates.append(aggregate)
        return result

    def finish(self, state) -> Tuple[Checks, Simulated]:
        from repro.utils.stats import percentile
        runs = state.aggregates
        ttfts = [ttft for metrics in runs for ttft in metrics.ttfts]
        if not ttfts:
            return {}, {}
        violations = sum(metrics.slo_violations for metrics in runs)
        return {}, {
            "simulated.ttft_p50_s": (percentile(ttfts, 50.0), "s"),
            "simulated.ttft_p99_s": (percentile(ttfts, 99.0), "s"),
            "simulated.gpu_s": (sum(m.provisioned_gpu_seconds for m in runs)
                                / len(runs), "GPU-s"),
            "simulated.slo_attainment": (1.0 - violations / len(ttfts),
                                         "fraction"),
        }


@dataclass
class _SpikeState:
    deployments: list
    seed: int
    aggregates: list = field(default_factory=list)


WORKLOADS = {workload.name: workload for workload in (
    Materialize(), Restore(), SimulateBurst(), MultimodelSpike())}
