"""Wall-clock benchmark for loading and restoring a binary artifact.

Unlike the figure benches (which report *simulated* seconds), this harness
times the restoration machinery itself with ``time.perf_counter``: binary
artifact save, eager vs lazy load, load + restore, and a full
chunk-store read over a paper-scale artifact (~16k graph nodes, ~65k
replay events for Qwen1.5-4B).  There is one restorer and one input
form, the binary file; what differs is how it is loaded — eagerly
(every member decoded up front into an in-memory artifact, which
restores on the monolithic plan) or by a lazy open (the manifest only;
members decode on first use, on the pipelined plan).  It writes
``BENCH_restore.json`` with the host, the p50 wall-clock numbers and the
simulated critical-path seconds per strategy, and (with
``--assert-speedup``/``--quick``) exits non-zero unless the lazy open
beats the eager load by the required factor — the CI perf-smoke gate.
Load + restore is reported for both, ungated: the restore dominates it
and decodes every member either way.  ``--quick`` also exits non-zero
unless static lint of a Tiny-2L artifact takes under half the
wall-clock of a full restore + output validation of it.

Run it directly::

    PYTHONPATH=src python benchmarks/bench_wallclock.py --quick
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import sys
import time
from typing import Callable, Dict, List

from repro.core.binfmt import LazyArtifact, save_binary
from repro.core.chunks import open_binary
from repro.core.offline import run_offline
from repro.core.online import prepare_medusa_cold_start
from repro.engine import LLMEngine, Strategy

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: --quick bound: lint seconds / validate_restoration seconds.
LINT_VS_VALIDATE_MAX = 0.5


def _p50(fn: Callable[[], object], repeats: int) -> float:
    """Median wall-clock seconds of ``repeats`` calls to ``fn``."""
    samples: List[float] = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def _load_eager(path) -> LazyArtifact:
    """An eager load: the binary file opened and every member decoded
    now, into an in-memory artifact."""
    opened = open_binary(path)
    return LazyArtifact(None, data=opened.members(), meta=opened.metadata())


def _restore_p50(model: str, open_artifact: Callable[[], object],
                 repeats: int) -> float:
    """p50 wall-clock of one full restore (artifact open + cold start).

    Each repeat opens the artifact afresh and builds a fresh engine, so
    the measurement covers exactly what a cold start pays: deserialization
    (eager) or the file's header read (lazy) plus the restoration itself.
    """
    def run():
        engine, restorer = prepare_medusa_cold_start(
            model, open_artifact(), seed=9600)
        engine.cold_start(restorer=restorer)
    return _p50(run, repeats)


def _chunk_get_p50(artifact, workdir: pathlib.Path, repeats: int) -> float:
    """p50 wall-clock of a full chunk-store read: open + decode every chunk.

    Times ``store.get_lazy(...)`` and then ``.members()`` (the kernel
    tables, every replay shard, every graph head and tail) and
    ``.metadata()`` (the dumps chunk): the manifest read plus every
    content-addressed chunk read, digest-checked and decompressed once.
    It builds no JSON payload dict, which is what ``to_payload`` spends
    most of its time on.  Each repeat opens a fresh chunk reader, so
    every sample pays the full decode.
    """
    from repro.core.store import ArtifactStore

    store = ArtifactStore(workdir / "chunk-store")
    store.put(artifact)
    key = (artifact.gpu_name, artifact.model_name)

    def read_every_chunk():
        lazy = store.get_lazy(*key)
        lazy.members()
        lazy.metadata()

    return _p50(read_every_chunk, repeats)


def _lint_vs_validate() -> Dict[str, float]:
    """Wall-clock of static lint (mean of 3) vs one restore + validation.

    Both run on a Tiny-2L artifact on a small simulated GPU: lint must
    stay a small fraction of what output validation costs.
    """
    from repro.analysis import lint_artifact
    from repro.core.validation import validate_restoration
    from repro.simgpu.costmodel import CostModel, GpuProperties
    from repro.simgpu.process import ExecutionMode

    cost_model = CostModel(gpu=GpuProperties(
        name="Tiny-GPU", total_memory_bytes=256 * 1024**2))
    artifact, _ = run_offline("Tiny-2L", seed=1101,
                              mode=ExecutionMode.COMPUTE,
                              cost_model=cost_model)
    start = time.perf_counter()
    for _ in range(3):
        lint_artifact(artifact)
    lint_seconds = (time.perf_counter() - start) / 3
    start = time.perf_counter()
    validate_restoration("Tiny-2L", artifact, seed=7, cost_model=cost_model)
    validate_seconds = time.perf_counter() - start
    return {"lint_s": lint_seconds, "validate_s": validate_seconds,
            "ratio": lint_seconds / validate_seconds}


def _simulated_critical_paths(model: str, artifact,
                              lazy_path) -> Dict[str, Dict[str, float]]:
    """Simulated loading/ready/total seconds for every strategy."""
    results: Dict[str, Dict[str, float]] = {}
    for strategy in Strategy:
        if strategy is Strategy.MEDUSA:
            engine, restorer = prepare_medusa_cold_start(
                model, artifact, seed=9601)
            report = engine.cold_start(restorer=restorer)
        else:
            report = LLMEngine(model, strategy, seed=9601).cold_start()
        results[strategy.value] = {
            "loading": report.loading_time,
            "ready": report.ready_time,
            "total": report.timeline.total,
        }
    engine, restorer = prepare_medusa_cold_start(
        model, open_binary(lazy_path), seed=9601)
    report = engine.cold_start(restorer=restorer)
    results["medusa-pipelined"] = {
        "loading": report.loading_time,
        "ready": report.ready_time,
        "total": report.timeline.total,
    }
    return results


def run_bench(model: str, repeats: int, output: pathlib.Path,
              workdir: pathlib.Path) -> Dict[str, object]:
    """Run every measurement and write the JSON report to ``output``."""
    print(f"materializing {model} (offline phase)...", flush=True)
    artifact, _ = run_offline(model, seed=9600)
    path = workdir / f"{model}.medusa"

    print(f"timing save/load/restore ({repeats} repeats)...", flush=True)
    def save_afresh() -> int:
        """A first save: a copy with no chunk set yet, to no file."""
        path.unlink(missing_ok=True)
        return save_binary(LazyArtifact(None, data=artifact.members(),
                                        meta=artifact.metadata()), path)

    save_p50 = _p50(save_afresh, repeats)
    eager_load_p50 = _p50(lambda: _load_eager(path), repeats)
    lazy_open_p50 = _p50(lambda: open_binary(path), repeats)
    eager_restore_p50 = _restore_p50(
        model, lambda: _load_eager(path), repeats=repeats)
    lazy_restore_p50 = _restore_p50(
        model, lambda: open_binary(path), repeats=repeats)

    print("timing chunk-store reads...", flush=True)
    chunk_get_p50 = _chunk_get_p50(artifact, workdir, repeats)

    print("deriving simulated critical paths per strategy...", flush=True)
    simulated = _simulated_critical_paths(model, artifact, path)

    print("timing lint vs restore + validation (Tiny-2L)...", flush=True)
    lint_vs_validate = _lint_vs_validate()

    report = {
        "model": model,
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "cpus": os.cpu_count(),
        },
        "repeats": repeats,
        "artifact": {
            "graph_nodes": artifact.total_nodes,
            "replay_events": artifact.total_replay_events,
            "npz_bytes": path.stat().st_size,
        },
        "wallclock_p50_s": {
            "save_binary": save_p50,
            "load_eager": eager_load_p50,
            "lazy_open": lazy_open_p50,
            # Full load+restore wall-clock: eager decode + restore
            # (monolithic plan) vs lazy file open + restore (pipelined).
            "load_restore_eager": eager_restore_p50,
            "load_restore_lazy": lazy_restore_p50,
            # Content-addressed chunk store: full read (manifest +
            # every chunk read, digest-checked and decompressed).
            "chunk_get": chunk_get_p50,
        },
        "speedup": {
            "load_restore": eager_restore_p50 / max(lazy_restore_p50, 1e-9),
            "load": eager_load_p50 / max(lazy_open_p50, 1e-9),
        },
        "simulated_critical_path_s": simulated,
        "lint_vs_validate": lint_vs_validate,
    }
    output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"[written to {output}]")
    return report


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        description="wall-clock restore benchmark (writes BENCH_restore.json)")
    parser.add_argument("--model", default="Qwen1.5-4B",
                        help="model to materialize (paper scale: Qwen1.5-4B)")
    parser.add_argument("--repeats", type=int, default=7,
                        help="samples per measurement (p50 is reported)")
    parser.add_argument("--output", default=str(REPO_ROOT /
                                                "BENCH_restore.json"))
    parser.add_argument("--workdir", default=None,
                        help="where the binary artifact is written "
                             "(default: a temp directory)")
    parser.add_argument("--quick", action="store_true",
                        help="CI perf-smoke mode: smaller model, fewer "
                             "repeats, --assert-speedup 2.0, and lint "
                             "under 0.5x a restore + validation")
    parser.add_argument("--assert-speedup", type=float, default=None,
                        help="exit 1 unless the lazy open beats the "
                             "eager load by this factor")
    args = parser.parse_args(argv)
    model, repeats = args.model, args.repeats
    min_speedup = args.assert_speedup
    if args.quick:
        model = "Qwen1.5-0.5B" if args.model == "Qwen1.5-4B" else args.model
        repeats = min(repeats, 3)
        min_speedup = 2.0 if min_speedup is None else min_speedup

    if args.workdir is None:
        import tempfile
        with tempfile.TemporaryDirectory() as tmp:
            report = run_bench(model, repeats, pathlib.Path(args.output),
                               pathlib.Path(tmp))
    else:
        report = run_bench(model, repeats, pathlib.Path(args.output),
                           pathlib.Path(args.workdir))

    wall = report["wallclock_p50_s"]
    speedup = report["speedup"]["load"]
    print(f"load p50: eager {wall['load_eager'] * 1e3:.1f} ms, lazy open "
          f"{wall['lazy_open'] * 1e3:.1f} ms ({speedup:.1f}x)")
    print(f"load+restore p50: eager "
          f"{wall['load_restore_eager'] * 1e3:.1f} ms, lazy "
          f"{wall['load_restore_lazy'] * 1e3:.1f} ms "
          f"({report['speedup']['load_restore']:.1f}x, not gated)")
    lint = report["lint_vs_validate"]
    print(f"lint {lint['lint_s'] * 1e3:.1f} ms vs validate "
          f"{lint['validate_s'] * 1e3:.1f} ms ({lint['ratio']:.2f}x)")
    if min_speedup is not None and speedup < min_speedup:
        print(f"FAIL: the lazy open is only {speedup:.2f}x the eager load "
              f"(required {min_speedup:g}x)", file=sys.stderr)
        return 1
    if args.quick and lint["ratio"] >= LINT_VS_VALIDATE_MAX:
        print(f"FAIL: lint takes {lint['ratio']:.2f}x a restore + "
              f"validation (required < {LINT_VS_VALIDATE_MAX:g}x)",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
