"""Wall-clock benchmark for loading and restoring a binary artifact.

Unlike the figure benches (which report *simulated* seconds), this harness
times the restoration machinery itself with ``time.perf_counter``: binary
artifact save, eager vs lazy load, and load + restore over a paper-scale
artifact (~16k graph nodes, ~65k replay events for Qwen1.5-4B).  There is
one restorer; what still differs is the input it gets — an eager
``load_binary`` model (rehydrated into Python objects, then packed back
into arrays on entry) or a lazy npz open.  It writes
``BENCH_restore.json`` with the p50 wall-clock numbers plus the simulated
critical-path seconds per strategy, and (with
``--assert-speedup``/``--quick``) exits non-zero unless lazy load +
restore beats eager load + restore by the required factor — the CI
perf-smoke gate.

Run it directly::

    PYTHONPATH=src python benchmarks/bench_wallclock.py --quick
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys
import time
from typing import Callable, Dict, List

from repro.core.binfmt import LazyArtifact, load_binary, save_binary
from repro.core.offline import run_offline
from repro.core.online import prepare_medusa_cold_start
from repro.engine import LLMEngine, Strategy

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def _p50(fn: Callable[[], object], repeats: int) -> float:
    """Median wall-clock seconds of ``repeats`` calls to ``fn``."""
    samples: List[float] = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def _restore_p50(model: str, open_artifact: Callable[[], object],
                 repeats: int) -> float:
    """p50 wall-clock of one full restore (artifact open + cold start).

    Each repeat opens the artifact afresh and builds a fresh engine, so
    the measurement covers exactly what a cold start pays: deserialization
    (eager) or the npz index read (lazy) plus the restoration itself.
    """
    def run():
        engine, restorer = prepare_medusa_cold_start(
            model, open_artifact(), seed=9600)
        engine.cold_start(restorer=restorer)
    return _p50(run, repeats)


def _chunk_store_p50s(artifact, workdir: pathlib.Path,
                      repeats: int) -> Dict[str, float]:
    """p50 wall-clock of chunk-store gets: serial vs parallel decompress.

    ``ArtifactStore.get`` reassembles the artifact from its manifest's
    content-addressed chunks; with ``parallel_workers`` a thread pool
    decompresses independent chunks concurrently.  Each repeat uses a
    cache-disabled store so every get pays the full decompress.
    """
    from repro.core.store import ArtifactStore

    root = workdir / "chunk-store"
    seed_store = ArtifactStore(root)
    seed_store.put(artifact)
    key = (artifact.gpu_name, artifact.model_name)

    def get_with(workers: int) -> Callable[[], object]:
        store = ArtifactStore(root, cache_size=0,
                              parallel_workers=workers)
        return lambda: store.get(*key)

    return {
        "chunk_get_serial": _p50(get_with(0), repeats),
        "chunk_get_parallel": _p50(get_with(4), repeats),
    }


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
        model, LazyArtifact(lazy_path), seed=9601)
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
    npz_path = workdir / f"{model}.medusa.npz"

    print(f"timing save/load/restore ({repeats} repeats)...", flush=True)
    save_p50 = _p50(lambda: save_binary(artifact, npz_path), repeats)
    eager_load_p50 = _p50(lambda: load_binary(npz_path), repeats)
    lazy_open_p50 = _p50(lambda: LazyArtifact(npz_path), repeats)
    eager_restore_p50 = _restore_p50(
        model, lambda: load_binary(npz_path), repeats=repeats)
    lazy_restore_p50 = _restore_p50(
        model, lambda: LazyArtifact(npz_path), repeats=repeats)

    print("timing chunk-store gets (serial vs parallel)...", flush=True)
    chunk_p50s = _chunk_store_p50s(artifact, workdir, repeats)

    print("deriving simulated critical paths per strategy...", flush=True)
    simulated = _simulated_critical_paths(model, artifact, npz_path)

    report = {
        "model": model,
        "repeats": repeats,
        "artifact": {
            "graph_nodes": artifact.total_nodes,
            "replay_events": len(artifact.replay_events),
            "npz_bytes": npz_path.stat().st_size,
        },
        "wallclock_p50_s": {
            "save_binary": save_p50,
            "load_binary_eager": eager_load_p50,
            "lazy_open": lazy_open_p50,
            # Full load+restore wall-clock: eager deserialize + restore
            # (monolithic plan) vs lazy npz open + restore (pipelined).
            "load_restore_eager": eager_restore_p50,
            "load_restore_lazy": lazy_restore_p50,
            # Content-addressed chunk store: full get (manifest +
            # decompress + reassemble), one thread vs a 4-worker pool.
            **chunk_p50s,
        },
        "speedup": {
            "load_restore": eager_restore_p50 / max(lazy_restore_p50, 1e-9),
            "load": eager_load_p50 / max(lazy_open_p50, 1e-9),
        },
        "simulated_critical_path_s": simulated,
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
                        help="where the .npz artifact is written "
                             "(default: a temp directory)")
    parser.add_argument("--quick", action="store_true",
                        help="CI perf-smoke mode: smaller model, fewer "
                             "repeats, and --assert-speedup 2.0")
    parser.add_argument("--assert-speedup", type=float, default=None,
                        help="exit 1 unless lazy load+restore beats "
                             "eager load+restore by this factor")
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
    speedup = report["speedup"]["load_restore"]
    print(f"load+restore p50: eager "
          f"{wall['load_restore_eager'] * 1e3:.1f} ms, lazy "
          f"{wall['load_restore_lazy'] * 1e3:.1f} ms "
          f"({speedup:.1f}x)")
    if min_speedup is not None and speedup < min_speedup:
        print(f"FAIL: lazy load+restore is only {speedup:.2f}x eager "
              f"(required {min_speedup:g}x)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
