"""Run one workload: inputs, timed set-ups, the timed loop, checks.

The last line the runner prints is the JSON result: ``correct``,
``attempted``, ``failed`` and the metrics — every end-to-end metric of
BENCHMARK.json untraced (``--trace 0``), every per-layer metric traced
(``--trace 1``).  The same result, plus the raw samples,
checks and simulated quantities, lands in ``<out>/<workload>-seed<N>-
trace<T>.json``, which ``compare.py`` reads.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import shutil
import sys
import time
import traceback
from dataclasses import asdict, dataclass
from pathlib import Path
from statistics import fmean
from typing import Dict, List, Tuple

from bench import stats
from bench.tracing import Hooks, Recorder, layer_metrics


@dataclass
class Sample:
    """One timed op; ``kind`` is its position in the round."""

    round: int
    kind: int
    traced: bool
    seconds: float
    items: float
    errors: List[str]


def _probe_seconds() -> float:
    """Best of three ~1 ms runs of a fixed pure-Python loop."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(20_000):
            total += i * i % 7
        best = min(best, time.perf_counter() - start)
    return best


def pin_to_fastest_cpu(cpus) -> None:
    """Pin this (single-threaded) process to whichever of ``cpus`` runs
    a probe loop fastest right now.

    On a shared host each vCPU alternates, independently of the others,
    between a fast state and one about 1.5x slower, for milliseconds to
    tens of seconds at a time (see bench/README.md).  Choosing the
    currently faster vCPU before each timed step lets fewer steps land
    in a slow stretch.  Untimed; no-op where affinity is unsupported.
    """
    if len(cpus) < 2 or not hasattr(os, "sched_setaffinity"):
        return
    speeds = []
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        speeds.append((_probe_seconds(), cpu))
    os.sched_setaffinity(0, {min(speeds)[1]})


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _is_traced(trace: bool, round_index: int, position: int) -> bool:
    """Traced runs alternate traced and untraced ops, shifting by one each
    round, so both halves see the same model mix; the untraced half gives
    the tracing overhead."""
    return trace and (round_index + position) % 2 == 0


def end_to_end_metrics(setup_seconds: List[float], samples: List[Sample],
                       peak_rss_mb: float) -> Dict[str, Tuple[float, str]]:
    """The ``end_to_end`` block of BENCHMARK.json, from untraced ops.

    Op timings come from the fastest op of each kind (one model of the
    mix, or the one call or trace of a round), averaged over kinds, so
    that every model weighs alike.  A shared machine alternates between
    a fast state and a slower one for seconds to minutes; a run's median
    mostly says how much of the run fell into the slow state, while its
    fastest ops say how fast the code is (see bench/README.md).
    ``op_min_ms`` is the fastest op time and ``items_per_s`` the highest
    rate of work items per second.  Failed ops do not count.
    """
    kinds: Dict[int, List[Sample]] = {}
    for sample in samples:
        if not sample.traced and not sample.errors:
            kinds.setdefault(sample.kind, []).append(sample)
    fastest = [min(s.seconds for s in ops) for ops in kinds.values()]
    rates = [max(s.items / s.seconds for s in ops) for ops in kinds.values()]
    return {
        "setup_s": (stats.quartiles(setup_seconds)[1], "s"),
        "op_min_ms": (fmean(fastest) * 1e3 if fastest else 0.0, "ms"),
        "items_per_s": (fmean(rates) if rates else 0.0, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
    }


def run_workload(workload, seed: int, trace: bool, out_dir: Path) -> dict:
    """Run ``workload`` once and return its result record."""
    workdir = out_dir / "work" / workload.name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    allowed = (os.sched_getaffinity(0)
               if hasattr(os, "sched_getaffinity") else set())
    try:
        return _run(workload, seed, trace, out_dir, workdir, sorted(allowed))
    finally:
        if allowed:
            os.sched_setaffinity(0, allowed)
        shutil.rmtree(workdir, ignore_errors=True)


def _run(workload, seed, trace, out_dir, workdir, cpus) -> dict:
    inputs = workload.inputs(seed, workdir)
    setup_seconds = []
    for _ in range(workload.setup_repeats):
        gc.collect()
        pin_to_fastest_cpu(cpus)
        start = time.perf_counter()
        state = workload.setup(inputs, workdir)
        setup_seconds.append(time.perf_counter() - start)

    recorder = Recorder()
    hooks = Hooks(recorder)
    samples: List[Sample] = []
    for round_index in range(workload.round_count):
        for position, arg in enumerate(workload.round_ops(state,
                                                          round_index)):
            traced = _is_traced(trace, round_index, position)
            samples.append(_timed_op(workload, state, arg, round_index,
                                     position, traced, recorder, hooks,
                                     len(samples), cpus))
    checks, simulated = workload.finish(state)

    traced_ops = [s for s in samples if s.traced]
    if trace:
        untraced = [s.seconds for s in samples if not s.traced]
        overhead = (stats.quartiles([s.seconds for s in traced_ops])[1]
                    / stats.quartiles(untraced)[1] - 1.0) * 100.0
        metrics = layer_metrics(recorder, len(traced_ops), overhead)
    else:
        metrics = end_to_end_metrics(setup_seconds, samples, _peak_rss_mb())

    failed = sum(1 for sample in samples if sample.errors)
    ops_ms = sorted(s.seconds * 1e3 for s in samples if not s.traced)
    tail = stats.tail_percentile(len(ops_ms))
    record = {
        "workload": workload.name, "seed": seed, "trace": int(trace),
        "rounds": workload.round_count,
        "correct": failed == 0 and all(checks.values()),
        "attempted": len(samples), "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
        "simulated": {name: {"value": value, "unit": unit}
                      for name, (value, unit) in simulated.items()},
        "checks": checks,
        "op_median_ms": stats.quartiles(ops_ms)[1],
        "op_tail": None if tail is None else {
            "percentile": tail, "samples": len(ops_ms),
            "ms": stats.nearest_rank(ops_ms, tail)},
        "setup_seconds": setup_seconds,
        "samples": [asdict(sample) for sample in samples],
    }
    stem = f"{workload.name}-seed{seed}"
    (out_dir / f"{stem}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1))
    if trace:
        recorder.write(out_dir / f"{stem}.layers.json",
                       out_dir / f"{stem}.trace.json",
                       {"workload": workload.name, "seed": seed,
                        "traced_ops": len(traced_ops),
                        "trace_overhead_pct": overhead,
                        "unattributed_pct":
                            recorder.unattributed_share() * 100.0})
    return record


def _timed_op(workload, state, arg, round_index, kind, traced, recorder,
              hooks, op_id, cpus) -> Sample:
    gc.collect()
    pin_to_fastest_cpu(cpus)
    if traced:
        hooks.install()
        recorder.begin_op(op_id)
    output = error = None
    start = time.perf_counter()
    try:
        output = workload.op(state, arg)
    except Exception as exc:   # one failed op must not end the run
        error = exc
    finally:
        elapsed = time.perf_counter() - start
        if traced:
            recorder.end_op()
            hooks.uninstall()
    if error is not None:
        traceback.print_exception(error, file=sys.stderr)
        return Sample(round_index, kind, traced, elapsed, 0.0,
                      [f"{type(error).__name__}: {error}"])
    verified = workload.verify(state, arg, output)
    return Sample(round_index, kind, traced, elapsed, verified.items,
                  verified.errors)


def print_record(record: dict) -> None:
    """Every metric by name and unit, then the JSON result line."""
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"trace {record['trace']}  rounds {record['rounds']}  "
          f"ops {record['attempted']}  failed {record['failed']}")
    for group in ("metrics", "simulated"):
        for name, metric in record[group].items():
            print(f"  {name:<40} {metric['value']:>16.6g} {metric['unit']}")
    print(f"  {'op median':<40} {record['op_median_ms']:>16.6g} ms")
    tail = record["op_tail"]
    if tail is not None:
        print(f"  {'op tail (p' + str(tail['percentile']) + ')':<40} "
              f"{tail['ms']:>16.6g} ms over {tail['samples']} ops")
    for check, passed in record["checks"].items():
        print(f"  check {'ok  ' if passed else 'FAIL'} {check}")
    for sample in record["samples"]:
        for error in sample["errors"]:
            print(f"  op FAIL {error}")
    line = {key: record[key]
            for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(line), flush=True)
