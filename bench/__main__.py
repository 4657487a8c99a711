"""Command line: ``python3 -m bench run [--workload NAME] [--seed N]
[--trace 0|1] [--out DIR]``, from the repository root.

With ``--workload`` the run happens in this process and its last output
line is the JSON result.  Without it every workload runs, one at a time,
each in its own child process.  ``python3 -m bench build-store`` is the
child process in which a run materializes its input store.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from bench import ROOT
from bench.workloads import WORKLOADS

SRC = ROOT / "src"


def _require_program() -> None:
    """Put the checkout's ``src/`` first on the import path, or stop."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"bench: the program's source is missing "
                         f"({SRC / 'repro'}); run from the repository root")
    sys.path.insert(0, str(SRC))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python3 -m bench")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run one workload, or all of them")
    run.add_argument("--workload", choices=list(WORKLOADS))
    run.add_argument("--seed", type=int, default=1)
    # Benchmark harnesses pass BENCHMARK.json's run_seconds here.  The op
    # count of every workload is fixed, so that two commits always do the
    # same work; the value is accepted and changes nothing.
    run.add_argument("--seconds", type=float, help=argparse.SUPPRESS)
    run.add_argument("--trace", type=int, choices=(0, 1), default=0,
                     help="1: per-layer spans instead of end-to-end metrics")
    run.add_argument("--out", type=Path, default=ROOT / ".bench_out",
                     help="directory for result, layers and trace files")
    store = sub.add_parser("build-store", help="materialize a workload's "
                           "input store (run does this when it must)")
    store.add_argument("directory", type=Path,
                       help="gets store/ and facts.json")
    store.add_argument("--models", nargs="+", required=True)
    store.add_argument("--baselines", nargs="*", default=[])
    return parser


def _build_store(args) -> int:
    from bench.workloads import build_store
    facts = build_store(str(args.directory / "store"), args.models,
                        args.baselines)
    (args.directory / "facts.json").write_text(json.dumps(facts))
    return 0


def _run_all(args) -> int:
    worst = 0
    for name in WORKLOADS:
        command = [sys.executable, "-m", "bench", "run", "--workload", name,
                   "--seed", str(args.seed), "--trace", str(args.trace),
                   "--out", str(args.out)]
        worst = max(worst, subprocess.run(command, cwd=ROOT).returncode)
    return worst


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "build-store":
        _require_program()
        return _build_store(args)
    if args.workload is None:
        return _run_all(args)
    _require_program()
    from bench.runner import print_record, run_workload
    args.out.mkdir(parents=True, exist_ok=True)
    record = run_workload(WORKLOADS[args.workload], args.seed,
                          bool(args.trace), args.out)
    print_record(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
