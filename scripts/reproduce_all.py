#!/usr/bin/env python
"""Reproduce the full evaluation in one command.

Equivalent to the original artifact's per-figure scripts (Appendix A):
runs the test suite, then every benchmark, and prints where each table and
figure landed.  Expect roughly 10-15 minutes of wall-clock time.

Usage::

    python scripts/reproduce_all.py            # tests + all benchmarks
    python scripts/reproduce_all.py --quick    # skip tests, headline benches only
"""

from __future__ import annotations

import argparse
import os
import pathlib
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent

HEADLINE_BENCHES = [
    "benchmarks/bench_table1.py",
    "benchmarks/bench_fig1_timeline.py",
    "benchmarks/bench_fig7_overall.py",
    "benchmarks/bench_fig8_strategies.py",
    "benchmarks/bench_fig10_ttft.py",
]


def run(args: list) -> int:
    print(f"\n$ {' '.join(args)}", flush=True)
    env = dict(os.environ)
    src = str(REPO / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{src}:{existing}" if existing else src
    return subprocess.call(args, cwd=REPO, env=env)


def lint_materialized_artifact() -> int:
    """Materialize one model and statically verify the artifact.

    The same gate CI applies: `repro lint` exits 1 on any diagnostic and
    2 on an unreadable artifact, so a non-zero return fails the run.
    """
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        artifact = str(pathlib.Path(tmp) / "qwen05b.medusa")
        code = run([sys.executable, "-m", "repro", "offline",
                    "--model", "Qwen1.5-0.5B", "--output", artifact])
        if code:
            return code
        return run([sys.executable, "-m", "repro", "lint", artifact])


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--quick", action="store_true",
                        help="skip the test suite; headline benches only")
    options = parser.parse_args()

    if not options.quick:
        code = run([sys.executable, "-m", "pytest", "tests/"])
        if code:
            print("test suite failed; aborting", file=sys.stderr)
            return code

    code = lint_materialized_artifact()
    if code:
        print("artifact static verification failed; aborting",
              file=sys.stderr)
        return code

    targets = HEADLINE_BENCHES if options.quick else ["benchmarks/"]
    code = run([sys.executable, "-m", "pytest", *targets,
                "--benchmark-only", "-q"])
    if code:
        return code

    results = REPO / "results"
    print("\nRegenerated outputs:")
    for path in sorted(results.glob("*.txt")):
        print(f"  results/{path.name}")
    print("\nSee EXPERIMENTS.md for the paper-vs-measured record.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
