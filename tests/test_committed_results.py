"""The committed benchmark tables are what the benchmarks write today.

Each deterministic benchmark runs with ``--quick`` as a subprocess, the
way CI's determinism job runs it, into a temporary file: it must exit 0
(its own gate passed) and write exactly the bytes committed under
``results/``.
"""

import os
import pathlib
import subprocess
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script,table", [
    ("bench_locality.py", "BenchLocality.txt"),
    ("bench_chunk_fetch.py", "BenchChunkFetch.txt"),
    ("bench_autoscale.py", "BenchAutoscale.txt"),
])
def test_quick_run_writes_the_committed_table(script, table, tmp_path):
    output = tmp_path / table
    path = [str(REPO / "src"), os.environ.get("PYTHONPATH", "")]
    result = subprocess.run(
        [sys.executable, str(REPO / "benchmarks" / script), "--quick",
         "--output", str(output)],
        capture_output=True, text=True, timeout=300, cwd=REPO,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path))))
    assert result.returncode == 0, result.stderr[-2000:]
    assert output.read_bytes() == (REPO / "results" / table).read_bytes()
