"""The repository benchmark: four workloads, end-to-end and per-layer
metrics.  See ``bench/README.md``; run with ``python3 -m bench run``."""

from pathlib import Path

#: The repository root; the program's source is under ``ROOT / "src"``.
ROOT = Path(__file__).resolve().parent.parent
