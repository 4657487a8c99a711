"""Compare two sets of benchmark runs.

    python3 -m bench.compare A B

``A`` (the parent) and ``B`` (the change) are ``--out`` directories, each
holding untraced runs of the same workloads.  For every workload and
end-to-end metric this prints both sides' median and quartiles and a
verdict:

- ``worse``: B's median is worse than A's by more than the metric's bound;
- ``unresolved``: either side's spread (Q3 - Q1 over the median) exceeds
  the bound, unless every run of B reads better than every run of A;
- ``ok`` otherwise.

It also applies the failed-ops rule (B may not fail a larger share of its
ops than A), flags any incorrect run, and requires every simulated
(cost-model) quantity to be bit-identical between runs of the same
workload and seed.  The exit status is 1 when any row is not ok.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from bench.stats import failed_frac, quartiles, spread

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

Runs = Dict[str, List[dict]]


def load_spec(path: Path = SPEC_PATH) -> dict:
    """The benchmark definition (BENCHMARK.json)."""
    return json.loads(Path(path).read_text())


def load_runs(directory: Path) -> Runs:
    """Untraced run records in ``directory``, grouped by workload."""
    runs: Runs = {}
    for path in sorted(Path(directory).glob("*-trace0.json")):
        record = json.loads(path.read_text())
        runs.setdefault(record["workload"], []).append(record)
    return runs


def _better(value: float, than: float, better: str) -> bool:
    return value < than if better == "lower" else value > than


def verdict(parent: Sequence[float], change: Sequence[float], bound: float,
            better: str) -> str:
    """``ok``, ``worse`` or ``unresolved`` for one metric."""
    if spread(parent) > bound or spread(change) > bound:
        everywhere = all(_better(b, a, better)
                         for a in parent for b in change)
        return "ok" if everywhere else "unresolved"
    base, new = quartiles(parent)[1], quartiles(change)[1]
    limit = base * (1 + bound) if better == "lower" else base * (1 - bound)
    return "worse" if _better(limit, new, better) else "ok"


def failed_verdict(parent: List[dict], change: List[dict]) -> Tuple[str,
                                                                     float,
                                                                     float]:
    """B may not fail a larger share of its ops than A."""
    def share(runs):
        return failed_frac(sum(r["attempted"] for r in runs),
                           sum(r["failed"] for r in runs))
    before, after = share(parent), share(change)
    return ("worse" if after > before else "ok"), before, after


def simulated_mismatches(parent: List[dict],
                         change: List[dict]) -> List[str]:
    """Simulated quantities that differ between runs of one seed."""
    by_seed = {record["seed"]: record["simulated"] for record in parent}
    problems = []
    for record in change:
        expected = by_seed.get(record["seed"])
        if expected is None:
            continue
        for name in sorted(set(expected) | set(record["simulated"])):
            a = expected.get(name, {}).get("value")
            b = record["simulated"].get(name, {}).get("value")
            if a != b:
                problems.append(f"seed {record['seed']} {name}: {a} != {b}")
    return problems


def compare(parent: Runs, change: Runs, spec: dict) -> List[Tuple]:
    """One ``(workload, what, detail, verdict)`` row per comparison."""
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        a, b = parent.get(workload, []), change.get(workload, [])
        if not a or not b:
            rows.append((workload, "runs", f"{len(a)} vs {len(b)}",
                         "missing"))
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            xs = [r["metrics"][name]["value"] for r in a]
            ys = [r["metrics"][name]["value"] for r in b]
            qa, qb = quartiles(xs), quartiles(ys)
            change_pct = (qb[1] / qa[1] - 1) * 100 if qa[1] else 0.0
            detail = (f"A {qa[1]:.6g} [{qa[0]:.6g}, {qa[2]:.6g}]  "
                      f"B {qb[1]:.6g} [{qb[0]:.6g}, {qb[2]:.6g}]  "
                      f"{change_pct:+.2f}% (bound {metric['bound']:.0%})")
            rows.append((workload, name, detail,
                         verdict(xs, ys, metric["bound"], metric["better"])))
        state, before, after = failed_verdict(a, b)
        rows.append((workload, "failed_frac",
                     f"A {before:.4g}  B {after:.4g}", state))
        incorrect = sum(1 for r in a + b if not r["correct"])
        rows.append((workload, "correct", f"{incorrect} incorrect runs",
                     "ok" if incorrect == 0 else "incorrect"))
        mismatches = simulated_mismatches(a, b)
        rows.append((workload, "simulated",
                     "; ".join(mismatches) or "bit-identical per seed",
                     "ok" if not mismatches else "mismatch"))
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: python3 -m bench.compare PARENT_DIR CHANGE_DIR",
              file=sys.stderr)
        return 2
    rows = compare(load_runs(Path(argv[0])), load_runs(Path(argv[1])),
                   load_spec())
    for workload, what, detail, state in rows:
        print(f"{workload:<17} {what:<12} {state:<10} {detail}")
    return 0 if all(row[3] == "ok" for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
