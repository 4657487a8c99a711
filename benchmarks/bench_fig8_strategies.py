"""Figure 8: stage-level breakdown of the three strategies on Qwen1.5-4B.

Paper: vLLM 2.85 s total (0.85/0.39/0.21/0.50/0.90); vLLM+ASYNC -13.0% with
a ~0.26 s bubble and +0.08 s weight/profiling interference; Medusa -41.4%
with KV init 0.50 -> 0.02 s and capturing 0.90 -> 0.57 s.
"""

import pytest

from repro.engine import Strategy
from repro.engine.loadplan import MEDUSA_RESTORE, MEDUSA_WARMUP
from repro.reporting import format_table

MODEL = "Qwen1.5-4B"


def _breakdown(coldstarts):
    rows = []
    reports = {s: coldstarts.report(MODEL, s)
               for s in (Strategy.VLLM, Strategy.VLLM_ASYNC, Strategy.MEDUSA)}
    for strategy, report in reports.items():
        for stage in report.timeline.stages:
            rows.append([strategy.label, stage.name, stage.start, stage.end,
                         stage.duration])
        rows.append([strategy.label, "TOTAL", 0.0, report.loading_time,
                     report.loading_time])
    text = format_table(
        f"Figure 8: loading-phase schedule per strategy ({MODEL})",
        ["strategy", "stage", "start (s)", "end (s)", "duration (s)"], rows)

    vllm = reports[Strategy.VLLM]
    vasync = reports[Strategy.VLLM_ASYNC]
    medusa = reports[Strategy.MEDUSA]
    medusa_capture = (medusa.stage_durations[MEDUSA_WARMUP]
                      + medusa.stage_durations[MEDUSA_RESTORE])
    text += (
        f"\nvLLM total: {vllm.loading_time:.2f} s (paper: 2.85)"
        f"\nvLLM+ASYNC reduction: "
        f"{100 * (1 - vasync.loading_time / vllm.loading_time):.1f}% "
        f"(paper: 13.0%), bubble: {vasync.timeline.bubble():.2f} s "
        f"(paper: 0.26)"
        f"\nMedusa reduction: "
        f"{100 * (1 - medusa.loading_time / vllm.loading_time):.1f}% "
        f"(paper: 41.4%)"
        f"\nKV init: {vllm.stage_durations['kv_init']:.2f} -> "
        f"{medusa.stage_durations['kv_init']:.2f} s (paper: 0.50 -> 0.02)"
        f"\ncapturing: {vllm.stage_durations['capture']:.2f} -> "
        f"{medusa_capture:.2f} s (paper: 0.90 -> 0.57)")
    return text


@pytest.mark.benchmark(group="fig8")
def test_fig8_strategy_breakdown(benchmark, emit, coldstarts):
    text = benchmark.pedantic(_breakdown, args=(coldstarts,),
                              rounds=1, iterations=1)
    emit("Figure8", text)
